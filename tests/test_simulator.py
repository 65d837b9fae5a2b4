import math

import numpy as np
import pytest

from conftest import geometric
from meanfield_ldp.measures import (StateDistribution, entropy_projection,
                                    theta_values, tv_distance)
from meanfield_ldp.models import (EdgeKind, single_particle_stationary,
                                  wlan_decay_model)
from meanfield_ldp import simulator
from meanfield_ldp.simulator import (_BLOCK, BallEvent, JumpWorkspace,
                                     NotInKMEvent, SimConfig,
                                     TruncationOverflowError, _occupation,
                                     _tilted_estimate,
                                     estimate_invariant_multi,
                                     estimate_rate_curve, gillespie_step,
                                     resolve_burn_in, save_rate_estimates,
                                     substream)


def _all_at_zero(N, z_max):
    counts = np.zeros(z_max + 1, dtype=np.int64)
    counts[0] = N
    return counts


def _whole_space(z_max):
    """Every measure lies within TV distance 1 of the point mass at 0."""
    return BallEvent(StateDistribution.delta(0, z_max), 1.0)


def test_unit_ball_holds_every_count_vector():
    """The radius-1 ball holds every measure, also those at distance
    exactly 1 from its centre (no mass at 0), where the batched sum of
    counts / N can round above 1."""
    rng = np.random.default_rng(5)
    p = np.r_[0.02, np.full(12, 0.98 / 12)]
    counts = rng.multinomial(50, p, size=4000)
    assert (counts[:, 0] == 0).sum() > 1000
    ball = _whole_space(12)
    assert ball.batch(counts / 50).all()
    assert all(tv_distance(StateDistribution(c / 50, 12), ball.center)
               <= ball.radius for c in counts[:200])


def _field(counts):
    """A row for the field a step writes."""
    return np.empty(counts.shape[0])


def test_single_enabled_transition(mm1):
    work = JumpWorkspace(_all_at_zero(1, 10))
    before = work.counts.copy()
    rng = substream(0, 0)
    z, zp, dt = gillespie_step(mm1, work, rng, _field(before))
    assert np.array_equal(work.counts, before)  # the caller applies the move
    assert dt > 0
    work.jump(z, zp)
    assert work.counts[1] == 1 and work.counts[0] == 0


def test_two_particles_at_zero(wlan_const):
    work = JumpWorkspace(_all_at_zero(2, 10))
    rng = substream(0, 1)
    z, zp, _ = gillespie_step(wlan_const, work, rng, _field(work.counts))
    work.jump(z, zp)
    assert work.counts[0] == 1 and work.counts[1] == 1


def test_counts_invariant_preserved(interacting):
    """Every jump keeps the particle count, and the movers stay the
    counts with the forward entry at z_max and the backward entry at 0
    removed."""
    work = JumpWorkspace(_all_at_zero(20, 15))
    rng = substream(3, 0)
    xi = _field(work.counts)
    for _ in range(2000):
        z, zp, _ = gillespie_step(interacting, work, rng, xi)
        work.jump(z, zp)
        assert int(work.counts.sum()) == 20
        assert work.counts.min() >= 0
        assert np.array_equal(work.movers,
                              [np.r_[work.counts[:-1], 0.0],
                               np.r_[0.0, work.counts[1:]]])


def test_edge_selection_frequencies(mm1):
    """Chi-square check of edge choice against rate proportions from a
    fixed state (3 sigma multinomial bounds)."""
    counts = np.zeros(11, dtype=np.int64)
    counts[0] = 3
    counts[1] = 2
    work = JumpWorkspace(counts)
    xi = _field(counts)
    rng = substream(7, 0)
    hits = {}
    n = 100_000
    for _ in range(n):
        z, zp, _ = gillespie_step(mm1, work, rng, xi)
        hits[(z, zp)] = hits.get((z, zp), 0) + 1
    # rates: (0,1): 3*1, (1,2): 2*1, (1,0): 2*2
    total = 3.0 + 2.0 + 4.0
    expected = {(0, 1): 3 / total, (1, 2): 2 / total, (1, 0): 4 / total}
    for edge, p in expected.items():
        sd = math.sqrt(n * p * (1 - p))
        assert abs(hits[edge] - n * p) < 3.0 * sd


def test_seed_reproducibility(interacting):
    cfg = SimConfig(N=20, seed=5, horizon=10.0, burn_in=1.0, z_max=15)
    events = [BallEvent(geometric(0.5, 15), 0.3)]
    for a, b in zip(_occupation(interacting, cfg, events, replica=0),
                    _occupation(interacting, cfg, events, replica=0)):
        assert np.array_equal(a, b)


def test_total_mass_at_every_sample(mm1):
    cfg = SimConfig(N=50, seed=1, horizon=20.0, burn_in=0.5, z_max=25)
    _, counts = _simulate_path_reference(mm1, cfg, 0.5)
    assert np.all(counts.sum(axis=1) == 50)


def test_mean_state0_occupancy_mm1(mm1):
    """Long-run average occupancy of state 0 versus the closed form."""
    cfg = SimConfig(N=50, seed=11, horizon=400.0, burn_in=20.0, z_max=25)
    est, = estimate_invariant_multi(mm1, cfg, [_whole_space(25)])
    assert est.p_hat == 1.0
    times, counts = _simulate_path_reference(mm1, cfg, 0.5)
    keep = times >= 20.0
    frac0 = counts[keep, 0].mean() / 50
    assert abs(frac0 - 0.5) < 0.03


def test_whole_space_event(interacting):
    cfg = SimConfig(N=10, seed=2, horizon=30.0, burn_in=1.0, z_max=15)
    est, = estimate_invariant_multi(interacting, cfg, [_whole_space(15)])
    assert est.p_hat == 1.0
    assert est.rate == 0.0


def test_zero_occupancy_lower_bound_only(interacting):
    cfg = SimConfig(N=30, seed=2, horizon=30.0, burn_in=1.0, z_max=15)
    est, = estimate_invariant_multi(interacting, cfg, [NotInKMEvent(6.0, 15)])
    assert est.lower_bound_only
    assert est.p_hat == 0.0
    assert est.rate > 0.0


def test_occupation_rejects_burn_in_past_horizon(interacting):
    # the default burn-in, 20 / lambda_lower = 20, lies beyond the horizon
    cfg = SimConfig(N=10, seed=0, horizon=15.0, z_max=15)
    with pytest.raises(ValueError, match="burn-in"):
        _occupation(interacting, cfg, [_whole_space(15)], replica=0)


@pytest.mark.parametrize("burn_in", [-3.0, 15.0])
def test_sim_config_rejects_burn_in_outside_run(burn_in):
    with pytest.raises(ValueError, match="burn_in"):
        SimConfig(N=10, seed=0, horizon=15.0, burn_in=burn_in)


def test_truncation_overflow_aborts(interacting):
    counts = np.zeros(13, dtype=np.int64)
    counts[12] = 1
    counts[0] = 9
    with pytest.raises(TruncationOverflowError):
        gillespie_step(interacting, JumpWorkspace(counts), substream(0, 0),
                       _field(counts))


def test_occupation_aborts_on_truncation_overflow(interacting):
    """An interacting run on a window too small for it stops when a
    particle reaches z_max, instead of reflecting it there."""
    cfg = SimConfig(N=20, seed=0, horizon=30.0, burn_in=1.0, z_max=3)
    with pytest.raises(TruncationOverflowError):
        _occupation(interacting, cfg, [_whole_space(3)], replica=0)


# -- the per-jump loops, kept as the reference for the count-vector loops ----------

def _step_reference(model, counts, rng):
    """One jump from a valid count vector to a new valid count vector,
    with the rates taken from the raw rate functions."""
    z_max = counts.shape[0] - 1
    xi = counts / counts.sum()
    z = np.arange(z_max + 1)
    fwd = np.where(z < z_max, model.forward(z, xi), 0.0) * counts
    back = np.where(z > 0, model.backward(z, xi), 0.0) * counts
    total = float(fwd.sum() + back.sum())
    dt = rng.exponential(1.0 / total)
    u = rng.uniform(0.0, total)
    cum = np.concatenate([np.cumsum(fwd), fwd.sum() + np.cumsum(back)])
    idx = int(np.searchsorted(cum, u, side="right"))
    n = counts.shape[0]
    new = counts.copy()
    if idx < n:
        z, zp = idx, idx + 1
    else:
        z = idx - n
        zp = z - 1 if model.kind is EdgeKind.BIRTH_DEATH else 0
    new[z] -= 1
    new[zp] += 1
    assert new.min() >= 0 and new.sum() == counts.sum()
    return new, dt


def _hit_reference(event, dist):
    """One event tested on one measure, without ``batch``."""
    if isinstance(event, BallEvent):
        return tv_distance(dist, event.center) <= event.radius
    return float(dist.probs @ event.theta) > event.M


def _occupation_reference(model, config, events):
    """The per-jump occupation loop; also returns the number of held
    states it evaluated and the most batches one holding interval met."""
    rng = substream(config.seed, 0)
    counts = _all_at_zero(config.N, config.z_max)
    burn = resolve_burn_in(config.burn_in, model)
    n_batches = 20
    batch_len = (config.horizon - burn) / n_batches
    occupied = np.zeros((len(events), n_batches))
    lengths = np.zeros(n_batches)
    held = widest = 0
    t = 0.0
    while t < config.horizon:
        nxt, dt = _step_reference(model, counts, rng)
        a, b = t, min(t + dt, config.horizon)
        if b > burn:
            lo = max(a, burn)
            emp = StateDistribution(counts / config.N, config.z_max)
            hits = np.array([1.0 if _hit_reference(ev, emp) else 0.0
                             for ev in events])
            held += 1
            j0 = int((lo - burn) / batch_len)
            j1 = int((b - burn) / batch_len)
            widest = max(widest, min(j1, n_batches - 1) + 1 - j0)
            for j in range(j0, min(j1, n_batches - 1) + 1):
                seg_lo = burn + j * batch_len
                seg_hi = seg_lo + batch_len
                w = max(0.0, min(b, seg_hi) - max(lo, seg_lo))
                occupied[:, j] += w * hits
                lengths[j] += w
        t += dt
        counts = nxt
    fractions = occupied / np.maximum(lengths, 1e-300)[None, :]
    return occupied.sum(axis=1), lengths, fractions, held, widest


def _simulate_path_reference(model, config, thinning):
    """The per-jump chain from all particles at 0, sampled every
    ``thinning`` time units by holding the last jump state."""
    rng = substream(config.seed, 0)
    counts = _all_at_zero(config.N, config.z_max)
    t = 0.0
    sample_times = np.arange(0.0, config.horizon + 1e-12, thinning)
    out = np.zeros((sample_times.shape[0], config.z_max + 1), dtype=np.int64)
    k = 0
    while k < sample_times.shape[0]:
        nxt, dt = _step_reference(model, counts, rng)
        while k < sample_times.shape[0] and sample_times[k] <= t + dt:
            out[k] = counts
            k += 1
        t += dt
        counts = nxt
    return sample_times, out


# (N, horizon, burn_in, least held states, least batches one holding
# interval meets): several evaluation blocks of short intervals, or a
# short run whose intervals span several batches of length 0.1.  Holding
# times are differences of clock values, so a batch sums them exactly in
# any order unless the clock is small against the batch length; the
# short burn-in of the first run makes the sums of its first batch round
# differently when the order of the pieces changes.
_OCCUPATION_RUNS = [(20, 70.0, 0.05, 3 * _BLOCK, 2), (2, 5.0, 3.0, 1, 3)]


@pytest.mark.parametrize("run", _OCCUPATION_RUNS, ids=["long", "straddling"])
@pytest.mark.parametrize("which", ["interacting", "mm1", "wlan_const",
                                   "wlan_decay"])
def test_occupation_matches_per_jump_reference(request, which, run):
    """Occupied times, batch lengths and fractions are bitwise those of
    the per-jump loop, over several evaluation blocks."""
    model = request.getfixturevalue(which)
    N, horizon, burn_in, least_held, least_widest = run
    z_max = 15
    cfg = SimConfig(N=N, seed=17, horizon=horizon, burn_in=burn_in,
                    z_max=z_max)
    events = [BallEvent(geometric(0.5, z_max), 0.3),
              NotInKMEvent(0.8, z_max), _whole_space(z_max)]
    occ, lengths, fractions, held, widest = \
        _occupation_reference(model, cfg, events)
    got = _occupation(model, cfg, events, replica=0)
    assert np.array_equal(got[0], occ)
    assert np.array_equal(got[1], lengths)
    assert np.array_equal(got[2], fractions)
    assert 0.0 < fractions[:2].mean() < 1.0  # the events do not all tie
    assert held >= least_held and widest >= least_widest


@pytest.mark.parametrize("which", ["interacting", "mm1", "wlan_const",
                                   "wlan_decay"])
def test_step_matches_per_jump_reference(request, which):
    """Jump by jump, the workspace kernel draws the same holding time,
    bit for bit, and moves the same particle as the reference step; a
    total rate one ulp off would change the holding time."""
    model = request.getfixturevalue(which)
    rng, ref_rng = substream(9, 0), substream(9, 0)
    counts = _all_at_zero(20, 15)
    work = JumpWorkspace(counts)
    xi = _field(counts)
    for _ in range(3000):
        counts, ref_dt = _step_reference(model, counts, ref_rng)
        z, zp, dt = gillespie_step(model, work, rng, xi)
        work.jump(z, zp)
        assert dt == ref_dt
        assert np.array_equal(work.counts, counts)


def test_occupation_steps_once_per_jump(interacting, monkeypatch):
    """``_occupation`` makes exactly one module-level ``gillespie_step``
    call per jump of the chain, which is what a trace of that function
    counts as jumps."""
    cfg = SimConfig(N=20, seed=17, horizon=20.0, burn_in=1.0, z_max=15)
    rng = substream(cfg.seed, 0)
    counts = _all_at_zero(cfg.N, cfg.z_max)
    jumps, t = 0, 0.0
    while t < cfg.horizon:
        counts, dt = _step_reference(interacting, counts, rng)
        t += dt
        jumps += 1
    calls = []
    step = simulator.gillespie_step

    def counting(*args):
        calls.append(None)
        return step(*args)

    monkeypatch.setattr(simulator, "gillespie_step", counting)
    _occupation(interacting, cfg, [_whole_space(cfg.z_max)], replica=0)
    assert jumps > 100 and len(calls) == jumps


# -- rate curves -----------------------------------------------------------------------

def test_rate_curve_probability_one_event(mm1):
    rows = estimate_rate_curve(mm1, _whole_space(30), [10, 20], 2000, seed=0)
    for r in rows:
        assert r.p_hat == 1.0
        assert r.rate == 0.0


def test_rate_curve_matches_sanov_at_small_N(mm1):
    """Feasible-scale check of the Sanov recovery: at N = 20 the ball
    event has probability ~2e-4 and plain Monte Carlo resolves it."""
    from meanfield_ldp.measures import sanov_inf_over_ball
    event = BallEvent(StateDistribution.delta(0, 30), 0.1)
    rows = estimate_rate_curve(mm1, event, [20], 400_000, seed=3, z_max=30,
                               importance=False)
    r = rows[0]
    assert not r.lower_bound_only
    target = sanov_inf_over_ball(single_particle_stationary(mm1, 30),
                                 StateDistribution.delta(0, 30), 0.1)
    assert abs(r.rate - target) / target < 0.25


def test_rate_curve_zero_hits_reported_lower_bound(mm1):
    event = BallEvent(StateDistribution.delta(0, 30), 0.1)
    rows = estimate_rate_curve(mm1, event, [200], 2000, seed=3, z_max=30,
                               importance=False)
    assert rows[0].lower_bound_only


def _log_binom_tail(n: int, p: float, k0: int) -> float:
    """log P(Bin(n, p) >= k0), exact summation in log space."""
    logs = [math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p)
            for k in range(k0, n + 1)]
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))


def _rel_se(r):
    return (r.ci_high - r.ci_low) / (2 * 1.959963984540054) / r.p_hat


def test_rate_curve_importance_matches_exact_tail(mm1):
    """At N = 400 the ball around the point mass at 0 is a binomial tail
    of probability ~e^-150; the importance-sampled log p_hat lies within
    three relative standard errors of it."""
    event = BallEvent(StateDistribution.delta(0, 30), 0.1)
    r = estimate_rate_curve(mm1, event, [400], 200_000, seed=4, z_max=30)[0]
    assert not r.lower_bound_only
    pi0 = float(single_particle_stationary(mm1, 30).probs[0])
    exact = _log_binom_tail(400, pi0, 360)
    assert abs(-400 * r.rate - exact) <= 3 * _rel_se(r)
    assert _rel_se(r) < 0.01


@pytest.mark.parametrize("which", ["delta0", "dirichlet"])
def test_rate_curve_importance_agrees_with_plain_at_small_N(mm1, which):
    """Where plain Monte Carlo resolves the event (N = 20), its Wilson
    interval and the importance-sampling interval overlap, for the ball
    around the point mass at 0 and for a fixed non-point-mass centre
    (which exercises the general two-level tilt)."""
    if which == "delta0":
        event = BallEvent(StateDistribution.delta(0, 30), 0.1)
    else:
        p = np.zeros(31)
        p[:6] = np.random.default_rng(0).dirichlet(np.ones(6))
        event = BallEvent(StateDistribution(p, 30), 0.4)
    tilted, plain = (estimate_rate_curve(mm1, event, [20], 200_000, seed=11,
                                         importance=imp)[0]
                     for imp in (True, False))
    assert not tilted.lower_bound_only and not plain.lower_bound_only
    assert tilted.ci_low <= plain.ci_high and plain.ci_low <= tilted.ci_high
    assert _rel_se(tilted) < _rel_se(plain)


def test_tilted_estimate_does_not_depend_on_chunk(mm1):
    """Multinomial draws consume the stream row by row, so the chunk
    size bounds memory without changing the estimate."""
    pi = single_particle_stationary(mm1, 30)
    event = BallEvent(StateDistribution.delta(0, 30), 0.1)
    zeta = entropy_projection(pi, event.center, event.radius)
    n = 2000
    small, whole = (_tilted_estimate("ball", event, pi, zeta, 20, n, 3,
                                     substream(3, 0), chunk)
                    for chunk in (7, n))
    assert not whole.lower_bound_only
    assert small == whole


def test_rate_curve_threaded_deterministic(mm1):
    event = BallEvent(StateDistribution.delta(0, 30), 0.3)
    a = estimate_rate_curve(mm1, event, [20, 30, 40], 20_000, seed=5,
                            threads=1)
    b = estimate_rate_curve(mm1, event, [20, 30, 40], 20_000, seed=5,
                            threads=3)
    assert [r.p_hat for r in a] == [r.p_hat for r in b]


def test_rate_curve_interacting_runs_on_per_N_streams(interacting):
    """Each N of an interacting rate curve runs on ``substream(seed, i)``
    like a sampled one: a curve shares no run with the curve of the next
    seed, every estimate reports the caller's seed, and the pool size
    changes nothing."""
    event = NotInKMEvent(0.5, 20)
    a = estimate_rate_curve(interacting, event, [10, 10], 1, seed=7, z_max=20)
    b = estimate_rate_curve(interacting, event, [10], 1, seed=8, z_max=20)
    assert not b[0].lower_bound_only
    assert a[1].p_hat != b[0].p_hat
    assert [r.seed for r in a + b] == [7, 7, 8]
    assert estimate_rate_curve(interacting, event, [10, 10], 1, seed=7,
                               z_max=20, threads=2) == a


# -- dominating-chain stochastic domination audit -------------------------------------------

def test_dominating_chain_theta_domination(interacting):
    """Empirical theta-moments under the model are stochastically
    dominated by those under the dominating chain, the non-interacting
    chain with the model's largest forward and least reset rates
    (one-sided CDF comparison with a 99% DKW band)."""
    dom_pi = single_particle_stationary(wlan_decay_model(1.5, 1.0), 20).probs
    rng = substream(21, 0)
    n_dom = 2000
    theta = theta_values(20)
    dom_samples = np.array([rng.multinomial(40, dom_pi) @ theta / 40
                            for _ in range(n_dom)])
    cfg = SimConfig(N=40, seed=22, horizon=420.0, burn_in=20.0, z_max=20)
    times, counts = _simulate_path_reference(interacting, cfg, 1.0)
    keep = times >= cfg.burn_in
    model_samples = (counts[keep] @ theta) / 40
    eps = 1.63 / math.sqrt(n_dom) + 1.63 / math.sqrt(model_samples.size)
    grid = np.quantile(dom_samples, np.linspace(0.05, 0.95, 19))
    for x in grid:
        f_model = float((model_samples <= x).mean())
        f_dom = float((dom_samples <= x).mean())
        assert f_model >= f_dom - eps


def test_gillespie_occupation_matches_iid_sampling(mm1):
    """Long-run per-state occupation frequencies agree with exact
    i.i.d. stationary sampling within merged confidence bands."""
    z_max = 25
    N = 40
    cfg = SimConfig(N=N, seed=13, horizon=600.0, burn_in=30.0, z_max=z_max)
    times, counts = _simulate_path_reference(mm1, cfg, 1.0)
    keep = times >= cfg.burn_in
    occ = counts[keep].mean(axis=0) / N
    pi = single_particle_stationary(mm1, z_max).probs
    rng = substream(14, 0)
    m = 2000
    acc = np.zeros(z_max + 1)
    for _ in range(m):
        acc += rng.multinomial(N, pi) / N
    iid = acc / m
    for z in range(6):  # states carrying the bulk of the mass
        band = 3.0 * math.sqrt(iid[z] * (1 - iid[z]) / m) + 0.02
        assert abs(occ[z] - iid[z]) < band


# -- output format ----------------------------------------------------------------------------

def test_rate_estimate_csv(tmp_path, mm1):
    rows = estimate_rate_curve(mm1, _whole_space(30), [10], 100, seed=0)
    f = tmp_path / "rates.csv"
    save_rate_estimates(rows, f)
    lines = f.read_text().splitlines()
    assert lines[0] == "N,event,p_hat,ci_low,ci_high,rate,seed,algorithm"
    assert lines[1].startswith("10,ball(radius=1),1,")
    assert lines[1].endswith("philox4x64")
