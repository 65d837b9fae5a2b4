import math
import tracemalloc

import numpy as np
import pytest

from audits import affine_rate
from conftest import geometric
from meanfield_ldp.measures import (StateDistribution, entropy_projection,
                                    relative_entropy, theta_values,
                                    tv_distance)
from meanfield_ldp.models import (AffineRate, EdgeKind, RateModel, RateWindow,
                                  single_particle_stationary,
                                  wlan_decay_model)
from meanfield_ldp import simulator
from meanfield_ldp.simulator import (_BLOCK, _CHUNK_ENTRIES, BallEvent,
                                     JumpWorkspace, NotInKMEvent, SimConfig,
                                     TruncationOverflowError, _draws,
                                     _occupation, _tilted_estimate,
                                     estimate_invariant_multi,
                                     estimate_rate_curve, gillespie_step,
                                     resolve_burn_in, save_rate_estimates,
                                     substream)


@pytest.fixture(scope="module")
def two_coupled():
    """A reset chain coupled through two states: forward rates
    (1 + xi(0)/2)/(z+1) and reset rates 3/2 - xi(1)/2, inside the decay
    envelope with lambda_lower = 1 and lambda_upper = 3/2."""
    return RateModel(
        kind=EdgeKind.CHAIN_WITH_RESETS,
        forward=AffineRate(lambda z: 1.0 / (z + 1.0),
                           ((0, lambda z: 0.5 / (z + 1.0)),)),
        backward=AffineRate(lambda z: np.full(z.shape, 1.5),
                            ((1, lambda z: np.full(z.shape, -0.5)),)),
        lambda_upper=1.5, lambda_lower=1.0, name="two_coupled")


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


def test_single_enabled_transition(mm1):
    work = JumpWorkspace(mm1, _all_at_zero(1, 10))
    before = work.counts.copy()
    rng = substream(0, 0)
    z, zp, dt = gillespie_step(work, rng)
    assert np.array_equal(work.counts, before)  # the caller applies the move
    assert dt > 0
    work.jump(z, zp)
    assert work.counts[1] == 1 and work.counts[0] == 0


def test_two_particles_at_zero(wlan_const):
    work = JumpWorkspace(wlan_const, _all_at_zero(2, 10))
    rng = substream(0, 1)
    z, zp, _ = gillespie_step(work, rng)
    work.jump(z, zp)
    assert work.counts[0] == 1 and work.counts[1] == 1


def test_counts_invariant_preserved(interacting):
    """Every jump keeps the particle count."""
    work = JumpWorkspace(interacting, _all_at_zero(20, 15))
    rng = substream(3, 0)
    for _ in range(2000):
        z, zp, _ = gillespie_step(work, rng)
        work.jump(z, zp)
        assert int(work.counts.sum()) == 20
        assert work.counts.min() >= 0


def test_edge_selection_frequencies(mm1):
    """Chi-square check of edge choice against rate proportions from a
    fixed state (3 sigma multinomial bounds)."""
    counts = np.zeros(11, dtype=np.int64)
    counts[0] = 3
    counts[1] = 2
    work = JumpWorkspace(mm1, counts)
    rng = substream(7, 0)
    hits = {}
    n = 100_000
    for _ in range(n):
        z, zp, _ = gillespie_step(work, rng)
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


def _simulate_path(model, config, thinning):
    """The program's jump kernel from all particles at 0, sampled every
    ``thinning`` time units by holding the last jump state."""
    rng = substream(config.seed, 0)
    work = JumpWorkspace(model, _all_at_zero(config.N, config.z_max))
    t = 0.0
    sample_times = np.arange(0.0, config.horizon + 1e-12, thinning)
    out = np.zeros((sample_times.shape[0], config.z_max + 1), dtype=np.int64)
    k = 0
    while k < sample_times.shape[0]:
        z, zp, dt = gillespie_step(work, rng)
        while k < sample_times.shape[0] and sample_times[k] <= t + dt:
            out[k] = work.counts
            k += 1
        t += dt
        work.jump(z, zp)
    return sample_times, out


def test_total_mass_at_every_sample(mm1):
    cfg = SimConfig(N=50, seed=1, horizon=20.0, burn_in=0.5, z_max=25)
    _, counts = _simulate_path(mm1, cfg, 0.5)
    assert np.all(counts.sum(axis=1) == 50)


def test_mean_state0_occupancy_mm1(mm1):
    """Long-run average occupancy of state 0 versus the closed form."""
    cfg = SimConfig(N=50, seed=11, horizon=400.0, burn_in=20.0, z_max=25)
    est, = estimate_invariant_multi(mm1, cfg, [_whole_space(25)])
    assert est.p_hat == 1.0
    times, counts = _simulate_path(mm1, cfg, 0.5)
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
        gillespie_step(JumpWorkspace(interacting, counts), substream(0, 0))


def test_occupation_aborts_on_truncation_overflow(interacting):
    """An interacting run on a window too small for it stops when a
    particle reaches z_max, instead of reflecting it there."""
    cfg = SimConfig(N=20, seed=0, horizon=30.0, burn_in=1.0, z_max=3)
    with pytest.raises(TruncationOverflowError):
        _occupation(interacting, cfg, [_whole_space(3)], replica=0)


def test_two_state_window_runs_exactly():
    """A reset chain whose forward rate above state 0 is declared zero
    loses nothing to the window z_max = 1, so its interacting run passes
    the overflow guard.  With kappa = 0.5 it is a birth-death chain in
    the count n at state 1, with forward rate (N - n)(1 + kappa (1 - x))
    and reset rate n (1 + kappa x) at x = n / N, so pi_N is a product;
    the ball of radius 0.13 about (1/2, 1/2) has no lattice point of
    N = 40 on its sphere, and its occupation interval brackets the exact
    0.9442 within 3 half-widths."""
    kappa, N = 0.5, 40
    at_zero = lambda v: (lambda z: np.where(z == 0, v, 0.0))
    model = RateModel(
        kind=EdgeKind.CHAIN_WITH_RESETS,
        forward=AffineRate(at_zero(1.0), ((0, at_zero(kappa)),)),
        backward=AffineRate(lambda z: np.full(z.shape, 1.0 + kappa),
                            ((0, lambda z: np.full(z.shape, -kappa)),)),
        lambda_upper=1.0 + kappa, lambda_lower=1.0, name="two_state")
    log_w = np.cumsum([0.0] + [
        math.log((N - k) * (1 + kappa * (1 - k / N))
                 / ((k + 1) * (1 + kappa * (k + 1) / N))) for k in range(N)])
    law = np.exp(log_w - log_w.max())
    n = np.arange(N + 1)
    exact = law[np.abs(n / N - 0.5) <= 0.13].sum() / law.sum()
    assert abs(exact - 0.9442) < 1e-4
    event = BallEvent(StateDistribution(np.array([0.5, 0.5]), 1), 0.13)
    r = estimate_invariant_multi(model, SimConfig(N, 0, 200.0, z_max=1),
                                 [event])[0]
    assert not r.lower_bound_only
    assert abs(r.p_hat - exact) <= 3 * (r.ci_high - r.ci_low) / 2


# -- the per-jump loops, kept as the reference for the count-vector loops ----------

def _step_reference(model, counts, rng):
    """One jump from a valid count vector to a new valid count vector,
    with the rates taken from the model's affine declaration."""
    z_max = counts.shape[0] - 1
    xi = counts / counts.sum()
    z = np.arange(z_max + 1)
    fwd = np.where(z < z_max, affine_rate(model.forward, z, xi), 0.0) * counts
    back = np.where(z > 0, affine_rate(model.backward, z, xi), 0.0) * counts
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
                                   "wlan_decay", "two_coupled"])
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
                                   "wlan_decay", "two_coupled"])
def test_step_matches_per_jump_reference(request, which):
    """Jump by jump, the workspace kernel draws the same holding time,
    bit for bit, and moves the same particle as the reference step; a
    total rate one ulp off would change the holding time."""
    model = request.getfixturevalue(which)
    rng, ref_rng = substream(9, 0), substream(9, 0)
    counts = _all_at_zero(20, 15)
    work = JumpWorkspace(model, counts)
    for _ in range(3000):
        counts, ref_dt = _step_reference(model, counts, ref_rng)
        z, zp, dt = gillespie_step(work, rng)
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


@pytest.mark.parametrize("which", ["interacting", "mm1"])
def test_occupation_builds_each_rate_table_once(request, monkeypatch, which):
    """A run memoises its rate tables by the counts at the coupled
    states: interacting_wlan at N = 20 builds at most N + 1 tables,
    with two ``RateWindow.at`` calls each, over more than 1,000 jumps,
    and mm1 builds one table, with two ``at`` calls."""
    model = request.getfixturevalue(which)
    cfg = SimConfig(N=20, seed=17, horizon=60.0, burn_in=1.0, z_max=15)
    at_calls, works = [], []
    at, step = RateWindow.at, simulator.gillespie_step

    def counting_at(self, xi):
        at_calls.append(None)
        return at(self, xi)

    def recording_step(work, rng):
        works.append(work)
        return step(work, rng)

    monkeypatch.setattr(RateWindow, "at", counting_at)
    monkeypatch.setattr(simulator, "gillespie_step", recording_step)
    _occupation(model, cfg, [_whole_space(cfg.z_max)], replica=0)
    work = works[0]
    assert len(works) > 1000 and all(w is work for w in works)
    if which == "mm1":
        assert len(work.tables) == 1
    else:
        assert 1 < len(work.tables) <= cfg.N + 1
    assert len(at_calls) == 2 * len(work.tables)


# -- rate curves -----------------------------------------------------------------------

def test_rate_curve_probability_one_event(mm1):
    rows = estimate_rate_curve(mm1, _whole_space(30), [10, 20], 2000, seed=0)
    for r in rows:
        assert r.p_hat == 1.0
        assert r.rate == 0.0


def test_rate_curve_matches_sanov_at_small_N(mm1):
    """Feasible-scale check of the Sanov recovery: at N = 20 the ball
    event has probability ~2e-4 and plain Monte Carlo resolves it."""
    from audits import sanov_inf_over_ball
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


def _over_chunks(monkeypatch, compute):
    """``compute()`` with chunks of 7 rows, the production chunk and one
    whole chunk of 50,000 rows, for draws at z_max 30."""
    out = []
    for entries in (7 * 31, _CHUNK_ENTRIES, 50_000 * 31):
        monkeypatch.setattr(simulator, "_CHUNK_ENTRIES", entries)
        out.append(compute())
    return out


def test_tilted_estimate_does_not_depend_on_chunk(mm1, monkeypatch):
    """Multinomial draws consume the stream row by row, so the chunk
    size bounds memory without changing the estimate: 7 rows, the
    production chunk and one whole chunk agree, though the whole
    chunk's 1.55M-entry matvec runs past OpenBLAS's gemv threading
    cutoff."""
    pi = single_particle_stationary(mm1, 30)
    event = BallEvent(StateDistribution.delta(0, 30), 0.1)
    zeta = entropy_projection(pi, event.center, event.radius)
    n = 50_000
    small, production, whole = _over_chunks(monkeypatch, lambda: (
        _tilted_estimate("ball", event, pi, zeta, 20, n, 3, substream(3, 0))))
    assert not whole.lower_bound_only
    assert small == production == whole


def test_plain_hits_do_not_depend_on_chunk(mm1, monkeypatch):
    """The plain path's event matvec gives the same hits, draw by draw,
    over chunks of 7 rows, the production chunk and one whole chunk."""
    pi = single_particle_stationary(mm1, 30)
    event = NotInKMEvent(3.0, 30)
    n = 50_000
    small, production, whole = _over_chunks(monkeypatch, lambda: (
        np.concatenate([event.batch(d) for d
                        in _draws(substream(3, 0), 20, pi.probs, n)])))
    assert whole.sum() > 50
    assert np.array_equal(small, whole)
    assert np.array_equal(production, whole)


def test_rate_curve_memory_is_bounded_by_the_chunk(mm1):
    """One N of 200,000 tilted draws at z_max 30 holds a few 512 KiB
    chunk arrays and one block of hit weights at once: its traced peak
    was 2.3 MiB, where 25,000-row chunks peaked at 18.0 MiB."""
    event = BallEvent(StateDistribution.delta(0, 30), 0.1)
    tracemalloc.start()
    try:
        estimate_rate_curve(mm1, event, [400], 200_000, seed=0, z_max=30,
                            threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_tilted_memory_does_not_grow_with_the_samples(mm1):
    """The hit weights are merged block by block, so one tilted N at
    z_max 30 peaks within 64 KiB at 400,000 draws of its peak at 50,000
    (217,000 hits, 1.7 MB of weights if kept)."""
    pi = single_particle_stationary(mm1, 30)
    event = BallEvent(StateDistribution.delta(0, 30), 0.1)
    zeta = entropy_projection(pi, event.center, event.radius)
    peaks = []
    for n in (50_000, 400_000):
        tracemalloc.start()
        try:
            _tilted_estimate("ball", event, pi, zeta, 400, n, 0,
                             substream(0, 0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 64 * 2 ** 10


class _HitsAt:
    """An event that holds exactly the draws at the given positions of
    the stream, whatever the draws are."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.int64)
        self.seen = 0

    def batch(self, probs):
        at = np.arange(self.seen, self.seen + probs.shape[0])
        self.seen += probs.shape[0]
        return np.isin(at, self.rows)

    def describe(self):
        return "hits_at"


@pytest.mark.parametrize("rows", [[11], range(0, 20, 2), range(0, 22, 2),
                                  range(23), []],
                         ids=["one", "two_blocks", "two_blocks_and_one",
                              "every_draw", "none"])
def test_block_merge_matches_two_pass_reference(mm1, monkeypatch, rows):
    """The blocks' merged mean and squared deviations give the p_hat
    and half-width of a math.fsum two-pass over the same n weights,
    zeros included, to 1e-13 relative, with blocks of 5 hits and chunks
    of 7 draws so that blocks straddle chunks; no hit gives the
    rule-of-three row."""
    monkeypatch.setattr(simulator, "_BLOCK_HITS", 5)
    monkeypatch.setattr(simulator, "_CHUNK_ENTRIES", 7 * 31)
    pi = single_particle_stationary(mm1, 30)
    center = StateDistribution.delta(0, 30)
    zeta = entropy_projection(pi, center, 0.1)
    N, n = 20, 23
    r = _tilted_estimate("hits_at", _HitsAt(list(rows)), pi, zeta, N, n, 3,
                         substream(3, 0))
    log_ceiling = N * relative_entropy(zeta, pi)
    if not rows:
        assert r == simulator._rule_of_three("hits_at", n, N, 3, log_ceiling)
        return
    draws = np.concatenate(list(_draws(substream(3, 0), N, zeta.probs, n)))
    log_ratio = np.log(pi.probs / zeta.probs)
    w = [math.exp(N * float(d @ log_ratio) + log_ceiling) if i in rows
         else 0.0 for i, d in enumerate(draws)]
    mean = math.fsum(w) / n
    var = math.fsum((x - mean) ** 2 for x in w) / (n - 1)
    scale = math.exp(-log_ceiling)
    half = 1.959963984540054 * math.sqrt(var / n) * scale
    assert r.p_hat == pytest.approx(mean * scale, rel=1e-13)
    assert r.ci_high - r.p_hat == pytest.approx(half, rel=1e-13)


@pytest.mark.parametrize("N_list, samples, match", [
    ([10], 0, "samples_per_N"), ([10, 0], 100, "N_list")])
def test_rate_curve_rejects_degenerate_sizes(mm1, N_list, samples, match):
    event = BallEvent(StateDistribution.delta(0, 30), 0.1)
    with pytest.raises(ValueError, match=match):
        estimate_rate_curve(mm1, event, N_list, samples, seed=0)


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
    times, counts = _simulate_path(interacting, cfg, 1.0)
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
    times, counts = _simulate_path(mm1, cfg, 1.0)
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
    # a rule-of-three row is written as the bound it is
    rows.append(simulator._rule_of_three("not_in_KM(M=2)", 100, 50, 0))
    f = tmp_path / "rates.csv"
    save_rate_estimates(rows, f)
    lines = f.read_text().splitlines()
    assert lines[0] == ("N,event,p_hat,ci_low,ci_high,rate,seed,algorithm,"
                        "lower_bound_only")
    assert lines[1].startswith("10,ball(radius=1),1,")
    assert lines[1].endswith("philox4x64,False")
    assert lines[2].startswith("50,not_in_KM(M=2),0,0,0.029999999999999999,")
    assert lines[2].endswith("philox4x64,True")
