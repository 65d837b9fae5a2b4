"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Each criterion is asserted exactly at its stated tolerance.  Three of
the stated thresholds are out of reach for the measured system
(criterion 1b and both halves of 9): the tests assert them anyway and
the failure messages carry the measured values.  The rate half of 9
counts zero occupancy for all three complements and awaits a splitting
estimator; the concentration half is a property of the chain at N = 50.
Criterion 2 (an event of probability ~e^-150 at N = 400) is met by
importance sampling from the I-projection of the stationary law onto
the ball.  The companion ``test_supplementary_*`` checks demonstrate
the underlying substance at feasible scale and pass.
"""
import math
import time

import numpy as np

from audits import (descend_to_equilibrium, factorial_decay_bound,
                    flux_from_path, moment_inequality_check,
                    sanov_inf_over_ball)
from meanfield_ldp.cli import _corpus_targets, _random_feasible_trajectory
from meanfield_ldp.measures import (StateDistribution, theta_moment,
                                    theta_values, tv_distance)
from meanfield_ldp.mckean_vlasov import find_equilibrium, flows
from meanfield_ldp.models import (interacting_wlan_model, mm1_model,
                                  single_particle_stationary, wlan_const_model,
                                  wlan_decay_model)
from meanfield_ldp.cost import cost_nonvariational, cost_variational, evolve
from meanfield_ldp.quasipotential import (cm_bound, connector,
                                          construct_delta0_to_target,
                                          construct_equilibrium_to_delta0,
                                          counterexample_report,
                                          v_upper_bound)
from meanfield_ldp.simulator import (BallEvent, NotInKMEvent, SimConfig,
                                     estimate_invariant_multi,
                                     estimate_rate_curve)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# 1. Counterexample divergence
# ---------------------------------------------------------------------------

def test_criterion_01_counterexample_divergence():
    t0 = time.monotonic()
    model = mm1_model(1.0, 2.0)
    rep = counterexample_report(model, [50, 200, 800], T=1.0)
    rows = {r.K: r for r in rep.rows}
    entropy_var = abs(rows[800].entropy - rows[200].entropy)
    lb_increase = rows[800].lb_theta - rows[50].lb_theta
    elapsed = time.monotonic() - t0
    ok_a = entropy_var < 0.05
    ok_b = lb_increase >= 1.0
    report("criterion 1", ok_a and ok_b and elapsed < 10.0,
           f"entropy variation {entropy_var:.4f} (<0.05), "
           f"theta-tent bound increase {lb_increase:.4f} (>=1.0 required), "
           f"runtime {elapsed:.1f}s (<10s)")
    assert elapsed < 10.0
    assert ok_a, f"entropy varied by {entropy_var:.4f} between K=200 and 800"
    assert ok_b, (
        f"theta-tent lower bound increased by {lb_increase:.4f} from K=50 to "
        f"K=800; the requirement >= 1.0 exceeds the theta-moment growth of "
        f"the truncation family itself (0.766) and is unattainable -- see "
        f"the decisions ledger")


def test_supplementary_counterexample_growth_is_unbounded():
    """The divergence mechanism itself: the theta-moment of the
    truncation family (the K-dependent term of every theta-tent bound)
    grows without an apparent ceiling while the entropy stabilises."""
    model = mm1_model(1.0, 2.0)
    # K stays below ~1000 so the geometric stationary tail is still
    # representable in double precision
    rep = counterexample_report(model, [50, 200, 800, 1000], T=1.0)
    moments = [r.theta_moment for r in rep.rows]
    bounds = [r.lb_theta for r in rep.rows]
    assert all(a < b for a, b in zip(moments, moments[1:]))
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    entropies = [r.entropy for r in rep.rows]
    assert max(entropies) - min(entropies) < 0.15
    assert rep.divergence_ratio > 1.2
    print(f"[supplementary 1] theta moments {np.round(moments, 3)}, "
          f"entropies {np.round(entropies, 3)}")


# ---------------------------------------------------------------------------
# 2. Sanov rate recovery
# ---------------------------------------------------------------------------

def test_criterion_02_sanov_rate_recovery():
    t0 = time.monotonic()
    model = mm1_model(1.0, 2.0)
    event = BallEvent(StateDistribution.delta(0, 30), 0.1)
    rows = estimate_rate_curve(model, event, [100, 200, 400], 1_000_000,
                               seed=2026, z_max=30)
    target = sanov_inf_over_ball(single_particle_stationary(model, 30),
                                 StateDistribution.delta(0, 30), 0.1)
    r400 = rows[-1]
    elapsed = time.monotonic() - t0
    within = (not r400.lower_bound_only
              and abs(r400.rate - target) / target < 0.2)
    report("criterion 2", within and elapsed < 300.0,
           f"sanov value {target:.5f}; N=400 estimate p_hat={r400.p_hat:.3g} "
           f"(lower-bound-only={r400.lower_bound_only}, "
           f"rate {r400.rate:.5f}), runtime {elapsed:.0f}s (<300s)")
    assert elapsed < 300.0
    assert within, (
        f"the ball event has probability exp(-N*{target:.3f}) ~ 1e-16 at "
        f"N=100 and ~1e-64 at N=400; 10^6 plain Monte Carlo samples always "
        f"count zero hits (got p_hat={r400.p_hat}, reported as a lower "
        f"bound only) -- see the decisions ledger")


def _log_binom_tail(n: int, p: float, k0: int) -> float:
    """log P(Bin(n, p) >= k0), exact summation in log space."""
    logs = []
    lp, lq = math.log(p), math.log1p(-p)
    for k in range(k0, n + 1):
        logs.append(math.lgamma(n + 1) - math.lgamma(k + 1)
                    - math.lgamma(n - k + 1) + k * lp + (n - k) * lq)
    mx = max(logs)
    return mx + math.log(sum(math.exp(x - mx) for x in logs))


def test_supplementary_sanov_exact_tail():
    """The substance of criterion 2 at exact-computation scale: the
    stationary probability of the ball event is a binomial tail (the
    event depends only on the mass at state 0), and its decay rate at
    N=400 is within 20 percent of the entropy projection."""
    model = mm1_model(1.0, 2.0)
    pi = single_particle_stationary(model, 30)
    target = sanov_inf_over_ball(pi, StateDistribution.delta(0, 30), 0.1)
    rate400 = -_log_binom_tail(400, float(pi.probs[0]), 360) / 400
    assert abs(rate400 - target) / target < 0.2
    print(f"[supplementary 2] exact-tail rate {rate400:.5f} vs sanov "
          f"{target:.5f} ({100 * abs(rate400 - target) / target:.1f}%)")


def test_supplementary_sanov_monte_carlo_feasible_N():
    """Plain Monte Carlo does recover the Sanov rate where the event is
    resolvable: at N = 20 the probability is ~2e-4."""
    model = mm1_model(1.0, 2.0)
    event = BallEvent(StateDistribution.delta(0, 30), 0.1)
    rows = estimate_rate_curve(model, event, [20], 400_000, seed=7, z_max=30,
                               importance=False)
    target = sanov_inf_over_ball(single_particle_stationary(model, 30),
                                 StateDistribution.delta(0, 30), 0.1)
    r = rows[0]
    assert not r.lower_bound_only
    assert abs(r.rate - target) / target < 0.25
    print(f"[supplementary 2b] N=20 Monte Carlo rate {r.rate:.4f} vs sanov "
          f"{target:.4f}")


# ---------------------------------------------------------------------------
# 3. Zero-cost flow
# ---------------------------------------------------------------------------

def test_criterion_03_zero_cost_flow():
    t0 = time.monotonic()
    models = [mm1_model(1.0, 2.0), wlan_const_model(1.0, 1.0),
              wlan_decay_model(1.0, 1.0), interacting_wlan_model(0.5)]
    worst_var = worst_nonvar = 0.0
    nu = StateDistribution.from_weights(np.exp(-0.35 * np.arange(41)))
    for model in models:
        path, = flows(model, [nu], [5.0], tol=1e-10, dt_max=0.002)
        var, = cost_variational(model, [path])
        plan = flux_from_path(model, path, refine=1)
        nonvar = cost_nonvariational(model, plan)
        worst_var = max(worst_var, var)
        worst_nonvar = max(worst_nonvar, nonvar)
    elapsed = time.monotonic() - t0
    ok = worst_var < 1e-6 and worst_nonvar < 1e-6 and elapsed < 30.0
    report("criterion 3", ok,
           f"worst variational {worst_var:.2e}, worst control-form "
           f"{worst_nonvar:.2e} (<1e-6), runtime {elapsed:.0f}s (<30s)")
    assert worst_var < 1e-6
    assert worst_nonvar < 1e-6
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 4. Duality
# ---------------------------------------------------------------------------

def test_criterion_04_duality():
    t0 = time.monotonic()
    worst = 0.0
    for model in (mm1_model(1.0, 2.0), wlan_const_model(1.0, 1.0)):
        rng = np.random.default_rng(2026)
        for _ in range(10):
            traj = _random_feasible_trajectory(model, rng, 10, 2.0)
            path = evolve(traj)
            var, = cost_variational(model, [path])
            rec = flux_from_path(model, path)
            nonvar = cost_nonvariational(model, rec)
            worst = max(worst, abs(var - nonvar))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-5 and elapsed < 120.0
    report("criterion 4", ok,
           f"worst |variational - recovered control| {worst:.2e} (<1e-5) "
           f"over 20 trajectories, runtime {elapsed:.0f}s (<120s)")
    assert worst < 1e-5
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 5. Constructive bound
# ---------------------------------------------------------------------------

def test_criterion_05_constructive_bound():
    t0 = time.monotonic()
    checked = 0
    worst_margin = -math.inf
    vstar_worst = 0.0
    for model in (wlan_decay_model(1.0, 1.0), interacting_wlan_model(0.5)):
        xi_star = find_equilibrium(model, 30)
        for xi in _corpus_targets(xi_star, 5.0, 10, seed=17):
            bound = v_upper_bound(model, xi_star, xi, refine=True)
            cm = cm_bound(model, xi_star, xi)
            assert bound.upper <= cm, \
                f"witness cost {bound.upper} exceeds cm bound {cm}"
            worst_margin = max(worst_margin, bound.upper - cm)
            checked += 1
        vstar = v_upper_bound(model, xi_star, xi_star).upper
        vstar_worst = max(vstar_worst, vstar)
        assert vstar < 1e-6
    elapsed = time.monotonic() - t0
    report("criterion 5", elapsed < 120.0,
           f"{checked} targets in K_5, witness <= cm bound throughout "
           f"(worst margin {worst_margin:.3f}), V(xi*) upper "
           f"{vstar_worst:.2e} (<1e-6), runtime {elapsed:.0f}s (<120s)")
    assert checked == 20
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 6. Moment inequality on every generated trajectory
# ---------------------------------------------------------------------------

def test_criterion_06_moment_inequality():
    t0 = time.monotonic()
    count = 0
    for model in (wlan_decay_model(1.0, 1.0), interacting_wlan_model(0.5)):
        rng = np.random.default_rng(31)
        z_max = 25
        xi_star = find_equilibrium(model, z_max)
        trajs = []
        for _ in range(20):
            w = rng.dirichlet(np.ones(z_max + 1) * 0.7)
            xi = StateDistribution(w, z_max)
            trajs.append(construct_delta0_to_target(xi))
        for _ in range(10):
            w = rng.dirichlet(np.ones(z_max + 1) * 2.0)
            xi = StateDistribution(w, z_max)
            trajs.append(connector(xi_star, xi))
        for _ in range(10):
            w = rng.dirichlet(np.ones(z_max + 1) * 1.5)
            start = StateDistribution(w, z_max)
            trajs.append(construct_equilibrium_to_delta0(start))
        for _ in range(10):
            trajs.append(_random_feasible_trajectory(model, rng, 12, 1.5))
        trajs.append(descend_to_equilibrium(
            model, xi_star, StateDistribution.delta(0, z_max), 0.05))
        for traj in trajs:
            assert moment_inequality_check(model, traj, slack=1e-9)
            count += 1
    elapsed = time.monotonic() - t0
    report("criterion 6", count >= 100,
           f"theta-moment inequality held on {count} trajectories "
           f"(>=100) with slack 1e-9, runtime {elapsed:.0f}s")
    assert count >= 100


# ---------------------------------------------------------------------------
# 7. Small-cost connection
# ---------------------------------------------------------------------------

def test_criterion_07_small_cost_connection():
    model = wlan_decay_model(1.0, 1.0)
    xi_star = find_equilibrium(model, 25)
    th = theta_values(25)
    base = theta_moment(xi_star)
    consts = []
    for eps in (1e-1, 1e-2, 1e-3):
        w = eps / (th[8] - base)
        p = (1 - w) * xi_star.probs
        p[8] += w
        target = StateDistribution(p, 25)
        traj = connector(xi_star, target)
        cost = cost_nonvariational(model, traj)
        consts.append(cost / (eps * math.log(1.0 / eps)))
    C = max(consts)
    ok = all(c > 0 for c in consts) and C < 20.0
    report("criterion 7", ok,
           f"cost/(eps log(1/eps)) over eps in 1e-1..1e-3: "
           f"{[round(c, 3) for c in consts]}; single constant C={C:.3f}")
    assert all(c > 0 and math.isfinite(c) for c in consts)
    # one moderate constant covers the whole sweep
    assert C < 20.0


# ---------------------------------------------------------------------------
# 8. B1/B2 audit
# ---------------------------------------------------------------------------

def test_criterion_08_b1_b2_audit():
    t0 = time.monotonic()
    model = interacting_wlan_model(0.5)
    z_max = 30
    horizon = 40.0
    rng = np.random.default_rng(2)
    initials = [StateDistribution.delta(0, z_max)]
    while len(initials) < 5:
        k = int(rng.integers(2, 6))
        support = rng.choice(z_max + 1, size=k, replace=False)
        w = rng.dirichlet(np.ones(k))
        p = np.bincount(support, weights=w, minlength=z_max + 1)
        dist = StateDistribution(p, z_max)
        while theta_moment(dist) > 5.0:
            q = 0.5 * dist.probs
            q[0] += 1.0 - q.sum()
            dist = StateDistribution(q, z_max)
        initials.append(dist)
    finals = [path.final_distribution() for path in
              flows(model, initials, [horizon] * len(initials), tol=1e-10)]
    spread = max(tv_distance(a, b) for a in finals for b in finals)
    xi_star = find_equilibrium(model, z_max)
    theta_gap = max(abs(theta_moment(f) - theta_moment(xi_star))
                    for f in finals)
    elapsed = time.monotonic() - t0
    ok = spread < 1e-4 and theta_gap < 1e-3 and elapsed < 60.0
    report("criterion 8", ok,
           f"5 initial conditions in K_5: terminal spread {spread:.2e} "
           f"(<1e-4), theta gap {theta_gap:.2e} (<1e-3), "
           f"runtime {elapsed:.0f}s (<60s)")
    assert spread < 1e-4
    assert theta_gap < 1e-3
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 9. Stationary concentration and exponential tightness
# ---------------------------------------------------------------------------

def test_criterion_09_concentration_and_tightness():
    t0 = time.monotonic()
    model = interacting_wlan_model(0.5)
    z_max = 25
    xi_star = find_equilibrium(model, z_max)
    cfg = SimConfig(N=50, seed=42, horizon=400.0, z_max=z_max)
    events = [BallEvent(xi_star, 0.1)] + \
        [NotInKMEvent(m, z_max) for m in (2.0, 4.0, 6.0)]
    rows = estimate_invariant_multi(model, cfg, events)
    ball = rows[0]
    rates = [r.rate for r in rows[1:]]
    lb_only = [r.lower_bound_only for r in rows[1:]]
    elapsed = time.monotonic() - t0
    ok_conc = ball.p_hat >= 0.9
    ok_rates = rates[0] < rates[1] < rates[2]
    report("criterion 9", ok_conc and ok_rates and elapsed < 600.0,
           f"concentration p_hat={ball.p_hat:.3f} (>=0.9 required); "
           f"rates over M=2,4,6: {[round(r, 4) for r in rates]} "
           f"(lower-bound-only flags {lb_only}), runtime {elapsed:.0f}s")
    assert elapsed < 600.0
    assert ok_conc, (
        f"stationary mass of the radius-0.1 ball at N=50 is "
        f"{ball.p_hat:.3f}: the mean empirical-measure TV fluctuation at "
        f"N=50 is ~0.09, so >=0.9 is unattainable at this N -- see the "
        f"decisions ledger")
    assert ok_rates, (
        f"all three complements are ~13-sigma events with zero observed "
        f"occupancy, so the rule-of-three lower bounds tie at "
        f"{rates[0]:.4f} and cannot increase -- see the decisions ledger")


def test_supplementary_concentration_feasible_scale():
    """The concentration phenomenon itself: the stationary mass of the
    TV ball exceeds 0.9 at an achievable radius for N = 50, and the
    tail class complements are never visited."""
    model = interacting_wlan_model(0.5)
    z_max = 25
    xi_star = find_equilibrium(model, z_max)
    cfg = SimConfig(N=50, seed=42, horizon=400.0, z_max=z_max)
    rows = estimate_invariant_multi(
        model, cfg, [BallEvent(xi_star, 0.15), NotInKMEvent(2.0, z_max)])
    assert rows[0].p_hat >= 0.9
    assert rows[1].p_hat == 0.0
    print(f"[supplementary 9] radius-0.15 ball mass {rows[0].p_hat:.3f}")


# ---------------------------------------------------------------------------
# 10. Closed-form stationary laws
# ---------------------------------------------------------------------------

def test_criterion_10_stationary_closed_forms():
    z = np.arange(61)
    geom = 0.5 ** (z + 1)
    pi_q = single_particle_stationary(mm1_model(1.0, 2.0), 60)
    err_q = float(np.abs(pi_q.probs - geom).max())
    pi_w = single_particle_stationary(wlan_const_model(1.0, 1.0), 60)
    err_w = float(np.abs(pi_w.probs - geom).max())
    decay = wlan_decay_model(1.0, 1.0)
    pi_d = single_particle_stationary(decay, 40)
    factorial_ok = factorial_decay_bound(decay, pi_d)
    ok = err_q < 1e-12 and err_w < 1e-12 and factorial_ok
    report("criterion 10", ok,
           f"closed-form errors mm1 {err_q:.2e}, reset-chain {err_w:.2e} "
           f"(<1e-12); factorial decay bound holds at every state: "
           f"{factorial_ok}")
    assert err_q < 1e-12
    assert err_w < 1e-12
    assert factorial_ok
