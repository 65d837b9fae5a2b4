import decimal
import math
import warnings

import numpy as np
import pytest

from audits import flux_from_path, moment_inequality_check
from conftest import geometric
from meanfield_ldp.cli import (_corpus_targets,
                               _random_feasible_trajectory)
from meanfield_ldp.measures import (SampledPath, StateDistribution,
                                    TruncationMismatchError, theta_values)
from meanfield_ldp.mckean_vlasov import find_equilibrium, flows
from meanfield_ldp.models import (AffineRate, EdgeKind, EdgeNotPresentError,
                                  RateModel, edge_list, mm1_model,
                                  single_particle_stationary, wlan_const_model)
from meanfield_ldp.cost import (FluxTrajectory, InfeasibleTrajectoryError,
                                cost_nonvariational,
                                cost_variational, evolve,
                                load_trajectory, save_trajectory,
                                testfunction_lower_bound)
from meanfield_ldp import cost as cost_module
from meanfield_ldp.quasipotential import v_upper_bound
from meanfield_ldp.cost import (_ALPHA_CAP, _CHUNK, _GL_LADDER,
                                _dual_maximize, _edge_weights,
                                _gauss_legendre, _intervals, _mass_balance,
                                _log_integral, _newton_step, _plan_costs,
                                _recover,
                                _refine_grid, _segment_costs)


RESETS, BIRTH_DEATH = EdgeKind.CHAIN_WITH_RESETS, EdgeKind.BIRTH_DEATH


def _edges(kind, z_max):
    """The (z, z') pairs of the flux columns, in column order."""
    src, dst = edge_list(kind, z_max)
    return list(zip(src.tolist(), dst.tolist()))


def _plan(initial, kind, *segments):
    """Plan from (duration, {edge: flux}) segments, each flux placed in
    its edge's column."""
    column = {e: c for c, e in enumerate(_edges(kind, initial.z_max))}
    fluxes = np.zeros((len(segments), 2 * initial.z_max))
    for k, (_, by_edge) in enumerate(segments):
        for e, f in by_edge.items():
            fluxes[k, column[e]] = f
    return FluxTrajectory(initial, kind, [d for d, _ in segments], fluxes)


# -- evolve -----------------------------------------------------------------------

def test_evolve_zero_fluxes_constant():
    init = geometric(0.5, 8)
    traj = _plan(init, RESETS, (2.0, {}))
    path = evolve(traj)
    assert np.array_equal(path.probs[0], path.probs[-1])


def test_evolve_unit_transfer():
    traj = _plan(StateDistribution.delta(0, 5), RESETS, (1.0, {(0, 1): 1.0}))
    path = evolve(traj)
    assert abs(path.probs[-1][1] - 1.0) < 1e-15
    assert abs(path.probs[-1][0]) < 1e-15


def test_evolve_infeasible():
    traj = _plan(StateDistribution.delta(0, 5), RESETS, (2.0, {(0, 1): 1.0}))
    with pytest.raises(InfeasibleTrajectoryError):
        evolve(traj)


def _divergence(fluxes, n):
    v = np.zeros(n)
    for (z, zp), f in fluxes.items():
        v[z] -= f
        v[zp] += f
    return v


def _evolve_per_edge(traj):
    """Oracle: the path nodes with the flux balance summed one edge at a
    time, in edge-column order."""
    edges = _edges(traj.kind, traj.z_max)
    p = traj.initial.probs.copy()
    probs, times, t = [p], [0.0], 0.0
    for d, row in zip(traj.durations.tolist(), traj.fluxes.tolist()):
        p = np.clip(p + d * _divergence(dict(zip(edges, row)), p.size), 0.0, None)
        t += d
        probs.append(p)
        times.append(t)
    return np.array(times), np.stack(probs)


@pytest.mark.parametrize("name", ["mm1", "wlan_const", "interacting"])
def test_evolve_matches_per_edge_loop(request, name):
    model = request.getfixturevalue(name)
    rng = np.random.default_rng(4)
    plans = [_random_feasible_trajectory(model, rng, 12, 2.0)
             for _ in range(6)]
    plans += [flux_from_path(
        model, evolve(_random_feasible_trajectory(model, rng, 8, 1.0)),
        refine=r) for r in (1, 2, 3)]
    # a staircase to a law with no mass at 0 empties state 0, whose
    # running remainder dips below 0 by rounding and is clamped
    w = np.random.default_rng(0).uniform(size=13)
    w[0] = 0.0
    stairs = _staircase(model.kind, StateDistribution.from_weights(w))
    steps = stairs.durations[:, None] * _mass_balance(stairs.fluxes,
                                                      stairs.kind)
    assert np.cumsum(np.concatenate([stairs.initial.probs[None], steps]),
                     axis=0).min() < 0.0
    for traj in plans + [stairs]:
        path = evolve(traj)
        times, probs = _evolve_per_edge(traj)
        assert np.array_equal(path.times, times)
        assert np.array_equal(path.probs, probs)


def _staircase(kind, xi):
    """From the point mass at 0, carry each xi(z), top state first, up the
    forward edges at unit flux."""
    return _plan(StateDistribution.delta(0, xi.z_max), kind,
                 *[(float(xi.probs[z]), {(k - 1, k): 1.0})
                   for z in range(xi.z_max, 0, -1) for k in range(1, z + 1)])


# -- control-form cost --------------------------------------------------------------

def test_cost_of_drift_matched_fluxes_is_zero(wlan_const):
    """Fluxes equal to lambda * phi on every edge give h = 0."""
    pi = single_particle_stationary(wlan_const, 12)
    fwd = wlan_const.forward_rates(12) * pi.probs
    back = wlan_const.backward_rates(12) * pi.probs
    fluxes = {(z, z + 1): float(fwd[z]) for z in range(12)}
    fluxes.update({(z, 0): float(back[z]) for z in range(1, 13)})
    traj = _plan(pi, RESETS, (3.0, fluxes))
    assert cost_nonvariational(wlan_const, traj) < 1e-8


def test_cost_all_zero_fluxes_idle_suppression(wlan_const):
    """h = -1 everywhere: cost is the integral of sum lambda * phi."""
    xi = geometric(0.5, 10)
    T = 1.7
    traj = _plan(xi, RESETS, (T, {}))
    fwd = wlan_const.forward_rates(10) * xi.probs
    back = wlan_const.backward_rates(10) * xi.probs
    expected = T * float(fwd.sum() + back.sum())
    assert cost_nonvariational(wlan_const, traj) == pytest.approx(
        expected, rel=1e-12)


def _simpson_adaptive(f, a, b, tol, depth=0):
    m = 0.5 * (a + b)
    s1 = (b - a) / 6.0 * (f(a) + 4 * f(m) + f(b))
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    s2 = (m - a) / 6.0 * (f(a) + 4 * f(lm) + f(m)) \
        + (b - m) / 6.0 * (f(m) + 4 * f(rm) + f(b))
    if depth > 40 or abs(s2 - s1) < 15 * tol:
        return s2 + (s2 - s1) / 15.0
    return (_simpson_adaptive(f, a, m, tol / 2, depth + 1)
            + _simpson_adaptive(f, m, b, tol / 2, depth + 1))


def test_unit_transfer_against_quadrature_oracle(wlan_const):
    """Closed-form segment cost versus adaptive quadrature of
    sum_edges tau*(flux/(lambda phi) - 1) lambda phi along the path."""
    traj = _plan(StateDistribution.delta(0, 5), RESETS, (1.0, {(0, 1): 1.0}))

    def _tau_star(h):
        """(1+h) log(1+h) - h, the convex dual of tau(u) = e^u - u - 1."""
        return (1.0 + h) * math.log1p(h) - h

    def integrand(t):
        phi0 = 1.0 - t
        phi1 = t
        total = 0.0
        if phi0 > 0:
            total += _tau_star(1.0 / phi0 - 1.0) * phi0  # edge (0,1), flux 1
        total += phi1  # idle forward edge (1,2): tau*(-1) * lambda * phi1
        total += phi1  # idle reset edge (1,0)
        return total

    # integrable log singularity at t -> 1: quadrature on [0, 1-eps] plus
    # the analytic remainder of the singular part
    eps = 1e-12
    oracle = _simpson_adaptive(integrand, 0.0, 1.0 - eps, 1e-10)
    oracle += eps * math.log(1.0 / eps) + 0.5 * eps * eps  # active-edge tail
    val = cost_nonvariational(wlan_const, traj)
    assert val == pytest.approx(oracle, abs=1e-6)
    assert val == pytest.approx(1.5, abs=1e-9)  # exact closed form


def test_inf_sentinel_flux_from_empty_state(wlan_const):
    init = StateDistribution.delta(0, 5)
    traj = _plan(init, RESETS, (1.0, {(2, 0): 0.0, (0, 1): 0.1}))
    assert cost_nonvariational(wlan_const, traj) < math.inf
    # positive flux out of state 2 whose mass is identically zero (small
    # enough that the feasibility tolerance does not trip first)
    bad = _plan(init, RESETS, (0.5, {(2, 3): 1e-12}))
    assert cost_nonvariational(wlan_const, bad) == math.inf


def test_cost_nonnegative_random(wlan_const):
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = rng.dirichlet(np.ones(9) * 2)
        init = StateDistribution(p, 8)
        fwd = wlan_const.forward_rates(8) * p
        fluxes = {(z, z + 1): float(fwd[z] * rng.uniform(0, 2))
                  for z in range(8)}
        traj = _plan(init, RESETS, (0.05, fluxes))
        try:
            c = cost_nonvariational(wlan_const, traj)
        except InfeasibleTrajectoryError:
            continue
        assert c >= -1e-10


def _int_log_affine(a0: float, a1: float, delta: float) -> float:
    """integral_0^delta log(a0 + v t) dt through the x log x - x antiderivative."""
    v = (a1 - a0) / delta
    if abs(a1 - a0) <= 1e-14 * max(a0, a1):
        mid = 0.5 * (a0 + a1)
        return delta * math.log(mid)
    def F(x: float) -> float:
        return x * math.log(x) - x if x > 0.0 else 0.0
    return (F(a1) - F(a0)) / v


def _log_integral_decimal(a0: float, a1: float, d: float) -> float:
    """integral_0^d log(a0 + (a1 - a0) t / d) dt in 50-digit decimal
    arithmetic, through the x log x - x antiderivative."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        A0, A1, D = (decimal.Decimal(x) for x in (a0, a1, d))
        F0, F1 = (x * x.ln() - x for x in (A0, A1))
        return float(D * (F1 - F0) / (A1 - A0))


@pytest.mark.parametrize("a0, d", [(0.3, 1.0), (2.5, 0.1), (1e-3, 3.0),
                                   (1.0, 1.0)])
def test_log_integral_keeps_its_precision_as_the_ends_meet(a0, d):
    """Ends a relative gap of 1e-15 to 1e-3 apart, either way round: the
    integral is within 2 ulp of d (1 + |log a0|) of a 50-digit reference
    (measured: at most 1.5 ulp), where (F(a1) - F(a0)) / slope alone is
    off by 1.9e-2 at a0 = 0.3, d = 1 and a gap of 2e-14."""
    gaps = np.logspace(-15, -3, 37)
    gaps = np.concatenate([gaps, -gaps])
    a1 = a0 * (1.0 + gaps)
    got = _log_integral(np.full(a1.shape, a0), a1, np.full(a1.shape, d))
    ref = np.array([_log_integral_decimal(a0, b, d) for b in a1.tolist()])
    tol = 2.0 * np.finfo(float).eps * d * (1.0 + abs(math.log(a0)))
    assert np.abs(got - ref).max() <= tol


def _edge_cost(f: float, lam0: float, lam1: float, phi0: float, phi1: float,
               delta: float) -> float:
    """Scalar oracle: closed-form integral of tau*(f/(lam*phi) - 1) * lam * phi
    over a segment where phi and lam are both affine."""
    phi0 = max(phi0, 0.0)
    phi1 = max(phi1, 0.0)
    idle = delta / 6.0 * (lam0 * (2.0 * phi0 + phi1)
                          + lam1 * (phi0 + 2.0 * phi1))
    if f == 0.0:
        return idle
    if phi0 <= 0.0 and phi1 <= 0.0:
        return math.inf
    return (f * (delta * (math.log(f) - 1.0)
                 - _int_log_affine(lam0, lam1, delta)
                 - _int_log_affine(phi0, phi1, delta)) + idle)


def _ramp_model(lam0: float, lam1: float) -> RateModel:
    """A z_max = 1 window whose forward rate out of 0 runs from lam0 to
    lam1 as the mass at state 1 runs from 0 to 1, with no backward rate."""
    return RateModel(RESETS,
                     AffineRate(lambda z: np.full(z.shape, lam0),
                                ((1, lambda z: np.full(z.shape,
                                                       lam1 - lam0)),)),
                     AffineRate(lambda z: np.zeros(z.shape)),
                     lambda_upper=max(lam0, lam1), lambda_lower=0.0,
                     name="ramp")


def test_edge_cost_vectorised_matches_scalar():
    rng = np.random.default_rng(0)
    for _ in range(200):
        f = float(rng.choice([0.0, rng.uniform(0, 2)]))
        lam0 = float(rng.uniform(0.1, 3))
        lam1 = float(rng.choice([lam0, rng.uniform(0.1, 3)]))
        phi0 = float(rng.choice([0.0, rng.uniform(0, 1)]))
        phi1 = float(rng.choice([0.0, rng.uniform(0, 1)]))
        delta = float(rng.uniform(0.01, 1))
        model = _ramp_model(lam0, lam1)
        # the edge (0, 1) of the z_max = 1 window; (1, 0) has rate 0
        p0, p1 = np.array([[phi0, 0.0]]), np.array([[phi1, 1.0]])
        rates = [model.forward_rates(1, p)[0, 0] for p in (p0, p1)]
        ref = _edge_cost(f, *rates, phi0, phi1, delta)
        vec = _segment_costs(model, np.array([[f, 0.0]]), p0, p1,
                             np.array([delta]))[0][0]
        if math.isinf(ref):
            assert math.isinf(vec)
        else:
            assert vec == pytest.approx(ref, rel=1e-12, abs=1e-15)


_int_log_ref = np.vectorize(_int_log_affine)


def _edge_cost_ref(f, lam0, lam1, phi0, phi1, delta):
    """Oracle: sum over an edge family of the closed-form integral of
    tau*(f/(lam*phi) - 1) * lam * phi over a segment where phi and lam are
    affine, one segment at a time."""
    phi0 = np.clip(phi0, 0.0, None)
    phi1 = np.clip(phi1, 0.0, None)
    idle = delta / 6.0 * (lam0 * (2.0 * phi0 + phi1)
                          + lam1 * (phi0 + 2.0 * phi1))
    active = f > 0.0
    total = float(np.sum(np.where(active, 0.0, idle)))
    if not np.any(active):
        return total
    if np.any(active & (phi0 <= 0.0) & (phi1 <= 0.0)):
        return math.inf
    fa = f[active]
    with np.errstate(divide="ignore", invalid="ignore"):
        total += float(np.sum(
            fa * (delta * (np.log(fa) - 1.0)
                  - _int_log_ref(lam0[active], lam1[active], delta)
                  - _int_log_ref(phi0[active], phi1[active], delta))
            + idle[active]))
    return total


def _segment_cost_loop(model, row, p0, p1, delta, pieces):
    """Oracle: the segment cost with the rates frozen at each piece's
    midpoint field, one rate-table call per piece.  Freezing cancels the
    rate's variation at first order, so on rates affine along the
    segment it converges to the closed form at second order in 1/pieces."""
    z_max = p0.shape[0] - 1
    lam = np.arange(pieces + 1) / pieces
    P = p0[None, :] + (p1 - p0)[None, :] * lam[:, None]
    mids = 0.5 * (P[:-1] + P[1:])
    fwd = np.stack([model.forward_rates(z_max, mids[j]) for j in range(pieces)])
    back = np.stack([model.backward_rates(z_max, mids[j]) for j in range(pieces)])
    dp = delta / pieces
    total = 0.0
    for k, table in enumerate((fwd, back)):
        lam = table[:, k:k + z_max].ravel()
        f = row[k * z_max:(k + 1) * z_max]
        c = _edge_cost_ref(np.broadcast_to(f, (pieces, z_max)).ravel(), lam,
                           lam, P[:-1, k:k + z_max].ravel(),
                           P[1:, k:k + z_max].ravel(), dp)
        if c == math.inf:
            return math.inf
        total += c
    return total


def _one_segment(model, row, p0, p1, delta):
    return _segment_costs(model, row[None], p0[None], p1[None],
                          np.array([delta]))[0][0]


def _cost_on_pieces(model, row, p0, p1, delta, n):
    """Oracle: one segment's cost and all-idle cost as the sums, in
    order, of its n equal sub-segments costed in one call."""
    t = np.arange(n + 1)[:, None] / n
    P = (1.0 - t) * p0 + t * p1
    costs, idle = _segment_costs(model, np.repeat(row[None], n, axis=0),
                                 P[:-1], P[1:], np.full(n, delta / n))
    total = total_idle = 0.0
    for c, b in zip(costs.tolist(), idle.tolist()):
        total += c
        total_idle += b
    return total, total_idle


def _gaps_to_per_piece_loop(model, plans):
    """Per segment of the plans: its one-call cost, and the gaps between
    that cost and the per-piece loop at 4, 16 and 64 pieces."""
    rows = []
    for traj in plans:
        P = evolve(traj).probs
        for k, (d, row) in enumerate(zip(traj.durations, traj.fluxes)):
            args = (model, row, P[k], P[k + 1], d)
            c = _one_segment(*args)
            rows.append([c] + [abs(_segment_cost_loop(*args, n) - c)
                               for n in (4, 16, 64)])
    return np.array(rows).T


def _assert_second_order(model, plans):
    """Quadrupling the pieces of the loop cuts every segment's gap at
    least 15.5-fold (the second-order rate is 16; measured 15.995 to
    16.0001), down to rounding; returns the gaps at 4 pieces."""
    c, g4, g16, g64 = _gaps_to_per_piece_loop(model, plans)
    floor = 1e-13 * (1.0 + c)
    assert np.all(g16 <= g4 / 15.5 + floor)
    assert np.all(g64 <= g16 / 15.5 + floor)
    return g4


@pytest.mark.parametrize("seed", [1, 2, 3, 17, 256])
def test_segment_cost_matches_per_piece_loop(interacting, seed):
    """On random interacting plans the per-piece loop, which freezes the
    rates at piece midpoints, converges to the one-call closed form at
    second order; a kernel that froze them would not be its limit."""
    rng = np.random.default_rng(seed)
    plans = [_random_feasible_trajectory(interacting, rng, 12, 2.0)
             for _ in range(5)]
    # the rates move: measured 2.3e-4 to 9.3e-4 at 4 pieces
    assert _assert_second_order(interacting, plans).max() > 1e-5


def test_witness_segment_costs_match_per_piece_loop(interacting):
    """The same second-order convergence on the refined witnesses of a
    small corpus at z_max 20, where most segments leave the mass at 0,
    and so the rates, unchanged."""
    xi_star = find_equilibrium(interacting, 20)
    plans = [v_upper_bound(interacting, xi_star, xi, refine=True).witness
             for xi in _corpus_targets(xi_star, 5.0, 3, seed=17)]
    # measured 3.8e-5 at 4 pieces
    assert _assert_second_order(interacting, plans).max() > 1e-6


def _thinned_plan(model, rng, z_max):
    """A _random_feasible_trajectory plan with a random share of every
    row's edges idle, each row halved until it keeps every mass
    positive."""
    base = _random_feasible_trajectory(model, rng, z_max, 2.0)
    cur = base.initial.probs
    rows = []
    for d, row in zip(base.durations, base.fluxes):
        row = row * (rng.random(row.size) < rng.uniform(0.2, 1.0))
        while (cur + d * _mass_balance(row[None], model.kind)[0]).min() <= 0.0:
            row = 0.5 * row
        cur = cur + d * _mass_balance(row[None], model.kind)[0]
        rows.append(row)
    return FluxTrajectory(base.initial, model.kind, base.durations,
                          np.array(rows))


def _mixed_plans(model):
    """Six thinned random plans, a stranded plan (its last, and flux out
    of a state that stays empty) and, for an interacting model, a plan
    that moves 0.9 of the mass in one segment and one that carries it on
    through state 1."""
    z_max = 12
    rng = np.random.default_rng(9)
    start = StateDistribution.delta(0, z_max)
    stranded = _plan(start, model.kind, (0.2, {(0, 1): 1.0}),
                     (0.2, {(1, 2): 0.5, (2, 3): 0.5}))
    plans = [_thinned_plan(model, rng, z_max) for _ in range(6)] + [stranded]
    if model.interacting:
        p = np.full(z_max + 1, 0.01 / z_max)
        p[0] = 0.99
        plans.append(_plan(StateDistribution(p, z_max), model.kind,
                           (0.9, {(0, 1): 1.0}), (0.5, {(1, 2): 0.1}),
                           (0.3, {(1, 0): 0.2, (0, 1): 0.05})))
        plans.append(_plan(StateDistribution(p, z_max), model.kind,
                           (0.9, {(0, 1): 1.0, (1, 2): 1.0})))
    return plans, stranded


@pytest.mark.parametrize("which", ["mm1", "wlan_const", "wlan_decay",
                                   "interacting"])
def test_batched_cost_matches_per_segment_reference(request, which):
    """All segments costed in one batched pass equal, bit for bit, each
    segment costed alone, and the plan total is their sum in order.  The
    plans mix active-edge counts, and flux out of a state that stays
    empty makes its segment, and the plan, cost inf."""
    model = request.getfixturevalue(which)
    plans, stranded = _mixed_plans(model)
    active_counts = set()
    for traj in plans:
        P = evolve(traj).probs
        segs = list(zip(traj.fluxes, P[:-1], P[1:], traj.durations))
        got, _ = _segment_costs(model, traj.fluxes, P[:-1], P[1:],
                                traj.durations)
        assert got.tolist() == [_one_segment(model, *seg) for seg in segs]
        total = 0.0
        for seg in segs:
            total += _cost_on_pieces(model, *seg, 1)[0]
        assert cost_nonvariational(model, traj) == total
        active_counts.update((traj.fluxes > 0.0).sum(axis=1).tolist())
    assert len(active_counts) >= 4
    assert cost_nonvariational(model, stranded) == math.inf


@pytest.mark.parametrize("which", ["mm1", "wlan_const", "wlan_decay",
                                   "interacting"])
def test_idle_costs_match_zero_flux_costing(request, which):
    """The all-idle cost B that the batched pass returns with every
    segment's cost equals, bit for bit, the cost of the same states with
    a zero flux row; _plan_costs returns the same row next to the plan
    cost, also for the stranded plan."""
    model = request.getfixturevalue(which)
    plans, _ = _mixed_plans(model)
    for traj in plans:
        P = evolve(traj).probs
        seg = (P[:-1], P[1:], traj.durations)
        costs, idle = _segment_costs(model, traj.fluxes, *seg)
        zero, zero_idle = _segment_costs(model, np.zeros_like(traj.fluxes),
                                         *seg)
        assert idle.tolist() == zero.tolist() == zero_idle.tolist()
        assert np.all(idle > 0.0)
        (total, plan_idle), = _plan_costs(model, [traj])
        assert total == cost_nonvariational(model, traj)
        assert plan_idle.tolist() == idle.tolist()


def test_segment_cost_equals_its_cost_on_four_sub_segments(interacting):
    """On the mixed plans and the refined witnesses of a small corpus the
    rates are affine along every segment, so the closed form is exact:
    a segment costs the same, up to rounding, as the sum of its four
    equal sub-segments."""
    plans, _ = _mixed_plans(interacting)
    xi_star = find_equilibrium(interacting, 20)
    plans += [v_upper_bound(interacting, xi_star, xi, refine=True).witness
              for xi in _corpus_targets(xi_star, 5.0, 3, seed=17)]
    for traj in plans:
        P = evolve(traj).probs
        seg = (traj.fluxes, P[:-1], P[1:], traj.durations)
        costs = _segment_costs(interacting, *seg)[0]
        fine = np.array([_cost_on_pieces(interacting, *s, 4)[0]
                         for s in zip(*seg)])
        finite = np.isfinite(costs)
        assert np.array_equal(finite, np.isfinite(fine))
        # measured 8.9e-16
        assert np.abs(costs[finite] - fine[finite]).max() <= 1e-13


def test_cost_rejects_edges_of_the_other_kind(mm1):
    traj = _plan(geometric(0.5, 6), RESETS,
                 (0.5, {(0, 1): 0.1, (2, 0): 0.05}))
    with pytest.raises(EdgeNotPresentError):
        cost_nonvariational(mm1, traj)


@pytest.mark.parametrize("kind", [RESETS, BIRTH_DEATH])
def test_cost_of_shared_edges_agrees_across_kinds(kind):
    """Forward edges and (1, 0) belong to both kinds: with equal rates
    a plan on them costs the same under either model."""
    traj = _plan(geometric(0.5, 6), kind,
                 (0.5, {(0, 1): 0.1, (1, 2): 0.05}),
                 (0.3, {(1, 0): 0.2, (3, 4): 0.01}))
    assert cost_nonvariational(mm1_model(1.0, 2.0), traj) == \
        cost_nonvariational(wlan_const_model(1.0, 2.0), traj)


# -- variational form and duality ------------------------------------------------------

def _dual_maximize_scalar(model, p, psi, rungs, grad_tol=1e-10, max_iter=300):
    """Oracle: the single-node damped Newton ascent from alpha = 0 with
    alpha_0 pinned, each step a dense solve on the free states, with its
    gradient rung; records the rungs reached in ``rungs``."""
    n = p.shape[0]
    w = _edge_weights(model, np.clip(p, 0.0, None)[None])[0]
    alpha = np.zeros(n)
    cur = _value(model.kind, alpha, psi, w)
    converged = False
    for _ in range(max_iter):
        g, H = _grad_hess(model.kind, alpha, psi, w)
        held = _held(alpha, g)
        rmax = float(np.abs(np.where(held, 0.0, g[1:])).max())
        if rmax < grad_tol:
            converged = True
            break
        step = _dense_step(H, g, held)
        for damp in (1.0, 0.5, 0.25, 0.1, 0.03, 0.01):
            cand = np.clip(alpha + damp * step, -_ALPHA_CAP, _ALPHA_CAP)
            v = _value(model.kind, cand, psi, w)
            if v > cur + 1e-18 or (damp == 1.0
                                   and v >= cur - 4e-16 * (1.0 + abs(cur))):
                alpha, cur = cand, v
                break
        else:
            rungs.add("gradient")
            g[0] = 0.0
            g /= max(float(np.abs(g).max()), 1.0)
            for damp in (1.0, 0.1, 0.01, 1e-3, 1e-4):
                cand = np.clip(alpha + damp * g, -_ALPHA_CAP, _ALPHA_CAP)
                v = _value(model.kind, cand, psi, w)
                if v > cur + 1e-18:
                    alpha, cur = cand, v
                    break
    return max(cur, 0.0), alpha, converged


def _value(kind, a, psi, w):
    src, dst = edge_list(kind, a.size - 1)
    return float(a @ psi - np.sum((np.exp(a[dst] - a[src]) - 1.0) * w))


def _grad_hess(kind, a, psi, w):
    """Gradient and negated Hessian of the dual value, by edge."""
    src, dst = edge_list(kind, a.size - 1)
    ew = np.exp(a[dst] - a[src]) * w
    g = psi.copy()
    np.add.at(g, src, ew)
    np.subtract.at(g, dst, ew)
    return g, _hessian(kind, ew)


def _hessian(kind, ew):
    """sum_e ew_e (1_src - 1_dst)(1_src - 1_dst)^T, assembled by edge."""
    n = ew.size // 2 + 1
    src, dst = edge_list(kind, n - 1)
    H = np.zeros((n, n))
    np.add.at(H, (src, src), ew)
    np.add.at(H, (dst, dst), ew)
    np.subtract.at(H, (src, dst), ew)
    np.subtract.at(H, (dst, src), ew)
    return H


def _held(alpha, g):
    """States 1..z_max parked at the box with the gradient pointing out."""
    a = alpha[1:]
    return (((a <= -_ALPHA_CAP + 1e-12) & (g[1:] <= 0.0))
            | ((a >= _ALPHA_CAP - 1e-12) & (g[1:] >= 0.0)))


def _ridge(H):
    return 1e-12 * (1.0 + float(np.trace(H)) / H.shape[0])


def _dense_step(H, g, held):
    """The gauge-fixed projected Newton step: alpha_0 and the held states
    kept, a dense solve on the others with the ridge on the diagonal."""
    free = np.flatnonzero(~held) + 1
    step = np.zeros(g.size)
    step[free] = np.linalg.solve(
        H[np.ix_(free, free)] + _ridge(H) * np.eye(free.size), g[free])
    return step


def _dual_nodes(model, z_max, rng):
    """(field, slope) nodes: midpoints and slopes of refined random flux
    plans, random fields with random mass-conserving slopes, and fields
    whose slope puts mass on a state no live edge feeds (parked at the
    +50 box), and fields whose slope feeds the first of two adjacent
    states holding 1e-6..1e-4 of mass, where far from the optimum no
    damped Newton step gains and gradient steps lead."""
    P, Psi = [], []
    for _ in range(2):
        path = evolve(_random_feasible_trajectory(model, rng, z_max, 1.5))
        t2, p2 = _refine_grid(path.times, path.probs, 16)
        P.append(0.5 * (p2[:-1] + p2[1:]))
        Psi.append(np.diff(p2, axis=0) / np.diff(t2)[:, None])
    s = rng.normal(size=(40, z_max + 1))
    P.append(rng.dirichlet(np.ones(z_max + 1), size=40))
    Psi.append((s - s.mean(axis=1, keepdims=True))
               * rng.uniform(0.01, 2.0, size=(40, 1)))
    k = z_max // 2
    P.append(np.concatenate([rng.dirichlet(np.ones(k), size=10),
                             np.zeros((10, z_max + 1 - k))], axis=1))
    s = np.zeros((10, z_max + 1))
    s[:, k + 1] = rng.uniform(0.05, 0.5, 10)
    s[:, 0] = -s[:, k + 1]
    Psi.append(s)
    f, s = _fed_pair_nodes(rng, 20, z_max, -6, -4)
    P.append(f)
    Psi.append(s)
    return np.concatenate(P), np.concatenate(Psi)


def _fed_pair_nodes(rng, n, z_max, lo, hi):
    """n fields in which two adjacent states hold 10^U(lo, hi) of mass,
    with slopes that feed the first of them."""
    f = rng.dirichlet(np.ones(z_max + 1), size=n)
    j = rng.integers(2, z_max, n)
    f[np.arange(n), j] = 10.0 ** rng.uniform(lo, hi, n)
    f[np.arange(n), j + 1] = 10.0 ** rng.uniform(lo, hi, n)
    s = rng.normal(size=(n, z_max + 1))
    s = 0.3 * (s - s.mean(axis=1, keepdims=True))
    feed = rng.uniform(0.1, 1.0, n)
    s[np.arange(n), j] += feed
    s[:, 0] -= feed
    return f / f.sum(axis=1, keepdims=True), s


def _oracle(model, P, Psi):
    """Values, alphas and converged flags of the single-node oracle."""
    ref = [_dual_maximize_scalar(model, p, s, set()) for p, s in zip(P, Psi)]
    return (np.array([v for v, _, _ in ref]), np.array([a for _, a, _ in ref]),
            np.array([c for _, _, c in ref]))


@pytest.mark.parametrize("name", ["wlan_const", "interacting"])
def test_batched_dual_matches_single_node_oracle(request, name, monkeypatch):
    model = request.getfixturevalue(name)
    z_max = 8
    P, Psi = _dual_nodes(model, z_max, np.random.default_rng(3))
    vals, alphas, ok = _dual_maximize(model, P, Psi)
    rungs = [set() for _ in P]
    ref = [_dual_maximize_scalar(model, p, s, r)
           for p, s, r in zip(P, Psi, rungs)]
    assert np.abs(vals - [v for v, _, _ in ref]).max() <= 1e-12
    assert np.abs(alphas - np.array([a for _, a, _ in ref])).max() <= 1e-9
    assert ok.tolist() == [c for _, _, c in ref]
    # the sample covers the gradient rung and the box
    assert sum("gradient" in r for r in rungs) >= 10
    assert np.sum(np.abs(alphas).max(axis=1) >= _ALPHA_CAP - 1e-12) >= 10
    # one Newton step cannot reach the tolerance: nodes end unconverged
    monkeypatch.setattr(cost_module, "_MAX_ITER", 1)
    vals, alphas, ok = _dual_maximize(model, P, Psi)
    ref = [_dual_maximize_scalar(model, p, s, set(), max_iter=1)
           for p, s in zip(P, Psi)]
    assert np.abs(vals - [v for v, _, _ in ref]).max() <= 1e-12
    assert np.abs(alphas - np.array([a for _, a, _ in ref])).max() <= 1e-9
    assert ok.tolist() == [c for _, _, c in ref]
    assert not ok.any()


def test_birth_death_closed_form_matches_single_node_oracle(mm1):
    """The closed form against Newton ascent on the oracle's nodes: equal
    where the oracle converged inside the box, never below it, flagged
    as the oracle flags the compact-support nodes, and its fluxes
    exp(d alpha) * w solve the optimality conditions and balance Psi."""
    z_max = 8
    P, Psi = _dual_nodes(mm1, z_max, np.random.default_rng(3))
    vals, alphas, ok = _dual_maximize(mm1, P, Psi)
    ref, ref_alphas, ref_ok = _oracle(mm1, P, Psi)
    inside = np.abs(ref_alphas).max(axis=1) < _ALPHA_CAP - 1e-12
    assert np.sum(inside & ref_ok) >= 200 and np.sum(~inside) >= 10
    assert np.abs(vals - ref)[inside & ref_ok].max() <= 1e-12
    assert np.all(vals[inside]
                  >= ref[inside] - 1e-12 * (1.0 + np.abs(ref[inside])))
    assert ok[~inside].tolist() == ref_ok[~inside].tolist()
    w = _edge_weights(mm1, np.clip(P, 0.0, None))
    src, dst = edge_list(BIRTH_DEATH, z_max)
    F = np.exp(alphas[:, dst] - alphas[:, src]) * w
    scale = 1.0 + np.abs(Psi).max(axis=1) + F.max(axis=1)
    kkt = np.array([np.abs(_grad_hess(BIRTH_DEATH, a, s, e)[0]).max()
                    for a, s, e in zip(alphas, Psi, w)])
    balance = np.abs(_mass_balance(F, BIRTH_DEATH) - Psi).max(axis=1)
    assert (kkt / scale)[inside].max() <= 1e-12
    assert (balance / scale)[inside].max() <= 1e-12


def test_birth_death_closed_form_on_vanishing_masses(mm1):
    """Two adjacent states hold 10^U(-12,-8) of mass and the first is
    fed: the optimum lies far from alpha_0, where Newton's box binds and
    its steps clip.  The closed form stays finite and never ends below
    the oracle, which falls short on some of these nodes."""
    P, Psi = _fed_pair_nodes(np.random.default_rng(4), 30, 10, -12, -8)
    vals, alphas, ok = _dual_maximize(mm1, P, Psi)
    ref, _, _ = _oracle(mm1, P, Psi)
    assert np.isfinite(vals).all() and np.isfinite(alphas).all() and ok.all()
    assert np.all(vals >= ref - 1e-12)
    assert np.sum(vals > ref + 1e-9) >= 5


def test_recovered_cost_is_the_plans_control_cost(mm1, monkeypatch):
    """The cost that ends the recovery ladder is the control cost of the
    plan returned, bit for bit: when the ladder settles, when it runs out
    of levels and when it is not climbed (refine=1)."""
    costs = []

    def spy(model, trajs):
        out = _plan_costs(model, trajs)
        costs.extend(c for c, _ in out)
        return out

    for t_max, refine, settled in ((0.5, None, True), (8.0, None, False),
                                   (2.0, 1, None)):
        path = evolve(_random_feasible_trajectory(
            mm1, np.random.default_rng(0), 4, t_max))
        costs.clear()
        with monkeypatch.context() as patch:
            patch.setattr(cost_module, "_plan_costs", spy)
            (plan, c), = _recover(mm1, [path], refine)
        assert c == costs[-1] == cost_nonvariational(mm1, plan)
        if settled is not None:
            # ten costings: build(1) and the nine doubling levels
            assert (len(costs) < 10) == settled
            assert (abs(costs[-1] - costs[-2]) < 2e-7) == settled


@pytest.mark.parametrize("name", ["wlan_const", "mm1"])
def test_dual_nodes_do_not_depend_on_their_stack(request, name):
    """Each node's value, alpha and flag come out bitwise the same
    whichever nodes share its stack: per-path stacks solved alone against
    their concatenation, permuted and crossing a _CHUNK boundary, from
    alpha = 0 and from given starts.  The lockstep solves of
    cost_variational and _recover rest on this."""
    model = request.getfixturevalue(name)
    rng = np.random.default_rng(6)
    P, Psi = (np.concatenate(x)
              for x in zip(*(_dual_nodes(model, 8, rng) for _ in range(2))))
    assert P.shape[0] > _CHUNK
    start = rng.uniform(-1.0, 1.0, P.shape)
    start[:, 0] = 0.0
    cuts = np.sort(rng.choice(np.arange(1, P.shape[0]), 6, replace=False))
    order = rng.permutation(P.shape[0])
    for A in (None, start):
        pieces = zip(np.split(P, cuts), np.split(Psi, cuts),
                     np.split(start, cuts))
        alone = [_dual_maximize(model, p, s, None if A is None else a)
                 for p, s, a in pieces]
        joint = _dual_maximize(model, P[order], Psi[order],
                               None if A is None else A[order])
        for a, j in zip(zip(*alone), joint):
            assert np.concatenate(a)[order].tobytes() == j.tobytes()


@pytest.mark.parametrize("name", ["wlan_const", "mm1"])
def test_lockstep_costs_match_per_path_calls(request, name, monkeypatch):
    """cost_variational and _recover on a corpus give, bit for bit, what
    they give on each path alone.  The paths settle at different
    quadrature rungs and recovery levels, and some of them alone stack
    more than _CHUNK nodes."""
    model = request.getfixturevalue(name)
    rng = np.random.default_rng(0)
    paths = [evolve(_random_feasible_trajectory(model, rng, 4, t_max))
             for t_max in (0.5, 2.0) * 3]
    stacks = []

    def spy(model, P, Psi, start=None):
        stacks.append(P.shape[0])
        return dual(model, P, Psi, start)

    dual = cost_module._dual_maximize
    monkeypatch.setattr(cost_module, "_dual_maximize", spy)
    var, rec, rungs, levels, sizes = [], [], set(), set(), []
    for path in paths:
        var += cost_variational(model, [path])
        rungs.add(len(stacks))
        sizes += stacks
        stacks.clear()
        rec += _recover(model, [path], None)
        levels.add(len(stacks))
        sizes += stacks
        stacks.clear()
    assert len(rungs) >= 2 and len(levels) >= 2 and max(sizes) > _CHUNK
    assert cost_variational(model, paths) == var
    joint = _recover(model, paths, None)
    assert [c for _, c in joint] == [c for _, c in rec]
    for (plan, _), (ref, _) in zip(joint, rec):
        assert plan.initial.probs.tobytes() == ref.initial.probs.tobytes()
        assert plan.durations.tobytes() == ref.durations.tobytes()
        assert plan.fluxes.tobytes() == ref.fluxes.tobytes()
    # the corpus shared its solves: fewer calls than the paths alone made
    assert len(stacks) < len(sizes)


def test_lockstep_costs_take_one_window(wlan_const):
    """Paths on two windows are refused; no paths cost nothing."""
    rng = np.random.default_rng(0)
    paths = [evolve(_random_feasible_trajectory(wlan_const, rng, z_max, 0.5))
             for z_max in (4, 6)]
    with pytest.raises(TruncationMismatchError):
        cost_variational(wlan_const, paths)
    with pytest.raises(TruncationMismatchError):
        _recover(wlan_const, paths, None)
    assert cost_variational(wlan_const, []) == []
    assert _recover(wlan_const, [], None) == []


@pytest.mark.parametrize("kind", [RESETS])
def test_newton_step_matches_dense_solve(kind):
    """The batched Thomas pass against a dense solve on the free states.
    A third of the edges weigh 0, so some blocks of states lean on the
    ridge alone and the system's condition number reaches 1e12: the two
    solves agree to within that condition number times rounding."""
    rng = np.random.default_rng(5)
    z_max = 10
    ew = rng.uniform(0.0, 2.0, (300, 2 * z_max))
    ew[rng.random(ew.shape) < 0.3] = 0.0
    g = rng.normal(size=(300, z_max + 1))
    held = rng.random((300, z_max)) < 0.1
    steps = _newton_step(ew, g, held)
    for e, gb, h, step in zip(ew, g, held, steps):
        H = _hessian(kind, e)
        ref = _dense_step(H, gb, h)
        free = np.flatnonzero(~h) + 1
        cond = np.linalg.cond(H[np.ix_(free, free)]
                              + _ridge(H) * np.eye(free.size))
        assert np.abs(step - ref).max() <= 1e-15 * cond * np.abs(ref).max()
        assert step[0] == 0.0 and not step[1:][h].any()


@pytest.mark.parametrize("m", _GL_LADDER)
def test_gauss_legendre_nodes_match_numpy(m):
    """Gauss-Legendre nodes and weights, mapped to [0, 1], against numpy's
    Legendre module, which the library does not import."""
    from numpy.polynomial.legendre import leggauss
    x, w = _gauss_legendre(m)
    t, v = leggauss(m)
    assert np.abs(x - 0.5 * (t + 1.0)).max() <= 1e-14
    assert np.abs(w - 0.5 * v).max() <= 1e-14


@pytest.mark.parametrize("m", _GL_LADDER)
def test_gauss_legendre_exact_to_degree_2m_minus_1(m):
    x, w = _gauss_legendre(m)
    for j in range(2 * m):
        assert x ** j @ w == pytest.approx(1.0 / (j + 1), abs=1e-14)


def _cost_variational_ref(model, path, tol=1e-6):
    """Oracle: the trapezoid rule on the path's intervals, each interval
    halved (affinely) until the value changes by less than ``tol``, then
    one Richardson step."""
    def trapezoid(times, probs):
        k, dt, psi = _intervals(times, probs)
        vals, _, _ = _dual_maximize(
            model, np.concatenate([probs[k], probs[k + 1]]),
            np.concatenate([psi, psi]))
        return float(np.sum(0.5 * dt * (vals[:k.size] + vals[k.size:])))

    prev = trapezoid(path.times, path.probs)
    pieces = 2
    for _ in range(10):
        nxt = trapezoid(*_refine_grid(path.times, path.probs, pieces))
        extrap = nxt + (nxt - prev) / 3.0
        if abs(nxt - prev) < tol:
            break
        prev = nxt
        pieces *= 2
    return max(extrap, 0.0)


@pytest.mark.parametrize("name", ["mm1", "wlan_const", "wlan_decay",
                                  "interacting"])
def test_variational_matches_trapezoid_richardson(request, name):
    model = request.getfixturevalue(name)
    rng = np.random.default_rng(8)
    for _ in range(3):
        path = evolve(_random_feasible_trajectory(model, rng, 6, 1.0))
        var, = cost_variational(model, [path])
        assert abs(var - _cost_variational_ref(model, path)) < 1e-8


def test_variational_zero_on_flow(wlan_const):
    nu = StateDistribution.from_weights(np.exp(-0.4 * np.arange(21)))
    path, = flows(wlan_const, [nu], [2.0], tol=1e-10, dt_max=0.004)
    assert cost_variational(wlan_const, [path])[0] < 1e-6


def test_variational_nonnegative(wlan_const):
    times = np.array([0.0, 0.5, 1.0])
    a = geometric(0.5, 8).probs
    b = np.roll(a, 1)
    b[0] = a[0]
    b /= b.sum()
    probs = np.stack([a, b, a])
    assert cost_variational(wlan_const, [SampledPath(times, probs)])[0] >= 0.0


def test_duality_crosscheck_small(mm1, wlan_const):
    """Every node of both solves converges: the cost layer warns of
    nothing here."""
    rng = np.random.default_rng(11)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for model in (mm1, wlan_const):
            traj = _random_feasible_trajectory(model, rng, 6, 1.5)
            path = evolve(traj)
            var, = cost_variational(model, [path])
            rec = flux_from_path(model, path)
            nonvar = cost_nonvariational(model, rec)
            assert abs(var - nonvar) < 1e-5
            assert nonvar <= cost_nonvariational(model, traj) + 1e-8


def test_flux_recovery_on_flow_matches_drift(wlan_const):
    nu = StateDistribution.from_weights(np.exp(-0.4 * np.arange(13)))
    path, = flows(wlan_const, [nu], [1.0], tol=1e-10, dt_max=0.01)
    rec = flux_from_path(wlan_const, path, refine=1)
    probs = path.probs
    k = rec.durations.size // 2
    mid = 0.5 * (probs[k] + probs[k + 1])
    fwd = wlan_const.forward_rates(12, mid) * mid
    for z in range(6):  # column z is the forward edge (z, z+1)
        assert rec.fluxes[k, z] == pytest.approx(
            float(fwd[z]), abs=1e-6)


def test_flux_recovery_balance_residual(wlan_const):
    """Constant non-equilibrium path: strictly positive cost and exact
    balance between recovered fluxes and the (zero) slope."""
    p = geometric(0.7, 10)
    times = np.linspace(0.0, 1.0, 21)
    probs = np.tile(p.probs, (21, 1))
    rec = flux_from_path(wlan_const, SampledPath(times, probs))
    path2 = evolve(rec)
    assert np.abs(path2.probs[-1] - p.probs).sum() < 1e-8
    assert cost_nonvariational(wlan_const, rec) > 0.01


def test_flux_recovery_cheaper_than_two_way_flow(mm1):
    """Simultaneous forward/backward flux on birth-death edges is
    wasteful; the dual-optimal split can only cost less."""
    p = geometric(0.5, 6)
    fluxes = {(2, 3): 0.05, (3, 2): 0.05}  # net zero, pure churn
    traj = _plan(p, BIRTH_DEATH, (1.0, fluxes))
    path = evolve(traj)
    rec = flux_from_path(mm1, path)
    assert cost_nonvariational(mm1, rec) <= cost_nonvariational(mm1, traj) + 1e-8


# -- concatenation ---------------------------------------------------------------------

def test_concatenate_cost_additive(wlan_const):
    """A plan that runs b after a, its segments stacked, costs the sum."""
    init = geometric(0.5, 8)
    a = _plan(init, RESETS, (0.5, {(0, 1): 0.2}))
    end_a = evolve(a).final_distribution()
    b = _plan(end_a, RESETS, (0.5, {(1, 0): 0.1}))
    glued = FluxTrajectory(init, RESETS,
                           np.concatenate([a.durations, b.durations]),
                           np.concatenate([a.fluxes, b.fluxes]))
    ca = cost_nonvariational(wlan_const, a)
    cb = cost_nonvariational(wlan_const, b)
    assert cost_nonvariational(wlan_const, glued) == pytest.approx(
        ca + cb, abs=1e-12)


# -- test-function lower bounds -----------------------------------------------------------

def test_lower_bound_vacuous_at_equilibrium(mm1):
    xi_star = single_particle_stationary(mm1, 30)
    for kind in ("linear_fn", "theta_n"):
        for n in (1, 5, 20):
            assert testfunction_lower_bound(mm1, xi_star, xi_star, 1.0, n,
                                            kind) <= 0.0


def test_lower_bound_grows_with_truncation(mm1):
    from meanfield_ldp.quasipotential import heavy_tail_target
    vals = []
    for K in (50, 200, 800):
        target = heavy_tail_target(K)
        xi_star = single_particle_stationary(mm1, K)
        best = max(testfunction_lower_bound(mm1, xi_star, target, 1.0, n,
                                            "theta_n")
                   for n in (K // 2, K))
        vals.append(best)
    assert vals[0] < vals[1] < vals[2]  # no apparent ceiling


def test_lower_bound_validity_against_witnesses(wlan_decay):
    xi = StateDistribution.from_weights(np.exp(-0.8 * np.arange(13)))
    xi_star = find_equilibrium(wlan_decay, 12)
    bound = v_upper_bound(wlan_decay, xi_star, xi)
    T = bound.witness.duration
    cost = cost_nonvariational(wlan_decay, bound.witness)
    for kind in ("linear_fn", "theta_n"):
        for n in (1, 3, 6, 12):
            lb = testfunction_lower_bound(wlan_decay, xi_star, xi, T, n, kind)
            assert lb <= cost + 1e-8


# -- theta-moment inequality -----------------------------------------------------------------

def test_moment_inequality_on_zero_cost_flow(wlan_const):
    nu = StateDistribution.from_weights(np.exp(-0.4 * np.arange(13)))
    path, = flows(wlan_const, [nu], [1.0], tol=1e-10, dt_max=0.01)
    rec = flux_from_path(wlan_const, path, refine=1)
    assert moment_inequality_check(wlan_const, rec)


def test_moment_inequality_on_constructions(wlan_decay):
    from meanfield_ldp.quasipotential import construct_delta0_to_target
    rng = np.random.default_rng(2)
    for _ in range(5):
        w = rng.dirichlet(np.ones(13) * 0.5)
        xi = StateDistribution(w, 12)
        traj = construct_delta0_to_target(xi)
        assert moment_inequality_check(wlan_decay, traj)


def test_moment_inequality_is_informative(wlan_decay):
    """Contrapositive design check: a trajectory with a large terminal
    theta-moment cannot have near-zero cost, otherwise the inequality
    itself would fail."""
    from meanfield_ldp.quasipotential import construct_delta0_to_target
    xi = StateDistribution.delta(12, 12)
    traj = construct_delta0_to_target(xi)
    th = theta_values(12)
    sup_theta = float(np.max(evolve(traj).probs @ th))
    fake_cost = 0.0
    rhs = 0.0 + fake_cost + 1e-9 + wlan_decay.lambda_upper * (math.e - 1.0) \
        * traj.duration
    assert sup_theta > rhs  # a zero-cost claim would be rejected


def test_moment_inequality_requires_reset_edges(mm1):
    traj = _plan(StateDistribution.delta(0, 5), BIRTH_DEATH, (1.0, {(0, 1): 0.5}))
    with pytest.raises(ValueError):
        moment_inequality_check(mm1, traj)


# -- file format -------------------------------------------------------------------------------

def test_trajectory_roundtrip(tmp_path):
    init = geometric(0.5, 7)
    traj = _plan(init, RESETS, (0.123456789012345, {(0, 1): 0.25}),
                 (1.0 / 3.0, {(3, 0): 1e-17}))
    f = tmp_path / "traj.txt"
    save_trajectory(traj, f)
    back = load_trajectory(f)
    assert back.z_max == traj.z_max
    assert np.array_equal(back.initial.probs, traj.initial.probs)
    assert back.kind is RESETS
    assert back.durations.size == 2
    assert np.array_equal(back.durations, traj.durations)
    assert np.array_equal(back.fluxes, traj.fluxes)


def test_trajectory_roundtrip_birth_death(tmp_path):
    init = geometric(0.5, 6)
    traj = _plan(init, BIRTH_DEATH, (0.25, {(0, 1): 0.1, (3, 2): 0.2}),
                 (0.5, {(1, 0): 0.05, (6, 5): 1e-3}))
    f = tmp_path / "traj.txt"
    save_trajectory(traj, f)
    back = load_trajectory(f)
    assert back.kind is BIRTH_DEATH
    assert np.array_equal(back.durations, traj.durations)
    assert np.array_equal(back.fluxes, traj.fluxes)


def _trajectory_file(tmp_path, body, n_segments=None):
    if n_segments is None:
        n_segments = body.count("duration")
    f = tmp_path / "traj.txt"
    f.write_text(f"z_max,5\nn_segments,{n_segments}\ninitial\n0,0.5\n1,0.5\n"
                 f"end_initial\n{body}")
    return f


@pytest.mark.parametrize("body, match", [
    ("duration,1\n2,5,0.1\n", "no edge"),  # an edge of neither kind
    ("duration,1\n5,6,0.1\n", "no edge"),  # leaves the window
    ("duration,1\n2,0,0.1\nduration,1\n3,2,0.1\n", "mixes"),
    ("duration,1\n0,1,-0.1\n", "finite and >= 0"),
    ("duration,1\n0,1,nan\n", "finite and >= 0"),
    ("duration,1\n0,1,inf\n", "finite and >= 0"),
    ("duration,0\n0,1,0.1\n", "positive"),
    ("duration,-1\n0,1,0.1\n", "positive"),
    ("0,1,0.1\nduration,1\n", "before the first duration"),
    ("duration,1\n0,1\n", "row '0,1'"),  # a flux row without its flux
    ("duration,1\n0,1,0.1\n0,1,0.2\n", "row '0,1,0.2'"),  # edge given twice
])
def test_load_trajectory_rejects_malformed_input(tmp_path, body, match):
    with pytest.raises(ValueError, match=match):
        load_trajectory(_trajectory_file(tmp_path, body))


@pytest.mark.parametrize("text, match", [
    ("", r"header rows \[\]"),  # an empty file
    ("z_max,2\n", r"header rows \['z_max,2'\]"),
    ("z_max\n", r"header rows \['z_max'\]"),
])
def test_load_trajectory_rejects_truncated_header(tmp_path, text, match):
    f = tmp_path / "traj.txt"
    f.write_text(text)
    with pytest.raises(ValueError, match=match):
        load_trajectory(f)


@pytest.mark.parametrize("n_segments", [0, 1])
def test_load_trajectory_rejects_unterminated_initial_block(tmp_path,
                                                           n_segments):
    """A file cut inside the initial block is an error, also when its
    header announces no segments."""
    f = tmp_path / "traj.txt"
    f.write_text(f"z_max,5\nn_segments,{n_segments}\ninitial\n0,0.5\n1,0.5\n")
    with pytest.raises(ValueError, match="missing end_initial"):
        load_trajectory(f)


def test_load_trajectory_rejects_tail_row(tmp_path):
    """The initial distribution lives on the window: a ``tail`` row of
    mass beyond z_max is an error that names the row."""
    f = tmp_path / "traj.txt"
    f.write_text("z_max,5\nn_segments,1\ninitial\n0,0.5\n1,0.4\ntail,0.1\n"
                 "end_initial\nduration,1\n0,1,0.1\n")
    with pytest.raises(ValueError, match="'tail,0.1'"):
        load_trajectory(f)


@pytest.mark.parametrize("initial, row", [
    ("0,0.5\n-1,0.5\n", "'-1,0.5'"),  # would wrap around to z_max
    ("0,0.5\n6,0.5\n", "'6,0.5'"),  # past z_max
    ("0,0.5\n1,0.25\n1,0.5\n", "'1,0.5'"),  # would overwrite state 1
    ("0,0.5,1\n1,0.5\n", "'0,0.5,1'"),  # a field too many
    ("0\n1,1\n", "row '0'"),  # a state without its mass
])
def test_load_trajectory_rejects_unplaceable_initial_state(tmp_path, initial,
                                                           row):
    f = tmp_path / "traj.txt"
    f.write_text(f"z_max,5\nn_segments,1\ninitial\n{initial}end_initial\n"
                 "duration,1\n0,1,0.1\n")
    with pytest.raises(ValueError, match=row):
        load_trajectory(f)


def test_load_trajectory_rejects_nan_initial_mass(tmp_path):
    f = tmp_path / "traj.txt"
    f.write_text("z_max,5\nn_segments,1\ninitial\n0,nan\n1,1\nend_initial\n"
                 "duration,1\n0,1,0.1\n")
    with pytest.raises(ValueError, match="total mass nan"):
        load_trajectory(f)


def test_load_trajectory_rejects_segment_count_mismatch(tmp_path):
    with pytest.raises(ValueError, match="segment count"):
        load_trajectory(_trajectory_file(tmp_path, "duration,1\nduration,1\n", 1))


def test_load_trajectory_without_backward_edges_reads_resets(tmp_path):
    traj = load_trajectory(_trajectory_file(tmp_path, "duration,1\n0,1,0.2\n1,0,0.1\n"))
    assert traj.kind is RESETS
    assert traj.fluxes[0].tolist() == [0.2, 0, 0, 0, 0, 0.1, 0, 0, 0, 0]
