import math
import warnings

import numpy as np
import pytest

from audits import moment_inequality_check
from conftest import geometric
from meanfield_ldp.cli import _random_feasible_trajectory
from meanfield_ldp.measures import (SampledPath, StateDistribution,
                                    theta_values)
from meanfield_ldp.mckean_vlasov import find_equilibrium, flows
from meanfield_ldp.models import (EdgeKind, EdgeNotPresentError,
                                  MissingBoundsError, RateModel, edge_list,
                                  mm1_model,
                                  single_particle_stationary, wlan_const_model)
from meanfield_ldp.cost import (EndpointMismatchError, FluxTrajectory,
                                InfeasibleTrajectoryError,
                                concatenate, cost_nonvariational,
                                cost_variational, evolve, flux_from_path,
                                load_trajectory, save_trajectory,
                                testfunction_lower_bound)
from meanfield_ldp.cost import (_ALPHA_CAP, _GL_LADDER, _dual_maximize,
                                _edge_weights, _freeze_pieces,
                                _gauss_legendre, _intervals, _mass_balance,
                                _newton_step, _plan_costs, _refine_grid,
                                _segment_costs)


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
    stairs = _staircase(model.kind, StateDistribution.from_weights(w, 12))
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


def _int_log_affine(phi0: float, phi1: float, delta: float) -> float:
    """integral_0^delta log(phi0 + v t) dt through the x log x - x antiderivative."""
    v = (phi1 - phi0) / delta
    if abs(phi1 - phi0) <= 1e-14 * max(phi0, phi1):
        mid = 0.5 * (phi0 + phi1)
        return delta * math.log(mid)
    def F(x: float) -> float:
        return x * math.log(x) - x if x > 0.0 else 0.0
    return (F(phi1) - F(phi0)) / v


def _edge_cost(f: float, lam: float, phi0: float, phi1: float,
               delta: float) -> float:
    """Scalar oracle: closed-form integral of tau*(f/(lam*phi) - 1) * lam * phi
    over a segment where phi is affine and lam is frozen."""
    phi0 = max(phi0, 0.0)
    phi1 = max(phi1, 0.0)
    if f == 0.0:
        return lam * delta * 0.5 * (phi0 + phi1)
    if phi0 <= 0.0 and phi1 <= 0.0:
        return math.inf
    return (f * delta * (math.log(f) - math.log(lam) - 1.0)
            - f * _int_log_affine(phi0, phi1, delta)
            + lam * delta * 0.5 * (phi0 + phi1))


def test_edge_cost_vectorised_matches_scalar():
    rng = np.random.default_rng(0)
    for _ in range(200):
        f = float(rng.choice([0.0, rng.uniform(0, 2)]))
        lam = float(rng.uniform(0.1, 3))
        phi0 = float(rng.choice([0.0, rng.uniform(0, 1)]))
        phi1 = float(rng.choice([0.0, rng.uniform(0, 1)]))
        delta = float(rng.uniform(0.01, 1))
        ref = _edge_cost(f, lam, phi0, phi1, delta)
        # the edge (0, 1) of the z_max = 1 window; (1, 0) idles at zero mass
        vec = _segment_costs(wlan_const_model(lam, 1.0), np.array([[f, 0.0]]),
                             np.array([[phi0, 0.0]]), np.array([[phi1, 0.0]]),
                             np.array([delta]), np.ones(1, dtype=int))[0][0]
        if math.isinf(ref):
            assert math.isinf(vec)
        else:
            assert vec == pytest.approx(ref, rel=1e-12, abs=1e-15)


def _edge_cost_ref(f, lam, phi0, phi1, delta):
    """Oracle: sum over an edge family of the closed-form integral of
    tau*(f/(lam*phi) - 1) * lam * phi over a segment where phi is affine
    and lam is frozen, one segment at a time."""
    phi0 = np.clip(phi0, 0.0, None)
    phi1 = np.clip(phi1, 0.0, None)
    active = f > 0.0
    total = float(np.sum(np.where(active, 0.0,
                                  lam * delta * 0.5 * (phi0 + phi1))))
    if not np.any(active):
        return total
    if np.any(active & (phi0 <= 0.0) & (phi1 <= 0.0)):
        return math.inf
    fa, la, a0, a1 = f[active], lam[active], phi0[active], phi1[active]
    with np.errstate(divide="ignore", invalid="ignore"):
        F0 = np.where(a0 > 0.0, a0 * np.log(a0) - a0, 0.0)
        F1 = np.where(a1 > 0.0, a1 * np.log(a1) - a1, 0.0)
        v = (a1 - a0) / delta
        flat = np.abs(a1 - a0) <= 1e-14 * np.maximum(a0, a1)
        mid = 0.5 * (a0 + a1)
        int_log = np.where(flat, delta * np.log(np.where(mid > 0, mid, 1.0)),
                           (F1 - F0) / np.where(v != 0.0, v, 1.0))
        total += float(np.sum(fa * delta * (np.log(fa) - np.log(la) - 1.0)
                              - fa * int_log
                              + la * delta * 0.5 * (a0 + a1)))
    return total


def _segment_cost_loop(model, row, p0, p1, delta, pieces):
    """Oracle: the segment cost with one rate-table call per piece."""
    z_max = p0.shape[0] - 1
    lam = np.arange(pieces + 1) / pieces
    P = p0[None, :] + (p1 - p0)[None, :] * lam[:, None]
    mids = 0.5 * (P[:-1] + P[1:])
    fwd = np.stack([model.forward_rates(z_max, mids[j]) for j in range(pieces)])
    back = np.stack([model.backward_rates(z_max, mids[j]) for j in range(pieces)])
    dp = delta / pieces
    c = _edge_cost_ref(np.broadcast_to(row[:z_max], (pieces, z_max)).ravel(),
                       fwd[:, :-1].ravel(), P[:-1, :-1].ravel(),
                       P[1:, :-1].ravel(), dp)
    if c == math.inf:
        return math.inf
    c2 = _edge_cost_ref(np.broadcast_to(row[z_max:], (pieces, z_max)).ravel(),
                        back[:, 1:].ravel(), P[:-1, 1:].ravel(),
                        P[1:, 1:].ravel(), dp)
    if c2 == math.inf:
        return math.inf
    return c + c2


def _one_segment(model, row, p0, p1, delta, pieces):
    return _segment_costs(model, row[None], p0[None], p1[None],
                          np.array([delta]), np.array([pieces]))[0][0]


@pytest.mark.parametrize("pieces", [1, 2, 3, 17, 256])
def test_segment_cost_matches_per_piece_loop(interacting, pieces):
    rng = np.random.default_rng(pieces)
    z_max = 12
    for _ in range(5):
        traj = _random_feasible_trajectory(interacting, rng, z_max, 2.0)
        path = evolve(traj)
        for k, (d, row) in enumerate(zip(traj.durations, traj.fluxes)):
            args = (interacting, row, path.probs[k], path.probs[k + 1], d,
                    pieces)
            assert _one_segment(*args) == _segment_cost_loop(*args)


def _freeze_pieces_ref(model, row, p0, p1, delta):
    """Oracle: the subdivision count of one segment."""
    if not model.interacting:
        return 1
    dtv = 0.5 * float(np.abs(p1 - p0).sum())
    lam_scale = 2.0 * model.lambda_upper + sum(row.tolist())
    est = model.lipschitz * dtv * dtv * lam_scale * delta
    if est <= 1e-7:
        return 1
    return min(4096, math.ceil(math.sqrt(est / 1e-7)))


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
    that hits the 4096-piece cap."""
    z_max = 12
    rng = np.random.default_rng(9)
    start = StateDistribution.delta(0, z_max)
    stranded = _plan(start, model.kind, (0.2, {(0, 1): 1.0}),
                     (0.2, {(1, 2): 0.5, (2, 3): 0.5}))
    plans = [_thinned_plan(model, rng, z_max) for _ in range(6)] + [stranded]
    if model.interacting:
        # 0.9 of the mass moved in one segment needs more than 4096 pieces
        p = np.full(z_max + 1, 0.01 / z_max)
        p[0] = 0.99
        plans.append(_plan(StateDistribution(p, z_max), model.kind,
                           (0.9, {(0, 1): 1.0}), (0.5, {(1, 2): 0.1}),
                           (0.3, {(1, 0): 0.2, (0, 1): 0.05})))
    return plans, stranded


@pytest.mark.parametrize("which", ["mm1", "wlan_const", "wlan_decay",
                                   "interacting"])
def test_batched_cost_matches_per_segment_reference(request, which):
    """All segments costed in one batched pass equal, bit for bit, each
    segment costed alone; so do the subdivision counts and the plan
    total.  The plans mix active-edge counts, the interacting ones mix
    piece counts up to the 4096 cap, and flux out of a state that stays
    empty makes its segment, and the plan, cost inf."""
    model = request.getfixturevalue(which)
    plans, stranded = _mixed_plans(model)
    active_counts, piece_counts = set(), set()
    for traj in plans:
        P = evolve(traj).probs
        segs = list(zip(traj.fluxes, P[:-1], P[1:], traj.durations))
        ref_pieces = [_freeze_pieces_ref(model, *seg) for seg in segs]
        pieces = _freeze_pieces(model, traj.fluxes, P[:-1], P[1:],
                                traj.durations)
        assert pieces.tolist() == ref_pieces
        ref = [_segment_cost_loop(model, *seg, n)
               for seg, n in zip(segs, ref_pieces)]
        got, _ = _segment_costs(model, traj.fluxes, P[:-1], P[1:],
                                traj.durations, pieces)
        assert got.tolist() == ref
        total = 0.0
        for c in ref:
            total += c
        assert cost_nonvariational(model, traj) == total
        active_counts.update((traj.fluxes > 0.0).sum(axis=1).tolist())
        piece_counts.update(ref_pieces)
    assert len(active_counts) >= 4
    if model.interacting:
        assert 4096 in piece_counts and len(piece_counts) >= 4
    assert cost_nonvariational(model, stranded) == math.inf


@pytest.mark.parametrize("which", ["mm1", "wlan_const", "wlan_decay",
                                   "interacting"])
def test_idle_costs_match_zero_flux_costing(request, which):
    """The all-idle cost B that the batched pass returns with every
    segment's cost equals, bit for bit, the cost of the same states and
    pieces with a zero flux row; _plan_costs returns the same row next
    to the plan cost, also for the stranded plan and the plan at the
    4096-piece cap."""
    model = request.getfixturevalue(which)
    plans, _ = _mixed_plans(model)
    for traj in plans:
        P = evolve(traj).probs
        seg = (P[:-1], P[1:], traj.durations)
        pieces = _freeze_pieces(model, traj.fluxes, *seg)
        costs, idle = _segment_costs(model, traj.fluxes, *seg, pieces)
        zero, zero_idle = _segment_costs(model, np.zeros_like(traj.fluxes),
                                         *seg, pieces)
        assert idle.tolist() == zero.tolist() == zero_idle.tolist()
        assert np.all(idle > 0.0)
        total, plan_idle = _plan_costs(model, traj)
        assert total == cost_nonvariational(model, traj)
        assert plan_idle.tolist() == idle.tolist()


def test_freeze_pieces_needs_declared_lipschitz_constant(interacting):
    assert interacting.lipschitz == 2.0 * 0.5  # 2 * kappa
    undeclared = RateModel(EdgeKind.CHAIN_WITH_RESETS, interacting.forward,
                           interacting.backward, lambda_upper=1.5,
                           lambda_lower=1.0, interacting=True, name="undeclared")
    p0 = geometric(0.5, 8).probs
    p1 = np.roll(p0, 1)
    with pytest.raises(MissingBoundsError):
        _freeze_pieces(undeclared, np.r_[0.5, np.zeros(15)][None], p0[None],
                       p1[None], np.ones(1))


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
    f = rng.dirichlet(np.ones(z_max + 1), size=20)
    j = rng.integers(2, z_max, 20)
    f[np.arange(20), j] = 10.0 ** rng.uniform(-6, -4, 20)
    f[np.arange(20), j + 1] = 10.0 ** rng.uniform(-6, -4, 20)
    P.append(f / f.sum(axis=1, keepdims=True))
    s = rng.normal(size=(20, z_max + 1))
    s = 0.3 * (s - s.mean(axis=1, keepdims=True))
    feed = rng.uniform(0.1, 1.0, 20)
    s[np.arange(20), j] += feed
    s[:, 0] -= feed
    Psi.append(s)
    return np.concatenate(P), np.concatenate(Psi)


@pytest.mark.parametrize("name", ["wlan_const", "mm1", "interacting"])
def test_batched_dual_matches_single_node_oracle(request, name):
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
    vals, alphas, ok = _dual_maximize(model, P, Psi, max_iter=1)
    ref = [_dual_maximize_scalar(model, p, s, set(), max_iter=1)
           for p, s in zip(P, Psi)]
    assert np.abs(vals - [v for v, _, _ in ref]).max() <= 1e-12
    assert np.abs(alphas - np.array([a for _, a, _ in ref])).max() <= 1e-9
    assert ok.tolist() == [c for _, _, c in ref]
    assert not ok.any()


@pytest.mark.parametrize("kind", [RESETS, BIRTH_DEATH])
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
    steps = _newton_step(kind, ew, g, held)
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
        var = cost_variational(model, path)
        assert abs(var - _cost_variational_ref(model, path)) < 1e-8


def test_variational_zero_on_flow(wlan_const):
    nu = StateDistribution.from_weights(np.exp(-0.4 * np.arange(21)), 20)
    path, = flows(wlan_const, [nu], [2.0], tol=1e-10, dt_max=0.004)
    assert cost_variational(wlan_const, path) < 1e-6


def test_variational_nonnegative(wlan_const):
    times = np.array([0.0, 0.5, 1.0])
    a = geometric(0.5, 8).probs
    b = np.roll(a, 1)
    b[0] = a[0]
    b /= b.sum()
    probs = np.stack([a, b, a])
    assert cost_variational(wlan_const, SampledPath(times, probs)) >= 0.0


def test_duality_crosscheck_small(mm1, wlan_const):
    """Every node of both solves converges: the cost layer warns of
    nothing here."""
    rng = np.random.default_rng(11)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for model in (mm1, wlan_const):
            traj = _random_feasible_trajectory(model, rng, 6, 1.5)
            path = evolve(traj)
            var = cost_variational(model, path)
            rec = flux_from_path(model, path)
            nonvar = cost_nonvariational(model, rec)
            assert abs(var - nonvar) < 1e-5
            assert nonvar <= cost_nonvariational(model, traj) + 1e-8


def test_flux_recovery_on_flow_matches_drift(wlan_const):
    nu = StateDistribution.from_weights(np.exp(-0.4 * np.arange(13)), 12)
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

def test_concatenate_empty_identity(wlan_const):
    init = geometric(0.5, 8)
    a = _plan(init, RESETS, (1.0, {(0, 1): 0.1}))
    empty = _plan(evolve(a).final_distribution(), RESETS)
    assert concatenate(a, empty) is a


def test_concatenate_cost_additive(wlan_const):
    init = geometric(0.5, 8)
    a = _plan(init, RESETS, (0.5, {(0, 1): 0.2}))
    end_a = evolve(a).final_distribution()
    b = _plan(end_a, RESETS, (0.5, {(1, 0): 0.1}))
    glued = concatenate(a, b)
    ca = cost_nonvariational(wlan_const, a)
    cb = cost_nonvariational(wlan_const, b)
    assert cost_nonvariational(wlan_const, glued) == pytest.approx(
        ca + cb, abs=1e-12)


def test_concatenate_endpoint_mismatch(wlan_const):
    init = geometric(0.5, 8)
    a = _plan(init, RESETS, (0.5, {(0, 1): 0.2}))
    b = _plan(init, RESETS, (0.5, {}))  # wrong start
    with pytest.raises(EndpointMismatchError):
        concatenate(a, b)


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
    from meanfield_ldp.quasipotential import v_upper_bound
    xi = StateDistribution.from_weights(np.exp(-0.8 * np.arange(13)), 12)
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
    nu = StateDistribution.from_weights(np.exp(-0.4 * np.arange(13)), 12)
    path, = flows(wlan_const, [nu], [1.0], tol=1e-10, dt_max=0.01)
    rec = flux_from_path(wlan_const, path, refine=1)
    assert moment_inequality_check(wlan_const, rec)


def test_moment_inequality_on_constructions(wlan_decay):
    from meanfield_ldp.quasipotential import construct_delta0_to_target
    rng = np.random.default_rng(2)
    for _ in range(5):
        w = rng.dirichlet(np.ones(13) * 0.5)
        xi = StateDistribution(w, 12)
        traj = construct_delta0_to_target(wlan_decay, xi)
        assert moment_inequality_check(wlan_decay, traj)


def test_moment_inequality_is_informative(wlan_decay):
    """Contrapositive design check: a trajectory with a large terminal
    theta-moment cannot have near-zero cost, otherwise the inequality
    itself would fail."""
    from meanfield_ldp.quasipotential import construct_delta0_to_target
    xi = StateDistribution.delta(12, 12)
    traj = construct_delta0_to_target(wlan_decay, xi)
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
