"""Trajectory costs: the finite-horizon action functional.

Two equivalent evaluations are implemented and cross-checked against
each other:

  * the control form ("non-variational"): a trajectory is described by
    per-edge mass fluxes; with h = flux/(lambda*phi) - 1 the cost is
    the time integral of sum_edges tau*(h) * lambda * phi.  Within a
    segment the source mass is affine in time and the rate is frozen
    at the segment-midpoint field, so each edge integrates in closed
    form through the x*log(x) antiderivative -- this is what keeps the
    vanishing-mass endpoints (mass draining exactly to zero) finite
    and exact, where raw quadrature would blow up.

  * the variational form: at each grid time the integrand is the
    supremum over test vectors alpha of
        <alpha, phi_dot> - sum_edges (exp(alpha(z')-alpha(z)) - 1)
                                      * lambda * phi(z),
    a smooth concave maximisation solved by damped ascent from
    alpha = 0 (which pins the evaluator at >= 0); the time integral
    uses the trapezoid rule with interval-aligned one-sided slopes and
    a Richardson refinement check.

Convex duality makes the two agree once fluxes are recovered from the
optimal alpha via h = exp(alpha(z') - alpha(z)) - 1; that recovery is
:func:`flux_from_path`.

Also here: the centred-Poisson conjugate pair tau / tau*, explicit
test-function lower bounds on the cost of reaching a target, and the
theta-moment growth inequality asserted on every constructed
trajectory.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .measures import (SampledPath, StateDistribution, theta_values,
                       tv_distance)
from .models import (EdgeKind, EdgeNotPresentError, MissingBoundsError,
                     RateModel, edge_list)

_E = math.e
_ALPHA_CAP = 50.0
# bound on the midpoint-freezing bias per segment of an interacting model
_FREEZE_TOL = 1e-7
# change of the trapezoid value that ends the variational refinement
_RICHARDSON_TOL = 1e-6


class InfeasibleTrajectoryError(RuntimeError):
    """A flux plan drives some state mass negative."""


class EndpointMismatchError(ValueError):
    """Concatenation endpoints disagree beyond tolerance."""


# ---------------------------------------------------------------------------
# Centred unit-rate Poisson log-MGF and its convex dual
# ---------------------------------------------------------------------------

def tau(u: float) -> float:
    """tau(u) = e^u - u - 1."""
    return math.expm1(u) - u


def tau_star(u: float) -> float:
    """Convex dual of tau: (u+1)log(u+1) - u on (-1, inf), 1 at -1, inf below."""
    if u < -1.0:
        return math.inf
    if u == -1.0:
        return 1.0
    return (1.0 + u) * math.log1p(u) - u


# ---------------------------------------------------------------------------
# Flux trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FluxTrajectory:
    """Piecewise-constant per-edge flux plan started from a distribution.

    Flux row k is held for ``durations[k]``.  Its 2*z_max columns follow
    :func:`~meanfield_ldp.models.edge_list`: the forward edges (z, z+1)
    for z < z_max, then the backward edges out of z = 1..z_max, which
    end where ``kind`` says.
    """

    initial: StateDistribution
    kind: EdgeKind
    durations: np.ndarray  # (S,)
    fluxes: np.ndarray  # (S, 2*z_max)

    def __post_init__(self) -> None:
        d = np.asarray(self.durations, dtype=float)
        f = np.asarray(self.fluxes, dtype=float)
        object.__setattr__(self, "durations", d)
        object.__setattr__(self, "fluxes", f)
        if d.ndim != 1 or f.shape != (d.size, 2 * self.z_max):
            raise ValueError(f"durations {d.shape} and fluxes {f.shape} do not "
                             f"fit the window z_max={self.z_max}")
        if not np.all(d > 0.0):
            raise ValueError("segment durations must be positive")
        if not np.all(np.isfinite(f) & (f >= 0.0)):
            raise ValueError("fluxes must be finite and >= 0")

    @property
    def z_max(self) -> int:
        return self.initial.z_max

    @property
    def duration(self) -> float:
        # summed in segment order, as the path times are
        return float(sum(self.durations.tolist()))

    @property
    def segments(self) -> tuple[tuple[float, np.ndarray], ...]:
        """(duration, flux row) pairs; perfbench's tracer reads their count."""
        return tuple(zip(self.durations.tolist(), self.fluxes))


@functools.lru_cache(maxsize=None)
def _backward_targets(kind: EdgeKind, z_max: int) -> np.ndarray:
    return np.array([zp for _, zp in edge_list(kind, z_max)[z_max:]], dtype=int)


def _mass_balance(fluxes: np.ndarray, kind: EdgeKind) -> np.ndarray:
    """Net inflow into each state for every flux row, shape (S, z_max+1);
    each state's terms are added in edge-column order, as a per-edge loop would."""
    z_max = fluxes.shape[1] // 2
    fwd, back = fluxes[:, :z_max], fluxes[:, z_max:]
    v = np.zeros((fluxes.shape[0], z_max + 1))
    v[:, 1:] += fwd
    v[:, :-1] -= fwd
    v[:, 1:] -= back
    np.add.at(v, (slice(None), _backward_targets(kind, z_max)), back)
    return v


def evolve(traj: FluxTrajectory) -> SampledPath:
    """Integrate the flux balance; returns the path at segment endpoints.

    Mass is conserved exactly (flux balance is antisymmetric).  Any
    endpoint mass below -1e-12 raises
    :class:`InfeasibleTrajectoryError`; per-state masses are affine
    inside segments, so endpoint checks cover the interior.
    """
    p = traj.initial.probs.copy()
    probs = [p]
    balance = _mass_balance(traj.fluxes, traj.kind)
    for k, (d, v) in enumerate(zip(traj.durations.tolist(), balance)):
        p = p + d * v
        if p.min() < -1e-12:
            raise InfeasibleTrajectoryError(f"state {int(np.argmin(p))} mass "
                                            f"{p.min():.3e} after segment {k}")
        p = np.clip(p, 0.0, None)
        probs.append(p)
    times = np.concatenate([[0.0], np.cumsum(traj.durations)])
    return SampledPath(times, np.stack(probs), tail_mass=traj.initial.tail_mass)


def concatenate(a: FluxTrajectory, b: FluxTrajectory) -> FluxTrajectory:
    """Glue two flux plans; endpoints must agree within 1e-9 in TV."""
    if a.z_max != b.z_max or a.kind is not b.kind:
        raise EndpointMismatchError("window or edge kind mismatch")
    if not b.durations.size:
        return a
    end = evolve(a).final_distribution()
    gap = tv_distance(end, b.initial)
    if gap > 1e-9:
        raise EndpointMismatchError(f"endpoint gap {gap:.3e} exceeds 1e-9")
    return FluxTrajectory(a.initial, a.kind,
                          np.concatenate([a.durations, b.durations]),
                          np.concatenate([a.fluxes, b.fluxes]))


# ---------------------------------------------------------------------------
# Control-form (non-variational) cost, closed form per segment
# ---------------------------------------------------------------------------

def _edge_cost_vec(f: np.ndarray, lam: np.ndarray, phi0: np.ndarray,
                   phi1: np.ndarray, delta: float) -> float:
    """Sum over an edge family of the closed-form integral of
    tau*(f/(lam*phi) - 1) * lam * phi over a segment where phi is affine
    and lam is frozen."""
    phi0 = np.clip(phi0, 0.0, None)
    phi1 = np.clip(phi1, 0.0, None)
    active = f > 0.0
    # idle edges: integral of lam*phi, the tau*(-1) suppression cost
    total = float(np.sum(np.where(active, 0.0,
                                  lam * delta * 0.5 * (phi0 + phi1))))
    if not np.any(active):
        return total
    if np.any(active & (phi0 <= 0.0) & (phi1 <= 0.0)):
        return math.inf
    fa = f[active]
    la = lam[active]
    a0 = phi0[active]
    a1 = phi1[active]
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


def _freeze_pieces(model: RateModel, row: np.ndarray, p0: np.ndarray,
                   p1: np.ndarray, delta: float) -> int:
    """Subdivision count holding the midpoint-freezing bias below
    ``_FREEZE_TOL``.

    Freezing the rate at the piece-midpoint field cancels the bias at
    first order, so the residual is quadratic in the within-piece TV
    variation and the count scales as a square root.
    """
    if not model.interacting:
        return 1
    if model.lipschitz is None:
        raise MissingBoundsError(f"{model.name}: interacting model declares "
                                 "no Lipschitz constant")
    dtv = 0.5 * float(np.abs(p1 - p0).sum())
    lam_scale = 2.0 * model.lambda_upper + sum(row.tolist())  # in edge order
    est = model.lipschitz * dtv * dtv * lam_scale * delta
    if est <= _FREEZE_TOL:
        return 1
    return min(4096, math.ceil(math.sqrt(est / _FREEZE_TOL)))


def _segment_cost(model: RateModel, row: np.ndarray, p0: np.ndarray,
                  p1: np.ndarray, delta: float, pieces: int = 1) -> float:
    """Cost of one constant-flux segment, optionally subdivided into
    equal pieces with the rate re-frozen at each piece midpoint (one
    stacked rate-table call covers all pieces)."""
    z_max = p0.shape[0] - 1
    lam = np.arange(pieces + 1) / pieces
    P = p0[None, :] + (p1 - p0)[None, :] * lam[:, None]
    mids = 0.5 * (P[:-1] + P[1:])
    fwd = model.forward_rates(z_max, mids)
    back = model.backward_rates(z_max, mids)
    dp = delta / pieces
    c = _edge_cost_vec(np.tile(row[:z_max], pieces),
                       fwd[:, :-1].ravel(), P[:-1, :-1].ravel(),
                       P[1:, :-1].ravel(), dp)
    if c == math.inf:
        return math.inf
    c2 = _edge_cost_vec(np.tile(row[z_max:], pieces),
                        back[:, 1:].ravel(), P[:-1, 1:].ravel(),
                        P[1:, 1:].ravel(), dp)
    if c2 == math.inf:
        return math.inf
    return c + c2


def cost_nonvariational(model: RateModel, traj: FluxTrajectory) -> float:
    """Cost of a flux plan under the given model.

    Idle edges contribute integral of lambda*phi (the tau*(-1) = 1
    suppression cost); positive flux out of a state whose mass is
    identically zero over a positive-length interval yields the inf
    sentinel.  For interacting models the rate is frozen at the
    midpoint field of each piece and segments are subdivided until the
    Lipschitz bias estimate falls below ``_FREEZE_TOL`` per segment.
    """
    # the two edge kinds share every edge but the backward ones out of z >= 2
    if traj.kind is not model.kind and traj.fluxes[:, traj.z_max + 1:].any():
        raise EdgeNotPresentError(f"plan has flux on {traj.kind.value} edges "
                                  f"not in {model.kind.value}")
    path = evolve(traj)
    total = 0.0
    for k, (d, row) in enumerate(zip(traj.durations.tolist(), traj.fluxes)):
        p0 = path.probs[k]
        p1 = path.probs[k + 1]
        pieces = _freeze_pieces(model, row, p0, p1, d)
        c = _segment_cost(model, row, p0, p1, d, pieces)
        if c == math.inf:
            return math.inf
        total += c
    return total


# ---------------------------------------------------------------------------
# Variational cost: pointwise concave maximisation + trapezoid in time
# ---------------------------------------------------------------------------

_NEWTON_DAMPS = (1.0, 0.5, 0.25, 0.1, 0.03, 0.01)
_GRADIENT_DAMPS = (1.0, 0.1, 0.01, 1e-3, 1e-4)
# nodes per batched solve: bounds the (nodes, n, n) Hessian stack
_CHUNK = 256


class _DualWorkspace:
    """Edge tables for the inner maximisation over a stack of grid nodes."""

    def __init__(self, model: RateModel, z_max: int):
        self.model = model
        self.z_max = z_max
        self.src, self.dst = np.array(model.edges(z_max)).T.copy()
        self._static_rates: tuple[np.ndarray, np.ndarray] | None = None
        if not model.interacting:
            self._static_rates = (model.forward_rates(z_max),
                                  model.backward_rates(z_max))

    def weights(self, P: np.ndarray) -> np.ndarray:
        """Edge weights lambda * phi for a (nodes, z_max+1) stack of fields."""
        if self._static_rates is not None:
            fwd_r, back_r = self._static_rates
        else:
            fwd_r = self.model.forward_rates(self.z_max, P)
            back_r = self.model.backward_rates(self.z_max, P)
        return np.concatenate([(fwd_r * P)[:, :-1], (back_r * P)[:, 1:]],
                              axis=1)


# The stacked kernels below repeat the single-node float operations in
# the same order (per-row sums and dot products, ufunc.at assembly in
# edge order, one LAPACK solve per node), so every node's iterates equal
# those of a solve of that node alone, within the tolerances of the
# single-node oracle test (a stacked matmul or batched solve need not
# round like the 1-D call under every BLAS).

def _dual_value(ws: _DualWorkspace, A: np.ndarray, Psi: np.ndarray,
                W: np.ndarray) -> np.ndarray:
    dots = (A[:, None, :] @ Psi[:, :, None])[:, 0, 0]
    return dots - ((np.exp(A[:, ws.dst] - A[:, ws.src]) - 1.0) * W).sum(axis=1)


def _line_search(ws: _DualWorkspace, A: np.ndarray, cur: np.ndarray,
                 todo: np.ndarray, direction: np.ndarray, scale: np.ndarray,
                 damps: tuple, Psi: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Move each node of ``todo`` by the first damped step
    damp * direction / scale that raises its value (A and cur are
    updated in place); returns the nodes no damping improved."""
    for damp in damps:
        if not todo.size:
            break
        cand = np.clip(A[todo] + damp * direction[todo] / scale[todo, None],
                       -_ALPHA_CAP, _ALPHA_CAP)
        v = _dual_value(ws, cand, Psi[todo], W[todo])
        up = v > cur[todo] + 1e-18
        A[todo[up]] = cand[up]
        cur[todo[up]] = v[up]
        todo = todo[~up]
    return todo


def _dual_maximize(ws: _DualWorkspace, P: np.ndarray, Psi: np.ndarray,
                   grad_tol: float = 1e-10, max_iter: int = 300
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each node b: max over alpha of
    <alpha, Psi[b]> - sum_e (exp(d alpha)-1) w_e(P[b]).

    P and Psi are (nodes, z_max+1) stacks of fields and slopes; the
    nodes are solved together, in chunks of at most ``_CHUNK``.  Each
    node runs damped Newton ascent from alpha = 0, with alpha boxed to
    +-50 -- the box realises the compact-support limit, and a coordinate
    parked at the box with favourable multiplier sign is KKT-converged.
    A node that no damped Newton step improves tries damped gradient
    steps; when those fail too it stops, converged if its projected
    gradient is below 1e-8.  Returns (values, alphas, converged).
    """
    out = [_dual_chunk(ws, P[s:s + _CHUNK], Psi[s:s + _CHUNK], grad_tol,
                       max_iter) for s in range(0, P.shape[0], _CHUNK)]
    if not out:
        return np.zeros(0), np.zeros((0, P.shape[1])), np.zeros(0, dtype=bool)
    values, alphas, converged = zip(*out)
    return (np.concatenate(values), np.concatenate(alphas),
            np.concatenate(converged))


def _dual_chunk(ws: _DualWorkspace, P: np.ndarray, Psi: np.ndarray,
                grad_tol: float, max_iter: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    B, n = P.shape
    src, dst = ws.src, ws.dst
    W = ws.weights(np.clip(P, 0.0, None))
    alpha = np.zeros((B, n))
    cur = _dual_value(ws, alpha, Psi, W)
    converged = np.zeros(B, dtype=bool)
    live = np.arange(B)
    rows = slice(None)
    for _ in range(max_iter):
        A, psi, w, c = alpha[live], Psi[live], W[live], cur[live]
        ew = np.exp(A[:, dst] - A[:, src]) * w
        g = psi.copy()
        np.add.at(g, (rows, src), ew)
        np.subtract.at(g, (rows, dst), ew)
        resid = np.where(A <= -_ALPHA_CAP + 1e-12, np.maximum(g, 0.0),
                         np.where(A >= _ALPHA_CAP - 1e-12,
                                  np.minimum(g, 0.0), g))
        rmax = np.abs(resid).max(axis=1)
        done = rmax < grad_tol
        converged[live[done]] = True
        live, A, psi, w, c, ew, g, rmax = (
            x[~done] for x in (live, A, psi, w, c, ew, g, rmax))
        if not live.size:
            break
        H = np.zeros((live.size, n, n))
        np.add.at(H, (rows, src, src), ew)
        np.add.at(H, (rows, dst, dst), ew)
        np.subtract.at(H, (rows, src, dst), ew)
        np.subtract.at(H, (rows, dst, src), ew)
        ridge = 1e-12 * (1.0 + np.trace(H, axis1=1, axis2=2) / n)
        H += ridge[:, None, None] * np.eye(n)
        try:
            step = np.linalg.solve(H, g[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # a singular node steps along its gradient
            step = g.copy()
            for i in range(live.size):
                try:
                    step[i] = np.linalg.solve(H[i], g[i])
                except np.linalg.LinAlgError:
                    pass
        ones = np.ones(live.size)
        stuck = _line_search(ws, A, c, np.arange(live.size), step, ones,
                             _NEWTON_DAMPS, psi, w)
        # |g| >= |resid| >= grad_tol here, so every stuck node goes on
        # to plain gradient steps
        dead = stuck
        if stuck.size:
            gnorm = np.maximum(np.abs(g).max(axis=1), 1.0)
            dead = _line_search(ws, A, c, stuck, g, gnorm, _GRADIENT_DAMPS,
                                psi, w)
            converged[live[dead]] = rmax[dead] < 1e-8
        alpha[live] = A
        cur[live] = c
        live = np.delete(live, dead)
    # A coordinate parked at the +cap with positive multiplier means the
    # exact sup is only approached as the test vector grows (mass appears
    # in a state no live edge can feed at this node); the capped value is
    # the compact-support approximation and vanishes under refinement for
    # feasible paths, so it is returned as the flagged best value.
    return np.maximum(cur, 0.0), alpha, converged


def _refine_grid(times: np.ndarray, probs: np.ndarray,
                 pieces: int) -> tuple[np.ndarray, np.ndarray]:
    """Split every interval into equal pieces (affine interpolation),
    keeping the original nodes so kinks stay grid-aligned."""
    if pieces <= 1:
        return times, probs
    lam = np.arange(1, pieces + 1) / pieces
    ts = times[:-1, None] + lam * (times[1:] - times[:-1])[:, None]
    ps = ((1 - lam)[:, None] * probs[:-1, None, :]
          + lam[:, None] * probs[1:, None, :])
    return (np.concatenate([times[:1], ts.ravel()]),
            np.concatenate([probs[:1], ps.reshape(-1, probs.shape[1])]))


def _intervals(times: np.ndarray, probs: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices, lengths and slopes of the positive-length grid intervals."""
    dt = np.diff(times)
    k = np.flatnonzero(dt > 0)
    return k, dt[k], (probs[k + 1] - probs[k]) / dt[k, None]


def _variational_on_grid(ws: _DualWorkspace, times: np.ndarray,
                         probs: np.ndarray) -> tuple[float, bool]:
    """Trapezoid rule over the grid; every interval contributes its two
    end nodes, each with the interval's slope, and all nodes are solved
    in one batched call."""
    k, dt, psi = _intervals(times, probs)
    vals, _, ok = _dual_maximize(ws, np.concatenate([probs[k], probs[k + 1]]),
                                 np.concatenate([psi, psi]))
    total = np.sum(0.5 * dt * (vals[:k.size] + vals[k.size:]))
    return float(total), bool(ok.all())


def cost_variational(model: RateModel, path: SampledPath) -> float:
    """Variational cost of a sampled path.

    The path must be sampled densely enough that interval slopes are
    meaningful; intervals are subdivided (affine interpolation) and the
    integral recomputed until the Richardson change drops below
    ``_RICHARDSON_TOL``.  Non-convergent inner ascents are flagged via a
    warning and the best value is returned.
    """
    times, probs = path.times, path.probs
    ws = _DualWorkspace(model, path.z_max)
    prev, ok = _variational_on_grid(ws, times, probs)
    pieces = 2
    extrap = prev
    for level in range(10):
        t2, p2 = _refine_grid(times, probs, pieces)
        nxt, ok2 = _variational_on_grid(ws, t2, p2)
        done = abs(nxt - prev) < _RICHARDSON_TOL
        # trapezoid converges at second order, so the halved-step pair
        # extrapolates one order higher
        extrap = nxt + (nxt - prev) / 3.0
        prev, ok = nxt, ok2
        if done:
            return max(extrap, 0.0)
        pieces *= 2
    if not ok:
        warnings.warn("variational ascent did not fully converge; "
                      "returning best value", RuntimeWarning)
    else:
        warnings.warn("variational refinement hit the level cap; "
                      "returning the extrapolated value", RuntimeWarning)
    return max(extrap, 0.0)


def flux_from_path(model: RateModel, path: SampledPath,
                   refine: int | None = None) -> FluxTrajectory:
    """Minimal-cost flux decomposition consistent with the path slopes.

    Flux balance alone underdetermines the per-edge split; the
    dual-optimal alpha resolves it through h = exp(d alpha) - 1, so
    the control cost of the result matches the variational cost of the
    path.  Each interval becomes one segment per refinement piece with
    fluxes exp(d alpha) * lambda * phi evaluated at the piece midpoint,
    in the edge order of the plan's flux columns.
    """
    times, probs = path.times, path.probs
    z_max = path.z_max
    ws = _DualWorkspace(model, z_max)

    def build(pieces: int) -> FluxTrajectory:
        t2, p2 = _refine_grid(times, probs, pieces)
        k, dt, psi = _intervals(t2, p2)
        mid = np.clip(0.5 * (p2[k] + p2[k + 1]), 0.0, None)
        _, alpha, ok = _dual_maximize(ws, mid, psi)
        if not ok.all():
            warnings.warn(f"flux recovery: inner ascent flagged at "
                          f"{int(np.sum(~ok))} of {ok.size} nodes",
                          RuntimeWarning)
        F = np.exp(alpha[:, ws.dst] - alpha[:, ws.src]) * ws.weights(mid)
        p0 = np.clip(probs[0], 0.0, None)
        if path.tail_mass <= 0.0:
            p0 = p0 / p0.sum()
        init = StateDistribution(p0, z_max, tail_mass=path.tail_mass)
        return FluxTrajectory(init, model.kind, dt, F)

    if refine is not None:
        return build(refine)
    # refine until the recovered control cost stabilises
    prev_traj = build(1)
    prev_cost = cost_nonvariational(model, prev_traj)
    pieces = 2
    for _ in range(9):
        cand = build(pieces)
        c = cost_nonvariational(model, cand)
        if abs(c - prev_cost) < 2e-7:
            return cand
        prev_traj, prev_cost = cand, c
        pieces *= 2
    return prev_traj


# ---------------------------------------------------------------------------
# Test-function lower bounds
# ---------------------------------------------------------------------------

def tent_linear(n: int, z_max: int) -> np.ndarray:
    """f_n(z) = z up to n, descending to 0 at 2n, zero beyond."""
    z = np.arange(z_max + 1, dtype=float)
    out = np.where(z <= n, z, np.where(z <= 2 * n, 2.0 * n - z, 0.0))
    return np.clip(out, 0.0, None)


def tent_theta(n: int, z_max: int) -> np.ndarray:
    """theta_n: theta up to n, mirrored tent down to 2n, zero beyond.

    The mirrored branch only reaches indices below n, so values on the
    window {0..z_max} suffice.
    """
    th = theta_values(z_max)
    out = np.zeros(z_max + 1)
    for zz in range(z_max + 1):
        if zz <= n:
            out[zz] = th[zz]
        elif zz <= 2 * n:
            out[zz] = th[2 * n - zz]
    return out


def testfunction_lower_bound(model: RateModel, start: StateDistribution,
                             target: StateDistribution, T: float, n: int,
                             kind: str) -> float:
    """Explicit lower bound on the cost of ANY horizon-T trajectory from
    ``start`` to ``target``.

    kind = "linear_fn": tent function f_n; every edge increment is at
    most 1, so the running-cost term is bounded by 2(e-1)*lambda_upper
    and the bound reads

        <target, f_n> - <start, f_n> - 2(e-1)*lambda_upper*T.

    kind = "theta_n": tent-capped theta; edge increments are at most
    1 + log(z+1), so the running term is controlled by the path's
    first-moment peak m.  The linear_fn bound applied at intermediate
    times caps m by S + <start, iota> + 2(e-1)*lambda_upper*T, and
    solving the resulting self-consistent inequality for S gives the
    unconditional bound returned here.  Values may be negative, in
    which case the bound is vacuous.
    """
    if n < 1 or T <= 0:
        raise ValueError("need n >= 1 and T > 0")
    if start.z_max != target.z_max:
        raise ValueError("start/target windows differ")
    z_max = start.z_max
    lam_up = model.lambda_upper
    b_lin = 2.0 * (_E - 1.0) * lam_up
    if kind == "linear_fn":
        f = tent_linear(n, z_max)
        return float(target.probs @ f - start.probs @ f) - b_lin * T
    if kind != "theta_n":
        raise ValueError(f"unknown test-function kind {kind!r}")
    g = tent_theta(n, z_max)
    gap = float(target.probs @ g - start.probs @ g)
    iota = np.arange(z_max + 1, dtype=float)
    moment_cap_const = float(start.probs @ iota) + b_lin * T
    penalty = 2.0 * lam_up * (_E * (moment_cap_const + 1.0) - 1.0) * T
    return (gap - penalty) / (1.0 + 2.0 * lam_up * _E * T)


def moment_inequality_check(model: RateModel, traj: FluxTrajectory,
                            slack: float = 1e-9) -> bool:
    """Theta-moment growth inequality along a trajectory:

        sup_t <phi_t, theta> <= <phi_0, theta> + S + slack
                                 + lambda_upper*(e-1)*T.

    Only meaningful for reset edge sets with the decay envelope; the
    inf-cost case holds trivially.
    """
    if model.kind is not EdgeKind.CHAIN_WITH_RESETS:
        raise ValueError("moment inequality requires the reset edge set")
    S = cost_nonvariational(model, traj)
    if math.isinf(S):
        return True
    path = evolve(traj)
    th = theta_values(traj.z_max)
    sup_theta = float(np.max(path.probs @ th))
    start = float(path.probs[0] @ th)
    T = traj.duration
    return sup_theta <= start + S + slack + model.lambda_upper * (_E - 1.0) * T


# ---------------------------------------------------------------------------
# Flux trajectory file format
# ---------------------------------------------------------------------------

def save_trajectory(traj: FluxTrajectory, path: str | Path) -> None:
    """Structured text: header (z_max, n_segments), the initial
    distribution, then per segment a duration line followed by
    z,z_prime,flux lines for the positive fluxes in sorted edge order.
    Floats round-trip exactly at 17 digits."""
    by_edge = sorted((e, c) for c, e in
                     enumerate(edge_list(traj.kind, traj.z_max)))
    with open(path, "w") as fh:
        fh.write(f"z_max,{traj.z_max}\n")
        fh.write(f"n_segments,{traj.durations.size}\n")
        fh.write("initial\n")
        for z in range(traj.z_max + 1):
            fh.write(f"{z},{format(float(traj.initial.probs[z]), '.17g')}\n")
        if traj.initial.tail_mass > 0.0:
            fh.write(f"tail,{format(traj.initial.tail_mass, '.17g')}\n")
        fh.write("end_initial\n")
        for d, row in zip(traj.durations.tolist(), traj.fluxes.tolist()):
            fh.write(f"duration,{format(d, '.17g')}\n")
            for (z, zp), c in by_edge:
                if row[c] > 0.0:
                    fh.write(f"{z},{zp},{format(row[c], '.17g')}\n")


def load_trajectory(path: str | Path) -> FluxTrajectory:
    """Read :func:`save_trajectory` output.  The edge kind is read off
    the backward edges out of z >= 2 -- (z, 0) for resets, (z, z-1) for
    birth-death; a file with neither loads with reset edges."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    it = iter(lines)
    z_max = int(next(it).split(",")[1])
    n_segments = int(next(it).split(",")[1])
    if next(it) != "initial":
        raise ValueError("missing initial block")
    probs = np.zeros(z_max + 1)
    tail = 0.0
    for ln in it:
        if ln == "end_initial":
            break
        key, val = ln.split(",")
        if key == "tail":
            tail = float(val)
        else:
            probs[int(key)] = float(val)
    initial = StateDistribution(probs, z_max, tail)
    durations, entries = [], []  # entries: (segment, edge, flux)
    for ln in it:
        parts = ln.split(",")
        if parts[0] == "duration":
            durations.append(float(parts[1]))
        elif not durations:
            raise ValueError("flux line before the first duration")
        else:
            entries.append((len(durations) - 1, (int(parts[0]), int(parts[1])),
                            float(parts[2])))
    if len(durations) != n_segments:
        raise ValueError("segment count mismatch")
    kinds = {EdgeKind.BIRTH_DEATH if zp else EdgeKind.CHAIN_WITH_RESETS
             for _, (z, zp), _ in entries if z >= 2 and zp in (0, z - 1)}
    if len(kinds) > 1:
        raise ValueError("file mixes reset and birth-death edges")
    kind = kinds.pop() if kinds else EdgeKind.CHAIN_WITH_RESETS
    column = {e: c for c, e in enumerate(edge_list(kind, z_max))}
    fluxes = np.zeros((n_segments, 2 * z_max))
    for k, e, f in entries:
        if e not in column:
            raise ValueError(f"({e[0]},{e[1]}) is no edge inside the window")
        fluxes[k, column[e]] = f
    return FluxTrajectory(initial, kind, durations, fluxes)
