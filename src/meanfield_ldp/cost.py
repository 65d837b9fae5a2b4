"""Trajectory costs: the finite-horizon action functional.

Two equivalent evaluations are implemented and cross-checked against
each other:

  * the control form ("non-variational"): a trajectory is described by
    per-edge mass fluxes; with h = flux/(lambda*phi) - 1 the cost is
    the time integral of sum_edges tau*(h) * lambda * phi, where
    tau*(h) = (1+h) log(1+h) - h is the convex dual of the centred
    Poisson log-MGF tau(u) = e^u - u - 1.  Within a segment the source
    mass is affine in time, and so is every rate, since rates are affine
    in the field (:class:`~meanfield_ldp.models.AffineRate`); each edge
    integrates in closed form through the x*log(x) antiderivative --
    this is what keeps the vanishing-mass endpoints (mass draining
    exactly to zero) finite and exact, where raw quadrature would blow
    up.  All segments of a plan are costed in one batched pass that also
    yields each segment's all-idle cost B; every segment's cost is
    bitwise the one it has when costed alone, and the plan cost adds
    them in order.

  * the variational form: at each time the integrand is the
    supremum over test vectors alpha of
        <alpha, phi_dot> - sum_edges (exp(alpha(z')-alpha(z)) - 1)
                                      * lambda * phi(z),
    a smooth concave maximisation with alpha(0) held at 0, in closed
    form cut by cut on birth-death edges, else by damped Newton ascent
    from alpha = 0 (which pins the evaluator at >= 0), each step one
    tridiagonal solve; the integrand is smooth on each interval of the
    piecewise-affine path, and the time integral takes m-point
    Gauss-Legendre quadrature per interval, m doubled from 2.

Convex duality makes the two agree once fluxes are recovered from the
optimal alpha via h = exp(alpha(z') - alpha(z)) - 1; that recovery is
:func:`_recover`.

Also here: explicit test-function lower bounds on the cost of reaching
a target.
"""
from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .measures import (SampledPath, StateDistribution, _one_window, _real,
                       theta_values)
from .models import EdgeKind, EdgeNotPresentError, RateModel, edge_list

_E = math.e
_EPS = np.finfo(float).eps
_ALPHA_CAP = 50.0
# Gauss-Legendre nodes per interval, tried in turn until the variational
# value changes by less than _QUADRATURE_TOL; a low start keeps flow paths
# of thousands of near-zero-cost intervals cheap
_GL_LADDER = (2, 4, 8, 16, 32, 64)
_QUADRATURE_TOL = 1e-9
# nodes per batched dual solve and segments per batched plan costing:
# bounds their arrays
_CHUNK = 256


class InfeasibleTrajectoryError(RuntimeError):
    """A flux plan drives some state mass negative."""


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


def _mass_balance(fluxes: np.ndarray, kind: EdgeKind) -> np.ndarray:
    """Net inflow into each state for every flux row, shape (S, z_max+1);
    each state's terms are added in edge-column order, as a per-edge loop would."""
    z_max = fluxes.shape[1] // 2
    fwd, back = fluxes[:, :z_max], fluxes[:, z_max:]
    v = np.zeros((fluxes.shape[0], z_max + 1))
    v[:, 1:] += fwd
    v[:, :-1] -= fwd
    v[:, 1:] -= back
    np.add.at(v, (slice(None), edge_list(kind, z_max)[1][z_max:]), back)
    return v


def evolve(traj: FluxTrajectory) -> SampledPath:
    """Integrate the flux balance; returns the path at segment endpoints.

    Mass is conserved exactly (flux balance is antisymmetric).  Any
    endpoint mass below -1e-12 raises
    :class:`InfeasibleTrajectoryError`; per-state masses are affine
    inside segments, so endpoint checks cover the interior.
    """
    steps = traj.durations[:, None] * _mass_balance(traj.fluxes, traj.kind)
    # a running sum adds in segment order; the loop that clamps every
    # endpoint at 0 runs only when that sum dips below 0
    probs = np.cumsum(np.concatenate([traj.initial.probs[None], steps]),
                      axis=0)
    if probs.min() < 0.0:
        p = traj.initial.probs
        for k, dp in enumerate(steps):
            p = p + dp
            low = p.min()
            if low < -1e-12:
                raise InfeasibleTrajectoryError(
                    f"state {int(np.argmin(p))} mass {low:.3e} after "
                    f"segment {k}")
            p = np.maximum(p, 0.0)
            probs[k + 1] = p
    times = np.concatenate([[0.0], np.cumsum(traj.durations)])
    return SampledPath(times, probs)


# ---------------------------------------------------------------------------
# Control-form (non-variational) cost, closed form, all segments at once
# ---------------------------------------------------------------------------

def _log_integral(a0: np.ndarray, a1: np.ndarray, d: np.ndarray
                  ) -> np.ndarray:
    """Integral over [0, d] of log of the affine function from a0 >= 0 to
    a1 >= 0: with m the mean of the ends and r = (a1 - a0) / (a1 + a0),

        d (log m + ((1+r) log1p(r) - (1-r) log1p(-r)) / (2r) - 1),

    which keeps its precision as r -> 0, where the x log x - x
    antiderivative cancels.  It is d log m at r = 0, -inf where both
    ends are 0, and takes 0 log 0 = 0 where one end is 0 (|r| = 1)."""
    s = a0 + a1
    r = (a1 - a0) / np.where(s > 0.0, s, 1.0)
    # log1p stays finite at r = -1 and 1, where its factor is 0
    q = np.clip(r, _EPS - 1.0, 1.0 - _EPS)
    ends = (1.0 + r) * np.log1p(q) - (1.0 - r) * np.log1p(-q)
    jensen = np.where(r != 0.0, ends / (2.0 * r), 1.0) - 1.0
    return d * (np.log(0.5 * s) + jensen)


def _segment_costs(model: RateModel, fluxes: np.ndarray, P0: np.ndarray,
                   P1: np.ndarray, durations: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Each segment's cost and all-idle cost B, shapes (S,) each.

    Segment k runs flux row k for ``durations[k]`` = d from P0[k] to
    P1[k], masses and rates affine in time between their end values:
    an edge idles at d/6 (lam0 (2 phi0 + phi1) + lam1 (phi0 + 2 phi1)),
    the integral of lam * phi, and a flux f > 0 adds
    f (d (log f - 1) - int log lam - int log phi), inf where its source
    stays empty.  The masses are >= 0, as :func:`evolve` leaves them.
    Each end's rates are ``RateWindow.at`` of its fields (the base row
    of a family without coupling).  Sums run over full rows, so each
    segment's cost is bitwise the one it has when costed alone."""
    z_max = P0.shape[1] - 1
    d = durations[:, None]
    out = np.zeros((2, durations.shape[0]))
    for k, w in enumerate(model.window(z_max)):
        # column e of family k is the edge out of state e + k
        lam0 = w.at(P0)[..., k:k + z_max]
        lam1 = w.at(P1)[..., k:k + z_max]
        a0, a1 = P0[:, k:k + z_max], P1[:, k:k + z_max]
        f = fluxes[:, k * z_max:(k + 1) * z_max]
        idle = d / 6.0 * (lam0 * (2.0 * a0 + a1) + lam1 * (a0 + 2.0 * a1))
        with np.errstate(divide="ignore", invalid="ignore"):
            run = f * (d * (np.log(f) - 1.0) - _log_integral(lam0, lam1, d)
                       - _log_integral(a0, a1, d))
        out[0] += (idle + np.where(f > 0.0, run, 0.0)).sum(axis=1)
        out[1] += idle.sum(axis=1)
    return out[0], out[1]


def _packs(items: Iterable, size: Callable[..., int]
           ) -> Iterator[tuple[list, np.ndarray]]:
    """Consecutive runs of ``items``, taken lazily, of total ``size`` at
    most ``_CHUNK`` (an item above it runs alone), each with the offsets
    that split its stacked rows back into items."""
    pack, sizes = [], []
    for item in items:
        if pack and sum(sizes) + size(item) > _CHUNK:
            yield pack, np.cumsum(sizes)[:-1]
            pack, sizes = [], []
        pack.append(item)
        sizes.append(size(item))
    if pack:
        yield pack, np.cumsum(sizes)[:-1]


def _plan_costs(model: RateModel, trajs: list[FluxTrajectory]
                ) -> list[tuple[float, np.ndarray]]:
    """:func:`cost_nonvariational` and every segment's all-idle cost B of
    each plan (all on one window), consecutive plans in one
    :func:`_segment_costs` call (:func:`_packs`)."""
    out = []
    for plans, cuts in _packs(trajs, lambda traj: traj.durations.size):
        for t in plans:
            # the kinds share every edge but the backward ones out of z >= 2
            if t.kind is not model.kind and t.fluxes[:, t.z_max + 1:].any():
                raise EdgeNotPresentError(f"plan has flux on {t.kind.value} "
                                          f"edges not in {model.kind.value}")
        P = [evolve(t).probs for t in plans]
        costs, idle = _segment_costs(
            model, np.concatenate([t.fluxes for t in plans]),
            np.concatenate([p[:-1] for p in P]),
            np.concatenate([p[1:] for p in P]),
            np.concatenate([t.durations for t in plans]))
        for row, B in zip(np.split(costs, cuts), np.split(idle, cuts)):
            total = 0.0
            for c in row.tolist():  # in segment order; an inf cost makes it inf
                total += c
            out.append((total, B))
    return out


def cost_nonvariational(model: RateModel, traj: FluxTrajectory) -> float:
    """Cost of a flux plan under the given model.

    Idle edges contribute integral of lambda*phi (the tau*(-1) = 1
    suppression cost); positive flux out of a state whose mass is
    identically zero over a positive-length interval yields the inf
    sentinel.  Masses and rates are affine along each segment, so each
    segment costs in closed form.  The segment costs, from one batched
    pass, are added in segment order.
    """
    return _plan_costs(model, [traj])[0][0]


# ---------------------------------------------------------------------------
# Variational cost: pointwise concave maximisation + Gauss-Legendre in time
# ---------------------------------------------------------------------------

_NEWTON_DAMPS = (1.0, 0.5, 0.25, 0.1, 0.03, 0.01)
_GRADIENT_DAMPS = (1.0, 0.1, 0.01, 1e-3, 1e-4)
# a node whose projected gradient falls below this is converged
_GRAD_TOL = 1e-10
# Newton or gradient steps per reset-model dual solve
_MAX_ITER = 300
# relative rounding of a dual value: a full Newton step may lower the
# value by this much, since near the optimum the value no longer
# resolves the rise that the gradient still shows
_ROUNDING = 4e-16


def _edge_weights(model: RateModel, P: np.ndarray) -> np.ndarray:
    """Edge weights lambda * phi for a (nodes, z_max+1) stack of fields,
    in flux-column order."""
    fwd, back = model.window(P.shape[1] - 1)
    return np.concatenate([(fwd.at(P) * P)[:, :-1], (back.at(P) * P)[:, 1:]],
                          axis=1)


# Psi sums to 0, so the dual value is unchanged by alpha -> alpha + c and
# alpha_0 stays pinned at 0.  With resets the Newton matrix on states
# 1..z_max is then tridiagonal (a reset edge (z, 0) adds to the diagonal
# only), and one Thomas pass, a loop over the states with vector operations
# over the nodes, solves it for every node.  The stacked kernels repeat the
# single-node float operations (per-row sums and dot products, gradient
# assembly in edge order), so every node's iterates equal those of a solve
# of that node alone within the tolerances of the single-node oracle test,
# and do not depend on which other nodes share the stack.

def _dual_value(edges: tuple[np.ndarray, np.ndarray], A: np.ndarray,
                Psi: np.ndarray, W: np.ndarray) -> np.ndarray:
    src, dst = edges
    dots = (A[:, None, :] @ Psi[:, :, None])[:, 0, 0]
    return dots - ((np.exp(A[:, dst] - A[:, src]) - 1.0) * W).sum(axis=1)


def _newton_step(ew: np.ndarray, g: np.ndarray, held: np.ndarray
                 ) -> np.ndarray:
    """Gauge-fixed projected Newton steps of a reset model for every
    node: solves H[F, F] x = g[F] on the free states F, those of 1..z_max
    not ``held`` at the box, with x = 0 elsewhere.  H is the negated Hessian
    sum_e ew_e (1_src - 1_dst)(1_src - 1_dst)^T plus the ridge
    1e-12 * (1 + trace(H) / n) on its diagonal; ew = exp(d alpha) * w are
    the (nodes, 2*z_max) edge terms in flux-column order, g the (nodes, n)
    gradients and held a (nodes, z_max) mask.  Returns (nodes, n) steps."""
    B, n = g.shape
    m = n - 1
    # row z - 1 of each (m, nodes) array belongs to state z
    fwd, back = ew[:, :m].T, ew[:, m:].T
    ridge = 1e-12 * (1.0 + 2.0 * ew.sum(axis=1) / n)
    diag = fwd + back + ridge  # edge (z-1, z) and the reset edge out of z
    diag[:-1] += fwd[1:]  # edge (z, z+1)
    off = -fwd[1:]  # H[z, z+1]
    # a held state keeps its alpha: its row becomes the identity
    free = ~held.T
    diag = np.where(free, diag, 1.0)
    off *= free[:-1] & free[1:]
    rhs = np.where(free, g[:, 1:].T, 0.0)
    for i in range(1, m):
        f = off[i - 1] / diag[i - 1]
        diag[i] -= f * off[i - 1]
        rhs[i] -= f * rhs[i - 1]
    x = np.zeros((n, B))
    x[m] = rhs[m - 1] / diag[m - 1]
    for i in range(m - 2, -1, -1):
        x[i + 1] = (rhs[i] - off[i] * x[i + 2]) / diag[i]
    return x.T


def _line_search(edges: tuple[np.ndarray, np.ndarray], A: np.ndarray,
                 cur: np.ndarray, todo: np.ndarray, direction: np.ndarray,
                 damps: tuple, Psi: np.ndarray, W: np.ndarray,
                 slack: float = 0.0) -> np.ndarray:
    """Move each node of ``todo`` by the first damped step
    damp * direction that raises its value by more than 1e-18, or, at the
    first damp, lowers it by at most slack * (1 + |value|) (A and cur are
    updated in place); returns the nodes no damping moved."""
    for damp in damps:
        if not todo.size:
            break
        cand = np.clip(A[todo] + damp * direction[todo], -_ALPHA_CAP,
                       _ALPHA_CAP)
        v = _dual_value(edges, cand, Psi[todo], W[todo])
        c = cur[todo]
        up = v > c + 1e-18
        if slack and damp == damps[0]:
            up |= v >= c - slack * (1.0 + np.abs(c))
        A[todo[up]] = cand[up]
        cur[todo[up]] = v[up]
        todo = todo[~up]
    return todo


def _dual_maximize(model: RateModel, P: np.ndarray, Psi: np.ndarray,
                   start: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each node b: max over alpha of
    <alpha, Psi[b]> - sum_e (exp(d alpha)-1) w_e(P[b]).

    P and Psi are (nodes, z_max+1) stacks of fields and slopes; alpha_0
    is pinned at 0.  Birth-death models take :func:`_birth_death_dual`.
    Reset models solve their nodes together, in chunks of at most
    ``_CHUNK``, by damped Newton ascent from ``start`` (alpha = 0 if
    None), with alpha boxed to +-50 -- the box realises the
    compact-support limit, and a coordinate parked at the box with
    favourable multiplier sign is KKT-converged and held there.  The
    full Newton step is taken also when the value falls by no more than
    rounding.  A node that no damped Newton step moves tries damped
    gradient steps; one that neither moves stays as it is.  A node is
    converged once its projected gradient falls below ``_GRAD_TOL``.
    Returns (values, alphas, converged).
    """
    if model.kind is EdgeKind.BIRTH_DEATH:
        return _birth_death_dual(_edge_weights(model, np.clip(P, 0.0, None)),
                                 Psi)
    if start is None:
        start = np.zeros(P.shape)
    out = [_dual_chunk(model, P[s:s + _CHUNK], Psi[s:s + _CHUNK],
                       start[s:s + _CHUNK].copy())
           for s in range(0, P.shape[0], _CHUNK)]
    if not out:
        return np.zeros(0), np.zeros((0, P.shape[1])), np.zeros(0, dtype=bool)
    values, alphas, converged = zip(*out)
    return (np.concatenate(values), np.concatenate(alphas),
            np.concatenate(converged))


def _birth_death_dual(W: np.ndarray, Psi: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The birth-death dual in closed form: with u = d alpha across cut y
    and S = sum_{z>y} Psi_z it is a sum over cuts of
    max_u u S - a(e^u - 1) - b(e^-u - 1), a and b the weights of the
    edges y -> y+1 and y+1 -> y, attained at e^u = (r + S) / (2a) =
    2b / (r - S) (whichever does not cancel), r = sqrt(S^2 + 4ab), with
    value u S - r + a + b.  A cut whose optimum is infinite takes
    u = +-``_ALPHA_CAP`` (compact support); the node counts as converged."""
    a, b = np.split(W, 2, axis=1)
    S = np.cumsum(Psi[:, :0:-1], axis=1)[:, ::-1]
    r = np.sqrt(S * S + 4.0 * a * b)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(S >= 0.0, np.log(r + S) - np.log(2.0 * a),
                     np.log(2.0 * b) - np.log(r - S))
    finite = np.isfinite(u)
    # infinite optima: a = 0 <= S rises, b = 0 >= S falls, a = b = S = 0 flat
    u = np.where(finite, u, _ALPHA_CAP * np.sign(S + b - a))
    # at a capped cut one weight is 0: a e^u + b e^-u = (a + b) e^-cap
    flux = np.where(finite, r, (a + b) * math.exp(-_ALPHA_CAP))
    values = (u * S - flux + a + b).sum(axis=1)
    alpha = np.pad(np.cumsum(u, axis=1), ((0, 0), (1, 0)))
    return np.maximum(values, 0.0), alpha, np.isfinite(values)


def _dual_chunk(model: RateModel, P: np.ndarray, Psi: np.ndarray,
                alpha: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    B = P.shape[0]
    m = P.shape[1] - 1
    src, dst = edges = edge_list(model.kind, m)
    W = _edge_weights(model, np.clip(P, 0.0, None))
    cur = _dual_value(edges, alpha, Psi, W)
    converged = np.zeros(B, dtype=bool)
    live = np.arange(B)
    for _ in range(_MAX_ITER):
        A, psi, w, c = alpha[live], Psi[live], W[live], cur[live]
        ew = np.exp(A[:, dst] - A[:, src]) * w
        # out-edges in, then the in-edge out, in flux-column order; g[:, 0]
        # is never read (the gauge pins alpha_0, gradient steps zero it)
        g = psi.copy()
        g[:, :m] += ew[:, :m]
        g[:, 1:] += ew[:, m:]
        g[:, 1:] -= ew[:, :m]
        # a state parked at the box with its gradient pointing out of it
        # is KKT-converged and held there
        a, gz = A[:, 1:], g[:, 1:]
        held = (((a <= -_ALPHA_CAP + 1e-12) & (gz <= 0.0))
                | ((a >= _ALPHA_CAP - 1e-12) & (gz >= 0.0)))
        done = np.where(held, 0.0, np.abs(gz)).max(axis=1) < _GRAD_TOL
        converged[live[done]] = True
        live, A, psi, w, c, ew, g, held = (
            x[~done] for x in (live, A, psi, w, c, ew, g, held))
        if not live.size:
            break
        step = _newton_step(ew, g, held)
        stuck = _line_search(edges, A, c, np.arange(live.size), step,
                             _NEWTON_DAMPS, psi, w, _ROUNDING)
        if stuck.size:
            # plain gradient steps, alpha_0 held at 0
            g[:, 0] = 0.0
            g /= np.maximum(np.abs(g).max(axis=1), 1.0)[:, None]
            _line_search(edges, A, c, stuck, g, _GRADIENT_DAMPS, psi, w)
        alpha[live] = A
        cur[live] = c
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


@functools.lru_cache(maxsize=None)
def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre nodes and weights on [0, 1]: Newton's method
    on the Legendre three-term recurrence from the roots' cosine
    estimates, weights 2 / ((1 - x^2) P_m'(x)^2) halved; they sum to 1."""
    x = -np.cos(np.pi * (np.arange(1, m + 1) - 0.25) / (m + 0.5))
    for _ in range(100):
        p_prev, p = np.ones(m), x
        for k in range(2, m + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = m * (x * p - p_prev) / (x * x - 1.0)
        dx = p / dp
        x = x - dx
        if np.abs(dx).max() <= 1e-16:
            break
    return 0.5 * (x + 1.0), 1.0 / ((1.0 - x * x) * dp * dp)


def _dual_lockstep(model: RateModel, stacks: Iterable[tuple]
                   ) -> Iterator[tuple]:
    """Yields each of the lazy per-path stacks (fields, slopes, start or
    None, *rest) with its :func:`_dual_maximize` result, the nodes of
    consecutive paths in one call (:func:`_packs`); no node's result
    depends on the nodes it shares a stack with."""
    for pack, cuts in _packs(stacks, lambda stack: stack[0].shape[0]):
        P, Psi, start = zip(*(stack[:3] for stack in pack))
        solved = _dual_maximize(
            model, np.concatenate(P), np.concatenate(Psi),
            None if start[0] is None else np.concatenate(start))
        yield from zip(pack, zip(*(np.split(x, cuts) for x in solved)))


def cost_variational(model: RateModel, paths: list[SampledPath]
                     ) -> list[float]:
    """Variational cost of each sampled path (all on one window), taken
    as piecewise affine.

    Each positive-length interval takes the m-point Gauss-Legendre rule
    (field interpolated affinely, the interval's slope kept), for m along
    ``_GL_LADDER`` until the path's value changes by less than
    ``_QUADRATURE_TOL``, the paths not yet settled in lockstep.  A warning
    names a path's last m and change (the error estimate) if its ladder
    ends unsettled or a node unconverged."""
    n = _one_window(paths) + 1
    grids = [_intervals(path.times, path.probs) for path in paths]
    total, last = [math.inf] * len(paths), [None] * len(paths)
    live = range(len(paths))
    for m in _GL_LADDER:
        x, w = _gauss_legendre(m)

        def stacks():
            for i in live:
                (k, dt, psi), probs = grids[i], paths[i].probs
                start, step = probs[k], probs[k + 1] - probs[k]
                P = start[:, None] + x[:, None] * step[:, None]  # (k, m, n)
                yield P.reshape(-1, n), np.repeat(psi, m, axis=0), None, i, dt

        for (*_, i, dt), (vals, _, ok) in _dual_lockstep(model, stacks()):
            prev, total[i] = total[i], float(dt @ (vals.reshape(-1, m) @ w))
            last[i] = m, abs(total[i] - prev), ok
        live = [i for i in live if not last[i][1] < _QUADRATURE_TOL]
    for m, change, ok in last:
        if change >= _QUADRATURE_TOL or not ok.all():
            warnings.warn(f"variational cost: Gauss-Legendre m={m}, last "
                          f"change {change:.1e}, {int(np.sum(~ok))} of "
                          f"{ok.size} nodes unconverged", RuntimeWarning)
    return [max(t, 0.0) for t in total]


def _recover(model: RateModel, paths: list[SampledPath], refine: int | None
             ) -> list[tuple[FluxTrajectory, float]]:
    """Minimal-cost flux plan consistent with each path's slopes (all
    paths on one window), and its cost.

    Flux balance alone underdetermines the per-edge split; the
    dual-optimal alpha resolves it through h = exp(d alpha) - 1, so
    the control cost of the result matches the variational cost of the
    path.  Each interval becomes one segment per refinement piece with
    fluxes exp(d alpha) * lambda * phi evaluated at the piece midpoint,
    in the edge order of the plan's flux columns.  Without ``refine``
    each path's piece count doubles, each piece's alpha starting both
    its halves, until its control cost settles; unsettled paths run in
    lockstep.
    """
    z_max = _one_window(paths)
    src, dst = edge_list(model.kind, z_max)
    plans, alphas = [None] * len(paths), [None] * len(paths)
    costs, change = [math.inf] * len(paths), [math.inf] * len(paths)
    live = list(range(len(paths)))
    ladder = [2 ** level for level in range(10)] if refine is None else [refine]
    for pieces in ladder:

        def stacks():
            for i in live:
                t2, p2 = _refine_grid(paths[i].times, paths[i].probs, pieces)
                k, dt, psi = _intervals(t2, p2)
                a = alphas[i]
                yield (np.clip(0.5 * (p2[k] + p2[k + 1]), 0.0, None), psi,
                       None if a is None else np.repeat(a, 2, axis=0), i, dt)

        for (mid, *_, i, dt), (_, alpha, ok) in _dual_lockstep(model, stacks()):
            if not ok.all():
                warnings.warn(f"flux recovery: inner ascent flagged at "
                              f"{int(np.sum(~ok))} of {ok.size} nodes",
                              RuntimeWarning)
            F = np.exp(alpha[:, dst] - alpha[:, src]) * _edge_weights(model, mid)
            p0 = np.clip(paths[i].probs[0], 0.0, None)
            init = StateDistribution(p0 / p0.sum(), z_max)
            plans[i], alphas[i] = FluxTrajectory(init, model.kind, dt, F), alpha
        for i, (c, _) in zip(live, _plan_costs(model, [plans[i] for i in live])):
            change[i], costs[i] = abs(c - costs[i]), c
        live = [i for i in live if not change[i] < 2e-7]
    return list(zip(plans, costs))


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
    z = np.arange(z_max + 1)
    return np.where(z <= 2 * n,
                    theta_values(z_max)[np.minimum(z, np.abs(2 * n - z))], 0.0)


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
    z_max = _one_window((start, target))
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


# ---------------------------------------------------------------------------
# Flux trajectory file format
# ---------------------------------------------------------------------------

def save_trajectory(traj: FluxTrajectory, path: str | Path) -> None:
    """Structured text: header (z_max, n_segments), the initial
    distribution, then per segment a duration line followed by
    z,z_prime,flux lines for the positive fluxes in sorted edge order.
    Floats round-trip exactly at 17 digits."""
    src, dst = edge_list(traj.kind, traj.z_max)
    by_edge = sorted(zip(src.tolist(), dst.tolist(), range(src.size)))
    with open(path, "w") as fh:
        fh.write(f"z_max,{traj.z_max}\n")
        fh.write(f"n_segments,{traj.durations.size}\n")
        fh.write("initial\n")
        for z in range(traj.z_max + 1):
            fh.write(f"{z},{_real(traj.initial.probs[z])}\n")
        fh.write("end_initial\n")
        for d, row in zip(traj.durations.tolist(), traj.fluxes.tolist()):
            fh.write(f"duration,{_real(d)}\n")
            for z, zp, c in by_edge:
                if row[c] > 0.0:
                    fh.write(f"{z},{zp},{_real(row[c])}\n")


def load_trajectory(path: str | Path) -> FluxTrajectory:
    """Read :func:`save_trajectory` output.  The edge kind is read off
    the backward edges out of z >= 2 -- (z, 0) for resets, (z, z-1) for
    birth-death; a file with neither loads with reset edges."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    head = [ln.split(",") for ln in lines[:2]]
    if [h[0] for h in head if len(h) == 2] != ["z_max", "n_segments"]:
        raise ValueError(f"header rows {lines[:2]}: expected z_max,<int> "
                         "and n_segments,<int>")
    z_max, n_segments = (int(h[1]) for h in head)
    it = iter(lines[2:])
    if next(it, None) != "initial":
        raise ValueError("missing initial block")
    probs = np.zeros(z_max + 1)
    seen = set()
    for ln in it:
        if ln == "end_initial":
            break
        key, val = ln.split(",")
        if key == "tail":
            raise ValueError(f"initial row {ln!r}: a distribution has no "
                             "mass beyond its window")
        z = int(key)
        if not 0 <= z <= z_max or z in seen:
            raise ValueError(f"initial row {ln!r}: state outside "
                             f"0..{z_max} or repeated")
        seen.add(z)
        probs[z] = float(val)
    else:
        raise ValueError("missing end_initial")
    initial = StateDistribution(probs, z_max)
    durations, entries = [], {}  # entries: (segment, edge) -> flux
    for ln in it:
        parts = ln.split(",")
        if parts[0] == "duration" and len(parts) == 2:
            durations.append(float(parts[1]))
        elif len(parts) != 3:
            raise ValueError(f"row {ln!r}: not duration,d or z,z',flux")
        elif not durations:
            raise ValueError("flux line before the first duration")
        else:
            key = (len(durations) - 1, (int(parts[0]), int(parts[1])))
            if key in entries:
                raise ValueError(f"row {ln!r}: edge repeated in its segment")
            entries[key] = float(parts[2])
    if len(durations) != n_segments:
        raise ValueError("segment count mismatch")
    kinds = {EdgeKind.BIRTH_DEATH if zp else EdgeKind.CHAIN_WITH_RESETS
             for _, (z, zp) in entries if z >= 2 and zp in (0, z - 1)}
    if len(kinds) > 1:
        raise ValueError("file mixes reset and birth-death edges")
    kind = kinds.pop() if kinds else EdgeKind.CHAIN_WITH_RESETS
    src, dst = edge_list(kind, z_max)
    column = {e: c for c, e in enumerate(zip(src.tolist(), dst.tolist()))}
    fluxes = np.zeros((n_segments, 2 * z_max))
    for (k, e), f in entries.items():
        if e not in column:
            raise ValueError(f"({e[0]},{e[1]}) is no edge inside the window")
        fluxes[k, column[e]] = f
    return FluxTrajectory(initial, kind, durations, fluxes)
