"""Mean-field limiting dynamics: integrate mu_dot = Lambda*_mu mu.

The limit ODE lives on the probability simplex over {0..z_max}.  The
integrator is a classic explicit 4th-order scheme with step doubling
for local error control; every accepted state is projected back onto
the simplex (clip-and-renormalise, with violations beyond 1e-12
aborting the step instead).  On the closed window the drift has zero
column sums, so total mass is conserved to rounding.  :func:`flows`
integrates a batch of initial laws in one stacked pass, each into a
:class:`~meanfield_ldp.measures.SampledPath` whose rows are the
accepted states, the same path type the cost layer reads.

Also here: location of the globally attracting equilibrium by damped
fixed-point iteration on the frozen-field stationary law, and readers
of the paths of one :func:`flows` call: a sampled audit of the
theta-moment convergence assumption, a monotonicity diagnostic and the
hitting time of the equilibrium neighbourhood class.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measures import (SampledPath, StateDistribution,
                       TruncationMismatchError, in_class_KDelta,
                       theta_moment, theta_values, tv_distance)
from .models import RateModel, single_particle_stationary

_MIN_DT = 1e-12
# check_B2's grid: uniform times 0, horizon/20, ..., horizon
_B2_GRID = 20
# monotone_convergence_diagnostic ignores this leading share of the nodes
_SETTLE_FRACTION = 0.2


class StiffnessError(RuntimeError):
    """Step size underflowed while controlling local error."""


class EquilibriumNotFoundError(RuntimeError):
    """Fixed-point iteration failed to reach the requested residual."""


def _rk4_step(drift: Callable[[np.ndarray], np.ndarray], p: np.ndarray,
              dt: np.ndarray) -> np.ndarray:
    k1 = drift(p)
    k2 = drift(p + 0.5 * dt * k1)
    k3 = drift(p + 0.5 * dt * k2)
    k4 = drift(p + dt * k3)
    return p + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def flows(model: RateModel, initials: list[StateDistribution],
          horizons: list[float], tol: float = 1e-9,
          dt_max: float | None = None) -> list[SampledPath]:
    """Integrate the limiting dynamics from each initial law (all on one
    window) over [0, its horizon], in lockstep as one C-contiguous stack.

    Each row has its own step size, error control and projection and
    leaves the stack at its horizon, so its path is the one it gives
    alone.  Local error is estimated by step doubling (one full step
    against two half steps) and kept below tol * dt; the step is halved
    until that holds and grown gently afterwards.  ``dt_max`` caps the
    node spacing for consumers that need a dense sampling (the cost
    evaluators see the piecewise-affine interpolant, whose own cost is
    second order in the spacing).  Raises :class:`StiffnessError` if dt
    underflows.
    """
    T = np.array(horizons, dtype=float)
    if T.shape != (len(initials),) or not (T > 0).all() or not tol > 0:
        raise ValueError("need one positive horizon per initial law and a "
                         "positive tol")
    windows = sorted({nu.z_max for nu in initials})
    if len(windows) > 1:
        raise TruncationMismatchError(f"initial laws on windows {windows}")
    drift = model.drift
    cap = dt_max if dt_max is not None else 0.25
    p = np.stack([nu.probs for nu in initials])
    t = np.zeros(T.size)
    dt = np.minimum(min(0.1, cap), T)
    eps_T = 1e-12 * np.maximum(1.0, T)
    times = [[0.0] for _ in initials]
    rows = [[nu.probs] for nu in initials]
    live = np.flatnonzero(T > eps_T)
    while live.size:
        h = np.minimum(np.minimum(dt[live], cap), T[live] - t[live])
        pl, hc = p[live], h[:, None]
        full = _rk4_step(drift, pl, hc)
        half = _rk4_step(drift, _rk4_step(drift, pl, hc / 2), hc / 2)
        err = np.abs(full - half).sum(axis=-1) / 15.0
        # a rejected step and a projection failure both halve dt
        ok = (err < tol * h) & (half.min(axis=-1) >= -1e-12)
        dt[live] = np.where(ok, np.where(err < tol * h / 32.0, h * 2.0, h),
                            h * 0.5)
        stiff = live[~ok & (dt[live] < _MIN_DT)]
        if stiff.size:
            raise StiffnessError(f"dt underflow at t={float(t[stiff[0]])!r}")
        done = live[ok]
        q = np.clip(half[ok], 0.0, None)
        p[done] = q = q / q.sum(axis=-1, keepdims=True)
        t[done] += h[ok]
        for i, ti, row in zip(done.tolist(), t[done].tolist(), q):
            times[i].append(ti)
            rows[i].append(row)
        live = live[T[live] - t[live] > eps_T[live]]
    # each last time snaps its sub-1e-12 slack to the horizon
    return [SampledPath(np.array(ts[:-1] + [Ti]), np.stack(rs))
            for ts, rs, Ti in zip(times, rows, T.tolist())]


# ---------------------------------------------------------------------------
# Equilibrium
# ---------------------------------------------------------------------------

def find_equilibrium(model: RateModel, z_max: int, tol: float = 1e-10,
                     initial: StateDistribution | None = None,
                     max_iters: int = 10000) -> StateDistribution:
    """Fixed point of the frozen-field stationary map, damped by 1/2.

    Iterates xi <- (1/2) xi + (1/2) stationary(frozen xi) until the
    stationarity residual ||Lambda*_xi xi||_1 drops below tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if initial is not None and initial.z_max != z_max:
        raise TruncationMismatchError(
            f"initial law on window {initial.z_max}, equilibrium on {z_max}")
    if not model.interacting:
        return single_particle_stationary(model, z_max)
    xi = initial or StateDistribution.delta(0, z_max)
    omega = 0.5
    for _ in range(max_iters):
        pi = single_particle_stationary(model, z_max, frozen_field=xi)
        mixed = (1 - omega) * xi.probs + omega * pi.probs
        xi = StateDistribution(mixed / mixed.sum(), z_max)
        resid = float(np.abs(model.drift(xi.probs)).sum())
        if resid < tol:
            return xi
    raise EquilibriumNotFoundError(
        f"no equilibrium at residual {tol!r} after {max_iters} iterations")


# ---------------------------------------------------------------------------
# Moment-convergence audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class B2Report:
    """Sampled audit of uniform theta-moment convergence.

    ``sup_gap[j]`` is the largest |<mu_nu(t_j), theta> - <xi*, theta>|
    over the sampled initial conditions at grid time t_j.  The verdict
    is 'consistent over the sampled initial conditions', never a proof.
    """

    grid: np.ndarray
    sup_gap: np.ndarray
    terminal_gap: float
    threshold: float
    passed: bool
    n_samples: int


def _sample_in_KM(rng: np.random.Generator, z_max: int, M: float) -> StateDistribution:
    """Random mixture of point masses thinned toward delta_0 until in K_M."""
    k = int(rng.integers(2, 6))
    support = rng.choice(z_max + 1, size=k, replace=False)
    w = rng.dirichlet(np.ones(k))
    p = np.zeros(z_max + 1)
    p[support] = w
    dist = StateDistribution(p, z_max)
    for _ in range(80):
        if theta_moment(dist) <= M:
            return dist
        p = 0.5 * p
        p[0] += 1.0 - p.sum()
        dist = StateDistribution(p, z_max)
    return StateDistribution.delta(0, z_max)


def _interpolate(path: SampledPath, t: float) -> np.ndarray:
    """The path's row at time t: the end rows as they are at or beyond
    the ends, otherwise the linear interpolant renormalised to sum 1."""
    times, probs = path.times, path.probs
    if t <= times[0]:
        return probs[0]
    if t >= times[-1]:
        return probs[-1]
    k = int(np.searchsorted(times, t) - 1)
    w = (t - times[k]) / (times[k + 1] - times[k])
    p = (1 - w) * probs[k] + w * probs[k + 1]
    return p / p.sum()


def sample_initials_in_KM(xi_star: StateDistribution, M: float,
                          n_samples: int, seed: int
                          ) -> list[StateDistribution]:
    """check_B2's n_samples initial conditions in K_M on xi_star's
    window: xi_star itself when it lies in K_M, then the j-th random law
    drawn from ``np.random.default_rng([seed, j])``."""
    if M <= 0 or n_samples <= 0:
        raise ValueError("M and n_samples must be positive")
    initials = [xi_star] if theta_moment(xi_star) <= M else []
    for j in range(n_samples - len(initials)):
        sub = np.random.default_rng([seed, j])
        initials.append(_sample_in_KM(sub, xi_star.z_max, M))
    return initials


def check_B2(xi_star: StateDistribution, paths: list[SampledPath],
             threshold: float = 1e-3) -> B2Report:
    """Track the theta-moment gap to the equilibrium ``xi_star`` along
    the flows from sampled initial conditions in K_M
    (:func:`sample_initials_in_KM`) on a uniform grid over their common
    horizon.

    The caller integrates the paths, all in one :func:`flows` call.  At
    each grid time the gap is read off the linear interpolant of each
    path between its accepted steps (``_interpolate``).
    """
    horizon = paths[0].times[-1]
    if any(path.times[-1] != horizon for path in paths):
        raise ValueError("the paths must share one horizon")
    target = theta_moment(xi_star)
    grid = np.linspace(0.0, horizon, _B2_GRID + 1)
    theta_w = theta_values(xi_star.z_max)
    gaps = [[abs(float(_interpolate(path, t) @ theta_w) - target)
             for t in grid] for path in paths]
    sup_gap = np.max(np.stack(gaps), axis=0)
    terminal = float(sup_gap[-1])
    return B2Report(grid, sup_gap, terminal, threshold,
                    terminal < threshold, len(paths))


def monotone_convergence_diagnostic(xi_star: StateDistribution,
                                    path: SampledPath) -> bool:
    """Whether tv(mu_nu(t), xi_star) is decreasing along the flow
    ``path`` after an initial settle window.  A diagnostic to report,
    not a property to assert: the flow can approach the equilibrium
    non-monotonically in TV.
    """
    dists = [tv_distance(StateDistribution(p, path.z_max), xi_star)
             for p in path.probs]
    start = int(_SETTLE_FRACTION * len(dists))
    tail = dists[start:]
    return all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))


def time_to_KDelta(xi_star: StateDistribution, path: SampledPath,
                   delta: float) -> float:
    """First node time at which the flow ``path`` is in K(delta) about
    the equilibrium ``xi_star``; inf if it never is.  The audit
    integrates over 10 / lambda_lower."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    for t, p in zip(path.times, path.probs):
        if in_class_KDelta(StateDistribution(p, path.z_max), xi_star, delta):
            return float(t)
    return math.inf
