"""Mean-field limiting dynamics: integrate mu_dot = Lambda*_mu mu.

The limit ODE lives on the probability simplex over {0..z_max}.  The
integrator is a classic explicit 4th-order scheme with step doubling
for local error control; every accepted state is projected back onto
the simplex (clip-and-renormalise, with violations beyond 1e-12
aborting the step instead).  On the closed window the drift has zero
column sums, so total mass is conserved to rounding.  The solution is
a :class:`~meanfield_ldp.measures.SampledPath` whose rows are the
accepted states, the same path type the cost layer reads.

Also here: location of the globally attracting equilibrium by damped
fixed-point iteration on the frozen-field stationary law, a sampled
audit of the theta-moment convergence assumption (the sampled initial
conditions are integrated one after another), and the hitting time of
the equilibrium neighbourhood class.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measures import (SampledPath, StateDistribution, in_class_KDelta,
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


def _project_simplex_soft(p: np.ndarray) -> np.ndarray:
    if p.min() < -1e-12:
        raise FloatingPointError("negative excursion beyond tolerance")
    q = np.clip(p, 0.0, None)
    return q / q.sum()


def _rk4_step(drift: Callable[[np.ndarray], np.ndarray], p: np.ndarray,
              dt: float) -> np.ndarray:
    k1 = drift(p)
    k2 = drift(p + 0.5 * dt * k1)
    k3 = drift(p + 0.5 * dt * k2)
    k4 = drift(p + dt * k3)
    return p + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def integrate(model: RateModel, nu: StateDistribution, T: float,
              tol: float = 1e-9, dt_max: float | None = None) -> SampledPath:
    """Integrate the limiting dynamics from nu over [0, T].

    Local error is estimated by step doubling (one full step against
    two half steps) and kept below tol * dt; the step is halved until
    that holds and grown gently afterwards.  ``dt_max`` caps the node
    spacing for consumers that need a dense sampling (the cost
    evaluators see the piecewise-affine interpolant, whose own cost is
    second order in the spacing).  Raises :class:`StiffnessError` if
    dt underflows.
    """
    if T <= 0 or tol <= 0:
        raise ValueError("T and tol must be positive")
    drift = model.drift
    t, p = 0.0, nu.probs.copy()
    times = [0.0]
    rows = [p]
    cap = dt_max if dt_max is not None else 0.25
    dt = min(0.1, cap, T)
    eps_T = 1e-12 * max(1.0, T)
    while T - t > eps_T:
        dt = min(dt, cap, T - t)
        while True:
            full = _rk4_step(drift, p, dt)
            half = _rk4_step(drift, _rk4_step(drift, p, dt / 2), dt / 2)
            err = float(np.abs(full - half).sum()) / 15.0
            if err < tol * dt:
                break
            dt *= 0.5
            if dt < _MIN_DT:
                raise StiffnessError(f"dt underflow at t={t!r}")
        try:
            p = _project_simplex_soft(half)
        except FloatingPointError:
            dt *= 0.5
            if dt < _MIN_DT:
                raise StiffnessError(f"projection failure at t={t!r}")
            continue
        t += dt
        times.append(t)
        rows.append(p)
        if err < tol * dt / 32.0:
            dt *= 2.0
    times[-1] = T  # snap the sub-1e-12 terminal slack
    return SampledPath(np.array(times), np.stack(rows))


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


def check_B2(model: RateModel, xi_star: StateDistribution, M: float,
             horizon: float, n_samples: int, seed: int,
             threshold: float = 1e-3) -> B2Report:
    """Integrate from sampled initial conditions in K_M and track the
    theta-moment gap to the equilibrium ``xi_star`` on a uniform grid;
    the initial conditions live on xi_star's window.

    The initial conditions are integrated one after another.  At each
    grid time the gap is read off the linear interpolant of the
    integrated path between its accepted steps (``_interpolate``).
    """
    if M <= 0:
        raise ValueError("M must be positive")
    z_max = xi_star.z_max
    target = theta_moment(xi_star)
    grid = np.linspace(0.0, horizon, _B2_GRID + 1)
    theta_w = theta_values(z_max)

    initials: list[StateDistribution] = []
    if theta_moment(xi_star) <= M:
        initials.append(xi_star)
    for j in range(n_samples - len(initials)):
        sub = np.random.default_rng([seed, j])
        initials.append(_sample_in_KM(sub, z_max, M))

    gaps = []
    for nu in initials:
        path = integrate(model, nu, horizon, tol=1e-9)
        gaps.append([abs(float(_interpolate(path, t) @ theta_w) - target)
                     for t in grid])
    sup_gap = np.max(np.stack(gaps), axis=0)
    terminal = float(sup_gap[-1])
    return B2Report(grid, sup_gap, terminal, threshold,
                    terminal < threshold, len(initials))


def monotone_convergence_diagnostic(model: RateModel,
                                    xi_star: StateDistribution,
                                    nu: StateDistribution,
                                    horizon: float) -> bool:
    """Whether tv(mu_nu(t), xi_star) is decreasing after an initial
    settle window.  A diagnostic to report, not a property to assert:
    the flow can approach the equilibrium non-monotonically in TV.
    """
    path = integrate(model, nu, horizon, tol=1e-9)
    dists = [tv_distance(StateDistribution(p, nu.z_max), xi_star)
             for p in path.probs]
    start = int(_SETTLE_FRACTION * len(dists))
    tail = dists[start:]
    return all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))


def time_to_KDelta(model: RateModel, xi_star: StateDistribution,
                   nu: StateDistribution, delta: float,
                   horizon: float | None = None) -> float:
    """First sampled time at which the flow from nu enters K(delta)
    about the equilibrium ``xi_star``; inf if missed."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    z_max = nu.z_max
    if in_class_KDelta(nu, xi_star, delta):
        return 0.0
    if horizon is None:
        horizon = 10.0 / model.lambda_lower
    path = integrate(model, nu, horizon, tol=1e-9)
    for t, p in zip(path.times, path.probs):
        if in_class_KDelta(StateDistribution(p, z_max), xi_star, delta):
            return float(t)
    return math.inf
