"""The paper's audits, kept as test oracles.

No experiment runs them; the tests check the program's models, laws,
rate curves and plans against them:

  * :func:`verify_A2`, the decay envelope (A2) of a model's rates,
    one state at a time from its affine declaration (:func:`affine_rate`);
  * :func:`factorial_decay_bound`, the factorial decay of a
    stationary law;
  * :func:`sanov_inf_over_ball`, the Sanov infimum over a TV ball;
  * :func:`moment_inequality_check`, the theta-moment growth
    inequality along a plan;
  * :func:`flux_from_path`, the plan that the duality check recovers
    from a path, without its cost;
  * :func:`descend_to_equilibrium`, the flow-then-connector plan into
    the equilibrium;
  * :func:`integrate`, the limiting flow from one law at a time, the
    per-path loop that every row of the stacked ``flows`` equals bit
    for bit, and :func:`drift_reference`, the drift through the rate
    tables, which every row of a stacked ``RateModel.drift`` equals.
"""
import math
from dataclasses import dataclass

import numpy as np

from meanfield_ldp.cost import (FluxTrajectory, _recover,
                                cost_nonvariational, evolve)
from meanfield_ldp.measures import (SampledPath, StateDistribution,
                                    entropy_projection, in_class_KDelta,
                                    relative_entropy, theta_values,
                                    tv_distance)
from meanfield_ldp.mckean_vlasov import StiffnessError, flows
from meanfield_ldp.models import AffineRate, EdgeKind, RateModel
from meanfield_ldp.quasipotential import _require_reset_model, connector


def affine_rate(rate: AffineRate, z, xi: np.ndarray):
    """An affine rate at a state or an array of states z and the field
    xi, straight from its declaration: a(z) + xi(y) B(z, y) over the
    coupling, added in the declared order."""
    z = np.asarray(z)
    r = rate.base(z)
    for y, coef in rate.coupling:
        r = r + xi[y] * coef(z)
    return r


@dataclass(frozen=True)
class A2Report:
    passed: bool
    first_violation: tuple | None  # (z, edge, value, low, high, sample_index)


def verify_A2(model: RateModel, sample_measures: list[StateDistribution],
              z_max: int = 60) -> A2Report:
    """Check the decay envelope

        lambda_lower/(z+1) <= forward(z, xi)  <= lambda_upper/(z+1)
        lambda_lower       <= backward(z, xi) <= lambda_upper

    on every edge against every sample field, within 1e-12.

    The reported violation is the first one in (sample, z) order, the
    forward edge of a state before its reset edge.
    """
    if not sample_measures:
        raise ValueError("need at least one sample measure")
    if model.kind is not EdgeKind.CHAIN_WITH_RESETS:
        return A2Report(False, (0, "edge_set", 0.0, 0.0, 0.0, -1))
    lo, hi = model.lambda_lower, model.lambda_upper
    tol = 1e-12
    for i, xi in enumerate(sample_measures):
        for z in range(z_max + 1):
            r = float(affine_rate(model.forward, z, xi.probs))
            low, high = lo / (z + 1), hi / (z + 1)
            if not (low - tol <= r <= high + tol):
                return A2Report(False, (z, "forward", r, low, high, i))
            if z >= 1:
                r = float(affine_rate(model.backward, z, xi.probs))
                if not (lo - tol <= r <= hi + tol):
                    return A2Report(False, (z, "reset", r, lo, hi, i))
    return A2Report(True, None)


def factorial_decay_bound(model: RateModel, pi: StateDistribution) -> bool:
    """Whether pi(z) <= pi(0) * (ub/lb)^z / z! holds at every window state."""
    ub, lb = model.lambda_upper, model.lambda_lower
    bound = pi[0]
    ok = True
    for z in range(1, pi.z_max + 1):
        bound *= (ub / lb) / z
        if pi[z] > bound * (1.0 + 1e-9) + 1e-15:
            ok = False
            break
    return ok


def sanov_inf_over_ball(nu: StateDistribution, center: StateDistribution,
                        delta: float) -> float:
    """inf { I(zeta || nu) : tv(zeta, center) <= delta }, on the common
    window of nu and center.

    Exactly ``0.0`` when nu lies in the ball, ``inf`` when no
    distribution in the ball is absolutely continuous with respect to
    nu, and otherwise the relative entropy of ``entropy_projection``.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if tv_distance(nu, center) <= delta:
        return 0.0
    zeta = entropy_projection(nu, center, delta)
    if zeta is None:
        return math.inf
    return relative_entropy(zeta, nu)


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
    return (sup_theta
            <= start + S + slack + model.lambda_upper * (math.e - 1.0) * T)


def flux_from_path(model: RateModel, path: SampledPath,
                   refine: int | None = None) -> FluxTrajectory:
    """The minimal-cost flux plan of a path: ``cost._recover`` without
    the plan's control cost."""
    return _recover(model, [path], refine)[0][0]


def descend_to_equilibrium(model: RateModel, xi_star: StateDistribution,
                           nu: StateDistribution,
                           delta: float) -> FluxTrajectory:
    """Ride the limiting flow from nu into K(delta), then connect into
    the equilibrium ``xi_star`` (on nu's window).

    The flow leg is realised as a flux plan recovered from the sampled
    flow (near-zero cost, integration bias below 1e-6); the final leg
    is a connector, so the total cost is dominated by the connector
    term at radius delta.
    """
    _require_reset_model(model)
    z_max = nu.z_max
    if in_class_KDelta(nu, xi_star, delta):
        return connector(nu, xi_star)
    horizon = 10.0 / model.lambda_lower
    path, = flows(model, [nu], [horizon], tol=1e-10)
    kt = next((k for k in range(1, path.times.size)
               if in_class_KDelta(StateDistribution(path.probs[k], z_max),
                                  xi_star, delta)), None)
    if kt is None:
        raise RuntimeError(
            f"flow did not reach K({delta}) within horizon {horizon}")
    flow = flux_from_path(model, SampledPath(path.times[:kt + 1],
                                             path.probs[:kt + 1]))
    entry = evolve(flow).final_distribution()
    tail = connector(entry, xi_star)
    return FluxTrajectory(
        flow.initial, flow.kind,
        np.concatenate([flow.durations, tail.durations]),
        np.concatenate([flow.fluxes, tail.fluxes]))


def drift_reference(model: RateModel, probs: np.ndarray) -> np.ndarray:
    """Mean-field drift Lambda*_xi xi of one field, through the window
    rate tables."""
    z_max = probs.shape[0] - 1
    fwd = model.forward_rates(z_max, probs) * probs
    back = model.backward_rates(z_max, probs) * probs
    v = np.zeros_like(probs)
    v -= fwd + back
    v[1:] += fwd[:-1]
    if model.kind is EdgeKind.CHAIN_WITH_RESETS:
        v[0] += back.sum()
    else:
        v[:-1] += back[1:]
    return v


_MIN_DT = 1e-12


def _project_simplex_soft(p: np.ndarray) -> np.ndarray:
    if p.min() < -1e-12:
        raise FloatingPointError("negative excursion beyond tolerance")
    q = np.clip(p, 0.0, None)
    return q / q.sum()


def _rk4_step(drift, p: np.ndarray, dt: float) -> np.ndarray:
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
