"""The paper's audits, kept as test oracles.

No experiment runs them; the tests check the program's models, laws,
rate curves and plans against them:

  * :func:`verify_A2`, the decay envelope (A2) of a model's rates,
    one state at a time from the raw rate functions;
  * :func:`factorial_decay_bound`, the factorial decay of a
    stationary law;
  * :func:`sanov_inf_over_ball`, the Sanov infimum over a TV ball;
  * :func:`moment_inequality_check`, the theta-moment growth
    inequality along a plan;
  * :func:`descend_to_equilibrium`, the flow-then-connector plan into
    the equilibrium.
"""
import math
from dataclasses import dataclass

import numpy as np

from meanfield_ldp.cost import (FluxTrajectory, concatenate,
                                cost_nonvariational, evolve, flux_from_path)
from meanfield_ldp.measures import (SampledPath, StateDistribution,
                                    entropy_projection, in_class_KDelta,
                                    relative_entropy, theta_values,
                                    tv_distance)
from meanfield_ldp.mckean_vlasov import integrate
from meanfield_ldp.models import EdgeKind, RateModel
from meanfield_ldp.quasipotential import (PhaseOrderingError,
                                          _require_reset_model, choose_z0,
                                          connector)


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
            r = float(model.forward(np.array(z), xi.probs))
            low, high = lo / (z + 1), hi / (z + 1)
            if not (low - tol <= r <= high + tol):
                return A2Report(False, (z, "forward", r, low, high, i))
            if z >= 1:
                r = float(model.backward(np.array(z), xi.probs))
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
        return connector(model, nu, xi_star, choose_z0(xi_star))
    horizon = 10.0 / model.lambda_lower
    path = integrate(model, nu, horizon, tol=1e-10)
    kt = next((k for k in range(1, path.times.size)
               if in_class_KDelta(StateDistribution(path.probs[k], z_max),
                                  xi_star, delta)), None)
    if kt is None:
        raise PhaseOrderingError(
            f"flow did not reach K({delta}) within horizon {horizon}")
    flow = flux_from_path(model, SampledPath(path.times[:kt + 1],
                                             path.probs[:kt + 1]))
    entry = evolve(flow).final_distribution()
    tail = connector(model, entry, xi_star, choose_z0(xi_star))
    return concatenate(flow, tail)
