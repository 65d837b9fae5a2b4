"""Constructive quasipotential bounds.

The quasipotential V(xi) is the cheapest cost of reaching xi from the
equilibrium over any finite horizon.  Nothing here computes V exactly:
upper bounds come from explicit piecewise unit-velocity mass-transfer
plans (optionally with every segment run at its cost-optimal speed), and
lower bounds come solely from the test-function inequalities in
:mod:`meanfield_ldp.cost`.

The two basic plans, both on the reset edge set:

  * staircase up: for each occupied state z (taken from the top down),
    carry the mass xi(z) from state 0 up to z through z unit-velocity
    steps of duration xi(z) each; total duration sum_z z*xi(z);

  * sweep down: for each z >= 1 move the mass xi*(z) straight to 0
    along the reset edge at unit velocity.

Gluing sweep-down and staircase-up connects the equilibrium to any
window distribution, with cost below the explicit per-target bound
:func:`cm_bound`.  The five-phase ``connector`` rearranges one
distribution into a nearby one at cost on the order of
eps * log(1/eps) in the tail discrepancy eps, which is what makes
small perturbations of the equilibrium cheap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .cost import (FluxTrajectory, _plan_costs, cost_nonvariational,
                   evolve, save_trajectory, testfunction_lower_bound)
from .measures import (StateDistribution, _one_window, _write_json,
                       relative_entropy, save_distribution_csv, theta_moment,
                       theta_values, tv_distance)
from .models import (EdgeKind, RateModel, is_counterexample,
                     single_particle_stationary)

_E = math.e
_MASS_FLOOR = 1e-15


class PhaseOrderingError(RuntimeError):
    """The connector's plan misses its target: a defect, not an input."""


def _require_reset_model(model: RateModel) -> None:
    if model.kind is not EdgeKind.CHAIN_WITH_RESETS:
        raise ValueError("construction requires the reset edge set")


# ---------------------------------------------------------------------------
# Elementary plans
# ---------------------------------------------------------------------------

def _staircase_up(z: int, mass: float) -> list[tuple[float, int]]:
    """Carry ``mass`` from state 0 to state z in z unit-velocity steps."""
    return [(mass, k - 1) for k in range(1, z + 1)]


def _unit_plan(initial: StateDistribution,
               moves: list[tuple[float, int]]) -> FluxTrajectory:
    """One segment per (duration, column) move, flux 1 on that column:
    column z-1 is the edge (z-1, z), column z_max+z-1 the reset (z, 0)."""
    fluxes = np.zeros((len(moves), 2 * initial.z_max))
    fluxes[np.arange(len(moves)), [c for _, c in moves]] = 1.0
    return FluxTrajectory(initial, EdgeKind.CHAIN_WITH_RESETS,
                          [d for d, _ in moves], fluxes)


def construct_delta0_to_target(xi: StateDistribution) -> FluxTrajectory:
    """Plan from the point mass at 0 to xi: staircase each xi(z) up,
    top state first; duration sum_z z*xi(z)."""
    moves: list[tuple[float, int]] = []
    for z in range(xi.z_max, 0, -1):
        m = float(xi.probs[z])
        if m > _MASS_FLOOR:
            moves.extend(_staircase_up(z, m))
    return _unit_plan(StateDistribution.delta(0, xi.z_max), moves)


def construct_equilibrium_to_delta0(
        xi_star: StateDistribution) -> FluxTrajectory:
    """Plan from xi_star to the point mass at 0: sweep each state's mass
    down the reset edge at unit velocity; duration sum_{z>=1} xi*(z)."""
    z_max = xi_star.z_max
    return _unit_plan(xi_star, [(float(xi_star.probs[z]), z_max + z - 1)
                                for z in range(1, z_max + 1)
                                if xi_star.probs[z] > _MASS_FLOOR])


def choose_z0(to: StateDistribution) -> int:
    """Smallest z0 whose tail theta-mass above z0 is below 1e-7."""
    tail = np.cumsum((theta_values(to.z_max) * to.probs)[::-1])[::-1]
    return int(np.argmax(np.append(tail[1:], 0.0) < 1e-7))


def connector(from_: StateDistribution,
              to: StateDistribution) -> FluxTrajectory:
    """Five-phase rearrangement of ``from_`` into ``to`` around the split
    z0 = ``choose_z0(to)``.

    Phases: sweep the tail above z0 to state 0; top up the state-0
    reservoir from {1..z0} if the target tail mass eps exceeds it;
    carry eps up to z0+1; distribute it along the tail to match the
    target above z0; finally reconcile states {1..z0} through state 0.
    Mass conservation keeps every intermediate mass nonnegative, so the
    one check is that the terminal state matches ``to`` within 1e-10.
    """
    z_max, z0 = _one_window((from_, to)), choose_z0(to)
    if tv_distance(from_, to) == 0.0:
        return _unit_plan(from_, [])
    moves: list[tuple[float, int]] = []
    cur = from_.probs.copy()

    def move_to_zero(z: int, m: float) -> None:
        if m > _MASS_FLOOR:
            moves.append((m, z_max + z - 1))
            cur[z] -= m
            cur[0] += m

    # phase 0: clear everything above z0
    for z in range(z0 + 1, z_max + 1):
        move_to_zero(z, float(cur[z]))

    eps = float(to.probs[z0 + 1:].sum()) if z0 < z_max else 0.0

    # phase 1: make sure state 0 holds at least eps
    deficit = eps - float(cur[0])
    for z in range(z0, 0, -1):
        if deficit <= _MASS_FLOOR:
            break
        m = min(float(cur[z]), deficit)
        move_to_zero(z, m)
        deficit -= m

    # phase 2: carry eps up to z0+1
    if eps > _MASS_FLOOR:
        moves.extend(_staircase_up(z0 + 1, eps))

    # phase 3: distribute along the tail, top state first
    for z in range(z_max, z0 + 1, -1):
        m = float(to.probs[z])
        if m > _MASS_FLOOR:
            moves.extend(_staircase_up(z, m)[z0 + 1:])

    # phase 4: reconcile {1..z0}: surpluses down first, then deficits up
    for z in range(1, z0 + 1):
        surplus = float(cur[z] - to.probs[z])
        if surplus > _MASS_FLOOR:
            move_to_zero(z, surplus)
    for z in range(1, z0 + 1):
        deficit = float(to.probs[z] - cur[z])
        if deficit > _MASS_FLOOR:
            moves.extend(_staircase_up(z, deficit))

    traj = _unit_plan(from_, moves)
    end = evolve(traj).final_distribution()
    if tv_distance(end, to) > 1e-10:
        raise PhaseOrderingError("connector endpoint misses the target")
    return traj


# ---------------------------------------------------------------------------
# Upper bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VBound:
    """Two-sided information about V at one target."""

    target: StateDistribution
    upper: float
    lower: float
    witness: FluxTrajectory
    lower_params: tuple[float, int, str]  # (T, n, kind)

    def __post_init__(self) -> None:
        if math.isfinite(self.upper) and math.isfinite(self.lower):
            if self.lower > self.upper + 1e-8:
                raise ValueError("lower bound exceeds upper bound")


def _refine_witness(traj: FluxTrajectory, B: np.ndarray) -> FluxTrajectory:
    """Run every segment at its cost-optimal speed.

    Scaling a segment's duration d by s and its flux row by 1/s moves
    the same mass, so every endpoint state is unchanged, and its cost
    becomes exactly

        c(s) = A - F log s + B s,   minimised at s* = F / B,

    where F = d * sum(row) is the mass the segment moves and B, which
    ``_plan_costs`` returns with the plan cost, is the cost of the same
    states with every edge idle, the integral of sum_e lambda_e phi_e.
    Witness segments carry one unit flux and every state of a reset
    model has a positive total jump rate, so F and B are positive.  The
    formula is exact wherever the rates are affine along the segment, as
    they are for every model whose rates are affine in the field.
    """
    d, rows = traj.durations, traj.fluxes
    s = d * rows.sum(axis=1) / B
    return FluxTrajectory(traj.initial, traj.kind, d * s, rows / s[:, None])


def v_upper_bound(model: RateModel, xi_star: StateDistribution,
                  xi: StateDistribution, refine: bool = False) -> VBound:
    """Constructive upper bound on V(xi) with a witness trajectory.

    ``xi_star`` is the equilibrium on xi's window, the start of every
    witness.  Candidates: the glued sweep-down ++ staircase-up plan
    through delta_0, and the direct connector from the equilibrium
    (cheap for targets near the equilibrium).  The cheaper witness
    wins.  ``refine`` runs each segment of the winner at its
    cost-optimal speed (:func:`_refine_witness`) and keeps the result
    only if its cost is lower, so the bound never rises; ``upper`` is
    always the cost of ``witness``.  The lower field is the best
    test-function bound at the witness horizon.
    """
    _require_reset_model(model)
    z_max = xi.z_max

    down = construct_equilibrium_to_delta0(xi_star)
    up = construct_delta0_to_target(xi)
    glued = FluxTrajectory(xi_star, down.kind,
                           np.concatenate([down.durations, up.durations]),
                           np.concatenate([down.fluxes, up.fluxes]))
    candidates = [glued, connector(xi_star, xi)]

    costs, idles = zip(*_plan_costs(model, candidates))
    k = costs.index(min(costs))
    upper, best = costs[k], candidates[k]
    if refine:
        polished = _refine_witness(best, idles[k])
        polished_cost = cost_nonvariational(model, polished)
        if polished_cost < upper:
            best, upper = polished, polished_cost

    T = max(best.duration, 1e-6)
    lower, params = -math.inf, (T, 1, "linear_fn")
    for kind in ("linear_fn", "theta_n"):
        for n in (1, 2, 4, 8, 16, min(32, z_max), z_max):
            if n < 1:
                continue
            lb = testfunction_lower_bound(model, xi_star, xi, T, n, kind)
            if lb > lower:
                lower, params = lb, (T, n, kind)
    return VBound(xi, upper, lower, best, params)


def cm_bound(model: RateModel, xi_star: StateDistribution,
             xi: StateDistribution) -> float:
    """Explicit per-target bound dominating the glued-plan cost from the
    equilibrium ``xi_star`` to ``xi`` (both on the same window).

    Staircase-up leg:
        1/e + 3 sum_z (log z / z^2 + theta(z) xi(z))
            + sum_z [ (z log z + z) xi(z)
                      + z xi(z) (log(1/lambda_lower) + 2 lambda_upper) ]
            + 2 lambda_upper sum_z z xi(z)
    plus the sweep-down leg
        sum_{z>=1} xi*(z) [ log(1/xi*(z)) + log(1/lambda_lower)
                            + 2 lambda_upper ].
    """
    _require_reset_model(model)
    lam_lo, lam_up = model.lambda_lower, model.lambda_upper
    z = np.arange(xi.z_max + 1, dtype=float)
    th = theta_values(xi.z_max)
    p = xi.probs
    logz_over_z2 = np.zeros_like(z)
    logz_over_z2[2:] = np.log(z[2:]) / z[2:] ** 2
    leg_up = (1.0 / _E
              + 3.0 * float(logz_over_z2.sum() + th @ p)
              + float((th + z) @ p)
              + float((z * p).sum()) * (math.log(1.0 / lam_lo) + 2.0 * lam_up)
              + 2.0 * lam_up * float((z * p).sum()))
    q = xi_star.probs[1:]
    pos = q > 0
    leg_down = float(np.sum(q[pos] * (-np.log(q[pos])
                                      + math.log(1.0 / lam_lo) + 2.0 * lam_up)))
    return leg_up + leg_down


# ---------------------------------------------------------------------------
# Counterexample report
# ---------------------------------------------------------------------------

def heavy_tail_target(K: int) -> StateDistribution:
    """xi(z) proportional to 1/(z^2 log^2 z) on {2..K}, normalised."""
    if K < 3:
        raise ValueError("K must be at least 3")
    z = np.arange(K + 1, dtype=float)
    w = np.zeros(K + 1)
    w[2:] = 1.0 / (z[2:] ** 2 * np.log(z[2:]) ** 2)
    return StateDistribution.from_weights(w)


@dataclass(frozen=True)
class CounterexampleRow:
    K: int
    entropy: float
    theta_moment: float
    lb_linear: float
    lb_theta: float
    best_n: int


@dataclass(frozen=True)
class CounterexampleReport:
    model_name: str
    T: float
    rows: tuple[CounterexampleRow, ...]
    divergence_ratio: float  # theta-moment ratio, largest over smallest K


def counterexample_report(model: RateModel, K_list: Sequence[int],
                          T: float = 1.0) -> CounterexampleReport:
    """Entropy-versus-lower-bound table over the truncation family.

    For each K the target is the normalised 1/(z^2 log^2 z) law
    truncated at K; the relative entropy to the stationary law
    stabilises in K while the theta-moment (and with it the
    theta-tent lower bound on horizon-T costs) keeps growing.
    """
    if not is_counterexample(model):
        raise ValueError("counterexample models are non-interacting with a "
                         "constant forward rate (mm1, wlan_const)")
    rows: list[CounterexampleRow] = []
    for K in K_list:
        target = heavy_tail_target(K)
        xi_star = single_particle_stationary(model, K)
        ent = relative_entropy(target, xi_star)
        lb_lin = -math.inf
        lb_th, best_n = -math.inf, 1
        n_grid = sorted(set(list(range(1, min(K, 16) + 1))
                            + [K // 8, K // 4, K // 2, 3 * K // 4, K]))
        for n in n_grid:
            lb_lin = max(lb_lin, testfunction_lower_bound(
                model, xi_star, target, T, n, "linear_fn"))
            v = testfunction_lower_bound(model, xi_star, target, T, n, "theta_n")
            if v > lb_th:
                lb_th, best_n = v, n
        rows.append(CounterexampleRow(K, ent, theta_moment(target),
                                      lb_lin, lb_th, best_n))
    ratio = rows[-1].theta_moment / rows[0].theta_moment
    return CounterexampleReport(model.name, T, tuple(rows), ratio)


# ---------------------------------------------------------------------------
# VBound export
# ---------------------------------------------------------------------------

def save_trajectory_and_bound(bound: VBound, out_dir: str | Path,
                              target_file: str, witness_file: str,
                              bound_file: str) -> None:
    """Write the target distribution, the witness plan, and the bound."""
    out = Path(out_dir)
    save_distribution_csv(bound.target, out / target_file)
    save_trajectory(bound.witness, out / witness_file)
    T, n, kind = bound.lower_params
    _write_json(out / bound_file, {
        "target_file": target_file,
        "upper": bound.upper,
        "upper_note": "upper bound (unverified gap)",
        "lower": bound.lower,
        "witness_file": witness_file,
        "lower_params": {"T": T, "n": n, "kind": kind},
    })
