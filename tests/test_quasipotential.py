import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audits import descend_to_equilibrium, moment_inequality_check
from meanfield_ldp.measures import (StateDistribution,
                                    TruncationMismatchError, theta_moment,
                                    theta_values, tv_distance)
from meanfield_ldp.mckean_vlasov import find_equilibrium
from meanfield_ldp.models import (single_particle_stationary,
                                  wlan_const_model)
from meanfield_ldp import quasipotential
from meanfield_ldp.cli import _corpus_targets
from meanfield_ldp.cost import (FluxTrajectory, _plan_costs, _segment_costs,
                                cost_nonvariational, evolve,
                                testfunction_lower_bound)
from meanfield_ldp.quasipotential import (_refine_witness, cm_bound, connector,
                                          construct_delta0_to_target,
                                          construct_equilibrium_to_delta0,
                                          counterexample_report,
                                          heavy_tail_target,
                                          save_trajectory_and_bound,
                                          v_upper_bound)


# -- staircase-up construction ------------------------------------------------

def test_delta0_to_delta0_empty(wlan_decay):
    traj = construct_delta0_to_target(StateDistribution.delta(0, 10))
    assert traj.durations.size == 0
    assert cost_nonvariational(wlan_decay, traj) == 0.0


def test_delta0_to_delta2(wlan_decay):
    traj = construct_delta0_to_target(StateDistribution.delta(2, 10))
    assert traj.duration == pytest.approx(2.0, abs=1e-15)
    end = evolve(traj).final_distribution()
    assert tv_distance(end, StateDistribution.delta(2, 10)) < 1e-12


def test_delta0_to_geometric_cost_below_cm(wlan_decay):
    xi = StateDistribution.from_weights(0.5 ** np.arange(41), 40)
    traj = construct_delta0_to_target(xi)
    end = evolve(traj).final_distribution()
    assert tv_distance(end, xi) < 1e-12
    assert traj.duration == pytest.approx(
        float(np.arange(41) @ xi.probs), abs=1e-12)
    assert cost_nonvariational(wlan_decay, traj) <= cm_bound(
        wlan_decay, find_equilibrium(wlan_decay, 40), xi)


# -- sweep-down construction ----------------------------------------------------

def test_equilibrium_to_delta0_empty(wlan_decay):
    traj = construct_equilibrium_to_delta0(StateDistribution.delta(0, 10))
    assert traj.durations.size == 0


def test_equilibrium_to_delta0_geometric(wlan_decay):
    xi = StateDistribution.from_weights(0.5 ** np.arange(31), 30)
    traj = construct_equilibrium_to_delta0(xi)
    end = evolve(traj).final_distribution()
    assert tv_distance(end, StateDistribution.delta(0, 30)) < 1e-12
    # proof-style bound: sum xi(z) [log(1/xi(z)) + log(1/lब) + 2 ub]
    lam_lo, lam_up = wlan_decay.lambda_lower, wlan_decay.lambda_upper
    q = xi.probs[1:]
    bound = float(np.sum(q * (-np.log(q) + math.log(1 / lam_lo) + 2 * lam_up)))
    assert cost_nonvariational(wlan_decay, traj) <= bound + 1e-12


# -- connector ---------------------------------------------------------------------

def test_connector_identity(wlan_decay):
    xi_star = find_equilibrium(wlan_decay, 25)
    traj = connector(xi_star, xi_star)
    assert cost_nonvariational(wlan_decay, traj) < 1e-8


def test_connector_and_lower_bound_take_one_window(wlan_decay):
    a, b = StateDistribution.delta(0, 5), StateDistribution.delta(1, 6)
    with pytest.raises(TruncationMismatchError, match=r"\[5, 6\]"):
        connector(a, b)
    with pytest.raises(TruncationMismatchError, match=r"\[5, 6\]"):
        testfunction_lower_bound(wlan_decay, a, b, 1.0, 2, "theta_n")


def test_connector_small_perturbation(wlan_decay):
    xi_star = find_equilibrium(wlan_decay, 25)
    p = xi_star.probs.copy()
    eps = 1e-3
    p[6] += eps
    p[0] -= eps
    target = StateDistribution(p, 25)
    assert tv_distance(target, xi_star) == pytest.approx(eps, abs=1e-12)
    traj = connector(xi_star, target)
    end = evolve(traj).final_distribution()
    assert tv_distance(end, target) < 1e-10
    assert cost_nonvariational(wlan_decay, traj) < 0.05


def test_connector_scaling(wlan_decay):
    """cost <= C * eps * log(1/eps) with one constant across the sweep."""
    xi_star = find_equilibrium(wlan_decay, 25)
    th = theta_values(25)
    base = theta_moment(xi_star)
    consts = []
    for eps in (1e-1, 1e-2, 1e-3):
        w = eps / (th[8] - base)
        p = (1 - w) * xi_star.probs
        p[8] += w
        target = StateDistribution(p, 25)
        gap = abs(theta_moment(target) - theta_moment(xi_star))
        assert gap == pytest.approx(eps, rel=1e-6)
        traj = connector(xi_star, target)
        cost = cost_nonvariational(wlan_decay, traj)
        consts.append(cost / (eps * math.log(1.0 / eps)))
    assert all(c > 0 for c in consts)
    assert max(consts) < 20.0  # single moderate constant covers the sweep


def test_connector_interacting(interacting):
    xi_star = find_equilibrium(interacting, 25)
    p = xi_star.probs.copy()
    p[5] += 5e-3
    p[1] -= 5e-3
    target = StateDistribution(p, 25)
    traj = connector(xi_star, target)
    end = evolve(traj).final_distribution()
    assert tv_distance(end, target) < 1e-10


def _random_law(kind, z_max, rng):
    """A law on {0..z_max}: Dirichlet, a few point masses off state 0, a
    geometric tail falling to 1e-1..1e-40 at z_max with holes, or a
    Dirichlet head with masses down to 1e-40 above it."""
    n = z_max + 1
    if kind == "dirichlet":
        w = rng.dirichlet(np.full(n, rng.uniform(0.05, 3.0)))
    elif kind == "points":
        w = np.zeros(n)
        w[1 + rng.choice(z_max, min(z_max, rng.integers(1, 4)),
                         replace=False)] = 1.0
    elif kind == "holes":
        w = 10.0 ** (-rng.uniform(1.0, 40.0) * np.arange(n) / z_max)
        holes = rng.random(n) < 0.3
        holes[rng.integers(n)] = False
        w[holes] = 0.0
    else:
        w = rng.dirichlet(np.ones(n))
        k = rng.integers(n)
        w[k + 1:] = 10.0 ** rng.uniform(-40.0, -8.0, z_max - k)
    return StateDistribution.from_weights(w, z_max)


_LAWS = st.sampled_from(["dirichlet", "points", "holes", "tiny"])


@st.composite
def _pairs(draw):
    z_max = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return (_random_law(draw(_LAWS), z_max, rng),
            _random_law(draw(_LAWS), z_max, rng))


@settings(max_examples=300, deadline=None)
@given(_pairs())
def test_witness_plans_reach_any_target(pair):
    """The connector never raises and ends within 1e-10 TV of its
    target, and the glued candidate of v_upper_bound, its two legs
    stacked, ends within 1e-9 of its target."""
    from_, to = pair
    end = evolve(connector(from_, to)).final_distribution()
    assert tv_distance(end, to) <= 1e-10
    candidates = []

    def spy(model, trajs):
        candidates.extend(trajs)
        return _plan_costs(model, trajs)

    with mock.patch.object(quasipotential, "_plan_costs", spy):
        v_upper_bound(wlan_const_model(1.0, 1.0), from_, to)
    end = evolve(candidates[0]).final_distribution()
    assert tv_distance(end, to) <= 1e-9


# -- descent ----------------------------------------------------------------------------

def test_descend_from_equilibrium_is_cheap(interacting):
    xi_star = find_equilibrium(interacting, 25)
    traj = descend_to_equilibrium(interacting, xi_star, xi_star, 0.05)
    assert cost_nonvariational(interacting, traj) < 1e-8


def test_descend_from_delta0(interacting):
    xi_star = find_equilibrium(interacting, 25)
    traj = descend_to_equilibrium(interacting, xi_star,
                                  StateDistribution.delta(0, 25), 0.05)
    end = evolve(traj).final_distribution()
    assert tv_distance(end, xi_star) < 1e-8
    # total cost is dominated by the connector term at radius 0.05; the
    # flow leg contributes < 1e-6
    assert cost_nonvariational(interacting, traj) < 0.5


def test_descend_delta_sweep_bounded(interacting):
    xi_star = find_equilibrium(interacting, 25)
    costs = [cost_nonvariational(
        interacting, descend_to_equilibrium(
            interacting, xi_star, StateDistribution.delta(0, 25), d))
        for d in (0.1, 0.05, 0.02)]
    # entering a smaller neighbourhood costs less on the flow leg but
    # more on the connector; the total stays bounded across the sweep
    assert all(c < 1.0 for c in costs)


# -- upper bounds ----------------------------------------------------------------------------

def test_v_upper_at_equilibrium(wlan_decay):
    xi_star = find_equilibrium(wlan_decay, 30)
    bound = v_upper_bound(wlan_decay, xi_star, xi_star)
    assert bound.upper < 1e-6
    assert bound.lower <= bound.upper + 1e-8


def test_v_upper_below_cm_on_geometric(wlan_decay):
    xi = StateDistribution.from_weights(0.5 ** np.arange(41), 40)
    xi_star = find_equilibrium(wlan_decay, 40)
    bound = v_upper_bound(wlan_decay, xi_star, xi)
    assert bound.upper <= cm_bound(wlan_decay, xi_star, xi)
    end = evolve(bound.witness).final_distribution()
    assert tv_distance(end, xi) < 1e-10


def test_glued_plan_beats_the_connector():
    """The glued sweep-down ++ staircase-up candidate of v_upper_bound
    earns its place: on the first seed-3 corpus target of a slow-forward,
    fast-reset chain it costs 22.51 against the connector's 23.98."""
    model = wlan_const_model(0.5, 3.0)
    xi_star = find_equilibrium(model, 20)
    xi, = _corpus_targets(xi_star, 20.0, 1, seed=3)
    direct = connector(xi_star, xi)
    assert v_upper_bound(model, xi_star, xi).upper \
        < cost_nonvariational(model, direct)


def _refine_recomputing_B(model, traj):
    """The refine with B recomputed: evolve the plan and cost its states
    with a zero flux row."""
    P = evolve(traj).probs
    B, _ = _segment_costs(model, np.zeros_like(traj.fluxes), P[:-1], P[1:],
                          traj.durations)
    return _refine_witness(traj, B)


def test_refine_takes_the_winners_idle_cost():
    """v_upper_bound refines the winner with the B of the winner: where
    the glued plan beats the connector, the refined bound is the refine
    of the glued plan with B recomputed from scratch."""
    model = wlan_const_model(0.5, 3.0)
    xi_star = find_equilibrium(model, 20)
    xi, = _corpus_targets(xi_star, 20.0, 1, seed=3)
    down = construct_equilibrium_to_delta0(xi_star)
    up = construct_delta0_to_target(xi)
    glued = FluxTrajectory(xi_star, down.kind,
                           np.concatenate([down.durations, up.durations]),
                           np.concatenate([down.fluxes, up.fluxes]))
    plain = v_upper_bound(model, xi_star, xi)
    assert plain.upper == cost_nonvariational(model, glued)
    polished = _refine_recomputing_B(model, glued)
    expected = cost_nonvariational(model, polished)
    assert expected < plain.upper
    refined = v_upper_bound(model, xi_star, xi, refine=True)
    assert refined.upper == expected
    assert np.array_equal(refined.witness.durations, polished.durations)
    assert np.array_equal(refined.witness.fluxes, polished.fluxes)


def test_refine_never_increases(wlan_decay):
    xi = StateDistribution.from_weights(np.exp(-0.7 * np.arange(31)), 30)
    xi_star = find_equilibrium(wlan_decay, 30)
    plain = v_upper_bound(wlan_decay, xi_star, xi, refine=False)
    refined = v_upper_bound(wlan_decay, xi_star, xi, refine=True)
    assert refined.upper <= plain.upper + 1e-12


def _cost_at_speed(model, d, row, p0, p1, t):
    """Cost of one segment run over t times its duration at flux row / t."""
    return _segment_costs(model, row[None] / t, p0[None], p1[None],
                          np.array([d * t]))[0][0]


@pytest.mark.parametrize("which, slack", [("wlan_decay", 0.0),
                                          ("wlan_const", 0.0),
                                          ("interacting", 0.0)])
def test_refined_segments_run_at_their_optimal_speed(request, which, slack):
    """Every refined segment sits at the minimum of its cost over speeds:
    running it 0.1% faster or slower costs no less."""
    model = request.getfixturevalue(which)
    xi_star = find_equilibrium(model, 20)
    for xi in _corpus_targets(xi_star, 5.0, 3, seed=5):
        witness = v_upper_bound(model, xi_star, xi).witness
        refined = _refine_witness(witness, _plan_costs(model, [witness])[0][1])
        path = evolve(refined)
        for k, (d, row) in enumerate(zip(refined.durations, refined.fluxes)):
            seg = (model, d, row, path.probs[k], path.probs[k + 1])
            at_optimum = _cost_at_speed(*seg, 1.0)
            for t in (1.0 - 1e-3, 1.0 + 1e-3):
                assert _cost_at_speed(*seg, t) >= at_optimum - slack


@pytest.mark.parametrize("refine", [False, True])
def test_upper_is_the_witness_cost(wlan_decay, interacting, refine):
    for model in (wlan_decay, interacting):
        xi_star = find_equilibrium(model, 20)
        for xi in _corpus_targets(xi_star, 5.0, 3, seed=5):
            bound = v_upper_bound(model, xi_star, xi, refine=refine)
            assert bound.upper == cost_nonvariational(model, bound.witness)


def test_witnesses_satisfy_moment_inequality(wlan_decay, interacting):
    rng = np.random.default_rng(3)
    for model in (wlan_decay, interacting):
        xi_star = find_equilibrium(model, 25)
        for _ in range(3):
            w = rng.dirichlet(np.ones(26) * 0.7)
            xi = StateDistribution(w, 25)
            bound = v_upper_bound(model, xi_star, xi)
            assert moment_inequality_check(model, bound.witness)


def test_level_set_inclusion_audit(wlan_decay):
    """Targets with a finite witness bound satisfy the theta-moment
    inequality <xi, theta> <= <xi*, theta> + s + 1 + ub (e-1) T."""
    xi_star = find_equilibrium(wlan_decay, 25)
    base = theta_moment(xi_star)
    rng = np.random.default_rng(4)
    for _ in range(8):
        w = rng.dirichlet(np.ones(26) * 0.6)
        xi = StateDistribution(w, 25)
        bound = v_upper_bound(wlan_decay, xi_star, xi)
        s = bound.upper
    # &
        T = bound.witness.duration
        rhs = base + s + 1.0 + wlan_decay.lambda_upper * (math.e - 1.0) * T
        assert theta_moment(xi) <= rhs + 1e-9


# -- cm bound ----------------------------------------------------------------------------------

def test_cm_bound_at_delta0(wlan_decay):
    val = cm_bound(wlan_decay, find_equilibrium(wlan_decay, 30),
                   StateDistribution.delta(0, 30))
    assert val >= 0.0


def test_cm_bound_delta2_hand_evaluation():
    """Direct scalar evaluation of the bound at a point mass, unit rates."""
    from meanfield_ldp.models import wlan_decay_model
    model = wlan_decay_model(1.0, 1.0)
    z_max = 30
    xi = StateDistribution.delta(2, z_max)
    # staircase leg at xi = delta_2: theta(2) = 2 log 2, iota = 2
    log_sum = sum(math.log(z) / z ** 2 for z in range(2, z_max + 1))
    expect_up = (1.0 / math.e + 3.0 * (log_sum + 2 * math.log(2))
                 + (2 * math.log(2) + 2.0)
                 + 2.0 * (math.log(1.0) + 2.0)
                 + 2.0 * 2.0)
    xi_star = single_particle_stationary(model, z_max)
    q = xi_star.probs[1:]
    q = q[q > 0]
    expect_down = float(np.sum(q * (-np.log(q) + 0.0 + 2.0)))
    assert cm_bound(model, find_equilibrium(model, z_max), xi) == \
        pytest.approx(expect_up + expect_down, rel=1e-12)


def test_cm_dominates_constructions_on_corpus(wlan_decay, interacting):
    rng = np.random.default_rng(9)
    for model in (wlan_decay, interacting):
        xi_star = find_equilibrium(model, 20)
        for _ in range(5):
            w = rng.dirichlet(np.ones(21) * 0.8)
            xi = StateDistribution(w, 20)
            bound = v_upper_bound(model, xi_star, xi)
            assert bound.upper <= cm_bound(model, xi_star, xi) + 1e-10


# -- counterexample report -------------------------------------------------------------------------

def test_heavy_tail_target_shape():
    t = heavy_tail_target(50)
    assert t.probs[0] == 0.0 and t.probs[1] == 0.0
    assert t.probs[2] > 0.5  # the bulk sits at z = 2
    assert abs(t.probs.sum() - 1.0) < 1e-12


def test_counterexample_report_mm1(mm1):
    report = counterexample_report(mm1, [50, 200, 800], T=1.0)
    rows = {r.K: r for r in report.rows}
    # entropy stabilises in K
    assert abs(rows[800].entropy - rows[200].entropy) < 0.05
    # the theta-tent bound keeps growing with the truncation
    assert rows[50].lb_theta < rows[200].lb_theta < rows[800].lb_theta
    assert report.divergence_ratio > 1.0


def test_counterexample_small_K_vacuous(mm1):
    report = counterexample_report(mm1, [10], T=1.0)
    assert report.rows[0].lb_theta <= 0.0
    assert report.rows[0].lb_linear <= 0.0


def test_counterexample_rejects_interacting(interacting):
    with pytest.raises(ValueError):
        counterexample_report(interacting, [50])


# -- export -------------------------------------------------------------------------------------------

def test_vbound_export(tmp_path, wlan_decay):
    xi = StateDistribution.from_weights(np.exp(-0.9 * np.arange(21)), 20)
    bound = v_upper_bound(wlan_decay, find_equilibrium(wlan_decay, 20), xi)
    save_trajectory_and_bound(bound, tmp_path, "target.csv", "witness.txt",
                              "vbound.json")
    payload = json.loads((tmp_path / "vbound.json").read_text())
    assert payload["target_file"] == "target.csv"
    assert payload["witness_file"] == "witness.txt"
    assert payload["upper"] >= payload["lower"]
    assert set(payload["lower_params"]) == {"T", "n", "kind"}
    assert (tmp_path / "target.csv").exists()
    assert (tmp_path / "witness.txt").exists()
