import math
import tracemalloc

import numpy as np
import pytest

from audits import drift_reference, integrate
from conftest import geometric
from meanfield_ldp.measures import (StateDistribution,
                                    TruncationMismatchError, theta_moment,
                                    theta_values, tv_distance)
from meanfield_ldp.mckean_vlasov import (_interpolate, _sample_in_KM,
                                         check_B2, find_equilibrium, flows,
                                         monotone_convergence_diagnostic,
                                         sample_initials_in_KM,
                                         time_to_KDelta)
from meanfield_ldp.models import (interacting_wlan_model, mm1_model,
                                  single_particle_stationary,
                                  wlan_const_model, wlan_decay_model)

# the four builtin models and a strongly coupled interacting one
ORACLE_MODELS = {"mm1": mm1_model(1.0, 2.0),
                 "wlan_const": wlan_const_model(1.0, 1.0),
                 "wlan_decay": wlan_decay_model(1.0, 1.0),
                 "interacting_0.5": interacting_wlan_model(0.5),
                 "interacting_0.9": interacting_wlan_model(0.9)}


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _check_B2(model, xi_star, M, horizon, n_samples, seed):
    """check_B2 over the flows from its sampled initial conditions."""
    initials = sample_initials_in_KM(xi_star, M, n_samples, seed)
    return check_B2(xi_star, flows(model, initials,
                                   [horizon] * len(initials)))


def test_equilibrium_is_fixed_point(wlan_const):
    xi_star = single_particle_stationary(wlan_const, 30)
    path, = flows(wlan_const, [xi_star], [2.0], tol=1e-10)
    for p in path.probs:
        assert tv_distance(StateDistribution(p, 30), xi_star) < 1e-8


def test_convergence_to_geometric(wlan_const):
    path, = flows(wlan_const, [StateDistribution.delta(0, 40)], [30.0],
                  tol=1e-9)
    target = single_particle_stationary(wlan_const, 40)
    assert tv_distance(path.final_distribution(), target) < 1e-6


def test_mass_conservation(interacting):
    path, = flows(interacting, [StateDistribution.delta(3, 25)], [5.0],
                  tol=1e-9)
    for p in path.probs:
        assert abs(float(p.sum()) - 1.0) < 1e-10
    assert path.times[-1] == 5.0


def test_find_equilibrium_noninteracting(wlan_decay):
    xi_star = find_equilibrium(wlan_decay, 30)
    pi = single_particle_stationary(wlan_decay, 30)
    assert tv_distance(xi_star, pi) < 1e-12


def test_find_equilibrium_interacting_closed_form(interacting):
    """At kappa = 1/2 the self-consistent equilibrium is exactly
    xi*(z) = 1 / (z! (z+2)): the forward and reset envelopes coincide
    at xi(0) = 1/2 and the telescoping sum normalises to one."""
    xi_star = find_equilibrium(interacting, 25, tol=1e-12)
    closed = np.array([1.0 / (math.factorial(z) * (z + 2)) for z in range(26)])
    assert np.abs(xi_star.probs - closed).max() < 1e-11
    resid = np.abs(interacting.drift(xi_star.probs)).sum()
    assert resid < 1e-10


def test_equilibrium_unique_from_two_starts(interacting):
    a = find_equilibrium(interacting, 25,
                         initial=StateDistribution.delta(0, 25))
    b = find_equilibrium(interacting, 25,
                         initial=StateDistribution.delta(12, 25))
    assert tv_distance(a, b) < 1e-8


def test_equilibrium_cross_check_by_integration(interacting):
    xi_star = find_equilibrium(interacting, 25)
    path, = flows(interacting, [StateDistribution.delta(0, 25)], [60.0],
                  tol=1e-9)
    assert tv_distance(path.final_distribution(), xi_star) < 1e-6


def test_one_step_residual(interacting):
    tol = 1e-10
    xi_star = find_equilibrium(interacting, 25, tol=tol)
    dt = 0.01
    path, = flows(interacting, [xi_star], [dt], tol=1e-12)
    assert tv_distance(path.final_distribution(), xi_star) < tol * dt * 10


def test_check_B2_interacting(interacting):
    report = _check_B2(interacting, find_equilibrium(interacting, 30), M=5.0,
                       horizon=40.0, n_samples=4, seed=1)
    assert report.n_samples >= 4
    assert report.sup_gap[0] >= report.terminal_gap
    assert report.terminal_gap < 1e-3
    assert report.passed


def test_check_B2_includes_equilibrium_sample(interacting):
    # with the equilibrium among the samples the gap at t=0 is not the sup
    report = _check_B2(interacting, find_equilibrium(interacting, 25), M=5.0,
                       horizon=10.0, n_samples=1, seed=1)
    assert report.n_samples == 1
    assert report.sup_gap[0] < 1e-8  # only xi* sampled: zero gap throughout


def _reference_interpolant(path):
    """Reference interpolation of a path: a map from a time to a
    distribution, the end states as they are and interior points linear
    between the two bracketing nodes, renormalised.  The node
    distributions are built once per path."""
    times, states = path.times, [StateDistribution(p, path.z_max)
                                 for p in path.probs]

    def state_at(t):
        if t <= times[0]:
            return states[0]
        if t >= times[-1]:
            return states[-1]
        k = int(np.searchsorted(times, t) - 1)
        w = (t - times[k]) / (times[k + 1] - times[k])
        p = (1 - w) * states[k].probs + w * states[k + 1].probs
        return StateDistribution(p / p.sum(), states[0].z_max)

    return state_at


def test_interpolate_matches_reference(interacting):
    path, = flows(interacting, [StateDistribution.delta(3, 25)], [5.0],
                  tol=1e-9)
    t = path.times
    on_nodes = list(t)
    between = [a + w * (b - a) for a, b in zip(t, t[1:])
               for w in (0.1, 0.5, 0.77)]
    beyond = [-1.0, t[-1] + 1.0]
    state_at = _reference_interpolant(path)
    for s in on_nodes + between + beyond:
        assert np.array_equal(_interpolate(path, s), state_at(s).probs)


def test_check_B2_gaps_match_reference_interpolation(interacting):
    M, horizon, seed, z_max = 5.0, 10.0, 3, 25
    xi_star = find_equilibrium(interacting, z_max)
    report = _check_B2(interacting, xi_star, M, horizon, n_samples=4,
                       seed=seed)
    assert theta_moment(xi_star) <= M  # so xi* is the first sample
    initials = [xi_star] + [_sample_in_KM(np.random.default_rng([seed, j]),
                                          z_max, M) for j in range(3)]
    theta, target = theta_values(z_max), theta_moment(xi_star)
    gaps = []
    for nu in initials:
        path, = flows(interacting, [nu], [horizon], tol=1e-9)
        # grid times at the first node, between nodes and at the last node
        assert report.grid[0] == path.times[0]
        assert report.grid[-1] == path.times[-1]
        state_at = _reference_interpolant(path)
        gaps.append([abs(float(state_at(t).probs @ theta) - target)
                     for t in report.grid])
    assert np.array_equal(report.sup_gap, np.max(np.stack(gaps), axis=0))


def test_monotone_convergence_diagnostic(wlan_const):
    path, = flows(wlan_const, [StateDistribution.delta(0, 25)], [15.0])
    out = monotone_convergence_diagnostic(find_equilibrium(wlan_const, 25),
                                          path)
    assert isinstance(out, bool)  # reported, never asserted as a property


def test_time_to_KDelta(wlan_const):
    # the flow's computed equilibrium lies in K(0.05) of the closed form
    xi_eq = find_equilibrium(wlan_const, 30)
    xi_star = single_particle_stationary(wlan_const, 30)
    delta0 = StateDistribution.delta(0, 30)
    horizon = 10.0 / wlan_const.lambda_lower
    from_star, from_delta0 = flows(wlan_const, [xi_star, delta0],
                                   [horizon, horizon])
    assert time_to_KDelta(xi_eq, from_star, 0.05) == 0.0
    t1 = time_to_KDelta(xi_eq, from_delta0, 0.05)
    assert 0.0 < t1 < math.inf
    t2 = time_to_KDelta(xi_eq, from_delta0, 0.02)
    assert t2 >= t1


def test_time_to_KDelta_unreached(wlan_const):
    path, = flows(wlan_const, [StateDistribution.delta(0, 30)],
                  [10.0 / wlan_const.lambda_lower])
    out = time_to_KDelta(find_equilibrium(wlan_const, 30), path, 1e-9)
    assert out == math.inf


def test_integrate_argument_validation(wlan_const):
    with pytest.raises(ValueError):
        flows(wlan_const, [StateDistribution.delta(0, 5)], [-1.0])
    with pytest.raises(ValueError):
        flows(wlan_const, [StateDistribution.delta(0, 5)], [1.0], tol=0.0)


def test_mixed_windows_raise_truncation_mismatch(wlan_const, interacting):
    with pytest.raises(TruncationMismatchError, match=r"\[5, 6\]"):
        flows(wlan_const, [StateDistribution.delta(0, 5),
                           StateDistribution.delta(0, 6)], [1.0, 1.0])
    with pytest.raises(TruncationMismatchError, match="30.*20"):
        find_equilibrium(interacting, 20,
                         initial=StateDistribution.delta(0, 30))


def test_B2_audit_rejects_degenerate_input(interacting):
    xi_star = find_equilibrium(interacting, 25)
    with pytest.raises(ValueError):
        sample_initials_in_KM(xi_star, 5.0, 0, seed=1)
    with pytest.raises(ValueError):
        sample_initials_in_KM(xi_star, 0.0, 4, seed=1)
    paths = flows(interacting, [xi_star, xi_star], [1.0, 2.0])
    with pytest.raises(ValueError):
        check_B2(xi_star, paths)


@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_stacked_drift_rows_match_single_fields(name):
    model = ORACLE_MODELS[name]
    rng = np.random.default_rng(4)
    stack = rng.dirichlet(np.ones(31), size=6)
    stack[1] -= 1e-3 * rng.random(31)  # an RK4 stage can leave the simplex
    stack[2, :4] = 0.0
    rows = model.drift(stack)
    assert rows.shape == stack.shape
    for row, p in zip(rows, stack):
        assert _same_bits(row, model.drift(p))
        assert _same_bits(row, drift_reference(model, p))


@pytest.mark.parametrize("dt_max", [None, 0.05])
@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_flows_match_per_path_reference(name, dt_max):
    """Every row of a stack with mixed horizons, and a one-row stack,
    equals the per-path loop bit for bit in times and probs."""
    model, z_max = ORACLE_MODELS[name], 20
    initials = [StateDistribution.delta(0, z_max), geometric(0.5, z_max),
                StateDistribution.delta(z_max, z_max),
                StateDistribution.from_weights(np.arange(z_max + 1.0))]
    horizons = [3.0, 0.7, 5.0, 1.5]
    cases = [(initials, horizons), (initials[:1], [2.0])]
    for nus, Ts in cases:
        paths = flows(model, nus, Ts, dt_max=dt_max)
        for nu, T, path in zip(nus, Ts, paths):
            ref = integrate(model, nu, T, tol=1e-9, dt_max=dt_max)
            assert _same_bits(path.times, ref.times)
            assert _same_bits(path.probs, ref.probs)
    # the delta_0 row rejects its first step, so rejects are exercised
    first = min(0.1, dt_max or 0.25)
    assert paths[0].times[1] < first


def test_flows_memory_is_about_the_paths(interacting):
    """The 7-row call of an mve_audit (z_max 30, five laws in K_5 and
    delta_0 twice) peaks below 2.25 times the bytes of the paths it
    returns: 1,129 KB for 601 KB of seed-1 paths, where row views that
    kept every step's block and every row list alive until the last
    path was stacked peaked at 1,719 KB."""
    xi_star = find_equilibrium(interacting, 30)
    delta0 = StateDistribution.delta(0, 30)
    initials = sample_initials_in_KM(xi_star, 5.0, 5, seed=1)
    tracemalloc.start()
    try:
        paths = flows(interacting, initials + [delta0, delta0],
                      [40.0] * 5 + [10.0, 40.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * sum(path.probs.nbytes for path in paths)
