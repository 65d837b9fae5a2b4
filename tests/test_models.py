import numpy as np
import pytest

from conftest import geometric
from meanfield_ldp.measures import StateDistribution, tv_distance
from meanfield_ldp.models import (A2Report, EdgeKind, EdgeNotPresentError,
                                  InstabilityError, RateModel,
                                  factorial_decay_bound, has_stationary_law,
                                  interacting_wlan_model, is_counterexample,
                                  mm1_model, single_particle_stationary,
                                  verify_A2, wlan_const_model,
                                  wlan_decay_model)

BUILTINS = [mm1_model(1.0, 2.0), wlan_const_model(1.0, 1.0),
            wlan_decay_model(2.0, 1.0), interacting_wlan_model(0.5)]
# The envelope [1, 1.5] breaks once xi(0) > 0.25 (forward edges; from
# z = 1 on in the second model) or xi(1) > 0.25 (reset edges); the third
# model leaves it by less than the audit's 1e-12 tolerance.
VIOLATING = [
    RateModel(EdgeKind.CHAIN_WITH_RESETS,
              forward=lambda z, xi: (1.0 + 2.0 * xi[0]) / (z + 1.0),
              backward=lambda z, xi: np.full(z.shape, 1.0),
              lambda_upper=1.5, lambda_lower=1.0, interacting=True,
              name="forward_violation"),
    RateModel(EdgeKind.CHAIN_WITH_RESETS,
              forward=lambda z, xi: (1.0 + 2.0 * xi[0] * (z >= 1)) / (z + 1.0),
              backward=lambda z, xi: np.full(z.shape, 1.0 + 2.0 * xi[1]),
              lambda_upper=1.5, lambda_lower=1.0, interacting=True,
              name="mixed_violation"),
    RateModel(EdgeKind.CHAIN_WITH_RESETS,
              forward=lambda z, xi: (1.5 + 5e-13) / (z + 1.0),
              backward=lambda z, xi: np.full(z.shape, 1.0 - 5e-13),
              lambda_upper=1.5, lambda_lower=1.0, interacting=False,
              name="within_tolerance"),
]


@pytest.mark.parametrize("model", BUILTINS + [interacting_wlan_model(0.9)],
                         ids=lambda m: m.name)
def test_stacked_rate_tables_match_rows(model):
    rng = np.random.default_rng(5)
    for B in (1, 2, 7):
        P = rng.dirichlet(np.ones(21), size=B)
        fwd = model.forward_rates(20, P)
        back = model.backward_rates(20, P)
        assert fwd.shape == back.shape == (B, 21)
        assert np.array_equal(fwd, [model.forward_rates(20, p) for p in P])
        assert np.array_equal(back, [model.backward_rates(20, p) for p in P])


def test_mm1_rates(mm1):
    assert mm1.rate(0, 1) == 1.0
    assert mm1.rate(3, 2) == 2.0
    with pytest.raises(EdgeNotPresentError):
        mm1.rate(0, -1)


def test_wlan_const_rates(wlan_const):
    assert wlan_const.rate(5, 6) == 1.0
    assert wlan_const.rate(5, 0) == 1.0
    with pytest.raises(EdgeNotPresentError):
        wlan_const.rate(0, 0)


def test_wlan_decay_rates():
    m = wlan_decay_model(1.0, 1.0)
    assert m.rate(0, 1) == 1.0
    m2 = wlan_decay_model(2.0, 1.0)
    assert m2.rate(3, 4) == 0.5
    report = verify_A2(m, [StateDistribution.delta(0, 20)])
    assert report.passed


def test_interacting_rates():
    m0 = interacting_wlan_model(0.0)
    ref = wlan_decay_model(1.0, 1.0)
    xi = geometric(0.5, 15)
    for z in range(10):
        assert m0.rate(z, z + 1, xi) == ref.rate(z, z + 1, xi)
        if z >= 1:
            assert m0.rate(z, 0, xi) == ref.rate(z, 0, xi)
    m = interacting_wlan_model(0.5)
    d0 = StateDistribution.delta(0, 10)
    d5 = StateDistribution.delta(5, 10)
    assert m.rate(0, 1, d0) == 1.5
    assert m.rate(2, 0, d5) == 1.5
    with pytest.raises(ValueError):
        interacting_wlan_model(1.0)


def test_dominating_chain_dominates(interacting):
    """The non-interacting chain with interacting_wlan(0.5)'s largest
    forward and least reset rates bounds it edge by edge."""
    dom = wlan_decay_model(1.5, 1.0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        xi = StateDistribution(rng.dirichlet(np.ones(21)), 20)
        fwd_m = interacting.forward_rates(20, xi)
        fwd_d = dom.forward_rates(20, xi)
        back_m = interacting.backward_rates(20, xi)
        back_d = dom.backward_rates(20, xi)
        assert np.all(fwd_m <= fwd_d + 1e-12)
        assert np.all(back_m[1:] >= back_d[1:] - 1e-12)


# -- stationary laws -----------------------------------------------------------

def _generator(model, z_max):
    """Dense single-particle generator on the closed window: the oracle
    of the stationarity residual pi Q = 0."""
    z = np.arange(1, z_max + 1)
    Q = np.zeros((z_max + 1, z_max + 1))
    Q[z - 1, z] = model.forward_rates(z_max)[:-1]
    Q[z, model.backward_target(z)] = model.backward_rates(z_max)[1:]
    np.fill_diagonal(Q, Q.diagonal() - Q.sum(axis=1))
    return Q


def test_mm1_stationary_closed_form(mm1):
    pi = single_particle_stationary(mm1, 60)
    z = np.arange(61)
    assert np.abs(pi.probs - 0.5 ** (z + 1)).max() < 1e-12
    assert np.abs(_generator(mm1, 60).T @ pi.probs).sum() < 1e-10


def test_wlan_const_stationary_closed_form(wlan_const):
    pi = single_particle_stationary(wlan_const, 60)
    z = np.arange(61)
    # lambda_b/(lambda_f+lambda_b) * (lambda_f/(lambda_f+lambda_b))^z
    assert np.abs(pi.probs - 0.5 ** (z + 1)).max() < 1e-12
    assert np.abs(_generator(wlan_const, 60).T @ pi.probs).sum() < 1e-10


def test_wlan_decay_factorial_bound(wlan_decay):
    pi = single_particle_stationary(wlan_decay, 40)
    assert factorial_decay_bound(wlan_decay, pi)
    assert np.abs(_generator(wlan_decay, 40).T @ pi.probs).sum() < 1e-10


def test_stationary_law_needs_state_independent_backward_rates():
    """The product form is the only solver: a model whose reset rate
    grows with the state is rejected by name, not solved."""
    growing = RateModel(EdgeKind.CHAIN_WITH_RESETS,
                        forward=lambda z, xi: np.full(z.shape, 1.0),
                        backward=lambda z, xi: 1.0 + z,
                        lambda_upper=2.0, lambda_lower=1.0,
                        interacting=False, name="growing_resets")
    with pytest.raises(ValueError, match="growing_resets"):
        single_particle_stationary(growing, 20)


def test_mm1_instability():
    with pytest.raises(InstabilityError):
        single_particle_stationary(mm1_model(2.0, 1.0), 30)


def test_interacting_needs_frozen_field(interacting):
    with pytest.raises(ValueError):
        single_particle_stationary(interacting, 30)
    pi = single_particle_stationary(interacting, 30,
                                    frozen_field=StateDistribution.delta(0, 30))
    assert pi.probs.sum() == pytest.approx(1.0, abs=1e-12)


# -- assumption audits ----------------------------------------------------------

def test_verify_A2_interacting(interacting):
    rng = np.random.default_rng(7)
    samples = [StateDistribution(rng.dirichlet(np.ones(31)), 30)
               for _ in range(100)]
    assert verify_A2(interacting, samples).passed


def test_verify_A2_wlan_const_fails(wlan_const):
    report = verify_A2(wlan_const, [StateDistribution.delta(0, 30)])
    assert not report.passed
    z, edge, *_ = report.first_violation
    assert edge == "forward" and z >= 1


def test_verify_A2_mm1_wrong_edges(mm1):
    assert not verify_A2(mm1, [StateDistribution.delta(0, 10)]).passed


def test_lipschitz_estimates(wlan_const, interacting):
    assert _lipschitz_loop(wlan_const, 50, 0) == 0.0
    assert _lipschitz_loop(interacting_wlan_model(0.0), 50, 0) == 0.0
    est = _lipschitz_loop(interacting, 200, 0)
    assert 0.0 < est <= 1.0 + 1e-9  # analytic constant 2 * kappa = 1


def test_edges_enumeration(mm1, wlan_const):
    em = mm1.edges(4)
    assert (3, 4) in em and (4, 3) in em and (4, 5) not in em
    assert len(em) == len(set(em))
    ew = wlan_const.edges(4)
    assert (3, 4) in ew and (4, 0) in ew and (1, 0) in ew


def test_rate_matches_rate_tables():
    rng = np.random.default_rng(3)
    for model in BUILTINS:
        xi = StateDistribution(rng.dirichlet(np.ones(16)), 15)
        fwd = model.forward_rates(15, xi)
        back = model.backward_rates(15, xi)
        for z in range(15):
            assert model.rate(z, z + 1, xi) == fwd[z]
        for z in range(1, 16):
            assert model.rate(z, model.backward_target(z), xi) == back[z]


def test_stationarity_and_counterexample_predicates():
    assert has_stationary_law(mm1_model(1.0, 2.0), 30)
    assert not has_stationary_law(mm1_model(2.0, 1.0), 30)
    assert not has_stationary_law(mm1_model(1.0, 1.0), 30)
    for lf, lb in [(1.0, 2.0), (3.0, 0.5)]:
        assert is_counterexample(mm1_model(lf, lb))
        assert is_counterexample(wlan_const_model(lf, lb))
        assert not is_counterexample(wlan_decay_model(lf, lb))
    for model in BUILTINS[2:] + [interacting_wlan_model(0.0),
                                 wlan_decay_model(1.0, 1.0)]:
        assert has_stationary_law(model, 30)
        assert not is_counterexample(model)


# -- per-state reference oracles for the vectorised audits ----------------------

def _verify_A2_loop(model, sample_measures, z_max=60):
    if model.kind is not EdgeKind.CHAIN_WITH_RESETS:
        return A2Report(False, (0, "edge_set", 0.0, 0.0, 0.0, -1))
    lo, hi = model.lambda_lower, model.lambda_upper
    tol = 1e-12
    for i, xi in enumerate(sample_measures):
        for z in range(z_max + 1):
            r = model.rate(z, z + 1, xi)
            low, high = lo / (z + 1), hi / (z + 1)
            if not (low - tol <= r <= high + tol):
                return A2Report(False, (z, "forward", r, low, high, i))
            if z >= 1:
                r = model.rate(z, 0, xi)
                if not (lo - tol <= r <= hi + tol):
                    return A2Report(False, (z, "reset", r, lo, hi, i))
    return A2Report(True, None)


def _lipschitz_loop(model, trials, rng_seed, z_max=30):
    """Empirical lower estimate of the uniform Lipschitz constant in the
    field: the largest rate gap over TV distance on random field pairs."""
    rng = np.random.default_rng(rng_seed)
    best = 0.0
    for _ in range(trials):
        a = StateDistribution(rng.dirichlet(np.ones(z_max + 1)), z_max)
        b = StateDistribution(rng.dirichlet(np.ones(z_max + 1)), z_max)
        d = tv_distance(a, b)
        if d < 1e-9:
            continue
        for z in range(0, min(z_max, 20) + 1):
            gap = abs((z + 1) * (model.rate(z, z + 1, a) - model.rate(z, z + 1, b)))
            best = max(best, gap / d)
            if z >= 1:
                zb = model.backward_target(z)
                gap = abs(model.rate(z, zb, a) - model.rate(z, zb, b))
                best = max(best, gap / d)
    return best


@pytest.mark.parametrize("model", BUILTINS + VIOLATING,
                         ids=lambda m: m.name)
def test_verify_A2_matches_per_state_loop(model):
    rng = np.random.default_rng(8)
    both = StateDistribution.from_weights(np.r_[0.4, 0.4, np.full(29, 0.01)], 30)
    singles = [StateDistribution.delta(z, 30) for z in (5, 1, 0)]
    fields = [StateDistribution(rng.dirichlet(np.full(31, 0.5)), 30)
              for _ in range(20)]
    for samples in (singles, [both] + singles, fields, singles[:1]):
        for z_max in (60, 10):
            assert verify_A2(model, samples, z_max) \
                == _verify_A2_loop(model, samples, z_max)
