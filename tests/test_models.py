import numpy as np
import pytest

from audits import (A2Report, affine_rate, factorial_decay_bound,
                    verify_A2)
from conftest import geometric
from meanfield_ldp.measures import StateDistribution
from meanfield_ldp.models import (AffineRate, EdgeKind, InstabilityError,
                                  RateModel, _constant, edge_list,
                                  has_stationary_law,
                                  interacting_wlan_model, is_counterexample,
                                  mm1_model, single_particle_stationary,
                                  wlan_const_model, wlan_decay_model)

BUILTINS = [mm1_model(1.0, 2.0), wlan_const_model(1.0, 1.0),
            wlan_decay_model(2.0, 1.0), interacting_wlan_model(0.5)]
# The envelope [1, 1.5] breaks once xi(0) > 0.25 (forward edges; from
# z = 1 on in the second model) or xi(1) > 0.25 (reset edges); the third
# model leaves it by less than the audit's 1e-12 tolerance.
VIOLATING = [
    RateModel(EdgeKind.CHAIN_WITH_RESETS,
              forward=AffineRate(lambda z: 1.0 / (z + 1.0),
                                 ((0, lambda z: 2.0 / (z + 1.0)),)),
              backward=AffineRate(_constant(1.0)),
              lambda_upper=1.5, lambda_lower=1.0, name="forward_violation"),
    RateModel(EdgeKind.CHAIN_WITH_RESETS,
              forward=AffineRate(lambda z: 1.0 / (z + 1.0),
                                 ((0, lambda z: 2.0 * (z >= 1) / (z + 1.0)),)),
              backward=AffineRate(_constant(1.0), ((1, _constant(2.0)),)),
              lambda_upper=1.5, lambda_lower=1.0, name="mixed_violation"),
    RateModel(EdgeKind.CHAIN_WITH_RESETS,
              forward=AffineRate(lambda z: (1.5 + 5e-13) / (z + 1.0)),
              backward=AffineRate(_constant(1.0 - 5e-13)),
              lambda_upper=1.5, lambda_lower=1.0, name="within_tolerance"),
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


def _rate(model, z, z_prime, xi):
    """One edge's rate straight from the model's affine declaration,
    a(z) + xi(y) B(z, y) over its coupling in order: the oracle of the
    window tables."""
    rate = model.forward if z_prime == z + 1 else model.backward
    return float(affine_rate(rate, z, xi))


def _target(kind, z):
    """Where the backward edge out of z ends, written out per edge shape."""
    return z - 1 if kind is EdgeKind.BIRTH_DEATH else 0


def test_mm1_rates(mm1):
    fwd, back = mm1.forward_rates(5), mm1.backward_rates(5)
    assert fwd[0] == 1.0
    assert back[3] == 2.0
    assert back[0] == 0.0  # no edge (0, -1)


def test_wlan_const_rates(wlan_const):
    fwd, back = wlan_const.forward_rates(8), wlan_const.backward_rates(8)
    assert fwd[5] == 1.0
    assert back[5] == 1.0
    assert back[0] == 0.0  # no edge (0, 0)


def test_wlan_decay_rates():
    m = wlan_decay_model(1.0, 1.0)
    assert m.forward_rates(5)[0] == 1.0
    m2 = wlan_decay_model(2.0, 1.0)
    assert m2.forward_rates(5)[3] == 0.5
    report = verify_A2(m, [StateDistribution.delta(0, 20)])
    assert report.passed


def test_interacting_rates():
    m0 = interacting_wlan_model(0.0)
    ref = wlan_decay_model(1.0, 1.0)
    xi = geometric(0.5, 15).probs
    assert np.array_equal(m0.forward_rates(15, xi), ref.forward_rates(15, xi))
    assert np.array_equal(m0.backward_rates(15, xi),
                          ref.backward_rates(15, xi))
    m = interacting_wlan_model(0.5)
    d0 = StateDistribution.delta(0, 10).probs
    d5 = StateDistribution.delta(5, 10).probs
    assert m.forward_rates(10, d0)[0] == 1.5
    assert m.backward_rates(10, d5)[2] == 1.5
    with pytest.raises(ValueError):
        interacting_wlan_model(1.0)


def _interacting_closed_forms(kappa, z_max, xi):
    """interacting_wlan's tables as the closed forms (1 + kappa xi0)/(z+1)
    and 1 + kappa (1 - xi0), boundary entries zeroed; xi is a field or a
    stack of fields."""
    xi0 = xi[..., :1]
    fwd = (1.0 + kappa * xi0) / (np.arange(z_max + 1) + 1.0)
    back = np.broadcast_to(1.0 + kappa * (1.0 - xi0), fwd.shape).copy()
    fwd[..., z_max] = back[..., 0] = 0.0
    return fwd, back


@pytest.mark.parametrize("kappa", [0.5, 0.9])
def test_affine_tables_match_closed_forms_within_2_ulp(kappa):
    """The affine form a + xi0 c rounds differently from the closed
    forms, by at most 2 ulp, on single fields and on stacks."""
    model = interacting_wlan_model(kappa)
    rng = np.random.default_rng(12)
    for z_max in (10, 25, 30):
        for size in (None, 1, 2, 7):
            xi = rng.dirichlet(np.ones(z_max + 1), size=size)
            got = (model.forward_rates(z_max, xi),
                   model.backward_rates(z_max, xi))
            refs = _interacting_closed_forms(kappa, z_max, xi)
            for g, ref in zip(got, refs):
                assert g.shape == ref.shape
                assert np.all(np.abs(g - ref) <= 2.0 * np.spacing(ref))


def test_non_interacting_tables_keep_their_closed_forms():
    z = np.arange(31)
    for lf, lb in [(1.0, 2.0), (0.7, 3.0)]:
        const_f = np.r_[np.full(30, lf), 0.0]
        back = np.r_[0.0, np.full(30, lb)]
        for model in (mm1_model(lf, lb), wlan_const_model(lf, lb)):
            assert np.array_equal(model.forward_rates(30), const_f)
            assert np.array_equal(model.backward_rates(30), back)
        decay = wlan_decay_model(lf, lb)
        assert np.array_equal(decay.forward_rates(30),
                              np.r_[(lf / (z + 1.0))[:30], 0.0])
        assert np.array_equal(decay.backward_rates(30), back)
    assert not interacting_wlan_model(0.0).interacting
    assert interacting_wlan_model(0.5).interacting


def test_dominating_chain_dominates(interacting):
    """The non-interacting chain with interacting_wlan(0.5)'s largest
    forward and least reset rates bounds it edge by edge."""
    dom = wlan_decay_model(1.5, 1.0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        xi = rng.dirichlet(np.ones(21))
        fwd_m = interacting.forward_rates(20, xi)
        fwd_d = dom.forward_rates(20, xi)
        back_m = interacting.backward_rates(20, xi)
        back_d = dom.backward_rates(20, xi)
        assert np.all(fwd_m <= fwd_d + 1e-12)
        assert np.all(back_m[1:] >= back_d[1:] - 1e-12)


# -- stationary laws -----------------------------------------------------------

def _generator(model, z_max):
    """Dense single-particle generator on the closed window, edge by edge
    from the raw rate functions: the oracle of the stationarity residual
    pi Q = 0."""
    no_field = np.zeros(1)
    Q = np.zeros((z_max + 1, z_max + 1))
    for z in range(1, z_max + 1):
        zb = _target(model.kind, z)
        Q[z - 1, z] = _rate(model, z - 1, z, no_field)
        Q[z, zb] = _rate(model, z, zb, no_field)
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
                        forward=AffineRate(_constant(1.0)),
                        backward=AffineRate(lambda z: 1.0 + z),
                        lambda_upper=2.0, lambda_lower=1.0,
                        name="growing_resets")
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


# The first violation on each sample list of
# test_verify_A2_matches_per_state_loop, in list order: point masses at
# 5, 1 and 0; the same led by a law with 0.4 at 0 and at 1; 20 Dirichlet
# fields; the point mass at 5 alone.  Every model gets the same verdict
# at z_max 60 and 10.
_EDGE_SET = (0, "edge_set", 0.0, 0.0, 0.0, -1)
_WLAN_CONST = (1, "forward", 1.0, 0.5, 0.5, 0)
A2_VERDICTS = {
    "mm1": [_EDGE_SET] * 4,
    "wlan_const": [_WLAN_CONST] * 4,
    "wlan_decay": [None] * 4,
    "interacting_wlan": [None] * 4,
    "forward_violation": [(0, "forward", 3.0, 1.0, 1.5, 2),
                          (0, "forward", 1.7339449541284404, 1.0, 1.5, 0),
                          None, None],
    "mixed_violation": [(1, "reset", 3.0, 1.0, 1.5, 1),
                        (1, "forward", 0.8669724770642202, 0.5, 0.75, 0),
                        None, None],
    "within_tolerance": [None] * 4,
}


@pytest.mark.parametrize("model", BUILTINS + VIOLATING,
                         ids=lambda m: m.name)
def test_verify_A2_matches_per_state_loop(model):
    """The per-state audit's exact report on fields that put the
    violating models outside the envelope through either edge family,
    or not at all: the reports a vectorised audit over whole state
    arrays returned on the same models and fields."""
    rng = np.random.default_rng(8)
    both = StateDistribution.from_weights(np.r_[0.4, 0.4, np.full(29, 0.01)])
    singles = [StateDistribution.delta(z, 30) for z in (5, 1, 0)]
    fields = [StateDistribution(rng.dirichlet(np.full(31, 0.5)), 30)
              for _ in range(20)]
    sample_lists = (singles, [both] + singles, fields, singles[:1])
    for samples, violation in zip(sample_lists, A2_VERDICTS[model.name]):
        for z_max in (60, 10):
            assert verify_A2(model, samples, z_max) \
                == A2Report(violation is None, violation)


def test_edges_enumeration():
    for kind in EdgeKind:
        for z_max in range(1, 13):
            expected = ([(z, z + 1) for z in range(z_max)]
                        + [(z, _target(kind, z)) for z in range(1, z_max + 1)])
            src, dst = edge_list(kind, z_max)
            assert list(zip(src.tolist(), dst.tolist())) == expected
            assert edge_list(kind, z_max)[0] is src
            for a in (src, dst):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 7


def test_rate_matches_rate_tables():
    rng = np.random.default_rng(3)
    for model in BUILTINS:
        P = rng.dirichlet(np.ones(16), size=3)
        for xi in (P[0], P):
            fwd = np.atleast_2d(model.forward_rates(15, xi))
            back = np.atleast_2d(model.backward_rates(15, xi))
            for p, f, b in zip(np.atleast_2d(xi), fwd, back):
                for z in range(15):
                    assert _rate(model, z, z + 1, p) == f[z]
                for z in range(1, 16):
                    assert _rate(model, z, _target(model.kind, z), p) == b[z]
                assert f[15] == 0.0 and b[0] == 0.0


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
