import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audits import sanov_inf_over_ball
from conftest import geometric
from meanfield_ldp.measures import (StateDistribution,
                                    TruncationMismatchError, _write_csv,
                                    _write_json,
                                    entropy_projection, in_class_KDelta,
                                    load_distribution_csv, relative_entropy,
                                    save_distribution_csv, theta_moment,
                                    tv_distance)
from meanfield_ldp.simulator import NotInKMEvent


def delta(z, z_max=10):
    return StateDistribution.delta(z, z_max)


# -- oracles -----------------------------------------------------------------

def geometric_series_moment(rho, weight, tol=1e-12):
    """Partial sums of sum_z weight(z) (1-rho) rho^z until increments fade."""
    acc, z = 0.0, 0
    while True:
        term = weight(z) * (1 - rho) * rho ** z
        acc += term
        if z > 10 and abs(term) < tol:
            return acc
        z += 1


# -- tv distance --------------------------------------------------------------

def test_tv_identity():
    assert tv_distance(delta(0), delta(0)) == 0.0


def test_tv_disjoint_points():
    assert tv_distance(delta(0), delta(1)) == 1.0


def test_tv_disjoint_supports_is_one():
    """Measures with no mass at 0 lie at distance 1 from the point mass
    there; the half-L1 sum of counts / N rounds above 1 for most of
    them, and the distance must not."""
    d0 = delta(0, 12)
    counts = np.array([3, 4, 8, 6, 5, 3, 3, 4, 1, 5, 5, 3])
    assert tv_distance(StateDistribution(np.r_[0.0, counts / 50], 12),
                       d0) == 1.0
    rng = np.random.default_rng(5)
    for counts in rng.multinomial(50, np.full(12, 1 / 12), size=3000):
        d = tv_distance(StateDistribution(np.r_[0.0, counts / 50], 12), d0)
        assert 1.0 - 1e-15 <= d <= 1.0


def test_tv_geometric_vs_delta0():
    # direct summation: (1/2)(|g(0) - 1| + sum_{z>=1} g(z)) = 1 - g(0),
    # with g(0) = 1/2 up to the 2^-41 of the law beyond the window
    g = geometric(0.5, 40)
    assert abs(tv_distance(g, delta(0, 40)) - 0.5) < 1e-12


def test_tv_truncation_mismatch():
    with pytest.raises(TruncationMismatchError):
        tv_distance(delta(0, 5), delta(0, 6))
    with pytest.raises(TruncationMismatchError):
        entropy_projection(geometric(0.5, 5), delta(0, 6), 0.1)
    with pytest.raises(TruncationMismatchError):
        relative_entropy(delta(0, 5), delta(0, 6))


# -- moments -------------------------------------------------------------------

def test_theta_point_masses():
    assert theta_moment(delta(0)) == 0.0
    assert abs(theta_moment(delta(2)) - 2 * math.log(2)) < 1e-15


def test_theta_geometric_partial_sum_oracle():
    expected = geometric_series_moment(
        0.5, lambda z: z * math.log(z) if z >= 2 else 0.0)
    g = geometric(0.5, 60)
    assert abs(theta_moment(g) - expected) < 1e-10


# -- relative entropy ----------------------------------------------------------

def test_entropy_identity():
    g = geometric(0.5, 30)
    assert relative_entropy(g, g) == pytest.approx(0.0, abs=1e-14)


def test_entropy_delta0_vs_geometric():
    # -log g(0), with g(0) = (1/2) / (1 - 2^-31) on the window {0..30}
    g = geometric(0.5, 30)
    expected = math.log(2) + math.log1p(-0.5 ** 31)
    assert abs(relative_entropy(delta(0, 30), g) - expected) < 1e-12


def test_entropy_absolute_continuity_failure():
    assert relative_entropy(delta(1), delta(0)) == math.inf


# -- compact classes ------------------------------------------------------------

def test_km_membership():
    def in_KM(a, M):
        return not NotInKMEvent(M, a.z_max).batch(a.probs[None, :])[0]
    assert in_KM(delta(0), 1.0)
    assert not in_KM(delta(2), 1.0)  # 2 log 2 > 1
    assert in_KM(geometric(0.5, 60), 5.0)


def test_kdelta_membership():
    g = geometric(0.5, 30)
    assert in_class_KDelta(g, g, 1e-9)
    assert not in_class_KDelta(delta(0, 30), g, 0.01)  # tv = 1/2
    # small tv gap but a large theta gap violates the second clause
    cand = g.probs.copy()
    cand[0] -= 0.05
    cand[14] += 0.05
    a = StateDistribution(cand, 30)
    assert tv_distance(a, g) == pytest.approx(0.05, abs=1e-12)
    assert abs(theta_moment(g) - theta_moment(a)) > 0.2
    assert not in_class_KDelta(a, g, 0.1)


# -- Sanov projection -----------------------------------------------------------

def test_sanov_center_equals_nu():
    g = geometric(0.5, 30)
    assert sanov_inf_over_ball(g, g, 0.05) == 0.0


def test_sanov_ball_contains_nu():
    g = geometric(0.5, 30)
    assert sanov_inf_over_ball(g, delta(0, 30), 0.6) == 0.0


def test_sanov_mm1_ball_around_delta0():
    """Closed-form projection against the two-point-mixture grid oracle."""
    g = geometric(0.5, 30)
    val = sanov_inf_over_ball(g, delta(0, 30), 0.1)
    assert 0.0 < val < math.log(2)
    # mixtures zeta = (1-eps) delta_0 + eps nu stay in the ball iff
    # eps (1 - nu(0)) <= 0.1; grid-search the entropy over the family
    best = math.inf
    for eps in np.linspace(0.0, 0.1 / (1 - g.probs[0] / g.probs.sum()), 3000):
        z = (1 - eps) * np.eye(31)[0] + eps * g.probs / g.probs.sum()
        ent = float(np.sum(z[z > 0] * np.log(z[z > 0] / (g.probs / g.probs.sum())[z > 0])))
        best = min(best, ent)
    assert val <= best + 1e-6
    assert abs(val - best) < 1e-4


def test_sanov_monotone_in_delta():
    g = geometric(0.5, 30)
    vals = [sanov_inf_over_ball(g, delta(0, 30), d)
            for d in (0.05, 0.1, 0.2, 0.4)]
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


def test_sanov_delta0_ball_closed_form():
    """Around the point mass at 0 the projection keeps 0.9 at state 0
    and spreads 0.1 in proportion to nu elsewhere."""
    g = geometric(0.5, 30)
    zeta = entropy_projection(g, delta(0, 30), 0.1)
    pi = g.probs / g.probs.sum()
    assert np.allclose(zeta.probs, np.r_[0.9, 0.1 * pi[1:] / pi[1:].sum()],
                       rtol=0, atol=1e-15)
    value = 0.9 * math.log(0.9 / pi[0]) + 0.1 * math.log(0.1 / (1 - pi[0]))
    val = sanov_inf_over_ball(g, delta(0, 30), 0.1)
    assert val == pytest.approx(value, abs=1e-12)


def _move_mass(c: np.ndarray, donors, receiver: int, amount: float) -> np.ndarray:
    """c with ``amount`` of mass taken from ``donors`` in order and put
    on ``receiver``: a point of the TV ball of radius ``amount`` about c."""
    eta = c.copy()
    left = amount
    for z in donors:
        if z != receiver:
            take = min(eta[z], left)
            eta[z] -= take
            left -= take
    eta[receiver] += amount - left
    return eta


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_entropy_projection_optimal_on_dirichlet_centres(seed):
    """The I-projection onto a ball around a non-point-mass centre is a
    feasible distribution, positive wherever nu is, at which no feasible
    direction decreases the relative entropy: the first-order optimality
    condition of the convex program, checked toward 200 points of the
    ball.  They are random mass moves plus the move that minimises the
    linearised entropy over the ball, which certifies optimality on its
    own."""
    g = geometric(0.5, 30)
    rng = np.random.default_rng(seed)
    c = StateDistribution(rng.dirichlet(np.ones(31)), 30)
    zeta = entropy_projection(g, c, 0.1)
    assert abs(float(zeta.probs.sum()) - 1.0) <= 1e-12
    assert tv_distance(zeta, c) <= 0.1 + 1e-12
    assert np.all(zeta.probs[g.probs > 0] > 0)
    slope = np.log(zeta.probs) - np.log(g.probs)
    points = [_move_mass(c.probs, rng.permutation(31), int(rng.integers(31)),
                         0.1 * rng.uniform()) for _ in range(199)]
    points.append(_move_mass(c.probs, np.argsort(-slope), int(np.argmin(slope)),
                             0.1))
    for eta in points:
        assert tv_distance(StateDistribution(eta, 30), c) <= 0.1 + 1e-12
        assert float((eta - zeta.probs) @ slope) >= -1e-9
    assert sanov_inf_over_ball(g, c, 0.1) == relative_entropy(zeta, g)


# -- file format ------------------------------------------------------------------

def test_distribution_rejects_nan_entry():
    """A NaN entry fails every comparison, so the mass test must be
    written to fail on it rather than pass."""
    with pytest.raises(ValueError, match="total mass nan"):
        StateDistribution(np.array([1.0, np.nan, 0.0]), 2)


def test_distribution_csv_roundtrip(tmp_path):
    g = geometric(0.5, 20)
    f = tmp_path / "dist.csv"
    save_distribution_csv(g, f)
    back = load_distribution_csv(f)
    assert back.z_max == 20
    assert np.array_equal(back.probs, g.probs)


def test_distribution_csv_rejects_bad_sum(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("z,prob\n0,0.5\n1,0.4\n")
    with pytest.raises(ValueError):
        load_distribution_csv(f)


def test_distribution_csv_rejects_tail_row(tmp_path):
    """A distribution lives on its window: a ``tail`` row of mass beyond
    z_max is an error that names the row, even when the rows sum to 1."""
    f = tmp_path / "tail.csv"
    f.write_text("z,prob\n0,0.5\n1,0.4\ntail,0.1\n")
    with pytest.raises(ValueError, match="'tail,0.1'"):
        load_distribution_csv(f)


@pytest.mark.parametrize("rows, row", [
    ("0,0.5\n1,0.2\n2,0\n-1,0.3\n", "'-1,0.3'"),  # would wrap to z_max
    ("0,0.5\n1,0.25\n1,0.5\n", "'1,0.5'"),  # would overwrite state 1
])
def test_distribution_csv_rejects_unplaceable_state(tmp_path, rows, row):
    f = tmp_path / "bad.csv"
    f.write_text("z,prob\n" + rows)
    with pytest.raises(ValueError, match=row):
        load_distribution_csv(f)


@pytest.mark.parametrize("text, match", [
    ("", "bad header"),  # an empty file
    ("z,prob\n0\n", "row '0'"),  # a state without its mass
])
def test_distribution_csv_rejects_malformed_input(tmp_path, text, match):
    f = tmp_path / "bad.csv"
    f.write_text(text)
    with pytest.raises(ValueError, match=match):
        load_distribution_csv(f)


def test_write_csv_layout(tmp_path):
    f = tmp_path / "out.csv"
    _write_csv(f, ["n", "name", "flag", "x"],
               [(3, "ball(radius=0.1)", True, 0.5), (-2, "a b", False, 2.0)])
    assert f.read_bytes() == (b"n,name,flag,x\r\n"
                              b"3,ball(radius=0.1),True,0.5\r\n"
                              b"-2,a b,False,2\r\n")


def test_write_csv_reals_round_trip(tmp_path):
    reals = [0.1, 1 / 3, 5e-324, 2.2250738585072014e-308, -0.0, math.inf,
             -math.inf, np.float64(np.pi), np.nextafter(1.0, 2.0)]
    f = tmp_path / "reals.csv"
    _write_csv(f, ["x"], [[x] for x in reals])
    with open(f, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x"]
    back = [float(x) for x, in rows[1:]]
    assert [x.hex() for x in back] == [float(x).hex() for x in reals]
    assert rows[1:4] == [["0.10000000000000001"], ["0.33333333333333331"],
                         ["4.9406564584124654e-324"]]
    assert rows[5:7] == [["-0"], ["inf"]]


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_write_json_refuses_non_finite_reals(tmp_path, x):
    """JSON has no Infinity or NaN, so no output may hold one."""
    f = tmp_path / "out.json"
    with pytest.raises(ValueError):
        _write_json(f, {"x": x})


# -- property tests -----------------------------------------------------------------

dists = st.integers(0, 2 ** 31 - 1).map(lambda s: StateDistribution(
    np.random.default_rng(s).dirichlet(np.ones(13)), 12))


@settings(max_examples=60, deadline=None)
@given(dists, dists, dists)
def test_tv_is_a_metric(a, b, c):
    assert tv_distance(a, b) >= 0.0
    assert tv_distance(a, b) == tv_distance(b, a)
    assert tv_distance(a, a) == 0.0
    assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12


@settings(max_examples=60, deadline=None)
@given(dists, dists)
def test_entropy_nonnegative_and_pinsker(a, b):
    ent = relative_entropy(a, b)
    assert ent >= -1e-12
    d = tv_distance(a, b)
    if ent < math.inf:
        assert ent >= 2.0 * d * d - 1e-9
    if d < 1e-12:
        assert ent < 1e-9


@settings(max_examples=40, deadline=None)
@given(dists, dists, st.floats(0.0, 1.0))
def test_moments_linear_in_mixtures(a, b, w):
    mix = StateDistribution(w * a.probs + (1 - w) * b.probs, a.z_max)
    assert theta_moment(mix) == pytest.approx(
        w * theta_moment(a) + (1 - w) * theta_moment(b), abs=1e-12)
