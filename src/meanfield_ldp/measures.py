"""Probability distributions on the truncated state space {0..z_max}.

Everything downstream (rate models, flux trajectories, Monte Carlo
estimators) manipulates probability vectors on a finite window of the
nonnegative integers, with explicit bookkeeping of the mass attributed
beyond the truncation level.  This module provides:

  * ``StateDistribution``  -- the validated probability vector type,
  * ``SampledPath``  -- a piecewise-affine path of such vectors, the
    one path type of the flow integrator and the cost layer,
  * the total variation metric (half-L1 convention, so distances live
    in [0, 1]),
  * moments against iota(z) = z and theta(z) = z*log(z),
  * relative entropy with a genuine ``inf`` sentinel on absolute
    continuity failure,
  * membership predicates for the bounded-theta-moment class and the
    equilibrium neighbourhood class,
  * the entropy (I-)projection onto a TV ball, in closed form.

Mass beyond the truncation is either ignored by moment operations
(plain finite truncations) or weighted through a declared analytic
tail profile, so that heavy tails are flagged as ``inf`` deliberately
rather than by floating overflow.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

MASS_TOL = 1e-12
_IO_MASS_TOL = 1e-9


class TruncationMismatchError(ValueError):
    """Two distributions with different z_max fed to a binary operation."""


class UndecidableTailError(ValueError):
    """Tail-dependent quantity requested without a declared tail profile."""


# ---------------------------------------------------------------------------
# Tail profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailProfile:
    """Analytic description of the mass beyond the truncation window.

    kind:
      ``geometric``  -- tail(z) proportional to rho**z, param ``rho`` in (0,1)
      ``polylog``    -- tail(z) proportional to z**(-a) * log(z)**(-b),
                        params ``a`` and ``b``
    """

    kind: str
    rho: float = 0.0
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("geometric", "polylog"):
            raise ValueError(f"unknown tail profile kind {self.kind!r}")
        if self.kind == "geometric" and not (0.0 < self.rho < 1.0):
            raise ValueError("geometric tail needs rho in (0,1)")

    def theta_moment_finite(self) -> bool:
        """Whether sum_z theta(z) * tail(z) converges."""
        if self.kind == "geometric":
            return True
        # sum z^{1-a} log^{1-b} z: converges iff a > 2 or (a == 2 and b > 2)
        return self.a > 2.0 or (self.a == 2.0 and self.b > 2.0)

    def first_moment_finite(self) -> bool:
        if self.kind == "geometric":
            return True
        # sum z^{1-a} log^{-b} z: converges iff a > 2 or (a == 2 and b > 1)
        return self.a > 2.0 or (self.a == 2.0 and self.b > 1.0)

    def weighted_tail(self, weight: Callable[[int], float], z_max: int,
                      tail_mass: float) -> float:
        """Sum of weight(z) over the tail, with tail_mass distributed
        proportionally to the profile beyond z_max.  Callers must have
        checked convergence of the weighted series first."""
        if tail_mass <= 0.0:
            return 0.0
        if self.kind == "geometric":
            shape = lambda z: self.rho ** z
        else:
            shape = lambda z: z ** (-self.a) * math.log(z) ** (-self.b)
        # normalise the shape over the tail by partial summation
        z, norm, acc = z_max + 1, 0.0, 0.0
        while True:
            s = shape(z)
            norm += s
            acc += weight(z) * s
            if s * max(1.0, weight(z)) < 1e-16 * max(norm, 1e-300) and z > z_max + 10:
                break
            z += 1
            if z > z_max + 100000:
                break
        if norm == 0.0:
            return 0.0
        return tail_mass * acc / norm


# ---------------------------------------------------------------------------
# StateDistribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StateDistribution:
    """Probability vector on {0..z_max} with explicit tail mass.

    Invariants (checked at construction): all entries nonnegative, and
    sum(probs) + tail_mass = 1 within 1e-12.  Instances are immutable
    and safe to share across threads.
    """

    probs: np.ndarray
    z_max: int
    tail_mass: float = 0.0
    tail_profile: TailProfile | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # private copy: the stored vector is frozen below and must not
        # alias caller-owned storage
        p = np.array(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1 or p.shape[0] != self.z_max + 1:
            raise ValueError(f"probs must have length z_max+1 = {self.z_max + 1}")
        if np.any(p < -MASS_TOL) or self.tail_mass < -MASS_TOL:
            raise ValueError("negative probability entry")
        if np.any(p < 0.0):
            p = np.clip(p, 0.0, None)
            object.__setattr__(self, "probs", p)
        if self.tail_mass < 0.0:
            object.__setattr__(self, "tail_mass", 0.0)
        total = float(p.sum()) + self.tail_mass
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {total!r} outside [1-1e-12, 1+1e-12]")
        p.flags.writeable = False

    # -- constructors ------------------------------------------------------

    @staticmethod
    def delta(z: int, z_max: int) -> "StateDistribution":
        """Point mass at state z."""
        if not 0 <= z <= z_max:
            raise ValueError("point mass outside truncation window")
        p = np.zeros(z_max + 1)
        p[z] = 1.0
        return StateDistribution(p, z_max)

    @staticmethod
    def geometric(rho: float, z_max: int) -> "StateDistribution":
        """Geometric law (1-rho) rho^z truncated at z_max, remainder in tail_mass."""
        if not 0.0 < rho < 1.0:
            raise ValueError("rho must lie in (0,1)")
        z = np.arange(z_max + 1)
        p = (1.0 - rho) * rho ** z
        tail = rho ** (z_max + 1)
        return StateDistribution(p, z_max, tail_mass=tail,
                                 tail_profile=TailProfile("geometric", rho=rho))

    @staticmethod
    def from_weights(weights: Sequence[float], z_max: int | None = None,
                     tail_profile: TailProfile | None = None) -> "StateDistribution":
        """Normalise nonnegative weights into a distribution with zero tail."""
        w = np.asarray(weights, dtype=float)
        if z_max is None:
            z_max = w.shape[0] - 1
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        s = w.sum()
        if s <= 0:
            raise ValueError("weights sum to zero")
        return StateDistribution(w / s, z_max, tail_profile=tail_profile)

    # -- basics ------------------------------------------------------------

    def __getitem__(self, z: int) -> float:
        return float(self.probs[z])

    def retruncate(self, z_max: int) -> "StateDistribution":
        """Re-express on a different window; excess mass moves to the tail."""
        if z_max == self.z_max:
            return self
        if z_max > self.z_max:
            p = np.zeros(z_max + 1)
            p[: self.z_max + 1] = self.probs
            return StateDistribution(p, z_max, self.tail_mass, self.tail_profile)
        p = self.probs[: z_max + 1].copy()
        tail = self.tail_mass + float(self.probs[z_max + 1:].sum())
        return StateDistribution(p, z_max, tail, self.tail_profile)


@dataclass(frozen=True)
class SampledPath:
    """Piecewise-affine path given by node times and node distributions.

    ``tail_mass`` is the (constant) mass parked beyond the window; node
    vectors sum to 1 - tail_mass.
    """

    times: np.ndarray
    probs: np.ndarray  # shape (n_nodes, z_max+1)
    tail_mass: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.times.ndim != 1 or self.probs.shape[0] != self.times.shape[0]:
            raise ValueError("times and probs must align")

    @property
    def z_max(self) -> int:
        return self.probs.shape[1] - 1

    def final_distribution(self) -> StateDistribution:
        p = np.clip(self.probs[-1], 0.0, None)
        return StateDistribution(p, self.z_max, tail_mass=self.tail_mass)


def _check_same_window(a: StateDistribution, b: StateDistribution) -> None:
    if a.z_max != b.z_max:
        raise TruncationMismatchError(
            f"z_max mismatch: {a.z_max} vs {b.z_max} (re-truncate first)")


# ---------------------------------------------------------------------------
# Metric and moments
# ---------------------------------------------------------------------------

def tv_distance(a: StateDistribution, b: StateDistribution) -> float:
    """Total variation distance, half-L1 convention; values in [0, 1]."""
    _check_same_window(a, b)
    return 0.5 * float(np.abs(a.probs - b.probs).sum()) \
        + 0.5 * abs(a.tail_mass - b.tail_mass)


def _weighted_moment(a: StateDistribution, weights: np.ndarray,
                     weight_fn: Callable[[int], float]) -> float:
    head = float(np.dot(a.probs, weights))
    if a.tail_mass <= MASS_TOL:
        return head
    if a.tail_profile is None:
        # plain finite truncation: moments are truncation moments
        return head
    tail = a.tail_profile.weighted_tail(weight_fn, a.z_max, a.tail_mass)
    return head + tail


def theta_values(z_max: int) -> np.ndarray:
    """theta(z) = z log z with the 0 log 0 = 0 convention, for z = 0..z_max."""
    z = np.arange(z_max + 1, dtype=float)
    out = np.zeros(z_max + 1)
    out[2:] = z[2:] * np.log(z[2:])
    return out


def theta_moment(a: StateDistribution) -> float:
    """<a, theta> with theta(z) = z log z; ``inf`` for declared heavy tails."""
    if a.tail_mass > MASS_TOL and a.tail_profile is not None \
            and not a.tail_profile.theta_moment_finite():
        return math.inf
    w = theta_values(a.z_max)
    return _weighted_moment(a, w, lambda z: z * math.log(z) if z >= 2 else 0.0)


def first_moment(a: StateDistribution) -> float:
    """<a, iota> with iota(z) = z; ``inf`` for declared heavy tails."""
    if a.tail_mass > MASS_TOL and a.tail_profile is not None \
            and not a.tail_profile.first_moment_finite():
        return math.inf
    w = np.arange(a.z_max + 1, dtype=float)
    return _weighted_moment(a, w, lambda z: float(z))


def relative_entropy(zeta: StateDistribution, nu: StateDistribution) -> float:
    """Relative entropy sum zeta log(zeta/nu), with 0 log 0 = 0.

    Returns the ``inf`` sentinel when zeta puts mass where nu does not
    (absolute continuity failure); this is a value, not an error.
    """
    _check_same_window(zeta, nu)
    zp, np_ = zeta.probs, nu.probs
    pos = zp > 0.0
    if np.any(np_[pos] == 0.0):
        return math.inf
    acc = float(np.sum(zp[pos] * (np.log(zp[pos]) - np.log(np_[pos]))))
    if zeta.tail_mass > MASS_TOL:
        if nu.tail_mass <= 0.0:
            return math.inf
        acc += zeta.tail_mass * math.log(zeta.tail_mass / nu.tail_mass)
    return acc


# ---------------------------------------------------------------------------
# Compact classes
# ---------------------------------------------------------------------------

def in_class_KM(a: StateDistribution, M: float) -> bool:
    """Membership in the bounded-theta-moment class {<xi, theta> <= M}."""
    if M <= 0:
        raise ValueError("M must be positive")
    return theta_moment(a) <= M


def in_class_KDelta(a: StateDistribution, xi_star: StateDistribution,
                    delta: float) -> bool:
    """TV-and-theta neighbourhood of the equilibrium xi_star."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if tv_distance(a, xi_star) > delta:
        return False
    return abs(theta_moment(xi_star) - theta_moment(a)) <= delta


# ---------------------------------------------------------------------------
# Entropy projection onto a TV ball (Sanov infimum)
# ---------------------------------------------------------------------------

def _level_from_below(w: np.ndarray, v: np.ndarray, target: float) -> float:
    # the x >= 0 with sum((x w - v)_+) = target, for w > 0 and v >= 0;
    # the sum is linear between the sorted knots v/w, so locate the
    # bracketing knot and solve the linear piece exactly
    if target <= 0.0:
        return 0.0
    r = v / w
    order = np.argsort(r)
    cw, cv = np.cumsum(w[order]), np.cumsum(v[order])
    k = int(np.searchsorted(r[order] * cw - cv, target))
    return (target + cv[k - 1]) / cw[k - 1]


def _level_from_above(w: np.ndarray, v: np.ndarray, target: float) -> float:
    # the x with sum((v - x w)_+) = target, for w > 0 and
    # 0 < target < sum(v); mirror image of _level_from_below
    if target <= 0.0:
        return math.inf
    r = v / w
    order = np.argsort(-r)
    cw, cv = np.cumsum(w[order]), np.cumsum(v[order])
    k = int(np.searchsorted(cv - r[order] * cw, target))
    return (cv[k - 1] - target) / cw[k - 1]


def entropy_projection(nu: StateDistribution, center: StateDistribution,
                       delta: float, z_max: int) -> StateDistribution | None:
    """argmin { I(zeta || nu) : tv(zeta, center) <= delta, zeta on {0..z_max} }.

    The I-projection of ``nu`` onto the TV ball, in closed form.  A
    window distribution zeta has tv(zeta, center) = 1/2 |zeta - c|_1 +
    1/2 tail with c = center.probs and tail = center.tail_mass, and the
    KKT conditions give zeta = clip(c, A pi, B pi) componentwise, where
    pi is nu normalised on the window and the levels A <= B solve

        sum (A pi - c)_+ = delta,     sum (c - B pi)_+ = delta - tail

    (mass delta is raised onto states that are light relative to pi and
    delta - tail is lowered off heavy ones, so the total stays 1).  Both
    sums are monotone and piecewise linear in the level and are solved
    exactly.  When pi itself lies in the ball it is the minimiser.
    Returns ``None`` when no window distribution in the ball has finite
    entropy: the center's tail, plus its mass where nu vanishes, already
    exceeds delta.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    nu_p = nu.retruncate(z_max).probs
    c_t = center.retruncate(z_max)
    c, tail = c_t.probs, c_t.tail_mass
    pi = nu_p / nu_p.sum()
    if 0.5 * float(np.abs(pi - c).sum()) + 0.5 * tail <= delta:
        return StateDistribution(pi, z_max)
    support = pi > 0.0
    lowered = delta - tail - float(c[~support].sum())
    if lowered < 0.0:
        return None
    A = _level_from_below(pi[support], c[support], delta)
    B = _level_from_above(pi[support], c[support], lowered)
    zeta = np.zeros(z_max + 1)
    zeta[support] = np.clip(c[support], A * pi[support], B * pi[support])
    return StateDistribution(zeta / zeta.sum(), z_max)


def sanov_inf_over_ball(nu: StateDistribution, center: StateDistribution,
                        delta: float, z_max: int) -> float:
    """inf { I(zeta || nu) : tv(zeta, center) <= delta, zeta on {0..z_max} }.

    Exactly ``0.0`` when nu lies in the ball, ``inf`` when no window
    distribution in the ball is absolutely continuous with respect to
    nu, and otherwise the relative entropy of ``entropy_projection``.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    nu_t = nu.retruncate(z_max)
    if tv_distance(nu_t, center.retruncate(z_max)) <= delta:
        return 0.0
    zeta = entropy_projection(nu_t, center, delta, z_max)
    if zeta is None:
        return math.inf
    return relative_entropy(zeta, nu_t)


# ---------------------------------------------------------------------------
# CSV interface:  header "z,prob", one row per state, optional "tail,<mass>"
# ---------------------------------------------------------------------------

def save_distribution_csv(a: StateDistribution, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["z", "prob"])
        for z in range(a.z_max + 1):
            w.writerow([z, format(float(a.probs[z]), ".17g")])
        if a.tail_mass > 0.0:
            w.writerow(["tail", format(a.tail_mass, ".17g")])


def load_distribution_csv(path: str | Path) -> StateDistribution:
    rows: list[tuple[str, str]] = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if [h.strip() for h in header] != ["z", "prob"]:
            raise ValueError(f"bad header {header!r}: expected z,prob")
        for row in r:
            if not row:
                continue
            rows.append((row[0].strip(), row[1].strip()))
    tail = 0.0
    probs: dict[int, float] = {}
    for key, val in rows:
        if key == "tail":
            tail = float(val)
        else:
            probs[int(key)] = float(val)
    if not probs:
        raise ValueError("no state rows in distribution file")
    z_max = max(probs)
    p = np.zeros(z_max + 1)
    for z, v in probs.items():
        p[z] = v
    total = p.sum() + tail
    if not (1.0 - _IO_MASS_TOL <= total <= 1.0 + _IO_MASS_TOL):
        raise ValueError(f"distribution file sums to {total!r}")
    # renormalise the sub-1e-9 slack so the constructor invariant holds exactly
    p /= total
    tail /= total
    return StateDistribution(p, z_max, tail)
