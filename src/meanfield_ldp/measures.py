"""Probability distributions on the truncated state space {0..z_max}.

Everything downstream (rate models, flux trajectories, Monte Carlo
estimators) manipulates probability vectors on a finite window of the
nonnegative integers.  The window is closed: every model reflects at
z_max, so no dynamics, cost or sampler moves mass past it, and a
distribution is exactly a probability vector on {0..z_max}.  Binary
operations require a common window.  This module provides:

  * ``StateDistribution``  -- the validated probability vector type,
  * ``SampledPath``  -- a piecewise-affine path of such vectors, the
    one path type of the flow integrator and the cost layer,
  * the total variation metric (half-L1 convention, so distances live
    in [0, 1]),
  * the theta-moment against theta(z) = z*log(z),
  * relative entropy with a genuine ``inf`` sentinel on absolute
    continuity failure,
  * the membership predicate of the equilibrium neighbourhood class,
  * the entropy (I-)projection onto a TV ball, in closed form.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

MASS_TOL = 1e-12
_IO_MASS_TOL = 1e-9


class TruncationMismatchError(ValueError):
    """Two distributions with different z_max fed to a binary operation."""


# ---------------------------------------------------------------------------
# StateDistribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StateDistribution:
    """Probability vector on {0..z_max}.

    Invariants (checked at construction): all entries nonnegative, and
    sum(probs) = 1 within ``MASS_TOL``.  Instances are immutable and
    safe to share across threads.
    """

    probs: np.ndarray
    z_max: int

    def __post_init__(self) -> None:
        # private copy: the stored vector is frozen below and must not
        # alias caller-owned storage
        p = np.array(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1 or p.shape[0] != self.z_max + 1:
            raise ValueError(f"probs must have length z_max+1 = {self.z_max + 1}")
        if np.any(p < -MASS_TOL):
            raise ValueError("negative probability entry")
        if np.any(p < 0.0):
            p = np.clip(p, 0.0, None)
            object.__setattr__(self, "probs", p)
        total = float(p.sum())
        if not abs(total - 1.0) <= MASS_TOL:  # also false for a NaN entry
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
    def from_weights(weights: Sequence[float],
                     z_max: int | None = None) -> "StateDistribution":
        """Normalise nonnegative weights into a distribution."""
        w = np.asarray(weights, dtype=float)
        if z_max is None:
            z_max = w.shape[0] - 1
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        s = w.sum()
        if s <= 0:
            raise ValueError("weights sum to zero")
        return StateDistribution(w / s, z_max)

    # -- basics ------------------------------------------------------------

    def __getitem__(self, z: int) -> float:
        return float(self.probs[z])


@dataclass(frozen=True)
class SampledPath:
    """Piecewise-affine path given by node times and node distributions."""

    times: np.ndarray
    probs: np.ndarray  # shape (n_nodes, z_max+1)

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
        return StateDistribution(p, self.z_max)


def _check_same_window(a: StateDistribution, b: StateDistribution) -> None:
    if a.z_max != b.z_max:
        raise TruncationMismatchError(
            f"z_max mismatch: {a.z_max} vs {b.z_max}")


# ---------------------------------------------------------------------------
# Metric and moments
# ---------------------------------------------------------------------------

def tv_distance(a: StateDistribution, b: StateDistribution) -> float:
    """Total variation distance, half-L1 convention; clamped to [0, 1],
    since the sum can round above 1 for disjoint supports."""
    _check_same_window(a, b)
    return min(1.0, 0.5 * float(np.abs(a.probs - b.probs).sum()))


def theta_values(z_max: int) -> np.ndarray:
    """theta(z) = z log z with the 0 log 0 = 0 convention, for z = 0..z_max."""
    z = np.arange(z_max + 1, dtype=float)
    out = np.zeros(z_max + 1)
    out[2:] = z[2:] * np.log(z[2:])
    return out


def theta_moment(a: StateDistribution) -> float:
    """<a, theta> with theta(z) = z log z."""
    return float(np.dot(a.probs, theta_values(a.z_max)))


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
    return float(np.sum(zp[pos] * (np.log(zp[pos]) - np.log(np_[pos]))))


# ---------------------------------------------------------------------------
# Compact classes
# ---------------------------------------------------------------------------

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
    # the x with sum((x w - v)_+) = target > 0, for w > 0 and any real v;
    # the sum is linear between the sorted knots v/w, so locate the
    # bracketing knot and solve the linear piece exactly
    if target <= 0.0:
        return 0.0
    r = v / w
    order = np.argsort(r)
    cw, cv = np.cumsum(w[order]), np.cumsum(v[order])
    k = int(np.searchsorted(r[order] * cw - cv, target))
    return (target + cv[k - 1]) / cw[k - 1]


def entropy_projection(nu: StateDistribution, center: StateDistribution,
                       delta: float) -> StateDistribution | None:
    """argmin { I(zeta || nu) : tv(zeta, center) <= delta }.

    The I-projection of ``nu`` onto the TV ball, in closed form; both
    inputs share one window.  With c = center.probs the KKT conditions
    give zeta = clip(c, A pi, B pi) componentwise, where pi is nu
    normalised on the window and the levels A <= B solve

        sum (A pi - c)_+ = delta,     sum (c - B pi)_+ = delta

    (mass delta is raised onto states that are light relative to pi and
    lowered off heavy ones, so the total stays 1).  Both sums are
    monotone and piecewise linear in the level and are solved exactly.
    When pi itself lies in the ball it is the minimiser.  Returns
    ``None`` when no distribution in the ball has finite entropy: the
    center's mass where nu vanishes already exceeds delta.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    _check_same_window(nu, center)
    z_max = nu.z_max
    nu_p, c = nu.probs, center.probs
    pi = nu_p / nu_p.sum()
    if 0.5 * float(np.abs(pi - c).sum()) <= delta:
        return StateDistribution(pi, z_max)
    support = pi > 0.0
    lowered = delta - float(c[~support].sum())
    if lowered < 0.0:
        return None
    A = _level_from_below(pi[support], c[support], delta)
    # sum (c - B pi)_+ = lowered is the level from below of -c, negated
    B = (-_level_from_below(pi[support], -c[support], lowered)
         if lowered > 0.0 else math.inf)
    zeta = np.zeros(z_max + 1)
    zeta[support] = np.clip(c[support], A * pi[support], B * pi[support])
    return StateDistribution(zeta / zeta.sum(), z_max)


# ---------------------------------------------------------------------------
# CSV interface:  header "z,prob", one row per state
# ---------------------------------------------------------------------------

def save_distribution_csv(a: StateDistribution, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["z", "prob"])
        for z in range(a.z_max + 1):
            w.writerow([z, format(float(a.probs[z]), ".17g")])


def load_distribution_csv(path: str | Path) -> StateDistribution:
    rows: list[tuple[str, str]] = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, [])
        if [h.strip() for h in header] != ["z", "prob"]:
            raise ValueError(f"bad header {header!r}: expected z,prob")
        for row in r:
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"row {','.join(row)!r}: expected z,prob")
            rows.append((row[0].strip(), row[1].strip()))
    probs: dict[int, float] = {}
    for key, val in rows:
        if key == "tail":
            raise ValueError(f"row 'tail,{val}': a distribution has no mass "
                             "beyond its window")
        z = int(key)
        if z < 0 or z in probs:
            raise ValueError(f"row '{key},{val}': state negative or repeated")
        probs[z] = float(val)
    if not probs:
        raise ValueError("no state rows in distribution file")
    z_max = max(probs)
    p = np.zeros(z_max + 1)
    for z, v in probs.items():
        p[z] = v
    total = p.sum()
    if not (1.0 - _IO_MASS_TOL <= total <= 1.0 + _IO_MASS_TOL):
        raise ValueError(f"distribution file sums to {total!r}")
    # renormalise the sub-1e-9 slack so the constructor invariant holds exactly
    p /= total
    return StateDistribution(p, z_max)
