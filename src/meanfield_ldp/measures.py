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
    in [0, 1]), of one law or of each row of a stack of laws,
  * the theta-moment against theta(z) = z*log(z),
  * relative entropy with a genuine ``inf`` sentinel on absolute
    continuity failure,
  * the entropy (I-)projection onto a TV ball, in closed form,
  * the one CSV writer and the one JSON writer of every output file.
"""
from __future__ import annotations

import csv
import json
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
    def from_weights(weights: Sequence[float]) -> "StateDistribution":
        """Normalise nonnegative weights on {0..len(weights)-1} into a
        distribution."""
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        s = w.sum()
        if s <= 0:
            raise ValueError("weights sum to zero")
        return StateDistribution(w / s, w.shape[0] - 1)

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


def _one_window(items) -> int:
    """The window z_max that all the laws or paths share (0 for none)."""
    windows = sorted({item.z_max for item in items})
    if len(windows) > 1:
        raise TruncationMismatchError(f"inputs on windows {windows}")
    return windows[0] if windows else 0


# ---------------------------------------------------------------------------
# Metric and moments
# ---------------------------------------------------------------------------

def _tv_rows(probs: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Total variation distance of each row of a (..., z_max+1) array to
    the law ``center``, half-L1 convention; clamped to [0, 1], since the
    sum can round above 1 for disjoint supports."""
    gap = probs - center
    np.abs(gap, out=gap)  # in place: one array the size of probs, not two
    return np.minimum(0.5 * gap.sum(axis=-1), 1.0)


def tv_distance(a: StateDistribution, b: StateDistribution) -> float:
    """Total variation distance of two laws on one window."""
    _one_window((a, b))
    return float(_tv_rows(a.probs, b.probs))


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
    _one_window((zeta, nu))
    zp, np_ = zeta.probs, nu.probs
    pos = zp > 0.0
    if np.any(np_[pos] == 0.0):
        return math.inf
    return float(np.sum(zp[pos] * (np.log(zp[pos]) - np.log(np_[pos]))))


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
    z_max = _one_window((nu, center))
    nu_p, c = nu.probs, center.probs
    pi = nu_p / nu_p.sum()
    if _tv_rows(pi, c) <= delta:
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
# Output files: every CSV and JSON file of the program goes through
# _write_csv and _write_json
# ---------------------------------------------------------------------------

def _real(x: float) -> str:
    """A real at 17 significant digits, which round-trips exactly."""
    return format(float(x), ".17g")


def _write_csv(path: str | Path, header: Sequence[str], rows) -> None:
    """The header, then one line per row: reals (numpy's included)
    through ``_real``, every other value as csv writes it."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_real(x) if isinstance(x, float) else x for x in row]
                    for row in rows)


def _write_json(path: str | Path, payload: dict) -> None:
    """Sorted keys, a 2-space indent and a final newline.  A non-finite
    float raises ``ValueError``: JSON has no NaN or Infinity."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# CSV interface of a distribution: header "z,prob", one row per state

def save_distribution_csv(a: StateDistribution, path: str | Path) -> None:
    _write_csv(path, ["z", "prob"], enumerate(a.probs))


def _law_rows(rows, z_max: int | None = None) -> np.ndarray:
    """The probability vector of ``z,prob`` rows (lists of fields) on
    {0..z_max}, or up to the largest state listed when z_max is None;
    states not listed get 0 and empty rows are skipped.  A row that is
    not two numbers, a ``tail`` row, a negative state, a state past
    z_max or a repeated state raises ``ValueError`` naming the row."""
    probs: dict[int, float] = {}
    for row in filter(None, rows):
        line = ",".join(field.strip() for field in row)
        if row[0].strip() == "tail":
            raise ValueError(f"row {line!r}: a distribution has no mass "
                             "beyond its window")
        try:
            key, val = row
            z, p = int(key), float(val)
        except ValueError:
            raise ValueError(f"row {line!r}: expected z,prob") from None
        if z < 0 or z in probs or (z_max is not None and z > z_max):
            raise ValueError(f"row {line!r}: state negative, repeated or "
                             "past the window")
        probs[z] = p
    if not probs:
        raise ValueError("no state rows")
    out = np.zeros((max(probs) if z_max is None else z_max) + 1)
    out[list(probs)] = list(probs.values())
    return out


def load_distribution_csv(path: str | Path) -> StateDistribution:
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, [])
        if [h.strip() for h in header] != ["z", "prob"]:
            raise ValueError(f"bad header {header!r}: expected z,prob")
        p = _law_rows(r)
    total = p.sum()
    if not (1.0 - _IO_MASS_TOL <= total <= 1.0 + _IO_MASS_TOL):
        raise ValueError(f"distribution file sums to {total!r}")
    # renormalise the sub-1e-9 slack so the constructor invariant holds exactly
    p /= total
    return StateDistribution(p, p.shape[0] - 1)
