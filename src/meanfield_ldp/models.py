"""Transition-rate models on the nonnegative integers.

Two edge-set shapes cover everything built here:

  * ``BIRTH_DEATH``        -- forward edges (z, z+1) and backward edges
                              (z, z-1) for z >= 1 (queue-like),
  * ``CHAIN_WITH_RESETS``  -- forward edges (z, z+1) and reset edges
                              (z, 0) for z >= 1 (backoff-like).

A ``RateModel`` bundles the edge shape with one :class:`AffineRate` per
edge family: the rates lambda(z, z+1, xi) and
lambda(z, backward_target(kind, z), xi) are affine in the current
empirical measure xi,

    lambda(z, xi) = a(z) + sum_y B(z, y) xi(y),

declared by the base a and the nonzero columns of B.  Everything else
-- the window tables, the drift, the stability and counterexample
predicates -- is derived from these coefficients, and :func:`edge_list`
is the one place that orders the edges into flux columns.  The declared
envelope constants lambda_lower / lambda_upper state the paper's decay
condition (A2):

    lambda_lower/(z+1) <= lambda(z, z+1, xi) <= lambda_upper/(z+1)
    lambda_lower       <= lambda(z, z', xi)  <= lambda_upper  (z' <= z)

RateModel values are immutable and shareable across threads.  The
forward rate out of the truncation level z_max is taken to be zero in
every module (reflecting closure), which conserves probability on the
window: no mass ever leaves {0..z_max}, so a distribution is a
probability vector on it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .measures import StateDistribution


class EdgeKind(Enum):
    CHAIN_WITH_RESETS = "chain_with_resets"
    BIRTH_DEATH = "birth_death"


class EdgeNotPresentError(ValueError):
    """A flux plan uses an edge that is not in the model's edge set."""


class InstabilityError(ValueError):
    """No stationary law exists for the requested parameters."""


# a coefficient of an affine rate: an integer state array z to the float
# array of its values, of the same shape
Coefficient = Callable[[np.ndarray], np.ndarray]


def backward_target(kind: EdgeKind, z):
    """Where the backward edge out of state z >= 1 ends."""
    return 0 if kind is EdgeKind.CHAIN_WITH_RESETS else z - 1


@functools.lru_cache(maxsize=None)
def edge_list(kind: EdgeKind, z_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Source and target states of every edge inside the window, in
    flux-column order: the forward edges (z, z+1) for z < z_max, then
    the backward edge out of each z = 1..z_max.  The forward edge out of
    z_max is dropped.  The arrays are shared and read-only."""
    z = np.arange(1, z_max + 1)
    src = np.concatenate([z - 1, z])
    dst = np.concatenate([z, np.broadcast_to(backward_target(kind, z),
                                             z.shape)])
    src.flags.writeable = dst.flags.writeable = False
    return src, dst


@dataclass(frozen=True)
class AffineRate:
    """The rate of one edge family, affine in the field:

        lambda(z, xi) = base(z) + sum over (y, coef) in coupling
                                  of xi(y) coef(z),

    so ``coef`` is column y of the coupling matrix B.  ``base`` and each
    ``coef`` map an integer state array to the float array of their
    values.  A family without coupling does not depend on the field."""

    base: Coefficient
    coupling: tuple[tuple[int, Coefficient], ...] = ()


class RateWindow(NamedTuple):
    """An :class:`AffineRate` on the window z = 0..z_max: its base and
    coupling columns as read-only arrays, each zero at the entry of the
    edge that leaves the window."""

    base: np.ndarray
    coupling: tuple[tuple[int, np.ndarray], ...]

    def at(self, xi: np.ndarray) -> np.ndarray:
        """The rate table at a field, or one row per field of a
        (..., z_max+1) stack: base + xi(y) c_y, added in the declared
        order, so each row rounds as its field alone does.  Without
        coupling it is the base row itself, which broadcasts."""
        out = self.base
        for y, c in self.coupling:
            out = out + xi[..., y, None] * c
        return out


def _on_window(rate: AffineRate, z_max: int, zeroed: int) -> RateWindow:
    """``rate`` on z = 0..z_max, every array zero at ``zeroed``."""
    z = np.arange(z_max + 1)

    def values(fn: Coefficient) -> np.ndarray:
        arr = np.array(fn(z), dtype=float)
        arr[zeroed] = 0.0
        arr.flags.writeable = False
        return arr

    return RateWindow(values(rate.base),
                      tuple((y, values(coef)) for y, coef in rate.coupling))


@dataclass(frozen=True)
class RateModel:
    """Edge set plus one affine rate per edge family, with declared
    envelope constants.

    ``forward`` rates the edges (z, z+1) and ``backward`` the edge out of
    each z >= 1 (its value at z = 0 is ignored).  The window tables
    :meth:`forward_rates` and :meth:`backward_rates` take the field as
    ``None`` (non-interacting models only) or an array; a stack of
    fields, shape (..., z_max+1), gives one row per field, each equal to
    the call with that field alone, and so does :meth:`drift`.  All of
    them read the coefficients of :meth:`window`.
    """

    kind: EdgeKind
    forward: AffineRate
    backward: AffineRate
    lambda_upper: float
    lambda_lower: float
    name: str
    _windows: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    @property
    def interacting(self) -> bool:
        """Whether a rate depends on the field."""
        return bool(self.forward.coupling or self.backward.coupling)

    def window(self, z_max: int) -> tuple[RateWindow, RateWindow]:
        """The forward and backward coefficients on z = 0..z_max, built
        once per z_max and shared."""
        w = self._windows.get(z_max)
        if w is None:
            w = self._windows[z_max] = (_on_window(self.forward, z_max, z_max),
                                        _on_window(self.backward, z_max, 0))
        return w

    def _table(self, family: int, z_max: int, xi: np.ndarray | None
               ) -> np.ndarray:
        w = self.window(z_max)[family]
        if xi is None:
            if self.interacting:
                raise ValueError("interacting model needs the mean field xi")
            return w.base
        return w.at(xi) if w.coupling else np.broadcast_to(w.base, xi.shape)

    def forward_rates(self, z_max: int, xi: np.ndarray | None = None
                      ) -> np.ndarray:
        """Forward rates for z = 0..z_max with the boundary rate zeroed."""
        return self._table(0, z_max, xi)

    def backward_rates(self, z_max: int, xi: np.ndarray | None = None
                       ) -> np.ndarray:
        """Backward/reset rates for z = 0..z_max (entry 0 is zero)."""
        return self._table(1, z_max, xi)

    def drift(self, probs: np.ndarray) -> np.ndarray:
        """Mean-field drift Lambda*_xi xi on the closed window; a stack
        of fields (..., z_max+1) gives one drift row per field."""
        fwd_w, back_w = self.window(probs.shape[-1] - 1)
        fwd = fwd_w.at(probs) * probs
        back = back_w.at(probs) * probs
        v = 0.0 - (fwd + back)
        v[..., 1:] += fwd[..., :-1]
        if self.kind is EdgeKind.CHAIN_WITH_RESETS:
            v[..., 0] += back.sum(axis=-1)
        else:
            v[..., :-1] += back[..., 1:]
        return v


# ---------------------------------------------------------------------------
# Builtin models
# ---------------------------------------------------------------------------

def _require_positive(**kw: float) -> None:
    for k, v in kw.items():
        if not v > 0:
            raise ValueError(f"{k} must be positive, got {v!r}")


def _constant(value: float) -> Coefficient:
    return lambda z: np.full(z.shape, value)


def mm1_model(lambda_f: float, lambda_b: float) -> RateModel:
    """Independent M/M/1 queues: forward lambda_f, backward lambda_b."""
    _require_positive(lambda_f=lambda_f, lambda_b=lambda_b)
    return RateModel(
        kind=EdgeKind.BIRTH_DEATH,
        forward=AffineRate(_constant(lambda_f)),
        backward=AffineRate(_constant(lambda_b)),
        lambda_upper=max(lambda_f, lambda_b),
        lambda_lower=min(lambda_f, lambda_b),
        name="mm1",
    )


def wlan_const_model(lambda_f: float, lambda_b: float) -> RateModel:
    """Backoff chain with constant forward rate and resets to 0."""
    _require_positive(lambda_f=lambda_f, lambda_b=lambda_b)
    return RateModel(
        kind=EdgeKind.CHAIN_WITH_RESETS,
        forward=AffineRate(_constant(lambda_f)),
        backward=AffineRate(_constant(lambda_b)),
        lambda_upper=max(lambda_f, lambda_b),
        lambda_lower=min(lambda_f, lambda_b),
        name="wlan_const",
    )


def wlan_decay_model(lambda_f: float, lambda_b: float) -> RateModel:
    """Backoff chain with 1/(z+1)-decaying forward rate and resets to 0."""
    _require_positive(lambda_f=lambda_f, lambda_b=lambda_b)
    return RateModel(
        kind=EdgeKind.CHAIN_WITH_RESETS,
        forward=AffineRate(lambda z: lambda_f / (z + 1.0)),
        backward=AffineRate(_constant(lambda_b)),
        lambda_upper=max(lambda_f, lambda_b),
        lambda_lower=min(lambda_f, lambda_b),
        name="wlan_decay",
    )


def interacting_wlan_model(kappa: float) -> RateModel:
    """Mean-field backoff chain coupled through the mass at state 0.

    forward(z, xi) = 1/(z+1) + xi(0) kappa/(z+1)
    reset(z, xi)   = (1 + kappa) - xi(0) kappa

    Satisfies the decay envelope with lambda_lower = 1 and
    lambda_upper = 1 + kappa.  kappa = 0 declares no coupling and
    reduces to wlan_decay(1, 1).
    """
    if not 0.0 <= kappa < 1.0:
        raise ValueError("kappa must lie in [0, 1)")
    coupled = kappa > 0.0
    return RateModel(
        kind=EdgeKind.CHAIN_WITH_RESETS,
        forward=AffineRate(lambda z: 1.0 / (z + 1.0),
                           ((0, lambda z: kappa / (z + 1.0)),) if coupled
                           else ()),
        backward=AffineRate(_constant(1.0 + kappa),
                            ((0, _constant(-kappa)),) if coupled else ()),
        lambda_upper=1.0 + kappa,
        lambda_lower=1.0,
        name="interacting_wlan",
    )


def is_counterexample(model: RateModel) -> bool:
    """Whether the model is one of the paper's counterexamples.

    Those are the non-interacting chains whose forward rate does not
    decay: its base is the same at every state (checked on {0..60}).
    That covers mm1 and wlan_const for every parameter value.
    """
    if model.interacting:
        return False
    fwd = model.forward.base(np.arange(61))
    return bool(np.all(fwd == fwd[0]))


# ---------------------------------------------------------------------------
# Stationary laws
# ---------------------------------------------------------------------------

def has_stationary_law(model: RateModel, z_max: int) -> bool:
    """Whether the chain keeps a stationary law as the window grows.

    Reset chains always return to 0.  A birth-death chain has none once
    forward(z_max - 1) / backward(z_max) >= 1, i.e. once it stops
    drifting back from the window edge; for mm1 that is
    lambda_f >= lambda_b.
    """
    return (model.kind is not EdgeKind.BIRTH_DEATH
            or model.forward_rates(z_max)[-2]
            < model.backward_rates(z_max)[-1])


# smallest window on which stationary laws are computed
MIN_Z_MAX = 10


def single_particle_stationary(model: RateModel, z_max: int,
                               frozen_field: StateDistribution | None = None
                               ) -> StateDistribution:
    """Stationary law of one particle on the closed window {0..z_max}.

    Solves the balance equations of the (frozen-field) single-particle
    generator in product form, in the log domain, which is exact on the
    closed window for both edge shapes and stable in the deep tail.  It
    needs backward rates that do not depend on the state, as every
    builtin model has: birth-death chains satisfy detailed balance
    pi(z+1) b = pi(z) f(z); reset chains satisfy the cut balance
    T(z+1)/T(z) = f(z)/(r + f(z)) for the upper-tail sums T.  Other
    models raise ``ValueError``.  Interacting models must supply
    ``frozen_field``.
    """
    if z_max < MIN_Z_MAX:
        raise ValueError(f"truncation too small: z_max >= {MIN_Z_MAX} required")
    if model.interacting and frozen_field is None:
        raise ValueError("interacting model needs a frozen mean field")
    xi = frozen_field.probs if frozen_field is not None else None
    fwd = model.forward_rates(z_max, xi)
    back = model.backward_rates(z_max, xi)
    # the test of has_stationary_law, on the tables at hand
    if model.kind is EdgeKind.BIRTH_DEATH and not fwd[-2] < back[-1]:
        raise InstabilityError(f"{model.name}: forward rate >= backward rate "
                               "at the window edge, no stationary law")
    if np.ptp(back[1:]) > 1e-15 * max(back[1:].max(), 1.0):
        raise ValueError(f"{model.name}: backward rates depend on the state, "
                         "so the stationary law has no product form")
    if model.kind is EdgeKind.BIRTH_DEATH:
        log_pi = np.cumsum(np.concatenate(
            [[0.0], np.log(fwd[:-1]) - np.log(back[1:])]))
        log_pi -= log_pi.max()
        pi = np.exp(log_pi)
    else:
        r = float(back[1])
        log_ratio = np.log(fwd[:-1]) - np.log(r + fwd[:-1])
        log_T = np.concatenate([[0.0], np.cumsum(log_ratio)])  # T_0 .. T_zmax
        # pi(z) = T_z - T_{z+1} = T_z * (1 - ratio_z); pi(z_max) = T_{z_max}
        pi = np.empty(z_max + 1)
        with np.errstate(under="ignore"):
            T = np.exp(log_T)
        pi[:-1] = T[:-1] - T[1:]
        pi[-1] = T[-1]
    return StateDistribution(pi / pi.sum(), z_max)
