"""Transition-rate models on the nonnegative integers.

Two edge-set shapes cover everything built here:

  * ``BIRTH_DEATH``        -- forward edges (z, z+1) and backward edges
                              (z, z-1) for z >= 1 (queue-like),
  * ``CHAIN_WITH_RESETS``  -- forward edges (z, z+1) and reset edges
                              (z, 0) for z >= 1 (backoff-like).

A ``RateModel`` bundles the edge shape with one vectorised rate table:
``forward(z, xi)`` and ``backward(z, xi)`` map an array of states z to
the rates lambda(z, z+1, xi) and lambda(z, backward_target(kind, z), xi),
where xi is the current empirical measure.  Everything else -- the
window tables, the drift, the stability and counterexample predicates
-- is derived from these two functions, and :func:`edge_list` is the
one place that orders the edges into flux columns.  The declared
envelope constants lambda_lower / lambda_upper state the paper's decay
condition (A2):

    lambda_lower/(z+1) <= forward(z, xi)  <= lambda_upper/(z+1)
    lambda_lower       <= backward(z, xi) <= lambda_upper

Rate functions must be pure; RateModel values are immutable and
shareable across threads.  The forward rate out of the truncation
level z_max is taken to be zero in every module (reflecting closure),
which conserves probability on the window: no mass ever leaves
{0..z_max}, so a distribution is a probability vector on it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .measures import StateDistribution


class EdgeKind(Enum):
    CHAIN_WITH_RESETS = "chain_with_resets"
    BIRTH_DEATH = "birth_death"


class EdgeNotPresentError(ValueError):
    """A flux plan uses an edge that is not in the model's edge set."""


class InstabilityError(ValueError):
    """No stationary law exists for the requested parameters."""


class MissingBoundsError(ValueError):
    """Operation requires declared rate envelope constants."""


RateFn = Callable[[np.ndarray, np.ndarray], np.ndarray]

# the field a non-interacting model's rate function is given
_NO_FIELD = np.zeros(1)
_NO_FIELD.flags.writeable = False


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
class RateModel:
    """Edge set plus vectorised rate table with declared envelope constants.

    ``forward``/``backward`` take an integer state array z and the field
    probabilities xi and return the rate array of the same shape (the
    backward entry at z = 0 is ignored).  They are the only rate
    representation; hot loops call them through the window tables
    :meth:`forward_rates` and :meth:`backward_rates`, which take the
    field as ``None`` (non-interacting models only) or an array;
    :meth:`drift` calls them directly.

    Stacked fields: the tables and :meth:`drift` also take a stack of B
    fields, shape (B, z_max+1), and return one row per field, each row
    equal to the call with that field alone.  The rate function
    then sees the stack state-axis first: xi has shape (z_max+1, B) and
    z is repeated to the same shape, so ``xi[0]`` is the mass at state 0
    of every field and ``np.full(z.shape, value)`` gives one column per
    field.  A rate function written elementwise in z and in the rows of
    xi serves both calls unchanged.

    ``lipschitz`` is the declared constant L of the rates in the field:
    (z+1)|forward(z, xi) - forward(z, zeta)| <= L d(xi, zeta) and
    |backward(z, xi) - backward(z, zeta)| <= L d(xi, zeta), d the TV
    distance.  The control-form cost of an interacting model sizes its
    rate-freezing pieces with it; a non-interacting model may leave it
    None.
    """

    kind: EdgeKind
    forward: RateFn
    backward: RateFn
    lambda_upper: float
    lambda_lower: float
    interacting: bool
    name: str
    lipschitz: float | None = None

    def _table(self, fn: RateFn, z_max: int, xi: np.ndarray | None,
               zeroed: int) -> np.ndarray:
        """``fn`` on z = 0..z_max, one row per field, with entry ``zeroed``
        set to zero."""
        if xi is None:
            if self.interacting:
                raise ValueError("interacting model needs the mean field xi")
            xi = _NO_FIELD
        if xi.ndim == 2:
            z = np.arange(z_max + 1)[:, None].repeat(xi.shape[0], axis=1)
            out = np.array(fn(z, xi.T), dtype=float).T
            out[:, zeroed] = 0.0
        else:
            out = np.array(fn(np.arange(z_max + 1), xi), dtype=float)
            out[zeroed] = 0.0
        return out

    def forward_rates(self, z_max: int, xi: np.ndarray | None = None
                      ) -> np.ndarray:
        """Forward rates for z = 0..z_max with the boundary rate zeroed."""
        return self._table(self.forward, z_max, xi, z_max)

    def backward_rates(self, z_max: int, xi: np.ndarray | None = None
                       ) -> np.ndarray:
        """Backward/reset rates for z = 0..z_max (entry 0 is zero)."""
        return self._table(self.backward, z_max, xi, 0)

    def drift(self, probs: np.ndarray) -> np.ndarray:
        """Mean-field drift Lambda*_xi xi on the closed window; a stack
        of fields (B, z_max+1) gives one drift row per field."""
        p = np.atleast_2d(probs)
        z = np.arange(p.shape[1])[:, None].repeat(p.shape[0], axis=1)
        # C-order products, so each row sums as a 1-D field does
        fwd = np.multiply(self.forward(z, p.T).T, p, order="C")
        back = np.multiply(self.backward(z, p.T).T, p, order="C")
        fwd[:, -1] = back[:, 0] = 0.0
        v = 0.0 - (fwd + back)
        v[:, 1:] += fwd[:, :-1]
        if self.kind is EdgeKind.CHAIN_WITH_RESETS:
            v[:, 0] += back.sum(axis=-1)
        else:
            v[:, :-1] += back[:, 1:]
        return v if probs.ndim == 2 else v[0]


# ---------------------------------------------------------------------------
# Builtin models
# ---------------------------------------------------------------------------

def _require_positive(**kw: float) -> None:
    for k, v in kw.items():
        if not v > 0:
            raise ValueError(f"{k} must be positive, got {v!r}")


def _constant(value: float) -> RateFn:
    return lambda z, xi: np.full(z.shape, value)


def mm1_model(lambda_f: float, lambda_b: float) -> RateModel:
    """Independent M/M/1 queues: forward lambda_f, backward lambda_b."""
    _require_positive(lambda_f=lambda_f, lambda_b=lambda_b)
    return RateModel(
        kind=EdgeKind.BIRTH_DEATH,
        forward=_constant(lambda_f),
        backward=_constant(lambda_b),
        lambda_upper=max(lambda_f, lambda_b),
        lambda_lower=min(lambda_f, lambda_b),
        interacting=False,
        name="mm1",
    )


def wlan_const_model(lambda_f: float, lambda_b: float) -> RateModel:
    """Backoff chain with constant forward rate and resets to 0."""
    _require_positive(lambda_f=lambda_f, lambda_b=lambda_b)
    return RateModel(
        kind=EdgeKind.CHAIN_WITH_RESETS,
        forward=_constant(lambda_f),
        backward=_constant(lambda_b),
        lambda_upper=max(lambda_f, lambda_b),
        lambda_lower=min(lambda_f, lambda_b),
        interacting=False,
        name="wlan_const",
    )


def wlan_decay_model(lambda_f: float, lambda_b: float) -> RateModel:
    """Backoff chain with 1/(z+1)-decaying forward rate and resets to 0."""
    _require_positive(lambda_f=lambda_f, lambda_b=lambda_b)
    return RateModel(
        kind=EdgeKind.CHAIN_WITH_RESETS,
        forward=lambda z, xi: lambda_f / (z + 1.0),
        backward=_constant(lambda_b),
        lambda_upper=max(lambda_f, lambda_b),
        lambda_lower=min(lambda_f, lambda_b),
        interacting=False,
        name="wlan_decay",
    )


def interacting_wlan_model(kappa: float) -> RateModel:
    """Mean-field backoff chain coupled through the mass at state 0.

    forward(z, xi) = (1 + kappa*xi(0)) / (z+1)
    reset(z, xi)   = 1 + kappa*(1 - xi(0))

    Satisfies the decay envelope with lambda_lower = 1 and
    lambda_upper = 1 + kappa, and is Lipschitz in xi (TV, half-L1) with
    constant at most 2*kappa.  kappa = 0 reduces to wlan_decay(1, 1).
    """
    if not 0.0 <= kappa < 1.0:
        raise ValueError("kappa must lie in [0, 1)")
    return RateModel(
        kind=EdgeKind.CHAIN_WITH_RESETS,
        forward=lambda z, xi: (1.0 + kappa * xi[0]) / (z + 1.0),
        backward=lambda z, xi: np.full(z.shape, 1.0 + kappa * (1.0 - xi[0])),
        lambda_upper=1.0 + kappa,
        lambda_lower=1.0,
        interacting=kappa > 0.0,
        name="interacting_wlan",
        lipschitz=2.0 * kappa,
    )


def is_counterexample(model: RateModel) -> bool:
    """Whether the model is one of the paper's counterexamples.

    Those are the non-interacting chains whose forward rate does not
    decay: it is the same at every state (checked on {0..60}).  That
    covers mm1 and wlan_const for every parameter value.
    """
    if model.interacting:
        return False
    fwd = model.forward(np.arange(61), _NO_FIELD)
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
