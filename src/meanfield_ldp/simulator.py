"""Exact stochastic simulation of the N-particle empirical-measure chain.

One particle at state z jumps along edge (z, z') at rate
lambda_{z,z'}(xi) where xi is the current empirical measure, so the
occupancy-count vector jumps with total rate
sum_z counts[z] * sum_{z'} lambda_{z,z'}(counts/N).  The jump chain is
simulated exactly (exponential holding times, categorical edge choice).

Randomness comes from counter-based Philox streams keyed by
(seed, replica_index): replicas are reproducible bitwise regardless of
how they are scheduled, and aggregation is a commutative sum by
replica index.  Occupation-measure estimators weight events by holding
times at jump epochs, which is exact; thinning only affects path
exports.

For non-interacting models the stationary law of the empirical measure
is the law of N i.i.d. draws from the single-particle stationary law,
so exact stationary sampling is a single multinomial draw.
"""
from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Protocol, Sequence

import numpy as np

from .measures import (StateDistribution, entropy_projection,
                       relative_entropy, theta_values, tv_distance)
from .models import RateModel, single_particle_stationary

RNG_ALGORITHM = "philox4x64"

_Z975 = 1.959963984540054  # two-sided 95% normal quantile

# two-sided 97.5% t quantiles for small batch counts (df 10..30)
_T975 = {10: 2.228, 12: 2.179, 15: 2.131, 19: 2.093, 20: 2.086,
         24: 2.064, 29: 2.045, 30: 2.042}


def _t975(df: int) -> float:
    keys = sorted(_T975)
    for k in keys:
        if df <= k:
            return _T975[k]
    return 1.96


class AbsorbingStateError(RuntimeError):
    """Total jump rate vanished (cannot occur under the decay envelope)."""


class TruncationOverflowError(RuntimeError):
    """A particle reached the truncation boundary in interacting mode."""


def substream(seed: int, replica: int) -> np.random.Generator:
    """Philox generator for one replica; key = (seed, replica)."""
    return np.random.Generator(np.random.Philox(key=[seed, replica]))


# ---------------------------------------------------------------------------
# Run settings and estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    N: int
    seed: int
    horizon: float
    burn_in: float | None = None
    z_max: int = 30
    thinning: float = 0.5

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.burn_in is not None and not self.burn_in < self.horizon:
            raise ValueError("burn_in must be below horizon")

    def resolved_burn_in(self, model: RateModel) -> float:
        if self.burn_in is not None:
            return self.burn_in
        return 20.0 / model.lambda_lower


@dataclass(frozen=True)
class RateEstimate:
    """Monte Carlo estimate of a stationary probability and its LDP rate."""

    event: str
    p_hat: float
    ci_low: float
    ci_high: float
    rate: float
    N: int
    seed: int
    algorithm: str = RNG_ALGORITHM
    lower_bound_only: bool = False

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_hat <= 1.0):
            raise ValueError("p_hat outside [0,1]")
        if not (self.ci_low <= self.p_hat <= self.ci_high):
            raise ValueError("CI must bracket p_hat")


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------

class Event(Protocol):
    """A set of empirical measures, tested a stack at a time: ``batch``
    maps a (B, z_max+1) array of probability rows to a bool[B] mask."""

    def batch(self, probs: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class BallEvent:
    """{ xi : tv(xi, center) <= radius }."""

    center: StateDistribution
    radius: float

    def __call__(self, dist: StateDistribution) -> bool:
        return tv_distance(dist, self.center.retruncate(dist.z_max)) <= self.radius

    def batch(self, probs: np.ndarray) -> np.ndarray:
        gap = probs - self.center.probs[None, :]
        np.abs(gap, out=gap)  # in place: one array the size of probs, not two
        d = 0.5 * gap.sum(axis=1) + 0.5 * self.center.tail_mass
        return d <= self.radius

    def describe(self) -> str:
        return f"ball(radius={self.radius:g})"


@dataclass(frozen=True)
class NotInKMEvent:
    """{ xi : <xi, theta> > M } (complement of the compact class)."""

    M: float
    z_max: int
    theta: np.ndarray = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", theta_values(self.z_max))

    def batch(self, probs: np.ndarray) -> np.ndarray:
        return probs @ self.theta > self.M

    def describe(self) -> str:
        return f"not_in_KM(M={self.M:g})"


@dataclass(frozen=True)
class WholeSpaceEvent:
    def batch(self, probs: np.ndarray) -> np.ndarray:
        return np.ones(probs.shape[0], dtype=bool)

    def describe(self) -> str:
        return "whole_space"


# ---------------------------------------------------------------------------
# Gillespie core
# ---------------------------------------------------------------------------

def gillespie_step(model: RateModel, counts: np.ndarray,
                   rng: np.random.Generator) -> tuple[int, int, float]:
    """One exact jump from the occupancy ``counts``: an exponential
    holding time at the total rate, then an edge (z, z') chosen
    proportionally to its rate.  Returns (z, z', dt) and leaves
    ``counts`` as it is; the caller moves one particle from z to z'."""
    z_max = counts.shape[0] - 1
    if model.interacting and counts[z_max] > 0:
        raise TruncationOverflowError(
            "particle reached z_max; enlarge the window")
    xi = counts / counts.sum()
    fwd = model.forward_rates(z_max, xi) * counts
    back = model.backward_rates(z_max, xi) * counts
    fwd_total = fwd.sum()
    total = float(fwd_total + back.sum())
    if total <= 0.0:
        raise AbsorbingStateError("total jump rate is zero")
    dt = rng.exponential(1.0 / total)
    u = total * rng.random()  # the draw of rng.uniform(0.0, total), bit for bit
    cum = np.concatenate([fwd.cumsum(), fwd_total + back.cumsum()])
    idx = int(cum.searchsorted(u, side="right"))
    if idx <= z_max:
        return idx, idx + 1, dt
    z = idx - z_max - 1
    return z, model.backward_target(z), dt


def simulate_path(model: RateModel, config: SimConfig
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Jump-chain realisation from all N particles at 0, sampled every
    ``thinning`` time units by holding the last jump state.
    Deterministic in (model, config)."""
    rng = substream(config.seed, 0)
    counts = np.zeros(config.z_max + 1, dtype=np.int64)
    counts[0] = config.N
    t = 0.0
    sample_times = np.arange(0.0, config.horizon + 1e-12, config.thinning)
    out = np.zeros((sample_times.shape[0], config.z_max + 1), dtype=np.int64)
    k = 0
    while k < sample_times.shape[0]:
        z, zp, dt = gillespie_step(model, counts, rng)
        while k < sample_times.shape[0] and sample_times[k] <= t + dt:
            out[k] = counts
            k += 1
        t += dt
        counts[z] -= 1
        counts[zp] += 1
    return sample_times, out


_BLOCK = 512  # held states per batched event evaluation


def _occupation(model: RateModel, config: SimConfig, events: Sequence[Event],
                replica: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time-weighted occupation of several events along one run.

    Returns (occupied_time[e], batch_lengths[b], batch_fractions[e, b])
    over 20 equal post-burn-in batches.  Held states are evaluated
    ``_BLOCK`` at a time through ``Event.batch``; their holding pieces
    are then added in jump order, so every sum rounds as it would one
    jump at a time."""
    rng = substream(config.seed, replica)
    burn = config.resolved_burn_in(model)
    if not burn < config.horizon:
        raise ValueError(f"burn-in {burn!r} is not below the horizon "
                         f"{config.horizon!r}")
    counts = np.zeros(config.z_max + 1, dtype=np.int64)
    counts[0] = config.N
    n_batches = 20
    batch_len = (config.horizon - burn) / n_batches
    occupied = np.zeros((len(events), n_batches))
    lengths = np.zeros(n_batches)
    held = np.empty((_BLOCK, config.z_max + 1))
    pieces: list[tuple[int, int, float]] = []  # (row of held, batch, weight)

    def flush(k: int) -> None:
        if not pieces:
            return
        hits = np.empty((len(events), k), dtype=bool)
        for i, ev in enumerate(events):
            hits[i] = ev.batch(held[:k])
        rows, js, ws = (np.array(c) for c in zip(*pieces))
        # ufunc.at adds in index order: each cell sums in jump order
        np.add.at(occupied, (slice(None), js), ws * hits[:, rows])
        np.add.at(lengths, js, ws)
        pieces.clear()

    k = 0
    t = 0.0
    while t < config.horizon:
        z, zp, dt = gillespie_step(model, counts, rng)
        a, b = t, min(t + dt, config.horizon)
        if b > burn:
            lo = max(a, burn)
            np.divide(counts, config.N, out=held[k])
            # spread the holding interval across the batch grid
            j0 = int((lo - burn) / batch_len)
            j1 = int((b - burn) / batch_len)
            for j in range(j0, min(j1, n_batches - 1) + 1):
                seg_lo = burn + j * batch_len
                seg_hi = seg_lo + batch_len
                w = max(0.0, min(b, seg_hi) - max(lo, seg_lo))
                pieces.append((k, j, w))
            k += 1
            if k == _BLOCK:
                flush(k)
                k = 0
        t += dt
        counts[z] -= 1
        counts[zp] += 1
    flush(k)
    fractions = occupied / np.maximum(lengths, 1e-300)[None, :]
    return occupied.sum(axis=1), lengths, fractions


def _estimate_from_batches(name: str, occ: float, fractions: np.ndarray,
                           total: float, N: int, seed: int) -> RateEstimate:
    n_b = fractions.shape[0]
    if occ <= 0.0:
        p_ub = min(1.0, 3.0 / n_b)
        rate = -math.log(p_ub) / N
        return RateEstimate(name, 0.0, 0.0, p_ub, rate, N, seed,
                            lower_bound_only=True)
    p_hat = occ / total
    half = _t975(n_b - 1) * float(fractions.std(ddof=1)) / math.sqrt(n_b)
    lo = max(0.0, p_hat - half)
    hi = min(1.0, p_hat + half)
    return RateEstimate(name, p_hat, lo, hi, -math.log(p_hat) / N, N, seed)


def estimate_invariant_multi(model: RateModel, config: SimConfig,
                             events: Sequence[Event],
                             names: Sequence[str] | None = None
                             ) -> list[RateEstimate]:
    """Occupation estimates for several events sharing one long run.

    Each event is tested through ``batch`` on stacks of the empirical
    measures the run holds (see ``estimate_invariant``)."""
    names = names or [getattr(ev, "describe", lambda: "event")()
                      for ev in events]
    occ, lengths, fractions = _occupation(model, config, events, replica=0)
    total = float(lengths.sum())
    return [_estimate_from_batches(nm, float(o), fr, total, config.N,
                                   config.seed)
            for nm, o, fr in zip(names, occ, fractions)]


def estimate_invariant(model: RateModel, config: SimConfig, event: Event,
                       event_name: str | None = None) -> RateEstimate:
    """Occupation estimate of the stationary probability of an event.

    The event is evaluated through ``event.batch`` on the empirical
    measures held between jumps, weighted by holding times (exact for
    occupation measures).  The confidence interval is a
    batch-means interval over 20 post-burn-in batches; zero observed
    occupancy falls back to a one-sided rule-of-three bound over the
    batch count, and the rate is then reported as a lower bound.
    """
    name = event_name or getattr(event, "describe", lambda: "event")()
    return estimate_invariant_multi(model, config, [event], [name])[0]


def burn_in_diagnostic(model: RateModel, config: SimConfig,
                       event: Event) -> float:
    """|first-half - second-half| occupation gap (post burn-in) of an
    event tested through ``event.batch``."""
    _, _, fractions = _occupation(model, config, [event], replica=0)
    h = fractions.shape[1] // 2
    return abs(float(fractions[0, :h].mean()) - float(fractions[0, h:].mean()))


# ---------------------------------------------------------------------------
# Exact i.i.d. stationary sampling (non-interacting models)
# ---------------------------------------------------------------------------

def sample_iid_stationary(model: RateModel, N: int, rng: np.random.Generator,
                          z_max: int = 30) -> np.ndarray:
    """Exact draw from the stationary empirical-measure law: N i.i.d.
    single-particle stationary states, binned into int64 counts."""
    if model.interacting:
        raise ValueError("exact i.i.d. sampling needs a non-interacting model")
    pi = single_particle_stationary(model, z_max)
    return rng.multinomial(N, pi.probs).astype(np.int64)


def _wilson(hits: int, n: int) -> tuple[float, float]:
    z = _Z975
    if n == 0:
        return 0.0, 1.0
    p = hits / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if hits == 0 else max(0.0, centre - half)
    hi = 1.0 if hits == n else min(1.0, centre + half)
    return lo, hi


def _tilted_estimate(name: str, event: "BallEvent", pi: StateDistribution,
                     zeta: StateDistribution, N: int, n: int, seed: int,
                     rng: np.random.Generator, chunk: int) -> RateEstimate:
    """Importance-sampled stationary probability of a ball event that
    pi lies outside: multinomials from the I-projection zeta of pi onto
    the ball, each hit weighted by its likelihood ratio
    w = prod (pi_z / zeta_z)^{c_z}.

    Csiszar's inequality for I-projections onto convex sets bounds
    log w <= -N I(zeta || pi) on the ball, so the weights are carried
    scaled by exp(N I(zeta || pi)), which keeps every hit in [0, 1] and
    the rate finite when p_hat itself underflows.
    """
    support = zeta.probs > 0.0
    log_ratio = np.zeros(zeta.z_max + 1)
    log_ratio[support] = np.log(pi.probs[support] / zeta.probs[support])
    log_ceiling = N * relative_entropy(zeta, pi)
    hit_weights = []
    remaining = n
    while remaining > 0:
        m = min(chunk, remaining)
        draws = rng.multinomial(N, zeta.probs, size=m) / N
        hit = event.batch(draws)
        log_w = N * (draws @ log_ratio)[hit] + log_ceiling
        hit_weights.append(np.exp(log_w))
        remaining -= m
    w = np.concatenate(hit_weights)
    scale = math.exp(-log_ceiling)
    if w.size == 0:
        # rule of three under zeta, carried through the weight ceiling
        p_ub = min(1.0, 3.0 / n)
        return RateEstimate(name, 0.0, 0.0, p_ub * scale,
                            (log_ceiling - math.log(p_ub)) / N, N, seed,
                            lower_bound_only=True)
    mean = float(w.sum()) / n
    var = (float(((w - mean) ** 2).sum()) + (n - w.size) * mean * mean) \
        / max(n - 1, 1)
    half = _Z975 * math.sqrt(var / n)
    return RateEstimate(name, min(1.0, mean * scale),
                        max(0.0, mean - half) * scale,
                        min(1.0, (mean + half) * scale),
                        (log_ceiling - math.log(mean)) / N, N, seed)


# run length of each occupation estimate in an interacting rate curve
_RATE_CURVE_HORIZON = 200.0


def estimate_rate_curve(model: RateModel, event, N_list: Sequence[int],
                        samples_per_N: int, seed: int, z_max: int = 30,
                        threads: int | None = None,
                        importance: bool = True) -> list[RateEstimate]:
    """Monte Carlo decay-rate curve -(1/N) log p_hat over N.

    Non-interacting models sample the stationary empirical measure
    exactly.  A ``BallEvent`` whose center lies farther than its radius
    from the stationary law pi is estimated by importance sampling from
    the I-projection of pi onto the ball (``entropy_projection``),
    which stays efficient at any N (Sadowsky & Bucklew 1990): the ball
    of radius 0.1 about the point mass at 0 under mm1(1, 2), of
    probability ~e^-150 at N = 400, is resolved to a relative error
    below one percent with 10^6 draws.  Its interval is a normal
    interval from the sample variance of the weights.  Every other
    event, and every event when ``importance`` is false, uses plain
    i.i.d. sampling from pi with a Wilson interval.  Interacting models
    fall back to occupation estimates over runs of length
    ``_RATE_CURVE_HORIZON``.  All-zero hit counts are
    reported as lower-bound-only through the rule of three.  Each N
    draws from its own ``substream(seed, i)``, so results do not depend
    on ``threads``.
    """
    results: list[RateEstimate] = []
    name = getattr(event, "describe", lambda: "event")()
    if model.interacting:
        for i, N in enumerate(N_list):
            cfg = SimConfig(N=N, seed=seed + i, horizon=_RATE_CURVE_HORIZON,
                            z_max=z_max)
            results.append(estimate_invariant(model, cfg, event, name))
        return results
    pi = single_particle_stationary(model, z_max)
    zeta = None
    if importance and isinstance(event, BallEvent) and not event(pi):
        zeta = entropy_projection(pi, event.center, event.radius, z_max)
    # 25,000 rows per chunk: each thread holds a few chunk-sized arrays at
    # once, and the draws do not depend on the chunk size
    chunk = max(1, min(25_000, samples_per_N))

    def one(i_N: tuple[int, int]) -> RateEstimate:
        i, N = i_N
        rng = substream(seed, i)
        if zeta is not None:
            return _tilted_estimate(name, event, pi, zeta, N, samples_per_N,
                                    seed, rng, chunk)
        hits = 0
        remaining = samples_per_N
        while remaining > 0:
            m = min(chunk, remaining)
            draws = rng.multinomial(N, pi.probs, size=m) / N
            hits += int(event.batch(draws).sum())
            remaining -= m
        if hits == 0:
            p_ub = min(1.0, 3.0 / samples_per_N)
            rate = -math.log(p_ub) / N
            return RateEstimate(name, 0.0, 0.0, p_ub, rate, N, seed,
                                lower_bound_only=True)
        p_hat = hits / samples_per_N
        lo, hi = _wilson(hits, samples_per_N)
        return RateEstimate(name, p_hat, lo, hi, -math.log(p_hat) / N, N, seed)

    work = list(enumerate(N_list))
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(one, work))
    else:
        results = [one(w) for w in work]
    return results


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def save_rate_estimates(rows: Iterable[RateEstimate], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["N", "event", "p_hat", "ci_low", "ci_high", "rate",
                    "seed", "algorithm"])
        for r in rows:
            w.writerow([r.N, r.event, format(r.p_hat, ".17g"),
                        format(r.ci_low, ".17g"), format(r.ci_high, ".17g"),
                        format(r.rate, ".17g"), r.seed, r.algorithm])


def save_counts_path(times: np.ndarray, counts: np.ndarray, N: int,
                     path: str | Path, replica: int = 0) -> None:
    """Path dump in the long t,z,prob format with a replica column."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "z", "prob", "replica"])
        for t, row in zip(times, counts):
            for z, c in enumerate(row):
                w.writerow([format(float(t), ".17g"), z,
                            format(c / N, ".17g"), replica])
