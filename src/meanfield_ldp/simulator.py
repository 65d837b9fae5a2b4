"""Exact stochastic simulation of the N-particle empirical-measure chain.

One particle at state z jumps along edge (z, z') at rate
lambda_{z,z'}(xi) where xi is the current empirical measure, so the
occupancy-count vector jumps with total rate
sum_z counts[z] * sum_{z'} lambda_{z,z'}(counts/N).  The jump chain is
simulated exactly (exponential holding times, categorical edge choice).

Randomness comes from counter-based Philox streams keyed by
(seed, stream index): ``estimate_invariant_multi`` draws from stream 0
of its seed and each N of a rate curve from its own stream i, so a rate
curve does not depend on how its N are scheduled across threads.

An occupation run keeps one ``JumpWorkspace``: the occupancy, the
buffers every jump reuses and the rate tables, memoised by the counts
at the states the model couples through.  Each jump weighs its table by
the counts and moves one particle with two scalar writes; its draws,
weights and sums are bitwise those of a loop that rebuilds the zeroed
rate tables at every jump, so the estimates are too.
Occupation-measure estimators weight events by holding times at jump
epochs, which is exact.

For non-interacting models the stationary law of the empirical measure
is the law of N i.i.d. draws from the single-particle stationary law,
so exact stationary sampling is a single multinomial draw.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np

from .measures import (StateDistribution, _tv_rows, _write_csv,
                       entropy_projection, relative_entropy, theta_values,
                       tv_distance)
from .models import RateModel, backward_target, single_particle_stationary

RNG_ALGORITHM = "philox4x64"

_Z975 = 1.959963984540054  # two-sided 95% normal quantile

_N_BATCHES = 20  # post-burn-in batches of an occupation estimate
_T975 = 2.093  # two-sided 95% t quantile at _N_BATCHES - 1 = 19 df


class AbsorbingStateError(RuntimeError):
    """Total jump rate vanished (cannot occur under the decay envelope)."""


class TruncationOverflowError(RuntimeError):
    """An interacting run reached z_max, whose forward rate the window cuts."""


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

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.burn_in is not None and not 0 <= self.burn_in < self.horizon:
            raise ValueError("burn_in must be in [0, horizon)")


def resolve_burn_in(burn_in: float | None, model: RateModel) -> float:
    """The burn-in a run uses: ``burn_in`` when set, else 20 / lambda_lower."""
    return 20.0 / model.lambda_lower if burn_in is None else burn_in


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
    maps a (B, z_max+1) array of probability rows to a bool[B] mask;
    ``describe`` is the event's name in estimate outputs."""

    def batch(self, probs: np.ndarray) -> np.ndarray: ...

    def describe(self) -> str: ...


@dataclass(frozen=True)
class BallEvent:
    """{ xi : tv(xi, center) <= radius }."""

    center: StateDistribution
    radius: float

    def batch(self, probs: np.ndarray) -> np.ndarray:
        return _tv_rows(probs, self.center.probs) <= self.radius

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


# ---------------------------------------------------------------------------
# Gillespie core
# ---------------------------------------------------------------------------

class JumpWorkspace:
    """The occupancy ``counts`` of one run, the buffers its jumps reuse
    and its own memo ``tables``, from the counts at the ``coupled``
    states to the window tables at counts / N (row 0 forward, row 1
    backward, zero on the edges that leave the window, so a table times
    ``counts`` weighs every edge inside it).  ``edges`` holds the
    (z, z') of each flat slot of the weights.  ``truncates`` says whether
    a particle at z_max overflows the run.
    """

    def __init__(self, model: RateModel, counts: np.ndarray) -> None:
        # floats holding whole numbers: counts / N divides as the
        # integer counts would, without a cast on every jump
        self.counts = np.array(counts, dtype=float)
        self.N = float(self.counts.sum())
        z_max = self.counts.shape[0] - 1
        # whether the window cuts a declared nonzero forward rate out of z_max
        self.truncates = model.interacting and any(
            fn(np.array([z_max]))[0] != 0.0 for fn in
            (model.forward.base, *(c for _, c in model.forward.coupling)))
        self.window = model.window(z_max)
        self.coupled = tuple(sorted({y for w in self.window
                                     for y, _ in w.coupling}))
        self.tables: dict[tuple[float, ...], np.ndarray] = {}
        self.edges = [(z, z + 1) for z in range(z_max + 1)] + [
            (z, backward_target(model.kind, z)) for z in range(z_max + 1)]
        # C-contiguous (2, z_max+1): row sums and row cumulative sums
        # round as the 1-D reductions of each row do, and the flat view
        # of the cumulative weights lists the forward edges, then the
        # backward ones
        self.weights = np.empty((2, z_max + 1))
        self.cum = np.empty_like(self.weights)
        self.cum_flat = self.cum.reshape(-1)
        self.cum_back = self.cum[1]


def gillespie_step(work: JumpWorkspace, rng: np.random.Generator
                   ) -> tuple[int, int, float]:
    """One exact jump from the occupancy held in ``work``: an exponential
    holding time at the total rate, then an edge (z, z') chosen
    proportionally to its rate.  Returns (z, z', dt) and writes no field:
    the caller keeps the held counts and moves one particle from z to z'
    in ``work.counts``.  A total rate that is not positive, or is
    NaN, raises ``AbsorbingStateError``."""
    counts = work.counts
    if work.truncates and counts[-1] > 0:
        raise TruncationOverflowError(
            "particle reached z_max; enlarge the window")
    key = tuple(map(counts.item, work.coupled))
    table = work.tables.get(key)
    if table is None:  # the first visit of these coupled counts
        xi = counts / work.N
        table = work.tables[key] = np.array([w.at(xi) for w in work.window])
    np.multiply(table, counts, out=work.weights)
    fwd_total, back_total = np.add.reduce(work.weights, axis=1)
    total = float(fwd_total + back_total)
    if not total > 0.0:
        raise AbsorbingStateError(f"total jump rate {total!r} is not positive")
    dt = rng.exponential(1.0 / total)
    u = total * rng.random()  # the draw of rng.uniform(0.0, total), bit for bit
    np.add.accumulate(work.weights, axis=1, out=work.cum)  # the cumsum
    np.add(work.cum_back, fwd_total, out=work.cum_back)
    z, zp = work.edges[int(work.cum_flat.searchsorted(u, side="right"))]
    return z, zp, dt


_BLOCK = 512  # held states per batched event evaluation


def _occupation(model: RateModel, config: SimConfig, events: Sequence[Event],
                replica: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time-weighted occupation of several events along one run.

    Returns (occupied_time[e], batch_lengths[b], batch_fractions[e, b])
    over ``_N_BATCHES`` equal post-burn-in batches.  Each jump copies its
    held counts into a block of ``_BLOCK`` rows and its clock interval
    next to it; a full block is divided by N at once, evaluated through
    ``Event.batch``, and its holding intervals are split across the
    batch grid, the pieces added in jump order, so every sum rounds as
    it would one jump at a time."""
    rng = substream(config.seed, replica)
    burn = resolve_burn_in(config.burn_in, model)
    if not burn < config.horizon:
        raise ValueError(f"burn-in {burn!r} is not below the horizon "
                         f"{config.horizon!r}")
    counts = np.zeros(config.z_max + 1)
    counts[0] = config.N
    work = JumpWorkspace(model, counts)
    counts = work.counts  # the run's own copy, which each jump moves
    n_batches = _N_BATCHES
    batch_len = (config.horizon - burn) / n_batches
    occupied = np.zeros((len(events), n_batches))
    lengths = np.zeros(n_batches)
    held = np.empty((_BLOCK, config.z_max + 1))
    clock = np.empty((2, _BLOCK))  # the clock before and after each held jump

    def flush(k: int) -> None:
        lo = np.maximum(clock[0, :k], burn)
        hi = np.minimum(clock[1, :k], config.horizon)
        j0 = ((lo - burn) / batch_len).astype(np.int64)
        j1 = np.minimum(((hi - burn) / batch_len).astype(np.int64),
                        n_batches - 1)
        # the batches each holding interval meets, j0..j1, in jump order
        n_pieces = np.maximum(j1 + 1 - j0, 0)
        rows = np.repeat(np.arange(k), n_pieces)
        js = (np.arange(rows.shape[0])
              + np.repeat(j0 + n_pieces - np.cumsum(n_pieces), n_pieces))
        seg_lo = burn + js * batch_len
        seg_hi = seg_lo + batch_len
        ws = np.maximum(0.0, np.minimum(hi[rows], seg_hi)
                        - np.maximum(lo[rows], seg_lo))
        probs = held[:k] / config.N
        hits = np.empty((len(events), k), dtype=bool)
        for i, ev in enumerate(events):
            hits[i] = ev.batch(probs)
        # ufunc.at adds in index order: each cell sums in jump order
        np.add.at(occupied, (slice(None), js), ws * hits[:, rows])
        np.add.at(lengths, js, ws)

    k = 0
    t = 0.0
    while t < config.horizon:
        z, zp, dt = gillespie_step(work, rng)
        t_next = t + dt
        if t_next > burn:  # some of the holding interval is past burn-in
            held[k] = counts
            clock[0, k] = t
            clock[1, k] = t_next
            k += 1
            if k == _BLOCK:
                flush(k)
                k = 0
        counts[z] -= 1.0
        counts[zp] += 1.0
        t = t_next
    flush(k)
    fractions = occupied / np.maximum(lengths, 1e-300)[None, :]
    return occupied.sum(axis=1), lengths, fractions


def _rule_of_three(name: str, n: int, N: int, seed: int,
                   log_scale: float = 0.0) -> RateEstimate:
    """The one-sided bound p <= 3/n after n trials without a hit, as a
    lower-bound-only estimate; a hit weight carried scaled by
    exp(log_scale) scales the bound by exp(-log_scale)."""
    p_ub = min(1.0, 3.0 / n)
    return RateEstimate(name, 0.0, 0.0, p_ub * math.exp(-log_scale),
                        -(math.log(p_ub) - log_scale) / N, N, seed,
                        lower_bound_only=True)


def _estimate_from_batches(name: str, occ: float, fractions: np.ndarray,
                           total: float, N: int, seed: int) -> RateEstimate:
    n_b = fractions.shape[0]
    if occ <= 0.0:
        return _rule_of_three(name, n_b, N, seed)
    p_hat = occ / total
    half = _T975 * float(fractions.std(ddof=1)) / math.sqrt(n_b)
    lo = max(0.0, p_hat - half)
    hi = min(1.0, p_hat + half)
    return RateEstimate(name, p_hat, lo, hi, -math.log(p_hat) / N, N, seed)


def estimate_invariant_multi(model: RateModel, config: SimConfig,
                             events: Sequence[Event]) -> list[RateEstimate]:
    """Occupation estimates of the stationary probabilities of several
    events, sharing one long run.

    Each event is evaluated through ``batch`` on stacks of the empirical
    measures held between jumps, weighted by holding times (exact for
    occupation measures).  The confidence interval is a batch-means
    interval over ``_N_BATCHES`` post-burn-in batches; zero observed
    occupancy falls back to a one-sided rule-of-three bound over the
    batch count, and the rate is then reported as a lower bound.
    """
    occ, lengths, fractions = _occupation(model, config, events, replica=0)
    total = float(lengths.sum())
    return [_estimate_from_batches(ev.describe(), float(o), fr, total,
                                   config.N, config.seed)
            for ev, o, fr in zip(events, occ, fractions)]


def _wilson(hits: int, n: int) -> tuple[float, float]:
    z = _Z975
    p = hits / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    lo = max(0.0, centre - half)
    hi = 1.0 if hits == n else min(1.0, centre + half)
    return lo, hi


# entries per sampling chunk: 2**16 float64 values are 512 KiB
_CHUNK_ENTRIES = 2 ** 16

# hit weights per block of a tilted estimate's running statistics
_BLOCK_HITS = 4096


def _draws(rng: np.random.Generator, N: int, probs: np.ndarray, n: int
           ) -> Iterator[np.ndarray]:
    """n i.i.d. empirical measures of N draws from ``probs``, as stacks of
    at most ``_CHUNK_ENTRIES // probs.size`` rows (at least one).

    A chunk sized in entries bounds the sampler's memory by 512 KiB of
    float64 draws and the integer counts they come from, whatever n, and
    the matvec an event or a likelihood ratio applies to it stays below
    OpenBLAS's gemv threading cutoff (about 460,000 entries), above
    which each product wakes BLAS threads that contend with the
    rate-curve pool for the cores and runs an order of magnitude slower.
    Multinomial draws consume the stream row by row, so the chunk changes
    no estimate."""
    chunk = max(1, _CHUNK_ENTRIES // probs.size)
    for start in range(0, n, chunk):
        yield rng.multinomial(N, probs, size=min(chunk, n - start)) / N


def _tilted_estimate(name: str, event: "BallEvent", pi: StateDistribution,
                     zeta: StateDistribution, N: int, n: int, seed: int,
                     rng: np.random.Generator) -> RateEstimate:
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
    block = np.empty(_BLOCK_HITS)
    held = count = 0
    mean = m2 = 0.0  # of the weights merged so far: mean, squared deviations

    def merge(b: np.ndarray) -> None:
        # the pairwise update of Chan, Golub & LeVeque (1983)
        nonlocal count, mean, m2
        b_mean = float(b.sum()) / b.size
        delta = b_mean - mean
        total = count + b.size
        mean += delta * (b.size / total)
        m2 += (float(((b - b_mean) ** 2).sum())
               + delta * delta * (count * b.size / total))
        count = total

    for draws in _draws(rng, N, zeta.probs, n):
        hit = event.batch(draws)
        w = np.exp(N * (draws @ log_ratio)[hit] + log_ceiling)
        while w.size:  # blocks partition the hits, whatever the chunks
            take = min(_BLOCK_HITS - held, w.size)
            block[held:held + take] = w[:take]
            held += take
            w = w[take:]
            if held == _BLOCK_HITS:
                merge(block)
                held = 0
    if held:
        merge(block[:held])
    if count == 0:
        # rule of three under zeta, carried through the weight ceiling
        return _rule_of_three(name, n, N, seed, log_ceiling)
    # merge the n - count draws that missed, each of weight zero
    m2 += mean * mean * (count * (n - count) / n)
    mean *= count / n
    scale = math.exp(-log_ceiling)
    half = _Z975 * math.sqrt(m2 / max(n - 1, 1) / n)
    return RateEstimate(name, min(1.0, mean * scale),
                        max(0.0, mean - half) * scale,
                        min(1.0, (mean + half) * scale),
                        (log_ceiling - math.log(mean)) / N, N, seed)


# run length of each occupation estimate in an interacting rate curve
_RATE_CURVE_HORIZON = 200.0


def estimate_rate_curve(model: RateModel, event: Event, N_list: Sequence[int],
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
    ``_RATE_CURVE_HORIZON``.  All-zero hit counts are reported as
    lower-bound-only through the rule of three.  Every N, interacting or
    not, runs on a pool of ``threads`` workers (default 1) and draws
    from its own ``substream(seed, i)``, so results do not depend on
    ``threads``.
    """
    if samples_per_N < 1:
        raise ValueError(f"samples_per_N must be >= 1, got {samples_per_N}")
    if any(N < 1 for N in N_list):
        raise ValueError(f"every N of N_list must be >= 1, got {list(N_list)}")
    name = event.describe()
    pi = zeta = None
    if not model.interacting:
        pi = single_particle_stationary(model, z_max)
        if (importance and isinstance(event, BallEvent)
                and tv_distance(pi, event.center) > event.radius):
            zeta = entropy_projection(pi, event.center, event.radius)

    def one(i: int, N: int) -> RateEstimate:
        if model.interacting:
            cfg = SimConfig(N, seed, _RATE_CURVE_HORIZON, z_max=z_max)
            occ, lengths, fractions = _occupation(model, cfg, [event],
                                                  replica=i)
            return _estimate_from_batches(name, float(occ[0]), fractions[0],
                                          float(lengths.sum()), N, seed)
        rng = substream(seed, i)
        if zeta is not None:
            return _tilted_estimate(name, event, pi, zeta, N, samples_per_N,
                                    seed, rng)
        hits = sum(int(event.batch(draws).sum()) for draws
                   in _draws(rng, N, pi.probs, samples_per_N))
        if hits == 0:
            return _rule_of_three(name, samples_per_N, N, seed)
        p_hat = hits / samples_per_N
        lo, hi = _wilson(hits, samples_per_N)
        return RateEstimate(name, p_hat, lo, hi, -math.log(p_hat) / N, N, seed)

    with ThreadPoolExecutor(max_workers=threads or 1) as ex:
        return list(ex.map(one, range(len(N_list)), N_list))


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def save_rate_estimates(rows: Iterable[RateEstimate], path: str | Path) -> None:
    _write_csv(path, ["N", "event", "p_hat", "ci_low", "ci_high", "rate",
                      "seed", "algorithm", "lower_bound_only"],
               [(r.N, r.event, r.p_hat, r.ci_low, r.ci_high, r.rate, r.seed,
                 r.algorithm, r.lower_bound_only) for r in rows])
