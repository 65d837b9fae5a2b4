"""Output invariants that decide whether an experiment run failed.

A run fails on a broken invariant, not on changed bits: a faster solver
may legitimately move the last digits of a cost.  Each check returns
the problems it found and the samples behind the workload's quality
metrics.
"""
from __future__ import annotations

import csv
import json
import math
import statistics
from pathlib import Path

import numpy as np

from meanfield_ldp.cli import ExperimentConfig, load_config
from meanfield_ldp.cost import evolve, load_trajectory
from meanfield_ldp.measures import load_distribution_csv, tv_distance
from meanfield_ldp.models import single_particle_stationary

GAP_LIMIT = 1e-5         # |variational - recovered control cost|, criterion 4
TV_LIMIT = 1e-9          # witness end point against its target
RESIDUAL_LIMIT = 1e-9    # L1 drift residual at the reported equilibrium
TAIL_WIDTH = 5.0         # binomial standard errors allowed around the exact tail

# quality metric -> (how its samples combine, unit)
QUALITY = {
    "duality_gap_max": (max, "absolute"),
    "qp_upper_mean": (statistics.fmean, "nats"),
    "ci_rel_halfwidth": (statistics.fmean, "ratio"),
}


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _duality(cfg: ExperimentConfig, out: Path):
    rows = _rows(out / "duality.csv")
    problems = []
    if len(rows) != int(cfg.params["n_trajectories"]):
        problems.append(f"{len(rows)} duality rows, expected "
                        f"{cfg.params['n_trajectories']}")
    gaps = []
    for r in rows:
        gap = abs(float(r["variational"]) - float(r["nonvariational_recovered"]))
        gaps.append(gap)
        if not gap < GAP_LIMIT:
            problems.append(f"trajectory {r['trajectory']}: duality gap "
                            f"{gap:.3g} >= {GAP_LIMIT:g}")
    return problems, {"duality_gap_max": gaps}


def _quasipotential(cfg: ExperimentConfig, out: Path):
    rows = _rows(out / "bounds.csv")
    problems = []
    if len(rows) != int(cfg.params["n_targets"]):
        problems.append(f"{len(rows)} bound rows, expected "
                        f"{cfg.params['n_targets']}")
    uppers = []
    for r in rows:
        i = int(r["target"])
        lower, upper, cm = (float(r[k]) for k in ("lower", "upper", "cm_bound"))
        uppers.append(upper)
        if not lower <= upper <= cm:
            problems.append(f"target {i}: lower {lower!r} <= upper {upper!r} "
                            f"<= cm_bound {cm!r} fails")
        witness = load_trajectory(out / f"witness_{i:03d}.txt")
        target = load_distribution_csv(out / f"target_{i:03d}.csv")
        tv = tv_distance(evolve(witness).final_distribution(), target)
        if not tv <= TV_LIMIT:
            problems.append(f"target {i}: witness ends {tv:.3g} TV away")
    return problems, {"qp_upper_mean": uppers}


def _estimate_rows(rows: list[dict]):
    """CI brackets and [0, 1] range; relative half-widths where p_hat > 0."""
    problems, widths = [], []
    for r in rows:
        p, lo, hi = (float(r[k]) for k in ("p_hat", "ci_low", "ci_high"))
        if not 0.0 <= lo <= p <= hi <= 1.0:
            problems.append(f"{r['event']} N={r['N']}: CI [{lo!r}, {hi!r}] "
                            f"does not bracket p_hat {p!r} inside [0, 1]")
        elif p > 0.0:
            widths.append((hi - lo) / (2.0 * p))
    return problems, widths


def _tightness(cfg: ExperimentConfig, out: Path):
    rows = _rows(out / "tightness.csv")
    problems, widths = _estimate_rows(rows)
    expected = 1 + len(cfg.params["m_list"].split(","))
    if len(rows) != expected:
        problems.append(f"{len(rows)} estimate rows, expected {expected}")
    return problems, {"ci_rel_halfwidth": widths}


def _log_binom_tail(n: int, p: float, k0: int) -> float:
    """log P(Bin(n, p) >= k0)."""
    logs = [math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p)
            for k in range(k0, n + 1)]
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))


def _rate_curve(cfg: ExperimentConfig, out: Path):
    """The ball around the point mass at 0 holds exactly when at least
    (1 - radius) N particles sit at 0, so its stationary probability is
    a binomial tail in the truncated pi(0)."""
    rows = _rows(out / "rate_curve.csv")
    problems, widths = _estimate_rows(rows)
    if cfg.params.get("event", "ball_delta0") != "ball_delta0":
        return problems + ["exact-tail check needs event = ball_delta0"], {}
    pi0 = float(single_particle_stationary(cfg.model, cfg.z_max).probs[0])
    radius = float(cfg.params.get("radius", "0.1"))
    n = int(cfg.params["samples_per_n"])
    for r in rows:
        N, p_hat = int(r["N"]), float(r["p_hat"])
        p = math.exp(_log_binom_tail(N, pi0, math.ceil((1 - radius) * N - 1e-9)))
        se = math.sqrt(p * (1 - p) / n)
        if not abs(p_hat - p) <= TAIL_WIDTH * se:
            problems.append(f"N={N}: p_hat {p_hat!r} is "
                            f"{abs(p_hat - p) / se:.1f} standard errors from "
                            f"the exact tail {p!r}")
    return problems, {"ci_rel_halfwidth": widths}


def _mve_audit(cfg: ExperimentConfig, out: Path):
    problems = []
    eq = load_distribution_csv(out / "equilibrium.csv")
    residual = float(np.abs(cfg.model.drift(eq.probs)).sum())
    if not residual < RESIDUAL_LIMIT:
        problems.append(f"equilibrium drift residual {residual:.3g}")
    audit = json.loads((out / "audit.json").read_text())
    gaps = [float(r["sup_theta_gap"]) for r in _rows(out / "b2_gaps.csv")]
    if not all(math.isfinite(g) and g >= 0.0 for g in gaps + [audit["terminal_gap"]]):
        problems.append("theta-moment gaps are not finite and nonnegative")
    return problems, {}


def _counterexample(cfg: ExperimentConfig, out: Path):
    rows = _rows(out / "counterexample.csv")
    problems = []
    ks = [int(k) for k in cfg.params["k_list"].split(",")]
    if [int(r["K"]) for r in rows] != ks:
        problems.append(f"K column differs from k_list {ks}")
    for r in rows:
        values = [float(r[k]) for k in ("entropy", "theta_moment",
                                        "lb_linear", "lb_theta")]
        if not all(math.isfinite(v) for v in values) or values[0] < 0.0:
            problems.append(f"K={r['K']}: entries not finite or entropy < 0")
    return problems, {}


_CHECKS = {
    "duality_check": _duality,
    "quasipotential_bounds": _quasipotential,
    "tightness_audit": _tightness,
    "rate_curve": _rate_curve,
    "mve_audit": _mve_audit,
    "counterexample": _counterexample,
}


def check_outputs(config: Path, out: Path) -> tuple[list[str], dict]:
    """Problems found in one run's outputs, and its quality samples."""
    cfg = load_config(config)
    try:
        return _CHECKS[cfg.experiment](cfg, out)
    except (OSError, KeyError, ValueError) as exc:
        return [f"outputs unreadable: {type(exc).__name__}: {exc}"], {}
