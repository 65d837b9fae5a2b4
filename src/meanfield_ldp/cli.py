"""Configuration-driven experiment runner.

Configs are flat ``key = value`` text with two sections::

    [model]
    model = interacting_wlan     ; mm1 | wlan_const | wlan_decay | interacting_wlan
    kappa = 0.5                  ; lambda_f / lambda_b for the others
    z_max = 30

    [experiment]
    experiment = rate_curve      ; counterexample | rate_curve | mve_audit |
                                 ; quasipotential_bounds | duality_check |
                                 ; tightness_audit
    output_dir = out/rate_curve
    ...                          ; per-experiment numeric parameters

Unknown keys are rejected.  ``run`` executes the experiment and writes
its CSV/JSON outputs plus a ``manifest.json`` (config echo, seed,
versions, wall time, RNG algorithm) into the output directory, which
is created atomically: everything is staged in a scratch directory and
renamed into place, so failures leave no partial outputs.  Exit codes:
0 success, 2 validation failure, 3 numeric failure.  No environment
variables are consulted; everything lives in the config or flags.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .cost import (FluxTrajectory, InfeasibleTrajectoryError, _mass_balance,
                   cost_nonvariational, cost_variational, evolve,
                   flux_from_path)
from .measures import StateDistribution, save_distribution_csv, theta_moment
from .mckean_vlasov import (EquilibriumNotFoundError, StiffnessError, check_B2,
                            find_equilibrium, monotone_convergence_diagnostic,
                            time_to_KDelta)
from .models import (MIN_Z_MAX, RateModel, has_stationary_law,
                     interacting_wlan_model, is_counterexample, mm1_model,
                     wlan_const_model, wlan_decay_model)
from .quasipotential import (PhaseOrderingError, cm_bound,
                             counterexample_report, save_trajectory_and_bound,
                             v_upper_bound)
from .simulator import (RNG_ALGORITHM, BallEvent, NotInKMEvent, SimConfig,
                        estimate_invariant_multi, estimate_rate_curve,
                        save_rate_estimates)

EXPERIMENTS = ("counterexample", "rate_curve", "mve_audit",
               "quasipotential_bounds", "duality_check", "tightness_audit")

_MODEL_KEYS = {"model", "lambda_f", "lambda_b", "kappa", "z_max"}
_COMMON_EXP_KEYS = {"experiment", "output_dir", "seed"}
# experiments that compute a stationary law or an equilibrium on {0..z_max}
_STATIONARY_EXPERIMENTS = ("rate_curve", "mve_audit", "quasipotential_bounds",
                           "tightness_audit")
_EXP_KEYS = {
    "counterexample": {"k_list", "t"},
    "rate_curve": {"n_list", "samples_per_n", "event", "radius", "m"},
    "mve_audit": {"m", "horizon", "n_samples", "threshold", "delta"},
    "quasipotential_bounds": {"n_targets", "m", "refine"},
    "duality_check": {"n_trajectories", "t_max"},
    "tightness_audit": {"m_list", "n", "horizon", "burn_in", "radius"},
}
# the default of every optional key that has one; validate and the
# runners both read it through _option
_DEFAULTS = {
    "counterexample": {"t": 1.0},
    "rate_curve": {"event": "ball_delta0", "radius": 0.1, "m": 4.0},
    "mve_audit": {"n_samples": 5, "threshold": 1e-3, "delta": 0.05},
    "quasipotential_bounds": {"m": 5.0, "refine": "true"},
    "duality_check": {"t_max": 2.0},
    "tightness_audit": {"horizon": 200.0, "radius": 0.1},
}
# random duality_check plans: at most this many segments, each at least
# this long
_MAX_SEGMENTS = 6
_MIN_SEGMENT_DURATION = 0.08
# share of the equilibrium in every quasipotential_bounds target
_CORPUS_SHARE = 0.6


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    model_name: str
    model: RateModel
    z_max: int
    experiment: str
    seed: int
    output_dir: Path
    params: dict


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.replace(";", ",").split(",") if x.strip()]


def _parse_float_list(text: str) -> list[float]:
    return [float(x) for x in text.replace(";", ",").split(",") if x.strip()]


def _option(params, experiment: str, key: str):
    """An optional experiment key's value, typed like its default in
    ``_DEFAULTS``, or that default when the key is absent."""
    default = _DEFAULTS[experiment][key]
    raw = params.get(key)
    return default if raw is None else type(default)(raw)


def _build_model(section: configparser.SectionProxy,
                 problems: list[str]) -> RateModel | None:
    name = section.get("model", "").strip()
    try:
        if name == "mm1":
            return mm1_model(section.getfloat("lambda_f", 1.0),
                             section.getfloat("lambda_b", 2.0))
        if name == "wlan_const":
            return wlan_const_model(section.getfloat("lambda_f", 1.0),
                                    section.getfloat("lambda_b", 1.0))
        if name == "wlan_decay":
            return wlan_decay_model(section.getfloat("lambda_f", 1.0),
                                    section.getfloat("lambda_b", 1.0))
        if name == "interacting_wlan":
            return interacting_wlan_model(section.getfloat("kappa", 0.5))
    except ValueError as exc:
        problems.append(f"model parameters invalid: {exc}")
        return None
    problems.append(f"unknown model {name!r}")
    return None


def validate(config_path: str | Path) -> list[str]:
    """Schema and cross-field validation; returns a list of problems."""
    problems: list[str] = []
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(config_path)
    except configparser.Error as exc:
        return [f"config does not parse: {exc}"]
    if not read:
        return [f"config file {config_path!r} not found"]
    for section in parser.sections():
        if section not in ("model", "experiment"):
            problems.append(f"unknown section [{section}]")
    if not parser.has_section("model") or not parser.has_section("experiment"):
        problems.append("config needs [model] and [experiment] sections")
        return problems

    for key in parser["model"]:
        if key not in _MODEL_KEYS:
            problems.append(f"unknown key {key!r} in [model]")
    model = _build_model(parser["model"], problems)

    exp = parser["experiment"].get("experiment", "").strip()
    if exp not in EXPERIMENTS:
        problems.append(f"unknown experiment {exp!r}")
        return problems
    allowed = _COMMON_EXP_KEYS | _EXP_KEYS[exp]
    for key in parser["experiment"]:
        if key not in allowed:
            problems.append(f"unknown key {key!r} for experiment {exp}")
    if not parser["experiment"].get("output_dir", "").strip():
        problems.append("experiment needs output_dir")

    sec = parser["experiment"]
    try:
        if exp == "counterexample":
            ks = _parse_int_list(sec.get("k_list", ""))
            if not ks or any(k < 10 for k in ks):
                problems.append("counterexample needs k_list with entries >= 10")
            if _option(sec, exp, "t") <= 0:
                problems.append("counterexample needs t > 0")
            if model is not None and not is_counterexample(model):
                problems.append("counterexample experiment needs a "
                                "non-interacting counterexample model")
        elif exp == "rate_curve":
            ns = _parse_int_list(sec.get("n_list", ""))
            if not ns or any(n < 1 for n in ns):
                problems.append("rate_curve needs n_list with positive entries")
            if sec.getint("samples_per_n", 0) < 1:
                problems.append("rate_curve needs samples_per_n >= 1")
            event = _option(sec, exp, "event")
            if event not in ("ball_delta0", "ball_equilibrium", "not_in_km"):
                problems.append("rate_curve event must be ball_delta0, "
                                "ball_equilibrium, or not_in_km")
            if _option(sec, exp, "radius") <= 0:
                problems.append("rate_curve needs radius > 0")
            if event == "not_in_km" and _option(sec, exp, "m") <= 0:
                problems.append("rate_curve with event not_in_km needs m > 0")
        elif exp == "mve_audit":
            if sec.getfloat("m", 0.0) <= 0:
                problems.append("mve_audit needs m > 0")
            if sec.getfloat("horizon", 0.0) <= 0:
                problems.append("mve_audit needs horizon > 0")
            if _option(sec, exp, "n_samples") < 1:
                problems.append("mve_audit needs n_samples >= 1")
            if _option(sec, exp, "threshold") <= 0:
                problems.append("mve_audit needs threshold > 0")
            if _option(sec, exp, "delta") <= 0:
                problems.append("mve_audit needs delta > 0")
        elif exp == "quasipotential_bounds":
            if sec.getint("n_targets", 0) < 1:
                problems.append("quasipotential_bounds needs n_targets >= 1")
            if _option(sec, exp, "m") <= 0:
                problems.append("quasipotential_bounds needs m > 0")
            if model is not None and model.kind.value != "chain_with_resets":
                problems.append("quasipotential_bounds needs a reset-edge model")
        elif exp == "duality_check":
            if sec.getint("n_trajectories", 0) < 1:
                problems.append("duality_check needs n_trajectories >= 1")
            # the longest random plan must fit segments of the least duration
            t_max = _option(sec, exp, "t_max")
            if t_max / _MAX_SEGMENTS < _MIN_SEGMENT_DURATION:
                problems.append(f"duality_check needs t_max >= "
                                f"{_MAX_SEGMENTS * _MIN_SEGMENT_DURATION:g}")
        elif exp == "tightness_audit":
            ms = _parse_float_list(sec.get("m_list", ""))
            if not ms or any(m <= 0 for m in ms):
                problems.append("tightness_audit needs positive m_list")
            if sec.getint("n", 0) < 1:
                problems.append("tightness_audit needs n >= 1")
            if _option(sec, exp, "radius") <= 0:
                problems.append("tightness_audit needs radius > 0")
            if model is not None:
                horizon = _option(sec, exp, "horizon")
                burn_in = sec.get("burn_in", "").strip()
                # SimConfig.resolved_burn_in's default when burn_in is unset
                burn_in = (float(burn_in) if burn_in
                           else 20.0 / model.lambda_lower)
                if not burn_in < horizon:
                    problems.append(f"tightness_audit needs horizon above the "
                                    f"burn-in {burn_in:g}, got {horizon:g}")
        z_max = parser["model"].getint("z_max", 30)
        if exp in _STATIONARY_EXPERIMENTS and z_max < MIN_Z_MAX:
            problems.append(f"{exp} needs z_max >= {MIN_Z_MAX}, got {z_max}")
        if (exp != "duality_check" and model is not None and not
                has_stationary_law(model, z_max)):
            problems.append("model has no stationary law (forward rate >= "
                            "backward rate); only duality_check runs without one")
    except ValueError as exc:
        problems.append(f"bad numeric value: {exc}")
    return problems


def load_config(config_path: str | Path) -> ExperimentConfig:
    problems = validate(config_path)
    if problems:
        raise ConfigError("; ".join(problems))
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(config_path)
    model = _build_model(parser["model"], [])
    assert model is not None
    z_max = parser["model"].getint("z_max", 30)
    sec = parser["experiment"]
    params = {k: sec.get(k) for k in sec}
    return ExperimentConfig(
        model_name=model.name,
        model=model,
        z_max=z_max,
        experiment=sec.get("experiment"),
        seed=sec.getint("seed", 0),
        output_dir=Path(sec.get("output_dir")),
        params=params,
    )


# ---------------------------------------------------------------------------
# Experiment bodies (each writes into a staging directory)
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _run_counterexample(cfg: ExperimentConfig, out: Path, threads: int) -> None:
    ks = _parse_int_list(cfg.params["k_list"])
    T = _option(cfg.params, cfg.experiment, "t")
    report = counterexample_report(cfg.model, ks, T)
    with open(out / "counterexample.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["K", "entropy", "theta_moment", "lb_linear", "lb_theta",
                    "best_n"])
        for r in report.rows:
            w.writerow([r.K, _fmt(r.entropy), _fmt(r.theta_moment),
                        _fmt(r.lb_linear), _fmt(r.lb_theta), r.best_n])
    with open(out / "summary.json", "w") as fh:
        json.dump({"divergence_ratio": report.divergence_ratio,
                   "T": report.T, "model": report.model_name},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")


def _make_event(cfg: ExperimentConfig):
    kind = _option(cfg.params, cfg.experiment, "event")
    if kind == "not_in_km":
        return NotInKMEvent(_option(cfg.params, cfg.experiment, "m"),
                            cfg.z_max)
    radius = _option(cfg.params, cfg.experiment, "radius")
    if kind == "ball_delta0":
        return BallEvent(StateDistribution.delta(0, cfg.z_max), radius)
    return BallEvent(find_equilibrium(cfg.model, cfg.z_max), radius)


def _run_rate_curve(cfg: ExperimentConfig, out: Path, threads: int) -> None:
    ns = _parse_int_list(cfg.params["n_list"])
    samples = int(cfg.params["samples_per_n"])
    event = _make_event(cfg)
    rows = estimate_rate_curve(cfg.model, event, ns, samples, cfg.seed,
                               z_max=cfg.z_max, threads=threads)
    save_rate_estimates(rows, out / "rate_curve.csv")


def _run_mve_audit(cfg: ExperimentConfig, out: Path, threads: int) -> None:
    M = float(cfg.params["m"])
    horizon = float(cfg.params["horizon"])
    n_samples = _option(cfg.params, cfg.experiment, "n_samples")
    threshold = _option(cfg.params, cfg.experiment, "threshold")
    delta = _option(cfg.params, cfg.experiment, "delta")
    xi_star = find_equilibrium(cfg.model, cfg.z_max)
    report = check_B2(cfg.model, xi_star, M, horizon, n_samples, cfg.seed,
                      threshold=threshold)
    delta0 = StateDistribution.delta(0, cfg.z_max)
    t_hit = time_to_KDelta(cfg.model, xi_star, delta0, delta)
    monotone = monotone_convergence_diagnostic(cfg.model, xi_star, delta0,
                                               horizon)
    with open(out / "b2_gaps.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "sup_theta_gap"])
        for t, g in zip(report.grid, report.sup_gap):
            w.writerow([_fmt(t), _fmt(g)])
    save_distribution_csv(xi_star, out / "equilibrium.csv")
    with open(out / "audit.json", "w") as fh:
        json.dump({
            "terminal_gap": report.terminal_gap,
            "threshold": report.threshold,
            "passed": report.passed,
            "n_samples": report.n_samples,
            "time_to_KDelta_from_delta0": t_hit,
            "tv_eventually_decreasing": monotone,
            "verdict": "consistent with global stability over the sampled "
                       "initial conditions",
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _corpus_targets(xi_star: StateDistribution, M: float, n: int,
                    seed: int) -> list[StateDistribution]:
    """n random laws in K_M: the equilibrium mixed with a sparse Dirichlet law.

    Each target holds 0.6 of ``xi_star``, so its theta-moment is at least
    0.6 <xi_star, theta>; M must exceed that floor.  Above it a draw
    supported on {0, 1} (theta = 0 there) is always accepted."""
    floor = _CORPUS_SHARE * theta_moment(xi_star)
    if M <= floor:
        raise ValueError(f"corpus theta-moment cap {M:g} is not above the "
                         f"floor {floor:.4g} set by the equilibrium share")
    z_max = xi_star.z_max
    rng = np.random.default_rng(seed)
    targets = []
    while len(targets) < n:
        k = int(rng.integers(2, 7))
        support = rng.choice(z_max + 1, size=k, replace=False)
        w = rng.dirichlet(np.ones(k))
        p = _CORPUS_SHARE * xi_star.probs + 0.4 * np.bincount(
            support, weights=w, minlength=z_max + 1)
        dist = StateDistribution(p / p.sum(), z_max)
        if theta_moment(dist) <= M:
            targets.append(dist)
    return targets


def _run_quasipotential_bounds(cfg: ExperimentConfig, out: Path,
                               threads: int) -> None:
    n_targets = int(cfg.params["n_targets"])
    M = _option(cfg.params, cfg.experiment, "m")
    refine = _option(cfg.params, cfg.experiment, "refine").lower() in (
        "1", "true", "yes")
    xi_star = find_equilibrium(cfg.model, cfg.z_max)
    targets = _corpus_targets(xi_star, M, n_targets, cfg.seed)
    rows = []
    for i, xi in enumerate(targets):
        bound = v_upper_bound(cfg.model, xi_star, xi, refine=refine)
        cm = cm_bound(cfg.model, xi_star, xi)
        tfile = f"target_{i:03d}.csv"
        wfile = f"witness_{i:03d}.txt"
        save_trajectory_and_bound(bound, out, tfile, wfile,
                                  f"vbound_{i:03d}.json")
        rows.append((i, bound.upper, bound.lower, cm, theta_moment(xi)))
    with open(out / "bounds.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["target", "upper", "lower", "cm_bound", "theta_moment"])
        for i, up, lo, cm, th in rows:
            w.writerow([i, _fmt(up), _fmt(lo), _fmt(cm), _fmt(th)])


def _random_feasible_trajectory(model: RateModel, rng: np.random.Generator,
                                z_max: int, T_max: float) -> FluxTrajectory:
    p = rng.dirichlet(np.full(z_max + 1, 2.0))
    p = 0.7 * p + 0.3 / (z_max + 1)
    init = StateDistribution(p / p.sum(), z_max)
    n_seg = int(rng.integers(3, _MAX_SEGMENTS + 1))
    durations = rng.uniform(_MIN_SEGMENT_DURATION, T_max / n_seg, size=n_seg)
    rows = []
    cur = init.probs.copy()
    for d in durations:
        fwd = model.forward_rates(z_max, cur) * cur
        back = model.backward_rates(z_max, cur) * cur
        scale = np.exp(rng.uniform(-0.7, 0.7, size=2 * z_max + 1))
        row = np.concatenate([fwd[:-1] * scale[:z_max],
                              back[1:] * scale[z_max + 1:]])
        for _ in range(40):
            trial = cur + d * _mass_balance(row[None], model.kind)[0]
            if trial.min() > 1e-4:
                break
            row = 0.5 * row
        rows.append(row)
        cur = trial
    return FluxTrajectory(init, model.kind, durations, np.array(rows))


def _run_duality_check(cfg: ExperimentConfig, out: Path, threads: int) -> None:
    n_traj = int(cfg.params["n_trajectories"])
    t_max = _option(cfg.params, cfg.experiment, "t_max")
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for i in range(n_traj):
        traj = _random_feasible_trajectory(cfg.model, rng, cfg.z_max, t_max)
        path = evolve(traj)
        var = cost_variational(cfg.model, path)
        rec = flux_from_path(cfg.model, path)
        nonvar = cost_nonvariational(cfg.model, rec)
        rows.append((i, var, nonvar, abs(var - nonvar)))
    with open(out / "duality.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["trajectory", "variational", "nonvariational_recovered",
                    "abs_gap"])
        for i, v, nv, g in rows:
            w.writerow([i, _fmt(v), _fmt(nv), _fmt(g)])


def _run_tightness_audit(cfg: ExperimentConfig, out: Path, threads: int) -> None:
    ms = _parse_float_list(cfg.params["m_list"])
    N = int(cfg.params["n"])
    horizon = _option(cfg.params, cfg.experiment, "horizon")
    burn_in = cfg.params.get("burn_in")
    radius = _option(cfg.params, cfg.experiment, "radius")
    sim = SimConfig(N=N, seed=cfg.seed, horizon=horizon,
                    burn_in=float(burn_in) if burn_in else None,
                    z_max=cfg.z_max)
    xi_star = find_equilibrium(cfg.model, cfg.z_max)
    events = [BallEvent(xi_star, radius)]
    events += [NotInKMEvent(m, cfg.z_max) for m in ms]
    rows = estimate_invariant_multi(cfg.model, sim, events)
    save_rate_estimates(rows, out / "tightness.csv")


_RUNNERS = {
    "counterexample": _run_counterexample,
    "rate_curve": _run_rate_curve,
    "mve_audit": _run_mve_audit,
    "quasipotential_bounds": _run_quasipotential_bounds,
    "duality_check": _run_duality_check,
    "tightness_audit": _run_tightness_audit,
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run(config_path: str | Path, threads: int | None = None,
        output_override: str | None = None) -> int:
    """Execute the configured experiment; returns the process exit code."""
    problems = validate(config_path)
    if problems:
        for p in problems:
            print(f"validation: {p}", file=sys.stderr)
        return 2
    cfg = load_config(config_path)
    if output_override:
        cfg.output_dir = Path(output_override)
    threads = threads or os.cpu_count() or 1

    final = cfg.output_dir
    staging = final.with_name(final.name + f".staging-{os.getpid()}")
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir(parents=True)
    t0 = time.monotonic()
    try:
        _RUNNERS[cfg.experiment](cfg, staging, threads)
    except (InfeasibleTrajectoryError, StiffnessError, PhaseOrderingError,
            EquilibriumNotFoundError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        shutil.rmtree(staging, ignore_errors=True)
        print(json.dumps({"error": "numeric_failure",
                          "reason": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - surfaced as machine-readable
        shutil.rmtree(staging, ignore_errors=True)
        print(json.dumps({"error": "internal_failure",
                          "reason": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return 3
    wall = time.monotonic() - t0

    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(config_path)
    echo = {s: dict(parser[s]) for s in parser.sections()}
    manifest = {
        "config": echo,
        "seed": cfg.seed,
        "experiment": cfg.experiment,
        "threads": threads,
        "rng_algorithm": RNG_ALGORITHM,
        "versions": {
            "meanfield_ldp": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": wall,
    }
    with open(staging / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if final.exists():
        if final.is_dir() and (not any(final.iterdir())
                               or (final / "manifest.json").exists()):
            shutil.rmtree(final)
        else:
            shutil.rmtree(staging, ignore_errors=True)
            print(f"validation: output_dir {final} exists and is not a "
                  "previous run", file=sys.stderr)
            return 2
    final.parent.mkdir(parents=True, exist_ok=True)
    os.replace(staging, final)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="meanfield-ldp",
        description="Mean-field invariant-measure large deviations toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("config")
    p_run.add_argument("--threads", type=int, default=None,
                       help="threads for rate_curve's i.i.d. sampling "
                            "(default: the number of cores)")
    p_run.add_argument("--output", default=None,
                       help="override the configured output directory")

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config")

    sub.add_parser("version", help="print the package version")

    args = parser.parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    if args.command == "validate":
        problems = validate(args.config)
        if problems:
            for p in problems:
                print(f"validation: {p}")
            return 2
        print("ok")
        return 0
    return run(args.config, threads=args.threads, output_override=args.output)


if __name__ == "__main__":
    raise SystemExit(main())
