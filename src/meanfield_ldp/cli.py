"""Configuration-driven experiment runner.

Configs are flat ``key = value`` text with two sections::

    [model]
    model = interacting_wlan     ; a model of _MODELS
    kappa = 0.5                  ; its parameters, all optional
    z_max = 30

    [experiment]
    experiment = rate_curve      ; an experiment of _EXPERIMENTS
    output_dir = out/rate_curve
    seed = 7                     ; an int >= 0, default 0
    ...                          ; its keys, with their parsers and defaults

Each section is read through one key table.  ``_read`` parses the file
once into typed values, or into the list of problems (unknown,
missing or unparsable keys, then the cross-field checks); ``validate``,
``load_config`` and ``run`` each call it once, so what validates is
what runs.  ``run`` executes the experiment and writes its CSV/JSON
outputs plus a ``manifest.json`` (config echo, seed, versions, wall
time, RNG algorithm) into the output directory, which is created
atomically: everything is written to a staging directory and renamed
into place, so failures leave no partial outputs.  Exit codes: 0
success, 2 validation failure, 3 numeric failure.  No environment
variables are consulted; everything lives in the config or flags.
"""
from __future__ import annotations

import argparse
import configparser
import json
import os
import shutil
import sys
import time
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .cost import (FluxTrajectory, InfeasibleTrajectoryError, _edge_weights,
                   _mass_balance, _recover, cost_variational, evolve)
from .measures import (StateDistribution, _write_csv, _write_json,
                       save_distribution_csv, theta_moment, theta_values)
from .mckean_vlasov import (EquilibriumNotFoundError, StiffnessError, check_B2,
                            find_equilibrium, flows,
                            monotone_convergence_diagnostic,
                            sample_initials_in_KM, time_to_KDelta)
from .models import (MIN_Z_MAX, RateModel, has_stationary_law,
                     interacting_wlan_model, is_counterexample, mm1_model,
                     wlan_const_model, wlan_decay_model)
from .quasipotential import (PhaseOrderingError, cm_bound,
                             counterexample_report, save_trajectory_and_bound,
                             v_upper_bound)
from .simulator import (RNG_ALGORITHM, AbsorbingStateError, BallEvent,
                        NotInKMEvent, SimConfig, TruncationOverflowError,
                        estimate_invariant_multi, estimate_rate_curve,
                        resolve_burn_in, save_rate_estimates)

# a key whose default is _REQUIRED must be set
_REQUIRED = object()


def _list(item):
    """Parser of a list of ``item``s separated by commas or semicolons."""
    return lambda text: [item(x) for x in text.replace(";", ",").split(",")
                         if x.strip()]


def _real(text: str) -> float:
    x = float(text)
    if not np.isfinite(x):
        raise ValueError("not a finite number")
    return x


def _boolean(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"not one of {', '.join(states)}")
    return states[text.lower()]


def _path(text: str) -> Path:
    """A directory path whose last component names it, as the staging
    directory beside it needs: not empty, ``.``, ``..`` or the root."""
    if Path(text).name in ("", ".."):
        raise ValueError("the last path component names no directory")
    return Path(text)


# model -> (factory, its real parameters with their defaults)
_MODELS = {
    "mm1": (mm1_model, {"lambda_f": 1.0, "lambda_b": 2.0}),
    "wlan_const": (wlan_const_model, {"lambda_f": 1.0, "lambda_b": 1.0}),
    "wlan_decay": (wlan_decay_model, {"lambda_f": 1.0, "lambda_b": 1.0}),
    "interacting_wlan": (interacting_wlan_model, {"kappa": 0.5}),
}
_MODEL_COMMON = {"model": (str, _REQUIRED), "z_max": (int, 30)}
# experiment -> {key: (parser, default or _REQUIRED)}, past the common keys
_EXPERIMENT_COMMON = {"experiment": (str, _REQUIRED),
                      "output_dir": (_path, _REQUIRED), "seed": (int, 0)}
_EXPERIMENTS = {
    "counterexample": {"k_list": (_list(int), _REQUIRED), "t": (_real, 1.0)},
    "rate_curve": {"n_list": (_list(int), _REQUIRED),
                   "samples_per_n": (int, None),
                   "event": (str, "ball_delta0"), "radius": (_real, 0.1),
                   "m": (_real, 4.0)},
    "mve_audit": {"m": (_real, _REQUIRED), "horizon": (_real, _REQUIRED),
                  "n_samples": (int, 5), "threshold": (_real, 1e-3),
                  "delta": (_real, 0.05)},
    "quasipotential_bounds": {"n_targets": (int, _REQUIRED),
                              "m": (_real, 5.0), "refine": (_boolean, True)},
    "duality_check": {"n_trajectories": (int, _REQUIRED),
                      "t_max": (_real, 2.0)},
    "tightness_audit": {"m_list": (_list(_real), _REQUIRED),
                        "n": (int, _REQUIRED), "horizon": (_real, 200.0),
                        "burn_in": (_real, None), "radius": (_real, 0.1)},
}
# experiments that compute a stationary law or an equilibrium on {0..z_max}
_STATIONARY_EXPERIMENTS = ("rate_curve", "mve_audit", "quasipotential_bounds",
                           "tightness_audit")
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
    model: RateModel
    z_max: int
    experiment: str
    seed: int
    output_dir: Path
    params: dict    # the [experiment] section's raw strings
    values: dict    # every [experiment] key, parsed, defaults filled in
    echo: dict      # both sections' raw strings, for the manifest


def _typed(section: configparser.SectionProxy, table: dict, where: str,
           problems: list[str]) -> dict:
    """``table``'s keys read from ``section`` and parsed; every unknown,
    missing or unparsable key is added to ``problems``."""
    problems += [f"unknown key {key!r} for {where}" for key in section
                 if key not in table]
    values = {}
    for key, (parse, default) in table.items():
        text = section.get(key)
        if text is None:
            if default is _REQUIRED:
                problems.append(f"{where} needs {key}")
            values[key] = default
            continue
        try:
            values[key] = parse(text)
        except ValueError as exc:
            problems.append(f"bad {key} value {text!r}: {exc}")
    return values


def _cross_checks(exp: str, v: dict, given: set[str], model: RateModel,
                  z_max: int) -> list[str]:
    """The problems of a config whose every key parsed; ``given`` holds
    the keys its [experiment] section sets."""
    problems = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"{exp} needs {what}")

    need(v["seed"] >= 0, f"seed >= 0, got {v['seed']}")
    if exp == "counterexample":
        need(v["k_list"] and min(v["k_list"]) >= 10,
             "k_list with entries >= 10")
        need(v["t"] > 0, "t > 0")
        need(is_counterexample(model),
             "a non-interacting counterexample model")
    elif exp == "rate_curve":
        need(v["n_list"] and min(v["n_list"]) >= 1,
             "n_list with positive entries")
        n = v["samples_per_n"]
        if model.interacting and n is not None:
            problems.append("rate_curve on an interacting model takes no "
                            "samples_per_n: it runs each N for a fixed time")
        elif not model.interacting:
            need(n is not None and n >= 1, "samples_per_n >= 1")
        need(v["event"] in ("ball_delta0", "ball_equilibrium", "not_in_km"),
             "event ball_delta0, ball_equilibrium or not_in_km")
        need(v["radius"] > 0, "radius > 0")
        if v["event"] == "not_in_km" and v["m"] <= 0:
            problems.append("rate_curve with event not_in_km needs m > 0")
        # the ball events read radius, not_in_km reads m
        unused = "radius" if v["event"] == "not_in_km" else "m"
        if unused in given:
            problems.append(f"rate_curve with event {v['event']} takes no "
                            f"{unused}")
    elif exp == "mve_audit":
        for key in ("m", "horizon", "threshold", "delta"):
            need(v[key] > 0, f"{key} > 0")
        need(v["n_samples"] >= 1, "n_samples >= 1")
    elif exp == "quasipotential_bounds":
        need(v["n_targets"] >= 1, "n_targets >= 1")
        need(v["m"] > 0, "m > 0")
        need(model.kind.value == "chain_with_resets", "a reset-edge model")
    elif exp == "duality_check":
        need(v["n_trajectories"] >= 1, "n_trajectories >= 1")
        # the longest random plan must fit segments of the least duration
        need(v["t_max"] / _MAX_SEGMENTS >= _MIN_SEGMENT_DURATION,
             f"t_max >= {_MAX_SEGMENTS * _MIN_SEGMENT_DURATION:g}")
    elif exp == "tightness_audit":
        need(v["m_list"] and min(v["m_list"]) > 0, "positive m_list")
        need(v["n"] >= 1, "n >= 1")
        need(v["radius"] > 0, "radius > 0")
        burn_in = resolve_burn_in(v["burn_in"], model)
        need(burn_in >= 0, f"burn_in >= 0, got {burn_in:g}")
        need(burn_in < v["horizon"], f"horizon above the burn-in "
             f"{burn_in:g}, got {v['horizon']:g}")
    least = MIN_Z_MAX if exp in _STATIONARY_EXPERIMENTS else 1
    need(z_max >= least, f"z_max >= {least}, got {z_max}")
    if (z_max >= least and exp != "duality_check"
            and not has_stationary_law(model, z_max)):
        problems.append("model has no stationary law (forward rate >= "
                        "backward rate); only duality_check runs without one")
    return problems


def _read(config_path: str | Path) -> tuple[ExperimentConfig | None,
                                            list[str]]:
    """The config parsed into typed values, or None and its problems."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       interpolation=None)
    try:
        read = parser.read(config_path)
    except configparser.Error as exc:
        return None, [f"config does not parse: {exc}"]
    if not read:
        return None, [f"config file {config_path!r} not found"]
    problems = [f"unknown section [{s}]" for s in parser.sections()
                if s not in ("model", "experiment")]
    if not parser.has_section("model") or not parser.has_section("experiment"):
        return None, problems + ["config needs [model] and [experiment] "
                                 "sections"]

    name = parser["model"].get("model", "")
    if name in _MODELS:
        factory, defaults = _MODELS[name]
        model_values = _typed(parser["model"], {
            **_MODEL_COMMON, **{k: (_real, d) for k, d in defaults.items()}},
            f"model {name}", problems)
        if not problems:
            try:
                model = factory(**{k: model_values[k] for k in defaults})
            except ValueError as exc:
                problems.append(f"model parameters invalid: {exc}")
    else:
        problems.append(f"unknown model {name!r}")

    exp = parser["experiment"].get("experiment", "")
    if exp not in _EXPERIMENTS:
        return None, problems + [f"unknown experiment {exp!r}"]
    values = _typed(parser["experiment"],
                    {**_EXPERIMENT_COMMON, **_EXPERIMENTS[exp]},
                    f"experiment {exp}", problems)
    if problems:
        return None, problems
    z_max = model_values["z_max"]
    problems = _cross_checks(exp, values, set(parser["experiment"]), model,
                             z_max)
    if problems:
        return None, problems
    echo = {s: dict(parser[s]) for s in parser.sections()}
    return ExperimentConfig(model=model, z_max=z_max, experiment=exp,
                            seed=values["seed"],
                            output_dir=values["output_dir"],
                            params=echo["experiment"], values=values,
                            echo=echo), []


def validate(config_path: str | Path) -> list[str]:
    """Schema and cross-field validation; returns a list of problems."""
    return _read(config_path)[1]


def load_config(config_path: str | Path) -> ExperimentConfig:
    cfg, problems = _read(config_path)
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


# ---------------------------------------------------------------------------
# Experiment bodies (each writes into a staging directory)
# ---------------------------------------------------------------------------

def _run_counterexample(cfg: ExperimentConfig, out: Path, threads: int) -> None:
    report = counterexample_report(cfg.model, cfg.values["k_list"],
                                   cfg.values["t"])
    _write_csv(out / "counterexample.csv", ["K", "entropy", "theta_moment",
                                            "lb_linear", "lb_theta", "best_n"],
               map(astuple, report.rows))
    _write_json(out / "summary.json",
                {"divergence_ratio": report.divergence_ratio, "T": report.T,
                 "model": report.model_name})


def _make_event(cfg: ExperimentConfig):
    kind, radius = cfg.values["event"], cfg.values["radius"]
    if kind == "not_in_km":
        return NotInKMEvent(cfg.values["m"], cfg.z_max)
    if kind == "ball_delta0":
        return BallEvent(StateDistribution.delta(0, cfg.z_max), radius)
    return BallEvent(find_equilibrium(cfg.model, cfg.z_max), radius)


def _run_rate_curve(cfg: ExperimentConfig, out: Path, threads: int) -> None:
    # an interacting curve draws no samples; 1 passes the size check
    rows = estimate_rate_curve(cfg.model, _make_event(cfg),
                               cfg.values["n_list"],
                               cfg.values["samples_per_n"] or 1, cfg.seed,
                               z_max=cfg.z_max, threads=threads)
    save_rate_estimates(rows, out / "rate_curve.csv")


def _run_mve_audit(cfg: ExperimentConfig, out: Path, threads: int) -> None:
    v = cfg.values
    xi_star = find_equilibrium(cfg.model, cfg.z_max)
    initials = sample_initials_in_KM(xi_star, v["m"], v["n_samples"], cfg.seed)
    delta0 = StateDistribution.delta(0, cfg.z_max)
    # check_B2's flows, then delta_0 over the hitting and the audit horizon
    *b2_paths, hit_path, delta0_path = flows(
        cfg.model, initials + [delta0, delta0], [v["horizon"]] * len(initials)
        + [10.0 / cfg.model.lambda_lower, v["horizon"]])
    report = check_B2(xi_star, b2_paths, threshold=v["threshold"])
    t_hit = time_to_KDelta(xi_star, hit_path, v["delta"])
    monotone = monotone_convergence_diagnostic(xi_star, delta0_path)
    _write_csv(out / "b2_gaps.csv", ["t", "sup_theta_gap"],
               zip(report.grid, report.sup_gap))
    save_distribution_csv(xi_star, out / "equilibrium.csv")
    _write_json(out / "audit.json", {
        "terminal_gap": report.terminal_gap,
        "threshold": report.threshold,
        "passed": report.passed,
        "n_samples": report.n_samples,
        # null when the flow never enters K(delta): JSON has no inf
        "time_to_KDelta_from_delta0": t_hit if np.isfinite(t_hit) else None,
        "tv_eventually_decreasing": monotone,
        "verdict": "consistent with global stability over the sampled "
                   "initial conditions",
    })


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
    theta = theta_values(z_max)
    rng = np.random.default_rng(seed)
    targets = []
    while len(targets) < n:
        k = int(rng.integers(2, 7))
        support = rng.choice(z_max + 1, size=k, replace=False)
        w = rng.dirichlet(np.ones(k))
        p = _CORPUS_SHARE * xi_star.probs + 0.4 * np.bincount(
            support, weights=w, minlength=z_max + 1)
        p = p / p.sum()
        if float(np.dot(p, theta)) <= M:
            targets.append(StateDistribution(p, z_max))
    return targets


def _run_quasipotential_bounds(cfg: ExperimentConfig, out: Path,
                               threads: int) -> None:
    xi_star = find_equilibrium(cfg.model, cfg.z_max)
    targets = _corpus_targets(xi_star, cfg.values["m"],
                              cfg.values["n_targets"], cfg.seed)
    rows = []
    for i, xi in enumerate(targets):
        bound = v_upper_bound(cfg.model, xi_star, xi,
                              refine=cfg.values["refine"])
        cm = cm_bound(cfg.model, xi_star, xi)
        tfile = f"target_{i:03d}.csv"
        wfile = f"witness_{i:03d}.txt"
        save_trajectory_and_bound(bound, out, tfile, wfile,
                                  f"vbound_{i:03d}.json")
        rows.append((i, bound.upper, bound.lower, cm, theta_moment(xi)))
    _write_csv(out / "bounds.csv",
               ["target", "upper", "lower", "cm_bound", "theta_moment"], rows)


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
        # a factor per edge, and an unused one for the edge out of z_max
        scale = np.exp(rng.uniform(-0.7, 0.7, size=2 * z_max + 1))
        row = _edge_weights(model, cur[None])[0] * np.delete(scale, z_max)
        for _ in range(40):
            trial = cur + d * _mass_balance(row[None], model.kind)[0]
            if trial.min() > 1e-4:
                break
            row = 0.5 * row
        rows.append(row)
        cur = trial
    return FluxTrajectory(init, model.kind, durations, np.array(rows))


def _run_duality_check(cfg: ExperimentConfig, out: Path, threads: int) -> None:
    rng = np.random.default_rng(cfg.seed)
    paths = [evolve(_random_feasible_trajectory(cfg.model, rng, cfg.z_max,
                                                cfg.values["t_max"]))
             for _ in range(cfg.values["n_trajectories"])]
    var = cost_variational(cfg.model, paths)
    nonvar = [c for _, c in _recover(cfg.model, paths, None)]
    _write_csv(out / "duality.csv", ["trajectory", "variational",
                                     "nonvariational_recovered", "abs_gap"],
               [(i, v, nv, abs(v - nv))
                for i, (v, nv) in enumerate(zip(var, nonvar))])


def _run_tightness_audit(cfg: ExperimentConfig, out: Path, threads: int) -> None:
    v = cfg.values
    sim = SimConfig(N=v["n"], seed=cfg.seed, horizon=v["horizon"],
                    burn_in=v["burn_in"], z_max=cfg.z_max)
    xi_star = find_equilibrium(cfg.model, cfg.z_max)
    events = [BallEvent(xi_star, v["radius"])]
    events += [NotInKMEvent(m, cfg.z_max) for m in v["m_list"]]
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
    cfg, problems = _read(config_path)
    if problems:
        for p in problems:
            print(f"validation: {p}", file=sys.stderr)
        return 2
    if output_override is not None:
        try:
            cfg.output_dir = _path(output_override)
        except ValueError as exc:
            print(f"validation: bad --output value {output_override!r}: "
                  f"{exc}", file=sys.stderr)
            return 2
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
            EquilibriumNotFoundError, TruncationOverflowError,
            AbsorbingStateError, FloatingPointError,
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

    manifest = {
        "config": cfg.echo,
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
    _write_json(staging / "manifest.json", manifest)

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


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, "
                                         f"got {text!r}")
    return int(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="meanfield-ldp",
        description="Mean-field invariant-measure large deviations toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("config")
    p_run.add_argument("--threads", type=_positive_int, default=None,
                       help="threads over which rate_curve spreads its N "
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
