"""Workload definitions and the config generator.

A workload is a list of experiment configs that one worker process runs
back to back through ``meanfield_ldp.cli.run``.  The parameters follow
``scripts/configs/*.cfg``; where a run would not fit the benchmark's
time budget the size is reduced and the reason is given next to it.
Each config's seed is its ``scripts/configs`` seed plus the workload
seed, so seed 0 reproduces the bundled configs' random streams.
"""
from __future__ import annotations

from pathlib import Path

DEFAULT_SEED = 0

_WLAN_CONST = {"model": "wlan_const", "lambda_f": 1, "lambda_b": 1}
_MM1 = {"model": "mm1", "lambda_f": 1, "lambda_b": 2}
_INTERACTING = {"model": "interacting_wlan", "kappa": 0.5}

# (name, model section, experiment section, base seed)
WORKLOADS: dict[str, list[tuple[str, dict, dict, int]]] = {
    # Both edge shapes: reset edges give an arrow-shaped dual Hessian,
    # birth-death edges a tridiagonal one.  t_max is cut from 2.0 to
    # 0.5 so that 24 trajectories fit one pass: the time per trajectory
    # varies by about 30% with its random shape, and only many
    # trajectories per pass keep the pass time steady across seeds.
    "duality": [
        ("duality_wlan", {**_WLAN_CONST, "z_max": 10},
         {"experiment": "duality_check", "n_trajectories": 12,
          "t_max": 0.5}, 2026),
        ("duality_mm1", {**_MM1, "z_max": 10},
         {"experiment": "duality_check", "n_trajectories": 12,
          "t_max": 0.5}, 2026),
    ],
    "qp_bounds": [
        ("quasipotential_bounds", {**_INTERACTING, "z_max": 30},
         {"experiment": "quasipotential_bounds", "n_targets": 36, "m": 5,
          "refine": "true"}, 17),
    ],
    "gillespie": [
        ("tightness_audit", {**_INTERACTING, "z_max": 25},
         {"experiment": "tightness_audit", "n": 50, "horizon": 400,
          "m_list": "2,4,6", "radius": 0.1}, 42),
    ],
    "flow_sampling": [
        ("mve_audit", {**_INTERACTING, "z_max": 30},
         {"experiment": "mve_audit", "m": 5, "horizon": 40, "n_samples": 5,
          "threshold": 1e-3, "delta": 0.05}, 1),
        ("rate_curve", {**_MM1, "z_max": 30},
         {"experiment": "rate_curve", "n_list": "10,15,20,25",
          "samples_per_n": 400000, "event": "ball_delta0", "radius": 0.1},
         7),
        ("counterexample", {**_MM1, "z_max": 30},
         {"experiment": "counterexample", "k_list": "50,200,800", "t": 1.0},
         0),
    ],
}


def _section(name: str, values: dict) -> str:
    return f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())


def write_configs(workload: str, seed: int, directory: Path) -> list[Path]:
    """Write the workload's configs for ``seed`` into ``directory``."""
    paths = []
    for name, model, experiment, base_seed in WORKLOADS[workload]:
        exp = {**experiment, "output_dir": f"out/{name}",
               "seed": base_seed + seed}
        path = directory / f"{name}.cfg"
        path.write_text(_section("model", model) + "\n"
                        + _section("experiment", exp))
        paths.append(path)
    return paths
