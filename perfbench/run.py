#!/usr/bin/env python3
"""Benchmark of the experiment CLI, one workload per run.

    python3 perfbench/run.py --workload duality --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --trace 1
    python3 perfbench/run.py --workload all --record-baseline

Run from the repository root.  Each workload is a list of experiment
configs generated from the seed (see ``workloads.py``).  The load is a
closed loop with one client: a pass runs every config back to back
through ``meanfield_ldp.cli.run`` in one fresh worker process, and
passes repeat until ``--seconds`` is used up (at least one pass).
Every output is checked (``checks.py``); a run that exits nonzero or
fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics: medians over the passes,
and over several set-up-only worker starts for ``setup_s``.  ``--trace
1`` alternates untraced and traced passes and reports the per-layer
metrics of the traced passes (``tracing.py``) and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only if every check passed.  ``--record-baseline`` writes the output
fingerprints at the default seed and the machine to ``baseline.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BASELINE = BENCH / "baseline.json"
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 150


def machine() -> dict:
    import numpy as np
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    with open("/proc/loadavg") as fh:
        load = [float(x) for x in fh.read().split()[:3]]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "cpu": cpu, "loadavg_1_5_15": load}


def spawn(spec: dict) -> dict:
    """Run one worker; returns its result with ``spawn_ns`` added."""
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["spawn_ns"] = spawn_ns
    return result


def fingerprints(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


class Workload:
    """One workload's validated configs and the outcome of its passes."""

    def __init__(self, name: str, seed: int, work: Path, threads: int):
        from meanfield_ldp.cli import validate
        from workloads import write_configs

        self.threads, self.work = threads, work
        (work / "configs").mkdir(parents=True)
        self.configs = write_configs(name, seed, work / "configs")
        problems = [f"{c.name}: {p}" for c in self.configs for p in validate(c)]
        if problems:
            raise ValueError("invalid generated config: " + "; ".join(problems))
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.quality: dict[str, list[float]] = {}
        self.fingerprints: dict[str, str] = {}

    def setup_samples(self, count: int) -> list[float]:
        """Times from process start to an imported CLI."""
        spec = {"src": str(SRC), "setup_only": True}
        samples = []
        for _ in range(count):
            r = spawn(spec)
            samples.append((r["ready_ns"] - r["spawn_ns"]) / 1e9)
        return samples

    def run_pass(self, index: int, trace: bool) -> dict:
        """One worker pass over every config; checks all its outputs."""
        # imported here, not at the top: checks imports the program,
        # whose source main() locates first
        from checks import check_outputs

        out = self.work / f"pass{index}"
        runs = [(str(c), str(out / c.stem)) for c in self.configs]
        result = spawn({"src": str(SRC), "threads": self.threads,
                        "trace": trace, "runs": runs})
        for cfg, code in zip(self.configs, result["codes"]):
            self.attempted += 1
            problems, samples = ([f"exit code {code}"], {}) if code else \
                check_outputs(cfg, out / cfg.stem)
            if problems:
                self.failed += 1
                self.problems += [f"pass {index} {cfg.stem}: {p}"
                                  for p in problems]
            if index == 0:
                for key, values in samples.items():
                    self.quality.setdefault(key, []).extend(values)
        if index == 0:
            self.fingerprints = fingerprints(out)
        shutil.rmtree(out)
        return result


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: Path, threads: int) -> dict:
    from checks import QUALITY

    wl = Workload(name, seed, work, threads)
    wl.setup_samples(1)  # fills the bytecode cache
    # half the set-up samples before the passes and half after, so that
    # a short slow spell of the machine moves the median less
    setup = wl.setup_samples(SETUP_PROBES // 2)
    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    deadline = time.monotonic() + seconds
    while True:
        start = time.monotonic()
        use_trace = trace and len(traced) < len(plain)
        result = wl.run_pass(len(plain) + len(traced), use_trace)
        (traced if use_trace else plain).append(result)
        durations.append(time.monotonic() - start)
        if ((traced or not trace)
                and time.monotonic() + statistics.median(durations) > deadline):
            break

    setup += wl.setup_samples(SETUP_PROBES - len(setup))

    def median(key: str, passes: list[dict]) -> float:
        return statistics.median(p[key] for p in passes)

    metrics = {"wall_s": median("wall_s", plain), "cpu_s": median("cpu_s", plain),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": median("peak_rss_mb", plain)}
    if trace:
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median_low(p["layers"][key] for p in traced)
        metrics["trace.overhead_s"] = median("wall_s", traced) - metrics["wall_s"]
    quality = {key: QUALITY[key][0](values)
               for key, values in wl.quality.items() if values}
    return {"workload": name,
            "pass_walls": [[p["wall_s"] for p in plain], [p["wall_s"] for p in traced]],
            "attempted": wl.attempted, "failed": wl.failed,
            "problems": wl.problems, "metrics": metrics, "quality": quality,
            "fingerprints": wl.fingerprints}


def report(r: dict, reported: list[str], units: dict[str, str],
           baseline: dict | None) -> None:
    from checks import QUALITY

    plain, traced = ([round(w, 3) for w in walls] for walls in r["pass_walls"])
    print(f"== {r['workload']}: {r['attempted']} runs, {r['failed']} failed "
          f"(failed_frac {r['failed'] / r['attempted']:g} ratio); pass wall "
          f"times {plain} s untraced, {traced} s traced")
    for name in reported:
        value = r["metrics"][name]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"   {name:45s} {shown} {units[name]}")
    for name, value in r["quality"].items():
        print(f"   {name:45s} {value:.6g} {QUALITY[name][1]}")
    if baseline is not None:
        recorded = baseline["fingerprints"].get(r["workload"], {})
        same = sum(recorded.get(k) == v for k, v in r["fingerprints"].items())
        print(f"   outputs bitwise identical to the recorded default-seed "
              f"fingerprints: {same}/{len(recorded)}")
    for problem in r["problems"]:
        print(f"   FAILED {problem}")


def main() -> int:
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-baseline", action="store_true",
                        help="write default-seed fingerprints and the machine "
                             "to baseline.json")
    args = parser.parse_args()
    if not (SRC / "meanfield_ldp" / "cli.py").is_file():
        print(f"no meanfield_ldp source under {SRC}", file=sys.stderr)
        return 2
    if args.record_baseline and args.seed != DEFAULT_SEED:
        parser.error(f"--record-baseline needs --seed {DEFAULT_SEED}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    host = machine()
    print("machine:", json.dumps(host))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace),
                                work / name, host["nproc"])
                   for name in names]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    baseline = None
    if args.seed == DEFAULT_SEED and BASELINE.exists():
        baseline = json.loads(BASELINE.read_text())
    for r in results:
        report(r, reported, units, baseline)
    if args.record_baseline:
        recorded = baseline["fingerprints"] if baseline else {}
        recorded.update({r["workload"]: r["fingerprints"] for r in results})
        BASELINE.write_text(json.dumps(
            {"seed": DEFAULT_SEED, "machine": host, "fingerprints": recorded},
            indent=1, sort_keys=True) + "\n")

    def value(r: dict, name: str) -> dict:
        return {"value": r["metrics"][name], "unit": units[name]}

    if len(results) == 1:
        metrics = {name: value(results[0], name) for name in reported}
    else:
        metrics = {f"{r['workload']}/{name}": value(r, name)
                   for r in results for name in reported}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
