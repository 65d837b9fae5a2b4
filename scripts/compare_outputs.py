#!/usr/bin/env python3
"""Check that this checkout writes the same output files as another tree.

    python3 scripts/compare_outputs.py --parent DIR [--work DIR]

DIR is a checkout of another revision (with its own ``src/``).  The
configs are written once: those that ``perfbench/workloads.write_configs``
writes for every workload at seeds 0 and 1, and every
``scripts/configs/*.cfg``, all of this checkout.  Each tree then runs
all of them through ``meanfield_ldp.cli.run(threads=2)`` in a fresh
interpreter that imports the package from that tree's ``src/``.

Every output file is compared byte for byte, ``manifest.json`` aside
(it records wall times and versions).  Each file that differs or is
missing from one tree is listed; for a differing CSV file, each numeric
column that changed is listed with its largest relative change.  The
exit code is 1 when any file differs or any run exits nonzero, else 0.
Outputs go under ``--work`` (default: a temporary directory, removed
at the end); nothing is written under ``perfbench/``.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1)
THREADS = 2

# run in a fresh interpreter per tree: argv = [src, json [(config, out)]];
# prints the exit codes as one JSON list on its last line
_CHILD = """
import json, sys
from pathlib import Path
src, runs = Path(sys.argv[1]), json.loads(sys.argv[2])
sys.path.insert(0, str(src))
import meanfield_ldp.cli as cli
if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
    sys.exit(f"meanfield_ldp imported from {cli.__file__}, not {src}")
print(json.dumps([cli.run(cfg, threads=%d, output_override=out)
                  for cfg, out in runs]))
""" % THREADS


def write_configs(directory: Path) -> list[tuple[str, Path]]:
    """(output label, config) for every config of the comparison."""
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, write_configs as write_workload

    configs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            label = f"{workload}_seed{seed}"
            sub = directory / label
            sub.mkdir(parents=True)
            configs += [(f"{label}/{cfg.stem}", cfg)
                        for cfg in write_workload(workload, seed, sub)]
    bundled = sorted((ROOT / "scripts" / "configs").glob("*.cfg"))
    configs += [(f"scripts_configs/{cfg.stem}", cfg) for cfg in bundled]
    return configs


def run_tree(src: Path, configs: list[tuple[str, Path]], out: Path
             ) -> list[int]:
    runs = [(str(cfg), str(out / label)) for label, cfg in configs]
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(src),
                           json.dumps(runs)],
                          cwd=out.parent, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run from {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def outputs(out: Path) -> dict[str, Path]:
    return {str(p.relative_to(out)): p for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def _relative_change(a: str, b: str) -> float | None:
    """|a - b| / max(|a|, |b|) for two numeric fields, None otherwise."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if math.isfinite(scale) else math.inf


def csv_changes(a: Path, b: Path) -> list[str]:
    """The numeric columns that differ, with their largest relative
    change, or why the two files cannot be compared column by column."""
    with open(a, newline="") as fa, open(b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        return ["headers differ"]
    if len(rows_a) != len(rows_b):
        return [f"{len(rows_a) - 1} rows against {len(rows_b) - 1}"]
    notes = []
    for c, name in enumerate(rows_a[0]):
        pairs = [(ra[c], rb[c]) for ra, rb in zip(rows_a[1:], rows_b[1:])
                 if c < len(ra) and c < len(rb)]
        changes = [_relative_change(x, y) for x, y in pairs if x != y]
        if any(ch is None for ch in changes):
            notes.append(f"{name}: a non-numeric field differs")
        elif changes:
            notes.append(f"{name}: {len(changes)} rows differ, largest "
                         f"relative change {max(changes):.3g}")
    return notes


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the revision to compare against")
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for the configs and outputs "
                             "(kept); must not exist yet")
    args = parser.parse_args()
    parent_src = args.parent.resolve() / "src"
    if not (parent_src / "meanfield_ldp").is_dir():
        parser.error(f"{parent_src} holds no meanfield_ldp package")
    work = args.work or Path(tempfile.mkdtemp(prefix="compare_outputs_"))
    work.mkdir(parents=True, exist_ok=args.work is None)
    try:
        configs = write_configs(work / "configs")
        trees = {"this": ROOT / "src", "parent": parent_src}
        failed = False
        files = {}
        for name, src in trees.items():
            out = work / name
            out.mkdir()
            codes = run_tree(src, configs, out)
            for (label, _), code in zip(configs, codes):
                if code != 0:
                    print(f"{name}: {label} exited {code}")
                    failed = True
            files[name] = outputs(out)
        this, parent = files["this"], files["parent"]
        differ = 0
        for rel in sorted(this.keys() | parent.keys()):
            if rel not in this or rel not in parent:
                print(f"{rel}: only in {'this' if rel in this else 'parent'}")
            elif this[rel].read_bytes() == parent[rel].read_bytes():
                continue
            else:
                print(f"{rel}: differs")
                if rel.endswith(".csv"):
                    for note in csv_changes(this[rel], parent[rel]):
                        print(f"    {note}")
            differ += 1
        print(f"{len(configs)} configs per tree, "
              f"{len(this.keys() | parent.keys())} output files, "
              f"{differ} differ (manifest.json aside)")
        return 1 if differ or failed else 0
    finally:
        if args.work is None:
            shutil.rmtree(work)


if __name__ == "__main__":
    raise SystemExit(main())
