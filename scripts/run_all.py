#!/usr/bin/env python3
"""Run every bundled experiment config through the CLI.

Outputs land under ./out/<experiment>/ next to the working directory;
pass --output-root to relocate them.  Exit code is the first nonzero
experiment exit code, if any; an unknown `--only` stem exits 2.
"""
from __future__ import annotations

import argparse
from pathlib import Path

from meanfield_ldp.cli import _positive_int, run

CONFIG_DIR = Path(__file__).parent / "configs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threads", type=_positive_int, default=None)
    parser.add_argument("--output-root", default=None,
                        help="directory to collect all experiment outputs")
    configs = sorted(CONFIG_DIR.glob("*.cfg"))
    parser.add_argument("--only", default=None,
                        choices=[cfg.stem for cfg in configs],
                        help="run a single experiment by config stem")
    args = parser.parse_args()

    worst = 0
    for cfg in configs:
        if args.only and cfg.stem != args.only:
            continue
        override = None
        if args.output_root:
            override = str(Path(args.output_root) / cfg.stem)
        print(f"== {cfg.stem}")
        code = run(cfg, threads=args.threads, output_override=override)
        print(f"   exit {code}")
        worst = worst or code
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
