"""One workload pass in a fresh interpreter.

Usage: ``python3 worker.py '<json spec>'``.  The spec names the
package's source directory, the threads to pass to ``cli.run``, whether
to trace, and the (config, output directory) pairs to run.  With
``"setup_only": true`` the worker stops after importing the CLI.  The
result is one JSON object on the last line of standard output.

Only the standard library is imported before the CLI, so the time from
process start to ``ready_ns`` is the set-up a user of the CLI pays.
"""
import json
import resource
import sys
import time
import warnings
from pathlib import Path


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["src"])
    sys.path.insert(0, str(src))
    t_import = time.perf_counter()
    import meanfield_ldp.cli as cli
    import_s = time.perf_counter() - t_import
    ready_ns = time.monotonic_ns()
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"meanfield_ldp imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    result = {"ready_ns": ready_ns, "import_s": import_s}
    if spec.get("setup_only"):
        print(json.dumps(result))
        return 0

    tracer = None
    if spec["trace"]:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
    with warnings.catch_warnings(record=bool(tracer)) as caught:
        if tracer:
            warnings.simplefilter("always", RuntimeWarning)
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        codes = [cli.run(cfg, threads=spec["threads"], output_override=out)
                 for cfg, out in spec["runs"]]
        wall_s = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result.update({
        "codes": codes,
        "wall_s": wall_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
    })
    if tracer:
        layers = layer_metrics(tracer, spec["threads"])
        layers["cli.import_s"] = import_s
        layers["cost.warnings"] = sum(
            1 for w in caught if issubclass(w.category, RuntimeWarning)
            and Path(w.filename).name == "cost.py")
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
