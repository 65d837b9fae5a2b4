"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions of each package module
with wrappers, in every package module that holds a reference to them,
so calls between modules are seen as well as calls from the CLI.  No
program file changes.  A span is (id, parent id, name, thread id,
start ns, end ns, attributes); spans are kept in memory and summarised
when the pass ends.  Each thread keeps its own span stack, so spans
opened in a worker pool nest under nothing rather than under whatever
the main thread has open.

Calls in ``COUNTED`` and ``COUNTED_METHODS`` are counted, not timed:
their metrics are call counts, and the rate tables and distribution
constructors run up to millions of times per pass, where a span around
each would distort the pass it is meant to describe.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import threading
import time
from collections import defaultdict

MODULES = ("cli", "simulator", "cost", "quasipotential", "mckean_vlasov",
           "models", "measures")

COUNTED = {"measures.tv_distance", "models.single_particle_stationary"}
# (module, class, method) -> counter name
COUNTED_METHODS = {
    ("models", "RateModel", "forward_rates"): "models.rate_table",
    ("models", "RateModel", "backward_rates"): "models.rate_table",
    ("models", "RateModel", "drift"): "models.drift",
    ("measures", "StateDistribution", "__post_init__"):
        "measures.state_distribution",
}


def _plan(args: inspect.BoundArguments, result) -> dict:
    traj = args.arguments["traj"]
    return {"plan": id(traj), "segments": len(traj.segments)}


def _draws(args: inspect.BoundArguments, result) -> dict:
    a = args.arguments
    return {"draws": a["samples_per_N"] * len(a["N_list"])}


def _steps(args: inspect.BoundArguments, result) -> dict:
    return {"steps": len(result.times) - 1}


def _equilibrium_input(args: inspect.BoundArguments, result) -> dict:
    args.apply_defaults()
    a = args.arguments
    initial = a["initial"]
    key = (id(a["model"]), a["z_max"], a["tol"], a["max_iters"],
           None if initial is None else initial.probs.tobytes())
    return {"input": key}


# span name -> attribute hook, called with the bound arguments and the
# result of a call that returned
HOOKS = {
    "cost.cost_nonvariational": _plan,
    "simulator.estimate_rate_curve": _draws,
    "mckean_vlasov.integrate": _steps,
    "mckean_vlasov.find_equilibrium": _equilibrium_input,
}
# spans that also record the CPU time of their own thread ("cpu_ns"):
# under the interpreter lock, pool threads can be open but not running
THREAD_CPU = {"mckean_vlasov.integrate"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._counters: dict[str, itertools.count] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        cpu_clock = time.thread_time_ns if name in THREAD_CPU else None
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            attrs = None
            cpu0 = cpu_clock() if cpu_clock else 0
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if hook:
                    attrs = hook(signature.bind(*args, **kwargs), result)
                if cpu_clock:
                    attrs = {**(attrs or {}), "cpu_ns": cpu_clock() - cpu0}
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, name, threading.get_ident(),
                              start, end, attrs))
        return wrapper

    def count(self, name: str, fn):
        counter = self._counters.setdefault(name, itertools.count())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)  # atomic under the interpreter lock
            return fn(*args, **kwargs)
        return wrapper

    def counts(self) -> dict[str, int]:
        """Calls per counter; read once, after the pass."""
        return {name: next(c) for name, c in self._counters.items()}

    def install(self) -> None:
        modules = {short: importlib.import_module(f"meanfield_ldp.{short}")
                   for short in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                label = f"{short}.{attr}"
                wrapped[obj] = (self.count(label, obj) if label in COUNTED
                                else self.span(label, obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        for (short, cls_name, method), label in COUNTED_METHODS.items():
            cls = getattr(modules[short], cls_name)
            setattr(cls, method, self.count(label, getattr(cls, method)))


def layer_metrics(tracer: Tracer, threads: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass (times in seconds)."""
    by_name: dict[str, list[tuple]] = defaultdict(list)
    child_ns: dict[int, int] = defaultdict(int)
    name_of: dict[int, str] = {}
    for s in tracer.spans:
        by_name[s[2]].append(s)
        name_of[s[0]] = s[2]
        if s[1] is not None:
            child_ns[s[1]] += s[5] - s[4]

    def calls(name):
        return len(by_name[name])

    def total_s(name):
        return sum(s[5] - s[4] for s in by_name[name]) / 1e9

    def self_s(name):
        return sum(s[5] - s[4] - child_ns[s[0]] for s in by_name[name]) / 1e9

    def attr_sum(name, key):
        return sum(s[6][key] for s in by_name[name] if s[6])

    def ratio(a, b):
        return a / b if b else 0.0

    saves = [s for s in tracer.spans if s[2].split(".")[-1].startswith("save_")
             and not name_of.get(s[1], "").split(".")[-1].startswith("save_")]
    step_us = sorted((s[5] - s[4]) / 1e3
                     for s in by_name["simulator.gillespie_step"])
    p50 = statistics.median(step_us) if step_us else 0.0
    p99 = (statistics.quantiles(step_us, n=100)[98]
           if len(step_us) >= 2 else p50)

    recovery_ids = {s[0] for s in by_name["cost.flux_from_path"]}
    per_bound: dict[int, set] = defaultdict(set)
    recost_calls = 0
    bound_ids = {s[0] for s in by_name["quasipotential.v_upper_bound"]}
    for s in by_name["cost.cost_nonvariational"]:
        if s[1] in bound_ids:
            recost_calls += 1
            per_bound[s[1]].add(s[6]["plan"] if s[6] else s[0])
    plans = sum(len(v) for v in per_bound.values())

    # pool capacity used: CPU time of the integrations started inside
    # check_B2, over threads x its wall time
    b2_busy = b2_capacity = 0
    for b in by_name["mckean_vlasov.check_B2"]:
        b2_capacity += threads * (b[5] - b[4])
        b2_busy += sum(s[6]["cpu_ns"] for s in by_name["mckean_vlasov.integrate"]
                       if b[4] <= s[4] <= b[5] and s[6])

    counts = tracer.counts()
    return {
        "cli.output_write_s": sum(s[5] - s[4] for s in saves) / 1e9,
        "simulator.gillespie_step.calls": calls("simulator.gillespie_step"),
        "simulator.gillespie_step.p50_us": p50,
        "simulator.gillespie_step.p99_us": p99,
        "simulator.jumps_per_s": ratio(
            calls("simulator.gillespie_step"),
            total_s("simulator.estimate_invariant_multi")),
        "simulator.estimate_invariant_multi.self_s":
            self_s("simulator.estimate_invariant_multi"),
        "simulator.estimate_rate_curve.total_s":
            total_s("simulator.estimate_rate_curve"),
        "simulator.draws_per_s": ratio(
            attr_sum("simulator.estimate_rate_curve", "draws"),
            total_s("simulator.estimate_rate_curve")),
        "cost.cost_variational.calls": calls("cost.cost_variational"),
        "cost.cost_variational.total_s": total_s("cost.cost_variational"),
        "cost.flux_from_path.total_s": total_s("cost.flux_from_path"),
        "cost.flux_from_path.self_s": self_s("cost.flux_from_path"),
        "cost.nonvar_per_recovery": ratio(
            sum(1 for s in by_name["cost.cost_nonvariational"]
                if s[1] in recovery_ids),
            calls("cost.flux_from_path")),
        "cost.cost_nonvariational.calls": calls("cost.cost_nonvariational"),
        "cost.cost_nonvariational.self_s": self_s("cost.cost_nonvariational"),
        "cost.cost_nonvariational.segments_per_s": ratio(
            attr_sum("cost.cost_nonvariational", "segments"),
            total_s("cost.cost_nonvariational")),
        "quasipotential.v_upper_bound.calls":
            calls("quasipotential.v_upper_bound"),
        "quasipotential.v_upper_bound.self_s":
            self_s("quasipotential.v_upper_bound"),
        "quasipotential.recost_ratio": ratio(recost_calls, plans),
        "mckean_vlasov.integrate.calls": calls("mckean_vlasov.integrate"),
        "mckean_vlasov.integrate.total_s": total_s("mckean_vlasov.integrate"),
        "mckean_vlasov.rk4_steps_per_s": ratio(
            attr_sum("mckean_vlasov.integrate", "steps"),
            attr_sum("mckean_vlasov.integrate", "cpu_ns") / 1e9),
        "mckean_vlasov.pool_efficiency": ratio(b2_busy, b2_capacity),
        "mckean_vlasov.find_equilibrium.calls":
            calls("mckean_vlasov.find_equilibrium"),
        "mckean_vlasov.find_equilibrium.distinct": len(
            {s[6]["input"] for s in by_name["mckean_vlasov.find_equilibrium"]
             if s[6]}),
        "models.rate_table.calls": counts.get("models.rate_table", 0),
        "models.drift.calls": counts.get("models.drift", 0),
        "models.single_particle_stationary.calls":
            counts.get("models.single_particle_stationary", 0),
        "measures.tv_distance.calls": counts.get("measures.tv_distance", 0),
        "measures.state_distribution.constructions":
            counts.get("measures.state_distribution", 0),
    }
