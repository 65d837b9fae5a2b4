"""The benchmark tracer's attribute hooks read the arguments of the
program functions they wrap by parameter name (``perfbench/tracing.py``,
``HOOKS``).  Each hook is run here on a real call, bound the way the
tracer binds it, so that renaming a parameter fails a test instead of a
traced benchmark run.  The tracer is read from its file, not imported
as a package, and nothing is written next to it."""
import inspect
import types
from pathlib import Path

from meanfield_ldp import cost, mckean_vlasov, simulator
from meanfield_ldp.measures import StateDistribution
from meanfield_ldp.quasipotential import construct_delta0_to_target
from meanfield_ldp.simulator import BallEvent

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing() -> types.ModuleType:
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def _hooked(hooks, name, fn, *args, **kwargs):
    """Call ``fn`` and its hook as the tracer does; return (result, attrs)."""
    result = fn(*args, **kwargs)
    return result, hooks[name](inspect.signature(fn).bind(*args, **kwargs),
                               result)


def test_every_hook_binds_its_function(mm1, wlan_const, interacting):
    hooks = _tracing().HOOKS
    covered = set()

    name = "cost.cost_nonvariational"
    plan = construct_delta0_to_target(StateDistribution.delta(2, 10))
    _, attrs = _hooked(hooks, name, cost.cost_nonvariational, wlan_const, plan)
    assert attrs == {"plan": id(plan), "segments": 2}
    covered.add(name)

    name = "simulator.estimate_rate_curve"
    event = BallEvent(StateDistribution.delta(0, 10), 0.3)
    _, attrs = _hooked(hooks, name, simulator.estimate_rate_curve, mm1, event,
                       [5, 6], 100, 0, z_max=10, threads=1)
    assert attrs == {"draws": 200}
    covered.add(name)

    # the tracer wraps functions by name and the program has no
    # integrate, so no traced pass runs this hook; it still reads the
    # steps of a path (a flows call returns a list of them)
    name = "mckean_vlasov.integrate"
    assert not hasattr(mckean_vlasov, "integrate")
    path, = mckean_vlasov.flows(interacting, [StateDistribution.delta(0, 12)],
                                [0.5])
    attrs = hooks[name](None, path)
    assert attrs == {"steps": path.times.size - 1} and attrs["steps"] > 0
    covered.add(name)

    name = "mckean_vlasov.find_equilibrium"
    _, attrs = _hooked(hooks, name, mckean_vlasov.find_equilibrium,
                       interacting, 12)
    assert attrs == {"input": (id(interacting), 12, 1e-10, 10000, None)}
    covered.add(name)

    assert set(hooks) == covered
