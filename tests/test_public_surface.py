"""Every public top-level function and class of the package has a user
outside the unit tests: some module of ``src/``, a script or the
benchmark harness names it.  References are read from the syntax tree
(names, attribute accesses and imported names), so a mention in a
docstring or comment does not count, and neither does a name's use
inside its own definition."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "meanfield_ldp"
USERS = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]

# public names kept without a caller, each with its reason
ALLOWED = {
    "verify_A2": "audits the paper's decay assumption (A2) on a model",
    "A2Report": "the result type of verify_A2",
    "factorial_decay_bound": "audits the paper's factorial decay of the "
                             "stationary law",
    "sanov_inf_over_ball": "the Sanov rate the rate-curve tests compare to",
    "moment_inequality_check": "audits the theta-moment growth inequality "
                               "on every constructed plan",
    "descend_to_equilibrium": "the flow-then-connector plan of the paper's "
                              "quasipotential construction",
}


def _public_definitions() -> dict[str, tuple[Path, int, int]]:
    """Public top-level function and class name -> (file, first line,
    last line) of its definition."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs[node.name] = (path, node.lineno, node.end_lineno)
    return defs


def _references(defs) -> dict[str, int]:
    """References to each defined name outside its own definition."""
    counts = dict.fromkeys(defs, 0)
    for root in USERS:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                for name in names:
                    if name not in defs:
                        continue
                    home, first, last = defs[name]
                    if path == home and first <= node.lineno <= last:
                        continue
                    counts[name] += 1
    return counts


def test_every_public_name_has_a_caller():
    defs = _public_definitions()
    assert set(ALLOWED) <= set(defs), "an allowed name is gone; drop it"
    counts = _references(defs)
    unused = sorted(name for name, n in counts.items()
                    if n == 0 and name not in ALLOWED)
    assert not unused, (f"public names that only tests reach: {unused}; "
                        "delete them or give them a caller")
