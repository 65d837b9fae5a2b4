"""Every public name of the package has a user outside the unit tests:
some module of ``src/``, a script or the benchmark harness names it.
Public names are the top-level functions and classes, and the methods
and properties of the public classes, dunders excluded.  References are
read from the syntax tree (names, attribute accesses and imported
names), so a mention in a docstring, a comment or a ``getattr`` string
does not count, and neither does a name's use inside its own
definition."""
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


def _public_definitions() -> dict[str, list[tuple[Path, int, int]]]:
    """Public name -> (file, first line, last line) of each of its
    definitions; methods of different classes may share a name."""
    defs: dict[str, list[tuple[Path, int, int]]] = {}

    def add(node, path):
        defs.setdefault(node.name, []).append(
            (path, node.lineno, node.end_lineno))

    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            add(node, path)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, ast.FunctionDef)
                            and not member.name.startswith("_")):
                        add(member, path)
    return defs


def _references(defs) -> dict[str, int]:
    """References to each defined name outside its own definitions."""
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
                    if name in defs and not any(
                            path == home and first <= node.lineno <= last
                            for home, first, last in defs[name]):
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
