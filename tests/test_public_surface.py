"""Every module-level name of the package has a user outside the unit
tests: some module of ``src/``, a script or the benchmark harness names
it.  Module-level names are the top-level functions, classes and
assigned constants, private ones included; the methods and properties
of the public classes count too.  Dunders are excluded.  References are
read from the syntax tree, so a mention in a docstring, a comment or a
``getattr`` string does not count, and neither does a name's use inside
its own definition.  A top-level name is referenced by name inside its
own module, and from elsewhere by attribute access or by an import from
its module; a method is referenced by attribute access.  Code that only
the tests need lives in the tests (the paper's audits are in
``tests/audits.py``)."""
import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "meanfield_ldp"
USERS = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]


def _assigned_names(node) -> list[str]:
    """The plain names a top-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def _definitions() -> dict[tuple[Path, str, bool], list[tuple[int, int]]]:
    """(home file, name, is a method) -> (first line, last line) of each
    of its definitions there; methods of different classes may share a
    name."""
    defs: dict[tuple[Path, str, bool], list[tuple[int, int]]] = {}

    def add(path, name, node, method=False):
        if not (name.startswith("__") and name.endswith("__")):
            defs.setdefault((path, name, method), []).append(
                (node.lineno, node.end_lineno))

    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for name in _assigned_names(node):
                add(path, name, node)
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            add(path, node.name, node)
            if isinstance(node, ast.ClassDef) \
                    and not node.name.startswith("_"):
                for member in node.body:
                    if (isinstance(member, ast.FunctionDef)
                            and not member.name.startswith("_")):
                        add(path, member.name, member, method=True)
    return defs


def _refers(key, path: Path, via: str, module: str | None) -> bool:
    """Whether a name seen in ``path`` as a plain name, an attribute or
    an import from ``module`` can mean the definition ``key``."""
    home, _, method = key
    if via == "attribute":
        return True
    if method:
        return False
    return path == home if via == "name" else module == home.stem


def _references(defs) -> dict[tuple[Path, str, bool], int]:
    """References to each definition outside its own definitions."""
    counts = dict.fromkeys(defs, 0)
    keys_of: dict[str, list[tuple[Path, str, bool]]] = {}
    for key in defs:
        keys_of.setdefault(key[1], []).append(key)
    for root in USERS:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                module = None
                if isinstance(node, ast.Name):
                    names, via = [node.id], "name"
                elif isinstance(node, ast.Attribute):
                    names, via = [node.attr], "attribute"
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names, via = [alias.name for alias in node.names], "import"
                    module = node.module.rsplit(".", 1)[-1]
                else:
                    continue
                for name in names:
                    for key in keys_of.get(name, ()):
                        inside = path == key[0] and any(
                            first <= node.lineno <= last
                            for first, last in defs[key])
                        if not inside and _refers(key, path, via, module):
                            counts[key] += 1
    return counts


def test_every_public_name_has_a_caller():
    counts = _references(_definitions())
    unused = sorted(f"{home.stem}.{name}"
                    for (home, name, _), n in counts.items() if n == 0)
    assert not unused, (f"module-level names that only tests reach: "
                        f"{unused}; delete them, give them a caller, or "
                        "move them into the tests")



def test_every_exception_class_is_raised():
    """Every exception class of ``src/`` has a ``raise`` left there: a
    class that nothing raises names an error no caller can meet."""
    bases, raised = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [b.id for b in node.bases
                                    if isinstance(b, ast.Name)]
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = getattr(node.exc, "func", node.exc)
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)

    def is_exception(name: str) -> bool:
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return any(map(is_exception, bases.get(name, ())))

    exceptions = set(filter(is_exception, bases))
    assert exceptions
    assert not exceptions - raised, (
        f"exception classes that src/ never raises: "
        f"{sorted(exceptions - raised)}")
