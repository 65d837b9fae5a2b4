"""Every output file of the program is written through the output
helpers of ``measures``: ``_write_csv`` for CSV, ``_write_json`` for
JSON, and ``_real``, the one 17-digit format of a real.  Outside them,
``src/`` holds no ``csv.writer`` or ``json.dump`` call, no import of
either, and no ``.17g`` string.  ``json.dumps`` builds a string, not a
file, and is not counted."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "meanfield_ldp"
HELPERS = ("_real", "_write_csv", "_write_json")
WRITERS = {("csv", "writer"), ("csv", "DictWriter"), ("json", "dump")}


def _writes(tree) -> list[tuple[int, str]]:
    """(line, what) of each writer call or import and each ``.17g`` string."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and (node.func.value.id, node.func.attr) in WRITERS):
            found.append((node.lineno,
                          f"{node.func.value.id}.{node.func.attr}"))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"{node.module}.{alias.name}")
                      for alias in node.names
                      if (node.module, alias.name) in WRITERS]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and ".17g" in node.value):
            found.append((node.lineno, repr(node.value)))
    return found


def test_outputs_are_written_only_by_the_measures_helpers():
    inside, outside = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        spans = [(f.lineno, f.end_lineno) for f in tree.body
                 if path.stem == "measures" and isinstance(f, ast.FunctionDef)
                 and f.name in HELPERS]
        for line, what in _writes(tree):
            placed = any(a <= line <= b for a, b in spans)
            (inside if placed else outside).append(
                what if placed else f"{path.stem}.py:{line} {what}")
    assert not outside, (f"output written outside measures' helpers: "
                         f"{outside}; use _write_csv, _write_json or _real")
    assert sorted(inside) == ["'.17g'", "csv.writer", "json.dump"]
