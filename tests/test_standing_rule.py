"""The standing rule: every top-level function and class in ``src/msmda/``
has a caller outside the tests.

The modules of ``src/msmda/`` (``__init__.py`` aside), ``perfbench/`` and
``tools/`` are parsed with ``ast``. A name counts as used when one of those
files reads it, as a bare name or as an attribute; an intra-package
``from .x import y`` alone is not a use. Only top-level names are checked,
not branches or settings.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    # the paper's definition of the DE (differential-entropy) feature;
    # acceptance criterion 6 tests it
    "de_gaussian",
}


def test_every_top_level_name_has_a_caller():
    src = [p for p in sorted((ROOT / "src" / "msmda").glob("*.py")) if p.name != "__init__.py"]
    callers = src + sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in callers}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{path.relative_to(ROOT)}: {node.name}"
        for path in src
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used and node.name not in ALLOWED
    ]
    assert not unused, "top-level names with no caller outside the tests: " + ", ".join(unused)
