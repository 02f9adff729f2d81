"""The standing rule: every top-level function and class in ``src/msmda/``
has a caller outside the tests, and every defaulted parameter of one is set
by a caller outside the tests.

The modules of ``src/msmda/`` (``__init__.py`` aside), ``perfbench/`` and
``tools/`` are parsed with ``ast``. A name counts as used when one of those
files reads it, as a bare name or as an attribute; an intra-package
``from .x import y`` alone is not a use. A defaulted parameter counts as set
when a call of its function's name (its class's, for ``__init__``) in one of
those files passes it, by keyword or by position; a ``*`` or ``**`` argument
counts as passing every position or every keyword. Nested functions are not
checked, nor are branches.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    # the paper's definition of the DE (differential-entropy) feature;
    # acceptance criterion 6 tests it
    "de_gaussian",
}

ALLOWED_PARAMETERS = {
    # they let a test substitute fake /proc and cgroup trees
    ("available_memory", "proc"),
    ("available_memory", "cgroups"),
}


def parse_callers():
    src = [p for p in sorted((ROOT / "src" / "msmda").glob("*.py")) if p.name != "__init__.py"]
    callers = src + sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    return src, {path: ast.parse(path.read_text(), filename=str(path)) for path in callers}


def defaulted_parameters(tree):
    """(callee, parameter, position) of every defaulted parameter of a
    top-level function or method. ``position`` counts the arguments a caller
    writes (not ``self`` or ``cls``), None for a keyword-only parameter; a
    constructor's callee is its class."""
    def of(func, callee, skip):
        positional = func.args.posonlyargs + func.args.args
        first = len(positional) - len(func.args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield callee, arg.arg, i - skip
        for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
            if default is not None:
                yield callee, arg.arg, None

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from of(node, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    callee = node.name if item.name == "__init__" else item.name
                    yield from of(item, callee, 0 if static else 1)


def calls(trees):
    """callee name -> [(positional count, keywords, any ``*``, any ``**``)]."""
    found = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            plain = [a for a in node.args if not isinstance(a, ast.Starred)]
            found.setdefault(name, []).append((
                len(plain),
                {k.arg for k in node.keywords if k.arg is not None},
                len(plain) < len(node.args),
                any(k.arg is None for k in node.keywords),
            ))
    return found


def test_every_top_level_name_has_a_caller():
    src, trees = parse_callers()
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


def test_every_defaulted_parameter_is_set_outside_the_tests():
    src, trees = parse_callers()
    found = calls(trees.values())

    def is_set(callee, name, position):
        return any(
            name in keywords or double or (position is not None and (position < count or star))
            for count, keywords, star, double in found.get(callee, ())
        )

    unset = [
        f"{path.relative_to(ROOT)}: {callee}({name})"
        for path in src
        for callee, name, position in defaulted_parameters(trees[path])
        if (callee, name) not in ALLOWED_PARAMETERS and not is_set(callee, name, position)
    ]
    assert not unset, "defaulted parameters no caller outside the tests sets: " + ", ".join(unset)
