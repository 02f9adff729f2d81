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

No function in ``src/msmda/`` keeps hidden state in its module: none
rebinds a module-level name with ``global``, assigns to an item or
attribute of one, or calls a mutating method on one, unless the function
or an enclosing one binds that name itself.
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


# methods that change a list, dict or set in place
MUTATORS = {
    "append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse",
    "update", "setdefault", "popitem", "add", "discard", "difference_update",
    "intersection_update", "symmetric_difference_update", "__setitem__", "__delitem__",
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def own_nodes(nodes):
    """Every node under ``nodes`` that runs in their scope: a nested
    function, lambda or class is listed, with its decorators and defaults,
    but not its body."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            stack.extend(getattr(node, "decorator_list", []))
            if not isinstance(node, ast.ClassDef):
                stack.extend(node.args.defaults + [d for d in node.args.kw_defaults if d])
        else:
            stack.extend(ast.iter_child_nodes(node))


def bindings(nodes):
    """The names the statements ``nodes`` bind in their own scope."""
    names = set()
    for node in own_nodes(nodes):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


def module_state_writes(tree):
    """(line, what) of each place a function changes a module-level name of
    its own module: it rebinds it with ``global``, assigns to or deletes an
    item or attribute of it, or calls a mutating method on it. A name the
    function or an enclosing function binds is not the module's."""
    module = bindings(tree.body)
    imported = {(a.asname or a.name).split(".")[0]
                for node in tree.body if isinstance(node, ast.Import) for a in node.names}
    found = []

    def root(node):
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    def unpacked(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return [t for elt in target.elts for t in unpacked(elt)]
        return unpacked(target.value) if isinstance(target, ast.Starred) else [target]

    def scan(body, local, in_function):
        for node in own_nodes(body):
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            written = [(sub, "assigned") for target in targets for sub in unpacked(target)
                       if isinstance(sub, (ast.Attribute, ast.Subscript))]
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATORS and root(node.func) not in imported):
                written.append((node.func, "called"))  # a module's functions are not methods
            if in_function:
                found.extend((node.lineno, f"{ast.unparse(sub)} {how}") for sub, how in written
                             if root(sub) in module and root(sub) not in local)
                if isinstance(node, ast.Global):
                    found.extend((node.lineno, f"global {name}") for name in node.names)
            if isinstance(node, FUNCTIONS):
                args = node.args
                inner = [node.body] if isinstance(node, ast.Lambda) else node.body
                declared = {name for sub in own_nodes(inner) if isinstance(sub, ast.Global)
                            for name in sub.names}
                params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                          + [a for a in (args.vararg, args.kwarg) if a]}
                scan(inner, local | params | (bindings(inner) - declared), True)
            elif isinstance(node, ast.ClassDef):
                scan(node.body, local, in_function)  # a class body's names are not its methods'

    scan(tree.body, set(), False)
    return sorted(set(found))


def test_no_function_changes_module_state():
    src, trees = parse_callers()
    writes = [f"{path.relative_to(ROOT)}:{line}: {what}"
              for path in src for line, what in module_state_writes(trees[path])]
    assert not writes, "functions that change module-level state: " + ", ".join(writes)


HIDDEN_STATE = """
import os
CACHE = {}
FOLD = []
COUNT = 0
held = None

def rebinds():
    global COUNT
    COUNT += 1

def writes_items_and_attributes(value):
    FOLD[:] = value
    CACHE["k"] = value
    os.environ["X"] = value
    del CACHE["k"]
    first, FOLD[0] = value

def calls_mutators():
    FOLD.append(1)
    CACHE.update(k=2)

def own_names(FOLD, *CACHE):
    FOLD.append(1)
    held = [0]
    held[0] = 1
    def inner():
        held[:] = [2]
        FOLD.clear()
    return inner, [COUNT for COUNT in ()]

class Model:
    FOLD = []

    def method(self):
        self.FOLD.append(1)
        FOLD.append(2)

FOLD.append(0)
later = lambda: FOLD.pop()
"""


def test_module_state_check_sees_each_kind_of_write():
    # the module's own top-level statements, parameters, local and enclosing
    # bindings, comprehension variables and attributes of self are not flagged
    assert module_state_writes(ast.parse(HIDDEN_STATE)) == [
        (9, "global COUNT"),
        (13, "FOLD[:] assigned"),
        (14, "CACHE['k'] assigned"),
        (15, "os.environ['X'] assigned"),
        (16, "CACHE['k'] assigned"),
        (17, "FOLD[0] assigned"),
        (20, "FOLD.append called"),
        (21, "CACHE.update called"),
        (37, "FOLD.append called"),
        (40, "FOLD.pop called"),
    ]
