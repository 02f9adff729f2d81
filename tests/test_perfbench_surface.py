"""The msmda names the benchmark under perfbench/ looks up must keep resolving.

The test suite never imports perfbench/, so a rename there would otherwise
surface only when the benchmark runs. The tracer's TARGETS table is read from
the source without importing it.
"""

import ast
import importlib
import operator
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def tracer_targets() -> dict:
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS table")


def test_tracer_targets_resolve():
    targets = tracer_targets()
    assert targets
    for span, (module, attr) in targets.items():
        owner = importlib.import_module(module)
        assert callable(operator.attrgetter(attr)(owner)), span


def test_harness_exposes_replay_setup_calls():
    from msmda import harness

    for name in ("init_model", "build_tasks", "prepare_task"):
        assert callable(getattr(harness, name)), name
