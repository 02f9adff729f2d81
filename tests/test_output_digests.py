"""Golden digests: the --out bytes of tools/output_digests.py's matrix, per build.

A change that alters output bytes on purpose replaces the listing for its
build in the same commit and says which files changed and why; the listing
is never rewritten just to make this test pass.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
GOLDEN = Path(__file__).resolve().parent / "golden"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_matrix_matches_golden_listing(tmp_path):
    tool = load_tool()
    key = tool.build_key()
    golden = GOLDEN / f"{key}.txt"
    if not golden.exists():
        pytest.skip(f"no golden listing for build {key}")
    root = (tmp_path / "matrix").resolve()
    tool.run_matrix(root)
    assert tool.digests(root) == golden.read_text().splitlines(), (
        f"output bytes differ from {golden.name}"
    )
