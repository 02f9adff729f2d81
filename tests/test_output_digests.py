"""Golden digests: the --out bytes of tools/output_digests.py's matrix, per build.

A change that alters output bytes on purpose replaces the listing for its
build in the same commit and says which files changed and why; the listing
is never rewritten just to make this test pass.
"""

import importlib.util
from pathlib import Path

import pytest

from conftest import usable_cpus

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
GOLDEN = Path(__file__).resolve().parent / "golden"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def assert_matrix_matches_golden_listing(root):
    tool = load_tool()
    key = tool.build_key()
    golden = GOLDEN / f"{key}.txt"
    if not golden.exists():
        pytest.skip(f"no golden listing for build {key}")
    tool.run_matrix(root)
    assert tool.digests(root) == golden.read_text().splitlines(), (
        f"output bytes differ from {golden.name}"
    )


def test_matrix_matches_golden_listing(tmp_path):
    assert_matrix_matches_golden_listing((tmp_path / "matrix").resolve())


def test_matrix_on_one_usable_cpu_matches_golden_listing(tmp_path, monkeypatch):
    # a serial run writes the bytes a run on every usable CPU writes
    usable_cpus(monkeypatch, 1)
    assert_matrix_matches_golden_listing((tmp_path / "matrix").resolve())


def test_matrix_on_two_usable_cpus_matches_golden_listing(tmp_path, monkeypatch):
    # one BLAS thread each: two processes train the folds, as perfbench runs them
    usable_cpus(monkeypatch, 2)
    assert_matrix_matches_golden_listing((tmp_path / "matrix").resolve())
