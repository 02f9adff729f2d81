"""Golden digests: the --out bytes of tools/output_digests.py's matrix, per build.

A change that alters output bytes on purpose replaces the listing for its
build in the same commit and says which files changed and why; the listing
is never rewritten just to make this test pass.
"""

import importlib.util
from pathlib import Path

import pytest

from conftest import record_lanes, usable_cpus

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


def test_matrix_on_four_usable_cpus_matches_golden_listing(tmp_path, monkeypatch):
    # one-fold synthetic runs fork branch lanes on the spare CPUs; a run that
    # forks none would check no lane's bytes
    lanes = record_lanes(monkeypatch, tmp_path / "lanes.txt")
    usable_cpus(monkeypatch, 4)
    assert_matrix_matches_golden_listing((tmp_path / "matrix").resolve())
    assert len(lanes.read_text().splitlines()) > 0


def test_all_cores_rewrites_only_listings_whose_two_runs_agree(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    prefix = tool.build_prefix()
    runs = {"Agree": ["new\n", "new\n"], "Differ": ["new\n", "newer\n"], "Dies": [None, None]}
    for core in runs:
        (tmp_path / f"{prefix}{core}.txt").write_text("old\n")
    (tmp_path / "numpy-0.0_openblas-0.0_Agree.txt").write_text("old\n")

    def core_listing(core, workdir):
        listing = runs[core].pop(0)
        return listing, "" if listing else "exit -4: SIGILL"

    monkeypatch.setattr(tool, "GOLDEN", tmp_path)
    monkeypatch.setattr(tool, "core_listing", core_listing)
    assert tool.all_cores() == 1
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {
        f"{prefix}Agree.txt": "new\n", f"{prefix}Differ.txt": "old\n",
        f"{prefix}Dies.txt": "old\n", "numpy-0.0_openblas-0.0_Agree.txt": "old\n"}
    err = capsys.readouterr().err
    assert f"skip {prefix}Differ.txt: the two runs differ" in err
    assert f"skip {prefix}Dies.txt: exit -4: SIGILL" in err
