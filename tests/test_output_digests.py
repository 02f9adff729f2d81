"""Golden digests: the --out bytes of tools/output_digests.py's matrix, per build.

A change that alters output bytes on purpose replaces the listing for its
build in the same commit and says which files changed and why; the listing
is never rewritten just to make this test pass.
"""

import importlib.util
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import record_lanes, usable_cpus
from test_model import BLAS_CORES, cpu_flags

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


def test_matrix_under_haswell_kernels_matches_its_listing(tmp_path):
    # the host's own core is checked above; OpenBLAS's Haswell kernels give a row cut
    # at an odd row other bits, so one child runs the matrix under them, with one BLAS
    # thread, pinned to one usable CPU
    if not BLAS_CORES["Haswell"] <= cpu_flags():
        pytest.skip("this CPU lacks the flags OpenBLAS's Haswell kernels need")
    tool = load_tool()
    golden = GOLDEN / f"{tool.build_prefix()}Haswell.txt"
    if not golden.exists():
        pytest.skip(f"no golden listing {golden.name}")
    cpu = min(os.sched_getaffinity(0))
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=600,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    if proc.returncode == -signal.SIGILL:
        pytest.skip("OpenBLAS's Haswell kernels die with SIGILL on this CPU")
    assert proc.returncode == 0, proc.stderr
    if f"build key: {golden.stem}" not in proc.stderr.splitlines():
        pytest.skip(f"this numpy's BLAS does not run Haswell kernels: {proc.stderr[-200:]}")
    assert proc.stdout.splitlines() == golden.read_text().splitlines(), (
        f"output bytes differ from {golden.name}"
    )


def test_plain_run_removes_its_work_directory(tmp_path, monkeypatch, capsys):
    # without WORKDIR the matrix goes to a temporary directory that is gone once
    # the listing is printed; a WORKDIR given keeps its matrix
    tool = load_tool()

    def run_matrix(root):
        root.mkdir(parents=True)
        (root / "out.txt").write_text("bytes\n")

    monkeypatch.setattr(tool, "run_matrix", run_matrix)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    assert tool.run([]) == 0
    listing = capsys.readouterr().out.splitlines()
    assert len(listing) == 1 and listing[0].endswith("  out.txt")
    assert list((tmp_path / "tmp").iterdir()) == []
    assert tool.run([str(tmp_path / "kept")]) == 0
    assert capsys.readouterr().out.splitlines() == listing
    assert (tmp_path / "kept" / "matrix" / "out.txt").read_text() == "bytes\n"


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
