"""Run a fixed matrix of msmda commands and print a digest of every file written.

Usage: python tools/output_digests.py [WORKDIR | --all-cores]

Every command runs in-process through ``msmda.cli.main``, imported from the
``src/`` next to this script, on small data: a 3x4 CSV grid from
``gen-synth``, a 4-domain ``--synth`` config, and a hand-written 2x2 CSV grid
(``HAND_GRID``) in the unusual forms the CSV contract accepts. The matrix
covers gen-synth, train (cross-session, cross-subject, ``--loso``, and
cross-session on the hand-written grid), baseline (order A and B),
ablate, the synthetic train/baseline/ablate runs with each kernel, synthetic
train runs with ``--beta-absolute --disc-start 0.5``, ``--norm sample`` and
``--norm global --order B``, dump-features on a grid and a synthetic
checkpoint, one run that diverges, and ``verify all``. The stdout of every
command is kept as ``stdout/<name>.txt`` with its exit code.

The output is one ``sha256  relpath`` line per file, sorted by path. The work
directory is replaced by ``<root>`` in ``config.json`` files and in captured
stdout, so the listings of two checkouts can be compared with ``diff``. The
files go to WORKDIR/matrix (WORKDIR defaults to a fresh temporary directory),
which must not exist yet.

The bytes depend on the BLAS build, so the expected listing is kept per build
as ``tests/golden/<build_key()>.txt``, and ``tests/test_output_digests.py``
diffs the matrix against it; its skip or failure message names the key of
this build, which the tool also prints on stderr. Write a new listing to that
file only with a change that alters output bytes on purpose, never to make
the test pass.

``--all-cores`` rewrites every listing in ``tests/golden/`` of this numpy and
OpenBLAS build, one per BLAS core: it runs the matrix twice for each, in child
interpreters under ``OPENBLAS_CORETYPE=<core>`` and one BLAS thread, and writes
the listing only when the two runs agree and the children's build key names
that core. It skips any other listing with a message on stderr (a core this
CPU cannot run, a run that fails or two runs that differ) and then exits 1.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from msmda.cli import main  # noqa: E402

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"
NET = ["--cfe-dims", "16,12,8", "--dsfe-dim", "6", "--epochs", "3", "--batch-size", "32"]
GRID_SYNTH = dict(num_domains=12, samples_per_domain=60, num_classes=3, feature_dim=10,
                  class_separation=3.0, domain_shift_scale=1.0, noise_std=1.0, rng_seed=0)
RUN_SYNTH = dict(num_domains=4, samples_per_domain=90, num_classes=3, feature_dim=8,
                 class_separation=3.0, domain_shift_scale=1.0, noise_std=1.0, rng_seed=0)
# A 2x2 grid in the unusual forms the CSV contract accepts: CRLF line ends,
# blank and whitespace-only lines, space- and tab-padded cells and labels,
# and the cell forms +1, -0, 1E5 and .5.
HAND_GRID = {
    (1, 1): ("f0,f1,f2,label\r\n"
             "1.5,-0.25,+1,0\r\n"
             "\r\n"
             " .5,\t2E-1,-0,1\r\n"
             "0.75 ,1E5,-1.5, 2\r\n"
             "   \r\n"
             "-.5,+0.125,3,\t0\r\n"
             "2.25,-1,.5,1 \r\n"
             "+2,0.5,-0.75,2\r\n"),
    (1, 2): ("f0, f1,f2 ,label\n"
             "\t-1.25,.5,1E5,0\n"
             "\n"
             "+1, -0,0.25,1\n"
             "\t\n"
             "3.5,\t+2,-.5, 2 \n"
             "-0,1.75 ,+0.5,\t0\n"
             ".25,-2,1E-2,1\n"
             "1,2,3,2\n"),
    (2, 1): ("f0,f1,f2,label\r\n"
             " 2.5 ,-0,+.75,0\r\n"
             "\t\r\n"
             ".5,1E5,-1,\t1\r\n"
             "-1.5,+3, .125, 2\r\n"
             "\r\n"
             "+0.25,\t-.5,2E0,0 \r\n"
             "1.125,0.5,-2,1\r\n"
             "-0,-1E1,.75,2\r\n"),
    (2, 2): ("f0,f1,f2,label\n"
             "1E5, +1,-0.5,0\n"
             " \t \n"
             "-.25,.5 ,\t1.5, 1\n"
             "+2.75,-0,3,2\n"
             "\n"
             "0.5,\t-1.25,+.5,\t0\n"
             "-3,2.5E-1,-0,1 \n"
             ".75,+1,1E1,2\n"),
}


def commands(root: Path) -> list[tuple[str, list[str]]]:
    grid, synth, hand = str(root / "grid"), str(root / "synth.json"), str(root / "hand_grid")
    data = ["--data", grid] + NET
    synth_run = ["--synth", synth, "--seeds", "0,1"] + NET

    def out(name):
        return ["--out", str(root / "runs" / name)]

    return [
        ("gen-synth", ["gen-synth", "--synth", str(root / "grid_synth.json"),
                       "--grid", "3x4", "--out", grid]),
        ("train-cross-session", ["train", "--scenario", "cross-session",
                                 "--seeds", "0,1,2"] + data + out("train-cross-session")),
        ("train-cross-subject", ["train", "--scenario", "cross-subject",
                                 "--seeds", "0,1,2"] + data + out("train-cross-subject")),
        ("train-loso", ["train", "--scenario", "cross-subject", "--loso",
                        "--seeds", "0,1"] + data + out("train-loso")),
        ("baseline-cross-session-A", ["baseline", "--scenario", "cross-session", "--order", "A",
                                      "--seeds", "0,1"] + data + out("baseline-cross-session-A")),
        ("baseline-cross-subject-B", ["baseline", "--scenario", "cross-subject", "--order", "B",
                                      "--seeds", "0,1,2"] + data
         + out("baseline-cross-subject-B")),
        ("train-hand-grid", ["train", "--scenario", "cross-session", "--seeds", "0,1",
                             "--data", hand] + NET + out("train-hand-grid")),
        ("ablate-both-grid", ["ablate", "--ablate", "both", "--scenario", "cross-session",
                              "--seeds", "0"] + data + out("ablate-both-grid")),
        ("synth-train-multiscale", ["train"] + synth_run + out("synth-train-multiscale")),
        ("synth-train-fixed", ["train", "--kernel", "fixed"] + synth_run
         + out("synth-train-fixed")),
        ("synth-train-linear", ["train", "--kernel", "linear"] + synth_run
         + out("synth-train-linear")),
        ("synth-train-beta-absolute", ["train", "--beta-absolute", "--disc-start", "0.5"]
         + synth_run + out("synth-train-beta-absolute")),
        ("synth-train-norm-sample", ["train", "--norm", "sample"] + synth_run
         + out("synth-train-norm-sample")),
        ("synth-train-norm-global-B", ["train", "--norm", "global", "--order", "B"]
         + synth_run + out("synth-train-norm-global-B")),
        ("synth-baseline", ["baseline"] + synth_run + out("synth-baseline")),
        ("synth-ablate-mmd", ["ablate", "--ablate", "mmd"] + synth_run + out("synth-ablate-mmd")),
        ("synth-ablate-both", ["ablate", "--ablate", "both"] + synth_run
         + out("synth-ablate-both")),
        ("dump-synth", ["dump-features", "--synth", synth, "--samples", "30", "--checkpoint",
                        str(root / "runs/synth-train-multiscale/checkpoints/synthetic_seed0.ckpt"),
                        "--out", str(root / "features/synth")] + NET),
        ("dump-grid", ["dump-features", "--data", grid, "--scenario", "cross-subject",
                       "--samples", "20", "--checkpoint",
                       str(root / "runs/train-cross-subject/checkpoints/"
                           "cross_subject-session1_seed0.ckpt"),
                       "--out", str(root / "features/grid")] + NET),
        ("diverging", ["train", "--synth", synth, "--seeds", "0", "--lr", "1e154"]
         + NET + out("diverging")),
        ("verify-all", ["verify", "all"]),
    ]


def run_matrix(root: Path) -> None:
    root.mkdir(parents=True)
    (root / "grid_synth.json").write_text(json.dumps(GRID_SYNTH))
    (root / "synth.json").write_text(json.dumps(RUN_SYNTH))
    (root / "stdout").mkdir()
    for (k, j), text in HAND_GRID.items():
        path = root / "hand_grid" / f"session{k}" / f"subject{j}.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode("ascii"))
    for name, argv in commands(root):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = main(argv)
        text = f"exit {code}\n{captured.getvalue()}"
        (root / "stdout" / f"{name}.txt").write_text(text.replace(str(root), "<root>"))


def digests(root: Path) -> list[str]:
    lines = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "config.json":
            data = data.replace(str(root).encode(), b"<root>")
        lines.append(f"{hashlib.sha256(data).hexdigest()}  {path.relative_to(root)}")
    return lines


def blas_core() -> str:
    """The OpenBLAS kernel set picked at run time, else the CPU model.

    The build target in ``np.show_config`` names only the kernels the library
    was compiled for; with DYNAMIC_ARCH the core in use can differ.
    """
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1] for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        return "unknown-cpu"
    return re.sub(r"[^A-Za-z0-9.]+", "-", model.strip())


def build_prefix() -> str:
    """numpy and OpenBLAS versions: the part of the build key every core shares."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy-{np.__version__}_openblas-{blas.get('version', 'unknown')}_"


def build_key() -> str:
    """numpy version, OpenBLAS version and core: what the output bytes depend on."""
    return build_prefix() + blas_core()


def core_listing(core: str, workdir: Path) -> tuple[str | None, str]:
    """The listing of one child run under OpenBLAS's ``core`` kernels, or None
    and why not."""
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, __file__, str(workdir)], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    keys = [line.removeprefix("build key: ") for line in proc.stderr.splitlines()
            if line.startswith("build key: ")]
    if keys[-1:] != [build_prefix() + core]:
        return None, f"the child ran {keys[-1] if keys else 'an unknown build'}"
    return proc.stdout, ""


def all_cores() -> int:
    skipped = 0
    for golden in sorted(GOLDEN.glob(f"{build_prefix()}*.txt")):
        core = golden.stem[len(build_prefix()):]
        with tempfile.TemporaryDirectory(prefix="msmda-digests-") as tmp:
            (first, why), (second, why_2) = (core_listing(core, Path(tmp) / str(i))
                                             for i in range(2))
        if first is None or second is None or first != second:
            skipped += 1
            print(f"skip {golden.name}: {why or why_2 or 'the two runs differ'}",
                  file=sys.stderr)
            continue
        golden.write_text(first)
        print(f"wrote {golden.name}", file=sys.stderr)
    return 1 if skipped else 0


def run(argv: list[str]) -> int:
    if argv == ["--all-cores"]:
        return all_cores()
    if len(argv) > 1 or argv[:1] and argv[0].startswith("-"):
        print("usage: python tools/output_digests.py [WORKDIR | --all-cores]", file=sys.stderr)
        return 2
    root = Path(argv[0] if argv else tempfile.mkdtemp(prefix="msmda-digests-")) / "matrix"
    run_matrix(root.resolve())
    print("\n".join(digests(root.resolve())))
    print(f"build key: {build_key()}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
