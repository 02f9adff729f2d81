"""Time ``losses.mmd_squared`` per call in two checkouts and print JSON.

Usage:

    python tools/mmd_probe.py CHANGE_DIR PARENT_DIR > OUT.json

Each checkout's ``src/`` is imported in its own fresh interpreter per sample,
``SAMPLES`` per side, pinned to the first usable CPU with
``OPENBLAS_NUM_THREADS=1``. A sample times the multiscale kernel, its median
resolved per call as in a training step, on inputs drawn from a fixed
``numpy.random.default_rng`` seed, at each shape of ``SHAPES`` (rows per side
x features: the criterion-7 fixture's 128 x 8 and the paper's 256 x 32). It
takes the best of 5 batches of 100 calls after one warm call. Sample i runs
the change first when i is even and the parent first when it is odd, so run
order cancels over the even ``SAMPLES``.

The output, on stdout, holds each checkout's git state (as ``bench_pairs.py``
records it), every sample's per-call time in microseconds, and per shape and
side the median and inclusive quartiles, plus ``change_over_parent``, the
ratio of the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from bench_pairs import git_state

SHAPES = ((128, 8), (256, 32))
SEED = 3131
SAMPLES, BATCHES, CALLS = 10, 5, 100

CHILD = """
import json, os, sys, time
os.sched_setaffinity(0, {int(sys.argv[2])})
sys.path.insert(0, os.path.join(sys.argv[1], "src"))
import numpy as np
from msmda.losses import KernelSpec, mmd_squared

times = {}
for n, d in json.loads(sys.argv[3]):
    rng = np.random.default_rng(int(sys.argv[4]))
    source, target, kernel = rng.normal(size=(n, d)), rng.normal(size=(n, d)) + 0.5, KernelSpec()
    mmd_squared(source, target, kernel)
    best = float("inf")
    for _ in range(int(sys.argv[5])):
        start = time.perf_counter()
        for _ in range(int(sys.argv[6])):
            mmd_squared(source, target, kernel)
        best = min(best, (time.perf_counter() - start) / int(sys.argv[6]))
    times[f"{n}x{d}"] = best * 1e6
print(json.dumps(times))
"""


def sample(checkout: str, cpu: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.abspath(checkout), str(cpu), json.dumps(SHAPES),
         str(SEED), str(BATCHES), str(CALLS)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("change")
    parser.add_argument("parent")
    args = parser.parse_args(argv)
    sides, cpu = {"change": args.change, "parent": args.parent}, min(os.sched_getaffinity(0))
    samples = {side: [] for side in sides}
    for i in range(SAMPLES):
        for side in (("change", "parent") if i % 2 == 0 else ("parent", "change")):
            samples[side].append(sample(sides[side], cpu))
    summary = {}
    for n, d in SHAPES:
        shape = f"{n}x{d}"
        stats = {side: {"median_us": statistics.median(s[shape] for s in runs),
                        "quartiles_us": quartiles([s[shape] for s in runs])}
                 for side, runs in samples.items()}
        stats["change_over_parent"] = (stats["change"]["median_us"]
                                       / stats["parent"]["median_us"])
        summary[shape] = stats
    doc = {"what": "losses.mmd_squared per call, rbf_multiscale, best of "
                   f"{BATCHES} x {CALLS} calls, one BLAS thread, pinned to CPU {cpu}",
           "seed": SEED, **{side: git_state(path) for side, path in sides.items()},
           "samples_us": samples, "summary": summary}
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
