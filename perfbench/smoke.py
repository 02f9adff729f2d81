"""Self-check of the benchmark at minimal size.

Run from the repository root:

    python3 perfbench/smoke.py

For every workload and both trace modes it runs ``run.py --smoke`` and
checks the result line: its keys, that every emitted metric name matches
``[A-Za-z0-9_.-]+``, and that the names are exactly the end-to-end
(``--trace 0``) or per-layer (``--trace 1``) metrics of ``BENCHMARK.json``.
It then fabricates an output-digest mismatch and checks that the run
fails, and checks that the benchmark refuses to run without the sources.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TIMEOUT = 170


def bench(args, state_dir, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, *args, "--smoke", "--state-dir", state_dir],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    scratch = os.path.join(ROOT, ".perfbench_tmp", f"smoke-{os.getpid()}")
    state = os.path.join(scratch, "state")
    problems = []
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                code, result, err = bench(
                    ["--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace)], state)
                where = f"{workload} --trace {trace}"
                if code != 0 or result is None:
                    problems.append(f"{where}: exit {code}\n{err}")
                    continue
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{where}: result keys {sorted(result)}")
                names = set(result["metrics"])
                bad = sorted(n for n in names if not NAME.fullmatch(n))
                if bad:
                    problems.append(f"{where}: malformed names {bad}")
                if names != declared[trace]:
                    problems.append(
                        f"{where}: undeclared {sorted(names - declared[trace])}, "
                        f"missing {sorted(declared[trace] - names)}")
                print(f"ok: {where} ({len(names)} metrics)")

        # a digest that disagrees with this run's outputs must fail the run
        digests_path = os.path.join(state, "digests.json")
        with open(digests_path, encoding="utf-8") as fh:
            digests = json.load(fh)
        with open(digests_path, "w", encoding="utf-8") as fh:
            json.dump({key: "0" * 64 for key in digests}, fh)
        code, result, err = bench(
            ["--workload", "toy-sweep", "--seed", "0", "--seconds", "1", "--trace", "0"], state)
        if code == 0 or result is None or result["correct"] or "digest" not in err:
            problems.append(f"fabricated digest mismatch not caught: exit {code}, {result}")
        else:
            print("ok: fabricated digest mismatch fails the run")

        # without the program's sources the benchmark exits non-zero, printing no result
        bare = os.path.join(scratch, "bare")
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, result, err = bench(
            ["--workload", "toy-sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
            state, cwd=bare)
        if code == 0 or result is not None:
            problems.append(f"run without sources: exit {code}, result {result}")
        else:
            print("ok: refuses to run without the sources")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
