"""Run alternating parent/change benchmark pairs and write a BENCH_*.json.

Usage:

    python tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --pairs cross-session-csv=801-810 --pairs toy-sweep=831,832 \\
        [--seconds 30] [--trace 0] [--claim cross-session-csv:step_ms.p50] \\
        [--what TEXT] --out BENCH_N.json

PARENT_DIR and CHANGE_DIR are two checkouts, each with its own ``perfbench/``
and ``src/``. For every workload and seed the script runs
``python3 perfbench/run.py --workload W --seed S --seconds X --trace T``
once in each checkout, back to back: even pairs run the parent first, odd
pairs the change. Each side keeps its own ``--state-dir`` (under
``--state-root``, by default a fresh temporary directory), so output
digests are compared within a side only.

The output holds every run's result line verbatim, the fields of the line
before it that carry no host path (samples, host steal, projected fold
time, failures), and a summary per trace mode, workload and metric: the
per-side median and inclusive quartiles over the pairs where both runs
passed, the change's win and tie counts (``better`` from the change's
``BENCHMARK.json``), the relative change of the medians and the parent's
IQR, and ``parent_first``, how many of those pairs ran the parent first:
when it is not half of them, run order does not cancel out, and the script
warns on stderr. Each trace-0 metric with a ``bound`` (the end-to-end ones) also gets
``within_bound``: the change's median is no worse than the parent's by more
than that fraction of it. The top-level ``out_of_bound`` lists every
``[workload, metric]`` that breaks its bound. A ``--claim W:METRIC`` is met
when the change wins at least 9 pairs in 10 and its median beats the
parent's by more than the parent's IQR.
Each side's ``git rev-parse HEAD`` is recorded as ``parent``/``change``; a
side whose files differ from it reads ``<side>_dirty: true`` and
``<side>_diff_sha256``, the sha256 of its ``git diff HEAD``.
The file is rewritten after every run, and ``--append`` adds the runs to
those already in ``--out``, so a series can be made in several calls.
This script only reads ``perfbench/`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile

INFO_KEYS = ("samples", "host_steal_s", "projected_seed_fold_s", "train_rows", "failures")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git_state(checkout: str) -> dict:
    """The checkout's ``head`` commit and whether ``git status --porcelain``
    lists changes (``dirty``), and for a dirty one ``diff_sha256``, the sha256
    of ``git diff HEAD`` (None when clean), so an uncommitted change is not
    recorded under its parent's hash alone."""
    def git(*args):
        proc = subprocess.run(["git", "-C", checkout, *args], capture_output=True)
        return proc.stdout if proc.returncode == 0 else None

    head, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    return {"head": head.decode().strip() if head else None, "dirty": bool(status),
            "diff_sha256": hashlib.sha256(git("diff", "HEAD") or b"").hexdigest()
            if status else None}


def run_one(checkout: str, workload: str, seed: int, seconds: float, trace: int,
            state_dir: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--state-dir", state_dir]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    record = {"exit_code": proc.returncode, "result_line": lines[-1] if lines else None}
    try:
        info = json.loads(lines[-2])["info"]
    except (IndexError, ValueError, KeyError):
        info = {}
    record.update({key: info[key] for key in INFO_KEYS + ("environment",) if key in info})
    if "trace" in info:
        record["trace_info"] = {k: v for k, v in info["trace"].items() if k != "spans_file"}
    if proc.returncode != 0:
        record["stderr_tail"] = proc.stderr.strip().splitlines()[-5:]
    return record


def metrics_of(run: dict) -> dict | None:
    """The run's metric values, or None if it failed."""
    if run["exit_code"] != 0 or not run["result_line"]:
        return None
    result = json.loads(run["result_line"])
    if not result.get("correct"):
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(runs: list[dict], spec: dict) -> tuple[dict, list]:
    """{trace: {workload: {metric: stats}}} over pairs where both sides
    passed, and the (trace, workload, pair) of every other pair."""
    pairs: dict = {}
    parent_first = {}
    for run in runs:
        key = (run["trace"], run["workload"], run["pair"])
        pairs.setdefault(key, {})[run["side"]] = metrics_of(run)
        if run["side"] == "parent":
            parent_first[key] = bool(run.get("runs_first"))
    out: dict = {}
    failed = []
    for key, sides in sorted(pairs.items()):
        parent, change = sides.get("parent"), sides.get("change")
        if parent is None or change is None:
            failed.append(list(key))
            continue
        table = out.setdefault(str(key[0]), {}).setdefault(key[1], {})
        for name in sorted(parent.keys() & change.keys()):
            entry = table.setdefault(name, {"parent": [], "change": [], "parent_first": 0})
            entry["parent"].append(parent[name])
            entry["change"].append(change[name])
            entry["parent_first"] += parent_first[key]
    for trace, by_workload in out.items():
        for table in by_workload.values():
            for name, entry in table.items():
                better, bound = spec.get(name, ("lower", None))
                p, c = entry.pop("parent"), entry.pop("change")
                sign = 1 if better == "lower" else -1
                pq, cq = quartiles(p), quartiles(c)
                entry.update({
                    "pairs": len(p),
                    "change_wins": sum(sign * (b - a) < 0 for a, b in zip(p, c)),
                    "ties": sum(a == b for a, b in zip(p, c)),
                    "parent_q1_median_q3": pq,
                    "change_q1_median_q3": cq,
                    "median_change_rel": (cq[1] - pq[1]) / pq[1] if pq[1] else None,
                    "parent_iqr": pq[2] - pq[0],
                    "better": better,
                    "bound": bound,
                })
                if trace == "0" and bound is not None:
                    entry["within_bound"] = sign * (cq[1] - pq[1]) <= bound * abs(pq[1])
    return out, failed


def out_of_bound(summary: dict) -> list:
    """[workload, metric] of every trace-0 metric whose median breaks its bound."""
    return [[workload, name] for workload, table in sorted(summary.get("0", {}).items())
            for name, entry in sorted(table.items()) if entry.get("within_bound") is False]


def order_warnings(summary: dict) -> list[str]:
    """One line per trace mode and workload whose pairs did not run the parent
    first in exactly half of them."""
    return [f"warning: {workload} (trace {trace}): {e['parent_first']} of {e['pairs']} pairs "
            "ran the parent first, so run order does not cancel out"
            for trace, by_workload in sorted(summary.items())
            for workload, table in sorted(by_workload.items())
            for e in list(table.values())[:1] if 2 * e["parent_first"] != e["pairs"]]


def claim_result(summary: dict, claim: str) -> dict:
    workload, _, metric = claim.partition(":")
    entry = summary.get("0", {}).get(workload, {}).get(metric)
    if entry is None:
        return {"workload": workload, "metric": metric, "met": False, "why": "no pairs"}
    pq, cq = entry["parent_q1_median_q3"], entry["change_q1_median_q3"]
    gain = (pq[1] - cq[1]) if entry["better"] == "lower" else (cq[1] - pq[1])
    met = entry["change_wins"] * 10 >= 9 * entry["pairs"] and gain > entry["parent_iqr"]
    return {"workload": workload, "metric": metric, "pairs": entry["pairs"],
            "change_wins": entry["change_wins"], "median_parent": pq[1],
            "median_change": cq[1], "parent_iqr": entry["parent_iqr"], "met": met}


def metric_spec(checkout: str) -> dict:
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: (m["better"], m.get("bound"))
            for m in bench["end_to_end"] + bench["per_layer"]}


def write(path: str, doc: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="checkout of the parent")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=SEEDS",
                   help="workload and seeds, e.g. toy-sweep=801-805,809; repeatable")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    p.add_argument("--what", default="", help="one line on what the change does")
    p.add_argument("--state-root", help="where each side's --state-dir goes")
    p.add_argument("--append", action="store_true", help="add to the runs already in --out")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    plan = []
    for item in args.pairs:
        workload, _, seeds = item.partition("=")
        plan.extend((workload, seed) for seed in parse_seeds(seeds))
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    state_root = args.state_root or tempfile.mkdtemp(prefix="bench-pairs-")
    spec = metric_spec(checkouts["change"])
    doc = {"runs": [], "claim_specs": []}
    if args.append and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["what"] = args.what or doc.get("what", "")
    doc["claim_specs"] = sorted(set(doc["claim_specs"]) | set(args.claim))
    for side, checkout in checkouts.items():
        state = git_state(checkout)
        doc[side], doc[f"{side}_dirty"] = state["head"], state["dirty"]
        doc[f"{side}_diff_sha256"] = state["diff_sha256"]
    doc["procedure"] = (
        "tools/bench_pairs.py: per workload and seed, perfbench/run.py once per checkout, "
        "back to back with the same seed; even pairs run the parent first, odd pairs the "
        "change. Each side has its own --state-dir. Quartiles are inclusive-method; "
        "summaries count only pairs where both runs passed.")

    for workload, seed in plan:
        pair = sum(1 for r in doc["runs"] if r["workload"] == workload
                   and r["trace"] == args.trace and r["side"] == "parent")
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for i, side in enumerate(order):
            state_dir = os.path.join(state_root, side)
            record = {"workload": workload, "side": side, "seed": seed, "pair": pair,
                      "runs_first": i == 0, "trace": args.trace}
            record.update(run_one(checkouts[side], workload, seed, args.seconds,
                                  args.trace, state_dir))
            environment = record.pop("environment", None)
            if side == "change" and environment:
                doc["environment"] = environment
            doc["runs"].append(record)
            print(f"{workload} seed {seed} pair {pair} {side}: exit {record['exit_code']}",
                  file=sys.stderr)
            doc["summary"], doc["failed_pairs"] = summarize(doc["runs"], spec)
            doc["out_of_bound"] = out_of_bound(doc["summary"])
            doc["claims"] = [claim_result(doc["summary"], c) for c in doc["claim_specs"]]
            write(args.out, doc)
    for line in order_warnings(doc.get("summary", {})):
        print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
