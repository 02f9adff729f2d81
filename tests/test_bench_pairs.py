"""tools/bench_pairs.py's summary of hand-made run records: medians, wins and
the no-regression verdict against each end-to-end metric's bound."""

import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = {"sweep_s": ("lower", 0.25), "target_acc": ("higher", 0.1),
        "data.calls": ("lower", None)}


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def run(workload, pair, side, trace=0, exit_code=0, **metrics):
    line = json.dumps({"correct": True,
                       "metrics": {name: {"value": v} for name, v in metrics.items()}})
    # as the tool orders them: even pairs run the parent first
    return {"workload": workload, "pair": pair, "side": side, "trace": trace,
            "runs_first": (side == "parent") == (pair % 2 == 0),
            "exit_code": exit_code, "result_line": line}


def series(workload, parent, change, trace=0):
    """One pair per (parent, change) tuple of metric dicts."""
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        runs += [run(workload, pair, "parent", trace, **p),
                 run(workload, pair, "change", trace, **c)]
    return runs


def test_within_bound_and_out_of_bound_list():
    tool = load_tool()
    runs = series(  # sweep_s exactly 25% worse, target_acc 11.25% worse
        "w-a",
        [dict(sweep_s=10.0, target_acc=0.8, **{"data.calls": 12})] * 3,
        [dict(sweep_s=s, target_acc=0.71, **{"data.calls": 30}) for s in (12.4, 12.5, 12.6)])
    runs += series(  # sweep_s 30% worse, target_acc better
        "w-b", [dict(sweep_s=10.0, target_acc=0.5)] * 3, [dict(sweep_s=13.0, target_acc=0.9)] * 3)
    runs += series(  # traced runs carry no verdict
        "w-a", [dict(sweep_s=1.0)], [dict(sweep_s=9.0)], trace=1)
    runs.append(run("w-b", 3, "parent", sweep_s=1.0, target_acc=0.5))
    runs.append(run("w-b", 3, "change", exit_code=1, sweep_s=99.0, target_acc=0.0))

    summary, failed = tool.summarize(runs, SPEC)

    a, b = summary["0"]["w-a"], summary["0"]["w-b"]
    assert a["sweep_s"]["parent_q1_median_q3"][1] == 10.0
    assert a["sweep_s"]["change_q1_median_q3"][1] == 12.5
    assert a["sweep_s"]["within_bound"] is True
    assert a["target_acc"]["within_bound"] is False
    assert "within_bound" not in a["data.calls"]
    assert a["data.calls"]["change_wins"] == 0
    assert b["sweep_s"]["pairs"] == 3  # the pair whose change run failed is left out
    assert b["sweep_s"]["within_bound"] is False
    assert b["target_acc"]["within_bound"] is True
    assert b["target_acc"]["change_wins"] == 3
    assert "within_bound" not in summary["1"]["w-a"]["sweep_s"]
    assert failed == [[0, "w-b", 3]]
    assert tool.out_of_bound(summary) == [["w-a", "target_acc"], ["w-b", "sweep_s"]]


def test_a_bound_on_a_zero_median_allows_no_loss():
    tool = load_tool()
    runs = series("w", [dict(sweep_s=0.0, target_acc=0.0)] * 2,
                  [dict(sweep_s=0.0, target_acc=0.0), dict(sweep_s=0.1, target_acc=0.0)])
    summary, _ = tool.summarize(runs, SPEC)
    assert summary["0"]["w"]["target_acc"]["within_bound"] is True
    assert summary["0"]["w"]["sweep_s"]["within_bound"] is False  # median 0.05 > 0
    assert tool.out_of_bound(summary) == [["w", "sweep_s"]]


def test_a_dirty_checkout_is_recorded_with_its_diff(tmp_path):
    # an uncommitted change must not read as its parent's commit alone
    tool = load_tool()

    def git(*args):
        return subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                               "-c", "user.email=t@example.com", *args],
                              capture_output=True, check=True).stdout

    git("init", "-q")
    (tmp_path / "step.py").write_text("rows = 1\n")
    git("add", "step.py")
    git("commit", "-q", "-m", "parent")
    head = git("rev-parse", "HEAD").decode().strip()
    assert tool.git_state(str(tmp_path)) == {"head": head, "dirty": False,
                                             "diff_sha256": None}
    (tmp_path / "step.py").write_text("rows = 2\n")
    diff = git("diff", "HEAD")
    assert b"+rows = 2" in diff
    assert tool.git_state(str(tmp_path)) == {
        "head": head, "dirty": True, "diff_sha256": hashlib.sha256(diff).hexdigest()}


def test_pairs_that_split_run_order_unevenly_are_counted_and_warned():
    # with an odd pair count, or a failed pair, one side runs first more often
    tool = load_tool()
    runs = series("odd", [dict(sweep_s=1.0)] * 3, [dict(sweep_s=1.0)] * 3)
    runs += series("even", [dict(sweep_s=1.0)] * 4, [dict(sweep_s=1.0)] * 4)
    runs += series("failed", [dict(sweep_s=1.0)] * 2, [dict(sweep_s=1.0)] * 2, trace=1)
    runs[-1]["exit_code"] = 1  # the second pair ran the change first, then failed

    summary, _ = tool.summarize(runs, SPEC)

    assert summary["0"]["odd"]["sweep_s"]["parent_first"] == 2
    assert summary["0"]["even"]["sweep_s"]["parent_first"] == 2
    assert summary["1"]["failed"]["sweep_s"]["parent_first"] == 1
    assert summary["1"]["failed"]["sweep_s"]["pairs"] == 1
    assert tool.order_warnings(summary) == [
        "warning: odd (trace 0): 2 of 3 pairs ran the parent first, "
        "so run order does not cancel out",
        "warning: failed (trace 1): 1 of 1 pairs ran the parent first, "
        "so run order does not cancel out"]
