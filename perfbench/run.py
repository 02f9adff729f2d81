"""msmda benchmark: one workload per run, end-to-end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload cross-subject-14 --seed 0 --seconds 30 --trace 0
    python3 perfbench/smoke.py      # self-check of the benchmark at minimal size

The workloads are listed in ``BENCHMARK.json`` and built in
``perfbench/workloads.py``. A run makes the workload's inputs from
``--seed`` (untimed), then repeats its entry calls while the next one is
projected to end within ``--seconds`` (at least once), then replays the
set-up calls for up to a tenth of ``--seconds`` more. With ``--trace 0``
it prints every end-to-end metric. With ``--trace 1`` it makes one entry
call timed as with ``--trace 0`` and one traced entry call, and prints
every per-layer metric plus the tracing overhead (the difference of the
two calls' times); the spans go to ``<state-dir>/spans-<workload>.csv``.
The last line of standard output is the result object; the line before
it holds the environment, the sample count behind each metric and, for
cross-subject-14, the projected time of a SEED-shaped fold.

A run fails (exit 1, ``"correct": false``) when a fold aborts, a metric is
not finite, a summary's ``final_mean`` is not above chance, or the
``summary.json``/``metrics.csv`` digests of one workload and seed differ
between entry calls of this run or from an earlier run of the same
sources (kept under ``--state-dir``). Without ``src/msmda`` beside this
directory it exits 2 and prints no result.
"""

from __future__ import annotations

import os

# one BLAS thread, before numpy is imported anywhere
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from tracer import SETUP, UNTRACED, Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 21
SETUP_SHARE = 0.1  # of --seconds, for set-up replays after the entry calls
SEED_FOLD_STEPS = 2800  # 14 iterations x 200 epochs of a SEED cross-subject fold

# per-layer metrics: (span or layer, statistics, the end-to-end metric it
# should move and where). Emitted names are "<key>.<statistic>".
PER_LAYER = (
    ("neuralcore", ("calls", "busy_s", "self_s"),
     "step_ms.p50 on every workload"),
    ("losses", ("calls", "busy_s", "self_s"),
     "step_ms.p50 on cross-subject-14 and toy-sweep"),
    ("model", ("calls", "busy_s", "self_s"),
     "step_ms.* and sweep_s on every workload"),
    ("data", ("calls", "busy_s", "self_s"),
     "setup_s and sweep_s on cross-session-csv"),
    ("harness", ("calls", "busy_s", "self_s"),
     "sweep_s on toy-sweep, where the seed loop weighs most"),
    ("cli", ("calls", "busy_s", "self_s"),
     "sweep_s on cross-session-csv"),
    ("losses.mmd_squared", ("calls", "busy_s"),
     "step_ms.p50 and train_samples_per_s on cross-subject-14 and toy-sweep; "
     "no change on cross-session-csv"),
    ("losses.classification_loss", ("busy_s",), "step_ms.p50 on toy-sweep"),
    ("losses.discrepancy_loss", ("busy_s",), "step_ms.p50 on toy-sweep"),
    ("neuralcore.linear_forward", ("calls", "busy_s"),
     "step_ms.p50 on cross-session-csv; sweep_s through predict"),
    ("neuralcore.linear_backward", ("calls", "busy_s"), "step_ms.p50 on cross-session-csv"),
    ("neuralcore.leaky_relu", ("busy_s",), "step_ms.p50 on cross-session-csv"),
    ("neuralcore.leaky_relu_backward", ("busy_s",), "step_ms.p50 on cross-session-csv"),
    ("neuralcore.softmax", ("busy_s",), "step_ms.p50 on cross-session-csv"),
    ("neuralcore.adam_step", ("calls", "busy_s"), "step_ms.p50 on toy-sweep"),
    ("model.train_step", ("calls", "busy_s", "self_s"),
     "step_ms.*; self_s (validation and stacking glue) most on toy-sweep"),
    ("model.predict", ("calls", "busy_s", "rows"), "sweep_s on cross-subject-14"),
    ("model.init_model", ("busy_s",), "setup_s on every workload"),
    ("model.save_checkpoint", ("busy_s",), "sweep_s on cross-session-csv"),
    ("data.load_domain_csv", ("calls", "busy_s", "reparse_ratio"),
     "setup_s and sweep_s on cross-session-csv; zero on the synthetic workloads"),
    ("data.generate_synthetic", ("busy_s",), "setup_s on cross-subject-14"),
    ("data.normalize", ("busy_s",), "setup_s on cross-subject-14"),
    ("data.next_batch", ("busy_s",), "step_ms.p50 on every workload"),
    ("harness.build_tasks", ("busy_s",), "setup_s on every workload"),
    ("harness.prepare_task", ("busy_s",), "setup_s on every workload"),
    ("harness.train_fold", ("calls", "busy_s"),
     "sweep_s on toy-sweep and cross-session-csv, where folds can run in parallel"),
    ("harness.write_outputs", ("busy_s",), "sweep_s on cross-session-csv"),
    ("cli.main", ("self_s",), "sweep_s on cross-session-csv; expected near zero"),
)
TRACE_OVERHEAD = "trace.overhead_s"

UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "rows": "rows",
         "reparse_ratio": "calls/files"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="minimal input sizes, for checking the benchmark itself")
    p.add_argument("--state-dir", default=os.path.join(ROOT, ".perfbench_state"),
                   help="where output digests of earlier runs are kept")
    return p.parse_args(argv)


def source_digest() -> str:
    """Hash of the program's sources: digests are compared per source version."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "msmda")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def output_digest(out_dirs) -> str:
    h = hashlib.sha256()
    for out in out_dirs:
        for name in ("summary.json", "metrics.csv"):
            with open(os.path.join(out, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_head() -> str | None:
    """The checkout's commit, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_head": git_head(),
    }


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to others (all CPUs), from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def percentile_with_tail(values, q: float, tail: int = 10):
    """The q-quantile (nearest rank), if at least ``tail`` samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank < tail:
        return None
    return ordered[rank - 1]


class Run:
    """One benchmark run: inputs, timed entry calls, checks, metrics."""

    def __init__(self, args):
        import workloads  # needs the sources on sys.path

        self.args = args
        self.workload = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
        self.replay_setup = workloads.replay_setup
        self.workdir = os.path.join(ROOT, ".perfbench_tmp", f"run-{os.getpid()}")
        self.failures: list[str] = []
        self.summaries: list[dict] = []
        self.digests: list[str] = []
        self.calls = 0

    def entry_call(self):
        """One timed entry call of the workload into a fresh output directory."""
        out_dir = os.path.join(self.workdir, f"out{self.calls}")
        self.calls += 1
        t0 = time.perf_counter()
        results = self.workload.run(out_dir)
        elapsed = time.perf_counter() - t0
        self.summaries.extend(summary for summary, _ in results)
        self.digests.append(output_digest([out for _, out in results]))
        return elapsed

    def check(self) -> None:
        chance = 1.0 / self.workload.num_classes
        for summary in self.summaries:
            for fold in summary["aborted_folds"]:
                self.failures.append(f"fold {fold['fold_id']} seed {fold['seed']} aborted")
            acc = summary.get("final_mean", float("nan"))
            if not acc > chance:
                self.failures.append(
                    f"{summary['method']} final_mean {acc} is not above chance {chance:.4f}")
        if len(set(self.digests)) > 1:
            self.failures.append(f"output digests differ between entry calls: {self.digests}")
        key = f"{self.args.workload}:{self.args.seed}:{'smoke' if self.args.smoke else 'full'}"
        key += f":{source_digest()}"
        path = os.path.join(self.args.state_dir, "digests.json")
        known = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                known = json.load(fh)
        if key in known and known[key] != self.digests[0]:
            self.failures.append(
                f"output digest {self.digests[0]} differs from an earlier run's {known[key]}")
        elif key not in known:
            known[key] = self.digests[0]
            os.makedirs(self.args.state_dir, exist_ok=True)
            tmp = f"{path}.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(known, fh, indent=1, sort_keys=True)
            os.replace(tmp, path)

    def folds(self) -> tuple[int, int]:
        failed = sum(len(s["aborted_folds"]) for s in self.summaries)
        done = sum(e.get("num_folds", 0) for s in self.summaries for e in s["per_seed"])
        return done + failed, failed

    def end_to_end(self, info: dict) -> dict:
        seconds = self.args.seconds
        sweeps, setups = [], []
        with Tracer(UNTRACED) as tracer:
            t_begin = time.perf_counter()
            while True:
                mark = tracer.mark()
                sweeps.append(self.entry_call())
                setups.append(sum(sum(tracer.durations(n, mark)) for n in SETUP))
                elapsed = time.perf_counter() - t_begin
                if elapsed + sweeps[-1] > seconds:
                    break
            steps = tracer.durations("model.train_step")
            rows = sum(tracer.counts("model.train_step"))
            configs = self.workload.setup_configs()
            t_replay = time.perf_counter()
            while configs and len(setups) < SETUP_SAMPLES:
                spent = time.perf_counter() - t_replay
                if spent + setups[-1] > SETUP_SHARE * seconds:
                    break
                mark = tracer.mark()
                for config in configs:
                    self.replay_setup(config)
                setups.append(sum(sum(tracer.durations(n, mark)) for n in SETUP))

        p50 = statistics.median(steps)
        p90 = percentile_with_tail(steps, 0.9)
        if p90 is None:
            self.failures.append(f"{len(steps)} train steps leave fewer than 10 beyond p90")
            p90 = float("nan")
        acc = self.summaries[0].get("final_mean", float("nan"))
        info["samples"] = {
            "sweep_s": len(sweeps), "setup_s": len(setups), "step_ms": len(steps),
            "train_samples_per_s": len(steps), "target_acc": len(self.summaries),
            "peak_rss_mb": 1,
        }
        info["train_rows"] = rows
        if self.args.workload == "cross-subject-14":
            info["projected_seed_fold_s"] = p50 * SEED_FOLD_STEPS
        return {
            "setup_s": (statistics.median(setups), "s"),
            "sweep_s": (statistics.median(sweeps), "s"),
            "train_samples_per_s": (rows / sum(steps), "rows/s"),
            "step_ms.p50": (p50 * 1e3, "ms"),
            "step_ms.p90": (p90 * 1e3, "ms"),
            "target_acc": (acc, "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }

    def per_layer(self, info: dict) -> dict:
        with Tracer(UNTRACED):
            untraced = self.entry_call()
        with Tracer() as tracer:
            traced = self.entry_call()
        os.makedirs(self.args.state_dir, exist_ok=True)
        spans_path = os.path.join(self.args.state_dir, f"spans-{self.args.workload}.csv")
        tracer.write(spans_path)
        stats = tracer.aggregate()
        csv_calls = stats["data.load_domain_csv"]["calls"]
        csv_files = len(tracer.distinct["data.load_domain_csv"])
        metrics = {}
        for key, wanted, _ in PER_LAYER:
            for stat in wanted:
                if stat == "rows":
                    value = stats[key]["count"]
                elif stat == "reparse_ratio":
                    value = csv_calls / csv_files if csv_files else 0.0
                else:
                    value = stats[key][stat]
                metrics[f"{key}.{stat}"] = (value, UNITS[stat])
        metrics[TRACE_OVERHEAD] = (traced - untraced, "s")
        info["trace"] = {"untraced_sweep_s": untraced, "traced_sweep_s": traced,
                         "spans": len(tracer.span_name), "spans_file": spans_path}
        return metrics

    def execute(self) -> dict:
        info = {"workload": self.args.workload, "seed": self.args.seed,
                "environment": environment()}
        os.makedirs(self.workdir, exist_ok=True)
        try:
            self.workload.prepare(self.workdir)
            steal = steal_seconds()
            if self.args.trace:
                metrics = self.per_layer(info)
            else:
                metrics = self.end_to_end(info)
            if steal is not None:
                # a noisy neighbour shows here: read timings of such runs with care
                info["host_steal_s"] = steal_seconds() - steal
            self.check()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        for name, (value, _) in metrics.items():
            if not math.isfinite(value):
                self.failures.append(f"metric {name} is {value}")
        attempted, failed = self.folds()
        info["failures"] = self.failures
        for failure in self.failures:
            print(f"perfbench: {failure}", file=sys.stderr)
        print(json.dumps({"info": info}, sort_keys=True))
        return {
            "correct": not self.failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "msmda", "__init__.py")):
        print(f"perfbench: no msmda package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = Run(args).execute()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
