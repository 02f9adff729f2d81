"""Experiment driver: fold sweeps, ablations, baselines, dumps, self-checks.

A run trains one model per (seed, fold), evaluates the full target set
every epoch, and persists a config snapshot, per-epoch metric rows, a
summary, and final checkpoints. All randomness is derived from the master
seed plus fold index, so reruns are bit-identical and the multi-branch
method, its ablations, and the source-combine baseline see the same data
and shuffles for a given seed.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import (
    BatchSampler,
    DomainDataset,
    NormalizationSpec,
    SynthConfig,
    TransferTask,
    check_seed,
    forked_stripes,
    generate_synthetic,
    iterations_per_epoch,
    load_dataset_grid,
    make_folds,
    merge_domains,
    normalize,
    normalize_matrix,
    synthetic_task,
    write_json,
)
from .errors import DataError, ValidationError
from .losses import NUM_SCALES, KernelSpec, alpha_schedule, discrepancy_loss, mmd_squared
from .model import (
    ModelConfig,
    MsMdaModel,
    TrainConfig,
    _forward,
    arena_size,
    branch_lanes,
    compute_losses,
    extract_branch_features,
    init_model,
    load_checkpoint,
    loss_weights,
    predict,
    save_checkpoint,
    step_buffers,
    train_step,
)
from .neuralcore import (
    LinearLayer,
    Parameter,
    fan_in_uniform,
    finite_difference_check,
    leaky_relu,
    leaky_relu_backward,
    softmax,
    softmax_backward,
    softmax_cross_entropy,
)

METHODS = ("ms_mda", "source_combine")
ABLATION_MODES = ("no_mmd", "no_disc", "no_both")

# stream tags for deriving independent RNG seeds from (seed, fold)
_STREAM_DATA = 0
_STREAM_MODEL = 1
_STREAM_SAMPLER = 2
_STREAM_DUMP = 3


@dataclass
class ExperimentConfig:
    """Everything one run needs: data source, scenario, model, schedules."""

    scenario: str = "synthetic"
    data_root: str | None = None
    synth: SynthConfig | None = None
    norm: NormalizationSpec = field(default_factory=NormalizationSpec)
    model: ModelConfig = field(default_factory=lambda: ModelConfig(num_branches=1))
    train: TrainConfig = field(default_factory=TrainConfig)
    kernel: KernelSpec = field(default_factory=KernelSpec)
    method: str = "ms_mda"
    seeds: tuple[int, ...] = (0,)
    loso: bool = False
    out_dir: str | None = None

    def __post_init__(self):
        if (self.data_root is None) == (self.synth is None):
            raise ValidationError("specify exactly one of data_root or synth")
        if not self.seeds:
            raise ValidationError("seeds must be nonempty")
        self.seeds = tuple(check_seed("every seed", s) for s in self.seeds)
        if len(set(self.seeds)) != len(self.seeds):
            raise ValidationError(f"seeds must be distinct, got {list(self.seeds)}")
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        if self.data_root is None:
            if self.loso:
                raise ValidationError("loso mode applies to file data (data_root) only")
            self.scenario = "synthetic"
        elif self.scenario not in ("cross_session", "cross_subject"):
            raise ValidationError(
                f"scenario must be cross_session or cross_subject with file data, "
                f"got {self.scenario!r}"
            )


@dataclass
class MetricsRecord:
    """One (fold, epoch) row: epoch-mean loss components and target accuracy."""

    fold_id: str
    seed: int
    epoch: int
    cls: float
    mmd: float
    disc: float
    total: float
    alpha: float
    beta: float
    avg_accuracy: float
    branch_accuracies: list[float]
    status: str = "ok"

    def as_row(self) -> list[str]:
        return [
            self.fold_id, str(self.seed), str(self.epoch),
            repr(float(self.cls)), repr(float(self.mmd)), repr(float(self.disc)),
            repr(float(self.total)), repr(float(self.alpha)), repr(float(self.beta)),
            repr(float(self.avg_accuracy)),
            ";".join(repr(float(a)) for a in self.branch_accuracies),
            self.status,
        ]


METRICS_COLUMNS = tuple(f.name for f in fields(MetricsRecord))


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def _norm_after_merge(norm: NormalizationSpec, method: str) -> bool:
    """Whether the sources are z-scored only once merged: the baseline's order B."""
    return method == "source_combine" and norm.order == "B" and norm.kind != "none"


def normalize_domains(domains: dict, norm: NormalizationSpec, method: str) -> None:
    """Normalize each value of ``domains`` in place, on its own statistics,
    unless ``method`` normalizes the sources only once merged. Each replaces
    its raw matrix before the next is made, so a process holds one copy."""
    if not _norm_after_merge(norm, method):
        for key in domains:
            domains[key] = normalize(domains[key], norm)


def build_tasks(config: ExperimentConfig, seed: int) -> list[TransferTask]:
    """Fold list for one master seed; the raw data is the same across methods.

    Each domain (grid cell or generated domain) is normalized once, here, by
    ``normalize_domains``: the folds of a grid share the cells.
    """
    if config.data_root is not None:
        domains = load_dataset_grid(config.data_root)
    else:
        synth = replace(config.synth, rng_seed=_derived_seed(seed, _STREAM_DATA))
        domains = dict(enumerate(generate_synthetic(synth)))
    normalize_domains(domains, config.norm, config.method)
    if config.data_root is not None:
        return make_folds(domains, config.scenario, loso=config.loso)
    return [synthetic_task(list(domains.values()))]


def prepare_task(task: TransferTask, norm: NormalizationSpec, method: str) -> TransferTask:
    """The fold as ``method`` trains on it, from a task ``build_tasks`` made
    under the same ``norm`` and ``method``: the multi-branch method takes the
    task as it is, and the baseline merges its sources, then for order B
    normalizes the merged sources and the target."""
    if method != "source_combine":
        return task
    merged = merge_domains(task.sources)
    if not _norm_after_merge(norm, method):
        return replace(task, sources=[merged])
    return replace(task, sources=[normalize(merged, norm)], target=normalize(task.target, norm))


def _accuracy(pred: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(pred == labels))


def train_fold(
    task: TransferTask,
    config: ExperimentConfig,
    seed: int,
    fold_index: int,
    cpus: list[set[int]],
) -> tuple[list[MetricsRecord], MsMdaModel]:
    """Train one fold and evaluate the target after every epoch.

    Returns one ``ok`` row per epoch; a non-finite loss ends the fold with a
    ``diverged`` row for that epoch. With more than one CPU set in ``cpus``
    (this process's, then one per lane; see ``fold_processes``) the steps
    run on branch lanes.
    """
    prepared = prepare_task(task, config.norm, config.method)
    train = config.train
    model_cfg = replace(
        config.model,
        num_branches=prepared.num_sources,
        input_dim=prepared.target.feature_dim,
        num_classes=prepared.target.num_classes,
        rng_seed=_derived_seed(seed, fold_index, _STREAM_MODEL),
    )
    model = init_model(model_cfg)
    sampler = BatchSampler(
        prepared, train.batch_size,
        np.random.SeedSequence([seed, fold_index, _STREAM_SAMPLER, train.rng_seed]),
    )
    iters = train.iterations_per_epoch or iterations_per_epoch(prepared, train.batch_size)
    sizes = (train.batch_size,) * (prepared.num_sources + 1)  # what every step samples

    records: list[MetricsRecord] = []
    # a diverging fold overflows on purpose; its diverged row is the report
    with np.errstate(over="ignore", invalid="ignore"), branch_lanes(
            model, sizes, cpus, lambda code: DataError(
                f"fold {task.fold_id} (seed {seed}): its branch lane exited with code {code}")):
        for epoch in range(train.epochs):
            w_mmd, w_disc = loss_weights(train, epoch)
            sums = np.zeros(4)
            for _ in range(iters):
                source_batches, target_batch = sampler.next_batch(step_buffers(model, sizes).x)
                bd = train_step(
                    model, source_batches, target_batch,
                    alpha=w_mmd, beta=w_disc, lr=train.lr, kernel=config.kernel,
                )
                if not math.isfinite(bd.total):
                    records.append(MetricsRecord(
                        fold_id=task.fold_id, seed=seed, epoch=epoch,
                        cls=bd.cls, mmd=bd.mmd, disc=bd.disc, total=bd.total,
                        alpha=w_mmd, beta=w_disc, avg_accuracy=float("nan"),
                        branch_accuracies=[], status="diverged",
                    ))
                    return records, model
                sums += (bd.cls, bd.mmd, bd.disc, bd.total)
            avg_probs, pred_labels, per_branch = predict(model, prepared.target.features)
            branch_accs = [
                _accuracy(np.argmax(p, axis=1), prepared.target.labels) for p in per_branch
            ]
            records.append(MetricsRecord(
                fold_id=task.fold_id, seed=seed, epoch=epoch,
                cls=sums[0] / iters, mmd=sums[1] / iters, disc=sums[2] / iters,
                total=sums[3] / iters, alpha=w_mmd, beta=w_disc,
                avg_accuracy=_accuracy(pred_labels, prepared.target.labels),
                branch_accuracies=branch_accs,
            ))
    return records, model


def _fold_outcome(records: list[MetricsRecord]) -> tuple[str, float, float]:
    """A fold's status (its last row's) and its last and best ``ok`` accuracy."""
    ok = [r.avg_accuracy for r in records if r.status == "ok"]
    final, best = (ok[-1], float(np.max(ok))) if ok else (float("nan"), float("nan"))
    return records[-1].status, final, best


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return float(np.mean(arr)), float(np.std(arr))


def summarize(records: list[MetricsRecord], config: ExperimentConfig) -> dict:
    """Final-epoch accuracy mean/std per seed (over folds) and across seeds.

    The rows are grouped into folds by (seed, fold_id) in run order; a fold
    whose last row is not ``ok`` is listed under ``aborted_folds``.
    """
    folds: dict[tuple[int, str], list[MetricsRecord]] = {}
    for record in records:
        folds.setdefault((record.seed, record.fold_id), []).append(record)
    outcomes = {key: _fold_outcome(rows) for key, rows in folds.items()}
    per_seed = []
    seed_means = []
    seed_best_means = []
    pooled = []
    aborted = [
        {"fold_id": fold_id, "seed": seed}
        for (seed, fold_id), (status, _, _) in outcomes.items() if status != "ok"
    ]
    for seed in config.seeds:
        ok = [
            (fold_id, final, best)
            for (s, fold_id), (status, final, best) in outcomes.items()
            if s == seed and status == "ok"
        ]
        if not ok:
            per_seed.append({"seed": seed, "num_folds": 0})
            continue
        finals = [final for _, final, _ in ok]
        mean, std = _mean_std(finals)
        best_mean, best_std = _mean_std([best for _, _, best in ok])
        per_seed.append({
            "seed": seed,
            "num_folds": len(ok),
            "fold_accuracies": {fold_id: final for fold_id, final, _ in ok},
            "final_mean": mean,
            "final_std": std,
            "best_mean": best_mean,
            "best_std": best_std,
        })
        seed_means.append(mean)
        seed_best_means.append(best_mean)
        pooled.extend(finals)
    summary = {
        "method": config.method,
        "scenario": config.scenario,
        "seeds": list(config.seeds),
        "ablate_mmd": config.train.ablate_mmd,
        "ablate_disc": config.train.ablate_disc,
        "per_seed": per_seed,
        "aborted_folds": aborted,
    }
    if seed_means:
        summary["final_mean"], summary["final_std"] = _mean_std(seed_means)
        summary["best_mean"], summary["best_std"] = _mean_std(seed_best_means)
        summary["pooled_mean"], summary["pooled_std"] = _mean_std(pooled)
    return summary


def config_snapshot(config: ExperimentConfig) -> dict:
    """Reproduction-sufficient description of a run (no output paths)."""
    return {
        "method": config.method,
        "scenario": config.scenario,
        "data_root": config.data_root,
        # each seed's generator seed is derived from it: the configured one is never read
        "synth": ({k: v for k, v in asdict(config.synth).items() if k != "rng_seed"}
                  if config.synth else None),
        "normalization": asdict(config.norm),
        # a fold derives the other model fields from its data and seed
        "model": {"cfe_dims": list(config.model.cfe_dims), "dsfe_dim": config.model.dsfe_dim},
        "train": asdict(config.train),
        "kernel": asdict(config.kernel),
        "seeds": list(config.seeds),
        "loso": config.loso,
    }


def write_outputs(config: ExperimentConfig, fold: tuple | None = None) -> None:
    """Persist a run's start (``config.json``, the ``metrics.csv`` header, no
    stale ``summary.json`` or checkpoints) or one finished ``fold``, its (rows,
    model config, arena values): its rows, then its checkpoint, written as
    ``.tmp`` and renamed so a checkpoint on disk is whole."""
    out = config.out_dir
    if fold is None:
        ckpts = os.path.join(out, "checkpoints")
        os.makedirs(ckpts, exist_ok=True)
        write_json(os.path.join(out, "config.json"), config_snapshot(config))
        for name in os.listdir(ckpts):
            if name.endswith((".ckpt", ".ckpt.tmp")):
                os.remove(os.path.join(ckpts, name))
        if os.path.exists(os.path.join(out, "summary.json")):
            os.remove(os.path.join(out, "summary.json"))
        with open(os.path.join(out, "metrics.csv"), "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(METRICS_COLUMNS)
        return
    records, model_config, values = fold
    with open(os.path.join(out, "metrics.csv"), "a", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(r.as_row() for r in records)
    path = os.path.join(out, "checkpoints", f"{records[0].fold_id}_seed{records[0].seed}.ckpt")
    model = MsMdaModel(model_config, Parameter(np.zeros_like(values)))
    model.arena.value[...] = values  # unchecked: a diverged fold's too
    save_checkpoint(model, path + ".tmp")
    os.replace(path + ".tmp", path)


def blas_threads(cpus: int) -> int:
    """The BLAS threads each process runs, as OpenBLAS reads them when it
    loads: the first positive ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS``
    or ``OMP_NUM_THREADS``, else one per usable CPU, and at most ``cpus``."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = re.match(r"[ \t\n\v\f\r]*([+-]?[0-9]+)", os.environ.get(name, ""))  # as atoi
        if value and int(value[1]) > 0:
            return min(int(value[1]), cpus)
    return cpus


def available_memory(proc: str = "/proc", cgroups: str = "/sys/fs/cgroup") -> float:
    """Bytes this process may still allocate: ``MemAvailable``, or the cgroup's
    ``memory.max - memory.current`` where both files read and that is less;
    ``inf`` when neither reads."""
    def read(*path):
        with open(os.path.join(*path), encoding="ascii") as fh:
            return fh.read()

    readings = []
    with contextlib.suppress(OSError, TypeError):  # TypeError: no such line
        kib = re.search(r"^MemAvailable:\s*(\d+) kB$", read(proc, "meminfo"), re.M)[1]
        readings.append(1024 * int(kib))
    # ValueError: memory.max reads "max"; a cgroup v1 hierarchy has no 0:: line
    with contextlib.suppress(OSError, TypeError, ValueError):
        group = re.search(r"^0::/?(.*)$", read(proc, "self", "cgroup"), re.M)[1]
        limit, used = (int(read(cgroups, group, name)) for name in ("memory.max", "memory.current"))
        readings.append(limit - used)
    return min(readings, default=math.inf)


def fold_branches(config: ExperimentConfig, task: TransferTask) -> int:
    """The branches a fold of ``task`` trains: one per source, one for the baseline."""
    return 1 if config.method == "source_combine" else task.num_sources


def process_bytes(config: ExperimentConfig, task: TransferTask, lanes: int = 1) -> int:
    """Estimated bytes one more fold process adds, with its steps on ``lanes``
    processes, from a built ``task``'s shapes: the domains it makes (a
    synthetic seed's, the baseline's merged sources; a grid is built before
    the fork and shared), its arena with gradient and Adam moments, a step's
    activations (evaluation runs through the same buffers), and what each further
    lane adds."""
    dim, row = task.target.feature_dim, 8 * (task.target.feature_dim + 1)
    source_rows = sum(s.num_samples for s in task.sources)
    domains = 0 if config.data_root else row * (source_rows + task.target.num_samples)
    branches = fold_branches(config, task)
    if config.method == "source_combine":
        domains += row * source_rows * (1 + _norm_after_merge(config.norm, config.method))
    model = replace(config.model, num_branches=branches, input_dim=dim,
                    num_classes=task.target.num_classes)
    b = config.train.batch_size
    rows = b * (branches + 1)
    # per row, the model's step buffers (the stacked input the sampler gathers into,
    # one output per layer, a gradient at the widest) and room for two temporaries
    # there, counted twice: 222.2 MiB in all at paper shape (244.7 with a lane), where
    # a fold's process tree peaked at 221.5-221.6 (237.3-237.4) MiB of summed PSS
    per_row = dim + sum(model.cfe_dims) + 3 * max(model.cfe_dims)
    # per branch, its 2b joined rows' inputs, features, MMD gradient, logits and their gradient
    joined = 8 * branches * 2 * b * (model.cfe_dims[-1] + 2 * (model.dsfe_dim + model.num_classes))
    # a further lane: the interpreter's pages it writes (about 5 MiB), one LeakyReLU
    # temporary over its row share at the widest layer and, counted twice, the step
    # buffers of its branches and one MMD's distance blocks; 22.5 MiB at paper shape,
    # where a lane added 22.9-27.0 MiB to the tree's summed PSS
    lane = 5 * 2**20 + 8 * (b * (branches + 1) // lanes) * max(model.cfe_dims) + 2 * 8 * (
        -(-branches // lanes) * 2 * b * (model.cfe_dims[-1] + 3 * model.dsfe_dim) + 5 * b * b)
    return (domains + 4 * 8 * arena_size(model) + 2 * 8 * rows * per_row + joined
            + (lanes - 1) * lane)


def fold_processes(config: ExperimentConfig, task: TransferTask, jobs: int) -> list[list[set]]:
    """For each of the ``n`` processes a sweep of ``jobs`` folds like ``task``
    trains on, k CPU sets: its own and those of its k - 1 branch lanes.

    A slot is as many usable CPUs as a process runs BLAS threads. ``n`` is
    the slots, at most ``jobs`` and at most as many as ``available_memory``
    holds by ``process_bytes``, but at least one. ``k`` is the slots over
    ``n``, at most the branch count, and at most as many as memory holds for
    ``n`` processes; process w takes slots w * k to w * k + k - 1.
    """
    usable = sorted(os.sched_getaffinity(0))
    threads = blas_threads(len(usable))
    slots, memory = len(usable) // threads, available_memory()
    # true division: an unread budget (inf) stays inf, where // would give NaN
    n = max(1, int(min(jobs, slots, memory / process_bytes(config, task))))
    k = max(1, min(slots // n, fold_branches(config, task)))
    while k > 1 and n * process_bytes(config, task, k) > memory:
        k -= 1
    return [[set(usable[s * threads:(s + 1) * threads]) for s in range(w * k, (w + 1) * k)]
            for w in range(n)]


def run_experiment(config: ExperimentConfig, log=None) -> dict:
    """Full sweep over seeds and folds; returns the summary ``summary.json`` holds.

    The jobs, ``(seed, fold_index)`` in (seed, fold) order, run on the ``n``
    processes of ``fold_processes``. This process trains jobs ``0, n, 2n,
    ...`` and forked workers the other stripes; every fold comes back as its
    rows and its model's config and arena values. Each fold is persisted and
    logged here in job order, so the outputs are those of a serial run, and
    the first failure in that order is raised before any later fold is
    persisted.
    """
    # File folds do not depend on the seed, so the grid is parsed and
    # normalized once, before any fork, and every seed shares it: sampling
    # only indexes. Synthetic data has one fold per seed, built where it is
    # trained; a process holds only the domains of the seed it trains.
    held = [config.seeds[0], build_tasks(config, config.seeds[0])]
    fold_ids = [task.fold_id for task in held[1]]  # the same for every seed
    jobs = [(seed, i) for seed in config.seeds for i in range(len(fold_ids))]
    if config.out_dir:
        write_outputs(config)
    cpus = fold_processes(config, held[1][0], len(jobs))
    n = len(cpus)

    def run(job):
        seed, fold_index = job
        if seed != held[0] and config.data_root is None:
            held[1] = None  # free the last seed's domains before building these
            held[:] = seed, build_tasks(config, seed)
        task = held[1][fold_index]
        try:
            rows, model = train_fold(task, config, seed, fold_index, cpus[jobs.index(job) % n])
        except DataError:
            raise
        except ValidationError as exc:
            raise ValidationError(f"fold {task.fold_id} (seed {seed}): {exc}") from exc
        # the checkpoint needs only the values: not the gradient, nor the Adam moments
        return rows, model.config, model.arena.value

    def died(job, code):
        seed, fold_index = job
        return DataError(f"fold {fold_ids[fold_index]} (seed {seed}): "
                         f"its worker exited with code {code}")

    records: list[MetricsRecord] = []
    with forked_stripes(run, [jobs[w::n] for w in range(1, n)], died) as received:
        for i, job in enumerate(jobs):
            fold = run(job) if i % n == 0 else next(received)
            records.extend(fold[0])
            if config.out_dir:
                write_outputs(config, fold)
            if log:
                status, final, best = _fold_outcome(fold[0])
                log(f"seed {job[0]} fold {fold_ids[job[1]]}: "
                    f"final={final:.4f} best={best:.4f} ({status})")
    summary = summarize(records, config)
    if config.out_dir:
        write_json(os.path.join(config.out_dir, "summary.json"), summary)
    return summary


def run_baseline_source_combine(config: ExperimentConfig, log=None) -> dict:
    """Source-combine baseline: merged sources, single branch, same schedules."""
    return run_experiment(replace(config, method="source_combine"), log=log)


def run_ablation(config: ExperimentConfig, mode: str, log=None) -> dict:
    """Re-run with the mmd and/or discrepancy weight forced to zero."""
    if mode not in ABLATION_MODES:
        raise ValidationError(f"ablation mode must be one of {ABLATION_MODES}, got {mode!r}")
    train = replace(
        config.train,
        ablate_mmd=mode in ("no_mmd", "no_both"),
        ablate_disc=mode in ("no_disc", "no_both"),
    )
    return run_experiment(replace(config, train=train), log=log)


def dump_features(
    config: ExperimentConfig,
    checkpoint_path,
    out_dir,
    samples_per_domain: int = 100,
    fold_index: int = 0,
) -> list[str]:
    """Write each branch's feature-layer outputs for sampled rows.

    One CSV per branch; rows cover every source domain plus the target,
    ``samples_per_domain`` seeded rows each (clamped, with a warning on
    stderr, for smaller domains). Columns: domain, branch, label, then the
    feature values. A branch whose features are not all finite (a diverged
    or overflowing checkpoint) is a DataError raised before its file is
    written.
    """
    if samples_per_domain < 0:
        raise ValidationError(f"samples_per_domain must be >= 0, got {samples_per_domain}")
    model = load_checkpoint(checkpoint_path)
    seed = config.seeds[0]
    tasks = build_tasks(config, seed)
    if not 0 <= fold_index < len(tasks):
        raise ValidationError(f"fold_index {fold_index} out of range ({len(tasks)} folds)")
    prepared = prepare_task(tasks[fold_index], config.norm, config.method)
    if prepared.num_sources != model.num_branches:
        raise ValidationError(
            f"checkpoint has {model.num_branches} branches but the fold has "
            f"{prepared.num_sources} sources"
        )
    rng = np.random.default_rng(_derived_seed(seed, fold_index, _STREAM_DUMP))
    domains = list(prepared.sources) + [prepared.target]
    sampled = []
    for d in domains:
        k = samples_per_domain
        if k > d.num_samples:
            print(f"domain {d.domain_id}: requested {k} rows but only "
                  f"{d.num_samples} available; clamping", file=sys.stderr)
            k = d.num_samples
        idx = np.sort(rng.choice(d.num_samples, size=k, replace=False))
        sampled.append((d, idx))

    os.makedirs(out_dir, exist_ok=True)
    dim = model.config.dsfe_dim
    header = ["domain", "branch", "label"] + [f"f{i}" for i in range(dim)]
    paths = []
    # a diverged checkpoint overflows; the DataError below is the report
    with np.errstate(over="ignore", invalid="ignore"):
        per_domain = [extract_branch_features(model, d.features[idx]) for d, idx in sampled]
        for b, feats in enumerate(zip(*per_domain)):
            for (d, _), branch_feats in zip(sampled, feats):
                if not np.all(np.isfinite(branch_feats)):
                    raise DataError(f"{checkpoint_path}: branch {b} gives non-finite features "
                                    f"on domain {d.domain_id[0]}-{d.domain_id[1]}")
            path = os.path.join(out_dir, f"branch_{b:02d}.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                for (d, idx), branch_feats in zip(sampled, feats):
                    for row, label in zip(branch_feats, d.labels[idx]):
                        writer.writerow(
                            [f"{d.domain_id[0]}-{d.domain_id[1]}", str(b), str(int(label))]
                            + [repr(float(v)) for v in row]
                        )
            paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# verification suites


@dataclass
class VerifyItem:
    name: str
    passed: bool
    detail: str


@dataclass
class VerifyReport:
    suite: str
    items: list[VerifyItem]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def describe(self) -> str:
        lines = []
        for item in self.items:
            lines.append(f"[{'PASS' if item.passed else 'FAIL'}] {item.name}: {item.detail}")
        lines.append(
            f"{'OK' if self.passed else 'FAILED'}: "
            f"{sum(i.passed for i in self.items)}/{len(self.items)} checks passed "
            f"(suite {self.suite})"
        )
        return "\n".join(lines)


def composite_gradcheck_case():
    """A 3-branch toy configuration for checking the full composite gradient.

    Returns (model, source_batches, target_batch, margin) where ``margin``
    is the smallest distance of any LeakyReLU pre-activation from 0 and of
    any pair of branch target probabilities from a tie. Data seed 294 and
    model seed 0 give a margin around 3e-4, far beyond the 1e-5
    finite-difference step, so the probes cannot cross a non-differentiable
    point.
    """
    rng = np.random.default_rng(294)
    rows = 4
    model = init_model(ModelConfig(num_branches=3, input_dim=6, cfe_dims=(7, 6, 5),
                                   dsfe_dim=4, num_classes=3, rng_seed=0))
    batches = [
        (rng.uniform(-1.0, 1.0, (rows, 6)), rng.integers(0, 3, rows)) for _ in range(3)
    ]
    target = rng.uniform(-1.0, 1.0, (rows, 6))

    acts, branches = _forward(model, np.vstack([b[0] for b in batches] + [target]))
    pres = ([layer.forward(h) for layer, h in zip(model.cfe, acts)]
            + [b.dsfe.forward(acts[-1]) for b in model.branches])
    margin = min(float(np.abs(z).min()) for z in pres)
    probs = [softmax(logits[3 * rows:]) for _, logits in branches]
    for i in range(len(probs)):
        for j in range(i + 1, len(probs)):
            margin = min(margin, float(np.abs(probs[i] - probs[j]).min()))
    return model, batches, target, margin


def brute_force_mmd(source, target, kernel: KernelSpec) -> float:
    """Direct three-double-sum evaluation of the biased MMD estimator.

    Deliberately independent of mmd_squared: explicit loops over sample
    pairs, its own median computation for the multiscale kernel (a pinned
    ``median`` is not read).
    """
    s = np.asarray(source, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    n, m = s.shape[0], t.shape[0]

    if kernel.kind == "linear":
        def k(x, y):
            return float(np.dot(x, y))
    else:
        if kernel.kind == "rbf_fixed":
            divisors = [2.0 * kernel.fixed_bandwidth]
        else:
            joint = np.vstack([s, t])
            dists = []
            for i in range(joint.shape[0]):
                for j in range(i + 1, joint.shape[0]):
                    diff = joint[i] - joint[j]
                    dists.append(float(np.dot(diff, diff)))
            median = float(np.median(dists)) if dists else 0.0
            if median <= 0.0:
                median = 1.0
            center = (NUM_SCALES - 1) / 2.0
            divisors = [median * 2.0 ** (i - center) for i in range(NUM_SCALES)]

        def k(x, y):
            diff = x - y
            d2 = float(np.dot(diff, diff))
            return sum(math.exp(-d2 / b) for b in divisors) / len(divisors)

    ss = sum(k(s[i], s[j]) for i in range(n) for j in range(n)) / (n * n)
    tt = sum(k(t[i], t[j]) for i in range(m) for j in range(m)) / (m * m)
    st = sum(k(s[i], t[j]) for i in range(n) for j in range(m)) / (n * m)
    return ss + tt - 2.0 * st


def _grad_items() -> list[VerifyItem]:
    items = []
    rng = np.random.default_rng(0)

    def add(name, report):
        items.append(VerifyItem(name, report.passed, report.describe()))

    # linear layer + cross-entropy stack
    layer = LinearLayer(fan_in_uniform(4, 3, rng), np.zeros((1, 3)))
    x = rng.uniform(-1.0, 1.0, (6, 4))
    labels = rng.integers(0, 3, 6)

    def linear_ce():
        logits = layer.forward(x)
        loss, grad = softmax_cross_entropy(logits, labels)
        layer.backward(x, grad)
        return loss

    add("linear+cross-entropy gradients",
        finite_difference_check(linear_ce, layer.parameters()))

    # LeakyReLU through a quadratic head (inputs kept away from 0)
    p = Parameter(rng.uniform(0.2, 1.0, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4)))

    def leaky_loss():
        y = leaky_relu(p.value, 0.01)
        loss = 0.5 * float((y * y).sum())
        p.grad += leaky_relu_backward(y, p.value, 0.01)
        return loss

    add("leaky-relu gradients", finite_difference_check(leaky_loss, [p]))

    # MMD gradients for every kernel kind
    src = Parameter(rng.uniform(-1.0, 1.0, (5, 3)))
    tgt = Parameter(rng.uniform(-1.0, 1.0, (4, 3)))
    for kind in ("linear", "rbf_fixed", "rbf_multiscale"):
        kernel = KernelSpec(kind=kind)
        kernel = kernel.resolve(src.value, tgt.value)  # pin the median

        def mmd_loss(kernel=kernel):
            value, g_s, g_t = mmd_squared(src.value, tgt.value, kernel)
            src.grad += g_s
            tgt.grad += g_t
            return value

        add(f"mmd gradients ({kind})", finite_difference_check(mmd_loss, [src, tgt]))

    # discrepancy composed with softmax (ties broken by random logits)
    logit_params = [Parameter(rng.uniform(-1.0, 1.0, (4, 3))) for _ in range(3)]

    def disc_loss():
        probs = [softmax(p.value) for p in logit_params]
        value, grads = discrepancy_loss(probs)
        for p, pr, g in zip(logit_params, probs, grads):
            p.grad += softmax_backward(g, pr)
        return value

    add("discrepancy gradients", finite_difference_check(disc_loss, logit_params))

    # full composite on a 3-branch toy model, away from every kink
    model, batches, target, margin = composite_gradcheck_case()
    kernel = KernelSpec(kind="rbf_fixed", fixed_bandwidth=1.0)

    def composite():
        bd = compute_losses(model, batches, target, alpha=0.7, beta=0.05, kernel=kernel)
        return bd.total

    if margin <= 1e-4:
        items.append(VerifyItem("full composite gradients", False,
                                f"kink margin {margin:.2e} too small for the probe"))
    else:
        add("full composite gradients",
            finite_difference_check(composite, model.parameters()))
    return items


def _mmd_oracle_items() -> list[VerifyItem]:
    rng = np.random.default_rng(2024)
    worst = 0.0
    worst_case = ""
    for case in range(50):
        kind = ("rbf_multiscale", "rbf_fixed", "linear")[case % 3]
        n = int(rng.integers(2, 65))
        m = int(rng.integers(2, 65))
        d = int(rng.integers(1, 9))
        s = rng.uniform(-1.0, 1.0, (n, d))
        t = rng.uniform(-1.0, 1.0, (m, d)) + rng.uniform(-0.5, 0.5)
        kernel = KernelSpec(kind=kind, fixed_bandwidth=float(rng.uniform(0.5, 2.0)))
        value, _, _ = mmd_squared(s, t, kernel)
        expected = brute_force_mmd(s, t, kernel)
        rel = abs(value - expected) / max(abs(value), abs(expected), 1e-12)
        if rel > worst:
            worst = rel
            worst_case = f"case {case} ({kind}, n={n}, m={m}, d={d})"
    detail = f"worst relative error {worst:.3e} over 50 cases"
    if worst_case:
        detail += f" at {worst_case}"
    return [VerifyItem("mmd vs brute-force oracle", worst <= 1e-10, detail)]


def _norm_items() -> list[VerifyItem]:
    items = []
    rng = np.random.default_rng(11)
    x = rng.normal(2.0, 3.0, (40, 7))
    x[:, 3] = 1.5  # constant column exercises the zero-variance rule

    z = normalize_matrix(x, "electrode_wise")
    nonconst = [c for c in range(7) if c != 3]
    mean_err = float(np.max(np.abs(z[:, nonconst].mean(axis=0))))
    std_err = float(np.max(np.abs(z[:, nonconst].std(axis=0) - 1.0)))
    const_ok = bool(np.all(z[:, 3] == 0.0))
    items.append(VerifyItem(
        "electrode-wise column stats",
        mean_err < 1e-9 and std_err < 1e-9 and const_ok,
        f"max |mean| {mean_err:.2e}, max |std-1| {std_err:.2e}, constant column zeroed: {const_ok}",
    ))

    worst = 0.0
    for kind in ("electrode_wise", "sample_wise", "global_wise"):
        once = normalize_matrix(x, kind)
        twice = normalize_matrix(once, kind)
        worst = max(worst, float(np.max(np.abs(twice - once))))
    items.append(VerifyItem(
        "normalization idempotence", worst < 1e-10,
        f"max |second pass - first pass| {worst:.2e}",
    ))

    # the baseline's order A vs order B, as a run builds and prepares its fold,
    # on single-sample sources [0] and [10] and a target [5]
    raw = [DomainDataset(np.array([[v]]), np.array([0]), num_classes=2, domain_id=(1, j))
           for j, v in enumerate((0.0, 10.0, 5.0))]
    merged = []
    for order in ("A", "B"):
        spec = NormalizationSpec(kind="electrode_wise", order=order)
        domains = dict(enumerate(raw))
        normalize_domains(domains, spec, "source_combine")
        task = TransferTask(sources=[domains[0], domains[1]], target=domains[2], fold_id="orders")
        merged.append(prepare_task(task, spec, "source_combine").sources[0])
    merged_a, merged_b = merged
    a_ok = np.array_equal(merged_a.features, np.array([[0.0], [0.0]]))
    b_ok = np.array_equal(merged_b.features, np.array([[-1.0], [1.0]]))
    items.append(VerifyItem(
        "order A vs order B divergence", a_ok and b_ok,
        f"A -> {merged_a.features.ravel().tolist()}, B -> {merged_b.features.ravel().tolist()}",
    ))
    return items


def _schedule_items() -> list[VerifyItem]:
    items = []
    zero_ok = alpha_schedule(0, 200) == 0.0
    end = alpha_schedule(200, 200)
    end_ok = abs(end - math.tanh(5.0)) < 1e-12 and abs(end - 0.9999092) < 1e-6
    items.append(VerifyItem(
        "ramp endpoints", zero_ok and end_ok,
        f"alpha(0)={alpha_schedule(0, 200)}, alpha(E)={end:.7f}",
    ))
    monotone = True
    for total in (1, 10, 200):
        values = [alpha_schedule(i, total) for i in range(total + 1)]
        monotone &= all(b >= a for a, b in zip(values, values[1:]))
    items.append(VerifyItem("ramp monotone for E in {1, 10, 200}", monotone, "nondecreasing"))
    return items


def verify(suite: str = "all") -> VerifyReport:
    """Run the named self-check suite with fixed seeds."""
    suites = {
        "grad": _grad_items,
        "mmd_oracle": _mmd_oracle_items,
        "norm": _norm_items,
        "schedule": _schedule_items,
    }
    if suite not in suites and suite != "all":
        raise ValidationError(f"unknown verify suite {suite!r}")
    names = suites if suite == "all" else [suite]
    return VerifyReport(suite=suite, items=[item for name in names for item in suites[name]()])
