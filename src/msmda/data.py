"""Feature ingestion, normalization, fold construction, and synthetic data.

Domains are (samples x features) float64 matrices with integer labels,
one domain per subject-session. CSV is the only on-disk format: header
``f0,...,f{d-1},label``, one sample per line, directory layout
``<root>/session<k>/subject<j>.csv`` with an optional ``manifest.json``
declaring the present cells and class count.
"""

from __future__ import annotations

import contextlib
import json
import math
import multiprocessing
import numbers
import os
import re
import signal
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, ParseError, ShapeError, ValidationError
from .neuralcore import as_matrix

NORMALIZATION_KINDS = ("none", "electrode_wise", "sample_wise", "global_wise")
NORMALIZATION_ORDERS = ("A", "B")

COMBINED_DOMAIN_ID = (-1, -1)
_INT64_MAX = int(np.iinfo(np.int64).max)


def check_seed(name: str, value) -> int:
    """``value`` as an int if it is a valid numpy seed (a non-negative integer)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValidationError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


@dataclass
class DomainDataset:
    """One domain's feature matrix, labels, and identity."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    domain_id: tuple[int, int] = (0, 0)

    def __post_init__(self):
        self.features = as_matrix(self.features, "features")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[0]:
            raise ShapeError(
                f"labels shape {self.labels.shape} does not match "
                f"{self.features.shape[0]} feature rows"
            )
        if self.num_classes < 1:
            raise ValidationError("num_classes must be >= 1")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValidationError(
                f"labels outside [0, {self.num_classes}) in domain {self.domain_id}"
            )
        self.domain_id = tuple(self.domain_id)

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass
class TransferTask:
    """N source domains plus one target domain, forming one fold."""

    sources: list[DomainDataset]
    target: DomainDataset
    fold_id: str

    def __post_init__(self):
        if not self.sources:
            raise ValidationError("a transfer task needs at least one source")
        dim = self.target.feature_dim
        classes = self.target.num_classes
        seen = set()
        for s in self.sources:
            if s.feature_dim != dim or s.num_classes != classes:
                raise ValidationError(
                    f"source {s.domain_id} ({s.feature_dim}-D, {s.num_classes} classes) "
                    f"does not match target ({dim}-D, {classes} classes)"
                )
            seen.add(s.domain_id)
        if self.target.domain_id in seen:
            raise ValidationError(
                f"target domain {self.target.domain_id} also appears as a source"
            )

    @property
    def num_sources(self) -> int:
        return len(self.sources)


@dataclass(frozen=True)
class NormalizationSpec:
    """Which z-score variant to apply, and in what order for merged sources."""

    kind: str = "electrode_wise"
    order: str = "A"

    def __post_init__(self):
        if self.kind not in NORMALIZATION_KINDS:
            raise ValidationError(f"unknown normalization kind {self.kind!r}")
        if self.order not in NORMALIZATION_ORDERS:
            raise ValidationError(f"normalization order must be A or B, got {self.order!r}")


@dataclass(frozen=True)
class SynthConfig:
    """Gaussian multi-domain generator settings."""

    num_domains: int = 5
    samples_per_domain: int = 600
    num_classes: int = 3
    feature_dim: int = 16
    class_separation: float = 3.0
    domain_shift_scale: float = 1.0
    noise_std: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        check_seed("rng_seed", self.rng_seed)
        for name in ("num_domains", "samples_per_domain", "num_classes", "feature_dim"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("class_separation", "domain_shift_scale", "noise_std"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value) or value < 0):
                raise ValidationError(f"{name} must be a finite number >= 0, got {value!r}")


def _zscore(x: np.ndarray, axis) -> np.ndarray:
    mean = x.mean(axis=axis, keepdims=True)
    std = x.std(axis=axis, keepdims=True)  # population std (divide by n)
    out = np.zeros_like(x)
    np.divide(x - mean, std, out=out, where=std > 0.0)
    return out


def normalize_matrix(x, kind: str) -> np.ndarray:
    """Z-score a matrix per column, per row, or globally; zero-variance
    slices map to all-zeros."""
    x = as_matrix(x, "matrix")
    if x.size == 0:
        raise ValidationError("cannot normalize an empty matrix")
    if kind == "none":
        return x.copy()
    if kind == "electrode_wise":
        return _zscore(x, axis=0)
    if kind == "sample_wise":
        return _zscore(x, axis=1)
    if kind == "global_wise":
        return _zscore(x, axis=None)
    raise ValidationError(f"unknown normalization kind {kind!r}")


def normalize(data: DomainDataset, spec: NormalizationSpec) -> DomainDataset:
    """A copy of ``data`` with its features normalized by ``spec.kind``."""
    return replace(data, features=normalize_matrix(data.features, spec.kind))


def merge_domains(domains: list[DomainDataset]) -> DomainDataset:
    """Concatenate domains into one synthetic combined domain."""
    if not domains:
        raise ValidationError("cannot merge an empty domain list")
    dim = domains[0].feature_dim
    classes = domains[0].num_classes
    for d in domains:
        if d.feature_dim != dim:
            raise ValidationError(
                f"mixed feature dims: {d.domain_id} has {d.feature_dim}, expected {dim}"
            )
        if d.num_classes != classes:
            raise ValidationError("mixed num_classes across merged domains")
    return DomainDataset(
        features=np.vstack([d.features for d in domains]),
        labels=np.concatenate([d.labels for d in domains]),
        num_classes=classes,
        domain_id=COMBINED_DOMAIN_ID,
    )


def apply_multi_source_normalization(
    domains: list[DomainDataset],
    spec: NormalizationSpec,
    concatenate: bool = False,
) -> list[DomainDataset]:
    """Normalize multiple source domains, optionally merging them.

    Without concatenation (the multi-branch path) each domain is normalized
    independently. With concatenation (the source-combine path), order A
    normalizes each domain first and then merges; order B merges first and
    normalizes the combined matrix. Returns the domain list, of length 1
    when concatenated.
    """
    if not domains:
        raise ValidationError("need at least one domain")
    dim = domains[0].feature_dim
    for d in domains:
        if d.feature_dim != dim:
            raise ValidationError(
                f"mixed feature dims: {d.domain_id} has {d.feature_dim}, expected {dim}"
            )
    if not concatenate:
        return [normalize(d, spec) for d in domains]
    if spec.order == "A":
        return [merge_domains([normalize(d, spec) for d in domains])]
    return [normalize(merge_domains(domains), spec)]


def make_folds(grid, scenario: str, loso: bool = False) -> list[TransferTask]:
    """Build transfer tasks from a {(session, subject): DomainDataset} grid.

    cross_session: one task per subject, earlier sessions as sources, the
    last session as target. cross_subject: one task per session, all but
    the last subject as sources. ``loso`` (cross_subject only) instead
    emits one task per (session, held-out subject) pair.
    """
    if scenario not in ("cross_session", "cross_subject"):
        raise ValidationError(f"make_folds scenario must be cross_session or cross_subject, got {scenario!r}")
    if loso and scenario != "cross_subject":
        raise ValidationError("loso mode applies to the cross_subject scenario only")
    if not grid:
        raise ValidationError("empty domain grid")
    sessions = sorted({k for k, _ in grid})
    subjects = sorted({j for _, j in grid})
    for k in sessions:
        for j in subjects:
            if (k, j) not in grid:
                raise ValidationError(f"domain grid is missing cell (session {k}, subject {j})")

    tasks: list[TransferTask] = []
    if scenario == "cross_session":
        if len(sessions) < 2:
            raise ValidationError("cross_session needs at least two sessions")
        for j in subjects:
            tasks.append(TransferTask(
                sources=[grid[(k, j)] for k in sessions[:-1]],
                target=grid[(sessions[-1], j)],
                fold_id=f"cross_session-subject{j:02d}",
            ))
        return tasks

    if len(subjects) < 2:
        raise ValidationError("cross_subject needs at least two subjects")
    if loso:
        for k in sessions:
            for t in subjects:
                tasks.append(TransferTask(
                    sources=[grid[(k, j)] for j in subjects if j != t],
                    target=grid[(k, t)],
                    fold_id=f"loso-session{k}-subject{t:02d}",
                ))
        return tasks
    for k in sessions:
        tasks.append(TransferTask(
            sources=[grid[(k, j)] for j in subjects[:-1]],
            target=grid[(k, subjects[-1])],
            fold_id=f"cross_subject-session{k}",
        ))
    return tasks


def de_gaussian(window) -> float:
    """Differential entropy of a window under a Gaussian fit.

    Closed form 0.5 * ln(2 pi e sigma^2) with sigma^2 the population
    variance of the window; undefined (error) at zero variance.
    """
    w = np.asarray(window, dtype=np.float64).ravel()
    if w.size < 2:
        raise ValidationError(f"window needs at least 2 samples, got {w.size}")
    if not np.all(np.isfinite(w)):
        raise ValidationError("window contains non-finite samples")
    var = float(w.var())
    if var <= 0.0:
        raise ValidationError("differential entropy undefined for zero-variance window")
    return 0.5 * math.log(2.0 * math.pi * math.e * var)


def _class_means(config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    c, d = config.num_classes, config.feature_dim
    if d >= c:
        # scaled standard-basis vertices: exact pairwise separation
        means = np.zeros((c, d))
        for i in range(c):
            means[i, i] = config.class_separation / math.sqrt(2.0)
        return means
    directions = rng.standard_normal((c, d))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return config.class_separation / math.sqrt(2.0) * directions / norms


def generate_synthetic(config: SynthConfig) -> list[DomainDataset]:
    """Seeded Gaussian class clusters with per-domain affine perturbation.

    Per class, a base mean with pairwise separation set by
    ``class_separation``; per domain, a random shift plus diagonal scale of
    magnitude ``domain_shift_scale`` applied to all class means. Labels are
    balanced within each domain (counts differ by at most 1).
    """
    rng = np.random.default_rng(config.rng_seed)
    means = _class_means(config, rng)
    c = config.num_classes
    n = config.samples_per_domain
    base, rem = divmod(n, c)
    counts = [base + (1 if i < rem else 0) for i in range(c)]
    labels_flat = np.repeat(np.arange(c, dtype=np.int64), counts)

    domains = []
    for d_index in range(config.num_domains):
        shift = config.domain_shift_scale * rng.standard_normal(config.feature_dim)
        scale = 1.0 + config.domain_shift_scale * rng.uniform(-0.5, 0.5, config.feature_dim)
        centers = scale * means + shift
        noise = config.noise_std * rng.standard_normal((n, config.feature_dim))
        features = centers[labels_flat] + noise
        perm = rng.permutation(n)
        domains.append(DomainDataset(
            features=features[perm],
            labels=labels_flat[perm],
            num_classes=c,
            domain_id=(0, d_index),
        ))
    return domains


def synthetic_task(domains: list[DomainDataset]) -> TransferTask:
    """Treat the last generated domain as the target, the rest as sources."""
    if len(domains) < 2:
        raise ValidationError("a synthetic task needs at least two domains")
    return TransferTask(sources=domains[:-1], target=domains[-1], fold_id="synthetic")


def iterations_per_epoch(task: TransferTask, batch_size: int) -> int:
    """ceil(max source-domain size / batch_size)."""
    if batch_size < 1:
        raise ValidationError("batch_size must be >= 1")
    return math.ceil(max(s.num_samples for s in task.sources) / batch_size)


class BatchSampler:
    """Streams fixed-size batches from every domain of a task.

    Each domain has its own seeded RNG stream and independent shuffle;
    within one pass each sample appears exactly once, and an exhausted
    domain reshuffles and wraps around. State persists across epochs so
    wraparound carries over epoch boundaries.
    """

    def __init__(self, task: TransferTask, batch_size: int, seed):
        if batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        self.task = task
        self.batch_size = batch_size
        domains = list(task.sources) + [task.target]
        seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        self._rngs = [np.random.default_rng(s) for s in seq.spawn(len(domains))]
        self._domains = domains
        self._perms = [rng.permutation(d.num_samples) for rng, d in zip(self._rngs, domains)]
        self._cursors = [0] * len(domains)

    def _take(self, i: int) -> np.ndarray:
        need = self.batch_size
        out = []
        while need > 0:
            perm = self._perms[i]
            cur = self._cursors[i]
            got = perm[cur:cur + need]
            out.append(got)
            need -= got.size
            self._cursors[i] = cur + got.size
            if self._cursors[i] >= perm.size:
                self._perms[i] = self._rngs[i].permutation(perm.size)
                self._cursors[i] = 0
        return np.concatenate(out) if len(out) > 1 else out[0]

    def next_batch(self):
        """One (source_batches, target_features) tuple; sources carry labels."""
        source_batches = []
        for i, d in enumerate(self.task.sources):
            idx = self._take(i)
            source_batches.append((d.features[idx], d.labels[idx]))
        target_idx = self._take(len(self.task.sources))
        return source_batches, self.task.target.features[target_idx]


def _parse_rows(path, lines: list[str], dim: int, num_classes: int | None):
    """Features and labels of the data lines, read one line at a time. The
    first line that breaks a rule raises ParseError naming it; the rules run
    in the order of a per-cell parser, and the label's range (int64, and below
    ``num_classes``) is checked after them."""
    features, labels, linenos = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if "_" in line:
            raise ParseError(path, lineno, f"digit-group underscore in {line!r}")
        parts = line.split(",")
        if len(parts) != dim + 1:
            raise ParseError(path, lineno, f"expected {dim + 1} fields, got {len(parts)}")
        try:
            row = [float(tok) for tok in parts[:-1]]
        except ValueError:
            raise ParseError(path, lineno, f"non-numeric feature cell in {line!r}") from None
        tok = parts[-1].strip()
        try:
            label = int(tok)
        except ValueError:
            raise ParseError(path, lineno, f"label {tok!r} is not a base-10 integer") from None
        if label < 0:
            raise ParseError(path, lineno, f"negative label {label}")
        if not all(map(math.isfinite, row)):
            raise ParseError(path, lineno, "non-finite feature value")
        features.append(row)
        labels.append(label)
        linenos.append(lineno)
    if not labels:
        raise ParseError(path, len(lines), "no data rows after the header")
    for lineno, label in zip(linenos, labels):
        if label > _INT64_MAX:
            raise ParseError(path, lineno, f"label {label} does not fit in int64")
        if num_classes is not None and label >= num_classes:
            raise ParseError(path, lineno, f"label {label} >= num_classes {num_classes}")
    return np.asarray(features, dtype=np.float64), np.asarray(labels, dtype=np.int64)


def load_domain_csv(path, domain_id=(0, 0), num_classes: int | None = None) -> DomainDataset:
    """Parse one domain CSV (header ``f0,...,f{d-1},label``).

    A regular file is converted in one ``np.loadtxt`` call; any other file
    is read by ``_parse_rows``. Malformed headers, rows, cells, or labels
    raise ParseError with the offending line number. ``num_classes``
    defaults to max(label) + 1.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not raw.isascii():
        # float() and int() read non-ASCII digits and spaces; the contract is ASCII
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the sentinel lands on the line holding the first undecodable byte
            lineno = len((raw[:exc.start].decode("utf-8") + "x").splitlines())
            raise ParseError(path, lineno, f"byte 0x{raw[exc.start]:02x} is not UTF-8") from None
        bad = re.search(r"[^\x00-\x7f]", text).start()
        lineno = len((text[:bad] + "x").splitlines())
        raise ParseError(path, lineno, f"non-ASCII character {text[bad]!r}")
    # int() and float() read digit-group underscores, which the contract
    # rejects, and np.loadtxt strips the unit separator as a space where
    # float() rejects it: a file holding either is read line by line
    regular = b"_" not in raw and b"\x1f" not in raw
    # the bytes, the text and its lines are each about the file's size: hold two at a time
    text = raw.decode("ascii")
    del raw
    lines = text.splitlines()
    del text
    if not lines:
        raise ParseError(path, 1, "empty file, expected a header line")
    header = lines[0].split(",")
    if len(header) < 2 or header[-1].strip() != "label":
        raise ParseError(path, 1, "header must be f0,...,f{d-1},label")
    dim = len(header) - 1
    for i, tok in enumerate(header[:-1]):
        if tok.strip() != f"f{i}":
            raise ParseError(path, 1, f"header column {i} is {tok!r}, expected 'f{i}'")

    rows = [line for line in lines[1:] if line.strip()]
    features = None
    if regular and rows and all(line.count(",") == dim for line in rows):
        try:
            labels = np.array([int(line.rpartition(",")[2]) for line in rows], dtype=np.int64)
            features = np.loadtxt(rows, delimiter=",", usecols=range(dim), comments=None,
                                  dtype=np.float64, ndmin=2)
        except (ValueError, OverflowError):  # _parse_rows names the line
            pass
    if (features is None or labels.min() < 0 or not np.isfinite(features).all()
            or (num_classes is not None and labels.max() >= num_classes)):
        features, labels = _parse_rows(path, lines, dim, num_classes)
    return DomainDataset(
        features=features,
        labels=labels,
        num_classes=int(labels.max()) + 1 if num_classes is None else num_classes,
        domain_id=domain_id,
    )


def write_json(path, obj) -> None:
    """The one JSON form written to disk: sorted keys, 2-space indent, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_domain_csv(dataset: DomainDataset, path) -> None:
    """Write a domain in the CSV contract with full float precision."""
    header = ",".join([f"f{i}" for i in range(dataset.feature_dim)] + ["label"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row, label in zip(dataset.features, dataset.labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{int(label)}\n")


def _load_cell(path, cell, num_classes) -> DomainDataset:
    k, j = cell
    if not os.path.exists(path):
        raise DataError(f"manifest cell (session {k}, subject {j}) has no file {path}")
    return load_domain_csv(path, domain_id=(k, j), num_classes=num_classes)


def _run_stripe(conn, fn, jobs) -> None:
    """Worker: send ``fn(job)`` of each job down ``conn``, or the first
    exception and stop."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops its workers
    for job in jobs:
        try:
            result = fn(job)
        except Exception as exc:
            conn.send(exc)
            return
        conn.send(result)


@contextlib.contextmanager
def forked_stripes(fn, stripes, died):
    """Fork one worker per job list in ``stripes`` and yield an iterator over
    their ``fn(job)`` results in job order: the first job of each stripe, then
    the second, and so on. A result that is an exception is raised when it is
    reached, and a worker that exits before sending a result raises
    ``died(job, exitcode)``. Every worker is stopped when the block ends."""
    # fork, not spawn: a spawned worker re-imports numpy (about 0.5 s) and is
    # sent its inputs pickled, where a forked one shares them copy-on-write.
    # OpenBLAS shuts its thread pool down before a fork (a pthread_atfork
    # handler), so the workers may call BLAS.
    context = multiprocessing.get_context("fork")
    procs, conns = [], []

    def results():
        for r in range(max(map(len, stripes), default=0)):
            for stripe, proc, conn in zip(stripes, procs, conns):
                if r >= len(stripe):
                    continue
                try:
                    result = conn.recv()
                except EOFError:
                    proc.join()
                    raise died(stripe[r], proc.exitcode) from None
                if isinstance(result, BaseException):
                    raise result
                yield result

    try:
        for stripe in stripes:
            reader, writer = context.Pipe(duplex=False)
            proc = context.Process(target=_run_stripe, args=(writer, fn, stripe))
            proc.start()
            procs.append(proc)
            conns.append(reader)
            writer.close()  # the worker's copy is then the only one: its exit reads as EOF
        yield results()
    finally:
        for proc in procs:
            proc.terminate()
            proc.join()
        for conn in conns:
            conn.close()


def load_dataset_grid(root) -> dict[tuple[int, int], DomainDataset]:
    """Load ``<root>/session<k>/subject<j>.csv`` into a grid.

    A ``manifest.json`` with {"cells": [[k, j], ...], "num_classes": C}
    declares the present cells; otherwise the directory tree is scanned.
    The files are parsed in one forked process per usable CPU, at most one
    per file, or in this process when that is one.
    """
    root = os.fspath(root)
    if not os.path.isdir(root):
        raise DataError(f"dataset root {root!r} is not a directory")
    manifest_path = os.path.join(root, "manifest.json")
    num_classes = None
    if os.path.exists(manifest_path):
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
            cells = list(manifest["cells"])
            num_classes = manifest["num_classes"]
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise DataError(f"malformed manifest {manifest_path}: {exc}") from exc
        if type(num_classes) is not int or num_classes < 1:
            raise DataError(f"malformed manifest {manifest_path}: num_classes "
                            f"{num_classes!r} is not an integer >= 1")
        for cell in cells:
            if not (isinstance(cell, list) and len(cell) == 2
                    and all(type(v) is int for v in cell)):
                raise DataError(f"malformed manifest {manifest_path}: cell {cell!r} "
                                "is not a [session, subject] pair of integers")
    else:
        # canonical ASCII names only: int() would also read "01", "+2", " 2" or "1_0"
        cells = []
        for entry in sorted(os.listdir(root)):
            session = re.fullmatch(r"session(0|[1-9][0-9]*)", entry)
            session_dir = os.path.join(root, entry)
            if not session or not os.path.isdir(session_dir):
                continue
            for fname in sorted(os.listdir(session_dir)):
                subject = re.fullmatch(r"subject(0|[1-9][0-9]*)\.csv", fname)
                if subject:
                    cells.append((int(session[1]), int(subject[1])))
        if not cells:
            raise DataError(f"no session<k>/subject<j>.csv files under {root!r}")

    jobs = [(os.path.join(root, f"session{k}", f"subject{j}.csv"), (k, j), num_classes)
            for k, j in cells]
    workers = min(len(jobs), len(os.sched_getaffinity(0)))
    if workers <= 1:
        domains = [_load_cell(*job) for job in jobs]
    else:
        def died(job, code):
            return DataError(f"cannot parse {job[0]}: its worker exited with code {code}")

        with forked_stripes(lambda job: _load_cell(*job),
                            [jobs[w::workers] for w in range(workers)], died) as results:
            domains = list(results)
    grid = {d.domain_id: d for d in domains}
    if num_classes is None:
        # harmonize the inferred class count across domains
        classes = max(d.num_classes for d in grid.values())
        grid = {key: replace(d, num_classes=classes) for key, d in grid.items()}
    return grid


def save_dataset_grid(grid: dict[tuple[int, int], DomainDataset], root) -> None:
    """Write a grid in the dataset directory layout plus a manifest."""
    root = os.fspath(root)
    os.makedirs(root, exist_ok=True)
    cells = sorted(grid)
    num_classes = max(d.num_classes for d in grid.values())
    for (k, j), dataset in grid.items():
        session_dir = os.path.join(root, f"session{k}")
        os.makedirs(session_dir, exist_ok=True)
        write_domain_csv(dataset, os.path.join(session_dir, f"subject{j}.csv"))
    write_json(os.path.join(root, "manifest.json"),
               {"cells": [list(c) for c in cells], "num_classes": num_classes})
