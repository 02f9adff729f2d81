"""Multi-branch adaptation network and its training step.

A shared 3-layer MLP (common feature extractor) feeds N branches, each a
single linear+LeakyReLU feature layer followed by a bare linear classifier.
Each branch aligns its source with the target via kernel MMD on the branch
features; classification loss is computed on source logits, and the
branches' target predictions are pulled together by the discrepancy loss.
Inference averages the branch softmax outputs.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from .data import forked_children
from .errors import DataError, ShapeError, ValidationError
from .losses import (
    KernelSpec,
    LossBreakdown,
    alpha_schedule,
    classification_loss,
    discrepancy_loss,
    mmd_squared,
    total_loss,
)
from .neuralcore import (
    LinearLayer,
    Parameter,
    adam_step,
    as_matrix,
    fan_in_uniform,
    leaky_relu,
    leaky_relu_backward,
    softmax,
    softmax_backward,
)

CHECKPOINT_MAGIC = b"MSMDA1"
_HEAD_FORMAT = "<IIIIIdq"
# the negative-side slope of every LeakyReLU; the checkpoint header records it
LEAKY_SLOPE = 0.01


@dataclass(frozen=True)
class ModelConfig:
    """Network dimensions and initialization seed."""

    num_branches: int
    input_dim: int = 310
    cfe_dims: tuple[int, ...] = (256, 128, 64)
    dsfe_dim: int = 32
    num_classes: int = 3
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "cfe_dims", tuple(int(d) for d in self.cfe_dims))
        if self.num_branches < 1:
            raise ValidationError("num_branches must be >= 1")
        if self.num_classes < 2:
            raise ValidationError("num_classes must be >= 2")
        if self.input_dim < 1 or self.dsfe_dim < 1:
            raise ValidationError("input_dim and dsfe_dim must be >= 1")
        if not self.cfe_dims or any(d < 1 for d in self.cfe_dims):
            raise ValidationError("cfe_dims must be a nonempty tuple of positive widths")


@dataclass(frozen=True)
class TrainConfig:
    """Training-loop settings, including the ablation switches.

    ``beta_weight`` is by default a ratio applied to the ramped adaptation
    weight (effective disc weight = beta_weight * alpha); set
    ``beta_absolute`` to use it as a raw coefficient instead.
    ``disc_start_fraction`` delays the discrepancy term until that fraction
    of the run has elapsed.
    """

    epochs: int = 200
    batch_size: int = 256
    lr: float = 0.01
    beta_weight: float = 0.01
    disc_start_fraction: float = 0.0
    ablate_mmd: bool = False
    ablate_disc: bool = False
    iterations_per_epoch: int | None = None
    rng_seed: int = 0
    beta_absolute: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValidationError(f"lr must be a positive finite number, got {self.lr}")
        if not (math.isfinite(self.beta_weight) and self.beta_weight >= 0):
            raise ValidationError(
                f"beta_weight must be a finite number >= 0, got {self.beta_weight}")
        if not 0.0 <= self.disc_start_fraction <= 1.0:
            raise ValidationError("disc_start_fraction must be in [0, 1]")
        if self.iterations_per_epoch is not None and self.iterations_per_epoch < 1:
            raise ValidationError("iterations_per_epoch must be >= 1 or None")


def loss_weights(train: TrainConfig, epoch_index: int) -> tuple[float, float]:
    """Applied (mmd, disc) weights for a 0-based epoch index."""
    a = alpha_schedule(epoch_index, train.epochs)
    w_mmd = 0.0 if train.ablate_mmd else a
    disc_active = epoch_index >= train.disc_start_fraction * train.epochs
    base = train.beta_weight if train.beta_absolute else train.beta_weight * a
    w_disc = base if (disc_active and not train.ablate_disc) else 0.0
    return w_mmd, w_disc


def layer_shapes(config: ModelConfig):
    """(in, out) of the extractor's layers and of one branch's two layers;
    the parameter order is the extractor, then ``num_branches`` branches."""
    dims = (config.input_dim,) + config.cfe_dims
    branch = [(dims[-1], config.dsfe_dim), (config.dsfe_dim, config.num_classes)]
    return list(zip(dims, dims[1:])), branch


def arena_size(config: ModelConfig) -> int:
    """Floats in the parameter arena. The branch count multiplies, so a
    checkpoint header's count is never expanded into a list."""
    extractor, branch = (sum((i + 1) * o for i, o in shapes)
                         for shapes in layer_shapes(config))
    return extractor + config.num_branches * branch


@dataclass
class Branch:
    dsfe: LinearLayer
    dsc: LinearLayer


class MsMdaModel:
    """Common extractor plus N (feature layer, classifier) branches; every weight
    and bias is a view of ``arena``, one 1 x ``arena_size`` parameter laid out
    in ``layer_shapes`` order, each weight (row-major) before its bias."""

    def __init__(self, config: ModelConfig, arena: Parameter):
        self.config = config
        self.arena = arena
        extractor, branch = layer_shapes(config)
        self.layers, start = [], 0  # every linear layer, in parameter order
        for i, o in extractor + branch * config.num_branches:
            weight, bias = arena.view(start, (i, o)), arena.view(start + i * o, (1, o))
            self.layers.append(LinearLayer(weight, bias))
            start += (i + 1) * o
        n_cfe = len(config.cfe_dims)
        self.cfe = self.layers[:n_cfe]
        self.branches = [Branch(*self.layers[k:k + 2])
                         for k in range(n_cfe, len(self.layers), 2)]
        self.step_buffers = None  # see step_buffers

    def __reduce__(self):
        # a copy rebuilds its layers over its own copy of the arena, with no step buffers
        return MsMdaModel, (self.config, self.arena)

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    @property
    def num_branches(self) -> int:
        return self.config.num_branches


def init_model(config: ModelConfig) -> MsMdaModel:
    """Build a model with fan-in-uniform weights from the config seed. Its
    arena's four buffers are one MAP_SHARED mapping, so branch lanes forked
    after it read the values and write the gradients in place."""
    rng = np.random.default_rng(config.rng_seed)
    arena = Parameter.__new__(Parameter)  # no private buffers made only to be replaced
    arena.step_count = 0
    arena.value, arena.grad, arena.adam_m, arena.adam_v = _carve([(1, arena_size(config))] * 4)
    model = MsMdaModel(config, arena)
    for layer in model.layers:  # in order; biases stay 0
        layer.weight.value[...] = fan_in_uniform(*layer.weight.shape, rng)
    return model


def _carve(shapes) -> list[np.ndarray]:
    """Zeroed float64 arrays of ``shapes``, views of one MAP_SHARED mapping,
    each on a 64-byte boundary of it; processes forked after it read and
    write them in place."""
    spans = [-(-math.prod(shape) // 8) * 8 for shape in shapes]
    flat = np.frombuffer(mmap.mmap(-1, 8 * sum(spans)), np.float64)
    starts = np.cumsum([0] + spans)
    return [flat[a:a + math.prod(shape)].reshape(shape) for a, shape in zip(starts, shapes)]


class StepBuffers:
    """A step's arrays for batch ``sizes`` (each source's rows, then the
    target's), kept while they hold, so steps refault no pages for them. All
    are views of one MAP_SHARED mapping, so branch lanes forked after it work
    on them in place; ``lanes`` holds the connections to them.

    ``x`` is the stacked input (``BatchSampler.next_batch`` gathers a step's
    batches into it), ``outs`` each extractor layer's output (each process
    writes its own rows of it, see ``extractor_share``, and its backward writes
    the masked gradient over it) and ``grads`` the gradient at each output,
    views of ``block``, as each is dead once the next is formed; ``predict``
    writes a chunk's branch features and logits there between steps. The
    rest is per branch, written by its forward for its backward and the fold's
    own process: its ``logits``, its MMD value in ``mmd``, its stacked source
    and target ``inputs`` (its backward writes their gradient over them), its
    feature-layer output in ``features`` and the MMD gradient there in
    ``mmd_grads``; and its ``logit_grads``, which the fold writes.
    """

    def __init__(self, config: ModelConfig, sizes: tuple[int, ...]):
        rows, m, dims, n_br = sum(sizes), sizes[-1], config.cfe_dims, len(sizes) - 1
        self.sizes, self.offsets, self.lanes = sizes, np.cumsum((0,) + sizes), []
        widths = [config.num_classes] * 2 + [dims[-1]] + [config.dsfe_dim] * 2
        block = rows * max(*dims, config.dsfe_dim + config.num_classes)
        self.x, self.block, self.mmd, *rest = _carve(
            [(rows, config.input_dim), (block,), (n_br,)] + [(rows, d) for d in dims]
            + [(n + m, w) for w in widths for n in sizes[:-1]])
        self.outs = rest[:len(dims)]
        self.grads = [self.block[:rows * d].reshape(rows, d) for d in dims]
        self.logits, self.logit_grads, self.inputs, self.features, self.mmd_grads = (
            rest[i:i + n_br] for i in range(len(dims), len(rest), n_br))


def step_buffers(model: MsMdaModel, sizes: tuple[int, ...]) -> StepBuffers:
    """``model``'s step buffers for batch ``sizes``, made anew, with no lanes,
    when it holds none for them."""
    held = model.step_buffers
    if held is None or held.sizes != sizes:
        held = model.step_buffers = StepBuffers(model.config, sizes)
    return held


def _branch(branch: Branch, rows: np.ndarray, features=None, logits=None):
    """A branch's feature-layer output on ``rows`` and its logits, written into
    ``features`` and ``logits`` when given."""
    r = leaky_relu(branch.dsfe.forward(rows, out=features), LEAKY_SLOPE, out=features)
    return r, branch.dsc.forward(r, out=logits)


def _forward(model: MsMdaModel, x: np.ndarray, outs=None):
    """The extractor's activations (``x``, then each layer's LeakyReLU output,
    which is also its backward's mask, written into ``outs`` when given), plus
    a lazy iterator of each branch's (features, logits) on every row, so only
    one branch is held at a time.
    """
    acts = [x]
    for layer, out in zip(model.cfe, outs or [None] * len(model.cfe)):
        z = layer.forward(acts[-1], out=out)
        acts.append(leaky_relu(z, LEAKY_SLOPE, out=z))
    h = acts[-1]
    return acts, (_branch(branch, h) for branch in model.branches)


def extractor_share(model: MsMdaModel, buf: StepBuffers, j: int, k: int) -> None:
    """Process j of k's share of the extractor forward: every layer on its
    contiguous rows of ``buf.x``, written into the same rows of ``buf.outs``,
    bit for bit those of the whole matrix: cuts fall on multiples of 8 rows, a
    GEMM micro-kernel's row blocks (OpenBLAS's Haswell kernels give a share cut
    at an odd row other bits). A one-row share would take numpy's gemv path,
    so with under 8k rows (a share under 2 rows) process 0 runs them all."""
    n = buf.x.shape[0]
    stop = n * (j + 1) // k // 8 * 8 if j + 1 < k else n
    rows = slice(n * j // k // 8 * 8, stop) if n >= 8 * k else slice(0, 0 if j else n)
    _forward(model, buf.x[rows], [out[rows] for out in buf.outs])


def branch_forward(model: MsMdaModel, buf: StepBuffers, i: int, kernel: KernelSpec) -> None:
    """Branch ``i`` of a step whose extractor output is in ``buf``: its
    forward on its source rows and the target rows, and their MMD by
    ``kernel``. Writes its inputs, features, logits, MMD value and MMD
    gradient into ``buf``."""
    o, n, h, g_mmd = buf.offsets, buf.sizes[i], buf.outs[-1], buf.mmd_grads[i]
    np.concatenate([h[o[i]:o[i + 1]], h[o[-2]:]], out=buf.inputs[i])
    r, _ = _branch(model.branches[i], buf.inputs[i], buf.features[i], buf.logits[i])
    buf.mmd[i] = mmd_squared(r[:n], r[n:], kernel, out=(g_mmd[:n], g_mmd[n:]))[0]


def branch_backward(model: MsMdaModel, buf: StepBuffers, i: int, alpha: float) -> None:
    """Branch ``i``'s backward from what its forward and its logit gradient
    left in ``buf``, with the step's MMD weight ``alpha``: adds into its
    parameters' gradients and into the extractor output's gradient at its
    source rows, and writes the gradient at its inputs over them."""
    branch, o, n, rows, r = (model.branches[i], buf.offsets, buf.sizes[i], buf.inputs[i],
                             buf.features[i])
    g_r = branch.dsc.backward(r, buf.logit_grads[i])
    # mmd component is the branch mean, so each branch carries alpha/N
    g_r += alpha / model.num_branches * buf.mmd_grads[i]
    # the input gradient overwrites the inputs once the weight gradient has read them
    branch.dsfe.backward(rows, leaky_relu_backward(g_r, r, LEAKY_SLOPE), out=rows)
    # added to the zeroed rows, not assigned: 0.0 + -0.0 is 0.0
    buf.grads[-1][o[i]:o[i + 1]] += rows[:n]


_EXTRACT, _FORWARD, _BACKWARD, _LAYER = range(4)


def _run_task(model: MsMdaModel, buf: StepBuffers, ask, j: int, k: int) -> None:
    """Process j of k's part of step task ``ask``, a (task, argument) pair:
    ``_EXTRACT`` its extractor share, ``_FORWARD`` (by the step's kernel) and
    ``_BACKWARD`` (with its MMD weight) its branches j, j + k, ...,
    ``_LAYER`` that extractor layer's backward from its masked output
    gradient: process 0 forms the input gradient, and lane 1 the parameter
    gradients of a layer above the first where there is a lane (else process
    0). Each reads and writes only ``buf`` and the model's arena."""
    task, arg = ask
    if task == _EXTRACT:
        extractor_share(model, buf, j, k)
    elif task == _LAYER:
        layer = arg
        # the first layer's input is the data batch: no gradient wanted there
        x, out = (buf.outs[layer - 1], buf.grads[layer - 1]) if layer else (buf.x, None)
        model.cfe[layer].backward(x, buf.outs[layer], input_grad=j == 0 < layer, out=out,
                                  param_grads=j > 0 or k == 1 or layer == 0)
    else:
        step = branch_forward if task == _FORWARD else branch_backward
        for i in range(j, model.num_branches, k):
            step(model, buf, i, arg)


def _lanes_io(lanes, ask=None) -> None:
    """Send ``ask`` to every lane or, without it, wait for every lane's
    answer; a lane that is gone raises EOFError with its index."""
    for j, conn in enumerate(lanes):
        try:
            conn.send(ask) if ask else conn.recv_bytes()
        except (EOFError, OSError):
            raise EOFError(j) from None


def _step_task(model: MsMdaModel, buf: StepBuffers, ask, lanes) -> None:
    """Send ``ask`` to ``lanes``, run process 0's part here, await the lanes."""
    if lanes:
        _lanes_io(lanes, ask)
    _run_task(model, buf, ask, 0, len(buf.lanes) + 1)
    if lanes:
        _lanes_io(lanes)


def serve_lane(model: MsMdaModel, conn, j: int, k: int, cpus) -> None:
    """Branch lane ``j`` of ``k``, pinned to ``cpus`` where they exist: runs its part
    of each step task asked on ``conn`` and answers with an empty message. It keeps
    nothing between asks. Returns once the fold's process is gone."""
    with contextlib.suppress(OSError):  # a CPU this host does not have: unpinned
        os.sched_setaffinity(0, cpus)
    with contextlib.suppress(EOFError, OSError):  # the fold's process is gone
        while ask := conn.recv():
            _run_task(model, model.step_buffers, ask, j, k)
            conn.send_bytes(b"")


@contextlib.contextmanager
def branch_lanes(model: MsMdaModel, sizes, cpus, died):
    """With k CPU sets in ``cpus``, pin this process to the first and fork k - 1
    branch lanes (``serve_lane``), lane j pinned to set j, for ``model``'s
    steps of batch ``sizes``, whatever their kernel. A set this host does not
    have pins nothing. A lane that is gone raises ``died(exitcode)``; every
    lane is stopped, and this process unpinned, when the block ends. With one
    set or none nothing is pinned or forked."""
    if len(cpus) < 2:
        yield
        return
    buf = step_buffers(model, sizes)
    k, usable = len(cpus), os.sched_getaffinity(0)
    with forked_children() as fork:
        try:
            lanes = [fork(lambda end: serve_lane(model, end, j, k, cpus[j])) for j in range(1, k)]
            buf.lanes[:] = [conn for conn, _ in lanes]
            # pinned too: unpinned, a task the lane wakes lands on the lane's CPU
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, cpus[0])
            yield
        except EOFError as exc:
            proc = lanes[exc.args[0]][1]
            proc.join()
            raise died(proc.exitcode) from None
        finally:
            buf.lanes.clear()
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, usable)


def _input_matrix(model: MsMdaModel, x, name: str) -> np.ndarray:
    """Finite 2-D float64 input with the model's input width."""
    x = as_matrix(x, name)
    if x.shape[1] != model.config.input_dim:
        raise ShapeError(
            f"{name} has dim {x.shape[1]}, model expects {model.config.input_dim}"
        )
    return x


def compute_losses(
    model: MsMdaModel,
    source_batches,
    target_batch,
    alpha: float,
    beta: float,
    kernel: KernelSpec | None = None,
) -> LossBreakdown:
    """Forward and backward pass of one training step.

    Runs the common extractor once on all batches stacked together (in place
    when they are their rows of the step buffers, as the sampler gives them),
    then each branch on (its source, target). Per-branch MMD values are averaged
    into the mmd component; classification sums over branches; discrepancy
    compares the branches' target softmax outputs. A finite weighted total
    is backpropagated, from what the forward left in the step buffers, into
    every parameter's grad buffer (no optimizer step); a non-finite one is
    returned without a backward.

    With k - 1 branch lanes in the step buffers (see ``branch_lanes``),
    this process and each lane run their own rows of the extractor forward
    (``extractor_share``); this process runs branches 0, k, 2k, ... and lane
    j branches j, j + k, ...; lane 1 forms the extractor's weight gradients
    above its first layer while this process runs the input-gradient chain.
    Every product a process runs is the one a single process runs, or a row
    share of it, and all that mixes branches runs here, in branch order, so
    the result is that of one process bit for bit.
    """
    kernel = kernel or KernelSpec()
    if len(source_batches) != model.num_branches:
        raise ValidationError(
            f"{len(source_batches)} source batches for a {model.num_branches}-branch model"
        )
    named = [(f, f"source batch {i}") for i, (f, _) in enumerate(source_batches)]
    feats = []
    for f, name in named + [(target_batch, "target batch")]:
        feats.append(_input_matrix(model, f, name))
        if feats[-1].shape[0] == 0:
            raise ValidationError(f"{name} is empty")
    sizes = tuple(f.shape[0] for f in feats)

    buf = step_buffers(model, sizes)
    np.concatenate(feats, out=buf.x)
    _step_task(model, buf, (_EXTRACT, None), buf.lanes)
    _step_task(model, buf, (_FORWARD, kernel), buf.lanes)
    probs_tgt = [softmax(logits[n:]) for logits, n in zip(buf.logits, sizes)]
    cls_value, cls_grads = classification_loss(
        [logits[:n] for logits, n in zip(buf.logits, sizes)], [y for _, y in source_batches])
    disc_value, disc_grads = discrepancy_loss(probs_tgt)
    breakdown = total_loss(cls_value, float(np.mean(buf.mmd)), disc_value, alpha, beta)
    if not math.isfinite(breakdown.total):
        return breakdown  # diverged run: report the damage, run no backward

    grad_q = buf.grads[-1]
    grad_q.fill(0.0)
    for g, g_cls, g_disc, probs, n in zip(buf.logit_grads, cls_grads, disc_grads, probs_tgt,
                                         sizes):
        g[:n] = g_cls
        g[n:] = softmax_backward(beta * g_disc, probs)
    _step_task(model, buf, (_BACKWARD, float(alpha)), buf.lanes)
    target_rows = grad_q[buf.offsets[-2]:]
    for rows, n in zip(buf.inputs, sizes):
        target_rows += rows[n:]
    # lane 1 forms the weight gradients of layers 2..L beside this input-gradient
    # chain; it reads the layer's input, which the next mask overwrites
    for i in reversed(range(len(model.cfe))):
        # the masked gradient overwrites the layer's output, which nothing reads after it
        leaky_relu_backward(buf.grads[i], buf.outs[i], LEAKY_SLOPE, out=buf.outs[i])
        _step_task(model, buf, (_LAYER, i), buf.lanes[:1] if i else [])
    return breakdown


def train_step(
    model: MsMdaModel,
    source_batches,
    target_batch,
    alpha: float,
    beta: float,
    lr: float = 0.01,
    kernel: KernelSpec | None = None,
) -> LossBreakdown:
    """One full optimization step: losses, backprop, one Adam step on the arena.

    A non-finite loss skips the update and is returned as-is so the caller
    can abort the run.
    """
    breakdown = compute_losses(model, source_batches, target_batch, alpha, beta, kernel)
    if math.isfinite(breakdown.total):
        adam_step(model.arena, lr)
    return breakdown


def predict(model: MsMdaModel, target_features):
    """Average the branch softmax outputs; ties go to the lowest class.

    The target runs through the step buffers in chunks of their rows, cut on
    multiples of 8 rows as ``extractor_share`` cuts, so every row's bits are
    those of one pass and no activation is sized by the target. A model with
    no buffers, or under 16 rows of them, uses a default batch's, made here.

    Returns (avg_probs, labels, per_branch_probs).
    """
    x = _input_matrix(model, target_features, "target features")
    config, buf = model.config, model.step_buffers
    if buf is None or buf.x.shape[0] < 16:
        buf = StepBuffers(config, (TrainConfig.batch_size,) * (model.num_branches + 1))
    w, c = config.dsfe_dim, config.num_classes
    per_branch = np.empty((model.num_branches, x.shape[0], c))
    cuts = list(range(0, x.shape[0], buf.x.shape[0] // 8 * 8)) + [x.shape[0]]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:  # one row would take numpy's gemv path
        cuts[-2] -= 8
    for a, b in zip(cuts, cuts[1:]):
        n = b - a
        acts, _ = _forward(model, x[a:b], [out[:n] for out in buf.outs])
        features = buf.block[:n * w].reshape(n, w)
        logits = buf.block[n * w:n * (w + c)].reshape(n, c)
        for probs, branch in zip(per_branch, model.branches):
            probs[a:b] = softmax(_branch(branch, acts[-1], features, logits)[1])
    avg = np.mean(per_branch, axis=0)
    labels = np.argmax(avg, axis=1).astype(np.int64)
    return avg, labels, list(per_branch)


def extract_branch_features(model: MsMdaModel, features):
    """Every branch's feature-layer output (the classifier's input), in
    branch order, lazily from one extractor pass over ``features``."""
    _, branches = _forward(model, _input_matrix(model, features, "features"))
    return (r for r, _ in branches)


def save_checkpoint(model: MsMdaModel, path) -> None:
    """Versioned little-endian binary dump of config and parameter values.

    Layout: magic, config record, then the arena: CFE layers, then each
    branch's feature layer and classifier, weight before bias, row-major
    float64. Round-trips bit-exactly.
    """
    cfg = model.config
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack(_HEAD_FORMAT, cfg.input_dim, len(cfg.cfe_dims), cfg.dsfe_dim,
                             cfg.num_classes, cfg.num_branches, LEAKY_SLOPE, cfg.rng_seed))
        fh.write(struct.pack(f"<{len(cfg.cfe_dims)}I", *cfg.cfe_dims))
        fh.write(np.ascontiguousarray(model.arena.value, dtype="<f8").tobytes())


def load_checkpoint(path) -> MsMdaModel:
    """Rebuild a model from a checkpoint; optimizer state starts fresh.

    The header is read first and the payload size it implies is checked
    against the file's size, so only the payload is ever read and nothing
    is sized by the header before that check. An unreadable file, or any
    header or payload value that fails validation, is a DataError.
    """
    try:
        with open(path, "rb") as fh:
            file_size = os.fstat(fh.fileno()).st_size
            head = fh.read(len(CHECKPOINT_MAGIC) + struct.calcsize(_HEAD_FORMAT))
            if head[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
                raise DataError(f"{path}: not a model checkpoint (bad magic)")
            try:
                input_dim, n_cfe, dsfe_dim, num_classes, num_branches, slope, seed = (
                    struct.unpack_from(_HEAD_FORMAT, head, len(CHECKPOINT_MAGIC))
                )
            except struct.error as exc:
                raise DataError(f"{path}: truncated checkpoint header") from exc
            offset = len(head) + 4 * n_cfe
            if offset > file_size:
                raise DataError(f"{path}: truncated checkpoint header")
            cfe_dims = struct.unpack(f"<{n_cfe}I", fh.read(4 * n_cfe))
            try:
                config = ModelConfig(num_branches=num_branches, input_dim=input_dim,
                                     cfe_dims=cfe_dims, dsfe_dim=dsfe_dim,
                                     num_classes=num_classes, rng_seed=seed)
            except ValidationError as exc:
                raise DataError(f"{path}: bad checkpoint header: {exc}") from exc
            if slope != LEAKY_SLOPE:
                raise DataError(f"{path}: bad checkpoint header: "
                                f"leaky_slope must be {LEAKY_SLOPE}, got {slope}")
            floats = arena_size(config)
            extra = file_size - offset - 8 * floats
            if extra < 0:
                raise DataError(f"{path}: truncated checkpoint payload")
            if extra > 0:
                raise DataError(f"{path}: {extra} trailing bytes in checkpoint")
            payload = fh.read(8 * floats)
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    values = np.frombuffer(payload, "<f8").reshape(1, floats).astype(np.float64)
    try:
        arena = Parameter(values)
    except ValidationError as exc:
        raise DataError(f"{path}: bad checkpoint payload: {exc}") from exc
    return MsMdaModel(config, arena)
