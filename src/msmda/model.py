"""Multi-branch adaptation network and its training step.

A shared 3-layer MLP (common feature extractor) feeds N branches, each a
single linear+LeakyReLU feature layer followed by a bare linear classifier.
Each branch aligns its source with the target via kernel MMD on the branch
features; classification loss is computed on source logits, and the
branches' target predictions are pulled together by the discrepancy loss.
Inference averages the branch softmax outputs.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

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
        self.step_buffers = None  # see _step_buffers

    def __reduce__(self):
        # a copy rebuilds its layers over its own copy of the arena, with no step buffers
        return MsMdaModel, (self.config, self.arena)

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    @property
    def num_branches(self) -> int:
        return self.config.num_branches


def init_model(config: ModelConfig) -> MsMdaModel:
    """Build a model with fan-in-uniform weights from the config seed."""
    rng = np.random.default_rng(config.rng_seed)
    model = MsMdaModel(config, Parameter(np.zeros((1, arena_size(config)))))
    for layer in model.layers:  # in order; biases stay 0
        layer.weight.value[...] = fan_in_uniform(*layer.weight.shape, rng)
    return model


def _step_buffers(model: MsMdaModel, rows: int):
    """The stacked input, each extractor layer's output (its backward writes the
    masked gradient over it) and the gradient at each output, views of one buffer
    as each is dead once the next is formed; made for a step of ``rows`` stacked
    rows and kept while the count holds, so steps refault no pages for them."""
    held = model.step_buffers
    if held is None or held[0].shape[0] != rows:
        dims = model.config.cfe_dims
        flat = np.empty(rows * max(dims))
        held = model.step_buffers = (
            np.empty((rows, model.config.input_dim)),
            [np.empty((rows, d)) for d in dims],
            [flat[:rows * d].reshape(rows, d) for d in dims],
        )
    return held


def _forward(model: MsMdaModel, x: np.ndarray, offsets=None, outs=None):
    """The extractor's activations (``x``, then each layer's LeakyReLU output,
    which is also its backward's mask, written into ``outs`` when given), plus
    a lazy iterator of each branch's (rows, features, logits), so only one
    branch is held at a time; ``rows`` is what the branch's feature layer saw.

    With ``offsets`` (row bounds of the stacked sources, then the target)
    branch i sees its source rows, then the target rows; else every row.
    """
    acts = [x]
    for layer, out in zip(model.cfe, outs or [None] * len(model.cfe)):
        z = layer.forward(acts[-1], out=out)
        acts.append(leaky_relu(z, LEAKY_SLOPE, out=z))
    h = acts[-1]

    def branches():
        for i, branch in enumerate(model.branches):
            rows = h if offsets is None else np.vstack(
                [h[offsets[i]:offsets[i + 1]], h[offsets[-2]:]])
            r = leaky_relu(branch.dsfe.forward(rows), LEAKY_SLOPE)
            yield rows, r, branch.dsc.forward(r)

    return acts, branches()


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

    Runs the common extractor once on all batches stacked together, then
    each branch on (its source, target). Per-branch MMD values are averaged
    into the mmd component; classification sums over branches; discrepancy
    compares the branches' target softmax outputs. A finite weighted total
    is backpropagated, from the activations the forward returned, into
    every parameter's grad buffer (no optimizer step); a non-finite one is
    returned without a backward.
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
    sizes = [f.shape[0] for f in feats]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    x, outs, grads = _step_buffers(model, int(offsets[-1]))
    acts, branches = _forward(model, np.concatenate(feats, out=x), offsets, outs)
    saved, logits_src, probs_tgt, mmd_values = [], [], [], []
    for (rows, r, logits), n_src in zip(branches, sizes):
        value, g_src, g_tgt = mmd_squared(r[:n_src], r[n_src:], kernel)
        mmd_values.append(value)
        saved.append((rows, r, g_src, g_tgt))
        logits_src.append(logits[:n_src])
        probs_tgt.append(softmax(logits[n_src:]))

    cls_value, cls_grads = classification_loss(logits_src, [y for _, y in source_batches])
    disc_value, disc_grads = discrepancy_loss(probs_tgt)
    breakdown = total_loss(cls_value, float(np.mean(mmd_values)), disc_value, alpha, beta)
    if not math.isfinite(breakdown.total):
        return breakdown  # diverged run: report the damage, run no backward

    grad_q = grads[-1]
    grad_q.fill(0.0)
    # release each branch's activations once consumed, for a lower peak
    for i, (branch, n_src) in enumerate(zip(model.branches, sizes)):
        rows, r, g_src, g_tgt = saved[i]
        saved[i] = None
        g_logits_tgt = softmax_backward(beta * disc_grads[i], probs_tgt[i])
        g_r = branch.dsc.backward(r, np.vstack([cls_grads[i], g_logits_tgt]))
        # mmd component is the branch mean, so each branch carries alpha/N
        g_r[:n_src] += (alpha / model.num_branches) * g_src
        g_r[n_src:] += (alpha / model.num_branches) * g_tgt
        g_joined = branch.dsfe.backward(rows, leaky_relu_backward(g_r, r, LEAKY_SLOPE))
        grad_q[offsets[i]:offsets[i + 1]] += g_joined[:n_src]
        grad_q[offsets[-2]:offsets[-1]] += g_joined[n_src:]
    g = grad_q
    # the first layer's input is the data batch: no gradient wanted there
    for layer, grad_in in zip(reversed(model.cfe), reversed([None] + grads[:-1])):
        out = acts.pop()
        # the masked gradient overwrites the layer's output, which nothing reads after it
        g = layer.backward(acts[-1], leaky_relu_backward(g, out, LEAKY_SLOPE, out=out),
                           input_grad=grad_in is not None, out=grad_in)
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

    Returns (avg_probs, labels, per_branch_probs).
    """
    _, branches = _forward(model, _input_matrix(model, target_features, "target features"))
    per_branch = [softmax(logits) for _, _, logits in branches]
    avg = np.mean(per_branch, axis=0)
    labels = np.argmax(avg, axis=1).astype(np.int64)
    return avg, labels, per_branch


def extract_branch_features(model: MsMdaModel, features):
    """Every branch's feature-layer output (the classifier's input), in
    branch order, lazily from one extractor pass over ``features``."""
    _, branches = _forward(model, _input_matrix(model, features, "features"))
    return (r for _, r, _ in branches)


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
