"""Loss components for multi-branch adaptation training.

Kernel MMD between source and target feature batches, summed per-branch
classification cross-entropy, pairwise L1 discrepancy between the branches'
target predictions, the sigmoid ramp for the adaptation weight, and the
weighted total. Every loss returns its value together with analytic
gradients w.r.t. its matrix inputs.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeError, ValidationError
from .neuralcore import as_matrix, softmax_cross_entropy

KERNEL_KINDS = ("rbf_multiscale", "rbf_fixed", "linear")


def _check_positive(name: str, value) -> None:
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel used by the MMD estimator.

    ``rbf_multiscale`` averages ``num_scales`` Gaussian kernels
    exp(-d^2 / b) whose divisors ``b`` are geometrically spaced by
    ``scale_step`` around the median pairwise squared distance of the joint
    batch (resolved per call unless ``bandwidths`` pins them explicitly).
    ``rbf_fixed`` is exp(-d^2 / (2 * fixed_bandwidth)) with
    ``fixed_bandwidth`` = sigma^2. ``linear`` is the plain dot product.
    """

    kind: str = "rbf_multiscale"
    num_scales: int = 5
    scale_step: float = 2.0
    fixed_bandwidth: float = 1.0
    bandwidths: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValidationError(f"unknown kernel kind {self.kind!r}")
        if not isinstance(self.num_scales, numbers.Integral) or self.num_scales < 1:
            raise ValidationError(f"num_scales must be an integer >= 1, got {self.num_scales!r}")
        _check_positive("scale_step", self.scale_step)
        _check_positive("fixed_bandwidth", self.fixed_bandwidth)
        if self.bandwidths is not None:
            if len(self.bandwidths) == 0:
                raise ValidationError("bandwidths must not be empty")
            for b in self.bandwidths:
                _check_positive("every bandwidth", b)

    def resolve(self, source, target) -> "KernelSpec":
        """Pin multiscale bandwidths from the data via the median heuristic.

        The returned spec is constant w.r.t. its inputs, which keeps the
        analytic gradients consistent (the bandwidth is treated as a
        stop-gradient, as is standard for the median heuristic).
        """
        if self.kind != "rbf_multiscale" or self.bandwidths is not None:
            return self
        s = np.asarray(source, dtype=np.float64)
        t = np.asarray(target, dtype=np.float64)
        median = _joint_median(*_sq_dists(s, t))
        return replace(self, bandwidths=self._spread(median))

    def _spread(self, base: float) -> tuple[float, ...]:
        center = (self.num_scales - 1) / 2.0
        return tuple(base * self.scale_step ** (i - center) for i in range(self.num_scales))


@dataclass(frozen=True)
class LossBreakdown:
    """Unweighted loss components plus the weights that formed the total."""

    cls: float
    mmd: float
    disc: float
    total: float
    alpha: float
    beta: float


def _block(work, shape, index=0):
    size = shape[0] * shape[1]
    return work[index * size : (index + 1) * size].reshape(shape)


def _sq_dists(source, target):
    """(d_ss, d_tt, d_st, scratch), all views of one buffer.

    Distances are (|a_i|^2 + |b_j|^2) - 2 a_i.b_j clamped at zero, rounded
    in that order so they (and the median bandwidth) match the textbook
    expression bit for bit. The scratch, two blocks of the largest shape,
    serves in turn the norm sums, the median's (n+m)(n+m-1)/2 joint pairs
    and each kernel block; one buffer per call spares fresh page faults.
    """
    n, m = len(source), len(target)
    work = np.empty(n * n + m * m + n * m + 2 * max(n * n, m * m, n * m))
    scratch = work[n * n + m * m + n * m :]
    sq_s = (source * source).sum(axis=1)
    sq_t = (target * target).sum(axis=1)
    dists, offset = [], 0
    for a, b, sq_a, sq_b in ((source, source, sq_s, sq_s), (target, target, sq_t, sq_t),
                             (source, target, sq_s, sq_t)):
        d = np.matmul(a, b.T, out=_block(work[offset:], (len(a), len(b))))
        offset += d.size
        d *= -2.0
        d += np.add(sq_a[:, None], sq_b, out=_block(scratch, d.shape))
        dists.append(np.maximum(d, 0.0, out=d))
    return (*dists, scratch)


@functools.lru_cache(maxsize=8)
def _upper_flat_indices(n: int) -> np.ndarray:
    """Read-only flat indices of the strict upper triangle of an n x n matrix."""
    rows, cols = np.triu_indices(n, k=1)
    flat = rows * n + cols
    flat.flags.writeable = False
    return flat


def _joint_median(d_ss, d_tt, d_st, work) -> float:
    """Median pairwise squared distance of the stacked source+target batch.

    Bit for bit ``np.median`` of the strict upper triangles of ``d_ss`` and
    ``d_tt`` and all of ``d_st``, gathered into ``work`` and selected by one
    single-``kth`` partition (plus a ``max`` of the lower half for an even
    count). 1.0 when the median is not positive or any distance is NaN.
    """
    iu_s = _upper_flat_indices(d_ss.shape[0])
    iu_t = _upper_flat_indices(d_tt.shape[0])
    p_s, p_t = iu_s.size, iu_t.size
    values = work[: p_s + p_t + d_st.size]
    if not values.size:
        return 1.0
    # the indices are in range by construction; "clip" skips the buffered
    # bounds-checked path that the default mode takes with out=
    np.take(d_ss, iu_s, out=values[:p_s], mode="clip")
    np.take(d_tt, iu_t, out=values[p_s : p_s + p_t], mode="clip")
    values[p_s + p_t :] = d_st.ravel()
    half = values.size // 2
    values.partition(half)
    # NaN sorts last, so any NaN lies at or above the kth slot
    if np.isnan(values[half:].max()):
        return 1.0
    hi = values[half]
    median = float(hi if values.size % 2 else (values[:half].max() + hi) / 2.0)
    return median if median > 0.0 else 1.0


def _rbf_block(d2, a, b, divisors, coeff, grad_a, grad_b, work):
    """Accumulate coeff * mean_scales sum_{i,j} exp(-|a_i - b_j|^2 / div).

    ``d2`` is the precomputed squared-distance matrix for (a, b). Divisors
    are visited widest first; when one is exactly half the one before, its
    kernel is the previous one squared (exp(-d/b) = exp(-d/2b)^2), otherwise
    it takes its own ``exp``. The value sums plain kernels; the gradient
    needs sum_s k_s / div_s, kept as sum_s k_s * div/div_s for the current
    div (rescaled by div/prev, an exact 0.5 when the divisors halve), so
    the matmuls run once per block.
    """
    e, grad_k = _block(work, d2.shape, 0), _block(work, d2.shape, 1)
    value = 0.0
    prev = None
    for div in sorted(divisors, reverse=True):
        if prev is not None and div * 2.0 == prev:
            np.square(e, out=e)
        else:
            np.divide(d2, -div, out=e)
            np.exp(e, out=e)
        value += float(e.sum())
        if prev is None:
            np.copyto(grad_k, e)
        else:
            grad_k *= div / prev
            grad_k += e
        prev = div
    scale = coeff * (-2.0 / len(divisors)) / prev
    grad_a += scale * (grad_k.sum(axis=1, keepdims=True) * a - grad_k @ b)
    grad_b += scale * (grad_k.sum(axis=0)[:, None] * b - grad_k.T @ a)
    return coeff * value / len(divisors)


def mmd_squared(source, target, kernel: KernelSpec | None = None):
    """Biased (V-statistic) squared MMD between two sample matrices.

    Implements mean(K_ss) + mean(K_tt) - 2 mean(K_st) over all pairs,
    diagonal included. Returns (value, grad_source, grad_target); tiny
    negative values from roundoff are clamped to zero.
    """
    kernel = kernel or KernelSpec()
    source = as_matrix(source, "source", require_finite=False)
    target = as_matrix(target, "target", require_finite=False)
    if source.shape[0] == 0 or target.shape[0] == 0:
        raise ValidationError("mmd requires nonempty source and target")
    if source.shape[1] != target.shape[1]:
        raise ShapeError(
            f"source shape {source.shape} and target shape {target.shape} "
            "differ in feature dimension"
        )
    n, m = source.shape[0], target.shape[0]
    grad_s = np.zeros_like(source)
    grad_t = np.zeros_like(target)

    if kernel.kind == "linear":
        # k(x, y) = x . y, so MMD^2 = |mean(source) - mean(target)|^2
        diff = source.mean(axis=0) - target.mean(axis=0)
        value = float(diff @ diff)
        grad_s += (2.0 / n) * diff
        grad_t -= (2.0 / m) * diff
        return max(value, 0.0), grad_s, grad_t

    d_ss, d_tt, d_st, work = _sq_dists(source, target)
    if kernel.kind == "rbf_fixed":
        divisors = [2.0 * kernel.fixed_bandwidth]
    elif kernel.bandwidths is not None:
        divisors = list(kernel.bandwidths)
    else:
        divisors = list(kernel._spread(_joint_median(d_ss, d_tt, d_st, work)))

    value = _rbf_block(d_ss, source, source, divisors, 1.0 / (n * n), grad_s, grad_s, work)
    value += _rbf_block(d_tt, target, target, divisors, 1.0 / (m * m), grad_t, grad_t, work)
    value += _rbf_block(d_st, source, target, divisors, -2.0 / (n * m), grad_s, grad_t, work)
    return max(value, 0.0), grad_s, grad_t


def classification_loss(branch_logits, branch_labels):
    """Sum over branches of per-branch mean cross-entropy.

    Returns (value, grads) where grads[i] is w.r.t. branch i's logits.
    """
    if len(branch_logits) != len(branch_labels):
        raise ValidationError(
            f"{len(branch_logits)} logit matrices vs {len(branch_labels)} label vectors"
        )
    if not branch_logits:
        raise ValidationError("classification loss requires at least one branch")
    total = 0.0
    grads = []
    for logits, labels in zip(branch_logits, branch_labels):
        loss, grad = softmax_cross_entropy(logits, labels)
        total += loss
        grads.append(grad)
    return total, grads


def discrepancy_loss(branch_target_probs):
    """Mean absolute difference of branch predictions over unordered pairs.

    Each matrix holds one branch's softmax outputs for the same target
    batch. For each pair (i, j) the elementwise |P_i - P_j| is averaged over
    entries, then averaged over pairs; a single branch gives 0. Subgradient
    is 0 where entries tie.
    """
    mats = [
        as_matrix(p, f"branch {i} probs", require_finite=False)
        for i, p in enumerate(branch_target_probs)
    ]
    if not mats:
        raise ValidationError("discrepancy loss requires at least one branch")
    shape = mats[0].shape
    for i, p in enumerate(mats):
        if p.shape != shape:
            raise ShapeError(f"branch {i} shape {p.shape} != branch 0 shape {shape}")
    grads = [np.zeros_like(p) for p in mats]
    n = len(mats)
    if n == 1:
        return 0.0, grads
    num_pairs = n * (n - 1) // 2
    entries = shape[0] * shape[1]
    scale = 1.0 / (num_pairs * entries)
    value = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            diff = mats[i] - mats[j]
            value += float(np.abs(diff).sum()) * scale
            sign = np.sign(diff) * scale
            grads[i] += sign
            grads[j] -= sign
    return value, grads


def alpha_schedule(epoch_index: int, total_epochs: int) -> float:
    """Sigmoid ramp 2 / (1 + exp(-10 i / E)) - 1, zero at i = 0."""
    if total_epochs < 1:
        raise ValidationError(f"total_epochs must be >= 1, got {total_epochs}")
    if not 0 <= epoch_index <= total_epochs:
        raise ValidationError(
            f"epoch_index {epoch_index} outside [0, {total_epochs}]"
        )
    return 2.0 / (1.0 + math.exp(-10.0 * epoch_index / total_epochs)) - 1.0


def total_loss(cls: float, mmd: float, disc: float, alpha: float, beta: float) -> LossBreakdown:
    """Weighted total cls + alpha * mmd + beta * disc; components stored raw.

    A non-finite input makes the total NaN, the mark of a diverged step.
    """
    finite = all(math.isfinite(v) for v in (cls, mmd, disc, alpha, beta))
    total = cls + alpha * mmd + beta * disc if finite else math.nan
    return LossBreakdown(
        cls=float(cls),
        mmd=float(mmd),
        disc=float(disc),
        total=float(total),
        alpha=float(alpha),
        beta=float(beta),
    )
