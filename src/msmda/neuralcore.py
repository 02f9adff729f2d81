"""Minimal dense neural-network kernel.

Matrices are plain 2-D float64 numpy arrays (row-major). Layers keep
explicit gradient buffers; backward passes accumulate into them and
``adam_step`` consumes and clears them. Everything is CPU-only and
deliberately small: linear layers, LeakyReLU, softmax cross-entropy,
Adam, and a central-finite-difference gradient checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, StateError, ValidationError


def as_matrix(x, name: str = "matrix", require_finite: bool = True) -> np.ndarray:
    """Coerce to a 2-D float64 array.

    Finiteness is enforced at external boundaries (inputs, parameters);
    internal layer-to-layer calls pass ``require_finite=False`` so a
    diverging run surfaces as a non-finite loss value instead of a crash
    mid-backprop.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if require_finite and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


class Parameter:
    """A trainable matrix with its gradient and Adam moment buffers.

    All four arrays share one shape; ``grad`` accumulates across the loss
    terms of a step and is zeroed by ``adam_step``.
    """

    __slots__ = ("value", "grad", "adam_m", "adam_v", "step_count")

    def __init__(self, value):
        self.value = np.ascontiguousarray(as_matrix(value, "parameter value"))
        self.grad = np.zeros_like(self.value)
        self.adam_m = np.zeros_like(self.value)
        self.adam_v = np.zeros_like(self.value)
        self.step_count = 0

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad[...] = 0.0

    def view(self, start: int, shape: tuple[int, int]) -> "Parameter":
        """Flat entries [start, start + size) of all four buffers, as views."""
        part = Parameter.__new__(Parameter)
        part.step_count, stop = 0, start + shape[0] * shape[1]
        for name in ("value", "grad", "adam_m", "adam_v"):
            setattr(part, name, getattr(self, name).reshape(-1)[start:stop].reshape(shape))
        return part


def fan_in_uniform(in_dim: int, out_dim: int, rng: np.random.Generator) -> np.ndarray:
    """An in_dim x out_dim weight drawn uniform in +-sqrt(1 / in_dim) from ``rng``."""
    bound = np.sqrt(1.0 / in_dim)
    return rng.uniform(-bound, bound, size=(in_dim, out_dim))


class LinearLayer:
    """Affine map ``y = x @ weight + bias`` with a manual backward pass.

    ``weight`` is in_dim x out_dim, ``bias`` is 1 x out_dim (broadcast per
    row); either may be given as a ``Parameter`` to train in place. The
    layer holds nothing else: backward is given the forward input ``x``
    that the weight gradient needs.
    """

    def __init__(self, weight, bias):
        self.weight = weight if isinstance(weight, Parameter) else Parameter(weight)
        self.bias = bias if isinstance(bias, Parameter) else Parameter(bias)
        if self.bias.shape != (1, self.weight.shape[1]):
            raise ShapeError(
                f"bias shape {self.bias.shape} incompatible with weight "
                f"shape {self.weight.shape}; expected (1, {self.weight.shape[1]})"
            )

    @classmethod
    def init(cls, in_dim: int, out_dim: int, rng: np.random.Generator) -> "LinearLayer":
        """Fan-in-scaled uniform weights, zero bias, drawn from ``rng``."""
        if in_dim < 1 or out_dim < 1:
            raise ValidationError(f"layer dims must be >= 1, got {in_dim}x{out_dim}")
        return cls(fan_in_uniform(in_dim, out_dim, rng), np.zeros((1, out_dim)))

    def _input(self, x) -> np.ndarray:
        x = as_matrix(x, "layer input", require_finite=False)
        if x.shape[1] != self.weight.shape[0]:
            raise ShapeError(
                f"input shape {x.shape} incompatible with weight shape "
                f"{self.weight.shape}"
            )
        return x

    def forward(self, x) -> np.ndarray:
        return self._input(x) @ self.weight.value + self.bias.value

    def backward(self, x, grad_out) -> np.ndarray:
        """Accumulate the weight and bias gradients at forward input ``x``;
        return the gradient with respect to ``x``."""
        x = self._input(x)
        grad_out = as_matrix(grad_out, "grad_out", require_finite=False)
        expected = (x.shape[0], self.weight.shape[1])
        if grad_out.shape != expected:
            raise ShapeError(
                f"grad_out shape {grad_out.shape} does not match forward "
                f"output shape {expected}"
            )
        self.weight.grad += x.T @ grad_out
        self.bias.grad += grad_out.sum(axis=0, keepdims=True)
        return grad_out @ self.weight.value.T

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]


def leaky_relu(x, slope: float) -> np.ndarray:
    """Elementwise x if x > 0 else slope * x."""
    if not 0.0 < slope < 1.0:
        raise ValidationError(f"leaky slope must be in (0, 1), got {slope}")
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0.0, x, slope * x)


def leaky_relu_backward(grad_out, forward_input, slope: float) -> np.ndarray:
    """Chain-rule factor from the forward input's sign; derivative at 0 is slope."""
    if not 0.0 < slope < 1.0:
        raise ValidationError(f"leaky slope must be in (0, 1), got {slope}")
    forward_input = np.asarray(forward_input, dtype=np.float64)
    return np.asarray(grad_out, dtype=np.float64) * np.where(forward_input > 0.0, 1.0, slope)


def softmax(logits) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction."""
    logits = as_matrix(logits, "logits", require_finite=False)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_backward(grad_probs, probs) -> np.ndarray:
    """Pull a gradient w.r.t. softmax outputs back to the logits."""
    grad_probs = np.asarray(grad_probs, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    inner = (grad_probs * probs).sum(axis=1, keepdims=True)
    return probs * (grad_probs - inner)


def softmax_cross_entropy(logits, labels) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood of integer labels under row softmax.

    Returns (loss, grad_logits) with grad = (softmax - one_hot) / rows, the
    gradient of the mean loss.
    """
    logits = as_matrix(logits, "logits", require_finite=False)
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"labels shape {labels.shape} does not match logits rows {logits.shape[0]}"
        )
    labels = labels.astype(np.int64)
    num_classes = logits.shape[1]
    bad = np.nonzero((labels < 0) | (labels >= num_classes))[0]
    if bad.size:
        row = int(bad[0])
        raise ValidationError(
            f"label {labels[row]} out of range [0, {num_classes}) at row {row}"
        )
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(logits.shape[0])
    loss = float(np.mean(log_z - shifted[rows, labels]))
    grad = softmax(logits)
    grad[rows, labels] -= 1.0
    grad /= logits.shape[0]
    return loss, grad


def adam_step(
    param: Parameter,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update in place; zeroes the gradient after."""
    param.step_count += 1
    t = param.step_count
    g = param.grad
    param.adam_m *= beta1
    param.adam_m += (1.0 - beta1) * g
    param.adam_v *= beta2
    param.adam_v += (1.0 - beta2) * g * g
    m_hat = param.adam_m / (1.0 - beta1**t)
    v_hat = param.adam_v / (1.0 - beta2**t)
    param.value -= lr * m_hat / (np.sqrt(v_hat) + eps)
    param.zero_grad()


@dataclass
class GradCheckEntry:
    param_index: int
    flat_index: int
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradCheckReport:
    max_rel_error: float
    num_checked: int
    tolerance: float
    passed: bool
    worst: list[GradCheckEntry] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            f"{'pass' if self.passed else 'FAIL'}: max relative error "
            f"{self.max_rel_error:.3e} over {self.num_checked} entries "
            f"(tolerance {self.tolerance:.1e})"
        ]
        for e in self.worst:
            lines.append(
                f"  param {e.param_index} entry {e.flat_index}: analytic "
                f"{e.analytic:.6e} vs numeric {e.numeric:.6e} (rel {e.rel_error:.3e})"
            )
        return "\n".join(lines)


def finite_difference_check(
    loss_fn,
    params,
    h: float = 1e-5,
    tolerance: float = 1e-4,
    rng: np.random.Generator | None = None,
    max_entries_per_param: int | None = None,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` must return the scalar loss and, as a side effect, accumulate
    analytic gradients into each parameter's ``grad`` buffer; it must be
    deterministic. Every entry is checked unless ``max_entries_per_param``
    caps it (then a seeded subsample via ``rng``).
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    loss_fn()
    analytic = [p.grad.copy() for p in params]

    def loss_only():
        for p in params:
            p.zero_grad()
        return float(loss_fn())

    entries: list[GradCheckEntry] = []
    for pi, p in enumerate(params):
        flat = p.value.ravel()
        if flat.base is None and p.value.size > 1:
            raise StateError("parameter value is not a contiguous array")
        indices = np.arange(flat.size)
        if max_entries_per_param is not None and flat.size > max_entries_per_param:
            if rng is None:
                raise ValidationError("subsampled check requires an rng")
            indices = rng.choice(flat.size, size=max_entries_per_param, replace=False)
        for j in indices:
            orig = flat[j]
            flat[j] = orig + h
            f_plus = loss_only()
            flat[j] = orig - h
            f_minus = loss_only()
            flat[j] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(analytic[pi].ravel()[j])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
            entries.append(GradCheckEntry(pi, int(j), a, float(numeric), float(rel)))
    for p in params:
        p.zero_grad()

    entries.sort(key=lambda e: e.rel_error, reverse=True)
    max_rel = entries[0].rel_error if entries else 0.0
    return GradCheckReport(
        max_rel_error=max_rel,
        num_checked=len(entries),
        tolerance=tolerance,
        passed=max_rel <= tolerance,
        worst=entries[:5],
    )
