"""Minimal dense neural-network kernel.

Matrices are plain 2-D float64 numpy arrays (row-major). Layers keep
explicit gradient buffers; backward passes accumulate into them and
``adam_step`` consumes and clears them. Everything is CPU-only and
deliberately small: linear layers, LeakyReLU, softmax cross-entropy,
Adam, and a central-finite-difference gradient checker.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def _input(self, x) -> np.ndarray:
        x = as_matrix(x, "layer input", require_finite=False)
        if x.shape[1] != self.weight.shape[0]:
            raise ShapeError(
                f"input shape {x.shape} incompatible with weight shape "
                f"{self.weight.shape}"
            )
        return x

    def forward(self, x, out=None) -> np.ndarray:
        """``x @ weight + bias``, written into ``out`` when given."""
        y = np.matmul(self._input(x), self.weight.value, out=out)
        y += self.bias.value
        return y

    def backward(self, x, grad_out, input_grad: bool = True, out=None,
                 param_grads: bool = True) -> np.ndarray | None:
        """Accumulate the weight and bias gradients at forward input ``x``
        (not without ``param_grads``: another process forms them); return the
        gradient with respect to ``x``, written into ``out`` when given, or
        None without ``input_grad`` (a first layer, whose input is the data)."""
        x = self._input(x)
        grad_out = as_matrix(grad_out, "grad_out", require_finite=False)
        expected = (x.shape[0], self.weight.shape[1])
        if grad_out.shape != expected:
            raise ShapeError(
                f"grad_out shape {grad_out.shape} does not match forward "
                f"output shape {expected}"
            )
        if param_grads:
            self.weight.grad += x.T @ grad_out
            self.bias.grad += grad_out.sum(axis=0, keepdims=True)
        return np.matmul(grad_out, self.weight.value.T, out=out) if input_grad else None

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]


def leaky_relu(x, slope: float, out=None) -> np.ndarray:
    """Elementwise x if x > 0 else slope * x, written into ``out`` when given
    (which may be ``x`` itself).

    Computed as max(x, slope * x): for slope in (0, 1) that picks the same
    value bit for bit, +-0.0, NaN and infinities included, with no mask.
    """
    if not 0.0 < slope < 1.0:
        raise ValidationError(f"leaky slope must be in (0, 1), got {slope}")
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, slope * x, out=out)


def leaky_relu_backward(grad_out, forward_input, slope: float, out=None) -> np.ndarray:
    """Chain-rule factor from the forward input's sign; derivative at 0 is slope.
    The forward output has its input's sign, so it may be passed in place of
    the input: the result is the same bit for bit. The factor max(input > 0,
    slope) is exactly 1.0 or ``slope``, so no element branches. The result goes
    into ``out`` when given, which may be ``forward_input`` but not ``grad_out``.
    """
    if not 0.0 < slope < 1.0:
        raise ValidationError(f"leaky slope must be in (0, 1), got {slope}")
    positive = np.asarray(forward_input, dtype=np.float64) > 0.0
    factor = np.maximum(positive, slope, out=out)
    factor *= grad_out
    return factor


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
    e = np.exp(shifted)
    z = e.sum(axis=1, keepdims=True)
    rows = np.arange(logits.shape[0])
    loss = float(np.mean(np.log(z[:, 0]) - shifted[rows, labels]))
    grad = e / z
    grad[rows, labels] -= 1.0
    grad /= logits.shape[0]
    return loss, grad


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(param: Parameter, lr: float) -> None:
    """One bias-corrected Adam update in place; zeroes the gradient after. The
    textbook expressions run in their order, through one temporary and ``grad``."""
    param.step_count += 1
    t = param.step_count
    g, m, v = param.grad, param.adam_m, param.adam_v
    m *= ADAM_BETA1
    scratch = np.multiply(g, 1.0 - ADAM_BETA1)
    m += scratch
    v *= ADAM_BETA2
    np.multiply(g, 1.0 - ADAM_BETA2, out=scratch)
    scratch *= g
    v += scratch
    # lr * m_hat / (sqrt(v_hat) + eps), with m_hat = m / (1 - b1^t), v_hat = v / (1 - b2^t)
    np.divide(v, 1.0 - ADAM_BETA2**t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    np.divide(m, 1.0 - ADAM_BETA1**t, out=g)
    g *= lr
    g /= scratch
    param.value -= g
    param.zero_grad()


# the central-difference step and the largest relative error that passes
GRADCHECK_STEP = 1e-5
GRADCHECK_TOLERANCE = 1e-4


@dataclass
class GradCheckReport:
    max_rel_error: float
    num_checked: int
    passed: bool
    worst_at: tuple[int, int] | None  # (parameter index, flat index) of max_rel_error

    def describe(self) -> str:
        line = (f"{'pass' if self.passed else 'FAIL'}: max relative error "
                f"{self.max_rel_error:.3e} over {self.num_checked} entries "
                f"(tolerance {GRADCHECK_TOLERANCE:.1e})")
        if not self.passed and self.worst_at is not None:
            line += f" at param {self.worst_at[0]} entry {self.worst_at[1]}"
        return line


def finite_difference_check(loss_fn, params) -> GradCheckReport:
    """Compare analytic gradients against central finite differences of
    step ``GRADCHECK_STEP``; the check passes within ``GRADCHECK_TOLERANCE``.

    ``loss_fn`` must return the scalar loss and, as a side effect, accumulate
    analytic gradients into each parameter's ``grad`` buffer; it must be
    deterministic. Every entry of every parameter is checked.
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

    max_rel, worst_at = 0.0, None
    for pi, p in enumerate(params):
        flat = p.value.ravel()
        if flat.base is None and p.value.size > 1:
            raise StateError("parameter value is not a contiguous array")
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + GRADCHECK_STEP
            f_plus = loss_only()
            flat[j] = orig - GRADCHECK_STEP
            f_minus = loss_only()
            flat[j] = orig
            numeric = (f_plus - f_minus) / (2.0 * GRADCHECK_STEP)
            a = float(analytic[pi].ravel()[j])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
            if not (rel <= max_rel or np.isnan(max_rel)):  # the first NaN is the worst
                max_rel, worst_at = rel, (pi, j)
    for p in params:
        p.zero_grad()

    return GradCheckReport(
        max_rel_error=max_rel,
        num_checked=sum(p.value.size for p in params),
        passed=max_rel <= GRADCHECK_TOLERANCE,
        worst_at=worst_at,
    )
