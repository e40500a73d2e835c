"""Differentiable primitives on :class:`Tensor`.

Every primitive computes its output, defines its backward rule as
``vjp(g, out)`` and returns ``_result(...)``, the one way onto the tape.
The rule receives its output as an argument rather than closing over it, so
no tape node references itself and a tape is freed by reference counting.
Values only the backward pass needs are recomputed there from the inputs.
Every backward rule is written with these same primitives, which keeps the
whole set closed under differentiation. Outputs are checked for NaN/Inf;
a violation raises :class:`NumericError` immediately rather than letting bad
values propagate.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConfigurationError, NumericError, UsageError
from .tensor import _GRAD_MODE, Tensor, _fresh


def as_tensor(x) -> Tensor:
    """Wrap scalars/arrays as constant tensors; pass tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _result(op: str, data, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    """The output of ``op``, recorded with ``inputs`` and ``vjp`` while
    recording is on and an input requires grad."""
    arr = np.asarray(data, dtype=np.float64)
    # One-pass screen: any NaN/Inf makes the sum non-finite. A non-finite sum
    # of finite values (overflow) is possible, so confirm elementwise before
    # raising.
    if not np.isfinite(arr.sum()) and not np.all(np.isfinite(arr)):
        raise NumericError(f"{op} produced non-finite values")
    if _GRAD_MODE[-1] and any(i.requires_grad for i in inputs):
        return _fresh(arr, inputs, vjp)
    return _fresh(arr)


def _binary_data(op: str, a: Tensor, b: Tensor, fn) -> np.ndarray:
    try:
        return fn(a.data, b.data)
    except ValueError as exc:
        raise ConfigurationError(
            f"shape mismatch for {op}: {a.shape} vs {b.shape}"
        ) from exc


def _sum_to(g: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Reduce a broadcast gradient back to ``shape``."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    axes = tuple(range(extra)) + tuple(
        extra + i
        for i, s in enumerate(shape)
        if s == 1 and g.shape[extra + i] != 1
    )
    out = sum(g, axis=axes) if axes else g
    return reshape(out, shape)


# ---------------------------------------------------------------------------
# arithmetic

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def vjp(g, out):
        return (_sum_to(g, a.shape), _sum_to(g, b.shape))

    return _result("add", _binary_data("add", a, b, np.add), (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def vjp(g, out):
        return (_sum_to(g, a.shape), _sum_to(neg(g), b.shape))

    return _result("sub", _binary_data("sub", a, b, np.subtract), (a, b), vjp)


def mul(a, b) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)

    def vjp(g, out):
        ga = _sum_to(mul(g, b), a.shape) if a.requires_grad else None
        gb = _sum_to(mul(g, a), b.shape) if b.requires_grad else None
        return (ga, gb)

    return _result("mul", _binary_data("mul", a, b, np.multiply), (a, b), vjp)


def scalar_mul(x, c: float) -> Tensor:
    """Product with a python scalar (constant on the tape)."""
    return mul(x, float(c))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if np.any(b.data == 0.0):
        raise NumericError("division by zero")

    def vjp(g, out):
        ga = _sum_to(div(g, b), a.shape) if a.requires_grad else None
        gb = _sum_to(neg(div(mul(g, out), b)), b.shape) if b.requires_grad else None
        return (ga, gb)

    return _result("div", _binary_data("div", a, b, np.divide), (a, b), vjp)


def neg(x) -> Tensor:
    x = as_tensor(x)
    return _result("neg", -x.data, (x,), lambda g, out: (neg(g),))


def square(x) -> Tensor:
    x = as_tensor(x)
    return _result(
        "square", np.square(x.data), (x,), lambda g, out: (mul(mul(g, x), 2.0),)
    )


def sqrt(x) -> Tensor:
    x = as_tensor(x)
    if np.any(x.data < 0.0):
        raise NumericError("sqrt of negative value")
    return _result(
        "sqrt", np.sqrt(x.data), (x,), lambda g, out: (div(mul(g, 0.5), out),)
    )


def exp(x) -> Tensor:
    x = as_tensor(x)
    with np.errstate(over="ignore"):
        data = np.exp(x.data)
    return _result("exp", data, (x,), lambda g, out: (mul(g, out),))


def log(x) -> Tensor:
    x = as_tensor(x)
    if np.any(x.data <= 0.0):
        raise NumericError("log of non-positive value")
    return _result("log", np.log(x.data), (x,), lambda g, out: (div(g, x),))


# ---------------------------------------------------------------------------
# activations

def leaky_relu(x, slope: float = 0.2) -> Tensor:
    x = as_tensor(x)
    data = np.where(x.data > 0.0, x.data, slope * x.data)

    def vjp(g, out):
        return (mul(g, _fresh(np.where(x.data > 0.0, 1.0, slope))),)

    return _result("leaky_relu", data, (x,), vjp)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    d = x.data
    data = np.empty_like(d)
    pos = d >= 0.0
    data[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    data[~pos] = e / (1.0 + e)

    def vjp(g, out):
        # derivative written as sigmoid(x) * sigmoid(-x): the usual
        # out * (1 - out) form rounds to an exact zero once a logit passes
        # ~37 and the unit then never recovers; this form keeps a subnormal
        # but nonzero slope on both tails
        return (mul(g, mul(out, sigmoid(neg(x)))),)

    return _result("sigmoid", data, (x,), vjp)


# ---------------------------------------------------------------------------
# linear algebra and shape

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ConfigurationError(
            f"matmul expects 2-d operands, got {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[0]:
        raise ConfigurationError(
            f"matmul inner dimensions differ: {a.shape} @ {b.shape}"
        )

    def vjp(g, out):
        ga = matmul(g, transpose(b)) if a.requires_grad else None
        gb = matmul(transpose(a), g) if b.requires_grad else None
        return (ga, gb)

    return _result("matmul", a.data @ b.data, (a, b), vjp)


def transpose(x) -> Tensor:
    x = as_tensor(x)
    if x.ndim != 2:
        raise ConfigurationError(f"transpose expects a matrix, got {x.shape}")
    return _result("transpose", x.data.T, (x,), lambda g, out: (transpose(g),))


def reshape(x, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    try:
        data = x.data.reshape(tuple(shape))
    except ValueError as exc:
        raise ConfigurationError(
            f"cannot reshape {x.shape} to {tuple(shape)}"
        ) from exc
    return _result("reshape", data, (x,), lambda g, out: (reshape(g, x.shape),))


def broadcast_to(x, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    try:
        data = np.broadcast_to(x.data, tuple(shape))
    except ValueError as exc:
        raise ConfigurationError(
            f"cannot broadcast {x.shape} to {tuple(shape)}"
        ) from exc
    return _result("broadcast_to", data, (x,), lambda g, out: (_sum_to(g, x.shape),))


def _normalize_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _keepdims_shape(shape: tuple[int, ...], axes: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(1 if i in axes else s for i, s in enumerate(shape))


def sum(x, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    x = as_tensor(x)
    axes = _normalize_axes(axis, x.ndim)
    data = x.data.sum(axis=axes or None, keepdims=keepdims)

    def vjp(g, out):
        gg = g if keepdims else reshape(g, _keepdims_shape(x.shape, axes))
        return (broadcast_to(gg, x.shape),)

    return _result("sum", data, (x,), vjp)


def mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    axes = _normalize_axes(axis, x.ndim)
    count = 1
    for a in axes:
        count *= x.shape[a]
    if count == 0:
        raise ConfigurationError("mean over an empty axis")
    data = x.data.mean(axis=axes or None, keepdims=keepdims)

    def vjp(g, out):
        gg = g if keepdims else reshape(g, _keepdims_shape(x.shape, axes))
        return (broadcast_to(mul(gg, 1.0 / count), x.shape),)

    return _result("mean", data, (x,), vjp)


def l2_norm_per_row(x) -> Tensor:
    """Euclidean norm over all non-batch dimensions; returns shape (N,)."""
    x = as_tensor(x)
    if x.ndim < 1:
        raise ConfigurationError("l2_norm_per_row needs a batch dimension")
    axes = tuple(range(1, x.ndim))
    return sqrt(sum(square(x), axis=axes) if axes else square(x))


# ---------------------------------------------------------------------------
# spatial

def nearest_upsample2x(x) -> Tensor:
    """Repeat every pixel of an (N, C, H, W) map into a 2x2 block."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ConfigurationError(f"nearest_upsample2x expects NCHW, got {x.shape}")
    data = x.data.repeat(2, axis=2).repeat(2, axis=3)
    return _result("nearest_upsample2x", data, (x,), lambda g, out: (block_sum2x(g),))


def block_sum2x(x) -> Tensor:
    """Sum each non-overlapping 2x2 block; adjoint of nearest_upsample2x."""
    x = as_tensor(x)
    if x.ndim != 4 or x.shape[2] % 2 or x.shape[3] % 2:
        raise ConfigurationError(
            f"block_sum2x expects NCHW with even spatial dims, got {x.shape}"
        )
    n, c, h, w = x.shape
    data = x.data.reshape(n, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))
    return _result("block_sum2x", data, (x,), lambda g, out: (nearest_upsample2x(g),))


def concat_channels(parts: Sequence) -> Tensor:
    """Concatenate (N, C_i, H, W) maps along the channel axis."""
    ts = [as_tensor(p) for p in parts]
    if not ts:
        raise UsageError("concat_channels needs at least one input")
    base = ts[0].shape
    for t in ts[1:]:
        if t.ndim != 4 or t.shape[0] != base[0] or t.shape[2:] != base[2:]:
            raise ConfigurationError(
                f"concat_channels shape mismatch: {[t.shape for t in ts]}"
            )
    data = np.concatenate([t.data for t in ts], axis=1)

    def vjp(g, out):
        grads = []
        off = 0
        for t in ts:
            c = t.shape[1]
            grads.append(channel_slice(g, off, off + c) if t.requires_grad else None)
            off += c
        return tuple(grads)

    return _result("concat_channels", data, tuple(ts), vjp)


def channel_slice(x, start: int, stop: int) -> Tensor:
    """Slice channels [start, stop) of an (N, C, H, W) map."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ConfigurationError(f"channel_slice expects NCHW, got {x.shape}")
    if not (0 <= start < stop <= x.shape[1]):
        raise UsageError(
            f"channel_slice range [{start}, {stop}) out of bounds for {x.shape}"
        )
    data = np.ascontiguousarray(x.data[:, start:stop])

    def vjp(g, out):
        n, c, h, w = x.shape
        pieces = []
        if start > 0:
            pieces.append(_fresh(np.zeros((n, start, h, w))))
        pieces.append(g)
        if stop < c:
            pieces.append(_fresh(np.zeros((n, c - stop, h, w))))
        return (concat_channels(pieces) if len(pieces) > 1 else g,)

    return _result("channel_slice", data, (x,), vjp)
