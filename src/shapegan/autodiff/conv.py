"""2-d convolution primitives (cross-correlation convention).

Three mutually adjoint operations close the set under differentiation:
``conv2d``, its input adjoint ``conv_transpose2d``, and the kernel adjoint
``conv_kernel_grad``. Each one's backward rule is expressed with the other
two, so all of them support higher-order gradients. The fast paths run on
im2col buffers and BLAS matmul.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import ConfigurationError
from .ops import _result, as_tensor
from .tensor import Tensor


def _operands(op: str, a, b) -> tuple[Tensor, Tensor]:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 4 or b.ndim != 4:
        raise ConfigurationError(f"{op} expects 4-d operands, got {a.shape}, {b.shape}")
    return a, b


def _check_geometry(
    op: str, h: int, w: int, kh: int, kw: int, stride: int, pad: int,
    out_hw: tuple[int, int] | None = None,
) -> tuple[int, int]:
    """Validate the geometry of a conv2d over an (h, w) input and return its
    output size, which must equal ``out_hw`` when that is given."""
    if stride < 1 or pad < 0:
        raise ConfigurationError(f"{op}: stride must be >= 1 and pad >= 0")
    if h + 2 * pad < kh or w + 2 * pad < kw:
        raise ConfigurationError(
            f"{op}: kernel {kh}x{kw} larger than padded input {h + 2 * pad}x{w + 2 * pad}"
        )
    hw = _out_hw(h, w, kh, kw, stride, pad)
    if out_hw is not None and hw != out_hw:
        raise ConfigurationError(
            f"{op}: input size {(h, w)} gives output size {hw}, not {out_hw},"
            f" at stride={stride}, pad={pad}, kernel={kh}x{kw}"
        )
    return hw


def _out_hw(h: int, w: int, kh: int, kw: int, stride: int, pad: int) -> tuple[int, int]:
    return (
        (h + 2 * pad - kh) // stride + 1,
        (w + 2 * pad - kw) // stride + 1,
    )


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """(N, C, H, W) -> (N, C, kh, kw, Ho, Wo) window view copies."""
    n, c, h, w = x.shape
    ho, wo = _out_hw(h, w, kh, kw, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    sn, sc, sh, sw = xp.strides
    windows = as_strided(
        xp, (n, c, kh, kw, ho, wo), (sn, sc, sh, sw, stride * sh, stride * sw),
        writeable=False,
    )
    return np.ascontiguousarray(windows)


def _col2im(
    cols: np.ndarray, h: int, w: int, stride: int, pad: int
) -> np.ndarray:
    """Scatter-add (N, C, kh, kw, Ho, Wo) windows back onto an (N, C, H, W) grid."""
    n, c, kh, kw, ho, wo = cols.shape
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            xp[
                :, :, i : i + stride * ho : stride, j : j + stride * wo : stride
            ] += cols[:, :, i, j]
    if pad:
        return np.ascontiguousarray(xp[:, :, pad : pad + h, pad : pad + w])
    return xp


def conv2d(x, kernel, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlate (N, C, H, W) with an (F, C, kh, kw) kernel."""
    x, kernel = _operands("conv2d", x, kernel)
    n, c, h, w = x.shape
    f, kc, kh, kw = kernel.shape
    if kc != c:
        raise ConfigurationError(
            f"conv2d channel mismatch: input has {c}, kernel expects {kc}"
        )
    ho, wo = _check_geometry("conv2d", h, w, kh, kw, stride, pad)

    cols = _im2col(x.data, kh, kw, stride, pad).reshape(n, c * kh * kw, ho * wo)
    kmat = kernel.data.reshape(f, c * kh * kw)
    data = np.matmul(kmat, cols).reshape(n, f, ho, wo)

    def vjp(g, out):
        gx = (
            conv_transpose2d(g, kernel, stride, pad, out_hw=(h, w))
            if x.requires_grad
            else None
        )
        gk = (
            conv_kernel_grad(x, g, kh, kw, stride, pad)
            if kernel.requires_grad
            else None
        )
        return (gx, gk)

    return _result("conv2d", data, (x, kernel), vjp)


def conv_transpose2d(
    v, kernel, stride: int = 1, pad: int = 0, out_hw: tuple[int, int] | None = None
) -> Tensor:
    """Adjoint of ``conv2d`` in its input: maps (N, F, Ho, Wo) back to (N, C, H, W).

    ``out_hw`` pins the output size when the forward geometry does not divide
    evenly; by default the minimal consistent size is used.
    """
    v, kernel = _operands("conv_transpose2d", v, kernel)
    n, fv, hv, wv = v.shape
    f, c, kh, kw = kernel.shape
    if fv != f:
        raise ConfigurationError(
            f"conv_transpose2d channel mismatch: input has {fv}, kernel produces {f}"
        )
    if out_hw is None:
        out_hw = ((hv - 1) * stride - 2 * pad + kh, (wv - 1) * stride - 2 * pad + kw)
    h, w = out_hw
    _check_geometry("conv_transpose2d", h, w, kh, kw, stride, pad, (hv, wv))

    kmat = kernel.data.reshape(f, c * kh * kw)
    vmat = v.data.reshape(n, f, hv * wv)
    cols = np.matmul(kmat.T, vmat).reshape(n, c, kh, kw, hv, wv)
    data = _col2im(cols, h, w, stride, pad)

    def vjp(g, out):
        gv = conv2d(g, kernel, stride, pad) if v.requires_grad else None
        gk = (
            conv_kernel_grad(g, v, kh, kw, stride, pad)
            if kernel.requires_grad
            else None
        )
        return (gv, gk)

    return _result("conv_transpose2d", data, (v, kernel), vjp)


def conv_kernel_grad(
    x, cotangent, kh: int, kw: int, stride: int = 1, pad: int = 0
) -> Tensor:
    """Adjoint of ``conv2d`` in its kernel: correlates input windows with a cotangent.

    ``x`` is (N, C, H, W), ``cotangent`` is (N, F, Ho, Wo); the result has
    kernel shape (F, C, kh, kw).
    """
    x, cot = _operands("conv_kernel_grad", x, cotangent)
    n, c, h, w = x.shape
    ng, f, ho, wo = cot.shape
    if ng != n:
        raise ConfigurationError(
            f"conv_kernel_grad batch mismatch: {n} vs {ng}"
        )
    _check_geometry("conv_kernel_grad", h, w, kh, kw, stride, pad, (ho, wo))

    cols = _im2col(x.data, kh, kw, stride, pad).reshape(n, c * kh * kw, ho * wo)
    gmat = cot.data.reshape(n, f, ho * wo)
    # batched (f, howo) @ (howo, ckk), summed over the batch
    data = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(f, c, kh, kw)

    def vjp(g, out):
        # d/dx <conv_kernel_grad(x, v), g> = conv_transpose2d(v, g)
        gx = (
            conv_transpose2d(cot, g, stride, pad, out_hw=(h, w))
            if x.requires_grad
            else None
        )
        gv = conv2d(x, g, stride, pad) if cot.requires_grad else None
        return (gx, gv)

    return _result("conv_kernel_grad", data, (x, cot), vjp)
