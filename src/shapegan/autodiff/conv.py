"""2-d convolution primitives (cross-correlation convention).

Three mutually adjoint operations close the set under differentiation:
``conv2d``, its input adjoint ``conv_transpose2d``, and the kernel adjoint
``conv_kernel_grad``. Each one's backward rule is expressed with the other
two, so all of them support higher-order gradients.

Two data paths run them on BLAS matmul. The gather path builds an im2col
buffer over its input and multiplies it by the kernel (``conv2d``'s own
form); the scatter path multiplies first and adds the windows back with
``_col2im`` (``conv_transpose2d``'s own form). Either buffer is k*k times
the size of the operand it is built over. At stride 1 a transposed
convolution is a convolution with the kernel channel-swapped and spatially
flipped, and padded by k - 1 - pad (Dumoulin & Visin, arXiv 1603.07285):

    conv2d(x, K, 1, p) == conv_transpose2d(x, flip(K), 1, k - 1 - p)

where ``flip(K)[c, f, i, j] = K[f, c, k-1-i, k-1-j]``. So at stride 1, with
a square kernel larger than 1x1, each primitive builds its buffer over the
thinner side: when the kernel's F output channels are fewer than its C input
channels, ``conv2d`` scatters through the flipped kernel,
``conv_transpose2d`` gathers over its F-channel input, and
``conv_kernel_grad`` builds im2col over the cotangent and flips the result.
Every other geometry keeps the primitive's own path. The two paths agree to
rounding, not bitwise.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import ConfigurationError
from .ops import _result, as_tensor
from .tensor import Tensor, _needs


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
    if pad:
        xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
        xp[:, :, pad : pad + h, pad : pad + w] = x
    else:
        xp = x
    sn, sc, sh, sw = xp.strides
    windows = as_strided(
        xp, (n, c, kh, kw, ho, wo), (sn, sc, sh, sw, stride * sh, stride * sw),
        writeable=False,
    )
    return np.ascontiguousarray(windows)


def _tap_slices(
    i: int, stride: int, pad: int, size: int, n_out: int
) -> tuple[int, slice, slice]:
    """Where tap ``i`` lands inside [0, size) of the unpadded grid: the output
    phase (grid position mod stride), the positions inside that phase's
    sub-grid, and which window positions land there."""
    lo = max(0, -((i - pad) // stride))
    hi = max(lo, min(n_out, (size - 1 + pad - i) // stride + 1))
    phase = (i - pad) % stride
    first = (i + stride * lo - pad - phase) // stride
    return phase, slice(first, first + hi - lo), slice(lo, hi)


def _col2im(
    cols: np.ndarray, h: int, w: int, stride: int, pad: int
) -> np.ndarray:
    """Scatter-add (N, C, kh, kw, Ho, Wo) windows back onto an (N, C, H, W) grid.

    Each output phase (row and column mod stride) is a contiguous sub-grid
    that sums its own taps from zeros in (i, j) order and is written to the
    grid once; at stride 1 the only phase is the grid itself. Contributions
    that would land in the padding are never read.
    """
    n, c, kh, kw, ho, wo = cols.shape
    rows = [_tap_slices(i, stride, pad, h, ho) for i in range(kh)]
    columns = [_tap_slices(j, stride, pad, w, wo) for j in range(kw)]
    x = np.zeros((n, c, h, w))
    for pr in range(stride):
        row_taps = [(i, dst, src) for i, (p, dst, src) in enumerate(rows) if p == pr]
        for pc in range(stride):
            col_taps = [(j, dst, src) for j, (p, dst, src) in enumerate(columns) if p == pc]
            grid = x if stride == 1 else np.zeros(
                (n, c, len(range(pr, h, stride)), len(range(pc, w, stride)))
            )
            for i, row_dst, row_src in row_taps:
                for j, col_dst, col_src in col_taps:
                    grid[:, :, row_dst, col_dst] += cols[:, :, i, j, row_src, col_src]
            if stride > 1:
                x[:, :, pr::stride, pc::stride] = grid
    return x


def _flipped(kernel: np.ndarray) -> np.ndarray:
    """(A, B, k, k) -> (B, A, k, k) with both spatial axes reversed."""
    return kernel.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]


def _thin_f(f: int, c: int, kh: int, kw: int, stride: int, pad: int) -> bool:
    """Whether a conv with an (F, C, kh, kw) kernel builds its buffer over
    the F side: stride 1, a square kernel larger than 1x1 whose flipped form
    needs no negative padding, and F < C."""
    return stride == 1 and kh == kw > 1 and pad < kh and f < c


def _gather(x: np.ndarray, kernel: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """conv2d of (N, C, H, W) with (F, C, kh, kw): im2col over x, one GEMM."""
    n, c, h, w = x.shape
    f, _, kh, kw = kernel.shape
    ho, wo = _out_hw(h, w, kh, kw, stride, pad)
    cols = _im2col(x, kh, kw, stride, pad).reshape(n, c * kh * kw, ho * wo)
    return np.matmul(kernel.reshape(f, c * kh * kw), cols).reshape(n, f, ho, wo)


def _scatter(
    v: np.ndarray, kernel: np.ndarray, h: int, w: int, stride: int, pad: int
) -> np.ndarray:
    """conv_transpose2d of (N, F, Hv, Wv) with (F, C, kh, kw) onto (N, C, h, w):
    one GEMM, then ``_col2im``."""
    n, f, hv, wv = v.shape
    _, c, kh, kw = kernel.shape
    kmat = kernel.reshape(f, c * kh * kw)
    cols = np.matmul(kmat.T, v.reshape(n, f, hv * wv)).reshape(n, c, kh, kw, hv, wv)
    return _col2im(cols, h, w, stride, pad)


def _kernel_grad(
    x: np.ndarray, cot: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> np.ndarray:
    """conv_kernel_grad of (N, C, H, W) and (N, F, Ho, Wo): im2col over x."""
    n, c, _, _ = x.shape
    _, f, ho, wo = cot.shape
    cols = _im2col(x, kh, kw, stride, pad).reshape(n, c * kh * kw, ho * wo)
    gmat = cot.reshape(n, f, ho * wo)
    # batched (f, howo) @ (howo, ckk), summed over the batch
    return np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(f, c, kh, kw)


def conv2d(x, kernel, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlate (N, C, H, W) with an (F, C, kh, kw) kernel."""
    x, kernel = _operands("conv2d", x, kernel)
    _, c, h, w = x.shape
    f, kc, kh, kw = kernel.shape
    if kc != c:
        raise ConfigurationError(
            f"conv2d channel mismatch: input has {c}, kernel expects {kc}"
        )
    ho, wo = _check_geometry("conv2d", h, w, kh, kw, stride, pad)

    if _thin_f(f, c, kh, kw, stride, pad):
        data = _scatter(x.data, _flipped(kernel.data), ho, wo, 1, kh - 1 - pad)
    else:
        data = _gather(x.data, kernel.data, stride, pad)

    def vjp(g, out):
        gx = (
            conv_transpose2d(g, kernel, stride, pad, out_hw=(h, w))
            if _needs(x)
            else None
        )
        gk = (
            conv_kernel_grad(x, g, kh, kw, stride, pad)
            if _needs(kernel)
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
    _, fv, hv, wv = v.shape
    f, c, kh, kw = kernel.shape
    if fv != f:
        raise ConfigurationError(
            f"conv_transpose2d channel mismatch: input has {fv}, kernel produces {f}"
        )
    if out_hw is None:
        out_hw = ((hv - 1) * stride - 2 * pad + kh, (wv - 1) * stride - 2 * pad + kw)
    h, w = out_hw
    _check_geometry("conv_transpose2d", h, w, kh, kw, stride, pad, (hv, wv))

    if _thin_f(f, c, kh, kw, stride, pad):
        data = _gather(v.data, _flipped(kernel.data), 1, kh - 1 - pad)
    else:
        data = _scatter(v.data, kernel.data, h, w, stride, pad)

    def vjp(g, out):
        gv = conv2d(g, kernel, stride, pad) if _needs(v) else None
        gk = (
            conv_kernel_grad(g, v, kh, kw, stride, pad)
            if _needs(kernel)
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

    if _thin_f(f, c, kh, kw, stride, pad):
        data = np.ascontiguousarray(
            _flipped(_kernel_grad(cot.data, x.data, kh, kw, 1, kh - 1 - pad))
        )
    else:
        data = _kernel_grad(x.data, cot.data, kh, kw, stride, pad)

    def vjp(g, out):
        # d/dx <conv_kernel_grad(x, v), g> = conv_transpose2d(v, g)
        gx = (
            conv_transpose2d(cot, g, stride, pad, out_hw=(h, w))
            if _needs(x)
            else None
        )
        gv = conv2d(x, g, stride, pad) if _needs(cot) else None
        return (gx, gv)

    return _result("conv_kernel_grad", data, (x, cot), vjp)
