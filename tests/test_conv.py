"""Convolution trio against a brute-force oracle and adjoint identities."""

import numpy as np
import pytest

from shapegan import autodiff as ad
from shapegan.autodiff import backward, variable
from shapegan.autodiff import conv as conv_module
from shapegan.autodiff.conv import _col2im, _out_hw
from shapegan.errors import ConfigurationError
from shapegan.evaluation import train_quality_classifier
from shapegan.gradcheck import conv_checks


def conv2d_oracle(x, k, stride, pad):
    """Direct six-loop cross-correlation; the reference implementation."""
    n, c, h, w = x.shape
    f, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, f, ho, wo))
    for b in range(n):
        for o in range(f):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[b, :, i * stride : i * stride + kh,
                               j * stride : j * stride + kw]
                    out[b, o, i, j] = np.sum(patch * k[o])
    return out


CASES = [
    ((1, 1, 5, 5), (1, 1, 3, 3), 1, 0),
    ((2, 3, 6, 6), (4, 3, 3, 3), 1, 1),
    ((1, 2, 7, 7), (3, 2, 3, 3), 2, 1),
    ((2, 2, 8, 8), (2, 2, 1, 1), 1, 0),
    ((1, 1, 6, 6), (2, 1, 2, 2), 2, 0),
    ((1, 3, 5, 7), (2, 3, 3, 3), 1, 2),
    # stride 1, square kernel: F < C builds the buffer over the output side
    ((2, 5, 6, 6), (2, 5, 3, 3), 1, 1),
    ((2, 2, 6, 5), (5, 2, 3, 3), 1, 1),
    ((1, 4, 7, 6), (2, 4, 5, 5), 1, 2),
]


@pytest.mark.parametrize("xs,ks,stride,pad", CASES)
def test_conv2d_matches_bruteforce(xs, ks, stride, pad):
    rng = np.random.default_rng(hash((xs, ks, stride, pad)) % 2**32)
    x = rng.standard_normal(xs)
    k = rng.standard_normal(ks)
    fast = ad.conv2d(ad.as_tensor(x), ad.as_tensor(k), stride, pad).data
    slow = conv2d_oracle(x, k, stride, pad)
    np.testing.assert_allclose(fast, slow, atol=1e-12)


@pytest.mark.parametrize("xs,ks,stride,pad", CASES)
def test_adjoints_of_the_oracle_cases(xs, ks, stride, pad):
    # conv_transpose2d and conv_kernel_grad on the oracle's geometries
    rng = np.random.default_rng(hash((ks, xs, pad, stride)) % 2**32)
    x = rng.standard_normal(xs)
    k = rng.standard_normal(ks)
    y = conv2d_oracle(x, k, stride, pad)
    v = rng.standard_normal(y.shape)
    xt = ad.conv_transpose2d(
        ad.as_tensor(v), ad.as_tensor(k), stride, pad, out_hw=xs[2:]
    ).data
    gk = ad.conv_kernel_grad(
        ad.as_tensor(x), ad.as_tensor(v), ks[2], ks[3], stride, pad
    ).data
    lhs = np.sum(y * v)
    assert abs(lhs - np.sum(x * xt)) <= 1e-10 * max(1.0, abs(lhs))
    assert abs(lhs - np.sum(k * gk)) <= 1e-10 * max(1.0, abs(lhs))
    assert gk.flags.c_contiguous


@pytest.mark.parametrize("f,c", [(2, 6), (6, 2), (4, 4)])
@pytest.mark.parametrize("k,pad", [(3, 1), (5, 2), (3, 0)])
def test_stride_one_buffer_is_built_over_the_thinner_operand(monkeypatch, f, c, k, pad):
    # record the channel count of every k*k buffer: the operand that
    # _im2col windows, or the columns that _col2im scatters
    built = []
    im2col, col2im = conv_module._im2col, conv_module._col2im

    def im2col_spy(x, *args):
        built.append(x.shape[1])
        return im2col(x, *args)

    def col2im_spy(cols, *args):
        built.append(cols.shape[1])
        return col2im(cols, *args)

    monkeypatch.setattr(conv_module, "_im2col", im2col_spy)
    monkeypatch.setattr(conv_module, "_col2im", col2im_spy)
    rng = np.random.default_rng(f * 100 + c * 10 + k)
    x = ad.as_tensor(rng.standard_normal((2, c, 7, 7)))
    kernel = ad.as_tensor(rng.standard_normal((f, c, k, k)))
    y = ad.conv2d(x, kernel, 1, pad)
    ad.conv_transpose2d(y, kernel, 1, pad, out_hw=(7, 7))
    ad.conv_kernel_grad(x, y, k, k, 1, pad)
    assert built == [min(f, c)] * 3


def test_input_adjoint_identity():
    # <conv(x), v> == <x, conv_transpose(v)> over random trials
    rng = np.random.default_rng(42)
    for _ in range(100):
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        kh = int(rng.integers(1, 4))
        h = int(rng.integers(kh + 2, 9))
        c = int(rng.integers(1, 3))
        f = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        x = rng.standard_normal((n, c, h, h))
        k = rng.standard_normal((f, c, kh, kh))
        y = ad.conv2d(ad.as_tensor(x), ad.as_tensor(k), stride, pad).data
        v = rng.standard_normal(y.shape)
        xt = ad.conv_transpose2d(
            ad.as_tensor(v), ad.as_tensor(k), stride, pad, out_hw=(h, h)
        ).data
        lhs = np.sum(y * v)
        rhs = np.sum(x * xt)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_kernel_adjoint_identity():
    # <conv(x; k), v> == <k, kernel_grad(x, v)>
    rng = np.random.default_rng(7)
    for _ in range(100):
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        kh = int(rng.integers(1, 4))
        h = int(rng.integers(kh + 2, 9))
        x = rng.standard_normal((2, 2, h, h))
        k = rng.standard_normal((3, 2, kh, kh))
        y = ad.conv2d(ad.as_tensor(x), ad.as_tensor(k), stride, pad).data
        v = rng.standard_normal(y.shape)
        gk = ad.conv_kernel_grad(
            ad.as_tensor(x), ad.as_tensor(v), kh, kh, stride, pad
        ).data
        lhs = np.sum(y * v)
        rhs = np.sum(k * gk)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_conv_finite_difference_gradients():
    failed = [r for r in conv_checks() if not r.passed]
    assert not failed, "\n".join(str(r) for r in failed)


def test_transpose_default_output_is_minimal():
    v = ad.as_tensor(np.ones((1, 1, 3, 3)))
    k = ad.as_tensor(np.ones((1, 1, 3, 3)))
    out = ad.conv_transpose2d(v, k, stride=2, pad=1)
    assert out.shape == (1, 1, 5, 5)
    pinned = ad.conv_transpose2d(v, k, stride=2, pad=1, out_hw=(6, 6))
    assert pinned.shape == (1, 1, 6, 6)


def test_transpose_rejects_inconsistent_out_hw():
    v = ad.as_tensor(np.ones((1, 1, 3, 3)))
    k = ad.as_tensor(np.ones((1, 1, 3, 3)))
    with pytest.raises(ConfigurationError):
        ad.conv_transpose2d(v, k, stride=2, pad=1, out_hw=(9, 9))


def test_conv_validates_geometry():
    x = ad.as_tensor(np.ones((1, 1, 2, 2)))
    k = ad.as_tensor(np.ones((1, 1, 3, 3)))
    with pytest.raises(ConfigurationError):
        ad.conv2d(x, k, stride=1, pad=0)  # kernel larger than input
    with pytest.raises(ConfigurationError):
        ad.conv2d(x, ad.as_tensor(np.ones((1, 2, 1, 1))))  # channel mismatch
    with pytest.raises(ConfigurationError):
        ad.conv2d(x, k, stride=0, pad=1)


def test_conv_gradients_flow_to_both_operands():
    x = variable(np.random.default_rng(0).standard_normal((1, 2, 6, 6)))
    k = variable(np.random.default_rng(1).standard_normal((2, 2, 3, 3)))
    out = ad.sum(ad.conv2d(x, k, 2, 1))
    gx, gk = backward(out, [x, k])
    assert gx.shape == x.shape and gk.shape == k.shape
    assert np.any(gx.data != 0) and np.any(gk.data != 0)


def test_stride_two_even_input_round_trips_shape():
    # 32 -> 16 -> 32 with k3 s2 p1, the encoder/decoder geometry
    x = ad.as_tensor(np.random.default_rng(3).random((1, 1, 32, 32)))
    k = ad.as_tensor(np.random.default_rng(4).standard_normal((1, 1, 3, 3)))
    down = ad.conv2d(x, k, 2, 1)
    assert down.shape == (1, 1, 16, 16)
    up = ad.conv_transpose2d(down, k, 2, 1, out_hw=(32, 32))
    assert up.shape == (1, 1, 32, 32)


def col2im_padded_reference(cols, h, w, stride, pad):
    """Scatter every tap into a zero-padded grid, then crop the padding."""
    n, c, kh, kw, ho, wo = cols.shape
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += cols[:, :, i, j]
    return xp[:, :, pad : pad + h, pad : pad + w]


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("pad", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_col2im_equals_padded_scatter_bitwise(stride, pad, k):
    rng = np.random.default_rng(100 * stride + 10 * pad + k)
    for h, w in [(5, 7), (7, 4), (9, 9), (11, 6)]:
        if h + 2 * pad < k or w + 2 * pad < k:
            continue
        ho, wo = _out_hw(h, w, k, k, stride, pad)
        cols = rng.standard_normal((2, 3, k, k, ho, wo))
        # signed zeros: a pixel whose taps are all -0.0 sums to +0.0 from zeros
        cols[rng.random(cols.shape) < 0.5] = -0.0
        got = _col2im(cols, h, w, stride, pad)
        assert got.flags.c_contiguous
        want = col2im_padded_reference(cols, h, w, stride, pad)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_classifier_training_matches_the_tap_by_tap_scatter_bitwise(monkeypatch, tiny_dataset):
    # every conv of the quality classifier is stride 2, so its training runs
    # the phase scatter and no stride-1 path choice
    def train():
        clf, acc = train_quality_classifier(tiny_dataset, seed=0, steps=10, batch_size=8)
        return [clf.params[key].data.tobytes() for key in clf.params.names()], acc

    strides = []

    def tap_by_tap(cols, h, w, stride, pad):
        strides.append(stride)
        return np.ascontiguousarray(col2im_padded_reference(cols, h, w, stride, pad))

    phase = train()
    monkeypatch.setattr(conv_module, "_col2im", tap_by_tap)
    assert train() == phase
    assert strides and set(strides) == {2}
