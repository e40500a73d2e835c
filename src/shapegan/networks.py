"""The five networks: encoder, decoder, interpolator, critic, mask net.

Architecture constants live here, with the layer helpers (``_add_conv``,
``_add_linear``, ``_conv``, ``_resize_conv``, ``_linear``) that these
networks and the domain classifier in ``evaluation`` are built from. Feature
maps are 64x(S/4)x(S/4) for an SxS input; downsampling is always stride-2
convolution and upsampling is nearest-neighbour followed by a 3x3
convolution. That pair is a stride-2, pad-1, 4x4 transposed convolution
whose kernel sums the 3x3 taps (``_resize_conv``), so it runs on the
low-resolution grid, forward and backward. LeakyReLU(0.2) is used between
layers; the decoder and mask net end in a sigmoid, the critic output is
unbounded. Weights are He-initialized from a seeded generator, biases zero.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import ParamSet, Tensor
from .errors import ConfigurationError, UsageError

FEATURE_CHANNELS = 64


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _he_conv(rng, out_ch: int, in_ch: int, k: int) -> np.ndarray:
    std = math.sqrt(2.0 / (in_ch * k * k))
    return rng.normal(0.0, std, size=(out_ch, in_ch, k, k))


def _he_linear(rng, in_f: int, out_f: int) -> np.ndarray:
    # stored (in, out) so the forward pass needs no transpose
    std = math.sqrt(2.0 / in_f)
    return rng.normal(0.0, std, size=(in_f, out_f))


def _add_conv(ps: ParamSet, rng, key: str, in_ch: int, out_ch: int, k: int):
    ps.add(f"{key}.w", _he_conv(rng, out_ch, in_ch, k))
    ps.add(f"{key}.b", np.zeros((out_ch, 1, 1)))


def _add_linear(ps: ParamSet, rng, key: str, in_f: int, out_f: int):
    ps.add(f"{key}.w", _he_linear(rng, in_f, out_f))
    ps.add(f"{key}.b", np.zeros(out_f))


def _conv(x: Tensor, ps: Mapping[str, Tensor], key: str, stride: int, pad: int) -> Tensor:
    return ad.add(ad.conv2d(x, ps[f"{key}.w"], stride, pad), ps[f"{key}.b"])


# Row t sums the 3x3 taps that reach 4x4 tap t: the 1-d kernel of the
# transposed convolution is [w2, w1 + w2, w0 + w1, w0].
_RESIZE_TAPS = np.array(
    [[0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
)


def _resize_conv(x: Tensor, ps: Mapping[str, Tensor], key: str) -> Tensor:
    """Nearest 2x upsampling, then the 3x3, stride-1, pad-1 conv ``key``.

    Output pixel 2a + p reads source pixels a - 1, a, a (p = 0) or a, a,
    a + 1 (p = 1), which is exactly a stride-2, pad-1, 4x4 transposed
    convolution of ``x`` whose kernel sums the 3x3 taps that read one source
    pixel (Odena et al., Distill 2016). So the GEMM runs on the
    low-resolution grid, forward and backward."""
    kernel = ad.kernel_taps(ps[f"{key}.w"], _RESIZE_TAPS)
    return ad.add(ad.conv_transpose2d(x, kernel, 2, 1), ps[f"{key}.b"])


def _linear(x: Tensor, ps: Mapping[str, Tensor], key: str) -> Tensor:
    return ad.add(ad.matmul(x, ps[f"{key}.w"]), ps[f"{key}.b"])


def feature_width(image_size: int) -> int:
    """Flattened size of one encoder feature map, the critic's input width."""
    return FEATURE_CHANNELS * (image_size // 4) ** 2


def _check_images(x: Tensor, channels: int, size: int, who: str) -> None:
    if x.ndim != 4 or x.shape[1] != channels or x.shape[2:] != (size, size):
        raise ConfigurationError(
            f"{who} expects (N, {channels}, {size}, {size}) input, got {x.shape}"
        )


class Encoder:
    """Image (N, C, S, S) -> feature (N, 64, S/4, S/4) via two stride-2 stages.

    The final stage has no activation so the feature space is symmetric
    around zero, which suits arithmetic on feature differences.
    """

    def __init__(self, params: ParamSet, in_channels: int, image_size: int):
        self.params = params
        self.in_channels = in_channels
        self.image_size = image_size

    @classmethod
    def build(cls, in_channels: int = 3, image_size: int = 32, seed: int = 0) -> "Encoder":
        if image_size % 4 or image_size < 16:
            raise ConfigurationError(
                f"image_size must be a multiple of 4 and >= 16, got {image_size}"
            )
        rng = _rng(seed)
        ps = ParamSet("encoder")
        _add_conv(ps, rng, "conv0", in_channels, 32, 3)
        _add_conv(ps, rng, "conv1", 32, FEATURE_CHANNELS, 3)
        return cls(ps, in_channels, image_size)

    def __call__(self, images: Tensor) -> Tensor:
        _check_images(images, self.in_channels, self.image_size, "encoder")
        h = ad.leaky_relu(_conv(images, self.params, "conv0", 2, 1))
        return _conv(h, self.params, "conv1", 2, 1)


class Decoder:
    """Feature (N, 64, S/4, S/4) -> image (N, C, S, S), final sigmoid."""

    def __init__(self, params: ParamSet, image_size: int):
        self.params = params
        self.image_size = image_size

    @classmethod
    def build(cls, out_channels: int = 3, image_size: int = 32, seed: int = 0) -> "Decoder":
        rng = _rng(seed)
        ps = ParamSet("decoder")
        _add_conv(ps, rng, "conv0", FEATURE_CHANNELS, 32, 3)
        _add_conv(ps, rng, "conv1", 32, 16, 3)
        _add_conv(ps, rng, "conv_out", 16, out_channels, 3)
        return cls(ps, image_size)

    def __call__(self, features: Tensor) -> Tensor:
        s = self.image_size // 4
        if features.ndim != 4 or features.shape[1:] != (FEATURE_CHANNELS, s, s):
            raise ConfigurationError(
                f"decoder expects (N, {FEATURE_CHANNELS}, {s}, {s}) features,"
                f" got {features.shape}"
            )
        h = ad.leaky_relu(_resize_conv(features, self.params, "conv0"))
        h = ad.leaky_relu(_resize_conv(h, self.params, "conv1"))
        return ad.sigmoid(_conv(h, self.params, "conv_out", 1, 1))


class Interpolator:
    """Residual direction net: maps a feature difference to a correction.

    Two 3x3 convolutions at constant width with a LeakyReLU between and no
    final activation.
    """

    def __init__(self, params: ParamSet):
        self.params = params

    @classmethod
    def build(cls, seed: int = 0) -> "Interpolator":
        rng = _rng(seed)
        ps = ParamSet("interpolator")
        _add_conv(ps, rng, "conv0", FEATURE_CHANNELS, FEATURE_CHANNELS, 3)
        _add_conv(ps, rng, "conv1", FEATURE_CHANNELS, FEATURE_CHANNELS, 3)
        return cls(ps)

    def __call__(self, diff: Tensor) -> Tensor:
        if diff.ndim != 4 or diff.shape[1] != FEATURE_CHANNELS:
            raise ConfigurationError(
                f"interpolator expects (N, {FEATURE_CHANNELS}, h, w), got {diff.shape}"
            )
        h = ad.leaky_relu(_conv(diff, self.params, "conv0", 1, 1))
        return _conv(h, self.params, "conv1", 1, 1)


class Critic:
    """Feature scorer: flatten + linear stack, unbounded scalar output."""

    def __init__(self, params: Mapping[str, Tensor], in_features: int,
                 hidden: tuple[int, ...]):
        self.params = params
        self.in_features = in_features
        self.hidden = hidden

    @classmethod
    def build(cls, in_features: int, hidden: tuple[int, ...] = (512, 256),
              seed: int = 0) -> "Critic":
        rng = _rng(seed)
        ps = ParamSet("critic")
        dims = [in_features, *hidden, 1]
        for i in range(len(dims) - 1):
            _add_linear(ps, rng, f"fc{i}", dims[i], dims[i + 1])
        return cls(ps, in_features, tuple(hidden))

    def __call__(self, features: Tensor) -> Tensor:
        if features.ndim < 2:
            raise ConfigurationError(
                f"critic expects batched features, got {features.shape}"
            )
        n = features.shape[0]
        flat_dim = features.size // n
        if flat_dim != self.in_features:
            raise ConfigurationError(
                f"critic expects {self.in_features} features per sample,"
                f" got {flat_dim} from {features.shape}"
            )
        h = ad.reshape(features, (n, flat_dim))
        last = len(self.hidden)
        for i in range(last + 1):
            h = _linear(h, self.params, f"fc{i}")
            if i < last:
                h = ad.leaky_relu(h)
        return h


class MaskNet:
    """Two-level UNet predicting a soft foreground mask in [0, 1].

    Down path S -> S/2 -> S/4, nearest-upsample up path with skip
    concatenations, 1x1 output convolution with sigmoid.
    """

    def __init__(self, params: ParamSet, in_channels: int):
        self.params = params
        self.in_channels = in_channels

    @classmethod
    def build(cls, in_channels: int = 3, seed: int = 0) -> "MaskNet":
        rng = _rng(seed)
        w1, w2, w3 = 16, 32, 64
        ps = ParamSet("unet")
        _add_conv(ps, rng, "enc0", in_channels, w1, 3)
        _add_conv(ps, rng, "enc1", w1, w2, 3)
        _add_conv(ps, rng, "enc2", w2, w3, 3)
        _add_conv(ps, rng, "dec1a", w3, w2, 3)
        _add_conv(ps, rng, "dec1b", 2 * w2, w2, 3)
        _add_conv(ps, rng, "dec0a", w2, w1, 3)
        _add_conv(ps, rng, "dec0b", 2 * w1, w1, 3)
        _add_conv(ps, rng, "out", w1, 1, 1)
        return cls(ps, in_channels)

    def __call__(self, images: Tensor) -> Tensor:
        if images.ndim != 4 or images.shape[1] != self.in_channels:
            raise ConfigurationError(
                f"mask net expects (N, {self.in_channels}, S, S), got {images.shape}"
            )
        if images.shape[2] % 4 or images.shape[3] % 4:
            raise ConfigurationError(
                f"mask net needs spatial dims divisible by 4, got {images.shape}"
            )
        ps = self.params
        e0 = ad.leaky_relu(_conv(images, ps, "enc0", 1, 1))
        e1 = ad.leaky_relu(_conv(e0, ps, "enc1", 2, 1))
        e2 = ad.leaky_relu(_conv(e1, ps, "enc2", 2, 1))

        u1 = ad.leaky_relu(_resize_conv(e2, ps, "dec1a"))
        u1 = ad.concat_channels([u1, e1])
        u1 = ad.leaky_relu(_conv(u1, ps, "dec1b", 1, 1))
        u0 = ad.leaky_relu(_resize_conv(u1, ps, "dec0a"))
        u0 = ad.concat_channels([u0, e0])
        u0 = ad.leaky_relu(_conv(u0, ps, "dec0b", 1, 1))
        return ad.sigmoid(_conv(u0, ps, "out", 1, 0))


def check_alpha(alpha) -> None:
    """Reject ``alpha`` (a scalar or a sequence) unless every value lies in [0, 1]."""
    arr = np.asarray(alpha, dtype=np.float64)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN fails both
        raise UsageError(f"alpha must lie in [0, 1], got {arr}")


def _alpha_tensor(alpha, batch: int, ndim: int) -> Tensor:
    arr = np.asarray(alpha, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 or (arr.size not in (1, batch)):
        raise UsageError(
            f"alpha must be a scalar or one value per sample, got shape {arr.shape}"
        )
    check_alpha(arr)
    return ad.as_tensor(arr.reshape((arr.size,) + (1,) * (ndim - 1)))


def interpolate(
    feat_x: Tensor,
    feat_y: Tensor,
    alpha,
    mode: str = "learned",
    net: Interpolator | None = None,
) -> Tensor:
    """Blend source features toward target features.

    ``linear`` mode moves along the raw difference; ``learned`` mode scales
    the interpolator's output on that difference, so the result is affine in
    alpha by construction. ``alpha`` may be a scalar or one value per sample.
    """
    feat_x, feat_y = ad.as_tensor(feat_x), ad.as_tensor(feat_y)
    if feat_x.shape != feat_y.shape:
        raise ConfigurationError(
            f"feature shapes differ: {feat_x.shape} vs {feat_y.shape}"
        )
    a = _alpha_tensor(alpha, feat_x.shape[0], feat_x.ndim)
    diff = ad.sub(feat_y, feat_x)
    if mode == "linear":
        return ad.add(feat_x, ad.mul(a, diff))
    if mode == "learned":
        if net is None:
            raise UsageError("learned interpolation requires the interpolator net")
        return ad.add(feat_x, ad.mul(a, net(diff)))
    raise UsageError(f"unknown interpolation mode {mode!r}")
