"""Network construction, shapes, determinism, and interpolation identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapegan import autodiff as ad
from shapegan.config import TrainConfig
from shapegan.errors import ConfigurationError, UsageError
from shapegan.evaluation import SmallClassifier
from shapegan.networks import (
    FEATURE_CHANNELS,
    Critic,
    Decoder,
    Encoder,
    Interpolator,
    MaskNet,
    _resize_conv,
    feature_width,
    interpolate,
)
from shapegan.seeds import derive_seed
from shapegan.trainer import build_nets


def _images(n=2, c=3, s=32, seed=0):
    return ad.as_tensor(np.random.default_rng(seed).random((n, c, s, s)))


class TestShapes:
    def test_encoder_output(self):
        enc = Encoder.build(3, 32, seed=1)
        assert enc(_images()).shape == (2, FEATURE_CHANNELS, 8, 8)
        assert feature_width(32) == FEATURE_CHANNELS * 8 * 8

    def test_encoder_16(self):
        enc = Encoder.build(3, 16, seed=1)
        assert enc(_images(s=16)).shape == (2, FEATURE_CHANNELS, 4, 4)

    def test_decoder_output_range(self):
        dec = Decoder.build(3, 32, seed=2)
        f = ad.as_tensor(np.random.default_rng(0).standard_normal((2, 64, 8, 8)))
        out = dec(f)
        assert out.shape == (2, 3, 32, 32)
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_interpolator_preserves_shape(self):
        net = Interpolator.build(seed=3)
        d = ad.as_tensor(np.random.default_rng(0).standard_normal((2, 64, 8, 8)))
        assert net(d).shape == (2, 64, 8, 8)

    def test_critic_scores(self):
        critic = Critic.build(feature_width(32), seed=4)
        f = ad.as_tensor(np.random.default_rng(0).standard_normal((3, 64, 8, 8)))
        assert critic(f).shape == (3, 1)

    def test_masknet_output(self):
        unet = MaskNet.build(3, seed=5)
        out = unet(_images())
        assert out.shape == (2, 1, 32, 32)
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_encoder_rejects_wrong_shape(self):
        enc = Encoder.build(3, 32, seed=1)
        with pytest.raises(ConfigurationError):
            enc(_images(s=16))

    def test_masknet_rejects_indivisible_size(self):
        unet = MaskNet.build(3, seed=5)
        with pytest.raises(ConfigurationError):
            unet(ad.as_tensor(np.ones((1, 3, 30, 30))))

    def test_encoder_rejects_bad_size(self):
        with pytest.raises(ConfigurationError):
            Encoder.build(3, 30, seed=1)
        with pytest.raises(ConfigurationError):
            Encoder.build(3, 12, seed=1)


class TestInitialization:
    def test_seed_determinism(self):
        a = Encoder.build(3, 32, seed=7)
        b = Encoder.build(3, 32, seed=7)
        for ka, kb in zip(a.params.tensors(), b.params.tensors()):
            np.testing.assert_array_equal(ka.data, kb.data)

    def test_different_seeds_differ(self):
        a = Encoder.build(3, 32, seed=7)
        b = Encoder.build(3, 32, seed=8)
        assert any(
            np.any(ta.data != tb.data)
            for ta, tb in zip(a.params.tensors(), b.params.tensors())
        )

    def test_he_scale(self):
        enc = Encoder.build(3, 32, seed=9)
        w = enc.params["conv0.w"].data
        target = np.sqrt(2.0 / (3 * 9))
        assert abs(w.std() - target) < 0.3 * target

    def test_biases_start_at_zero(self):
        for net in (Encoder.build(seed=1), Decoder.build(seed=2),
                    MaskNet.build(seed=3), Critic.build(16, seed=4)):
            for name in net.params.names():
                if name.endswith(".b"):
                    np.testing.assert_array_equal(
                        net.params[name].data, np.zeros_like(net.params[name].data)
                    )

    def test_distinct_inputs_give_distinct_features(self):
        enc = Encoder.build(3, 32, seed=11)
        fa = enc(_images(seed=1)).data
        fb = enc(_images(seed=2)).data
        assert np.any(fa != fb)


class TestInterpolation:
    def setup_method(self):
        rng = np.random.default_rng(13)
        self.fx = ad.as_tensor(rng.standard_normal((3, 64, 8, 8)))
        self.fy = ad.as_tensor(rng.standard_normal((3, 64, 8, 8)))
        self.net = Interpolator.build(seed=17)

    def test_alpha_zero_is_exactly_fx(self):
        for mode in ("linear", "learned"):
            out = interpolate(self.fx, self.fy, 0.0, mode, self.net)
            assert np.max(np.abs(out.data - self.fx.data)) <= 1e-15

    def test_linear_alpha_one_is_fy(self):
        out = interpolate(self.fx, self.fy, 1.0, "linear")
        assert np.max(np.abs(out.data - self.fy.data)) <= 1e-12

    def test_linear_midpoint(self):
        out = interpolate(self.fx, self.fy, 0.5, "linear")
        np.testing.assert_allclose(
            out.data, 0.5 * (self.fx.data + self.fy.data), atol=1e-12
        )

    def test_learned_is_affine_in_alpha(self):
        full = interpolate(self.fx, self.fy, 1.0, "learned", self.net).data
        for alpha in (0.25, 0.5, 0.75):
            out = interpolate(self.fx, self.fy, alpha, "learned", self.net).data
            expected = self.fx.data + alpha * (full - self.fx.data)
            assert np.max(np.abs(out - expected)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        a1=st.floats(0.0, 1.0, allow_nan=False),
        a2=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_learned_affinity_property(self, a1, a2):
        # out(a) - fx is linear in a, so chords agree with endpoints
        o1 = interpolate(self.fx, self.fy, a1, "learned", self.net).data
        o2 = interpolate(self.fx, self.fy, a2, "learned", self.net).data
        mid = interpolate(
            self.fx, self.fy, (a1 + a2) / 2.0, "learned", self.net
        ).data
        assert np.max(np.abs(0.5 * (o1 + o2) - mid)) <= 1e-12

    def test_per_sample_alphas(self):
        alphas = np.array([0.0, 0.5, 1.0])
        out = interpolate(self.fx, self.fy, alphas, "linear").data
        np.testing.assert_allclose(out[0], self.fx.data[0], atol=1e-15)
        np.testing.assert_allclose(
            out[1], 0.5 * (self.fx.data[1] + self.fy.data[1]), atol=1e-12
        )
        np.testing.assert_allclose(out[2], self.fy.data[2], atol=1e-12)

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(UsageError):
            interpolate(self.fx, self.fy, 1.5, "linear")
        with pytest.raises(UsageError):
            interpolate(self.fx, self.fy, -0.1, "linear")
        with pytest.raises(UsageError, match=r"\[0, 1\]"):
            interpolate(self.fx, self.fy, float("nan"), "linear")
        with pytest.raises(UsageError, match=r"\[0, 1\]"):
            interpolate(self.fx, self.fy, np.array([0.5, np.nan, 1.0]), "linear")

    def test_unknown_mode_rejected(self):
        with pytest.raises(UsageError):
            interpolate(self.fx, self.fy, 0.5, "cubic", self.net)

    def test_learned_mode_needs_net(self):
        with pytest.raises(UsageError):
            interpolate(self.fx, self.fy, 0.5, "learned")


def _spy(monkeypatch, name):
    """Record the outputs of every ``ad.<name>`` call the networks make."""
    outputs = []
    op = getattr(ad, name)

    def spied(*args):
        outputs.append(op(*args))
        return outputs[-1]

    monkeypatch.setattr(ad, name, spied)
    return outputs


class TestDescriptors:
    """Layer structure, read off parameter shapes and the ops a forward runs."""

    def test_critic_structure(self, monkeypatch):
        critic = Critic.build(feature_width(32), seed=0)
        dims = [critic.params[f"fc{i}.w"].shape for i in range(3)]
        assert dims == [(4096, 512), (512, 256), (256, 1)]
        acts = _spy(monkeypatch, "leaky_relu")
        out = critic(ad.as_tensor(np.ones((2, 64, 8, 8))))
        assert len(acts) == 2 and out is not acts[-1]  # unbounded output

    def test_encoder_structure(self, monkeypatch):
        enc = Encoder.build(3, 32, seed=0)
        convs = _spy(monkeypatch, "conv2d")
        acts = _spy(monkeypatch, "leaky_relu")
        out = enc(_images())
        assert [c.shape[-1] for c in convs] == [16, 8]  # both stride 2
        assert enc.params["conv1.w"].shape[0] == FEATURE_CHANNELS
        assert len(acts) == 1 and out is not acts[-1]

    def test_decoder_ends_in_sigmoid(self, monkeypatch):
        dec = Decoder.build(3, 32, seed=0)
        squash = _spy(monkeypatch, "sigmoid")
        out = dec(ad.as_tensor(np.ones((1, FEATURE_CHANNELS, 8, 8))))
        assert len(squash) == 1 and out is squash[0]

    def test_masknet_has_skips_and_sigmoid_head(self, monkeypatch):
        unet = MaskNet.build(3, seed=0)
        # each decoder stage reads its upsampled input next to the skip
        assert unet.params["dec1b.w"].shape[:2] == (32, 2 * 32)
        assert unet.params["dec0b.w"].shape[:2] == (16, 2 * 16)
        assert unet.params["out.w"].shape == (1, 16, 1, 1)
        ups = _spy(monkeypatch, "conv_transpose2d")
        convs = _spy(monkeypatch, "conv2d")
        squash = _spy(monkeypatch, "sigmoid")
        out = unet(_images(n=1))
        assert [u.shape[2] for u in ups] == [16, 32]  # two 2x up-steps
        assert len(convs) == 6 and len(squash) == 1 and out is squash[0]

    def test_interpolator_structure(self, monkeypatch):
        net = Interpolator.build(seed=0)
        assert net.params.names() == ["conv0.w", "conv0.b", "conv1.w", "conv1.b"]
        acts = _spy(monkeypatch, "leaky_relu")
        out = net(ad.as_tensor(np.ones((1, FEATURE_CHANNELS, 8, 8))))
        assert len(acts) == 1 and out is not acts[-1]


def _upsample_conv_reference(x, w, b, g):
    """Nearest 2x upsampling by ``np.repeat``, then a 3x3 pad-1 conv, in plain
    numpy: the output, and the input and weight gradients of <output, g>."""
    n, c, h, wd = x.shape
    up = np.pad(np.repeat(np.repeat(x, 2, axis=2), 2, axis=3), ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.broadcast_to(b, (n, w.shape[0], 2 * h, 2 * wd)).copy()
    gup = np.zeros_like(up)
    gw = np.zeros_like(w)
    for i in range(3):
        for j in range(3):
            window = up[:, :, i : i + 2 * h, j : j + 2 * wd]
            out += np.einsum("fc,ncyx->nfyx", w[:, :, i, j], window)
            gup[:, :, i : i + 2 * h, j : j + 2 * wd] += np.einsum("fc,nfyx->ncyx", w[:, :, i, j], g)
            gw[:, :, i, j] = np.einsum("nfyx,ncyx->fc", g, window)
    gx = gup[:, :, 1:-1, 1:-1].reshape(n, c, h, 2, wd, 2).sum(axis=(3, 5))
    return out, gx, gw


class TestResizeConv:
    """``_resize_conv`` is nearest 2x upsampling followed by a 3x3 conv."""

    @pytest.mark.parametrize("in_ch,out_ch,size", [
        (FEATURE_CHANNELS, 32, 8),  # decoder conv0, mask net dec1a at 32x32
        (32, 16, 16),  # decoder conv1, mask net dec0a at 32x32
        (64, 32, 2),  # mask net dec1a at 8x8
        (32, 16, 4),  # mask net dec0a at 8x8
    ])
    def test_matches_upsample_then_conv(self, in_ch, out_ch, size):
        rng = np.random.default_rng(size)
        x = rng.standard_normal((2, in_ch, size, size))
        w = rng.standard_normal((out_ch, in_ch, 3, 3))
        b = rng.standard_normal((out_ch, 1, 1))
        g = rng.standard_normal((2, out_ch, 2 * size, 2 * size))
        xv, wv = ad.variable(x), ad.variable(w)
        out = _resize_conv(xv, {"l.w": wv, "l.b": ad.as_tensor(b)}, "l")
        gx, gw = ad.backward(ad.sum(ad.mul(out, ad.as_tensor(g))), [xv, wv])
        for got, want in zip((out, gx, gw), _upsample_conv_reference(x, w, b, g)):
            assert got.shape == want.shape
            assert np.max(np.abs(got.data - want)) <= 1e-12 * np.max(np.abs(want))


class TestSkipConnections:
    def test_skips_change_the_output(self):
        unet = MaskNet.build(3, seed=21)
        x = _images(n=1)
        with_skips = unet(x).data
        # zero the weights that read the skip half of each concatenation
        unet.params["dec1b.w"].data[:, 32:] = 0.0
        unet.params["dec0b.w"].data[:, 16:] = 0.0
        assert np.any(unet(x).data != with_skips)


def _he_draws(seed, layers):
    """He-normal weights drawn in declared order from one seeded generator,
    each followed by its zero bias: the initialisation the networks promise."""
    rng = np.random.Generator(np.random.PCG64(seed))
    expected = []
    for key, shape in layers:
        fan_in = int(np.prod(shape[1:])) if len(shape) == 4 else shape[0]
        expected.append((f"{key}.w", rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)))
        out = shape[0] if len(shape) == 4 else shape[1]
        expected.append((f"{key}.b", np.zeros((out, 1, 1) if len(shape) == 4 else out)))
    return expected


def _conv_layer(key, out_ch, in_ch, k=3):
    return key, (out_ch, in_ch, k, k)


class TestInitializationIsPinned:
    """Every parameter equals an independent redraw bitwise, so a change in
    draw order, fan-in or layer order shows up here."""

    NETS = {
        "encoder": (101, [_conv_layer("conv0", 32, 3), _conv_layer("conv1", 64, 32)]),
        "decoder": (102, [_conv_layer("conv0", 32, 64), _conv_layer("conv1", 16, 32),
                          _conv_layer("conv_out", 3, 16)]),
        "interpolator": (103, [_conv_layer("conv0", 64, 64), _conv_layer("conv1", 64, 64)]),
        "critic": (104, [("fc0", (4096, 512)), ("fc1", (512, 256)), ("fc2", (256, 1))]),
        "unet": (105, [_conv_layer("enc0", 16, 3), _conv_layer("enc1", 32, 16),
                       _conv_layer("enc2", 64, 32), _conv_layer("dec1a", 32, 64),
                       _conv_layer("dec1b", 32, 64), _conv_layer("dec0a", 16, 32),
                       _conv_layer("dec0b", 16, 32), _conv_layer("out", 1, 16, 1)]),
    }

    @staticmethod
    def _assert_bitwise(params, expected):
        assert params.names() == [name for name, _ in expected]
        for name, want in expected:
            got = params[name].data
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("seed", [0, 17])
    def test_build_nets(self, seed):
        nets = build_nets(TrainConfig(), 3, seed)
        for name, (salt, layers) in self.NETS.items():
            self._assert_bitwise(getattr(nets, name).params,
                                 _he_draws(derive_seed(seed, salt), layers))

    @pytest.mark.parametrize("seed", [0, 17])
    def test_small_classifier(self, seed):
        clf = SmallClassifier.build(3, 32, 4, seed)
        layers = [_conv_layer("conv0", 16, 3), _conv_layer("conv1", 32, 16),
                  _conv_layer("conv2", 64, 32), ("head", (64 * 4 * 4, 4))]
        self._assert_bitwise(clf.params, _he_draws(seed, layers))
