"""Network construction, shapes, determinism, and interpolation identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapegan import autodiff as ad
from shapegan.errors import ConfigurationError, UsageError
from shapegan.networks import (
    FEATURE_CHANNELS,
    Critic,
    Decoder,
    Encoder,
    Interpolator,
    MaskNet,
    interpolate,
)


def _images(n=2, c=3, s=32, seed=0):
    return ad.as_tensor(np.random.default_rng(seed).random((n, c, s, s)))


class TestShapes:
    def test_encoder_output(self):
        enc = Encoder.build(3, 32, seed=1)
        assert enc.feature_shape == (FEATURE_CHANNELS, 8, 8)
        assert enc(_images()).shape == (2, FEATURE_CHANNELS, 8, 8)

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
        critic = Critic.for_feature_shape((64, 8, 8), seed=4)
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
        critic = Critic.for_feature_shape((64, 8, 8), seed=0)
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
        ups = _spy(monkeypatch, "nearest_upsample2x")
        squash = _spy(monkeypatch, "sigmoid")
        out = unet(_images(n=1))
        assert len(ups) == 2 and len(squash) == 1 and out is squash[0]

    def test_interpolator_structure(self, monkeypatch):
        net = Interpolator.build(seed=0)
        assert net.params.names() == ["conv0.w", "conv0.b", "conv1.w", "conv1.b"]
        acts = _spy(monkeypatch, "leaky_relu")
        out = net(ad.as_tensor(np.ones((1, FEATURE_CHANNELS, 8, 8))))
        assert len(acts) == 1 and out is not acts[-1]


class TestSkipConnections:
    def test_skips_change_the_output(self):
        unet = MaskNet.build(3, seed=21)
        x = _images(n=1)
        with_skips = unet(x).data
        # zero the weights that read the skip half of each concatenation
        unet.params["dec1b.w"].data[:, 32:] = 0.0
        unet.params["dec0b.w"].data[:, 16:] = 0.0
        assert np.any(unet(x).data != with_skips)
