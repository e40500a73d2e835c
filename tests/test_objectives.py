"""Loss functions: exhaustive Dice oracle, closed-form critic cases, and
finite-difference checks on miniatures."""

import itertools

import numpy as np
import pytest

from shapegan import autodiff as ad
from shapegan.autodiff import backward, variable
from shapegan.errors import ConfigurationError, UsageError
from shapegan.gradcheck import loss_checks
from shapegan.networks import Critic, MaskNet
from shapegan.objectives import (
    dice_loss,
    gradient_penalty,
    loss_critic,
    loss_generator_adv,
    loss_reconstruction,
    loss_shape,
    loss_unet_supervised,
)

CHECKERBOARD = np.indices((3, 3)).sum(axis=0) % 2  # fixed reference mask


def test_soft_dice_equals_set_formula_on_all_512_masks():
    """Exhaustive: every binary 3x3 mask against the checkerboard."""
    ref = CHECKERBOARD.astype(np.float64)
    for bits in itertools.product((0.0, 1.0), repeat=9):
        mask = np.array(bits).reshape(3, 3)
        inter = np.sum(mask * ref)
        sizes = mask.sum() + ref.sum()
        expected = 1.0 - (2.0 * inter + 1.0) / (sizes + 1.0)
        got = dice_loss(
            ad.as_tensor(mask[None, None]), ad.as_tensor(ref[None, None]), smooth=1.0
        ).item()
        assert abs(got - expected) <= 1e-12, f"mask {bits}"


def test_dice_is_symmetric():
    rng = np.random.default_rng(5)
    a = ad.as_tensor(rng.random((2, 1, 4, 4)))
    b = ad.as_tensor(rng.random((2, 1, 4, 4)))
    assert dice_loss(a, b).item() == pytest.approx(dice_loss(b, a).item(), abs=1e-15)


def test_dice_range_and_self_similarity():
    rng = np.random.default_rng(6)
    a = rng.random((3, 1, 8, 8))
    loss = dice_loss(ad.as_tensor(a), ad.as_tensor(a)).item()
    assert 0.0 <= loss < 1.0
    # saturated mask against itself is near zero
    sat = (a > 0.5).astype(np.float64)
    assert dice_loss(ad.as_tensor(sat), ad.as_tensor(sat)).item() < 0.02


def test_dice_batch_is_mean_of_per_sample():
    rng = np.random.default_rng(7)
    p = rng.random((4, 1, 5, 5))
    r = rng.random((4, 1, 5, 5))
    whole = dice_loss(ad.as_tensor(p), ad.as_tensor(r)).item()
    singles = [
        dice_loss(ad.as_tensor(p[i : i + 1]), ad.as_tensor(r[i : i + 1])).item()
        for i in range(4)
    ]
    assert whole == pytest.approx(np.mean(singles), abs=1e-14)


def test_dice_rejects_bad_smoothing_and_shapes():
    a = ad.as_tensor(np.ones((1, 1, 2, 2)))
    with pytest.raises(ConfigurationError):
        dice_loss(a, a, smooth=0.0)
    with pytest.raises(ConfigurationError):
        dice_loss(a, ad.as_tensor(np.ones((1, 1, 3, 3))))


def test_reconstruction_zero_on_identical_inputs():
    x = np.random.default_rng(1).random((2, 3, 4, 4))
    assert loss_reconstruction(ad.as_tensor(x), ad.as_tensor(x)).item() == 0.0


def test_reconstruction_is_mse():
    x = np.zeros((1, 1, 2, 2))
    y = np.full((1, 1, 2, 2), 0.5)
    assert loss_reconstruction(
        ad.as_tensor(x), ad.as_tensor(y)
    ).item() == pytest.approx(0.25)


class TestCriticLoss:
    def test_linear_critic_closed_form(self):
        # unit-norm linear critic: GP vanishes, loss is the plain score gap
        critic = Critic.build(2, hidden=(), seed=0)
        w = np.array([[0.6], [0.8]])
        critic.params["fc0.w"].data[...] = w
        real = np.array([[1.0, 2.0], [3.0, -1.0]])
        fake = np.array([[0.0, 1.0], [2.0, 2.0]])
        loss = loss_critic(real, fake, critic, np.array([0.3, 0.7]), lambda_gp=10.0)
        expected = np.mean(fake @ w) - np.mean(real @ w)
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_constant_critic_loss_is_lambda_gp(self):
        # zero critic: gap 0, input gradient 0, GP = (0-1)^2 = 1
        critic = Critic.build(3, hidden=(), seed=0)
        critic.params["fc0.w"].data[...] = np.zeros((3, 1))
        rng = np.random.default_rng(2)
        real, fake = rng.random((4, 3)), rng.random((4, 3))
        loss = loss_critic(real, fake, critic, rng.random(4), lambda_gp=10.0)
        assert loss.item() == pytest.approx(10.0, abs=1e-12)

    def test_penalty_is_nonnegative(self):
        critic = Critic.build(6, hidden=(8,), seed=3)
        rng = np.random.default_rng(4)
        gp = gradient_penalty(
            critic, rng.standard_normal((5, 6)), rng.standard_normal((5, 6)),
            rng.random(5)
        )
        assert gp.item() >= 0.0

    def test_blend_eps_validation(self):
        critic = Critic.build(2, hidden=(), seed=0)
        rng = np.random.default_rng(5)
        real, fake = rng.random((3, 2)), rng.random((3, 2))
        with pytest.raises(UsageError):
            gradient_penalty(critic, real, fake, np.array([0.5, 0.5]))  # wrong count
        with pytest.raises(UsageError):
            gradient_penalty(critic, real, fake, np.array([0.5, 1.5, 0.2]))

    def test_pair_shape_validation(self):
        # rejected even when the penalty, which checks shapes too, is off
        critic = Critic.build(3, hidden=(), seed=0)
        with pytest.raises(ConfigurationError):
            loss_critic(np.ones((2, 3)), np.ones((2, 4)), critic,
                        np.array([0.5, 0.5]), lambda_gp=0.0)

    def test_generator_term_is_negated_mean_score(self):
        critic = Critic.build(2, hidden=(), seed=0)
        w = np.array([[1.0], [-1.0]])
        critic.params["fc0.w"].data[...] = w
        fake = np.array([[2.0, 1.0], [0.0, 3.0]])
        loss = loss_generator_adv(ad.as_tensor(fake), critic)
        assert loss.item() == pytest.approx(-np.mean(fake @ w), abs=1e-14)

    def test_critic_step_gradient_direction(self):
        # gradient of the gap w.r.t. w pushes real scores above fake scores
        critic = Critic.build(2, hidden=(), seed=0)
        critic.params["fc0.w"].data[...] = np.zeros((2, 1))
        real = np.array([[1.0, 0.0]])
        fake = np.array([[-1.0, 0.0]])
        loss = loss_critic(real, fake, critic, np.array([0.5]), lambda_gp=0.0)
        (gw, _) = backward(loss, critic.params.tensors())
        # d loss / d w = mean(fake) - mean(real) = [-2, 0]
        np.testing.assert_allclose(gw.data, np.array([[-2.0], [0.0]]), atol=1e-12)


class TestShapeLoss:
    def test_gradient_reaches_interp_images_only(self):
        unet = MaskNet.build(3, seed=8)
        rng = np.random.default_rng(9)
        interp = variable(rng.random((1, 3, 8, 8)))
        source = ad.as_tensor(rng.random((1, 3, 8, 8)))
        loss = loss_shape(interp, source, unet)
        (gi,) = backward(loss, [interp])
        assert np.any(gi.data != 0.0)
        # the reference side is off-tape: mask-net parameters stay unreached
        grads = backward(loss, unet.params.tensors())
        # gradient DOES flow through the prediction side into U's params;
        # what must be unreachable is the path through the reference mask.
        # Freezing U is the trainer's job, so just confirm finiteness here.
        assert all(np.all(np.isfinite(g.data)) for g in grads)

    def test_identical_images_give_small_loss(self):
        unet = MaskNet.build(3, seed=10)
        x = np.random.default_rng(11).random((1, 3, 8, 8))
        loss = loss_shape(ad.as_tensor(x), ad.as_tensor(x), unet)
        # prediction equals reference, so only smoothing keeps it above zero
        ref = unet(ad.as_tensor(x)).data
        expected = dice_loss(ad.as_tensor(ref), ad.as_tensor(ref)).item()
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_ground_truth_reference(self):
        unet = MaskNet.build(3, seed=12)
        rng = np.random.default_rng(13)
        interp = rng.random((1, 3, 8, 8))
        gt = (rng.random((1, 1, 8, 8)) > 0.5).astype(np.float64)
        loss = loss_shape(
            ad.as_tensor(interp), ad.as_tensor(interp), unet, reference_mask=gt
        )
        pred = unet(ad.as_tensor(interp))
        assert loss.item() == pytest.approx(
            dice_loss(pred, ad.as_tensor(gt)).item(), abs=1e-14
        )

    def test_unet_supervised_is_plain_dice(self):
        rng = np.random.default_rng(14)
        pred = ad.as_tensor(rng.random((2, 1, 4, 4)))
        gt = ad.as_tensor((rng.random((2, 1, 4, 4)) > 0.5).astype(np.float64))
        assert loss_unet_supervised(pred, gt).item() == pytest.approx(
            dice_loss(pred, gt).item(), abs=1e-15
        )


def test_composite_losses_match_finite_differences():
    failed = [r for r in loss_checks() if not r.passed]
    assert not failed, "\n".join(str(r) for r in failed)
