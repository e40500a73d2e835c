"""Differentiating through gradients: the machinery behind the penalty term."""

import gc

import numpy as np
import pytest

from shapegan import autodiff as ad
from shapegan.autodiff import Tensor, backward, variable
from shapegan.config import TrainConfig
from shapegan.gradcheck import second_order_checks
from shapegan.networks import Critic, MaskNet
from shapegan.objectives import dice_loss, gradient_penalty, loss_critic
from shapegan.trainer import build_adam, build_nets, generator_step


def test_gradient_of_gradient_of_cube():
    # y = x^3: dy/dx = 3x^2, d(sum(dy/dx))/dx = 6x
    x = variable(np.array([1.0, -2.0, 0.5]))
    y = ad.sum(ad.mul(ad.mul(x, x), x))
    (g,) = backward(y, [x], higher_order=True)
    assert g.requires_grad
    (gg,) = backward(ad.sum(g), [x])
    np.testing.assert_allclose(gg.data, 6.0 * x.data, atol=1e-12)


def test_first_order_result_is_constant_by_default():
    x = variable(np.array([2.0]))
    (g,) = backward(ad.sum(ad.square(x)), [x])
    assert not g.requires_grad


def test_penalty_gradient_linear_critic_closed_form():
    # 𝔇(f) = <w, f> + b: input gradient is w for every sample, so
    # GP = (||w|| - 1)^2 and d GP / d w = 2 (||w|| - 1) w / ||w||.
    critic = Critic.build(3, hidden=(), seed=0)
    w0 = np.array([[2.0], [1.0], [-2.0]])  # ||w|| = 3
    critic.params["fc0.w"].data[...] = w0
    real = np.random.default_rng(0).standard_normal((4, 3))
    fake = np.random.default_rng(1).standard_normal((4, 3))
    eps = np.random.default_rng(2).random(4)

    gp = gradient_penalty(critic, real, fake, eps)
    assert gp.item() == pytest.approx((3.0 - 1.0) ** 2, abs=1e-12)

    (gw,) = backward(gp, [critic.params["fc0.w"]])
    expected = 2.0 * (3.0 - 1.0) * w0 / 3.0
    np.testing.assert_allclose(gw.data, expected, atol=1e-10)


def test_penalty_weight_gradient_is_row_major():
    # the weight gradient along the penalty's second-order path is a TN
    # product, never a transposed view of an NN product
    critic = Critic.build(6, hidden=(5,), seed=0)
    rng = np.random.default_rng(8)
    gp = gradient_penalty(critic, rng.random((3, 6)), rng.random((3, 6)), rng.random(3))
    grads = backward(gp, critic.params.tensors())
    assert all(g.data.flags.c_contiguous for g in grads)


def _critic_loss():
    critic = Critic.build(12, hidden=(8, 5), seed=3)
    rng = np.random.default_rng(6)
    real, fake = rng.standard_normal((4, 12)), rng.standard_normal((4, 12))
    return list(critic.params.items()), loss_critic(real, fake, critic, rng.random(4), 10.0)


def _mask_loss():
    unet = MaskNet.build(3, seed=1)
    rng = np.random.default_rng(7)
    x = variable(rng.random((2, 3, 8, 8)))
    loss = dice_loss(unet(x), ad.as_tensor(rng.random((2, 1, 8, 8))))
    return [("input", x), *unet.params.items()], loss


@pytest.mark.parametrize("build,keys", [
    (_critic_loss, ["fc0.w"]),
    (_critic_loss, ["fc2.b", "fc0.b"]),
    (_critic_loss, ["fc1.w", "fc2.w"]),
    (_mask_loss, ["input"]),
    (_mask_loss, ["dec0a.w", "input", "enc0.b"]),
])
def test_gradients_toward_a_subset_equal_those_toward_all(build, keys):
    named, loss = build()
    full = dict(zip([k for k, _ in named], backward(loss, [t for _, t in named])))
    lookup = dict(named)
    part = backward(loss, [lookup[k] for k in keys])
    for key, g in zip(keys, part):
        assert np.array_equal(g.data, full[key].data), key


def test_unit_norm_linear_critic_has_zero_penalty():
    critic = Critic.build(2, hidden=(), seed=0)
    critic.params["fc0.w"].data[...] = np.array([[0.6], [0.8]])
    rng = np.random.default_rng(3)
    gp = gradient_penalty(critic, rng.random((5, 2)), rng.random((5, 2)), rng.random(5))
    assert gp.item() == pytest.approx(0.0, abs=1e-12)


def test_second_order_matches_finite_differences():
    failed = [r for r in second_order_checks() if not r.passed]
    assert not failed, "\n".join(str(r) for r in failed)


def test_higher_order_flag_keeps_graph_through_nonlinearity():
    critic = Critic.build(4, hidden=(6,), seed=9)
    f = variable(np.random.default_rng(4).standard_normal((3, 4)))
    (g,) = backward(ad.sum(critic(f)), [f], higher_order=True)
    assert g.requires_grad
    # and the second backward reaches the critic's parameters
    norm_pen = ad.mean(ad.square(ad.sub(ad.l2_norm_per_row(g), 1.0)))
    grads = backward(norm_pen, critic.params.tensors())
    assert any(np.any(gr.data != 0.0) for gr in grads)


def _higher_order_through_self_referencing_ops():
    x = variable(np.array([0.3, -0.7, 1.2]))
    y = ad.div(ad.log(ad.sqrt(ad.exp(ad.sigmoid(x)))), ad.add(ad.square(x), 2.0))
    (g,) = backward(ad.sum(y), [x], higher_order=True)
    (gg,) = backward(ad.sum(ad.square(g)), [x])
    assert np.all(gg.data != 0.0)


def _one_generator_step():
    config = TrainConfig(batch_size=2)
    nets = build_nets(config, 3, 4)
    rng = np.random.default_rng(5)
    images = rng.random((4, 3, 32, 32))
    generator_step(images[:2], images[2:], nets, config, build_adam(config, nets), rng)


def test_tape_is_freed_without_the_cycle_collector():
    # the sigmoid, exp, sqrt and div backward rules use their own output; a
    # rule that closed over it would tie every such node into a cycle that
    # only the cycle collector frees
    gc.collect()
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        _higher_order_through_self_referencing_ops()
        _one_generator_step()
        gc.collect()
        leaked = sum(isinstance(o, Tensor) for o in gc.garbage)
        assert leaked == 0, f"{leaked} tensors were freed only by the cycle collector"
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()
