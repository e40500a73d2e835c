"""Finite-difference verification of gradients.

Every check compares an analytic gradient against central differences with
step 1e-5, reporting the elementwise relative error
``|a - n| / max(1, |n|)``. Primitive checks must pass at 1e-6, composite
loss checks at 1e-5, and the second-order check (gradient of a
gradient-norm penalty) at 1e-5. A check whose finite-difference gradients
are all exactly zero fails: it cannot tell a right backward rule from one
that returns zeros.

Every check is one ``check_scalar_function`` call. Both of its passes, the
analytic one and each finite-difference evaluation, run the check's function
on differentiable leaves, so a function may differentiate with respect to its
own inputs (the second-order checks do). A check over network parameters
builds the network over those leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward, variable
from .networks import Critic, MaskNet, _resize_conv
from .objectives import (
    dice_loss,
    gradient_penalty,
    loss_critic,
    loss_generator_adv,
    loss_reconstruction,
    loss_shape,
)

FD_STEP = 1e-5
TOL_PRIMITIVE = 1e-6
TOL_LOSS = 1e-5
TOL_SECOND_ORDER = 1e-5


@dataclass
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance

    def __str__(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return f"{status:4s} {self.name:40s} err={self.max_error:.3e} tol={self.tolerance:.0e}"


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1.0, np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def max_error(analytic: Sequence[np.ndarray], numeric: Sequence[np.ndarray]) -> float:
    """Largest relative error over a check's arrays; ``inf`` when every
    finite-difference gradient is exactly zero, since a zero gradient matches
    any backward rule that also returns zero and so tests nothing."""
    if not any(np.any(n) for n in numeric):
        return float("inf")
    return max(relative_error(a, n) for a, n in zip(analytic, numeric))


def check_scalar_function(
    name: str,
    build: Callable[[Sequence[Tensor]], Tensor],
    arrays: Sequence[np.ndarray],
    tolerance: float,
) -> CheckResult:
    """Compare backward() of ``build(leaves)`` against central differences,
    evaluating ``build`` on fresh ``variable`` leaves in both passes."""
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    leaves = [variable(a) for a in arrays]
    analytic = [g.data for g in backward(build(leaves), leaves)]

    def value() -> float:
        return build([variable(a) for a in arrays]).item()

    numeric = []
    for arr in arrays:
        flat = arr.reshape(-1)  # a view: perturbs ``arr`` in place
        g = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + FD_STEP
            fp = value()
            flat[i] = keep - FD_STEP
            fm = value()
            flat[i] = keep
            g[i] = (fp - fm) / (2.0 * FD_STEP)
        numeric.append(g.reshape(arr.shape))
    return CheckResult(name, max_error(analytic, numeric), tolerance)


def _checks(tolerance: float):
    """A result list and the ``run(name, build, arrays)`` that appends to it."""
    results: list[CheckResult] = []

    def run(name, build, arrays):
        results.append(check_scalar_function(name, build, arrays, tolerance))

    return results, run


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _safe(rng, shape, low=0.15, high=1.0) -> np.ndarray:
    """Values bounded away from zero so kinked ops stay differentiable."""
    mag = rng.uniform(low, high, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return mag * sign


def _weighted(out: Tensor, weights: np.ndarray) -> Tensor:
    return ad.sum(ad.mul(out, ad.as_tensor(weights)))


# ---------------------------------------------------------------------------
# primitive checks

def primitive_checks() -> list[CheckResult]:
    rng = _rng(20260819)
    results, run = _checks(TOL_PRIMITIVE)

    a = _safe(rng, (3, 4))
    b = _safe(rng, (3, 4))
    row = _safe(rng, (4,))
    w34 = rng.standard_normal((3, 4))

    run("add", lambda t: _weighted(ad.add(t[0], t[1]), w34), [a, b])
    run("add broadcast", lambda t: _weighted(ad.add(t[0], t[1]), w34), [a, row])
    run("sub", lambda t: _weighted(ad.sub(t[0], t[1]), w34), [a, b])
    run("mul", lambda t: _weighted(ad.mul(t[0], t[1]), w34), [a, b])
    run("mul broadcast", lambda t: _weighted(ad.mul(t[0], t[1]), w34), [a, row])
    run("div", lambda t: _weighted(ad.div(t[0], t[1]), w34), [a, b])
    run("scalar_mul", lambda t: _weighted(ad.scalar_mul(t[0], -1.7), w34), [a])
    run("neg", lambda t: _weighted(ad.neg(t[0]), w34), [a])
    run("square", lambda t: _weighted(ad.square(t[0]), w34), [a])
    run("sqrt", lambda t: _weighted(ad.sqrt(t[0]), w34), [np.abs(a) + 0.5])
    run("exp", lambda t: _weighted(ad.exp(t[0]), w34), [a])
    run("log", lambda t: _weighted(ad.log(t[0]), w34), [np.abs(a) + 0.5])
    run("leaky_relu", lambda t: _weighted(ad.leaky_relu(t[0]), w34), [a])
    run("sigmoid", lambda t: _weighted(ad.sigmoid(t[0]), w34), [a])

    m1 = _safe(rng, (3, 5))
    m2 = _safe(rng, (5, 2))
    w32 = rng.standard_normal((3, 2))
    run("matmul", lambda t: _weighted(ad.matmul(t[0], t[1]), w32), [m1, m2])
    m2t = _safe(rng, (2, 5))
    run(
        "matmul NT",
        lambda t: _weighted(ad.matmul(t[0], t[1], transpose_b=True), w32),
        [m1, m2t],
    )
    m1t = _safe(rng, (5, 3))
    run(
        "matmul TN",
        lambda t: _weighted(ad.matmul(t[0], t[1], transpose_a=True), w32),
        [m1t, m2],
    )
    w12 = rng.standard_normal((12,))
    run("reshape", lambda t: _weighted(ad.reshape(t[0], (12,)), w12), [a])
    w234 = rng.standard_normal((2, 3, 4))
    run(
        "broadcast_to",
        lambda t: _weighted(ad.broadcast_to(t[0], (2, 3, 4)), w234),
        [a],
    )
    w3 = rng.standard_normal((3,))
    run("sum axis", lambda t: _weighted(ad.sum(t[0], axis=1), w3), [a])
    run("sum all", lambda t: ad.sum(t[0]), [a])
    run("mean", lambda t: ad.mean(t[0]), [a])
    run("l2_norm_per_row", lambda t: _weighted(ad.l2_norm_per_row(t[0]), w3), [a])

    img = _safe(rng, (2, 3, 4, 4))
    k3 = _safe(rng, (2, 3, 3, 3))
    taps = rng.standard_normal((4, 3))
    w_taps = rng.standard_normal((3, 2, 4, 4))
    run("kernel_taps", lambda t: _weighted(ad.kernel_taps(t[0], taps), w_taps), [k3])
    imb = _safe(rng, (2, 2, 4, 4))
    w_cat = rng.standard_normal((2, 5, 4, 4))
    run(
        "concat_channels",
        lambda t: _weighted(ad.concat_channels(list(t)), w_cat),
        [img, imb],
    )
    w_sl = rng.standard_normal((2, 2, 4, 4))
    run(
        "channel_slice",
        lambda t: _weighted(ad.channel_slice(t[0], 1, 3), w_sl),
        [img],
    )
    return results


def conv_checks() -> list[CheckResult]:
    rng = _rng(7051)
    results, run = _checks(TOL_PRIMITIVE)

    cases = [
        ("conv2d k3 s1 p1", (2, 2, 5, 5), (3, 2, 3, 3), 1, 1),
        ("conv2d k3 s2 p1", (1, 2, 6, 6), (2, 2, 3, 3), 2, 1),
        ("conv2d k1 s1 p0", (2, 3, 4, 4), (2, 3, 1, 1), 1, 0),
    ]
    for name, xs, ks, stride, pad in cases:
        x = _safe(rng, xs)
        k = _safe(rng, ks)
        out_hw = ad.conv2d(ad.as_tensor(x), ad.as_tensor(k), stride, pad).shape
        w = rng.standard_normal(out_hw)
        run(
            name,
            lambda t, s=stride, p=pad, w=w: _weighted(ad.conv2d(t[0], t[1], s, p), w),
            [x, k],
        )

    v = _safe(rng, (1, 2, 3, 3))
    k = _safe(rng, (2, 2, 3, 3))
    wt = rng.standard_normal((1, 2, 6, 6))
    run(
        "conv_transpose2d k3 s2 p1 out6",
        lambda t: _weighted(ad.conv_transpose2d(t[0], t[1], 2, 1, out_hw=(6, 6)), wt),
        [v, k],
    )
    v = _safe(rng, (2, 3, 3, 4))
    k = _safe(rng, (3, 2, 4, 4))
    wt = rng.standard_normal((2, 2, 6, 8))
    run(
        "conv_transpose2d k4 s2 p1",
        lambda t: _weighted(ad.conv_transpose2d(t[0], t[1], 2, 1), wt),
        [v, k],
    )
    x = _safe(rng, (2, 2, 5, 5))
    cot = _safe(rng, (2, 3, 5, 5))
    wk = rng.standard_normal((3, 2, 3, 3))
    run(
        "conv_kernel_grad k3 s1 p1",
        lambda t: _weighted(ad.conv_kernel_grad(t[0], t[1], 3, 3, 1, 1), wk),
        [x, cot],
    )

    x = _safe(rng, (2, 3, 3, 4))
    k = _safe(rng, (2, 3, 3, 3))
    bias = rng.standard_normal((2, 1, 1))
    wr = rng.standard_normal((2, 2, 6, 8))
    run(
        "_resize_conv 3->2 at 3x4 (input, weight)",
        lambda t: _weighted(_resize_conv(t[0], {"r.w": t[1], "r.b": bias}, "r"), wr),
        [x, k],
    )

    # F < C at stride 1: each primitive builds its buffer over the F side
    x = _safe(rng, (2, 3, 5, 5))
    k = _safe(rng, (2, 3, 3, 3))
    wy = rng.standard_normal((2, 2, 5, 5))
    run(
        "conv2d k3 s1 p1 F<C",
        lambda t: _weighted(ad.conv2d(t[0], t[1], 1, 1), wy),
        [x, k],
    )
    v = _safe(rng, (2, 2, 5, 5))
    wx = rng.standard_normal((2, 3, 5, 5))
    run(
        "conv_transpose2d k3 s1 p1 F<C",
        lambda t: _weighted(ad.conv_transpose2d(t[0], t[1], 1, 1), wx),
        [v, k],
    )
    wk = rng.standard_normal((2, 3, 3, 3))
    run(
        "conv_kernel_grad k3 s1 p1 F<C",
        lambda t: _weighted(ad.conv_kernel_grad(t[0], t[1], 3, 3, 1, 1), wk),
        [x, v],
    )
    return results


# ---------------------------------------------------------------------------
# composite loss checks

def _params_of(net) -> list[np.ndarray]:
    return [p.data for p in net.params.tensors()]


def _critic_over(critic: Critic, leaves: Sequence[Tensor]) -> Critic:
    """``critic``'s architecture with ``leaves`` as its parameters."""
    return Critic(dict(zip(critic.params.names(), leaves)), critic.in_features,
                  critic.hidden)


def loss_checks() -> list[CheckResult]:
    rng = _rng(99173)
    results, run = _checks(TOL_LOSS)

    img = rng.uniform(0.1, 0.9, size=(2, 3, 4, 4))
    dec = rng.uniform(0.1, 0.9, size=(2, 3, 4, 4))
    run("loss_reconstruction", lambda t: loss_reconstruction(t[0], t[1]), [img, dec])

    pm = rng.uniform(0.05, 0.95, size=(3, 1, 4, 4))
    gm = (rng.random((3, 1, 4, 4)) > 0.5).astype(np.float64)
    run("dice_loss", lambda t: dice_loss(t[0], gm), [pm])

    critic = Critic.build(12, hidden=(8, 5), seed=31)
    fake = rng.standard_normal((3, 12)) * 0.5
    real = rng.standard_normal((3, 12)) * 0.5
    eps = rng.random(3)
    run("loss_generator_adv (features)", lambda t: loss_generator_adv(t[0], critic), [fake])
    run(
        "gradient_penalty (critic params)",
        lambda t: gradient_penalty(_critic_over(critic, t), real, fake, eps),
        _params_of(critic),
    )
    run(
        "loss_critic (critic params)",
        lambda t: loss_critic(real, fake, _critic_over(critic, t), eps, 10.0),
        _params_of(critic),
    )

    unet = MaskNet.build(3, seed=77)
    src = rng.uniform(0.1, 0.9, size=(1, 3, 8, 8))
    tr = rng.uniform(0.1, 0.9, size=(1, 3, 8, 8))
    run(
        "loss_shape (translated images)",
        lambda t: loss_shape(t[0], ad.as_tensor(src), unet),
        [tr],
    )
    return results


# ---------------------------------------------------------------------------
# second order

def second_order_checks() -> list[CheckResult]:
    """Verify gradients *of* a gradient-norm penalty (double backward)."""
    rng = _rng(55021)
    critic = Critic.build(8, hidden=(6,), seed=13)
    base = rng.standard_normal((3, 8)) * 0.7
    results, run = _checks(TOL_SECOND_ORDER)

    def penalty(net: Critic, point: Tensor, blend: Tensor) -> Tensor:
        """Penalty on the norm of ``net``'s gradient at ``blend``, taken
        wrt ``point``; ``blend`` is ``point`` or a function of it."""
        (g,) = backward(ad.sum(net(blend)), [point], higher_order=True)
        return ad.mean(ad.square(ad.sub(ad.l2_norm_per_row(g), 1.0)))

    def penalty_at_base(net: Critic) -> Tensor:
        blend = variable(base)
        return penalty(net, blend, blend)

    # d penalty / d blend point. The critic is piecewise linear, so its input
    # gradient is flat in the point; squashing the point through a sigmoid
    # first makes that gradient, and so the penalty, vary with it.
    run(
        "second_order wrt blend point",
        lambda t: penalty(critic, t[0], ad.sigmoid(t[0])),
        [base],
    )
    run(
        "second_order wrt critic params",
        lambda t: penalty_at_base(_critic_over(critic, t)),
        _params_of(critic),
    )
    return results


# ---------------------------------------------------------------------------
# entry point

def run() -> list[CheckResult]:
    """Run every gradient check."""
    return primitive_checks() + conv_checks() + loss_checks() + second_order_checks()
