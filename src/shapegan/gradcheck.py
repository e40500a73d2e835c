"""Finite-difference verification of gradients.

Every check compares an analytic gradient against central differences with
step 1e-5, reporting the elementwise relative error
``|a - n| / max(1, |n|)``. Primitive checks must pass at 1e-6, composite
loss checks at 1e-5, and the second-order check (gradient of a
gradient-norm penalty) at 1e-5. A check whose finite-difference gradients
are all exactly zero fails: it cannot tell a right backward rule from one
that returns zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward, no_grad, variable
from .errors import UsageError
from .networks import Critic, MaskNet
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


def fd_gradients(
    func: Callable[[Sequence[np.ndarray]], float],
    arrays: Sequence[np.ndarray],
) -> list[np.ndarray]:
    """Central-difference gradient of a scalar function of several arrays."""
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    grads = []
    for ai in range(len(arrays)):
        flat = arrays[ai].reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + FD_STEP
            fp = func(arrays)
            flat[i] = keep - FD_STEP
            fm = func(arrays)
            flat[i] = keep
            g[i] = (fp - fm) / (2.0 * FD_STEP)
        grads.append(g.reshape(arrays[ai].shape))
    return grads


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
    """Compare backward() of ``build(leaves)`` against finite differences."""
    leaves = [variable(np.array(a, dtype=np.float64)) for a in arrays]
    analytic = backward(build(leaves), leaves)

    def numeric_eval(arrs: Sequence[np.ndarray]) -> float:
        consts = [ad.as_tensor(np.array(a)) for a in arrs]
        return build(consts).item()

    numeric = fd_gradients(numeric_eval, arrays)
    return CheckResult(name, max_error([a.data for a in analytic], numeric), tolerance)


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
    results = []

    def run(name, build, arrays):
        results.append(check_scalar_function(name, build, arrays, TOL_PRIMITIVE))

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
    w43 = rng.standard_normal((4, 3))
    run("transpose", lambda t: _weighted(ad.transpose(t[0]), w43), [a])
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
    w_up = rng.standard_normal((2, 3, 8, 8))
    run(
        "nearest_upsample2x",
        lambda t: _weighted(ad.nearest_upsample2x(t[0]), w_up),
        [img],
    )
    w_dn = rng.standard_normal((2, 3, 2, 2))
    run("block_sum2x", lambda t: _weighted(ad.block_sum2x(t[0]), w_dn), [img])
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
    return list(_conv_results())


def _conv_results():
    """The conv checks, each computed when it is drawn."""
    rng = _rng(7051)
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
        yield check_scalar_function(
            name,
            lambda t, s=stride, p=pad, w=w: _weighted(ad.conv2d(t[0], t[1], s, p), w),
            [x, k],
            TOL_PRIMITIVE,
        )

    v = _safe(rng, (1, 2, 3, 3))
    k = _safe(rng, (2, 2, 3, 3))
    wt = rng.standard_normal((1, 2, 6, 6))
    yield check_scalar_function(
        "conv_transpose2d k3 s2 p1 out6",
        lambda t: _weighted(ad.conv_transpose2d(t[0], t[1], 2, 1, out_hw=(6, 6)), wt),
        [v, k],
        TOL_PRIMITIVE,
    )
    x = _safe(rng, (2, 2, 5, 5))
    cot = _safe(rng, (2, 3, 5, 5))
    wk = rng.standard_normal((3, 2, 3, 3))
    yield check_scalar_function(
        "conv_kernel_grad k3 s1 p1",
        lambda t: _weighted(ad.conv_kernel_grad(t[0], t[1], 3, 3, 1, 1), wk),
        [x, cot],
        TOL_PRIMITIVE,
    )


# ---------------------------------------------------------------------------
# composite loss checks

def loss_checks() -> list[CheckResult]:
    rng = _rng(99173)
    results = []

    img = rng.uniform(0.1, 0.9, size=(2, 3, 4, 4))
    dec = rng.uniform(0.1, 0.9, size=(2, 3, 4, 4))
    results.append(
        check_scalar_function(
            "loss_reconstruction",
            lambda t: loss_reconstruction(t[0], t[1]),
            [img, dec],
            TOL_LOSS,
        )
    )

    pm = rng.uniform(0.05, 0.95, size=(3, 1, 4, 4))
    gm = (rng.random((3, 1, 4, 4)) > 0.5).astype(np.float64)
    results.append(
        check_scalar_function(
            "dice_loss", lambda t: dice_loss(t[0], gm), [pm], TOL_LOSS
        )
    )

    critic = Critic.build(12, hidden=(8, 5), seed=31)
    fake = rng.standard_normal((3, 12)) * 0.5
    real = rng.standard_normal((3, 12)) * 0.5
    eps = rng.random(3)
    results.append(
        check_scalar_function(
            "loss_generator_adv (features)",
            lambda t: loss_generator_adv(t[0], critic),
            [fake],
            TOL_LOSS,
        )
    )
    results.append(
        check_scalar_function(
            "gradient_penalty (critic params)",
            lambda t: _with_params(
                critic, t, lambda: gradient_penalty(critic, real, fake, eps)
            ),
            [p.data for p in critic.params.tensors()],
            TOL_LOSS,
        )
    )
    results.append(
        check_scalar_function(
            "loss_critic (critic params)",
            lambda t: _with_params(
                critic, t, lambda: loss_critic(real, fake, critic, eps, 10.0)
            ),
            [p.data for p in critic.params.tensors()],
            TOL_LOSS,
        )
    )

    unet = MaskNet.build(3, seed=77)
    src = rng.uniform(0.1, 0.9, size=(1, 3, 8, 8))
    tr = rng.uniform(0.1, 0.9, size=(1, 3, 8, 8))
    results.append(
        check_scalar_function(
            "loss_shape (translated images)",
            lambda t: loss_shape(t[0], ad.as_tensor(src), unet),
            [tr],
            TOL_LOSS,
        )
    )
    return results


def _with_params(net, leaf_tensors: Sequence[Tensor], thunk: Callable[[], Tensor]):
    """Evaluate ``thunk`` with the net's parameters swapped for ``leaf_tensors``.

    Lets one scalar function be reused both for the analytic pass (leaves are
    differentiable variables) and for finite-difference evals (leaves are
    perturbed constants). Parameters are restored afterwards.
    """
    originals = list(net.params.items())
    try:
        for (name, _), leaf in zip(originals, leaf_tensors):
            swapped = leaf if isinstance(leaf, Tensor) else ad.as_tensor(leaf)
            net.params._tensors[name] = swapped
        return thunk()
    finally:
        for name, t in originals:
            net.params._tensors[name] = t


# ---------------------------------------------------------------------------
# second order

def second_order_checks() -> list[CheckResult]:
    """Verify gradients *of* a gradient-norm penalty (double backward)."""
    return list(_second_order_results())


def _second_order_results():
    """The second-order checks, each computed when it is drawn."""
    rng = _rng(55021)
    critic = Critic.build(8, hidden=(6,), seed=13)
    base = rng.standard_normal((3, 8)) * 0.7

    def penalty_at(point: Tensor, blend: Tensor) -> Tensor:
        """Penalty on the norm of the critic's gradient at ``blend``, taken
        wrt ``point``; ``blend`` is ``point`` or a function of it."""
        (g,) = backward(ad.sum(critic(blend)), [point], higher_order=True)
        return ad.mean(ad.square(ad.sub(ad.l2_norm_per_row(g), 1.0)))

    def penalty_from(blend_data: np.ndarray) -> Tensor:
        blend = variable(np.array(blend_data))
        return penalty_at(blend, blend)

    # d penalty / d blend point. The critic is piecewise linear, so its input
    # gradient is flat in the point; squashing the point through a sigmoid
    # first makes that gradient, and so the penalty, vary with it.
    def squashed_penalty(point: Tensor) -> Tensor:
        return penalty_at(point, ad.sigmoid(point))

    point = variable(base)
    (analytic,) = backward(squashed_penalty(point), [point])
    (numeric,) = fd_gradients(
        lambda arrs: squashed_penalty(variable(arrs[0])).item(), [base]
    )
    yield CheckResult(
        "second_order wrt blend point",
        max_error([analytic.data], [numeric]),
        TOL_SECOND_ORDER,
    )

    # d penalty / d critic parameters
    yield check_scalar_function(
        "second_order wrt critic params",
        lambda t: _with_params(critic, t, lambda: penalty_from(base)),
        [p.data for p in critic.params.tensors()],
        TOL_SECOND_ORDER,
    )


# ---------------------------------------------------------------------------
# entry point

def run(level: str = "full") -> list[CheckResult]:
    """Run the gradient checks; ``level`` is "quick" or "full"."""
    if level not in ("quick", "full"):
        raise UsageError(f"unknown grad-check level: {level!r}")
    if level == "full":
        return primitive_checks() + conv_checks() + loss_checks() + second_order_checks()
    # the first conv check and the first second-order check, computed alone
    return primitive_checks() + [next(_conv_results()), next(_second_order_results())]
