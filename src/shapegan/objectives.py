"""Training objectives: reconstruction, critic with gradient penalty,
adversarial generator term, soft Dice, and the shape-consistency loss.

Freezing conventions are structural: a loss never mutates anything, and the
caller decides which parameter sets receive updates. The helper losses here
only guarantee the documented *value* and gradient flow (e.g. the shape
reference mask is computed off-tape).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward, no_grad, variable
from .errors import ConfigurationError, UsageError


def loss_reconstruction(images: Tensor, decoded: Tensor) -> Tensor:
    """Mean squared error over every element."""
    images, decoded = ad.as_tensor(images), ad.as_tensor(decoded)
    if images.shape != decoded.shape:
        raise ConfigurationError(
            f"reconstruction shapes differ: {images.shape} vs {decoded.shape}"
        )
    return ad.mean(ad.square(ad.sub(images, decoded)))


def _feature_pair(real_features, fake_features) -> tuple[Tensor, Tensor]:
    real, fake = ad.as_tensor(real_features), ad.as_tensor(fake_features)
    if real.shape != fake.shape:
        raise ConfigurationError(
            f"real/fake feature shapes differ: {real.shape} vs {fake.shape}"
        )
    if real.size == 0:
        raise ConfigurationError("feature batches must be non-empty")
    return real, fake


def gradient_penalty(critic, real_features, fake_features, blend_eps) -> Tensor:
    """Two-sided unit-norm penalty at per-sample blends of real and fake.

    The blend point is a fresh differentiable leaf built from the raw buffers
    (real/fake act as constants here); the per-sample input gradient comes
    from a higher-order backward pass, so the returned scalar can itself be
    differentiated with respect to the critic parameters.
    """
    real, fake = _feature_pair(real_features, fake_features)
    n = real.shape[0]
    eps = np.asarray(blend_eps, dtype=np.float64).reshape(-1)
    if eps.size != n:
        raise UsageError(f"need one blend epsilon per sample: {eps.size} vs {n}")
    if np.any(eps < 0.0) or np.any(eps > 1.0):
        raise UsageError("blend epsilons must lie in [0, 1]")
    e = eps.reshape((n,) + (1,) * (real.ndim - 1))
    blend = variable(e * real.data + (1.0 - e) * fake.data)
    scores = critic(blend)
    (grad_in,) = backward(ad.sum(scores), [blend], higher_order=True)
    norms = ad.l2_norm_per_row(grad_in)
    return ad.mean(ad.square(ad.sub(norms, 1.0)))


def loss_critic(real_features, fake_features, critic, blend_eps, lambda_gp: float) -> Tensor:
    """Critic objective on equal-sized real/fake feature batches: score gap
    plus weighted gradient penalty.

    A zero penalty weight omits the term entirely; the penalty is singular
    where the critic's input gradient vanishes, so it must not sit on the
    tape when it cannot contribute.
    """
    real, fake = _feature_pair(real_features, fake_features)
    gap = ad.sub(ad.mean(critic(fake)), ad.mean(critic(real)))
    if lambda_gp == 0.0:
        return gap
    gp = gradient_penalty(critic, real, fake, blend_eps)
    return ad.add(gap, ad.scalar_mul(gp, lambda_gp))


def loss_generator_adv(fake_features: Tensor, critic) -> Tensor:
    """Adversarial term for the feature producers: drive critic scores up."""
    return ad.neg(ad.mean(critic(fake_features)))


def dice_loss(pred: Tensor, ref: Tensor, smooth: float = 1.0) -> Tensor:
    """Soft Dice loss, computed per sample and averaged over the batch.

    For binary masks with smoothing s this equals
    1 - (2|A.B| + s) / (|A| + |B| + s) exactly.
    """
    pred, ref = ad.as_tensor(pred), ad.as_tensor(ref)
    if pred.shape != ref.shape:
        raise ConfigurationError(
            f"dice operand shapes differ: {pred.shape} vs {ref.shape}"
        )
    if smooth <= 0.0:
        raise ConfigurationError("dice smoothing must be positive")
    axes = tuple(range(1, pred.ndim))
    inter = ad.sum(ad.mul(pred, ref), axis=axes)
    psum = ad.sum(pred, axis=axes)
    rsum = ad.sum(ref, axis=axes)
    num = ad.add(ad.scalar_mul(inter, 2.0), smooth)
    den = ad.add(ad.add(psum, rsum), smooth)
    return ad.mean(ad.sub(1.0, ad.div(num, den)))


def loss_shape(
    interp_images: Tensor,
    source_images: Tensor,
    mask_net,
    reference_mask=None,
) -> Tensor:
    """Dice loss between predicted masks of translated and source images.

    The reference side is always constant: either the mask net's prediction
    on the source batch evaluated off-tape, or a supplied ground-truth mask.
    Gradient therefore flows only through ``interp_images``. The mask net's
    own parameters must be excluded from the update by the caller.
    """
    pred = mask_net(interp_images)
    if reference_mask is None:
        with no_grad():
            ref = mask_net(source_images.detach())
    else:
        ref = ad.as_tensor(reference_mask).detach()
    return dice_loss(pred, ref)


def loss_unet_supervised(pred_masks: Tensor, gt_masks: Tensor) -> Tensor:
    """Supervised mask objective: Dice against ground truth."""
    return dice_loss(pred_masks, gt_masks)
