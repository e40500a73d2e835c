"""Adam with bias correction, keyed to a ParamSet."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from .params import ParamSet
from .tensor import Tensor


@dataclass
class AdamState:
    """First/second moment estimates plus the shared step counter."""

    lr: float
    beta1: float
    beta2: float
    epsilon: float
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(
        cls,
        params: ParamSet,
        lr: float,
        beta1: float = 0.0,
        beta2: float = 0.9,
        epsilon: float = 1e-8,
    ) -> "AdamState":
        state = cls(lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon)
        for key, t in params.items():
            state.m[key] = np.zeros_like(t.data)
            state.v[key] = np.zeros_like(t.data)
        return state


# Elements per block of the in-place update: the block of each operand and
# the two scratch buffers stay in cache through the whole update sequence.
BLOCK = 1 << 14


def adam_step(params: ParamSet, grads: Sequence, state: AdamState) -> None:
    """One in-place Adam update.

    ``grads`` aligns one-to-one with ``params`` in insertion order; entries
    may be tensors or raw arrays. Parameter buffers and moments are updated
    in place, in flat blocks of ``BLOCK`` elements; each block runs the
    whole-array update's ufuncs in its order, so the result is bitwise the
    same with one pass over memory instead of one per ufunc. This must run
    between tapes, never inside one.
    """
    names = params.names()
    if len(grads) != len(names):
        raise ConfigurationError(
            f"got {len(grads)} gradients for {len(names)} parameters of {params.name}"
        )
    state.step += 1
    t = state.step
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.epsilon
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    scratch = np.empty((2, BLOCK))
    for name, p, g in zip(names, params.tensors(), grads):
        garr = g.data if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64)
        if garr.shape != p.data.shape:
            raise ConfigurationError(
                f"gradient shape {garr.shape} does not match {params.name}/{name}"
                f" {p.data.shape}"
            )
        # flat views of the updated buffers; a copy would drop the update
        flat_p = p.data.reshape(-1, copy=False)
        flat_m = state.m[name].reshape(-1, copy=False)
        flat_v = state.v[name].reshape(-1, copy=False)
        flat_g = garr.reshape(-1)
        for lo in range(0, flat_p.size, BLOCK):
            blk = slice(lo, lo + BLOCK)
            m, v, gb = flat_m[blk], flat_v[blk], flat_g[blk]
            s1, s2 = scratch[:, : m.size]
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
            m *= b1
            m += np.multiply(1.0 - b1, gb, out=s1)
            v *= b2
            v += np.multiply(1.0 - b2, np.square(gb, out=s1), out=s1)
            # p -= lr (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(m, bc1, out=s1)
            np.multiply(lr, s1, out=s1)
            np.divide(v, bc2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += eps
            s1 /= s2
            flat_p[blk] -= s1
