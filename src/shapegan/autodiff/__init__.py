"""Reverse-mode autodiff engine: tensors, primitives, Adam.

The public surface is re-exported flat so callers can write
``from shapegan import autodiff as ad`` and use ``ad.conv2d`` etc.
"""

from .adam import AdamState, adam_step
from .conv import conv2d, conv_kernel_grad, conv_transpose2d
from .ops import (
    add,
    as_tensor,
    block_sum2x,
    broadcast_to,
    channel_slice,
    concat_channels,
    div,
    exp,
    l2_norm_per_row,
    leaky_relu,
    log,
    matmul,
    mean,
    mul,
    nearest_upsample2x,
    neg,
    reshape,
    scalar_mul,
    sigmoid,
    sqrt,
    square,
    sub,
    sum,
    transpose,
)
from .params import ParamSet
from .tensor import Tensor, backward, no_grad, variable

__all__ = [
    "AdamState",
    "ParamSet",
    "Tensor",
    "adam_step",
    "add",
    "as_tensor",
    "backward",
    "block_sum2x",
    "broadcast_to",
    "channel_slice",
    "concat_channels",
    "conv2d",
    "conv_kernel_grad",
    "conv_transpose2d",
    "div",
    "exp",
    "l2_norm_per_row",
    "leaky_relu",
    "log",
    "matmul",
    "mean",
    "mul",
    "nearest_upsample2x",
    "neg",
    "no_grad",
    "reshape",
    "scalar_mul",
    "sigmoid",
    "sqrt",
    "square",
    "sub",
    "sum",
    "transpose",
    "variable",
]
