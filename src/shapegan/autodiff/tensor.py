"""Tensors and the reverse-mode differentiation tape.

Values are 64-bit numpy buffers. A recorded tensor keeps references to its
inputs (``parents``) plus a vector-Jacobian product ``vjp(g, out)``, which
``backward`` calls with the node itself as ``out``. A vjp never holds its own
output, so no tape node references itself and a tape is freed by reference
counting as soon as its last tensor goes. The vjps are written in terms of
recorded operations themselves, so a gradient produced by
``backward(..., higher_order=True)`` is again differentiable. That
re-entrancy is what makes double backward (the gradient penalty) work
without any special casing.

``backward`` computes gradients only along paths that end in a ``wrt``
tensor: a vjp asks ``_needs(x)`` before it builds the gradient of input
``x``, and nodes from which no ``wrt`` tensor is reachable are skipped. What
a higher-order pass records is unchanged, so its gradients stay
differentiable in every tensor they depend on, asked for or not.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable

import numpy as np

from ..errors import NumericError, UsageError

# Recording mode stack; the top entry is the active mode.
_GRAD_MODE: list[bool] = [True]
# Per running backward pass, the ids of the tensors from which one of its
# wrt tensors is reachable.
_NEEDED: list[set[int]] = []


@contextmanager
def _grad_mode(enabled: bool):
    _GRAD_MODE.append(enabled)
    try:
        yield
    finally:
        _GRAD_MODE.pop()


@contextmanager
def _needing(ids: set[int]):
    _NEEDED.append(ids)
    try:
        yield
    finally:
        _NEEDED.pop()


def no_grad():
    """Disable tape recording inside the block (forward-only evaluation)."""
    return _grad_mode(False)


class Tensor:
    """A 64-bit array value, optionally recorded on the tape.

    Leaves come in two kinds: constants (``requires_grad=False``) and
    differentiable leaves such as parameters. Operation outputs carry
    ``parents`` and ``vjp(g, out)`` only while recording is enabled and at
    least one input is differentiable. ``data`` buffers are treated as
    immutable by every operation; the optimizer updates leaf buffers in place,
    block by block, strictly between tapes.
    """

    __slots__ = ("data", "parents", "vjp", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor initialized with non-finite values")
        self.data = arr
        self.parents: tuple[Tensor, ...] = ()
        self.vjp = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Constant view of this value, cut off from the tape."""
        return _fresh(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def _fresh(arr: np.ndarray, parents: tuple[Tensor, ...] = (), vjp=None) -> Tensor:
    # Construct without re-running the constructor's finite check; a tensor
    # with a vjp is a recorded node.
    t = object.__new__(Tensor)
    t.data = arr
    t.parents = parents
    t.vjp = vjp
    t.requires_grad = vjp is not None
    return t


def variable(data) -> Tensor:
    """A differentiable leaf holding a copy of ``data``."""
    arr = np.array(data, dtype=np.float64)
    return Tensor(arr, requires_grad=True)


def _needs(x: Tensor) -> bool:
    """Whether the running backward pass wants the gradient of ``x``."""
    return id(x) in _NEEDED[-1]


def _toposort(root: Tensor) -> list[Tensor]:
    """Post-order over the recorded ancestors of ``root`` (parents first)."""
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            topo.append(node)
            continue
        nid = id(node)
        if nid in seen:
            continue
        seen.add(nid)
        stack.append((node, True))
        for parent in node.parents:
            if parent.requires_grad:
                stack.append((parent, False))
    return topo


def backward(
    scalar_output: Tensor,
    wrt: Iterable[Tensor],
    higher_order: bool = False,
) -> list[Tensor]:
    """Gradients of a scalar with respect to each tensor in ``wrt``.

    With ``higher_order=True`` the returned gradients are recorded tensors
    and can be differentiated again. Tensors in ``wrt`` that the output does
    not reach get zero gradients; a ``wrt`` entry that is not differentiable
    at all is a usage error. Only the tensors from which a ``wrt`` tensor is
    reachable get a gradient, so no work goes to parameters not asked for.
    """
    if scalar_output.data.size != 1:
        raise UsageError(
            f"backward needs a scalar output, got shape {scalar_output.shape}"
        )
    wrt_list = list(wrt)
    for w in wrt_list:
        if not isinstance(w, Tensor) or not w.requires_grad:
            raise UsageError("wrt tensor is detached from the tape")

    wrt_ids = {id(w) for w in wrt_list}
    results: dict[int, Tensor] = {}

    if scalar_output.requires_grad:
        from . import ops  # deferred: ops imports this module

        topo = _toposort(scalar_output)
        # a node runs its vjp when one of its parents needs a gradient
        expand: set[int] = set()
        needed = set(wrt_ids)
        for node in topo:  # parents come first
            if any(id(p) in needed for p in node.parents):
                expand.add(id(node))
                needed.add(id(node))
        grads: dict[int, Tensor] = {
            id(scalar_output): Tensor(np.ones_like(scalar_output.data))
        }
        with _needing(needed), _grad_mode(higher_order):
            for node in reversed(topo):
                g = grads.pop(id(node), None)
                if g is None:
                    continue
                if id(node) in wrt_ids:
                    results[id(node)] = g
                if id(node) not in expand:
                    continue
                parent_grads = node.vjp(g, node)
                for parent, pg in zip(node.parents, parent_grads):
                    if pg is None or id(parent) not in needed:
                        continue
                    have = grads.get(id(parent))
                    grads[id(parent)] = pg if have is None else ops.add(have, pg)

    out: list[Tensor] = []
    for w in wrt_list:
        got = results.get(id(w))
        out.append(got if got is not None else Tensor(np.zeros_like(w.data)))
    return out
