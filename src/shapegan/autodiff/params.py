"""Named parameter collections for one network."""

from __future__ import annotations

import numpy as np

from ..errors import UsageError
from .tensor import Tensor


class ParamSet:
    """Ordered mapping of parameter names to differentiable leaf tensors.

    Order is insertion order and is part of the contract: gradients and
    optimizer state align with it, and checkpoints serialize it.
    """

    def __init__(self, name: str):
        self.name = name
        self._tensors: dict[str, Tensor] = {}

    def add(self, key: str, array) -> Tensor:
        if key in self._tensors:
            raise UsageError(f"duplicate parameter {key!r} in {self.name}")
        t = Tensor(np.array(array, dtype=np.float64), requires_grad=True)
        self._tensors[key] = t
        return t

    def __getitem__(self, key: str) -> Tensor:
        return self._tensors[key]

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        return list(self._tensors)

    def tensors(self) -> list[Tensor]:
        return list(self._tensors.values())

    def items(self):
        return self._tensors.items()

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of all parameter buffers."""
        return {k: t.data.copy() for k, t in self._tensors.items()}
