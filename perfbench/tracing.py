"""Span tracing of shapegan's layers from outside the package.

Each traced function is replaced, for the duration of a traced phase, by a
wrapper under the name its caller looks up at call time: a module global
(``shapegan.trainer.critic_step``, ``shapegan.autodiff.conv.conv2d`` as the
conv VJPs see it) or a class attribute (``Encoder.__call__``). A span is
(name, start, end, parent); spans stay in memory and are written out once
at the end. Self time is a span's duration minus the time its child spans
cover. Nothing inside the package changes, so traced and untraced runs
compute bitwise the same results.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter


def _conv_flops(args, out) -> float:
    # output is (N, F, Ho, Wo), kernel is (F, C, kh, kw)
    return 2.0 * float(_prod(out.shape)) * _prod(args[1].shape[1:])


def _conv_transpose_flops(args, out) -> float:
    # v is (N, F, Hv, Wv), kernel is (F, C, kh, kw)
    return 2.0 * float(_prod(args[0].shape)) * _prod(args[1].shape[1:])


def _kernel_grad_flops(args, out) -> float:
    # cotangent is (N, F, Ho, Wo), the result is (F, C, kh, kw)
    return 2.0 * float(_prod(args[1].shape)) * _prod(out.shape[1:])


def _prod(shape) -> int:
    n = 1
    for d in shape:
        n *= int(d)
    return n


def _file_bytes(path) -> float:
    return float(os.path.getsize(path))


def _saved_bytes(args, out) -> float:
    return _file_bytes(out)


def _loaded_bytes(args, out) -> float:
    return _file_bytes(args[0])


def _report_pairs(args, out) -> float:
    return float(len(out.full) + len(out.ablation or []))


def tape_nodes(root) -> int:
    """Recorded tensors reachable from ``root`` through differentiable parents,
    i.e. the nodes a ``backward`` from ``root`` walks."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node.parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _backward_nodes(args, out) -> float:
    return float(tape_nodes(args[0]))


def traced_targets():
    """(owner, attribute, span name, work function) for every traced call site.

    A work function maps (args, result) to the amount of work the call did.
    """
    import shapegan.autodiff as ad
    import shapegan.autodiff.conv as conv
    import shapegan.autodiff.ops as ops
    import shapegan.checkpoint as checkpoint
    import shapegan.evaluation as evaluation
    import shapegan.networks as networks
    import shapegan.objectives as objectives
    import shapegan.synth as synth
    import shapegan.trainer as trainer

    targets = [
        (trainer, "run_training", "trainer.run_training", None),
        (trainer, "critic_step", "trainer.critic_step", None),
        (trainer, "reconstruction_step", "trainer.reconstruction_step", None),
        (trainer, "generator_step", "trainer.generator_step", None),
        (trainer, "unet_step", "trainer.unet_step", None),
        (trainer, "state_to_blob", "trainer.state_to_blob", None),
        (trainer, "blob_to_state", "trainer.blob_to_state", None),
        (trainer, "save_checkpoint", "checkpoint.save_checkpoint", _saved_bytes),
        (trainer, "load_checkpoint", "checkpoint.load_checkpoint", _loaded_bytes),
        (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint", _loaded_bytes),
        (trainer, "loss_shape", "objectives.loss_shape", None),
        (objectives, "gradient_penalty", "objectives.gradient_penalty", None),
        (networks.Encoder, "__call__", "networks.encoder", None),
        (networks.Decoder, "__call__", "networks.decoder", None),
        (networks.Interpolator, "__call__", "networks.interpolator", None),
        (networks.Critic, "__call__", "networks.critic", None),
        (networks.MaskNet, "__call__", "networks.unet", None),
        (evaluation, "train_quality_classifier", "evaluation.train_quality_classifier", None),
        (evaluation, "build_report", "evaluation.build_report", _report_pairs),
        (evaluation, "translate_batch", "evaluation.translate_batch", None),
        (evaluation, "predict_masks", "evaluation.predict_masks", None),
        (synth, "build_dataset", "synth.build_dataset", None),
        (synth, "load_dataset", "synth.load_dataset", None),
    ]
    for owner in (trainer, objectives, evaluation):
        targets.append((owner, "backward", "autodiff.backward", _backward_nodes))
    for owner in (trainer, evaluation):
        targets.append((owner, "adam_step", "autodiff.adam_step", None))
    # networks and the classifier call through the package namespace, the
    # VJPs through the defining modules' globals
    for owner in (ad, conv):
        targets.append((owner, "conv2d", "autodiff.conv2d", _conv_flops))
        targets.append(
            (owner, "conv_transpose2d", "autodiff.conv_transpose2d", _conv_transpose_flops)
        )
        targets.append(
            (owner, "conv_kernel_grad", "autodiff.conv_kernel_grad", _kernel_grad_flops)
        )
    for owner in (ad, ops):
        targets.append((owner, "matmul", "autodiff.matmul", None))
    return targets


class Tracer:
    """In-memory span recorder that patches the traced call sites on demand.

    Span ``i`` has a name, start and end times, the index of its parent span
    (-1 for none) and the amount of work its call did.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.work: list[float] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, work):
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer.work.append(0.0)
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.starts[idx] = t0
                tracer.ends[idx] = t1
            if work is not None:
                tracer.work[idx] = work(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, work in traced_targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, work))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self, within=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, and summed work.

        With ``within`` (a set of span names), only spans that run inside a
        span of one of those names count.
        """
        n = len(self.names)
        child = [0.0] * n
        inside = [False] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
                # a parent is always recorded before its children
                inside[i] = inside[p] or (within is not None and self.names[p] in within)
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0}
        )
        for i, name in enumerate(self.names):
            if within is not None and not inside[i]:
                continue
            dur = self.ends[i] - self.starts[i]
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child[i]
            rec["work"] += self.work[i]
        return out

    def write(self, path) -> None:
        spans = [
            [self.names[i], self.starts[i], self.ends[i], self.parents[i], self.work[i]]
            for i in range(len(self.names))
        ]
        with open(path, "w") as f:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "work"], "spans": spans}, f
            )
