"""The three benchmark workloads.

Each workload builds its inputs from the run's seed in ``setup``, then
repeats identical rounds through ``shapegan``'s public API. The training
workloads then score their final checkpoint in ``finish`` the way
``shapegan eval`` does; a ``report-4dom`` round is ``shapegan report``.
All calls go through module attributes (``trainer.run_training``, not a
name bound at import) so that a tracer installed later sees them.

Operations counted as attempted: outer training iterations, checkpoint
saves and loads, and scored report pairs (one per ordered domain pair and
model).
"""

from __future__ import annotations

import hashlib
import os
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import shapegan.checkpoint as checkpoint
import shapegan.evaluation as evaluation
import shapegan.objectives as objectives
import shapegan.synth as synth
import shapegan.trainer as trainer
from shapegan.autodiff import as_tensor, no_grad
from shapegan.config import TrainConfig


class IterationClock:
    """Observer for ``run_training`` that times outer iterations.

    An iteration runs from the previous ``iteration_end`` (or the last
    mask-net pretraining step) to its own ``iteration_end``. The first
    iteration of a resumed run has no such start and is not timed.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.iterations = 0
        self._last: float | None = None

    def __call__(self, kind: str, it: int) -> None:
        now = perf_counter()
        if kind == "iteration_end":
            self.iterations += 1
            if self._last is not None:
                self.samples.append(now - self._last)
        if kind in ("iteration_end", "unet_pretrain_step"):
            self._last = now


def training_signature(result) -> str:
    """Digest of a run's loss trace and its whole final state."""
    h = hashlib.sha256()
    h.update(repr(list(result.trace_rows)).encode())
    for name, arr in sorted(checks.state_arrays(result.state).items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr(result.state.rng.bit_generator.state).encode())
    return h.hexdigest()


def count_checkpoints(directory: Path) -> int:
    return len(list(directory.glob("*.sgck")))


class Workload:
    """Shared bookkeeping: operation counts and timing samples."""

    n_domains = 2

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.iter_s: list[float] = []
        self.train_s: list[float] = []
        self.report_s: list[float] = []
        self.checkpoint_bytes: int | None = None

    # -- helpers ---------------------------------------------------------

    def make_dataset(self, domains: int):
        root = self.work / "data"
        synth.build_dataset(root, domains=domains, n_per_domain=64, size=32,
                            seed=self.seed)
        self.dataset = synth.load_dataset(root)

    def train(self, config: TrainConfig, out: Path, resume=None):
        """One timed ``run_training`` call; returns (result, seconds)."""
        clock = IterationClock()
        t0 = perf_counter()
        result = trainer.run_training(
            self.dataset, config, out_dir=out, resume=resume, observer=clock
        )
        seconds = perf_counter() - t0
        self.iter_s += clock.samples
        self.attempted += clock.iterations + count_checkpoints(out)
        return result, seconds

    def score(self, models: dict) -> str:
        """Score ``models`` as the ``eval``/``report`` commands do and time
        it: classifier training, pair scoring and the written CSV. Returns
        the CSV text."""
        nets = list(models.values())
        t0 = perf_counter()
        self.classifier, accuracy = evaluation.train_quality_classifier(
            self.dataset, seed=self.seed
        )
        report = evaluation.build_report(
            nets[0], self.dataset, self.classifier, accuracy,
            nets[1] if len(nets) > 1 else None,
        )
        csv_path, _ = evaluation.write_report(report, self.work / "report.csv")
        self.report_s.append(perf_counter() - t0)
        self.attempted += len(report.full) + len(report.ablation or [])
        return csv_path.read_text()

    def check_report(self, csv_text: str, models: dict) -> None:
        self.failures += checks.check_report(
            csv_text, self.dataset, self.classifier, models,
            evaluation.translate_batch, evaluation.predict_masks,
        )

    def load_state(self, path: Path):
        self.attempted += 1
        return trainer.load_state(path)

    def fresh(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        return path

    # -- interface -------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> str:
        """Run one timed round; return a signature of its results."""
        raise NotImplementedError

    def finish(self) -> None:
        """Work after the last round."""

    def check(self) -> None:
        """Check the inputs and the last round's results; subclasses extend
        this."""
        self.failures += checks.check_dataset(
            self.dataset.images, self.dataset.masks, synth.BACKGROUND
        )


class TrainB16(Workload):
    """Default config (batch 16), short mask-net pretraining, three outer
    iterations; only the final checkpoint is written."""

    def setup(self):
        self.make_dataset(self.n_domains)
        self.config = TrainConfig(
            batch_size=16, unet_pretrain_iters=2, max_iterations=3, seed=self.seed
        )

    def round(self):
        out = self.fresh("run")
        self.result, seconds = self.train(self.config, out)
        self.train_s.append(seconds)
        self.final = out / "final.sgck"
        self.checkpoint_bytes = os.path.getsize(self.final)
        return training_signature(self.result)

    def finish(self):
        self.state, _ = self.load_state(self.final)
        self.models = {"translated full": self.state.nets}
        self.csv = self.score(self.models)

    def check(self):
        super().check()
        state = self.result.state
        self.failures += checks.check_checkpoint_size(
            self.final, checks.expected_tensor_shapes(state)
        )
        self.failures += checks.check_checkpoint_matches_state(self.final, state)
        images = self.dataset.images[self.dataset.train_indices()]
        with no_grad():
            x = as_tensor(images)
            mse = objectives.loss_reconstruction(
                x, state.nets.decoder(state.nets.encoder(x))
            ).item()
        params, _, _ = checks.read_checkpoint(self.final)
        self.failures += checks.check_reconstruction(mse, images, params)
        self.check_report(self.csv, self.models)
        self.failures += check_update_scoping(self.state, self.config, self.dataset)


def check_update_scoping(state, config, dataset) -> list[str]:
    """Run each step once on ``state`` and compare every network's
    parameters before and after."""
    nets, adam = state.nets, state.adam
    n = config.batch_size
    x_idx = dataset.train_indices(dataset.domain_ids[0])[:n]
    y_idx = dataset.train_indices(dataset.domain_ids[1])[:n]
    bx, by = dataset.images[x_idx], dataset.images[y_idx]
    rng = np.random.Generator(np.random.PCG64(config.seed))
    steps = [
        ("critic_step", {"critic"},
         lambda: trainer.critic_step(bx, by, nets, config, adam, rng)),
        ("reconstruction_step", {"encoder", "decoder"},
         lambda: trainer.reconstruction_step(bx, nets, config, adam)),
        ("generator_step", {"encoder", "interpolator", "decoder"},
         lambda: trainer.generator_step(bx, by, nets, config, adam, rng,
                                        masks_x=dataset.masks[x_idx])),
        ("unet_step", {"unet"},
         lambda: trainer.unet_step(bx, dataset.masks[x_idx], nets, config, adam)),
    ]
    fails = []
    for name, declared, run in steps:
        before = {net: checks.param_digest(nets, net) for net in checks.NET_NAMES}
        run()
        after = {net: checks.param_digest(nets, net) for net in checks.NET_NAMES}
        fails += checks.check_scoping(name, before, after, declared)
    return fails


class TrainCkpt(Workload):
    """Batch 4 with a checkpoint every iteration: four iterations without a
    break, then a resume from the checkpoint after iteration two to the same
    end."""

    resume_from = 2

    def setup(self):
        self.make_dataset(self.n_domains)
        self.config = TrainConfig(
            batch_size=4, unet_pretrain_iters=2, max_iterations=4,
            checkpoint_every=1, seed=self.seed,
        )

    def round(self):
        full_dir, resumed_dir = self.fresh("full"), self.fresh("resumed")
        self.full, s_full = self.train(self.config, full_dir)
        t0 = perf_counter()
        self.attempted += 1
        blob = checkpoint.load_checkpoint(full_dir / f"ckpt_{self.resume_from:06d}.sgck")
        s_load = perf_counter() - t0
        self.resumed, s_resumed = self.train(self.config, resumed_dir, resume=blob)
        self.train_s.append(s_full + s_load + s_resumed)
        self.final = resumed_dir / "final.sgck"
        self.checkpoint_bytes = os.path.getsize(self.final)
        self.checkpoint_files = sorted(full_dir.glob("*.sgck")) + sorted(
            resumed_dir.glob("*.sgck")
        )
        return training_signature(self.full) + training_signature(self.resumed)

    def finish(self):
        state, _ = self.load_state(self.final)
        self.models = {"translated full": state.nets}
        self.csv = self.score(self.models)

    def check(self):
        super().check()
        self.failures += checks.check_same_training(
            self.full, self.resumed, "resume", skip_rows=self.resume_from
        )
        shapes = checks.expected_tensor_shapes(self.full.state)
        for path in self.checkpoint_files:
            self.failures += checks.check_checkpoint_size(path, shapes)
        self.check_report(self.csv, self.models)


class Report4Dom(Workload):
    """``shapegan report`` on four domains: a full and a no-shape-loss
    checkpoint trained in set-up, 12 ordered pairs scored per model."""

    n_domains = 4

    def setup(self):
        self.trained = []
        self.make_dataset(self.n_domains)
        models = {}
        for label, lambda_shape, name in (
            ("translated full", 1.0, "full"),
            ("translated no-shape", 0.0, "ablation"),
        ):
            config = TrainConfig(
                batch_size=16, unet_pretrain_iters=4, max_iterations=2,
                lambda_shape=lambda_shape, seed=self.seed,
            )
            out = self.fresh(name)
            result, seconds = self.train(config, out)
            self.train_s.append(seconds)
            final = out / "final.sgck"
            self.checkpoint_bytes = os.path.getsize(final)
            state, _ = self.load_state(final)
            models[label] = state.nets
            self.trained.append((final, result.state))
        self.models = models
        # both setup trainings make up one train_s sample
        self.train_s = [sum(self.train_s)]

    def round(self):
        self.csv = self.score(self.models)
        return self.csv

    def check(self):
        super().check()
        for final, state in self.trained:
            self.failures += checks.check_checkpoint_size(
                final, checks.expected_tensor_shapes(state)
            )
            self.failures += checks.check_checkpoint_matches_state(final, state)
        self.check_report(self.csv, self.models)


WORKLOADS = {
    "train-b16": TrainB16,
    "train-ckpt": TrainCkpt,
    "report-4dom": Report4Dom,
}
