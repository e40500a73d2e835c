"""Training loop: critic/reconstruction inner loop, generator and mask-net
steps, checkpointing, and the loss trace.

Update scoping is strict: every step computes one scalar loss and applies
Adam to exactly its declared parameter sets, leaving all other networks
bitwise untouched. One outer iteration runs ``n_critic`` (critic step then
reconstruction step) pairs, one generator step, one mask-net step. A
supervised mask-net pretraining phase precedes the adversarial loop.

Determinism: given a dataset and a config, every run consumes the single
seeded generator in the same order, so loss traces are bitwise reproducible
and a resumed run continues the interrupted one exactly.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, adam_step, backward, no_grad
from .checkpoint import CheckpointBlob, load_checkpoint, save_checkpoint
from .config import TrainConfig, parse_config_text
from .errors import ConfigurationError, DataError, NumericError, TrainingAborted
from .networks import (
    Critic,
    Decoder,
    Encoder,
    Interpolator,
    MaskNet,
    feature_width,
    interpolate,
)
from .objectives import (
    loss_critic,
    loss_generator_adv,
    loss_reconstruction,
    loss_shape,
    loss_unet_supervised,
)
from .seeds import derive_seed
from .synth import Dataset

NET_NAMES = ("encoder", "decoder", "interpolator", "critic", "unet")
_ITERATION_KEY = "iteration"
_RECON_WINDOW_KEY = "early_stop/recon"
_EARLY_STOP_WINDOW = 100
_EARLY_STOP_DELTA = 1e-4


def _keep_freed_buffers() -> None:
    """Make glibc keep freed buffers in the heap (a no-op elsewhere).

    Each step's tape is freed when the step returns. By default glibc hands
    those activations back to the OS and the next step faults every page in
    again, which doubles the page faults of training and slows its steps.
    Allocation does not change any computed value.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: the largest glibc accepts
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


_keep_freed_buffers()


@dataclass
class NetBundle:
    encoder: Encoder
    decoder: Decoder
    interpolator: Interpolator
    critic: Critic
    unet: MaskNet

    def param_sets(self) -> dict:
        return {name: getattr(self, name).params for name in NET_NAMES}


@dataclass
class TrainerState:
    nets: NetBundle
    adam: dict[str, AdamState]
    rng: np.random.Generator
    iteration: int = 0
    # the last 2 * _EARLY_STOP_WINDOW reconstruction errors the early stop
    # compares; checkpointed only when early_stop is on
    recon_history: list[float] = field(default_factory=list)


@dataclass
class TrainResult:
    state: TrainerState
    trace_rows: list[tuple]
    checkpoint_path: Path | None = None


def build_nets(config: TrainConfig, in_channels: int, seed: int) -> NetBundle:
    encoder = Encoder.build(in_channels, config.image_size, derive_seed(seed, 101))
    decoder = Decoder.build(in_channels, config.image_size, derive_seed(seed, 102))
    interp = Interpolator.build(seed=derive_seed(seed, 103))
    critic = Critic.build(feature_width(config.image_size), seed=derive_seed(seed, 104))
    unet = MaskNet.build(in_channels, seed=derive_seed(seed, 105))
    return NetBundle(encoder, decoder, interp, critic, unet)


def build_adam(config: TrainConfig, nets: NetBundle) -> dict[str, AdamState]:
    return {
        name: AdamState.for_params(
            ps,
            getattr(config, f"lr_{name}"),
            config.adam_beta1,
            config.adam_beta2,
            config.adam_epsilon,
        )
        for name, ps in nets.param_sets().items()
    }


# ---------------------------------------------------------------------------
# individual steps

def _update(
    loss: ad.Tensor,
    nets: NetBundle,
    adam: dict[str, AdamState],
    names: Sequence[str],
) -> None:
    """Backpropagate ``loss`` to the named networks and take one Adam step on
    each; every other network stays bitwise untouched."""
    param_sets = [getattr(nets, name).params for name in names]
    grads = backward(loss, [t for ps in param_sets for t in ps.tensors()])
    off = 0
    for name, ps in zip(names, param_sets):
        adam_step(ps, grads[off : off + len(ps)], adam[name])
        off += len(ps)


def critic_step(
    batch_x: np.ndarray,
    batch_y: np.ndarray,
    nets: NetBundle,
    config: TrainConfig,
    adam: dict[str, AdamState],
    rng: np.random.Generator,
) -> float:
    """One critic update on detached features; returns the loss value.

    Real samples are the target-domain features, fakes the learned
    interpolations toward them; both are constants here so only the critic
    receives gradient.
    """
    n = batch_x.shape[0]
    alphas = 1.0 - rng.random(n)
    with no_grad():
        fx = nets.encoder(ad.as_tensor(batch_x))
        fy = nets.encoder(ad.as_tensor(batch_y))
        fake = interpolate(fx, fy, alphas, "learned", nets.interpolator)
    eps = rng.random(n)
    loss = loss_critic(fy, fake, nets.critic, eps, config.lambda_gp)
    _update(loss, nets, adam, ("critic",))
    return loss.item()


def reconstruction_step(
    batch: np.ndarray,
    nets: NetBundle,
    config: TrainConfig,
    adam: dict[str, AdamState],
) -> float:
    """Autoencoding update for the decoder (and encoder unless disabled).

    Returns the unweighted mean squared error.
    """
    images = ad.as_tensor(batch)
    mse = loss_reconstruction(images, nets.decoder(nets.encoder(images)))
    total = ad.scalar_mul(mse, config.lambda_rec)
    names = ("decoder", "encoder") if config.recon_updates_encoder else ("decoder",)
    _update(total, nets, adam, names)
    return mse.item()


def generator_step(
    batch_x: np.ndarray,
    batch_y: np.ndarray,
    nets: NetBundle,
    config: TrainConfig,
    adam: dict[str, AdamState],
    rng: np.random.Generator,
    masks_x: np.ndarray | None = None,
) -> tuple[float, float]:
    """Adversarial + shape update for encoder, interpolator, and decoder.

    The critic and mask net participate in the loss but are excluded from the
    update. Returns (adversarial term, shape term); the shape term is 0.0
    when its weight is zero (the step is then purely adversarial).
    """
    n = batch_x.shape[0]
    alphas = 1.0 - rng.random(n)
    x = ad.as_tensor(batch_x)
    fx = nets.encoder(x)
    fy = nets.encoder(ad.as_tensor(batch_y))
    fake = interpolate(fx, fy, alphas, "learned", nets.interpolator)
    adv = loss_generator_adv(fake, nets.critic)
    total = ad.scalar_mul(adv, config.lambda_adv)
    shape_value = 0.0
    if config.lambda_shape > 0.0:
        translated = nets.decoder(fake)
        reference = None
        if config.shape_reference == "ground_truth":
            if masks_x is None:
                raise ConfigurationError(
                    "shape_reference=ground_truth needs source masks"
                )
            reference = masks_x
        shape = loss_shape(translated, x, nets.unet, reference)
        total = ad.add(total, ad.scalar_mul(shape, config.lambda_shape))
        shape_value = shape.item()
    _update(total, nets, adam, ("encoder", "interpolator", "decoder"))
    return adv.item(), shape_value


def unet_step(
    batch: np.ndarray,
    gt_masks: np.ndarray,
    nets: NetBundle,
    config: TrainConfig,
    adam: dict[str, AdamState],
) -> float:
    """Supervised Dice update for the mask net only."""
    pred = nets.unet(ad.as_tensor(batch))
    loss = loss_unet_supervised(pred, ad.as_tensor(gt_masks))
    _update(loss, nets, adam, ("unet",))
    return loss.item()


# ---------------------------------------------------------------------------
# state <-> checkpoint

def _state_arrays(nets: NetBundle, adam: dict[str, AdamState]) -> dict[str, np.ndarray]:
    """The checkpoint's tensors in file order: the live parameter buffers and
    Adam moments, and each network's Adam step counter as a fresh scalar."""
    arrays: dict[str, np.ndarray] = {}
    for name, ps in nets.param_sets().items():
        for key, t in ps.items():
            arrays[f"{name}/{key}"] = t.data
    for name, ps in nets.param_sets().items():
        st = adam[name]
        for key in ps.names():
            arrays[f"adam/{name}/{key}.m"] = st.m[key]
            arrays[f"adam/{name}/{key}.v"] = st.v[key]
        arrays[f"adam/{name}/step"] = np.array(float(st.step))
    return arrays


def state_to_blob(state: TrainerState, config: TrainConfig) -> CheckpointBlob:
    tensors = {k: a.copy() for k, a in _state_arrays(state.nets, state.adam).items()}
    if config.early_stop:
        tensors[_RECON_WINDOW_KEY] = np.array(state.recon_history, dtype=np.float64)
    config_text = config.to_text() + f"{_ITERATION_KEY} = {state.iteration}\n"
    return CheckpointBlob(tensors, config_text, state.rng.bit_generator.state)


def blob_to_state(blob: CheckpointBlob) -> tuple[TrainerState, TrainConfig]:
    """Rebuild the trainer state a checkpoint holds.

    Content that is not a valid state (a bad config or RNG block, a
    missing, misshapen or non-finite tensor) raises :class:`DataError`.
    """
    try:
        mapping = parse_config_text(blob.config_text)
        iteration = int(mapping.pop(_ITERATION_KEY, "0"))
        config = TrainConfig.from_mapping(mapping)
    except (ConfigurationError, ValueError) as exc:
        raise DataError(f"checkpoint config block: {exc}") from None
    if iteration < 0:
        raise DataError(f"checkpoint iteration {iteration} is negative")
    # the networks are built before their tensors are checked: first check
    # what sizes them, the input channels and the critic's input width
    conv0 = blob.tensors.get("encoder/conv0.w")
    if conv0 is None or conv0.ndim != 4 or conv0.shape[1] == 0:
        raise DataError("checkpoint lacks encoder parameters")
    fc0 = blob.tensors.get("critic/fc0.w")
    if fc0 is None or fc0.shape[:1] != (feature_width(config.image_size),):
        raise DataError(f"checkpoint critic does not fit image_size={config.image_size}")
    nets = build_nets(config, int(conv0.shape[1]), config.seed)
    adam = build_adam(config, nets)
    for key, live in _state_arrays(nets, adam).items():
        stored = blob.tensors.get(key)
        if stored is None or stored.shape != live.shape:
            raise DataError(f"checkpoint tensor {key!r} is missing or misshapen")
        if not np.all(np.isfinite(stored)):
            raise DataError(f"checkpoint tensor {key!r} holds non-finite values")
        if key.endswith((".v", "/step")) and np.any(stored < 0.0):
            raise DataError(f"checkpoint tensor {key!r} holds negative values")
        np.copyto(live, stored)
    for name, st in adam.items():
        step = float(blob.tensors[f"adam/{name}/step"])
        if not step.is_integer():
            raise DataError(f"checkpoint Adam step {step!r} of {name} is not a count")
        st.step = int(step)
    recon_history = []
    if config.early_stop:
        window = blob.tensors.get(_RECON_WINDOW_KEY)
        if window is None or window.ndim != 1 or not np.all(np.isfinite(window)):
            raise DataError(f"checkpoint tensor {_RECON_WINDOW_KEY!r} is missing,"
                            " misshapen or non-finite")
        recon_history = [float(v) for v in window]
    rng = np.random.Generator(np.random.PCG64(0))
    try:
        rng.bit_generator.state = blob.rng_state
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"checkpoint RNG state is malformed: {exc!r}") from None
    return TrainerState(nets, adam, rng, iteration, recon_history), config


def load_state(path) -> tuple[TrainerState, TrainConfig]:
    return blob_to_state(load_checkpoint(path))


# ---------------------------------------------------------------------------
# the loop

def format_trace_row(row: tuple) -> str:
    it, critic, recon, adv, shape, unet = row
    return f"{it},{critic!r},{recon!r},{adv!r},{shape!r},{unet!r}"


def trace_to_text(rows: Sequence[tuple]) -> str:
    return "\n".join(format_trace_row(r) for r in rows) + ("\n" if rows else "")


def _validate_dataset(dataset: Dataset, config: TrainConfig) -> list[int]:
    domains = dataset.domain_ids
    if len(domains) < 2:
        raise ConfigurationError("training needs at least two domains")
    for d in domains:
        if len(dataset.train_indices(d)) < config.batch_size:
            raise ConfigurationError(
                f"domain {d} has fewer training samples than batch_size"
                f"={config.batch_size}"
            )
    if dataset.size != config.image_size:
        raise ConfigurationError(
            f"dataset images are {dataset.size}x{dataset.size} but config expects"
            f" {config.image_size}"
        )
    return domains


def _draw(rng, indices: np.ndarray, n: int) -> np.ndarray:
    return rng.choice(indices, size=n, replace=False)


def run_training(
    dataset: Dataset,
    config: TrainConfig,
    out_dir=None,
    resume: CheckpointBlob | None = None,
    observer: Callable[[str, int], None] | None = None,
) -> TrainResult:
    """Run (or resume) a full training; returns final state and the trace.

    With ``out_dir`` set, writes the resolved config, periodic checkpoints,
    a final checkpoint and the loss trace. ``trace.csv`` grows by one row as
    each iteration ends, so a killed run keeps the rows it finished; a
    resumed run first keeps the rows of an existing trace up to the
    checkpoint's iteration. A numeric error aborts with
    :class:`TrainingAborted`; with ``out_dir`` set, it first writes the state
    of the last completed iteration to ``last_good.sgck``. An error during
    mask-net pretraining writes none: no work is complete, and the config
    alone rebuilds the initial state.
    """
    if resume is not None:
        # the checkpoint's own config governs the continued run
        state, config = blob_to_state(resume)
    config.validate()
    domains = _validate_dataset(dataset, config)
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "config_resolved.txt").write_text(config.to_text())
        kept = "" if resume is None else _trace_up_to(out / "trace.csv", state.iteration)
        (out / "trace.csv").write_text(kept)

    if resume is None:
        nets = build_nets(config, dataset.channels, config.seed)
        state = TrainerState(
            nets,
            build_adam(config, nets),
            np.random.Generator(np.random.PCG64(derive_seed(config.seed, 7))),
            iteration=0,
        )

    notify = observer if observer is not None else (lambda kind, it: None)
    train_all = dataset.train_indices()
    train_by_domain = {d: dataset.train_indices(d) for d in domains}
    n = len(domains)
    rng = state.rng
    nets = state.nets
    adam = state.adam
    recon_history = state.recon_history
    trace_rows: list[tuple] = []
    # the state to write if a step fails: taken only where it can be written
    last_good = None
    it = 0
    try:
        if resume is None:
            for _ in range(config.unet_pretrain_iters):
                sel = _draw(rng, train_all, config.batch_size)
                unet_step(dataset.images[sel], dataset.masks[sel], nets, config, adam)
                notify("unet_pretrain_step", 0)
        if out is not None:
            last_good = state_to_blob(state, config)

        for it in range(state.iteration + 1, config.max_iterations + 1):
            i = int(rng.integers(n))
            dx = domains[i]
            dy = domains[(i + 1 + int(rng.integers(n - 1))) % n]
            critic_losses = []
            recon_losses = []
            for _ in range(config.n_critic):
                bx = _draw(rng, train_by_domain[dx], config.batch_size)
                by = _draw(rng, train_by_domain[dy], config.batch_size)
                critic_losses.append(
                    critic_step(
                        dataset.images[bx], dataset.images[by], nets, config, adam, rng
                    )
                )
                notify("critic_step", it)
                br = _draw(rng, train_all, config.batch_size)
                recon_losses.append(
                    reconstruction_step(dataset.images[br], nets, config, adam)
                )
                notify("reconstruction_step", it)
            gx = _draw(rng, train_by_domain[dx], config.batch_size)
            gy = _draw(rng, train_by_domain[dy], config.batch_size)
            adv_value, shape_value = generator_step(
                dataset.images[gx],
                dataset.images[gy],
                nets,
                config,
                adam,
                rng,
                masks_x=dataset.masks[gx],
            )
            notify("generator_step", it)
            bu = _draw(rng, train_all, config.batch_size)
            unet_value = unet_step(
                dataset.images[bu], dataset.masks[bu], nets, config, adam
            )
            notify("unet_step", it)

            state.iteration = it
            row = (
                it,
                float(np.mean(critic_losses)),
                float(np.mean(recon_losses)),
                adv_value,
                shape_value,
                unet_value,
            )
            trace_rows.append(row)
            recon_history.append(row[2])
            del recon_history[: -2 * _EARLY_STOP_WINDOW]
            notify("iteration_end", it)
            if out is not None:
                with open(out / "trace.csv", "a") as f:
                    f.write(format_trace_row(row) + "\n")
                last_good = state_to_blob(state, config)
                if it % config.checkpoint_every == 0:
                    save_checkpoint(out / f"ckpt_{it:06d}.sgck", last_good)
            if config.early_stop and len(recon_history) == 2 * _EARLY_STOP_WINDOW:
                prev = float(np.mean(recon_history[:_EARLY_STOP_WINDOW]))
                now = float(np.mean(recon_history[_EARLY_STOP_WINDOW:]))
                if abs(now - prev) < _EARLY_STOP_DELTA:
                    break
    except NumericError as exc:
        path = None
        if last_good is not None:
            path = save_checkpoint(out / "last_good.sgck", last_good)
        raise TrainingAborted(f"numeric error at iteration {it}: {exc}", it, path) from exc

    final_path = None
    if out is not None:
        # no update ran since last_good was taken: it is the final state
        final_path = save_checkpoint(out / "final.sgck", last_good)
    return TrainResult(state, trace_rows, final_path)


def _trace_up_to(path: Path, iteration: int) -> str:
    """The lines of an existing trace whose iteration is at most ``iteration``."""
    if not path.is_file():
        return ""
    kept = []
    for line in path.read_text().splitlines(keepends=True):
        it = line.partition(",")[0]
        if it.isdigit() and int(it) <= iteration:
            kept.append(line)
    return "".join(kept)
