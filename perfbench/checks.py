"""Correctness checks that rely on no stored copy of the program's output.

Every check returns a list of failure messages; an empty list passes. The
checks reimplement what they verify from the documented formats and
architecture (checkpoint layout, encoder/decoder forward, set-Dice, eval
pairing) instead of calling the code under test for the expected value.
"""

from __future__ import annotations

import csv
import io
import json
import struct
from pathlib import Path

import numpy as np

NET_NAMES = ("encoder", "decoder", "interpolator", "critic", "unet")
LEAK = 0.2
MASK_THRESHOLD = 0.5
# held-out accuracy floors of the report's domain classifier: 0.9 on two
# domains, where 40 of 40 seeds gave 1.0; on four domains the program's
# 400-step classifier gave 0.875 to 1.0 over 40 seeds, so there the floor
# is three times chance and only catches a classifier that did not learn
MIN_CLASSIFIER_ACCURACY = {2: 0.9, 4: 0.75}
DICE_TOLERANCE = 1e-12
LOSS_RTOL = 1e-9


# ---------------------------------------------------------------------------
# dataset

def check_dataset(images: np.ndarray, masks: np.ndarray, background) -> list[str]:
    """Masks are binary, and a pixel shows the background colour exactly when
    it lies outside its mask.

    Images are stored with 8 bits per channel, so the background is compared
    in its quantized form.
    """
    bg = (np.rint(np.asarray(background, dtype=np.float64) * 255.0) / 255.0)
    bg = bg.reshape(1, 3, 1, 1)
    fails = []
    if not np.all((masks == 0.0) | (masks == 1.0)):
        fails.append("dataset: a mask is not binary")
    is_bg = np.all(images == bg, axis=1, keepdims=True)
    outside = masks == 0.0
    bad_out = np.argwhere(outside & ~is_bg)
    if len(bad_out):
        fails.append(
            f"dataset: {len(bad_out)} pixels outside their mask differ from the"
            f" background, first at {tuple(int(v) for v in bad_out[0])}"
        )
    bad_in = np.argwhere(~outside & is_bg)
    if len(bad_in):
        fails.append(
            f"dataset: {len(bad_in)} pixels inside their mask show the background,"
            f" first at {tuple(int(v) for v in bad_in[0])}"
        )
    return fails


# ---------------------------------------------------------------------------
# checkpoint layout (see the format comment in shapegan/checkpoint.py)

def expected_tensor_shapes(state) -> dict[str, tuple[int, ...]]:
    """Names and shapes a checkpoint of ``state`` holds: parameters, Adam
    moments per parameter and one scalar Adam step per network."""
    shapes: dict[str, tuple[int, ...]] = {}
    sets = state.nets.param_sets()
    for net in NET_NAMES:
        for key, t in sets[net].items():
            shapes[f"{net}/{key}"] = tuple(t.data.shape)
    for net in NET_NAMES:
        for key, t in sets[net].items():
            shapes[f"adam/{net}/{key}.m"] = tuple(t.data.shape)
            shapes[f"adam/{net}/{key}.v"] = tuple(t.data.shape)
        shapes[f"adam/{net}/step"] = ()
    return shapes


def _tensor_record_bytes(name: str, shape: tuple[int, ...]) -> int:
    n = 1
    for d in shape:
        n *= d
    return 4 + len(name.encode("utf-8")) + 4 + 8 * len(shape) + 8 * n


def check_checkpoint_size(path, shapes: dict[str, tuple[int, ...]]) -> list[str]:
    """File size equals the size the format gives for these tensor shapes.

    The tensor section's size follows from the shapes alone; the config and
    RNG blocks that come after it are length-prefixed, and their prefixes are
    read at the offset the shapes predict.
    """
    buf = Path(path).read_bytes()
    fails = []
    head = 12
    if len(buf) < head or buf[:4] != b"SGCK":
        return [f"{path}: not a checkpoint"]
    count = struct.unpack_from("<I", buf, 8)[0]
    if count != len(shapes):
        fails.append(f"{path}: holds {count} tensors, expected {len(shapes)}")
    offset = head + sum(_tensor_record_bytes(n, s) for n, s in shapes.items())
    if offset + 4 > len(buf):
        return fails + [f"{path}: {len(buf)} bytes, shorter than its tensors"]
    cfg_len = struct.unpack_from("<I", buf, offset)[0]
    rng_at = offset + 4 + cfg_len
    if rng_at + 4 > len(buf):
        return fails + [f"{path}: config block runs past the end of the file"]
    rng_len = struct.unpack_from("<I", buf, rng_at)[0]
    expected = rng_at + 4 + rng_len
    if expected != len(buf):
        fails.append(f"{path}: {len(buf)} bytes, the format gives {expected}")
    return fails


def read_checkpoint(path) -> tuple[dict[str, np.ndarray], str, dict]:
    """Parse a checkpoint file into (tensors, config text, RNG state)."""
    buf = Path(path).read_bytes()
    pos = 12
    (count,) = struct.unpack_from("<I", buf, 8)
    tensors = {}
    for _ in range(count):
        (n,) = struct.unpack_from("<I", buf, pos)
        name = buf[pos + 4 : pos + 4 + n].decode("utf-8")
        pos += 4 + n
        (rank,) = struct.unpack_from("<I", buf, pos)
        dims = struct.unpack_from(f"<{rank}Q", buf, pos + 4)
        pos += 4 + 8 * rank
        size = int(np.prod(dims, dtype=np.int64))
        tensors[name] = np.frombuffer(buf, "<f8", size, pos).reshape(dims).copy()
        pos += 8 * size
    (n,) = struct.unpack_from("<I", buf, pos)
    config_text = buf[pos + 4 : pos + 4 + n].decode("utf-8")
    pos += 4 + n
    (n,) = struct.unpack_from("<I", buf, pos)
    rng_state = json.loads(buf[pos + 4 : pos + 4 + n].decode("utf-8"))
    return tensors, config_text, rng_state


def state_arrays(state) -> dict[str, np.ndarray]:
    """Every array a trainer state carries, keyed like checkpoint tensors."""
    arrays = {}
    sets = state.nets.param_sets()
    for net in NET_NAMES:
        for key, t in sets[net].items():
            arrays[f"{net}/{key}"] = t.data
        st = state.adam[net]
        for key in sets[net].names():
            arrays[f"adam/{net}/{key}.m"] = st.m[key]
            arrays[f"adam/{net}/{key}.v"] = st.v[key]
        arrays[f"adam/{net}/step"] = np.array(float(st.step))
    return arrays


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check_checkpoint_matches_state(path, state) -> list[str]:
    """Every tensor in the file equals the in-memory state bitwise, and the
    RNG block equals the generator's state."""
    tensors, _, rng_state = read_checkpoint(path)
    arrays = state_arrays(state)
    fails = []
    if set(tensors) != set(arrays):
        fails.append(f"{path}: tensor names differ from the trainer state")
    for name in sorted(set(tensors) & set(arrays)):
        if not _bitwise_equal(tensors[name], np.asarray(arrays[name], np.float64)):
            fails.append(f"{path}: tensor {name} differs from the trainer state")
    if json.dumps(rng_state, sort_keys=True) != json.dumps(
        state.rng.bit_generator.state, sort_keys=True, default=int
    ):
        fails.append(f"{path}: RNG state differs from the trainer's generator")
    return fails


# ---------------------------------------------------------------------------
# training results

def check_same_training(a, b, what: str, skip_rows: int = 0) -> list[str]:
    """``b`` reproduces ``a`` bitwise: the loss trace from iteration
    ``skip_rows + 1`` on, every parameter, every Adam moment and step counter,
    and the generator's state."""
    fails = []
    if list(b.trace_rows) != list(a.trace_rows[skip_rows:]):
        fails.append(f"{what}: loss trace differs")
    if b.state.iteration != a.state.iteration:
        fails.append(
            f"{what}: ended at iteration {b.state.iteration},"
            f" expected {a.state.iteration}"
        )
    arrays_a, arrays_b = state_arrays(a.state), state_arrays(b.state)
    for name in arrays_a:
        if name not in arrays_b or not _bitwise_equal(arrays_a[name], arrays_b[name]):
            fails.append(f"{what}: {name} differs")
    if a.state.rng.bit_generator.state != b.state.rng.bit_generator.state:
        fails.append(f"{what}: RNG state differs")
    return fails


# ---------------------------------------------------------------------------
# reference forward pass

def _conv(x, w, b, stride: int, pad: int) -> np.ndarray:
    """Cross-correlation accumulated tap by tap."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, f, ho, wo))
    for i in range(kh):
        for j in range(kw):
            window = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
            out += np.einsum("nchw,fc->nfhw", window, w[:, :, i, j])
    return out + b.reshape(1, f, 1, 1)


def _leaky(x):
    return np.where(x > 0.0, x, LEAK * x)


def _up2(x):
    return x.repeat(2, axis=2).repeat(2, axis=3)


def reference_reconstruction_mse(images: np.ndarray, params: dict) -> float:
    """Encoder then decoder as documented in shapegan/networks.py: two
    stride-2 3x3 convs with a LeakyReLU between; then upsample, conv,
    LeakyReLU, upsample, conv, LeakyReLU, conv, sigmoid."""
    p = params
    h = _leaky(_conv(images, p["encoder/conv0.w"], p["encoder/conv0.b"], 2, 1))
    feat = _conv(h, p["encoder/conv1.w"], p["encoder/conv1.b"], 2, 1)
    h = _leaky(_conv(_up2(feat), p["decoder/conv0.w"], p["decoder/conv0.b"], 1, 1))
    h = _leaky(_conv(_up2(h), p["decoder/conv1.w"], p["decoder/conv1.b"], 1, 1))
    z = _conv(h, p["decoder/conv_out.w"], p["decoder/conv_out.b"], 1, 1)
    decoded = 1.0 / (1.0 + np.exp(-z))
    return float(np.mean((images - decoded) ** 2))


def check_reconstruction(program_mse: float, images, params: dict) -> list[str]:
    ref = reference_reconstruction_mse(images, params)
    if not abs(program_mse - ref) <= LOSS_RTOL * abs(ref):
        return [
            f"reconstruction loss {program_mse!r} differs from the reference"
            f" forward pass {ref!r}"
        ]
    return []


# ---------------------------------------------------------------------------
# update scoping

def param_digest(nets, net: str) -> bytes:
    return b"".join(t.data.tobytes() for t in getattr(nets, net).params.tensors())


def check_scoping(step: str, before: dict, after: dict, declared) -> list[str]:
    """The step changed exactly its declared networks."""
    changed = {net for net in NET_NAMES if before[net] != after[net]}
    if changed != set(declared):
        return [
            f"{step} changed {sorted(changed)}, declared {sorted(declared)}"
        ]
    return []


# ---------------------------------------------------------------------------
# reports

def set_dice(pred: np.ndarray, ref: np.ndarray) -> float:
    """2|A.B| / (|A|+|B|) of two masks binarized at 0.5; two empty masks
    agree perfectly."""
    a = pred > MASK_THRESHOLD
    b = ref > MASK_THRESHOLD
    total = int(a.sum()) + int(b.sum())
    if total == 0:
        return 1.0
    return 2.0 * int(np.logical_and(a, b).sum()) / total


def eval_pairs(dataset, source: int, target: int):
    """Source eval images, their masks, and targets offset by one index so
    that no target shares its source's silhouette."""
    is_eval = np.array([s == "eval" for s in dataset.splits])
    src = np.flatnonzero(is_eval & (dataset.domains == source))
    tgt = np.flatnonzero(is_eval & (dataset.domains == target))
    tgt = np.concatenate([tgt[1:], tgt[:1]])
    return dataset.images[src], dataset.images[tgt], dataset.masks[src]


def parse_report(csv_text: str) -> dict:
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    return {(int(r["source"]), int(r["target"]), r["row"]): r for r in rows}


def check_report(
    csv_text: str,
    dataset,
    classifier,
    models: dict,
    translate_batch,
    predict_masks,
) -> list[str]:
    """Held-out accuracy, recomputed here, equal to the stated one and at
    least the floor for the number of domains, and every Dice the report
    states equal to set-Dice over the mask net's predictions.

    ``models`` maps the report's row labels ("translated full", optionally
    "translated no-shape") to the networks behind them; the first entry is
    the full model, which also scores untranslated images.
    """
    rows = parse_report(csv_text)
    domains = sorted(set(int(d) for d in dataset.domains))
    is_eval = np.array([s == "eval" for s in dataset.splits])
    eval_idx = np.flatnonzero(is_eval)
    labels = np.array([domains.index(int(d)) for d in dataset.domains[eval_idx]])
    accuracy = float(np.mean(classifier.predict(dataset.images[eval_idx]) == labels))
    full_nets = next(iter(models.values()))
    pred = predict_masks(full_nets, dataset.images[eval_idx])
    mask_quality = float(np.mean(
        [set_dice(pred[i], dataset.masks[k]) for i, k in enumerate(eval_idx)]
    ))

    fails = []
    floor = MIN_CLASSIFIER_ACCURACY[len(domains)]
    if accuracy < floor:
        fails.append(f"report: classifier held-out accuracy {accuracy} < {floor}")
    for s in domains:
        for t in domains:
            if s == t:
                continue
            real = rows.get((s, t, "real held-out"))
            if real is None:
                fails.append(f"report: no row for pair {s}->{t}")
                continue
            if float(real["rate_or_acc"]) != accuracy:
                fails.append(
                    f"report: accuracy {real['rate_or_acc']} for {s}->{t},"
                    f" recomputed {accuracy!r}"
                )
            if abs(float(real["dice_mean"]) - mask_quality) > DICE_TOLERANCE:
                fails.append(
                    f"report: mask quality {real['dice_mean']}, recomputed"
                    f" {mask_quality!r}"
                )
            src, tgt, gt = eval_pairs(dataset, s, t)
            for label, nets in models.items():
                masks = predict_masks(nets, translate_batch(nets, src, tgt, 1.0))
                dice = float(np.mean([set_dice(masks[i], gt[i]) for i in range(len(gt))]))
                row = rows.get((s, t, label))
                if row is None:
                    fails.append(f"report: no {label} row for pair {s}->{t}")
                    continue
                stated = float(row["dice_mean"])
                if abs(stated - dice) > DICE_TOLERANCE:
                    fails.append(
                        f"report: {label} {s}->{t} dice_mean {stated!r},"
                        f" recomputed {dice!r}"
                    )
    return fails
