"""Evaluation: interpolation grids, shape-preservation scoring, and a small
domain classifier for measuring attribute-transfer quality.

All passes here are read-only over a trained state: they run under no_grad
(classifier training excepted) and are deterministic functions of
(checkpoint, dataset, seed), so reports are bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, ParamSet, Tensor, adam_step, backward, no_grad
from .errors import ConfigurationError, UsageError
from .networks import LEAK, interpolate
from .seeds import derive_seed
from .synth import Dataset
from .trainer import NetBundle

EVAL_ALPHAS = (0.25, 0.5, 0.75, 1.0)
GRID_ALPHAS = (0.0,) + EVAL_ALPHAS
MASK_THRESHOLD = 0.5


def set_dice(a: np.ndarray, b: np.ndarray) -> float:
    """Set-formula Dice 2|A.B| / (|A|+|B|) of two binary masks.

    Two empty masks agree perfectly, so that edge case scores 1.
    """
    a = np.asarray(a) > MASK_THRESHOLD
    b = np.asarray(b) > MASK_THRESHOLD
    if a.shape != b.shape:
        raise UsageError(f"mask shapes differ: {a.shape} vs {b.shape}")
    total = int(a.sum()) + int(b.sum())
    if total == 0:
        return 1.0
    return 2.0 * int(np.logical_and(a, b).sum()) / total


def translate_batch(
    nets: NetBundle, source: np.ndarray, target: np.ndarray, alpha
) -> np.ndarray:
    """Decode the learned interpolation from source toward target features."""
    with no_grad():
        fx = nets.encoder(ad.as_tensor(source))
        fy = nets.encoder(ad.as_tensor(target))
        mixed = interpolate(fx, fy, alpha, "learned", nets.interpolator)
        return nets.decoder(mixed).data


def predict_masks(nets: NetBundle, images: np.ndarray) -> np.ndarray:
    """Binary masks from the mask net at the 0.5 threshold."""
    with no_grad():
        soft = nets.unet(ad.as_tensor(images)).data
    return (soft > MASK_THRESHOLD).astype(np.float64)


# ---------------------------------------------------------------------------
# interpolation grid

def render_grid(
    nets: NetBundle,
    source: np.ndarray,
    target: np.ndarray,
    alphas=GRID_ALPHAS,
) -> np.ndarray:
    """Composite (C, N*S, (len(alphas)+2)*S) image: source | panels | target.

    The first panel at alpha=0 is exactly the reconstruction of the source.
    """
    source = np.asarray(source, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if source.shape != target.shape or source.ndim != 4:
        raise UsageError(
            f"source/target must be equal (N,C,S,S) batches:"
            f" {source.shape} vs {target.shape}"
        )
    panels = [source]
    for alpha in alphas:
        panels.append(np.clip(translate_batch(nets, source, target, float(alpha)), 0.0, 1.0))
    panels.append(target)
    n, c, s, _ = source.shape
    grid = np.zeros((c, n * s, len(panels) * s))
    for col, block in enumerate(panels):
        for row in range(n):
            grid[:, row * s : (row + 1) * s, col * s : (col + 1) * s] = block[row]
    return grid


# ---------------------------------------------------------------------------
# shape preservation

def _paired_eval_batches(
    dataset: Dataset, source_domain: int, target_domain: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source eval images with offset-paired target images and source masks.

    Target index i+1 (mod n) deliberately has a different shape than source
    index i: translating onto a same-shape target would let a model that
    copies the target's outline score perfectly, hiding exactly the failure
    the metric exists to catch.
    """
    src_idx = dataset.eval_indices(source_domain)
    tgt_idx = dataset.eval_indices(target_domain)
    if len(src_idx) == 0 or len(tgt_idx) == 0:
        raise UsageError("dataset has no paired eval split")
    if len(src_idx) != len(tgt_idx):
        raise UsageError(
            f"eval split sizes differ across domains:"
            f" {len(src_idx)} vs {len(tgt_idx)}"
        )
    rolled = np.roll(tgt_idx, -1)
    return dataset.images[src_idx], dataset.images[rolled], dataset.masks[src_idx]


def mask_quality_score(nets: NetBundle, dataset: Dataset) -> float:
    """Mean set-Dice of the mask net on untranslated eval images.

    The upper-bound calibration for shape scores: how well the mask net does
    when nothing has been translated at all.
    """
    idx = dataset.eval_indices()
    if len(idx) == 0:
        raise UsageError("dataset has no eval split")
    pred = predict_masks(nets, dataset.images[idx])
    gt = dataset.masks[idx]
    return float(np.mean([set_dice(pred[i], gt[i]) for i in range(len(idx))]))


# ---------------------------------------------------------------------------
# quality classifier

class SmallClassifier:
    """Three stride-2 conv stages and a linear head over the flattened map."""

    def __init__(self, params: ParamSet, in_channels: int, image_size: int,
                 n_classes: int, widths: tuple[int, int, int]):
        self.params = params
        self.in_channels = in_channels
        self.image_size = image_size
        self.n_classes = n_classes
        self.widths = widths

    @classmethod
    def build(cls, in_channels: int, image_size: int, n_classes: int,
              seed: int = 0, widths: tuple[int, int, int] = (16, 32, 64)
              ) -> "SmallClassifier":
        if image_size % 8 or n_classes < 2:
            raise ConfigurationError(
                "classifier needs image_size divisible by 8 and >= 2 classes"
            )
        rng = np.random.Generator(np.random.PCG64(seed))
        ps = ParamSet("classifier")
        chain = (in_channels,) + widths
        for i in range(3):
            std = np.sqrt(2.0 / (chain[i] * 9))
            ps.add(f"conv{i}.w", rng.normal(0.0, std, size=(chain[i + 1], chain[i], 3, 3)))
            ps.add(f"conv{i}.b", np.zeros((chain[i + 1], 1, 1)))
        flat = widths[-1] * (image_size // 8) ** 2
        ps.add("head.w", rng.normal(0.0, np.sqrt(2.0 / flat), size=(flat, n_classes)))
        ps.add("head.b", np.zeros(n_classes))
        return cls(ps, in_channels, image_size, n_classes, widths)

    def __call__(self, images: Tensor) -> Tensor:
        h = ad.as_tensor(images)
        if h.ndim != 4 or h.shape[1] != self.in_channels:
            raise ConfigurationError(
                f"classifier expects (N, {self.in_channels}, S, S), got {h.shape}"
            )
        for i in range(3):
            h = ad.add(ad.conv2d(h, self.params[f"conv{i}.w"], 2, 1),
                       self.params[f"conv{i}.b"])
            h = ad.leaky_relu(h, LEAK)
        n = h.shape[0]
        flat = ad.reshape(h, (n, h.size // n))
        return ad.add(ad.matmul(flat, self.params["head.w"]), self.params["head.b"])

    def probabilities(self, images: np.ndarray) -> np.ndarray:
        with no_grad():
            logits = self(ad.as_tensor(images)).data
        z = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def predict(self, images: np.ndarray) -> np.ndarray:
        return np.argmax(self.probabilities(images), axis=1)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy from raw logits; max-shifted for stability."""
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    if labels.shape != (n,):
        raise UsageError(f"need {n} labels, got shape {labels.shape}")
    shift = ad.as_tensor(logits.data.max(axis=1, keepdims=True))
    z = ad.sub(logits, shift)
    log_norm = ad.log(ad.sum(ad.exp(z), axis=1))
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    picked = ad.sum(ad.mul(z, ad.as_tensor(onehot)), axis=1)
    return ad.mean(ad.sub(log_norm, picked))


def train_quality_classifier(
    dataset: Dataset,
    seed: int = 0,
    steps: int = 400,
    batch_size: int = 32,
    lr: float = 1e-3,
) -> tuple[SmallClassifier, float]:
    """Train the domain classifier on the train split; returns it together
    with its held-out accuracy on the eval split."""
    domains = dataset.domain_ids
    labels_all = np.array([domains.index(int(d)) for d in dataset.domains])
    clf = SmallClassifier.build(
        dataset.channels, dataset.size, len(domains), seed=derive_seed(seed, 21)
    )
    adam = AdamState.for_params(clf.params, lr, beta1=0.9, beta2=0.999)
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 22)))
    train_idx = dataset.train_indices()
    take = min(batch_size, len(train_idx))
    for _ in range(steps):
        sel = rng.choice(train_idx, size=take, replace=False)
        loss = cross_entropy(clf(ad.as_tensor(dataset.images[sel])), labels_all[sel])
        grads = backward(loss, clf.params.tensors())
        adam_step(clf.params, grads, adam)
    eval_idx = dataset.eval_indices()
    if len(eval_idx) == 0:
        raise UsageError("dataset has no eval split to score the classifier on")
    acc = float(
        np.mean(clf.predict(dataset.images[eval_idx]) == labels_all[eval_idx])
    )
    return clf, acc


# ---------------------------------------------------------------------------
# report

@dataclass
class PairScores:
    source_domain: int
    target_domain: int
    translated_rate: float
    mean_target_prob: float
    dice_mean: float
    dice_std: float


def score_pair(
    nets: NetBundle,
    classifier: SmallClassifier,
    dataset: Dataset,
    source_domain: int,
    target_domain: int,
    alpha: float = 1.0,
) -> PairScores:
    """Transfer and shape scores of one ordered domain pair.

    The paired eval split is translated once at ``alpha``. The classifier
    scores the translation clipped to [0, 1] (fraction classified as the
    target domain, mean target-class probability); the mask net segments
    the unclipped translation, and its masks are compared with the sources'
    ground truth by set-Dice (mean and std).
    """
    src, tgt, gt = _paired_eval_batches(dataset, source_domain, target_domain)
    translated = translate_batch(nets, src, tgt, alpha)
    probs = classifier.probabilities(np.clip(translated, 0.0, 1.0))
    target_class = dataset.domain_ids.index(target_domain)
    pred = predict_masks(nets, translated)
    dice = [set_dice(pred[i], gt[i]) for i in range(pred.shape[0])]
    return PairScores(
        source_domain,
        target_domain,
        translated_rate=float(np.mean(np.argmax(probs, axis=1) == target_class)),
        mean_target_prob=float(np.mean(probs[:, target_class])),
        dice_mean=float(np.mean(dice)),
        dice_std=float(np.std(dice)),
    )


@dataclass
class EvalReport:
    classifier_accuracy: float
    mask_quality: float
    full: list[PairScores]
    ablation: list[PairScores] | None = None

    def __post_init__(self):
        values = [self.classifier_accuracy, self.mask_quality]
        for rows in (self.full, self.ablation or []):
            for r in rows:
                values += [r.translated_rate, r.mean_target_prob, r.dice_mean]
        for v in values:
            if not (0.0 <= v <= 1.0):
                raise UsageError(f"report value {v!r} outside [0, 1]")

    def _rows(self):
        """Three rows per ordered domain pair: real, ablation, full."""
        ab = {
            (r.source_domain, r.target_domain): r for r in (self.ablation or [])
        }
        for r in self.full:
            key = (r.source_domain, r.target_domain)
            yield key, "real held-out", self.classifier_accuracy, "-", self.mask_quality, "-", "-"
            a = ab.get(key)
            if a is None:
                yield key, "translated no-shape", "-", "-", "-", "-", "-"
                delta = "-"
            else:
                yield (key, "translated no-shape", a.translated_rate,
                       a.mean_target_prob, a.dice_mean, a.dice_std, "-")
                delta = r.dice_mean - a.dice_mean
            yield (key, "translated full", r.translated_rate,
                   r.mean_target_prob, r.dice_mean, r.dice_std, delta)

    def to_csv(self) -> str:
        def fmt(v):
            return v if isinstance(v, str) else repr(float(v))

        lines = ["source,target,row,rate_or_acc,target_prob,dice_mean,dice_std,dice_delta"]
        for (s, t), label, a, p, dm, ds, delta in self._rows():
            lines.append(
                f"{s},{t},{label}," + ",".join(fmt(v) for v in (a, p, dm, ds, delta))
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        def fmt(v):
            return f"{v:.4f}" if not isinstance(v, str) else v

        header = ("pair", "row", "rate/acc", "p(target)", "dice", "std", "delta")
        table = [header]
        for (s, t), label, a, p, dm, ds, delta in self._rows():
            table.append((f"{s}->{t}", label, fmt(a), fmt(p), fmt(dm), fmt(ds), fmt(delta)))
        widths = [max(len(row[i]) for row in table) for i in range(len(header))]
        out = []
        for row in table:
            out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        return "\n".join(out) + "\n"


def build_report(
    nets: NetBundle,
    dataset: Dataset,
    classifier: SmallClassifier,
    classifier_accuracy: float,
    ablation_nets: NetBundle | None = None,
    alpha: float = 1.0,
) -> EvalReport:
    """Score every ordered domain pair with the trained state (and the
    no-shape ablation when given) and assemble the report."""

    def pair_scores(state: NetBundle) -> list[PairScores]:
        return [
            score_pair(state, classifier, dataset, s, t, alpha)
            for s in dataset.domain_ids
            for t in dataset.domain_ids
            if s != t
        ]

    return EvalReport(
        classifier_accuracy=classifier_accuracy,
        mask_quality=mask_quality_score(nets, dataset),
        full=pair_scores(nets),
        ablation=None if ablation_nets is None else pair_scores(ablation_nets),
    )


def write_report(report: EvalReport, out_path) -> tuple[Path, Path]:
    """Write CSV beside an aligned text rendering; returns both paths."""
    csv_path = Path(out_path)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    csv_path.write_text(report.to_csv())
    txt_path = csv_path.with_suffix(".txt")
    txt_path.write_text(report.to_text())
    return csv_path, txt_path
