"""Procedural dataset: Fourier-perturbed blob silhouettes with per-domain
attribute rendering.

A sample is an RGB image plus its exact binary foreground mask. The silhouette
is a star-convex contour r(theta) = r0 * (1 + sum_k a_k sin(k theta + phi_k))
filled over the pixel grid; attributes (plain fill, hue shift, spots, edge
darkening) recolor pixels strictly inside the mask, so the mask depends only
on the silhouette. Everything is a pure function of integer seeds.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import netpbm
from .errors import ConfigurationError, DataError
from .seeds import derive_seed

ATTRIBUTES = ("plain", "hue_shift", "spots", "edge_darkening")
BACKGROUND = np.array([0.085, 0.070, 0.055])

# silhouette sampling ranges; max radial extent is capped so shapes stay
# inside the frame even with the largest center offset
_R0_RANGE = (0.26, 0.38)
_AMP_RANGE = (0.03, 0.18)
_FREQ_CHOICES = (2, 3, 4, 5)
_CENTER_MAX = 0.05
_EXTENT_CAP = 0.46
_AMP_BUDGET = 0.9
_MAX_RESAMPLES = 100


@dataclass(frozen=True)
class ShapeSpec:
    """Star-convex contour: base radius, sine harmonics, center offset.

    Radii and offsets are fractions of the image side, so one spec renders
    consistently at any resolution.
    """

    base_radius: float
    harmonics: tuple[tuple[int, float, float], ...]  # (frequency, amplitude, phase)
    center: tuple[float, float]

    def radius_at(self, theta: np.ndarray) -> np.ndarray:
        r = np.ones_like(theta)
        for freq, amp, phase in self.harmonics:
            r = r + amp * np.sin(freq * theta + phase)
        return self.base_radius * r


@dataclass(frozen=True)
class ImageSample:
    image: np.ndarray  # (3, S, S) in [0, 1]
    mask: np.ndarray   # (1, S, S) in {0, 1}
    domain: int
    seed: int


def sample_shape(rng: np.random.Generator) -> ShapeSpec:
    """Draw a silhouette whose total amplitude and extent stay in budget."""
    for _ in range(_MAX_RESAMPLES):
        r0 = rng.uniform(*_R0_RANGE)
        n_harmonics = int(rng.integers(2, 4))
        freqs = rng.choice(_FREQ_CHOICES, size=n_harmonics, replace=False)
        amps = rng.uniform(*_AMP_RANGE, size=n_harmonics)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n_harmonics)
        center = tuple(rng.uniform(-_CENTER_MAX, _CENTER_MAX, size=2))
        total_amp = float(np.sum(np.abs(amps)))
        if total_amp >= _AMP_BUDGET:
            continue
        if r0 * (1.0 + total_amp) > _EXTENT_CAP:
            continue
        harmonics = tuple(
            (int(f), float(a), float(p)) for f, a, p in zip(freqs, amps, phases)
        )
        return ShapeSpec(float(r0), harmonics, (float(center[0]), float(center[1])))
    raise ConfigurationError("could not sample a silhouette within budget")


def _polar_fields(spec: ShapeSpec, size: int):
    coords = (np.arange(size) + 0.5) / size
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    dx = xx - (0.5 + spec.center[0])
    dy = yy - (0.5 + spec.center[1])
    dist = np.hypot(dx, dy)
    theta = np.arctan2(dy, dx)
    return dist, spec.radius_at(theta)


def rasterize_mask(spec: ShapeSpec, size: int) -> np.ndarray:
    """Fill the contour on an SxS grid; returns a (1, S, S) array of {0, 1}."""
    if size < 16:
        raise ConfigurationError(f"image size must be >= 16, got {size}")
    dist, r_req = _polar_fields(spec, size)
    return (dist <= r_req).astype(np.float64)[None]


def _render_plain(rng, mask2d, dist, r_req, size, color=(0.13, 0.52, 0.14)):
    base = np.asarray(color) + rng.uniform(-0.03, 0.03, size=3)
    img = np.empty((3, size, size))
    img[:] = base[:, None, None]
    img += rng.normal(0.0, 0.015, size=img.shape)
    return img


def _render_spots(rng, mask2d, dist, r_req, size):
    img = _render_plain(rng, mask2d, dist, r_req, size)
    inside = np.argwhere(mask2d > 0.5)
    n_spots = int(rng.integers(6, 13))
    coords = (np.arange(size) + 0.5)
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    spot_color = np.array([0.32, 0.18, 0.05])
    for _ in range(n_spots):
        cy, cx = inside[int(rng.integers(len(inside)))]
        radius = rng.uniform(1.2, 2.8)
        color = spot_color + rng.uniform(-0.05, 0.05, size=3)
        hit = (yy - (cy + 0.5)) ** 2 + (xx - (cx + 0.5)) ** 2 <= radius**2
        img[:, hit] = color[:, None]
    return img


def _render_edge_darkening(rng, mask2d, dist, r_req, size):
    img = _render_plain(rng, mask2d, dist, r_req, size)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(r_req > 0.0, dist / r_req, 1.0)
    t = np.clip((frac - 0.60) / 0.35, 0.0, 1.0)
    img *= 1.0 - 0.55 * t[None]
    return img


_RENDERERS = {
    "plain": _render_plain,
    "hue_shift": partial(_render_plain, color=(0.62, 0.55, 0.10)),
    "spots": _render_spots,
    "edge_darkening": _render_edge_darkening,
}


def generate_sample(seed: int, domain: int, size: int = 32) -> ImageSample:
    """Render one sample, fully determined by (seed, domain, size).

    Domain d renders attribute ``ATTRIBUTES[d % len(ATTRIBUTES)]``. The
    silhouette and the attribute draws come from independent seed-derived
    streams, and the silhouette's stream does not depend on the domain, so
    one seed gives the same silhouette in every domain.
    """
    shape_rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 1)))
    attr_rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 2, domain)))
    spec = sample_shape(shape_rng)
    dist, r_req = _polar_fields(spec, size)
    mask = rasterize_mask(spec, size)
    render = _RENDERERS[ATTRIBUTES[domain % len(ATTRIBUTES)]]
    fill = render(attr_rng, mask[0], dist, r_req, size)
    image = np.where(mask > 0.5, fill, BACKGROUND[:, None, None])
    return ImageSample(np.clip(image, 0.0, 1.0), mask, domain, seed)


# ---------------------------------------------------------------------------
# dataset builder and loader

MANIFEST_NAME = "manifest.csv"
_MANIFEST_FIELDS = ("path", "mask_path", "domain", "seed", "split")


def build_dataset(
    out_dir,
    domains: int = 2,
    n_per_domain: int = 64,
    size: int = 32,
    seed: int = 0,
    paired_eval_fraction: float = 0.25,
) -> Path:
    """Generate a dataset on disk and return the manifest path.

    Each domain gets ``n_per_domain`` rows total: an unpaired training split
    with independent silhouettes, and a paired evaluation split whose
    silhouettes are shared across domains (same row index, same mask). The
    two splits draw from disjoint seed streams, and every manifest row stores
    the seed that regenerates its files bitwise.
    """
    if domains < 1:
        raise ConfigurationError("need at least one domain")
    if size < 16:
        raise ConfigurationError(f"image size must be >= 16, got {size}")
    if not (0.0 <= paired_eval_fraction < 1.0):
        raise ConfigurationError("paired_eval_fraction must lie in [0, 1)")
    n_eval = int(round(paired_eval_fraction * n_per_domain))
    n_train = n_per_domain - n_eval
    if n_train < 1 or (paired_eval_fraction > 0.0 and n_eval < 1):
        raise ConfigurationError(
            f"n_per_domain={n_per_domain} too small for eval fraction"
            f" {paired_eval_fraction}"
        )

    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "masks").mkdir(parents=True, exist_ok=True)

    # eval seeds do not depend on the domain: paired shapes
    jobs = [("train", d, i, derive_seed(seed, 0, d, i))
            for d in range(domains) for i in range(n_train)]
    jobs += [("eval", d, i, derive_seed(seed, 1, 0, i))
             for d in range(domains) for i in range(n_eval)]
    rows = []
    for split, d, i, s in jobs:
        sample = generate_sample(s, d, size)
        img_rel = f"images/{split}_d{d}_{i:04d}.ppm"
        mask_rel = f"masks/{split}_d{d}_{i:04d}.pgm"
        netpbm.write_image(out / img_rel, sample.image)
        netpbm.write_image(out / mask_rel, sample.mask)
        rows.append((img_rel, mask_rel, d, s, split))

    manifest = out / MANIFEST_NAME
    with open(manifest, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(_MANIFEST_FIELDS)
        writer.writerows(rows)
    return manifest


@dataclass
class Dataset:
    """In-memory dataset with train/eval index lookups per domain."""

    images: np.ndarray   # (M, 3, S, S)
    masks: np.ndarray    # (M, 1, S, S)
    domains: np.ndarray  # (M,) int
    seeds: np.ndarray    # (M,) int
    splits: list[str]

    @property
    def size(self) -> int:
        return self.images.shape[-1]

    @property
    def channels(self) -> int:
        return self.images.shape[1]

    @property
    def domain_ids(self) -> list[int]:
        return sorted(set(int(d) for d in self.domains))

    def indices(self, split: str, domain: int | None = None) -> np.ndarray:
        keep = np.array([s == split for s in self.splits])
        if domain is not None:
            keep &= self.domains == domain
        return np.flatnonzero(keep)

    def train_indices(self, domain: int | None = None) -> np.ndarray:
        return self.indices("train", domain)

    def eval_indices(self, domain: int | None = None) -> np.ndarray:
        return self.indices("eval", domain)


def _hw(raster: np.ndarray) -> str:
    return f"{raster.shape[1]}x{raster.shape[2]}"


def load_dataset(data_dir) -> Dataset:
    """Load a generated dataset from its manifest. Malformed input raises
    :class:`DataError` naming the manifest and, where known, the line."""
    root = Path(data_dir)
    manifest = root / MANIFEST_NAME
    if not manifest.is_file():
        raise DataError(f"no {MANIFEST_NAME} in {root}")
    try:
        text = manifest.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{manifest}:{line}: not UTF-8 text") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise DataError(f"{manifest}:{reader.line_num}: {exc}") from None
    header = rows[0] if rows else None
    if header is None or tuple(header) != _MANIFEST_FIELDS:
        raise DataError(f"{manifest}: unexpected manifest header {header}")
    images, masks, domains, seeds, splits = [], [], [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        line = f"{manifest}:{lineno}"
        if len(row) != len(_MANIFEST_FIELDS):
            raise DataError(f"{line}: malformed row {row}")
        img_rel, mask_rel, dom, s, split = row
        if split not in ("train", "eval"):
            raise DataError(f"{line}: unknown split {split!r}")
        try:
            domains.append(np.int64(int(dom)))
            seeds.append(np.int64(int(s)))
        except (ValueError, OverflowError):
            raise DataError(
                f"{line}: domain and seed must be integers in the int64 range,"
                f" got {dom!r}, {s!r}"
            ) from None
        try:
            image = netpbm.read_image(root / img_rel)
            mask = netpbm.read_image(root / mask_rel)
        except DataError as exc:
            raise DataError(f"{line}: {exc}") from None
        if image.shape[0] != 3 or mask.shape[0] != 1:
            raise DataError(f"{line}: image {img_rel} must be a PPM and mask"
                            f" {mask_rel} a PGM")
        size = images[0].shape[-1] if images else image.shape[-1]
        if image.shape[1:] != (size, size) or mask.shape[1:] != (size, size):
            raise DataError(
                f"{line}: image {img_rel} is {_hw(image)} and mask {mask_rel}"
                f" is {_hw(mask)}; every image and mask must be {size}x{size}"
            )
        images.append(image)
        masks.append(mask)
        splits.append(split)
    if not images:
        raise DataError(f"{manifest}: empty manifest")
    return Dataset(
        images=np.stack(images),
        masks=np.stack(masks),
        domains=np.array(domains, dtype=np.int64),
        seeds=np.array(seeds, dtype=np.int64),
        splits=splits,
    )
