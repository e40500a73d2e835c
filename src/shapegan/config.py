"""Training configuration and its plain-text serialization.

The on-disk form is one ``key = value`` per line; blank lines and ``#``
comments are skipped. Unknown keys are hard errors so a typo cannot silently
fall back to a default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigurationError

SHAPE_REFERENCES = ("prediction", "ground_truth")


@dataclass
class TrainConfig:
    """All hyperparameters and schedule constants for one training run."""

    n_critic: int = 5
    batch_size: int = 16
    max_iterations: int = 2000
    image_size: int = 32
    seed: int = 0
    unet_pretrain_iters: int = 300
    recon_updates_encoder: bool = True
    checkpoint_every: int = 500
    lambda_adv: float = 1.0
    lambda_rec: float = 10.0
    lambda_shape: float = 1.0
    lambda_gp: float = 10.0
    lr_encoder: float = 1e-4
    lr_decoder: float = 1e-4
    lr_interpolator: float = 1e-4
    lr_critic: float = 1e-4
    lr_unet: float = 1e-3
    adam_beta1: float = 0.0
    adam_beta2: float = 0.9
    adam_epsilon: float = 1e-8
    early_stop: bool = False
    shape_reference: str = "prediction"

    def validate(self) -> None:
        # NaN passes every comparison below, so non-finite values go first
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(f"{f.name} must be finite, got {value!r}")
        if self.n_critic < 1:
            raise ConfigurationError("n_critic must be >= 1")
        if self.batch_size < 2:
            raise ConfigurationError("batch_size must be >= 2")
        if self.max_iterations < 0 or self.unet_pretrain_iters < 0:
            raise ConfigurationError("iteration counts must be non-negative")
        if self.image_size < 16 or self.image_size % 4:
            raise ConfigurationError(
                f"image_size must be a multiple of 4 and >= 16, got {self.image_size}"
            )
        if self.checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be >= 1")
        for name in ("lambda_adv", "lambda_rec", "lambda_shape", "lambda_gp"):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(f"{name} must be non-negative")
        for name in ("lr_encoder", "lr_decoder", "lr_interpolator", "lr_critic",
                     "lr_unet"):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"{name} must be positive")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ConfigurationError("adam betas must lie in [0, 1)")
        if self.adam_epsilon <= 0.0:
            raise ConfigurationError("adam_epsilon must be positive")
        if self.shape_reference not in SHAPE_REFERENCES:
            raise ConfigurationError(
                f"shape_reference must be one of {SHAPE_REFERENCES},"
                f" got {self.shape_reference!r}"
            )

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "TrainConfig":
        known = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for key, raw in mapping.items():
            if key not in known:
                raise ConfigurationError(f"unknown config key {key!r}")
            kwargs[key] = _parse_value(key, known[key], raw)
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


def _parse_value(key: str, typ, raw: str):
    raw = raw.strip()
    name = typ if isinstance(typ, str) else typ.__name__
    try:
        if name == "int":
            return int(raw)
        if name == "float":
            return float(raw)
        if name == "bool":
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigurationError(
            f"config key {key!r}: cannot parse {raw!r} as {name}"
        ) from None


def parse_config_text(text: str) -> dict[str, str]:
    """Split ``key = value`` lines into a raw string mapping."""
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigurationError(f"line {lineno}: empty key")
        if key in mapping:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return mapping


def load_config(path) -> TrainConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return TrainConfig.from_mapping(parse_config_text(text))
