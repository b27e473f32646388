"""Run configuration: one file fully specifies a reproducible pipeline run.

Flat key=value text with ``[section]`` headers (configparser syntax).
Command-line flags override file values; the resolved configuration is
persisted next to the run outputs so any run can be re-executed bit-exactly
from its own artifact directory.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, fields, replace

from .data import Dataset, SplitSpec, load_csv, load_idx, split, synth_blobs, synth_textures
from .evaluate import SPACES, EvalConfig
from .layers import BACKBONES, ModelSpec, miniresnet_spec, mlp_spec
from .optim import OPTIMIZERS, OptimizerConfig
from .train import TrainConfig

DATASET_KINDS = ("blobs", "textures", "csv", "idx")
SECTIONS = ("run", "dataset", "model", "training", "uncertainty")


@dataclass(frozen=True)
class DatasetSection:
    kind: str = "blobs"
    n: int = 5000
    classes: int = 4
    overlap: float = 0.4      # blobs
    dim: int = 2              # blobs
    noise: float = 0.0        # textures
    size: int = 16            # textures
    csv_path: str = ""        # kind = csv
    images_path: str = ""     # kind = idx
    labels_path: str = ""     # kind = idx
    label_column: str = "label"
    train_frac: float = 0.7
    val_frac: float = 0.15
    test_frac: float = 0.15


@dataclass(frozen=True)
class ModelSection:
    backbone: str = "mlp"     # layers.BACKBONES
    variant: str = "baseline"
    dropout: float = 0.5
    hidden: int = 64          # mlp width


@dataclass(frozen=True)
class TrainingSection:
    optimizer: str = "adam"   # optim.OPTIMIZERS
    lr: float = 1e-3
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    epochs: int = 20
    batch_size: int = 64
    beta: float = 1.0         # KLD weight


@dataclass(frozen=True)
class UncertaintySection:
    T: int = 100
    S: int = 100
    space: str = "analytic"   # variational scoring space
    workers: int = 1


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    out: str = "runs/out"
    dataset: DatasetSection = field(default_factory=DatasetSection)
    model: ModelSection = field(default_factory=ModelSection)
    training: TrainingSection = field(default_factory=TrainingSection)
    uncertainty: UncertaintySection = field(default_factory=UncertaintySection)

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        cp = configparser.ConfigParser()
        cp.optionxform = str  # keep key case (uncertainty.T)
        for name in SECTIONS:
            cp[name] = {key: _dump(value) for key, value in self.section(name).items()}
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    def to_file(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        return cls().with_text(text)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def with_text(self, text: str) -> "RunConfig":
        """Layer the keys present in config ``text`` over this configuration."""
        cp = configparser.ConfigParser()
        cp.optionxform = str
        try:
            cp.read_string(text)
        except configparser.Error as e:
            raise ValueError(f"malformed config: {e}") from e
        for section in cp.sections():
            if section not in SECTIONS:
                raise ValueError(f"unknown config section [{section}]")
        return self.with_overrides({section: dict(cp[section]) for section in cp.sections()})

    def section(self, name: str) -> dict:
        """Key -> value of config section ``name``; ``[run]`` holds the top-level keys."""
        holder = self if name == "run" else getattr(self, name)
        return {f.name: getattr(holder, f.name) for f in fields(holder) if f.name not in SECTIONS}

    def with_overrides(self, overrides: dict[str, dict[str, str]]) -> "RunConfig":
        """Apply string-valued per-section overrides (file keys or CLI flags)."""
        cfg = self
        for section, values in overrides.items():
            current = cfg.section(section)
            updates = {}
            for key, raw in values.items():
                if key not in current:
                    raise ValueError(f"unknown config key {section}.{key}")
                updates[key] = _parse(type(current[key]), section, key, raw)
            if section != "run":
                updates = {section: replace(getattr(cfg, section), **updates)}
            cfg = replace(cfg, **updates)
        cfg.validate()
        return cfg

    # -- validation and factories -------------------------------------------

    def validate(self) -> None:
        d = self.dataset
        if d.kind not in DATASET_KINDS:
            raise ValueError(f"dataset.kind must be one of {DATASET_KINDS}, got {d.kind!r}")
        if not (0.0 <= d.overlap <= 1.0):
            raise ValueError(f"dataset.overlap must lie in [0, 1], got {d.overlap}")
        if d.noise < 0:
            raise ValueError("dataset.noise must be nonnegative")
        if self.model.backbone not in BACKBONES:
            raise ValueError(f"model.backbone must be one of {BACKBONES}, "
                             f"got {self.model.backbone!r}")
        if not (0.0 <= self.model.dropout < 1.0):
            raise ValueError(f"model.dropout must lie in [0, 1), got {self.model.dropout}")
        if self.training.optimizer not in OPTIMIZERS:
            raise ValueError(f"training.optimizer must be one of {OPTIMIZERS}, "
                             f"got {self.training.optimizer!r}")
        if self.uncertainty.T < 2:
            raise ValueError(f"uncertainty.T must be >= 2, got {self.uncertainty.T}")
        if self.uncertainty.space not in SPACES:
            raise ValueError(f"uncertainty.space must be one of {SPACES}, "
                             f"got {self.uncertainty.space!r}")
        if self.uncertainty.space == "sampled" and self.uncertainty.S < 2:
            raise ValueError(f"uncertainty.S must be >= 2 for space = sampled, "
                             f"got {self.uncertainty.S}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def make_dataset(self) -> Dataset:
        d = self.dataset
        if d.kind == "blobs":
            return synth_blobs(d.n, d.classes, d.overlap, d.dim, self.seed)
        if d.kind == "textures":
            return synth_textures(d.n, d.classes, d.size, d.noise, self.seed)
        if d.kind == "csv":
            if not d.csv_path:
                raise ValueError("dataset.csv_path is required for kind = csv")
            return load_csv(d.csv_path, d.label_column)
        if not (d.images_path and d.labels_path):
            raise ValueError("dataset.images_path and dataset.labels_path are required for kind = idx")
        return load_idx(d.images_path, d.labels_path)

    def make_splits(self) -> tuple[Dataset, Dataset, Dataset]:
        d = self.dataset
        return split(self.make_dataset(),
                     SplitSpec(d.train_frac, d.val_frac, d.test_frac, seed=self.seed))

    def make_spec(self, input_shape: tuple[int, ...], variant: str | None = None) -> ModelSpec:
        m = self.model
        variant = variant or m.variant
        if m.backbone == "mlp":
            if len(input_shape) != 1:
                raise ValueError(f"mlp backbone needs vector inputs, got shape {input_shape}")
            return mlp_spec(input_shape[0], self.dataset.classes, variant, m.hidden, m.dropout)
        if len(input_shape) != 3:
            raise ValueError(f"miniresnet backbone needs image inputs, got shape {input_shape}")
        return miniresnet_spec(input_shape, self.dataset.classes, variant, m.dropout)

    def train_config(self) -> TrainConfig:
        t = self.training
        opt = OptimizerConfig(t.optimizer, t.lr, t.momentum, t.beta1, t.beta2)
        return TrainConfig(opt, t.epochs, t.batch_size, t.beta)

    def eval_config(self) -> EvalConfig:
        u = self.uncertainty
        return EvalConfig(u.T, u.S, self.seed, u.space, u.workers)


def _dump(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse(typ, section: str, key: str, raw: str):
    raw = str(raw).strip()
    try:
        return typ(raw)
    except ValueError as e:
        raise ValueError(f"config key {section}.{key}: cannot parse {raw!r} as {typ.__name__}") from e
