"""Run configuration: one file fully specifies a reproducible pipeline run.

Flat key=value text with ``[section]`` headers (configparser syntax), read only by
:func:`read_config`: the defaults, a saved config, ``--config`` and the flags are
layered in that order, then validated once. The resolved configuration is persisted
next to the run outputs so any run can be re-executed bit-exactly from its own outputs.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

from .data import DataError, Dataset, SplitSpec, load_csv, load_idx, split, synth_blobs, synth_textures
from .evaluate import EvalConfig
from .layers import BACKBONES, VARIANTS, ModelSpec, miniresnet_spec, mlp_spec
from .optim import OptimizerConfig
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
    train_frac: float = SplitSpec.train
    val_frac: float = SplitSpec.val
    test_frac: float = SplitSpec.test


@dataclass(frozen=True)
class ModelSection:
    backbone: str = "mlp"     # layers.BACKBONES
    variant: str = "baseline"
    dropout: float = 0.5
    hidden: int = 64          # mlp width


@dataclass(frozen=True)
class TrainingSection:
    optimizer: str = OptimizerConfig.kind   # optim.OPTIMIZERS
    lr: float = OptimizerConfig.lr
    momentum: float = OptimizerConfig.momentum
    beta1: float = OptimizerConfig.beta1
    beta2: float = OptimizerConfig.beta2
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    beta: float = TrainConfig.beta           # KLD weight


@dataclass(frozen=True)
class UncertaintySection:
    T: int = EvalConfig.T
    S: int = EvalConfig.S
    space: str = EvalConfig.space   # evaluate.SPACES, one legal value
    workers: int = EvalConfig.workers


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
            cp[name] = {key: repr(v) if isinstance(v, float) else str(v)
                        for key, v in self.section(name).items()}
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    def to_file(self, path: str) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        return read_config(text)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        return read_config(Path(path).read_text(encoding="utf-8"))

    def section(self, name: str) -> dict:
        """Key -> value of config section ``name``; ``[run]`` holds the top-level keys."""
        holder = self if name == "run" else getattr(self, name)
        return {f.name: getattr(holder, f.name) for f in fields(holder) if f.name not in SECTIONS}

    def with_overrides(self, overrides: dict[str, dict[str, str]]) -> "RunConfig":
        """Apply string-valued per-section overrides (file keys or CLI flags),
        each parsed as its field's declared type."""
        cfg = self
        for section, values in overrides.items():
            if section not in SECTIONS:
                raise ValueError(f"unknown config section [{section}]")
            holder = cfg if section == "run" else getattr(cfg, section)
            types = get_type_hints(type(holder))
            current = cfg.section(section)
            updates = {}
            for key, raw in values.items():
                if key not in current:
                    raise ValueError(f"unknown config key {section}.{key}")
                updates[key] = _parse(types[key], section, key, raw)
            if section != "run":
                updates = {section: replace(getattr(cfg, section), **updates)}
            cfg = replace(cfg, **updates)
        cfg.validate()
        return cfg

    # -- validation and factories -------------------------------------------

    def validate(self) -> None:
        """Check the dataset, model and seed keys here; the training and
        uncertainty keys are checked by the library configs they build."""
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
        if self.model.variant not in VARIANTS:
            raise ValueError(f"model.variant must be one of {VARIANTS}, got {self.model.variant!r}")
        if not (0.0 <= self.model.dropout < 1.0):
            raise ValueError(f"model.dropout must lie in [0, 1), got {self.model.dropout}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        self.train_config()
        self.eval_config()

    def make_dataset(self) -> Dataset:
        d = self.dataset
        if d.kind == "blobs":
            return synth_blobs(d.n, d.classes, d.overlap, d.dim, self.seed)
        if d.kind == "textures":
            return synth_textures(d.n, d.classes, d.size, d.noise, self.seed)
        if d.kind == "csv":
            if not d.csv_path:
                raise ValueError("dataset.csv_path is required for kind = csv")
            ds = load_csv(d.csv_path, d.label_column)
        elif not (d.images_path and d.labels_path):
            raise ValueError("dataset.images_path and dataset.labels_path are required for kind = idx")
        else:
            ds = load_idx(d.images_path, d.labels_path)
        if ds.n_classes != d.classes:
            raise DataError(f"the {d.kind} labels give {ds.n_classes} classes but dataset.classes "
                            f"is {d.classes}; pass --classes {ds.n_classes}")
        return ds

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


def read_config(*layers: str | dict[str, dict[str, str]] | None) -> RunConfig:
    """The defaults, then ``layers`` in order (config text, or per-section string overrides
    such as flags; ``None`` is skipped), a later key replacing an earlier; validated once."""
    merged: dict[str, dict[str, str]] = {}
    for layer in layers:
        for section, values in (_sections(layer) if isinstance(layer, str) else layer or {}).items():
            merged.setdefault(section, {}).update(values)
    # configs written while sigma^2 scoring existed carry its default, space = analytic;
    # read it as the one space left, so that old checkpoints still evaluate
    if merged.get("uncertainty", {}).get("space") == "analytic":
        merged["uncertainty"]["space"] = "sampled"
    return RunConfig().with_overrides(merged)


def saved_seed(text: str) -> int:
    """``run.seed`` of config ``text`` alone: the seed a checkpoint's data was made with."""
    return _parse(int, "run", "seed", _sections(text).get("run", {}).get("seed", RunConfig.seed))


def _sections(text: str) -> dict[str, dict[str, str]]:
    cp = configparser.ConfigParser()
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ValueError(f"malformed config: {e}") from e
    return {section: dict(cp[section]) for section in cp.sections()}


def _parse(typ, section: str, key: str, raw: str):
    raw = str(raw).strip()
    try:
        value = typ(raw)
    except ValueError as e:
        raise ValueError(f"config key {section}.{key}: cannot parse {raw!r} as {typ.__name__}") from e
    if typ is float and not math.isfinite(value):
        raise ValueError(f"config key {section}.{key}: {raw!r} is not a finite number")
    return value
