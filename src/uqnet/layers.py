"""Network layers, model specs, and the classifier variants.

A model is described by a :class:`ModelSpec`: an ordered tuple of body
:class:`LayerSpec` entries producing a feature vector, plus a head that is
either a single linear layer (``standard``) or two parallel linear layers
predicting the mean and log-variance of a Gaussian over class scores
(``variational``).

The four variants differ only in dropout placement:

* ``baseline``     -- no dropout;
* ``bayesian1``    -- one dropout immediately before the final linear head;
* ``bayesian2``    -- dropout immediately before every residual block, plus
  the ``bayesian1`` placement;
* ``variational``  -- baseline body with the variational head.

All dropout is inverted dropout: surviving activations are scaled by
1/(1-p) at mask time, so the stochastic train/eval-sampling modes share one
code path and the deterministic mode is exactly the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import rng as _rng
from .tensor import Tensor, ShapeError, conv2d, global_avg_pool

VARIANTS = ("baseline", "bayesian1", "bayesian2", "variational")
BACKBONES = ("mlp", "miniresnet")


class DropoutMode(Enum):
    TRAIN = "train"
    EVAL_DETERMINISTIC = "eval-deterministic"
    EVAL_SAMPLING = "eval-sampling"

    @property
    def stochastic(self) -> bool:
        return self is not DropoutMode.EVAL_DETERMINISTIC


@dataclass(frozen=True)
class LayerSpec:
    """One body layer. Fields other than ``kind`` apply per kind:

    linear          in_dim, out_dim
    conv3x3         in_ch, out_ch
    relu            (none)
    global-avg-pool (none)
    dropout         p
    residual-block  block ("conv" or "fc"); conv: in_ch, out_ch; fc: dim
    """

    kind: str
    in_dim: int | None = None
    out_dim: int | None = None
    in_ch: int | None = None
    out_ch: int | None = None
    p: float | None = None
    block: str | None = None

    KINDS = ("linear", "conv3x3", "relu", "global-avg-pool", "dropout", "residual-block")

    def validate(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == "linear" and not (self.in_dim and self.out_dim):
            raise ValueError("linear layer needs in_dim and out_dim")
        if self.kind == "conv3x3" and not (self.in_ch and self.out_ch):
            raise ValueError("conv3x3 layer needs in_ch and out_ch")
        if self.kind == "dropout":
            if self.p is None or not (0.0 <= self.p < 1.0):
                raise ValueError(f"dropout rate must be in [0, 1), got {self.p}")
        if self.kind == "residual-block":
            if self.block == "conv":
                if not (self.in_ch and self.out_ch):
                    raise ValueError("conv residual block needs in_ch and out_ch")
            elif self.block == "fc":
                if not self.in_dim:
                    raise ValueError("fc residual block needs in_dim")
            else:
                raise ValueError(f"residual block kind must be 'conv' or 'fc', got {self.block!r}")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description: body layers, head, variant tag, shapes."""

    layers: tuple[LayerSpec, ...]
    n_classes: int
    input_shape: tuple[int, ...]
    variant: str
    backbone: str
    dropout_p: float = 0.5

    @property
    def head(self) -> str:
        return "variational" if self.variant == "variational" else "standard"

    @property
    def feature_dim(self) -> int:
        shape = infer_shapes(self)[-1]
        if len(shape) != 1:
            raise ShapeError(f"body must end in a feature vector, got shape {shape}")
        return shape[0]

    def dropout_positions(self) -> list[int]:
        return [i for i, l in enumerate(self.layers) if l.kind == "dropout"]


def infer_shapes(spec: ModelSpec) -> list[tuple[int, ...]]:
    """Per-example shape after each body layer (index 0 is the input shape)."""
    shapes = [tuple(spec.input_shape)]
    cur = shapes[0]
    for layer in spec.layers:
        layer.validate()
        if layer.kind == "linear":
            if cur != (layer.in_dim,):
                raise ShapeError(f"linear expects ({layer.in_dim},), got {cur}")
            cur = (layer.out_dim,)
        elif layer.kind == "conv3x3":
            if len(cur) != 3 or cur[0] != layer.in_ch:
                raise ShapeError(f"conv3x3 expects ({layer.in_ch}, H, W), got {cur}")
            cur = (layer.out_ch, cur[1], cur[2])
        elif layer.kind == "global-avg-pool":
            if len(cur) != 3:
                raise ShapeError(f"global-avg-pool expects (C, H, W), got {cur}")
            cur = (cur[0],)
        elif layer.kind == "residual-block":
            if layer.block == "conv":
                if len(cur) != 3 or cur[0] != layer.in_ch:
                    raise ShapeError(f"residual block expects ({layer.in_ch}, H, W), got {cur}")
                cur = (layer.out_ch, cur[1], cur[2])
            else:
                if cur != (layer.in_dim,):
                    raise ShapeError(f"fc residual block expects ({layer.in_dim},), got {cur}")
        # relu and dropout preserve shape
        shapes.append(cur)
    return shapes


def validate_spec(spec: ModelSpec) -> None:
    """Check structural invariants, including variant dropout placement."""
    if spec.variant not in VARIANTS:
        raise ValueError(f"unknown variant {spec.variant!r}, expected one of {VARIANTS}")
    if spec.n_classes < 2:
        raise ValueError("need at least two classes")
    infer_shapes(spec)  # raises on inconsistent shapes
    _ = spec.feature_dim

    positions = spec.dropout_positions()
    last = len(spec.layers) - 1
    if spec.variant in ("baseline", "variational"):
        if positions:
            raise ValueError(f"{spec.variant} must have no dropout layers, found {len(positions)}")
    elif spec.variant == "bayesian1":
        if positions != [last]:
            raise ValueError("bayesian1 must have exactly one dropout layer, last before the head")
    elif spec.variant == "bayesian2":
        expected = [i - 1 for i, l in enumerate(spec.layers) if l.kind == "residual-block"]
        expected.append(last)
        if positions != expected:
            raise ValueError(
                "bayesian2 must have dropout immediately before every residual block "
                f"and before the head; expected positions {expected}, found {positions}"
            )


# -- presets -----------------------------------------------------------------


def mlp_spec(input_dim: int, n_classes: int = 4, variant: str = "baseline",
             hidden: int = 64, p: float = 0.5) -> ModelSpec:
    """Vector-input backbone: stem linear + 2 residual fc blocks."""
    drop = LayerSpec("dropout", p=p)
    layers: list[LayerSpec] = [
        LayerSpec("linear", in_dim=input_dim, out_dim=hidden),
        LayerSpec("relu"),
    ]
    for _ in range(2):
        if variant == "bayesian2":
            layers.append(drop)
        layers.append(LayerSpec("residual-block", block="fc", in_dim=hidden))
    if variant in ("bayesian1", "bayesian2"):
        layers.append(drop)
    spec = ModelSpec(tuple(layers), n_classes, (input_dim,), variant, "mlp", p)
    validate_spec(spec)
    return spec


def miniresnet_spec(input_shape: tuple[int, int, int] = (1, 16, 16), n_classes: int = 4,
                    variant: str = "baseline", p: float = 0.5,
                    channels: tuple[int, int, int] = (8, 16, 16)) -> ModelSpec:
    """Small residual CNN: conv stem, three residual blocks, global pooling.

    Blocks are conv-relu-conv plus an identity shortcut (1x1 projection when
    the channel count changes), relu after the add. Stride 1 throughout, so
    every block preserves the spatial size.
    """
    drop = LayerSpec("dropout", p=p)
    stem = channels[0]
    layers: list[LayerSpec] = [
        LayerSpec("conv3x3", in_ch=input_shape[0], out_ch=stem),
        LayerSpec("relu"),
    ]
    prev = stem
    for ch in channels:
        if variant == "bayesian2":
            layers.append(drop)
        layers.append(LayerSpec("residual-block", block="conv", in_ch=prev, out_ch=ch))
        prev = ch
    layers.append(LayerSpec("global-avg-pool"))
    if variant in ("bayesian1", "bayesian2"):
        layers.append(drop)
    spec = ModelSpec(tuple(layers), n_classes, tuple(input_shape), variant, "miniresnet", p)
    validate_spec(spec)
    return spec


# -- parameters ---------------------------------------------------------------


@dataclass
class ModelParams:
    """Named parameter tensors plus the seed they were initialized from."""

    tensors: dict[str, Tensor]
    seed: int

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.tensors)

    def n_parameters(self) -> int:
        return sum(t.size for t in self.tensors.values())

    def copy(self) -> "ModelParams":
        return ModelParams(
            {name: Tensor(t.data.copy(), requires_grad=True) for name, t in self.tensors.items()},
            self.seed,
        )

    def zero_grad(self) -> None:
        for t in self.tensors.values():
            t.grad = None


def _he_weight(gen: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    return Tensor(gen.normal(0.0, math.sqrt(2.0 / fan_in), size=shape), requires_grad=True)


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def _layer_param_specs(layer: LayerSpec) -> list[tuple[str, tuple[int, ...], int]]:
    """(suffix, shape, fan_in) for each weight of a body layer; biases implied."""
    if layer.kind == "linear":
        return [("w", (layer.in_dim, layer.out_dim), layer.in_dim)]
    if layer.kind == "conv3x3":
        return [("w", (layer.out_ch, layer.in_ch, 3, 3), layer.in_ch * 9)]
    if layer.kind == "residual-block":
        if layer.block == "conv":
            specs = [
                ("conv1.w", (layer.out_ch, layer.in_ch, 3, 3), layer.in_ch * 9),
                ("conv2.w", (layer.out_ch, layer.out_ch, 3, 3), layer.out_ch * 9),
            ]
            if layer.in_ch != layer.out_ch:
                specs.append(("proj.w", (layer.out_ch, layer.in_ch, 1, 1), layer.in_ch))
            return specs
        return [
            ("fc1.w", (layer.in_dim, layer.in_dim), layer.in_dim),
            ("fc2.w", (layer.in_dim, layer.in_dim), layer.in_dim),
        ]
    return []


def build_model(spec: ModelSpec, seed: int) -> ModelParams:
    """He-initialized parameters, deterministic in (spec, seed).

    Weights are zero-mean Gaussian with variance 2/fan_in, biases zero.
    Each parameterized layer draws from its own stream keyed by the ordinal
    of the layer among parameterized layers, so variants that differ only in
    (parameter-free) dropout placement get bit-identical tensors.
    """
    validate_spec(spec)
    tensors: dict[str, Tensor] = {}
    ordinal = 0
    for i, layer in enumerate(spec.layers):
        param_specs = _layer_param_specs(layer)
        if not param_specs:
            continue
        gen = _rng.stream(seed, _rng.NS_INIT, ordinal)
        for suffix, shape, fan_in in param_specs:
            tensors[f"body.{i}.{suffix}"] = _he_weight(gen, shape, fan_in)
            tensors[f"body.{i}.{suffix[:-1]}b"] = _zeros(shape[1] if layer.kind == "linear" or suffix.startswith("fc") else shape[0])
        ordinal += 1

    feat = spec.feature_dim
    c = spec.n_classes
    if spec.head == "standard":
        gen = _rng.stream(seed, _rng.NS_INIT, ordinal)
        tensors["head.fc.w"] = _he_weight(gen, (feat, c), feat)
        tensors["head.fc.b"] = _zeros(c)
    else:
        gen = _rng.stream(seed, _rng.NS_INIT, ordinal)
        tensors["head.mu.w"] = _he_weight(gen, (feat, c), feat)
        tensors["head.mu.b"] = _zeros(c)
        gen = _rng.stream(seed, _rng.NS_INIT, ordinal + 1)
        tensors["head.logvar.w"] = _he_weight(gen, (feat, c), feat)
        tensors["head.logvar.b"] = _zeros(c)
    return ModelParams(tensors, int(seed))


# -- forward -----------------------------------------------------------------


def dropout(x: Tensor, p: float, mode: DropoutMode, gen: np.random.Generator | None) -> Tensor:
    """Inverted dropout: zero each element with probability p, scale survivors.

    Train and eval-sampling modes are identical (same rate, same 1/(1-p)
    scaling); eval-deterministic is the identity.
    """
    if not (0.0 <= p < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if mode is DropoutMode.EVAL_DETERMINISTIC or p == 0.0:
        return x
    if gen is None:
        raise ValueError("stochastic dropout mode requires a random stream")
    keep = (gen.random(x.shape) >= p).astype(np.float64) / (1.0 - p)
    return x * Tensor(keep)


def _as_batch(x, input_shape: tuple[int, ...]) -> Tensor:
    t = x if isinstance(x, Tensor) else Tensor(x)
    if t.shape == tuple(input_shape):
        t = t.reshape((1,) + tuple(input_shape))
    elif t.shape[1:] != tuple(input_shape):
        raise ShapeError(f"input shape {t.shape} does not match model input {input_shape}")
    return t


def _residual_block(params: ModelParams, prefix: str, layer: LayerSpec, h: Tensor) -> Tensor:
    if layer.block == "conv":
        y = conv2d(h, params[f"{prefix}.conv1.w"], params[f"{prefix}.conv1.b"]).relu()
        y = conv2d(y, params[f"{prefix}.conv2.w"], params[f"{prefix}.conv2.b"])
        if layer.in_ch != layer.out_ch:
            shortcut = conv2d(h, params[f"{prefix}.proj.w"], params[f"{prefix}.proj.b"], padding=0)
        else:
            shortcut = h
        return (y + shortcut).relu()
    y = (h @ params[f"{prefix}.fc1.w"] + params[f"{prefix}.fc1.b"]).relu()
    y = y @ params[f"{prefix}.fc2.w"] + params[f"{prefix}.fc2.b"]
    return (y + h).relu()


def body_forward(params: ModelParams, spec: ModelSpec, x, mode: DropoutMode = DropoutMode.EVAL_DETERMINISTIC,
                 pass_rng: _rng.PassRng | None = None) -> Tensor:
    """Run the body layers, returning the [batch, feature_dim] features."""
    if mode.stochastic and pass_rng is None and any(
        l.kind == "dropout" and l.p > 0 for l in spec.layers
    ):
        raise ValueError(f"mode {mode.value!r} requires a pass rng for dropout masks")
    h = _as_batch(x, spec.input_shape)
    for i, layer in enumerate(spec.layers):
        prefix = f"body.{i}"
        if layer.kind == "linear":
            h = h @ params[f"{prefix}.w"] + params[f"{prefix}.b"]
        elif layer.kind == "conv3x3":
            h = conv2d(h, params[f"{prefix}.w"], params[f"{prefix}.b"])
        elif layer.kind == "relu":
            h = h.relu()
        elif layer.kind == "global-avg-pool":
            h = global_avg_pool(h)
        elif layer.kind == "dropout":
            gen = pass_rng.layer(i) if (mode.stochastic and layer.p > 0 and pass_rng is not None) else None
            h = dropout(h, layer.p, mode, gen)
        elif layer.kind == "residual-block":
            h = _residual_block(params, prefix, layer, h)
    return h


def model_forward(params: ModelParams, spec: ModelSpec, x, mode: DropoutMode = DropoutMode.EVAL_DETERMINISTIC,
                  pass_rng: _rng.PassRng | None = None) -> Tensor:
    """Forward pass to [batch, n_classes] logits (standard-head variants).

    Variational models produce a (mu, sigma^2) pair instead of logits; use
    :func:`uqnet.uncertainty.variational_heads` (graph mode) or
    :func:`uqnet.uncertainty.variational_outputs` (arrays) for those.
    """
    if spec.head != "standard":
        raise ValueError("model_forward handles standard-head variants; "
                         "use variational_forward for the variational variant")
    h = body_forward(params, spec, x, mode, pass_rng)
    return h @ params["head.fc.w"] + params["head.fc.b"]
