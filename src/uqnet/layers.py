"""Network layers, model specs, and the classifier variants.

A model is described by a :class:`ModelSpec`: an ordered tuple of body
:class:`LayerSpec` entries producing a feature vector, plus a head that is
either a single linear layer (``standard``) or two parallel linear layers
predicting the mean and log-variance of a Gaussian over class scores
(``variational``).

The four variants differ only in dropout placement, a rule written once in
``_place_dropout``: ``baseline`` has none, ``bayesian1`` one dropout just
before the final linear head, ``bayesian2`` also one before every residual
block, and ``variational`` is the baseline body with the variational head.
Both presets apply the rule to a dropout-free body, and :func:`validate_spec`
checks a spec by applying it again. The parameter layout is one table,
``_param_groups``, read by :func:`build_model` and by :func:`param_shapes`
(which checkpoint readers check against).

All dropout is inverted dropout: surviving activations are scaled by
1/(1-p) at mask time. A forward pass draws masks exactly when it is given a
:class:`uqnet.rng.PassRng`, whose namespace tells training passes from MC
evaluation passes; without one, dropout is exactly the identity.

This module is the one place that turns a spec into computation:
:func:`body_forward` (or :func:`forward_range` for part of the body) runs
the body, :func:`head_forward` is the only reader of the ``head.*``
parameters, returning ``(logits, None)`` or ``(mu, log sigma^2)``, and
:func:`eval_heads` is the one row-blocked, no-grad evaluator of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .tensor import (Tensor, ShapeError, _cast, _chunk_rows, _row_chunks, _run_deferred, conv2d,
                     global_avg_pool, no_grad)

VARIANTS = ("baseline", "bayesian1", "bayesian2", "variational")
MC_VARIANTS = ("bayesian1", "bayesian2")   # the variants with dropout, sampled at evaluation
BACKBONES = ("mlp", "miniresnet")
DTYPES = ("float64", "float32")   # ModelSpec.dtype: the body's dtype

# A no-grad forward runs its batch in row blocks whose largest layer
# activation holds about this many bytes, so its working memory does not
# grow with the batch. The blocks follow the row alignment and tail rule of
# ``tensor._row_chunks``. Each op of a pass allocates an array of about one
# block and frees it before the next pass. Arrays above glibc malloc's
# default 128 KiB mmap threshold are mapped, or trimmed, and faulted in
# again on every op until a large free raises malloc's thresholds: a
# fresh-process bayesian2 ``mc_probs`` call (MLP at hidden 192, 750 rows,
# T = 50) took about 94,000 minor faults in one 750-row block and 73,000 in
# the 128-row blocks of this budget, then a few hundred from its third call
# on. Blocks small enough to stay under the threshold cost per-op overhead
# instead: the same call took the same CPU time in 128- and 256-row blocks
# and 20 % more in 64-row ones, which raised mlp-compare's wall time by 10 %.
_BLOCK_BYTES = 192 << 10

# log sigma^2 of the variational head is clamped to this range: guarantees
# positive sigma^2 and keeps the KLD term finite early in training
LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0


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
        if self.kind == "residual-block" and self.block not in ("conv", "fc"):
            raise ValueError(f"residual block kind must be 'conv' or 'fc', got {self.block!r}")
        if self.kind == "dropout":
            if self.p is None or not (0.0 <= self.p < 1.0):
                raise ValueError(f"dropout rate must be in [0, 1), got {self.p}")
        dims = {"linear": ("in_dim", "out_dim"), "conv3x3": ("in_ch", "out_ch"),
                "residual-block": ("in_ch", "out_ch") if self.block == "conv" else ("in_dim",)}
        for name in dims.get(self.kind, ()):
            value = getattr(self, name)
            if value is None or value < 1:
                raise ValueError(f"{self.kind} layer needs {name} >= 1, got {value}")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description: body layers, head, variant tag, shapes, and
    the dtype of its body (float64 unless a preset says otherwise).
    :func:`forward_range` casts what enters the body to it, and the
    activations, their gradients, the dropout masks and the arithmetic of
    every body op follow from the input to the end of the body; its linear
    layers and convolutions cast their weights and biases to it. The
    parameters, their gradients, the head and the loss are float64."""

    layers: tuple[LayerSpec, ...]
    n_classes: int
    input_shape: tuple[int, ...]
    variant: str
    backbone: str
    dtype: str = "float64"

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
    if spec.dtype not in DTYPES:
        raise ValueError(f"unknown dtype {spec.dtype!r}, expected one of {DTYPES}")
    infer_shapes(spec)  # raises on inconsistent shapes
    _ = spec.feature_dim

    body = [layer for layer in spec.layers if layer.kind != "dropout"]
    expected = [layer.kind for layer in _place_dropout(body, spec.variant, 0.0)]
    found = [layer.kind for layer in spec.layers]
    if found != expected:
        raise ValueError(f"{spec.variant} dropout placement: expected {expected}, found {found}")


def _place_dropout(body, variant: str, p: float) -> tuple[LayerSpec, ...]:
    """The variant's dropout placement on a dropout-free ``body``: bayesian2
    puts a dropout before every residual block, and both MC variants put one
    after the last body layer, just before the head."""
    drop = LayerSpec("dropout", p=p)
    layers: list[LayerSpec] = []
    for layer in body:
        if variant == "bayesian2" and layer.kind == "residual-block":
            layers.append(drop)
        layers.append(layer)
    if variant in MC_VARIANTS:
        layers.append(drop)
    return tuple(layers)


# -- presets -----------------------------------------------------------------


def mlp_spec(input_dim: int, n_classes: int = 4, variant: str = "baseline",
             hidden: int = 64, p: float = 0.5) -> ModelSpec:
    """Vector-input backbone: stem linear + 2 residual fc blocks.

    The body runs in float32 (``dtype``), as the MiniResNet's does: its
    activations, their gradients and the dropout masks are float32 from the
    input to the features, and each linear layer casts its float64 weight
    and bias to float32. The parameters, their gradients, Adam's state, the
    head outputs and the loss stay float64.
    """
    body = [LayerSpec("linear", in_dim=input_dim, out_dim=hidden), LayerSpec("relu")]
    body += [LayerSpec("residual-block", block="fc", in_dim=hidden)] * 2
    spec = ModelSpec(_place_dropout(body, variant, p), n_classes, (input_dim,), variant, "mlp",
                     dtype="float32")
    validate_spec(spec)
    return spec


def miniresnet_spec(input_shape: tuple[int, int, int] = (1, 16, 16), n_classes: int = 4,
                    variant: str = "baseline", p: float = 0.5,
                    channels: tuple[int, int, int] = (8, 16, 16)) -> ModelSpec:
    """Small residual CNN: conv stem, three residual blocks, global pooling.

    Blocks are conv-relu-conv plus an identity shortcut (1x1 projection when
    the channel count changes), relu after the add. Stride 1 throughout, so
    every block preserves the spatial size. The body runs in float32
    (``dtype``): the activations, their gradients and the dropout
    masks are float32 from the input to the pooled features, and the
    convolutions compute in float32 because their inputs are. The
    parameters, their gradients, Adam's state, the head outputs and the
    loss stay float64.
    """
    body = [LayerSpec("conv3x3", in_ch=input_shape[0], out_ch=channels[0]), LayerSpec("relu")]
    body += [LayerSpec("residual-block", block="conv", in_ch=cin, out_ch=cout)
             for cin, cout in zip((channels[0], *channels), channels)]
    body.append(LayerSpec("global-avg-pool"))
    spec = ModelSpec(_place_dropout(body, variant, p), n_classes, tuple(input_shape),
                     variant, "miniresnet", dtype="float32")
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


def _param_groups(spec: ModelSpec) -> list[tuple[str, list]]:
    """The parameter table in init-stream order: one ``(name prefix,
    [(weight name, shape, fan_in)])`` group per parameterized body layer,
    then ``head.fc``, or ``head.mu`` and ``head.logvar``; every weight
    ``<name>.w`` has a bias ``<name>.b``."""
    groups = []
    for i, layer in enumerate(spec.layers):
        if layer.kind == "linear":
            weights = [("w", (layer.in_dim, layer.out_dim), layer.in_dim)]
        elif layer.kind == "conv3x3":
            weights = [("w", (layer.out_ch, layer.in_ch, 3, 3), layer.in_ch * 9)]
        elif layer.kind == "residual-block" and layer.block == "conv":
            weights = [("conv1.w", (layer.out_ch, layer.in_ch, 3, 3), layer.in_ch * 9),
                       ("conv2.w", (layer.out_ch, layer.out_ch, 3, 3), layer.out_ch * 9)]
            if layer.in_ch != layer.out_ch:
                weights.append(("proj.w", (layer.out_ch, layer.in_ch, 1, 1), layer.in_ch))
        elif layer.kind == "residual-block":
            d = layer.in_dim
            weights = [("fc1.w", (d, d), d), ("fc2.w", (d, d), d)]
        else:
            continue
        groups.append((f"body.{i}", weights))
    feat = spec.feature_dim
    heads = ("fc",) if spec.head == "standard" else ("mu", "logvar")
    groups += [(f"head.{h}", [("w", (feat, spec.n_classes), feat)]) for h in heads]
    return groups


def param_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in init order: each weight of the
    parameter table followed by its bias, which is sized by the weight's
    output axis (the last of a matmul weight, the first of a conv weight)."""
    shapes: dict[str, tuple[int, ...]] = {}
    for prefix, weights in _param_groups(spec):
        for name, shape, _ in weights:
            shapes[f"{prefix}.{name}"] = shape
            shapes[f"{prefix}.{name[:-1]}b"] = (shape[-1] if len(shape) == 2 else shape[0],)
    return shapes


def build_model(spec: ModelSpec, seed: int) -> ModelParams:
    """He-initialized parameters, deterministic in (spec, seed).

    Weights are zero-mean Gaussian with variance 2/fan_in, biases zero.
    Each group of the parameter table draws from its own stream keyed by
    its ordinal, so variants that differ only in (parameter-free) dropout
    placement get bit-identical tensors.
    """
    validate_spec(spec)
    # zeros in init order; the loop replaces each weight, so only biases stay zero
    tensors = {name: _zeros(shape) for name, shape in param_shapes(spec).items()}
    for ordinal, (prefix, weights) in enumerate(_param_groups(spec)):
        gen = _rng.stream(seed, _rng.NS_INIT, ordinal)
        for name, shape, fan_in in weights:
            tensors[f"{prefix}.{name}"] = _he_weight(gen, shape, fan_in)
    return ModelParams(tensors, int(seed))


# -- forward -----------------------------------------------------------------


def dropout(x: Tensor, p: float, gen: np.random.Generator | None) -> Tensor:
    """Inverted dropout: zero each element with probability p, scale survivors.

    Masks are drawn from ``gen`` in ``x``'s dtype; without a stream (or at
    p = 0) dropout is the identity.
    """
    if not (0.0 <= p < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if gen is None or p == 0.0:
        return x
    keep = (gen.random(x.shape) >= p).astype(x.data.dtype)
    keep /= 1.0 - p
    return x * Tensor(keep)


def _as_batch(x, input_shape: tuple[int, ...]) -> Tensor:
    t = x if isinstance(x, Tensor) else Tensor(x)
    if t.shape == tuple(input_shape):
        t = t.reshape((1,) + tuple(input_shape))
    elif t.shape[1:] != tuple(input_shape):
        raise ShapeError(f"input shape {t.shape} does not match model input {input_shape}")
    return t


def _linear(params: ModelParams, prefix: str, h: Tensor) -> Tensor:
    """``h @ w + b`` for the body parameters ``<prefix>.w`` and ``<prefix>.b``,
    cast to the dtype of ``h``, so a float32 body multiplies in float32
    (``tensor._row_matmul``'s fixed-height tiles); ``_cast`` is the
    identity in a float64 body."""
    return h @ _cast(params[f"{prefix}.w"], h.dtype) + _cast(params[f"{prefix}.b"], h.dtype)


def _residual_block(params: ModelParams, prefix: str, layer: LayerSpec, h: Tensor) -> Tensor:
    if layer.block == "conv":
        y = conv2d(h, params[f"{prefix}.conv1.w"], params[f"{prefix}.conv1.b"]).relu()
        y = conv2d(y, params[f"{prefix}.conv2.w"], params[f"{prefix}.conv2.b"])
        if layer.in_ch != layer.out_ch:
            shortcut = conv2d(h, params[f"{prefix}.proj.w"], params[f"{prefix}.proj.b"], padding=0)
        else:
            shortcut = h
        return (y + shortcut).relu()
    y = _linear(params, f"{prefix}.fc1", h).relu()
    return (_linear(params, f"{prefix}.fc2", y) + h).relu()


def forward_range(params: ModelParams, spec: ModelSpec, h, start: int, stop: int,
                  pass_rng: _rng.PassRng | None = None) -> Tensor:
    """Run body layers ``start`` .. ``stop - 1`` on the activations ``h``.

    ``h`` is what enters layer ``start``: the model input (one example or a
    batch) when ``start`` is 0, else the output of ``forward_range(..., start)``.
    Dropout masks come from ``pass_rng.layer(i)`` for absolute layer index i,
    so splitting a pass into consecutive ranges changes no bit of its output.
    Without a ``pass_rng`` every dropout is the identity. Whatever enters
    the range is cast to ``spec.dtype``, at any ``start``, so every
    activation of the range has that dtype and each op on it, the linear
    layers and convolutions included, computes in it.
    """
    if not 0 <= start <= stop <= len(spec.layers):
        raise ValueError(f"layer range [{start}, {stop}) is outside 0..{len(spec.layers)}")
    h = _cast(_as_batch(h, spec.input_shape) if start == 0 else h, spec.dtype)
    for i in range(start, stop):
        layer = spec.layers[i]
        prefix = f"body.{i}"
        if layer.kind == "linear":
            h = _linear(params, prefix, h)
        elif layer.kind == "conv3x3":
            h = conv2d(h, params[f"{prefix}.w"], params[f"{prefix}.b"])
        elif layer.kind == "relu":
            h = h.relu()
        elif layer.kind == "global-avg-pool":
            h = global_avg_pool(h)
        elif layer.kind == "dropout":
            gen = pass_rng.layer(i) if (pass_rng is not None and layer.p > 0) else None
            h = dropout(h, layer.p, gen)
        elif layer.kind == "residual-block":
            h = _residual_block(params, prefix, layer, h)
    return h


def body_forward(params: ModelParams, spec: ModelSpec, x,
                 pass_rng: _rng.PassRng | None = None) -> Tensor:
    """Run the body layers, returning the [batch, feature_dim] features."""
    return forward_range(params, spec, x, 0, len(spec.layers), pass_rng)


def head_forward(params: ModelParams, spec: ModelSpec, h: Tensor) -> tuple[Tensor, Tensor | None]:
    """The head on [batch, feature_dim] features: ``(logits, None)`` for the
    standard head, ``(mu, log sigma^2)`` for the variational head, with
    log sigma^2 clipped to [LOGVAR_MIN, LOGVAR_MAX]."""
    if spec.head == "standard":
        return h @ params["head.fc.w"] + params["head.fc.b"], None
    mu = h @ params["head.mu.w"] + params["head.mu.b"]
    logvar = (h @ params["head.logvar.w"] + params["head.logvar.b"]).clip(LOGVAR_MIN, LOGVAR_MAX)
    return mu, logvar


def model_forward(params: ModelParams, spec: ModelSpec, x,
                  pass_rng: _rng.PassRng | None = None) -> Tensor:
    """Forward pass to [batch, n_classes] logits (standard-head variants).

    Variational models produce a (mu, log sigma^2) pair instead of logits;
    use :func:`head_forward` (graph mode) or :func:`eval_heads` (arrays).
    """
    if spec.head != "standard":
        raise ValueError("model_forward handles standard-head variants; use head_forward "
                         "or eval_heads for the variational variant")
    logits, _ = head_forward(params, spec, body_forward(params, spec, x, pass_rng))
    return logits


# -- row-blocked evaluation ----------------------------------------------------


def _example_bytes(spec: ModelSpec) -> int:
    """Bytes of the largest per-example layer activation of a forward pass.

    A conv's im2col patches do not count: :func:`conv2d` builds them in row
    chunks under its own byte budget, in the forward and the backward alike,
    and never holds a whole patch matrix. It counts 8 bytes a float
    whatever ``spec.dtype``: exact for a float64 body and twice the bytes
    of a float32 one. Counting the body's itemsize doubled the MiniResNet's
    blocks and made its MC evaluation slower, and the MLP's blocks are
    already whole ``_ROW_ALIGN`` tiles of its float32 products."""
    return 8 * max(math.prod(shape) for shape in infer_shapes(spec))


def _budget_rows(row_bytes: int) -> int:
    """Rows per block for rows of ``row_bytes`` bytes: the evaluation byte
    budget over ``row_bytes``, rounded down to the row alignment."""
    return _chunk_rows(_BLOCK_BYTES, row_bytes)


def block_rows(spec: ModelSpec) -> int:
    """Rows per evaluation block: the byte budget over the largest
    per-example activation, rounded down to the row alignment."""
    return _budget_rows(_example_bytes(spec))


def row_blocks(spec: ModelSpec, x) -> list[tuple[slice, Tensor]]:
    """Split the input batch ``x`` (or one example) into consecutive row blocks.

    Returns ``(rows, block)`` pairs covering the batch in order, each block
    a view of :func:`block_rows` rows, except that a tail shorter than half
    a block joins the block before it (``tensor._row_chunks``). Every
    no-grad forward runs through this split, so its peak memory depends on
    the spec, not on the batch size, and concatenating the block outputs
    reproduces the unblocked forward bit for bit.
    """
    x = _as_batch(x, spec.input_shape)
    chunks = _row_chunks(x.shape[0], block_rows(spec))
    if len(chunks) == 1:
        return [(chunks[0], x)]
    return [(rows, Tensor(x.data[rows])) for rows in chunks]


def eval_heads(params: ModelParams, spec: ModelSpec, x) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`head_forward` of the deterministic forward as [batch, n_classes]
    arrays, computed in row blocks with no graph recording. Each block's
    head outputs are checked for NaN/Inf once, not each op
    (``tensor._run_deferred``)."""
    with no_grad():
        heads = [_run_deferred(lambda: head_forward(params, spec, body_forward(params, spec, xb)),
                               ("head output", "head log-variance"))
                 for _, xb in row_blocks(spec, x)]
    out = np.concatenate([o.data for o, _ in heads])
    if heads[0][1] is None:
        return out, None
    return out, np.concatenate([logvar.data for _, logvar in heads])
