"""Synthetic datasets, CSV/IDX ingestion, and deterministic stratified splits.

The synthetic generators are controlled-ambiguity stand-ins for a real
image corpus: ``synth_blobs`` draws Gaussian clusters whose centers move
together as ``overlap`` rises (so the Bayes error is tunable), and
``synth_textures`` produces four procedural 2-d texture families whose
``noise`` level plays the same role for the convolutional backbone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import rng as _rng

# center radius of the blob classes at overlap 0; chosen so overlap 0 is
# separable at >99% accuracy and overlap 1 collapses to chance
_BLOB_RADIUS = 4.0

TEXTURE_CLASSES = ("h-stripes", "v-stripes", "blob", "checker")

# texture patterns span mid-gray contrast rather than the full [0, 1] range:
# additive Gaussian noise then blurs class evidence instead of being clipped
# away, which is what makes `noise` behave like case ambiguity
_TEX_LO = 0.25
_TEX_HI = 0.75


class DataError(ValueError):
    """Malformed dataset file."""


@dataclass
class Dataset:
    inputs: np.ndarray          # [N, ...] float64
    labels: np.ndarray          # [N] int64 in [0, n_classes)
    class_names: list[str]

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.inputs) < 1:
            raise DataError("dataset must contain at least one example")
        if len(self.labels) != len(self.inputs):
            raise DataError(f"{len(self.inputs)} inputs but {len(self.labels)} labels")
        if not np.all(np.isfinite(self.inputs)):
            raise DataError("dataset inputs contain non-finite values")
        if self.labels.min() < 0 or self.labels.max() >= len(self.class_names):
            raise DataError(f"labels must lie in [0, {len(self.class_names)})")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def input_shape(self) -> tuple[int, ...]:
        return self.inputs.shape[1:]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.inputs[idx], self.labels[idx], list(self.class_names))

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)


@dataclass(frozen=True)
class SplitSpec:
    train: float = 0.7
    val: float = 0.15
    test: float = 0.15
    seed: int = 0

    def fractions(self) -> tuple[float, float, float]:
        return (self.train, self.val, self.test)


# -- synthetic generators ------------------------------------------------------


def synth_blobs(n: int, n_classes: int = 4, overlap: float = 0.5, dim: int = 2,
                seed: int = 0) -> Dataset:
    """Gaussian clusters on a circle whose radius shrinks as overlap -> 1.

    Unit-variance clusters; at overlap 0 the classes are separable by a
    linear classifier at >=99% accuracy, at overlap 1 the centers coincide
    and labels carry no information.
    """
    if n < n_classes:
        raise ValueError(f"need n >= n_classes, got n={n}, n_classes={n_classes}")
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if not (0.0 <= overlap <= 1.0):
        raise ValueError(f"overlap must lie in [0, 1], got {overlap}")

    gen = np.random.default_rng(seed)
    radius = _BLOB_RADIUS * (1.0 - overlap)
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    centers = np.zeros((n_classes, dim))
    centers[:, 0] = radius * np.cos(angles)
    centers[:, 1] = radius * np.sin(angles)

    labels = np.arange(n, dtype=np.int64) % n_classes
    points = centers[labels] + gen.standard_normal((n, dim))
    order = gen.permutation(n)
    return Dataset(points[order], labels[order], [f"class{k}" for k in range(n_classes)])


def _texture(kind: int, grid: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """One texture of family ``kind`` on ``grid``, the ``np.mgrid`` of its size."""
    period = 4
    yy, xx = grid
    size = yy.shape[0]
    if kind == 0:    # horizontal stripes: rows constant, alternating down columns
        phase = int(gen.integers(0, period))
        base = (((yy + phase) // period) % 2).astype(np.float64)
    elif kind == 1:  # vertical stripes
        phase = int(gen.integers(0, period))
        base = (((xx + phase) // period) % 2).astype(np.float64)
    elif kind == 2:  # radial blob with jittered center and radius
        cy = size / 2.0 + gen.uniform(-size / 8, size / 8)
        cx = size / 2.0 + gen.uniform(-size / 8, size / 8)
        r = size / 5.0 * gen.uniform(0.8, 1.2)
        base = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * r * r))
    else:            # checkerboard
        py, px = int(gen.integers(0, period)), int(gen.integers(0, period))
        base = ((((yy + py) // period) + ((xx + px) // period)) % 2).astype(np.float64)
    return _TEX_LO + (_TEX_HI - _TEX_LO) * base


def synth_textures(n: int, n_classes: int = 4, size: int = 16, noise: float = 0.0,
                   seed: int = 0) -> Dataset:
    """Procedural texture families as [N, 1, size, size] images in [0, 1].

    Pixels are quantized to the 8-bit grid (multiples of 1/255) so the
    generated data round-trips exactly through IDX storage.
    """
    if size < 8:
        raise ValueError(f"size must be >= 8, got {size}")
    if not (2 <= n_classes <= len(TEXTURE_CLASSES)):
        raise ValueError(f"n_classes must be in [2, {len(TEXTURE_CLASSES)}]")
    if n < n_classes:
        raise ValueError(f"need n >= n_classes, got n={n}")
    if noise < 0:
        raise ValueError("noise must be nonnegative")

    gen = np.random.default_rng(seed)
    labels = np.arange(n, dtype=np.int64) % n_classes
    images = np.empty((n, 1, size, size))
    grid = np.mgrid[0:size, 0:size]
    for i in range(n):
        img = _texture(int(labels[i]), grid, gen)
        if noise > 0:
            img = img + gen.normal(0.0, noise, size=(size, size))
        img = np.clip(img, 0.0, 1.0)
        images[i, 0] = np.round(img * 255.0) / 255.0
    order = gen.permutation(n)
    return Dataset(images[order], labels[order], list(TEXTURE_CLASSES[:n_classes]))


# -- CSV ------------------------------------------------------------------------


def save_csv(ds: Dataset, path: str) -> None:
    """Write a flat CSV: header f0..f{D-1},label; float64 values round-trip."""
    flat = ds.inputs.reshape(ds.n, -1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join([f"f{j}" for j in range(flat.shape[1])] + ["label"]) + "\n")
        for row, label in zip(flat, ds.labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{int(label)}\n")


def load_csv(path: str, label_column: str = "label") -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln != ""]
    if not lines:
        raise DataError(f"{path}: no records")
    header = lines[0].split(",")
    if label_column not in header:
        raise DataError(f"{path}: no column named {label_column!r} in header")
    if len(lines) == 1:
        raise DataError(f"{path}: no records")
    label_idx = header.index(label_column)
    feature_idx = [j for j in range(len(header)) if j != label_idx]

    rows = []
    labels = []
    for lineno, ln in enumerate(lines[1:], start=2):
        fields = ln.split(",")
        if len(fields) != len(header):
            raise DataError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(fields)}")
        try:
            values = [float(fields[j]) for j in feature_idx]
            raw_label = float(fields[label_idx])
        except ValueError as e:
            raise DataError(f"{path}: line {lineno}: {e}") from e
        if not raw_label.is_integer():   # inf and nan included
            raise DataError(f"{path}: line {lineno}: label {fields[label_idx]!r} is not an integer")
        rows.append(values)
        labels.append(int(raw_label))

    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0:
        raise DataError(f"{path}: negative label {labels.min()}")
    n_classes = int(labels.max()) + 1
    return Dataset(np.asarray(rows), labels, [f"class{k}" for k in range(n_classes)])


# -- IDX --------------------------------------------------------------------------

_IDX_UBYTE = 0x08


def _idx_magic(n_dims: int) -> bytes:
    return bytes([0, 0, _IDX_UBYTE, n_dims])


def save_idx(ds: Dataset, images_path: str, labels_path: str) -> None:
    """Write IDX image/label files (big-endian dims, unsigned byte data).

    Pixel values must already lie on the 8-bit grid in [0, 1]; IDX storage
    is exact only for such data, so anything else is rejected rather than
    silently quantized.
    """
    imgs = ds.inputs
    if imgs.ndim == 4 and imgs.shape[1] == 1:
        imgs = imgs[:, 0]
    if imgs.ndim != 3:
        raise ValueError(f"IDX images need [N, H, W] or [N, 1, H, W] inputs, got {ds.inputs.shape}")
    if imgs.min() < 0.0 or imgs.max() > 1.0:
        raise ValueError("IDX pixel values must lie in [0, 1]")
    scaled = imgs * 255.0
    if np.abs(scaled - np.round(scaled)).max() > 1e-6:
        raise ValueError("IDX pixel values must be multiples of 1/255 (8-bit grid)")
    if ds.labels.max() > 255:
        raise ValueError("IDX labels must fit in one byte")

    n, h, w = imgs.shape
    with open(images_path, "wb") as fh:
        fh.write(_idx_magic(3))
        for d in (n, h, w):
            fh.write(int(d).to_bytes(4, "big"))
        fh.write(np.round(scaled).astype(np.uint8).tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(_idx_magic(1))
        fh.write(int(n).to_bytes(4, "big"))
        fh.write(ds.labels.astype(np.uint8).tobytes())


def _read_idx(path: str, expect_dims: int) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise DataError(f"{path}: file too short for an IDX header")
    if raw[0] != 0 or raw[1] != 0:
        raise DataError(f"{path}: bad IDX magic at offset 0: {raw[:4].hex()}")
    if raw[2] != _IDX_UBYTE:
        raise DataError(f"{path}: unsupported IDX type code 0x{raw[2]:02x} at offset 2 "
                        f"(only unsigned byte 0x08 is supported)")
    n_dims = raw[3]
    if n_dims != expect_dims:
        raise DataError(f"{path}: expected {expect_dims} dimensions, got {n_dims} at offset 3")
    header_end = 4 + 4 * n_dims
    if len(raw) < header_end:
        raise DataError(f"{path}: truncated dimension header at offset {len(raw)}")
    dims = [int.from_bytes(raw[4 + 4 * i:8 + 4 * i], "big") for i in range(n_dims)]
    expected = int(np.prod(dims))
    body = raw[header_end:]
    if len(body) != expected:
        raise DataError(f"{path}: payload holds {len(body)} bytes, header promises {expected} "
                        f"(offset {header_end})")
    return np.frombuffer(body, dtype=np.uint8).reshape(dims)


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load an IDX image/label pair; pixels rescaled to [0, 1] float64."""
    images = _read_idx(images_path, 3)
    labels = _read_idx(labels_path, 1)
    if images.shape[0] != labels.shape[0]:
        raise DataError(f"{images_path} holds {images.shape[0]} images but "
                        f"{labels_path} holds {labels.shape[0]} labels")
    inputs = images.astype(np.float64)[:, None, :, :] / 255.0
    n_classes = int(labels.max()) + 1
    return Dataset(inputs, labels.astype(np.int64), [f"class{k}" for k in range(n_classes)])


# -- splitting ---------------------------------------------------------------------


def _largest_remainder(total: int, fractions) -> list[int]:
    ideal = [total * f for f in fractions]
    counts = [int(np.floor(v)) for v in ideal]
    remainders = [v - c for v, c in zip(ideal, counts)]
    leftover = total - sum(counts)
    for j in sorted(range(len(fractions)), key=lambda j: (-remainders[j], j))[:leftover]:
        counts[j] += 1
    return counts


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Stratified, deterministic (train, val, test) split.

    Disjoint and exhaustive; each class is allocated its floor share per
    split, with leftovers placed by largest remainder subject to the global
    split sizes, so per-class counts deviate from proportionality by at most
    one when the arithmetic is exact.
    """
    fractions = spec.fractions()
    if any(f < 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must be nonnegative and sum to 1, got {fractions}")
    totals = _largest_remainder(ds.n, fractions)
    for name, size in zip(("train", "val", "test"), totals):
        if size == 0:
            raise ValueError(f"the {name} split would be empty (fractions {fractions}, n={ds.n})")

    per_class_idx = []
    for c in range(ds.n_classes):
        idx = np.flatnonzero(ds.labels == c)
        gen = _rng.stream(spec.seed, _rng.NS_SPLIT, c)
        per_class_idx.append(idx[gen.permutation(len(idx))])

    floors = np.zeros((ds.n_classes, 3), dtype=int)
    remainders = np.zeros((ds.n_classes, 3))
    for c, idx in enumerate(per_class_idx):
        for s, f in enumerate(fractions):
            ideal = len(idx) * f
            floors[c, s] = int(np.floor(ideal))
            remainders[c, s] = ideal - floors[c, s]

    deficits = np.asarray(totals) - floors.sum(axis=0)
    alloc = floors.copy()
    for c in range(ds.n_classes):
        leftover = len(per_class_idx[c]) - floors[c].sum()
        for _ in range(leftover):
            candidates = [s for s in range(3) if deficits[s] > 0 and alloc[c, s] == floors[c, s]]
            if not candidates:  # fall back if the balanced choice is exhausted
                candidates = [s for s in range(3) if deficits[s] > 0]
            s = max(candidates, key=lambda s: (remainders[c, s], -s))
            alloc[c, s] += 1
            deficits[s] -= 1

    parts: list[list[np.ndarray]] = [[], [], []]
    for c, idx in enumerate(per_class_idx):
        start = 0
        for s in range(3):
            parts[s].append(idx[start:start + alloc[c, s]])
            start += alloc[c, s]

    out = []
    for s in range(3):
        merged = np.sort(np.concatenate(parts[s])) if parts[s] else np.array([], dtype=int)
        out.append(ds.subset(merged))
    return out[0], out[1], out[2]


def splits_sha256(splits) -> str:
    """sha256 over the shapes, inputs and labels of each split, in order.

    Inputs hash as little-endian float64 and labels as little-endian int64,
    so the digest depends on the data alone, not on the machine.
    """
    h = hashlib.sha256()
    for ds in splits:
        for arr, dtype in ((ds.inputs, "<f8"), (ds.labels, "<i8")):
            h.update(repr(arr.shape).encode())
            h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()
