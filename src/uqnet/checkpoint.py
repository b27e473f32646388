"""Model checkpoint archive: one file holding spec, parameters, metadata.

Byte layout (documented in docs/checkpoint_format.md; round-trips must be
bit-exact):

    bytes 0..7    magic b"UQNNCKP1"
    bytes 8..15   header length L, unsigned 64-bit little-endian
    bytes 16..16+L  UTF-8 JSON header: {"format": 1, "spec": {...},
                    "meta": {...}, "arrays": [{"name", "shape"}, ...]}
    remainder     parameter payloads: for each entry of "arrays" in order,
                  the row-major float64 little-endian bytes of that tensor.

Array entries are sorted by name. Writes go to a temp file in the target
directory followed by an atomic rename, so an interrupted run never leaves
a truncated checkpoint behind.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

import numpy as np

from .layers import LayerSpec, ModelParams, ModelSpec, param_shapes, validate_spec
from .tensor import Tensor

MAGIC = b"UQNNCKP1"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Malformed checkpoint file."""


def spec_to_dict(spec: ModelSpec) -> dict:
    layers = []
    for layer in spec.layers:
        d = {k: v for k, v in asdict(layer).items() if v is not None}
        layers.append(d)
    out = {
        "layers": layers,
        "n_classes": spec.n_classes,
        "input_shape": list(spec.input_shape),
        "variant": spec.variant,
        "backbone": spec.backbone,
    }
    # written only when it is not the default, so float64 headers (hand-built
    # specs, and every file from before the key existed) keep their bytes
    if spec.dtype != "float64":
        out["dtype"] = spec.dtype
    return out


def spec_from_dict(d: dict) -> ModelSpec:
    layers = tuple(LayerSpec(**entry) for entry in d["layers"])
    spec = ModelSpec(
        layers=layers,
        n_classes=int(d["n_classes"]),
        input_shape=tuple(int(v) for v in d["input_shape"]),
        variant=d["variant"],
        backbone=d["backbone"],
        # files written before the key's rename hold ``conv_dtype``
        dtype=d.get("dtype", d.get("conv_dtype", "float64")),
    )
    validate_spec(spec)
    return spec


def save_checkpoint(path: str, spec: ModelSpec, params: ModelParams, meta: dict | None = None) -> None:
    """Write spec + parameters + metadata atomically to ``path``."""
    meta = dict(meta or {})
    meta.setdefault("seed", params.seed)
    names = sorted(params.tensors)
    header = {
        "format": FORMAT_VERSION,
        "spec": spec_to_dict(spec),
        "meta": meta,
        "arrays": [{"name": n, "shape": list(params.tensors[n].shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")

    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for n in names:
            fh.write(np.ascontiguousarray(params.tensors[n].data, dtype="<f8").tobytes())
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: str) -> tuple[ModelSpec, ModelParams, dict]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: bad magic at offset 0, expected {MAGIC!r}, got {raw[:8]!r}")
    header_len = int.from_bytes(raw[8:16], "little")
    if 16 + header_len > len(raw):
        raise CheckpointError(f"{path}: header length {header_len} exceeds file size {len(raw)}")
    try:
        header = json.loads(raw[16:16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: unreadable header: {e}") from e
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("format") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format {header.get('format')!r}")

    try:
        spec = spec_from_dict(header["spec"])
        meta = header.get("meta", {})
        seed = int(meta.get("seed", 0))
        arrays = [(str(e["name"]), tuple(int(v) for v in e["shape"])) for e in header["arrays"]]
    except KeyError as e:
        raise CheckpointError(f"{path}: malformed header: missing key {e}") from e
    except (TypeError, ValueError, AttributeError) as e:
        raise CheckpointError(f"{path}: malformed header: {e}") from e

    offset = 16 + header_len
    tensors: dict[str, Tensor] = {}
    for name, shape in arrays:
        nbytes = int(np.prod(shape, dtype=np.int64)) * 8 if shape else 8
        chunk = raw[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"{path}: truncated payload for {name!r} at offset {offset}")
        arr = np.frombuffer(chunk, dtype="<f8").astype(np.float64).reshape(shape)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: array {name!r} is not finite")
        tensors[name] = Tensor(arr, requires_grad=True)
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes after payload")
    expected = param_shapes(spec)
    for name in sorted(expected.keys() | tensors.keys()):
        if name not in tensors:
            raise CheckpointError(f"{path}: missing array {name!r}")
        if name not in expected:
            raise CheckpointError(f"{path}: array {name!r} is not a parameter of its spec")
        if tensors[name].shape != expected[name]:
            raise CheckpointError(f"{path}: array {name!r} has shape {tensors[name].shape}, "
                                  f"its spec needs {expected[name]}")

    params = ModelParams(tensors, seed)
    return spec, params, meta
