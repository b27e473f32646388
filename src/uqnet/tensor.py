"""Reverse-mode automatic differentiation over numpy float64 arrays.

The engine is eager: each operation executes immediately and records an
operation node (parent tensors plus a gradient closure) on the result.
Calling :meth:`Tensor.backward` on a scalar output replays the recorded
graph once in reverse topological order, so every node is visited exactly
once and a value used k times accumulates the sum of its k path gradients.

Deliberate restrictions, chosen for the small models this library trains:

* float64 everywhere;
* broadcasting is limited to (scalar op tensor) and rank-1 bias addition
  along the last axis -- anything else raises :class:`ShapeError`;
* every operation checks its result for NaN/Inf and raises
  :class:`NonFiniteError` naming the offending op and node (toggleable via
  :func:`set_finite_checks`).
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "NonFiniteError",
    "ShapeError",
    "no_grad",
    "set_finite_checks",
    "finite_checks_enabled",
    "finite_checks",
    "conv2d",
    "global_avg_pool",
    "cross_entropy",
    "check_gradient",
]


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf while finite checks were enabled."""


class ShapeError(ValueError):
    """Operand shapes fall outside the supported broadcasting rules."""


_node_counter = itertools.count()

_tls = threading.local()

_FINITE_CHECKS = True


def _grad_enabled() -> bool:
    return getattr(_tls, "grad_enabled", True)


@contextmanager
def no_grad():
    """Disable graph recording in the current thread for the duration."""
    prev = _grad_enabled()
    _tls.grad_enabled = False
    try:
        yield
    finally:
        _tls.grad_enabled = prev


def set_finite_checks(enabled: bool) -> None:
    """Globally enable or disable NaN/Inf detection on op results."""
    global _FINITE_CHECKS
    _FINITE_CHECKS = bool(enabled)


def finite_checks_enabled() -> bool:
    return _FINITE_CHECKS


@contextmanager
def finite_checks(enabled: bool):
    prev = _FINITE_CHECKS
    set_finite_checks(enabled)
    try:
        yield
    finally:
        set_finite_checks(prev)


def _checked(data: np.ndarray, op: str, node_id: int) -> np.ndarray:
    if _FINITE_CHECKS and not np.all(np.isfinite(data)):
        raise NonFiniteError(f"op '{op}' produced non-finite values (node {node_id})")
    return data


class Tensor:
    """N-dimensional float64 array with optional gradient tracking.

    ``data`` is always a float64 ndarray; ``grad`` is None until a backward
    pass populates it, after which it has the same shape as ``data``.
    """

    __slots__ = ("data", "grad", "requires_grad", "node_id", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.node_id = next(_node_counter)
        self.op = "leaf"
        self._parents = ()
        self._backward = None
        _checked(self.data, "leaf", self.node_id)

    # -- basic protocol ----------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __float__(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        grad = ", grad" if self.grad is not None else ""
        return f"Tensor(shape={self.data.shape}, op={self.op!r}{grad})"

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph construction ------------------------------------------------

    def backward(self) -> None:
        """Populate ``grad`` on every tracked leaf this scalar depends on, and on
        the scalar itself.

        An intermediate op node's gradient is released as soon as its closure
        has passed it to the parents, so the backward holds the gradients of
        the frontier it is crossing, not of the whole graph.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar output, got shape {self.data.shape}")
        if not self.requires_grad:
            raise ValueError("output does not depend on any tensor with requires_grad=True")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                if node is not self:
                    node.grad = None   # passed on to its parents


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _tracks(parents: tuple) -> bool:
    """Whether an op on ``parents`` records a graph node (graph mode)."""
    return _grad_enabled() and any(p.requires_grad for p in parents)


def _from_op(data: np.ndarray, parents: tuple, op: str, backward) -> Tensor:
    track = _tracks(parents)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = track
    out.node_id = next(_node_counter)
    out.op = op
    out._parents = parents if track else ()
    out._backward = backward if track else None
    _checked(data, op, out.node_id)
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _is_scalar(a: np.ndarray) -> bool:
    return a.ndim == 0


def _is_bias(v: np.ndarray, m: np.ndarray) -> bool:
    """Whether ``v`` broadcasts over ``m`` as a rank-1 bias along its last axis."""
    return v.ndim == 1 and m.ndim >= 2 and m.shape[-1] == v.shape[0]


def _sum_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce the gradient ``g`` of a broadcast result to an operand's ``shape``:
    the same shape, a scalar, or a rank-1 bias along the last axis."""
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(g.sum())
    return g.reshape(-1, g.shape[-1]).sum(axis=0)


# -- arithmetic ops ---------------------------------------------------------


def _add(a: Tensor, b: Tensor) -> Tensor:
    A, B = a.data, b.data
    if not (A.shape == B.shape or _is_scalar(A) or _is_scalar(B)
            or _is_bias(A, B) or _is_bias(B, A)):
        raise ShapeError(f"add: unsupported shapes {A.shape} + {B.shape}")

    def back(g):
        _accumulate(a, _sum_to(g, A.shape))
        _accumulate(b, _sum_to(g, B.shape))

    return _from_op(A + B, (a, b), "add", back)


def _mul(a: Tensor, b: Tensor) -> Tensor:
    A, B = a.data, b.data
    if not (A.shape == B.shape or _is_scalar(A) or _is_scalar(B)):
        raise ShapeError(f"mul: unsupported shapes {A.shape} * {B.shape}")

    def back(g):
        _accumulate(a, _sum_to(g * B, A.shape))
        _accumulate(b, _sum_to(g * A, B.shape))

    return _from_op(A * B, (a, b), "mul", back)


def _matmul(a: Tensor, b: Tensor) -> Tensor:
    A, B = a.data, b.data
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ShapeError(f"matmul: expected 2-d operands with matching inner dim, got {A.shape} @ {B.shape}")

    def back(g):
        _accumulate(a, g @ B.T)
        _accumulate(b, A.T @ g)

    with np.errstate(over="ignore", invalid="ignore"):
        data = A @ B
    return _from_op(data, (a, b), "matmul", back)


def _ew_unary(x: Tensor, op: str, fwd, dfdx) -> Tensor:
    # non-finite results surface as NonFiniteError, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        data = fwd(x.data)

    def back(g):
        _accumulate(x, g * dfdx(x.data, data))

    return _from_op(data, (x,), op, back)


# attach operators to Tensor

def _t_add(self, other):
    return _add(self, _as_tensor(other))


def _t_radd(self, other):
    return _add(_as_tensor(other), self)


def _t_neg(self):
    return _ew_unary(self, "neg", lambda d: -d, lambda d, out: np.full_like(d, -1.0))


def _t_sub(self, other):
    return _add(self, _t_neg(_as_tensor(other)))


def _t_rsub(self, other):
    return _add(_as_tensor(other), _t_neg(self))


def _t_mul(self, other):
    return _mul(self, _as_tensor(other))


def _t_div(self, other):
    if isinstance(other, Tensor):
        if not _is_scalar(other.data):
            raise ShapeError("div: only division by a scalar is supported")
        inv = _ew_unary(other, "reciprocal", lambda d: 1.0 / d, lambda d, out: -1.0 / (d * d))
        return _mul(self, inv)
    return _mul(self, Tensor(1.0 / float(other)))


def relu(x: Tensor) -> Tensor:
    return _ew_unary(x, "relu", lambda d: np.maximum(d, 0.0), lambda d, out: d > 0)


def exp(x: Tensor) -> Tensor:
    return _ew_unary(x, "exp", np.exp, lambda d, out: out)


def log(x: Tensor) -> Tensor:
    return _ew_unary(x, "log", np.log, lambda d, out: 1.0 / d)


def square(x: Tensor) -> Tensor:
    return _ew_unary(x, "square", np.square, lambda d, out: 2.0 * d)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only through unclamped entries."""
    lo = float(lo)
    hi = float(hi)
    data = np.clip(x.data, lo, hi)

    def back(g):
        _accumulate(x, g * ((x.data >= lo) & (x.data <= hi)))

    return _from_op(data, (x,), "clip", back)


def tsum(x: Tensor) -> Tensor:
    data = np.asarray(x.data.sum())

    def back(g):
        _accumulate(x, np.broadcast_to(g, x.data.shape).copy())

    return _from_op(data, (x,), "sum", back)


def tmean(x: Tensor) -> Tensor:
    n = x.data.size
    data = np.asarray(x.data.mean())

    def back(g):
        _accumulate(x, np.broadcast_to(g / n, x.data.shape).copy())

    return _from_op(data, (x,), "mean", back)


def softmax(x: Tensor) -> Tensor:
    """Softmax along the last axis (numerically stable)."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        _accumulate(x, s * (g - dot))

    return _from_op(s, (x,), "softmax", back)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = x.data.reshape(shape)

    def back(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _from_op(data, (x,), "reshape", back)


Tensor.__add__ = _t_add
Tensor.__radd__ = _t_radd
Tensor.__neg__ = _t_neg
Tensor.__sub__ = _t_sub
Tensor.__rsub__ = _t_rsub
Tensor.__mul__ = _t_mul
Tensor.__rmul__ = _t_mul
Tensor.__truediv__ = _t_div
Tensor.__matmul__ = lambda self, other: _matmul(self, _as_tensor(other))
Tensor.relu = relu
Tensor.exp = exp
Tensor.log = log
Tensor.square = square
Tensor.clip = clip
Tensor.sum = tsum
Tensor.mean = tmean
Tensor.softmax = softmax
Tensor.reshape = lambda self, *shape: reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)


# -- row chunks --------------------------------------------------------------

# Row chunks of a product start on multiples of this many rows. BLAS tiles
# the rows of a product from its first row and sends a one-row product to
# gemv, so aligned chunks keep every output row bit-identical to the
# unchunked product (measured with OpenBLAS on the mlp and miniresnet preset
# shapes). ``layers.row_blocks`` and graph-mode ``conv2d`` both chunk by it.
_ROW_ALIGN = 16
# A graph-mode conv2d forward multiplies its im2col patches in row chunks of
# about this many bytes, so no more than one chunk of patches exists at once.
_CONV_CHUNK_BYTES = 2 << 20


def _chunk_rows(budget: int, row_bytes: int) -> int:
    """Rows per chunk: the byte budget over the bytes of one row, rounded
    down to the row alignment, and at least one alignment."""
    return max(budget // row_bytes // _ROW_ALIGN * _ROW_ALIGN, _ROW_ALIGN)


def _row_chunks(n: int, rows: int) -> list[slice]:
    """Consecutive slices of ``rows`` rows covering ``n`` rows in order,
    except that a tail shorter than half a chunk joins the chunk before it:
    BLAS may round a small product through a different kernel than a large one."""
    starts = range(0, n - rows // 2 + 1, rows)
    if len(starts) <= 1:
        return [slice(0, n)]
    return [slice(lo, hi) for lo, hi in zip(starts, [*starts[1:], n])]


# -- convolution and pooling -------------------------------------------------


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, padding: int | None = None) -> Tensor:
    """2-d convolution, stride 1.

    ``x`` is [N, Cin, H, W], ``weight`` [Cout, Cin, k, k] with odd k, and
    ``bias`` [Cout]. Default padding k//2 keeps the spatial size.

    Shapes are NCHW, but the kernel works channels-last in memory: the
    padded input and the output buffer are [N, H, W, C], the im2col
    patches are [N*Ho*Wo, k*k*Cin] rows with Cin innermost, and the result
    is an NCHW view of the output buffer. An input in either memory layout
    is accepted; the padding copy converts it.

    In graph mode the node keeps only its input, which its parent holds
    anyway: the forward builds the patches one row chunk of about
    ``_CONV_CHUNK_BYTES`` at a time, each chunk's product filling its own
    rows of the output, and the backward rebuilds all the patches from
    ``x.data`` for the weight gradient. The chunks start on ``_ROW_ALIGN``
    rows, and they are the same patches in the same order, so the output and
    every gradient are bit-identical to one GEMM over kept patches, at the
    cost of one more im2col copy per backward and no extra GEMM. The no-grad
    forward, which ``layers.row_blocks`` already bounds, multiplies all its
    patches at once.
    """
    X, W, B = x.data, weight.data, bias.data
    if X.ndim != 4 or W.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-d input/weight, got {X.shape} and {W.shape}")
    cout, cin, k, k2 = W.shape
    if k != k2 or k % 2 != 1:
        raise ShapeError(f"conv2d: kernel must be square with odd size, got {W.shape}")
    if X.shape[1] != cin:
        raise ShapeError(f"conv2d: input has {X.shape[1]} channels, weight expects {cin}")
    if B.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {B.shape} does not match {cout} output channels")
    p = k // 2 if padding is None else int(padding)
    if p < 0:
        raise ShapeError(f"conv2d: padding must be >= 0, got {padding}")
    n, _, h, w = X.shape
    if min(h, w) + 2 * p < k:
        raise ShapeError(f"conv2d: kernel {W.shape} is larger than input {X.shape} "
                         f"padded by {p}")

    ho = h + 2 * p - k + 1
    wo = w + 2 * p - k + 1
    padded = (n, h + 2 * p, w + 2 * p, cin)

    def windows():
        """[N, Ho, Wo, k, k, Cin] view of a freshly padded channels-last input."""
        xp = np.zeros(padded)
        xp[:, p:p + h, p:p + w] = x.data.transpose(0, 2, 3, 1)
        view = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
        return view.transpose(0, 1, 2, 4, 5, 3)

    def im2col():
        # [N, Ho, Wo, k, k, Cin] -> [N*Ho*Wo, k*k*Cin]
        return np.ascontiguousarray(windows()).reshape(n * ho * wo, k * k * cin)

    def patch_rows(win, rows):
        """Rows ``rows`` of ``im2col()``, copied from the output lines they touch."""
        l0, l1 = rows.start // wo, -(-rows.stop // wo)   # lines are (image, y) pairs
        lines = np.empty((l1 - l0, wo, k, k, cin))
        for i in range(l0 // ho, -(-l1 // ho)):
            a, b = max(l0, i * ho), min(l1, (i + 1) * ho)
            lines[a - l0:b - l0] = win[i, a - i * ho:b - i * ho]
        return lines.reshape(-1, k * k * cin)[rows.start - l0 * wo:rows.stop - l0 * wo]

    wmat = W.transpose(2, 3, 1, 0).reshape(k * k * cin, cout)
    with np.errstate(over="ignore", invalid="ignore"):
        if _tracks((x, weight, bias)):
            # The padded input comes before the output buffer on purpose: the
            # other order packed the heap tighter, but glibc then trimmed and
            # refaulted it on every training step.
            win = windows()
            out = np.empty((n * ho * wo, cout))
            for rows in _row_chunks(n * ho * wo, _chunk_rows(_CONV_CHUNK_BYTES, 8 * k * k * cin)):
                np.matmul(patch_rows(win, rows), wmat, out=out[rows])
        else:
            out = im2col() @ wmat
        out += B

    def back(g):
        gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, cout)
        _accumulate(bias, gmat.sum(axis=0))
        dw = (im2col().T @ gmat).reshape(k, k, cin, cout).transpose(3, 2, 0, 1)
        _accumulate(weight, np.ascontiguousarray(dw))
        if x.requires_grad:
            gxp = np.zeros(padded)
            for dy in range(k):
                for dx in range(k):
                    # [N*Ho*Wo, Cout] x [Cout, Cin] -> [N, Ho, Wo, Cin]
                    tap = wmat[(dy * k + dx) * cin:(dy * k + dx + 1) * cin]
                    gxp[:, dy:dy + ho, dx:dx + wo] += (gmat @ tap.T).reshape(n, ho, wo, cin)
            _accumulate(x, gxp[:, p:p + h, p:p + w].transpose(0, 3, 1, 2))

    return _from_op(out.reshape(n, ho, wo, cout).transpose(0, 3, 1, 2), (x, weight, bias), "conv2d", back)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial axes: [N, C, H, W] -> [N, C]."""
    X = x.data
    if X.ndim != 4:
        raise ShapeError(f"global_avg_pool: expected 4-d input, got {X.shape}")
    n_spatial = X.shape[2] * X.shape[3]

    def back(g):
        _accumulate(x, np.broadcast_to(g[:, :, None, None] / n_spatial, X.shape).copy())

    return _from_op(X.mean(axis=(2, 3)), (x,), "global_avg_pool", back)


# -- classification loss primitive -------------------------------------------


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean cross-entropy of softmax(logits) against integer targets.

    ``logits`` is [batch, C]; ``targets`` an integer array of shape [batch]
    with values in [0, C). Computed via log-sum-exp; the gradient is
    (softmax - onehot) / batch.
    """
    logits = _as_tensor(logits)
    L = logits.data
    if L.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be [batch, C], got {L.shape}")
    t = np.asarray(targets)
    if t.ndim != 1 or t.shape[0] != L.shape[0]:
        raise ShapeError(f"cross_entropy: targets shape {t.shape} does not match batch {L.shape[0]}")
    if not np.issubdtype(t.dtype, np.integer):
        raise TypeError("cross_entropy: targets must be integers")
    n, c = L.shape
    if t.min() < 0 or t.max() >= c:
        raise ValueError(f"cross_entropy: target out of range [0, {c})")

    m = L.max(axis=1, keepdims=True)
    z = L - m
    e = np.exp(z)
    denom = e.sum(axis=1, keepdims=True)
    logp = z - np.log(denom)
    probs = e / denom
    data = np.asarray(-logp[np.arange(n), t].mean())

    def back(g):
        gx = probs.copy()
        gx[np.arange(n), t] -= 1.0
        _accumulate(logits, float(g) * gx / n)

    return _from_op(data, (logits,), "cross_entropy", back)


# -- gradient verification ----------------------------------------------------


def check_gradient(f, point, step: float = 1e-5) -> float:
    """Compare the analytic gradient of scalar ``f`` against central differences.

    Returns the max over coordinates of |analytic - numeric| / max(1, |analytic|).
    ``f`` must be deterministic (freeze any RNG it uses); this is probed by
    evaluating it twice.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    base = np.array(point.data if isinstance(point, Tensor) else point, dtype=np.float64)

    def value(arr) -> float:
        with no_grad():
            out = f(Tensor(arr))
        if not isinstance(out, Tensor) or out.data.size != 1:
            raise ValueError("f must return a scalar Tensor")
        return float(out.data)

    if value(base.copy()) != value(base.copy()):
        raise ValueError("f is not deterministic under a fixed seed")

    x = Tensor(base.copy(), requires_grad=True)
    out = f(x)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise ValueError("f must return a scalar Tensor")
    out.backward()
    analytic = np.zeros_like(base) if x.grad is None else x.grad
    analytic = analytic.reshape(-1)

    numeric = np.empty(base.size)
    flat = base.reshape(-1)
    for i in range(base.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = value(base.copy())
        flat[i] = orig - step
        f_minus = value(base.copy())
        flat[i] = orig
        numeric[i] = (f_plus - f_minus) / (2.0 * step)

    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    return float(rel.max())
