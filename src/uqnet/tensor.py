"""Reverse-mode automatic differentiation over numpy float64 (and float32) arrays.

The engine is eager: each operation executes immediately, and when a
gradient can flow through it records a value-free :class:`_Node` on the
result: the nodes of its operands (a leaf is its own node) plus a gradient
closure that keeps only the arrays it reads, never an operand's tensor. An
intermediate value is therefore freed with its tensor unless a closure
reads it (:meth:`Tensor.backward` lists what each op keeps). Calling
:meth:`Tensor.backward` on a scalar output replays the recorded graph once
in reverse topological order, so every node is visited exactly once and a
value used k times accumulates the sum of its k path gradients.

Deliberate restrictions, chosen for the small models this library trains:

* a tensor is float64 unless it was made from a float32 array; a gradient
  takes its tensor's dtype, and an op result numpy's dtype of its operands
  (float32 only when no float64 array takes part). The float32 bodies of
  the MLP and the MiniResNet keep their activations and dropout masks
  float32 this way, from the input cast in ``layers.forward_range`` to the
  features, while their parameters, their gradients, the head and the loss
  stay float64. Their linear layers cast each float64 weight and bias to
  the body's dtype, and :func:`conv2d` computes in its input's dtype too
  (im2col GEMMs for the forward and the weight gradient, and a transposed
  convolution for the input gradient, each over row chunks of patches that
  are never built whole), with its float64 weight and bias cast to it. A
  float32 product runs in fixed-height tiles (``_row_matmul``), so a row's
  result does not depend on the rows around it;
* broadcasting is limited to (scalar op tensor) and rank-1 bias addition
  along the last axis -- anything else raises :class:`ShapeError`;
* every operation checks its result for NaN/Inf and raises
  :class:`NonFiniteError` naming the offending op, except inside
  the thread's :func:`_deferred_checks` scope. Training steps and
  evaluation row blocks run there and check what comes out once (the loss
  and the gradients, the head outputs) with :func:`_check_deferred`; only
  when that check fails do they run the work again with per-op checks, to
  name the op.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "NonFiniteError",
    "ShapeError",
    "no_grad",
    "conv2d",
    "global_avg_pool",
    "cross_entropy",
    "check_gradient",
]


class NonFiniteError(ArithmeticError):
    """An operation, or a result checked once, holds NaN or Inf."""


class ShapeError(ValueError):
    """Operand shapes fall outside the supported broadcasting rules."""


_tls = threading.local()


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


@contextmanager
def _deferred_checks():
    """Skip the finite check of every op result and leaf made in the current
    thread for the duration, with numpy's floating-point warnings off.

    A NaN or Inf then flows on through the ops after it (which would warn),
    and the caller checks what comes out once with :func:`_check_deferred`.
    NaN and Inf survive every op the models use (clip turns them into NaN),
    with one exception that the per-op checks catch and this one does not:
    relu maps -Inf to 0. Checking for it would cost a pass over every
    activation.
    """
    prev = getattr(_tls, "defer_checks", False)
    _tls.defer_checks = True
    try:
        with np.errstate(all="ignore"):
            yield
    finally:
        _tls.defer_checks = prev


def _check_deferred(named_arrays, replay) -> None:
    """Check each ``(name, array)`` pair of deferred work once for NaN/Inf.

    If one is not finite, ``replay()``, which must redo the work's
    arithmetic, runs again with per-op checks, so the first non-finite op
    raises its :class:`NonFiniteError` as it would have without the scope.
    If no op raises (a gradient that went non-finite in the backward), the
    error names the array.
    """
    for name, a in named_arrays:
        if not np.isfinite(a).all():
            with np.errstate(all="ignore"):
                replay()
            raise NonFiniteError(f"{name} is not finite, but no op raised when the work was run again")


def _run_deferred(work, outputs, replay=None):
    """``work()`` inside :func:`_deferred_checks`, with the tensors it
    returns (a tuple; None entries are skipped) named by ``outputs`` in the
    same order and checked once through :func:`_check_deferred`, which
    replays ``replay`` (``work`` by default)."""
    with _deferred_checks():
        result = work()
    _check_deferred([(name, t.data) for name, t in zip(outputs, result) if t is not None],
                    replay or work)
    return result


def _checked(data: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(data).all():
        raise NonFiniteError(f"op '{op}' produced non-finite values")
    return data


class Tensor:
    """N-dimensional float64 or float32 array with optional gradient tracking.

    ``data`` is a float32 ndarray when a float32 ndarray was given, and a
    float64 ndarray made from anything else (ints, float16, lists, scalars);
    ``grad`` is None until a backward pass populates it, after which it has
    the shape and dtype of ``data``.

    A leaf is its own graph node. A tracked op result records a
    :class:`_Node` in ``_node``; ``op``, ``_parents`` and ``_backward`` read
    through to it, and assigning ``_backward`` replaces the closure the
    backward calls.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_node")

    def __init__(self, data, requires_grad: bool = False):
        if not (isinstance(data, np.ndarray) and data.dtype == np.float32):
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._node = None
        if not getattr(_tls, "defer_checks", False):
            _checked(self.data, "leaf")

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

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __float__(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        grad = ", grad" if self.grad is not None else ""
        return f"Tensor(shape={self.data.shape}, op={self.op!r}{grad})"

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph construction ------------------------------------------------

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    @_backward.setter
    def _backward(self, fn) -> None:
        self._node._backward = fn

    def backward(self) -> None:
        """Populate ``grad`` on every tracked leaf this scalar depends on, and on
        the scalar itself.

        The walk goes over graph nodes, not tensors: an op node keeps its
        parents' nodes and the arrays its closure reads, which are the
        operand shapes of ``add``, ``reshape``, ``sum``, ``mean``,
        ``global_avg_pool`` and ``cast`` (``neg`` keeps nothing); the output
        of ``relu``, ``exp`` and ``softmax`` and the probabilities of
        ``cross_entropy``; the input of ``clip``, ``log``, ``square`` and
        ``reciprocal``; for ``mul`` and ``matmul``, each operand only while
        the other one takes a gradient; and for ``conv2d`` its weight, plus
        its input while the weight trains. So an intermediate value no
        closure reads is freed with its tensor. An op node's gradient is released as soon as its closure has
        passed it to the parents, so the backward holds the gradients of the
        frontier it is crossing, not of the whole graph.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar output, got shape {self.data.shape}")
        if not self.requires_grad:
            raise ValueError("output does not depend on any tensor with requires_grad=True")

        root = _node_of(self)
        order = []
        seen: set[int] = set()
        stack = [(root, False)]
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

        root.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                if node is not root:
                    node.grad = None   # passed on to its parents
        self.grad = root.grad


class _Node:
    """The graph record of a tracked op result: a gradient slot, the result's
    dtype and op name, the nodes of the operands that take a gradient, and
    the backward closure, called with the gradient. It holds no value: the
    closure keeps only the arrays it reads."""

    __slots__ = ("grad", "dtype", "op", "_parents", "_backward")

    def __init__(self, dtype, op: str, parents: tuple, backward):
        self.grad = None
        self.dtype = dtype
        self.op = op
        self._parents = parents
        self._backward = backward


def _node_of(t: Tensor):
    """The graph node a gradient for ``t`` goes to (``t`` itself for a leaf),
    or None when ``t`` takes no gradient."""
    if not t.requires_grad:
        return None
    return t if t._node is None else t._node


def _accumulate(node, g: np.ndarray) -> None:
    if node is None:
        return
    g = g.astype(node.dtype, copy=False)
    node.grad = g if node.grad is None else node.grad + g


def _from_op(data: np.ndarray, parents: tuple, op: str, backward) -> Tensor:
    """The result tensor of an op on the tensors ``parents``. When graph
    recording is on and a parent takes a gradient, it records a node whose
    closure calls ``backward(g, *nodes)``, ``nodes`` being the parents'
    :func:`_node_of` in order, so ``backward`` itself never refers to a
    parent tensor."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.op = op
    out._node = None
    if _grad_enabled():
        nodes = tuple(map(_node_of, parents))
        tracked = tuple(n for n in nodes if n is not None)
        if tracked:
            out._node = _Node(data.dtype, op, tracked, lambda g: backward(g, *nodes))
    out.requires_grad = out._node is not None
    if not getattr(_tls, "defer_checks", False):
        _checked(data, op)
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
    sa, sb = A.shape, B.shape

    def back(g, na, nb):
        if na is not None:
            _accumulate(na, _sum_to(g, sa))
        if nb is not None:
            _accumulate(nb, _sum_to(g, sb))

    return _from_op(A + B, (a, b), "add", back)


def _mul(a: Tensor, b: Tensor) -> Tensor:
    A, B = a.data, b.data
    if not (A.shape == B.shape or _is_scalar(A) or _is_scalar(B)):
        raise ShapeError(f"mul: unsupported shapes {A.shape} * {B.shape}")
    sa, sb = A.shape, B.shape
    ka = A if b.requires_grad else None   # each operand only for the other's gradient
    kb = B if a.requires_grad else None

    def back(g, na, nb):
        if na is not None:
            _accumulate(na, _sum_to(g * kb, sa))
        if nb is not None:
            _accumulate(nb, _sum_to(g * ka, sb))

    return _from_op(A * B, (a, b), "mul", back)


def _matmul(a: Tensor, b: Tensor) -> Tensor:
    A, B = a.data, b.data
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ShapeError(f"matmul: expected 2-d operands with matching inner dim, got {A.shape} @ {B.shape}")
    ka = A if b.requires_grad else None
    kb = B if a.requires_grad else None

    def back(g, na, nb):
        if na is not None:
            _accumulate(na, g @ kb.T)
        if nb is not None:
            _accumulate(nb, ka.T @ g)

    with np.errstate(over="ignore", invalid="ignore"):
        if A.dtype == np.float32:
            # Rows of a float32 body: its layers multiply in float32 and the
            # head, on its float32 features, in float64, both in fixed-height
            # tiles, so one example gives the bytes of its row in any batch.
            # Untiled they would not: numpy sends a one-row product to GEMV,
            # and OpenBLAS's dgemm rows moved with the height (at 2, 3,
            # 15 and 17 rows for heads of 2, 3 or 10 classes, and at every
            # height for 192 features and 10 classes).
            data = _row_matmul(A.astype(B.dtype, copy=False), B, tile=_ROW_ALIGN)
        else:
            data = A @ B
    return _from_op(data, (a, b), "matmul", back)


def _ew_unary(x: Tensor, op: str, fwd, dfdx, of_output: bool = False) -> Tensor:
    """An elementwise op whose derivative is ``dfdx`` of the one array its
    node keeps: its input, or its output when ``of_output``."""
    # non-finite results surface as NonFiniteError, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        data = fwd(x.data)
    saved = data if of_output else x.data

    def back(g, nx):
        # In the saved array's memory layout, which is the result's: below a
        # conv2d that is channels-last, so the conv's backward need not copy
        # the gradient it gets, even where ``g`` came NCHW from the pooling.
        _accumulate(nx, np.multiply(g, dfdx(saved), out=np.empty_like(saved)))

    return _from_op(data, (x,), op, back)


# attach operators to Tensor

def _t_add(self, other):
    return _add(self, _as_tensor(other))


def _t_radd(self, other):
    return _add(_as_tensor(other), self)


def _t_neg(self):
    return _from_op(-self.data, (self,), "neg", lambda g, nx: _accumulate(nx, -g))


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
        inv = _ew_unary(other, "reciprocal", lambda d: 1.0 / d, lambda d: -1.0 / (d * d))
        return _mul(self, inv)
    return _mul(self, Tensor(1.0 / float(other)))


def relu(x: Tensor) -> Tensor:
    # out > 0 is the mask d > 0, NaN and signed zeros included
    return _ew_unary(x, "relu", lambda d: np.maximum(d, 0.0), lambda out: out > 0, of_output=True)


def exp(x: Tensor) -> Tensor:
    return _ew_unary(x, "exp", np.exp, lambda out: out, of_output=True)


def log(x: Tensor) -> Tensor:
    return _ew_unary(x, "log", np.log, lambda d: 1.0 / d)


def square(x: Tensor) -> Tensor:
    return _ew_unary(x, "square", np.square, lambda d: 2.0 * d)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only through unclamped entries.

    A non-finite entry (+-Inf or NaN) comes out as NaN, not as a bound, so a
    result checked once (:func:`_check_deferred`) still shows it, and the
    replay with per-op checks names the op that made it."""
    lo = float(lo)
    hi = float(hi)
    X = x.data
    data = np.clip(X, lo, hi)
    bad = ~np.isfinite(X)
    if bad.any():
        data[bad] = np.nan

    def back(g, nx):
        _accumulate(nx, g * ((X >= lo) & (X <= hi)))

    return _from_op(data, (x,), "clip", back)


def tsum(x: Tensor) -> Tensor:
    shape = x.data.shape

    def back(g, nx):
        _accumulate(nx, np.broadcast_to(g, shape).copy())

    return _from_op(np.asarray(x.data.sum()), (x,), "sum", back)


def tmean(x: Tensor) -> Tensor:
    shape, n = x.data.shape, x.data.size

    def back(g, nx):
        _accumulate(nx, np.broadcast_to(g / n, shape).copy())

    return _from_op(np.asarray(x.data.mean()), (x,), "mean", back)


def softmax(x: Tensor) -> Tensor:
    """Softmax along the last axis (numerically stable)."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def back(g, nx):
        dot = (g * s).sum(axis=-1, keepdims=True)
        _accumulate(nx, s * (g - dot))

    return _from_op(s, (x,), "softmax", back)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    src = x.data.shape

    def back(g, nx):
        _accumulate(nx, g.reshape(src))

    return _from_op(x.data.reshape(shape), (x,), "reshape", back)


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

# Row chunks of a float64 product start on multiples of this many rows.
# dgemm tiles the rows of a product from its first row and sends a one-row
# product to gemv, so aligned chunks keep every output row bit-identical to
# the unchunked product (measured with OpenBLAS on the mlp and miniresnet
# preset shapes). ``layers.row_blocks`` and float64 ``conv2d`` both chunk
# by it, and a ``matmul`` of float32 rows multiplies them in tiles of it.
_ROW_ALIGN = 16
# sgemm does not keep that promise: a float32 row's result can depend on the
# height of the product it sits in (OpenBLAS, K = 36 and 54, M = 1024 and
# 2048), though not on where the product starts. So every float32
# row-indexed product runs through ``_row_matmul`` in products of a fixed
# height: float32 ``conv2d`` in tiles of this many rows, its chunks being
# whole tiles, and a ``matmul`` of float32 rows in ``_ROW_ALIGN``-row
# tiles, which split a 64-row training batch into four products where a
# 256-row tile would pad it fourfold.
_TILE_ROWS = 256
# A conv2d forward, weight gradient and input gradient each build their
# im2col patches in row chunks of about this many bytes (in the input's
# dtype), so no more than one chunk of patches exists at once. The chunk is
# a transient on top of the graph, and with float32 activations the
# MiniResNet's graph is half its float64 size: when graphs kept every node's
# value, a training step peaked at 2.26 times them at 2 MiB and 2.08 times
# at 1 MiB, for the same bits. tests/test_memory.py bounds the step's peak
# by two graphs plus two chunks and two padded inputs.
_CONV_CHUNK_BYTES = 1 << 20


def _chunk_rows(budget: int, row_bytes: int, align: int = _ROW_ALIGN) -> int:
    """Rows per chunk: the byte budget over the bytes of one row, rounded
    down to a multiple of ``align``, and at least ``align``."""
    return max(budget // row_bytes // align * align, align)


def _row_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None,
                tile: int = _TILE_ROWS) -> np.ndarray:
    """``a @ b`` (operands of one dtype), into ``out`` (contiguous, in that
    dtype) when given, as GEMMs of exactly ``tile`` rows, so each output row
    depends on its own row of ``a`` and on ``b``, not on how many rows came
    before or after it: the whole tiles go through one stacked
    ``np.matmul`` straight into their rows of ``out``, which issues one GEMM
    per tile, and the rest as one zero-padded tile. A float32 ``conv2d``
    multiplies its patch chunks in ``_TILE_ROWS`` tiles, and
    :func:`_matmul` rows from a float32 body in ``_ROW_ALIGN`` tiles."""
    m, k = a.shape
    n = b.shape[1]
    if out is None:
        out = np.empty((m, n), a.dtype)
    whole = m // tile * tile
    if whole:
        np.matmul(a[:whole].reshape(-1, tile, k), b, out=out[:whole].reshape(-1, tile, n))
    if whole < m:
        tail = np.zeros((tile, k), a.dtype)
        tail[:m - whole] = a[whole:]
        out[whole:] = (tail @ b)[:m - whole]
    return out


def _row_chunks(n: int, rows: int) -> list[slice]:
    """Consecutive slices of ``rows`` rows covering ``n`` rows in order,
    except that a tail shorter than half a chunk joins the chunk before it:
    BLAS may round a small product through a different kernel than a large one."""
    starts = range(0, n - rows // 2 + 1, rows)
    if len(starts) <= 1:
        return [slice(0, n)]
    return [slice(lo, hi) for lo, hi in zip(starts, [*starts[1:], n])]


# -- convolution and pooling -------------------------------------------------


def _windows(a: np.ndarray, q: int, k: int) -> np.ndarray:
    """[N, Ho, Wo, k, k, C] sliding ``k`` x ``k`` windows over a fresh copy
    of the channels-last ``a`` [N, H, W, C], zero-padded by ``q`` on each
    side of H and W, or cropped by ``-q`` when ``q`` < 0.

    The view is made by the ndarray constructor, not by numpy's
    ``sliding_window_view``: its ``as_strided`` reads
    ``__array_interface__``, whose keys go through CPython's interned-string
    table, and that table is rebuilt every few tens of thousands of calls.
    tracemalloc counts each new table (0.96 or 1.92 MB, by its size) and not
    the old one it replaces, so the ``tests/test_memory.py`` peaks depended
    on how many convolutions had run before them in the process."""
    if q >= 0:
        n, h, w, c = a.shape
        ap = np.zeros((n, h + 2 * q, w + 2 * q, c), a.dtype)
        ap[:, q:q + h, q:q + w] = a
    else:
        ap = np.ascontiguousarray(a[:, -q:q, -q:q])
    n, hp, wp, c = ap.shape
    sn, sh, sw, sc = ap.strides
    return np.ndarray((n, hp - k + 1, wp - k + 1, k, k, c), ap.dtype, ap, 0, (sn, sh, sw, sh, sw, sc))


def _conv_chunks(m: int, row_bytes: int, dtype) -> list[slice]:
    """The row chunks of an m-row patch matrix in ``dtype`` whose rows take
    ``row_bytes`` bytes: about ``_CONV_CHUNK_BYTES`` each, starting on
    ``_ROW_ALIGN`` rows in float64 and whole ``_TILE_ROWS`` tiles in
    float32."""
    align = _ROW_ALIGN if dtype == np.float64 else _TILE_ROWS
    return _row_chunks(m, _chunk_rows(_CONV_CHUNK_BYTES, row_bytes, align))


def _patches(win: np.ndarray, rows: slice) -> np.ndarray:
    """Rows ``rows`` of the [N*Ho*Wo, k*k*C] im2col patch matrix of
    ``_windows``' view ``win`` (C innermost), copied from the output lines
    they touch: a partial image at the start, the whole images in one copy,
    and a partial image at the end."""
    _, ho, wo, k, _, c = win.shape
    l0, l1 = rows.start // wo, -(-rows.stop // wo)   # lines are (image, y) pairs
    lines = np.empty((l1 - l0, wo, k, k, c), win.dtype)
    i0, i1 = -(-l0 // ho), l1 // ho   # the images wholly inside lines l0..l1
    if i0 > i1:   # inside one image
        lines[:] = win[i1, l0 - i1 * ho:l1 - i1 * ho]
    else:
        a, b = i0 * ho - l0, i1 * ho - l0
        if a:
            lines[:a] = win[i0 - 1, ho - a:]
        if i1 > i0:   # the destination is reshaped, never the strided window view
            lines[a:b].reshape(i1 - i0, ho, wo, k, k, c)[...] = win[i0:i1]
        if b < len(lines):
            lines[b:] = win[i1, :len(lines) - b]
    return lines.reshape(-1, k * k * c)[rows.start - l0 * wo:rows.stop - l0 * wo]


def _patch_matmul(win: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The im2col patch matrix of ``win`` times ``b`` (in ``win``'s dtype),
    one ``_conv_chunks`` chunk of patches at a time, each chunk's product
    (one GEMM in float64, ``_row_matmul``'s tiles in float32) filling its
    own rows of the [N*Ho*Wo, b.shape[1]] result."""
    n, ho, wo, k, _, c = win.shape
    out = np.empty((n * ho * wo, b.shape[1]), win.dtype)
    for rows in _conv_chunks(len(out), win.dtype.itemsize * k * k * c, win.dtype):
        if win.dtype == np.float64:
            np.matmul(_patches(win, rows), b, out=out[rows])
        else:
            _row_matmul(_patches(win, rows), b, out=out[rows])
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, padding: int | None = None) -> Tensor:
    """2-d convolution, stride 1.

    ``x`` is [N, Cin, H, W], ``weight`` [Cout, Cin, k, k] with odd k, and
    ``bias`` [Cout]. Default padding k//2 keeps the spatial size.

    Shapes are NCHW, but the kernel works channels-last in memory: the
    padded input and the output buffer are [N, H, W, C], the im2col
    patches are [N*Ho*Wo, k*k*Cin] rows with Cin innermost, and the result
    is an NCHW view of the output buffer. An input in either memory layout
    is accepted; the padding copy converts it.

    The input gradient is a transposed convolution: the channels-last
    output gradient, padded by k-1-p on each side (cropped when p > k-1),
    goes through the same im2col as the input, into [N*H*W, k*k*Cout] rows,
    times the flipped kernel [k*k*Cout, Cin]. The weight gradient is the
    product of the input's patches with the output gradient, and runs only
    when the weight requires a gradient.

    The arithmetic runs in the dtype of the input ``x`` (float64 or
    float32), with the float64 weight and bias cast to it: the padded input
    and output gradient, their im2col patches, the forward, weight and input
    GEMMs and the bias add (a float32 add costs a quarter of the mixed one).
    The output and the input gradient have that dtype; the weight and bias
    gradients are float64.

    No patch matrix exists whole. The forward, the weight gradient and the
    input gradient each build their patches one ``_conv_chunks`` chunk of
    about ``_CONV_CHUNK_BYTES`` at a time (``_patches``), so a graph node
    keeps only its weight and, while the weight trains, its input, and the
    backward rebuilds the patches rather than keeping them. The forward and the
    input gradient fill their output rows chunk by chunk through
    ``_row_matmul``; their chunks start on ``_ROW_ALIGN`` rows in float64
    and are whole ``_TILE_ROWS`` tiles in float32, so both are
    bit-identical to one product over kept patches. The weight gradient is
    the float64 sum over the input's chunks of each chunk's product with
    its rows of the output gradient, and the bias gradient, in the same
    loop, the float64 sum of each chunk's float64 column sums (one GEMV
    with a ones vector). Both therefore depend on the chunking: where a
    conv spans more than one chunk they differ from one product over kept
    patches by the rounding of the split sums.
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
    m = n * ho * wo
    dtype = X.dtype
    xl = X.transpose(0, 2, 3, 1)   # channels-last view

    wmat = W.transpose(2, 3, 1, 0).reshape(k * k * cin, cout).astype(dtype, copy=False)
    with np.errstate(over="ignore", invalid="ignore"):
        # The padded input comes before the output buffer (which
        # ``_patch_matmul`` allocates) on purpose: the other order packed the
        # heap tighter, but glibc then trimmed and refaulted it on every
        # training step.
        out = _patch_matmul(_windows(xl, p, k), wmat)
        out += B.astype(dtype, copy=False)

    xs = xl if weight.requires_grad else None   # dW's patches come from the input

    def back(g, nx, nw, nb):
        gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(m, cout)
        win = None if nw is None else _windows(xs, p, k)
        dw, db = np.zeros((k * k * cin, cout)), np.zeros(cout)
        for rows in _conv_chunks(m, dtype.itemsize * k * k * cin, dtype):
            gc = gmat[rows]
            db += np.ones(len(gc)) @ gc.astype(np.float64, copy=False)
            if win is not None:
                dw += _patches(win, rows).T @ gc
        del win   # the padded input goes before the padded gradient comes
        _accumulate(nb, db)
        if nw is not None:
            _accumulate(nw, np.ascontiguousarray(dw.reshape(k, k, cin, cout).transpose(3, 2, 0, 1)))
        if nx is not None:
            # The transposed convolution: the output gradient padded by
            # k-1-p, convolved with the flipped kernel, Cout and Cin swapped.
            wflip = W[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(k * k * cout, cin)
            gx = _patch_matmul(_windows(gmat.reshape(n, ho, wo, cout), k - 1 - p, k),
                               wflip.astype(dtype, copy=False))
            _accumulate(nx, gx.reshape(n, h, w, cin).transpose(0, 3, 1, 2))

    return _from_op(out.reshape(n, ho, wo, cout).transpose(0, 3, 1, 2), (x, weight, bias), "conv2d", back)


def _cast(x: Tensor, dtype) -> Tensor:
    """``x`` as a ``dtype`` tensor (float64 or float32); the gradient comes
    back in ``x``'s dtype. ``x`` itself when it already has that dtype."""
    if x.data.dtype == dtype:
        return x
    with np.errstate(over="ignore"):   # a float32 overflow surfaces as NonFiniteError
        data = x.data.astype(dtype)
    return _from_op(data, (x,), "cast", lambda g, nx: _accumulate(nx, g))


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial axes: [N, C, H, W] -> [N, C]."""
    X = x.data
    if X.ndim != 4:
        raise ShapeError(f"global_avg_pool: expected 4-d input, got {X.shape}")
    shape, n_spatial = X.shape, X.shape[2] * X.shape[3]

    def back(g, nx):
        _accumulate(nx, np.broadcast_to(g[:, :, None, None] / n_spatial, shape).copy())

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

    def back(g, nl):
        gx = probs.copy()
        gx[np.arange(n), t] -= 1.0
        _accumulate(nl, float(g) * gx / n)

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
