"""Core autodiff engine: forward values, backward values, graph semantics."""

import itertools
import threading
import warnings

import numpy as np
import pytest

import uqnet.tensor as tensor
from uqnet import rng as _rng
from uqnet.layers import body_forward, build_model, head_forward, miniresnet_spec
from uqnet.tensor import (
    NonFiniteError,
    ShapeError,
    Tensor,
    conv2d,
    cross_entropy,
    global_avg_pool,
    no_grad,
)


class TestForward:
    def test_square_scalar(self):
        x = Tensor(3.0)
        assert float(x.square()) == 9.0

    def test_sum_vector(self):
        x = Tensor([1.0, 2.0, 3.0])
        assert float(x.sum()) == 6.0

    def test_softmax_symmetry(self):
        y = Tensor([0.0, 0.0, 0.0, 0.0]).softmax()
        np.testing.assert_allclose(y.data, [0.25, 0.25, 0.25, 0.25], atol=1e-15)

    def test_forward_is_pure(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(5, 3)))
        w = Tensor(rng.normal(size=(3, 4)))
        out1 = ((a @ w).relu().softmax()).data.copy()
        out2 = ((a @ w).relu().softmax()).data.copy()
        assert np.array_equal(out1, out2)

    def test_mean(self):
        assert float(Tensor([1.0, 3.0]).mean()) == 2.0

    def test_leaf_keeps_float32_and_makes_everything_else_float64(self):
        a32 = np.ones((2, 3), np.float32)
        assert Tensor(a32).data.dtype == np.float32
        for data in (np.arange(6), np.ones(3, np.float16), [1, 2], 2.5, np.float32(1.5)):
            assert Tensor(data).data.dtype == np.float64


class TestBackward:
    def test_square_gradient(self):
        x = Tensor(3.0, requires_grad=True)
        y = x.square()
        y.backward()
        assert float(x.grad) == 6.0

    def test_sum_gradient(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_cross_entropy_gradient_uniform_logits(self):
        # softmax of zeros is uniform 0.25; gradient is softmax - onehot
        logits = Tensor([[0.0, 0.0, 0.0, 0.0]], requires_grad=True)
        loss = cross_entropy(logits, np.array([0]))
        loss.backward()
        np.testing.assert_allclose(logits.grad, [[-0.75, 0.25, 0.25, 0.25]], atol=1e-12)

    def test_fanout_accumulation_matches_scaling(self):
        # y = x + x must produce the same gradient as y = 2x
        x1 = Tensor([1.5, -2.0], requires_grad=True)
        (x1 + x1).sum().backward()
        x2 = Tensor([1.5, -2.0], requires_grad=True)
        (2.0 * x2).sum().backward()
        np.testing.assert_array_equal(x1.grad, x2.grad)
        np.testing.assert_array_equal(x1.grad, [2.0, 2.0])

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (x + x).backward()

    def test_backward_without_tracked_input(self):
        x = Tensor([1.0, 2.0])
        with pytest.raises(ValueError, match="requires_grad"):
            x.sum().backward()

    def test_each_node_contributes_once(self):
        # diamond graph: z = (a*b) + (a*b) reuses the same intermediate node
        a = Tensor(2.0, requires_grad=True)
        b = Tensor(5.0, requires_grad=True)
        prod = a * b
        (prod + prod).backward()
        assert float(a.grad) == 10.0
        assert float(b.grad) == 4.0

    def test_backward_releases_intermediate_grads(self):
        # leaves and the root keep their gradients; every op node between
        # them drops its own once it has passed it to its parents
        a = Tensor([1.0, -2.0], requires_grad=True)
        b = Tensor([3.0, 0.5], requires_grad=True)
        prod = a * b
        act = prod.relu()
        root = (act + prod).sum()
        root.backward()
        np.testing.assert_array_equal(a.grad, [6.0, 0.5])
        np.testing.assert_array_equal(b.grad, [2.0, -2.0])
        assert float(root.grad) == 1.0
        assert prod.grad is None and act.grad is None
        assert prod._node.grad is None and act._node.grad is None
        assert root._parents[0].grad is None

    def test_relu_and_clip_gradients_keep_signed_zeros_and_nonfinite(self):
        # g times the mask, bit for bit as g * 1.0 or g * 0.0: -0.0 keeps its
        # sign, and a masked-out nan or inf gives nan
        x = Tensor([-1.0, 2.0, 0.5, 3.0], requires_grad=True)
        g = np.array([2.0, -0.0, np.nan, np.inf])
        with tensor._deferred_checks():
            (x.relu() * Tensor(g)).sum().backward()
            relu_grad = x.grad
            x.zero_grad()
            (x.clip(0.0, 1.0) * Tensor(g)).sum().backward()
            want_relu = g * np.array([0.0, 1.0, 1.0, 1.0])
            want_clip = g * np.array([0.0, 0.0, 1.0, 0.0])
        assert relu_grad.tobytes() == want_relu.tobytes()
        assert x.grad.tobytes() == want_clip.tobytes()

    def test_clip_turns_non_finite_input_into_nan(self):
        # A capped Inf would hide an overflow from a check of the result;
        # finite entries keep np.clip's bits, -0.0 included.
        x = np.array([-np.inf, np.inf, np.nan, -0.0, 0.0, 5.0, -5.0, 0.3])
        with tensor._deferred_checks():
            got = Tensor(x).clip(-1.0, 1.0).data
        finite = np.isfinite(x)
        assert np.isnan(got[~finite]).all()
        assert got[finite].tobytes() == np.clip(x[finite], -1.0, 1.0).tobytes()

    def test_no_grad_skips_recording(self):
        x = Tensor(3.0, requires_grad=True)
        with no_grad():
            y = x.square()
        assert y._parents == ()
        with pytest.raises(ValueError):
            y.backward()

    def test_leaf_backward_gives_the_leaf_a_unit_gradient(self):
        x = Tensor(3.0, requires_grad=True)
        x.backward()
        assert x.grad == 1.0 and x.grad.dtype == np.float64


class TestGraphNodes:
    """What a graph keeps, and what outside code may do with it."""

    def test_a_reassigned_conv2d_backward_is_the_one_that_runs(self):
        # The benchmark's tracer times conv backwards this way: it wraps the
        # _backward of each graph-mode conv2d result and assigns the wrapper.
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        w, b = rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4)
        calls = []

        def grads(wrap):
            tx = Tensor(x, requires_grad=True)
            tw, tb = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
            y = conv2d(tx, tw, tb)
            if wrap:
                inner = y._backward

                def wrapper(g):
                    calls.append(g.shape)
                    return inner(g)

                y._backward = wrapper
                assert y._backward is wrapper
            (y.relu() * 2.0).sum().backward()
            return [t.grad.tobytes() for t in (tx, tw, tb)]

        assert grads(True) == grads(False)
        assert calls == [(2, 4, 5, 5)]

    def test_gradients_do_not_depend_on_which_intermediates_the_caller_keeps(self, monkeypatch):
        spec = miniresnet_spec((1, 8, 8), 4, "bayesian2")
        x = np.random.default_rng(0).normal(size=(6, 1, 8, 8))

        def loss_of(params):   # every intermediate Tensor is dropped on return
            pass_rng = _rng.PassRng(0, 0, _rng.NS_TRAIN_DROPOUT)
            logits = head_forward(params, spec, body_forward(params, spec, Tensor(x), pass_rng))[0]
            return cross_entropy(logits, np.arange(6) % 4)

        def grads():
            params = build_model(spec, 0)
            loss_of(params).backward()
            return {name: p.grad.tobytes() for name, p in params.tensors.items()}

        dropped = grads()
        kept = []
        from_op = tensor._from_op
        monkeypatch.setattr(tensor, "_from_op", lambda *args: kept.append(from_op(*args)) or kept[-1])
        held = grads()
        assert sum(t.op == "mul" for t in kept) == 4   # the four dropouts ran
        assert held == dropped


class TestShapeRules:
    # Each case runs with the broadcast operand on either side of the op.
    # The cases are looped, not parametrized, so the test ids stay stable.

    def test_bias_add_last_axis(self):
        upstream = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        for combine in (lambda x, b: x + b, lambda x, b: b + x):
            x = Tensor(np.ones((2, 3)), requires_grad=True)
            b = Tensor([1.0, 2.0, 3.0], requires_grad=True)
            y = combine(x, b)
            np.testing.assert_array_equal(y.data, [[2.0, 3.0, 4.0]] * 2)
            (y * Tensor(upstream)).sum().backward()
            np.testing.assert_array_equal(b.grad, [5.0, 7.0, 9.0])
            np.testing.assert_array_equal(x.grad, upstream)

    def test_scalar_broadcast(self):
        cases = [
            (lambda x, s: x * s, 3.0, 10.0),
            (lambda x, s: s * x, 3.0, 10.0),
            (lambda x, s: x + s, 1.0, 4.0),
            (lambda x, s: s + x, 1.0, 4.0),
        ]
        for combine, x_grad, s_grad in cases:
            x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
            s = Tensor(3.0, requires_grad=True)
            combine(x, s).sum().backward()
            assert s.grad.shape == ()
            assert float(s.grad) == s_grad
            np.testing.assert_array_equal(x.grad, np.full((2, 2), x_grad))

    def test_general_broadcast_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))) + Tensor(np.ones((2, 1)))
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))) * Tensor(np.ones(3))

    def test_matmul_requires_2d(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((4, 2)))


class TestFiniteChecks:
    def test_nonfinite_result_raises_naming_the_op(self):
        x = Tensor([-1.0])
        with pytest.raises(NonFiniteError, match=r"^op 'log' produced non-finite values$"):
            x.log()

    def test_nonfinite_leaf_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.nan])


class TestDeferredChecks:
    """Inside ``_deferred_checks`` the current thread's ops and leaves skip
    their finite check and numpy's warnings are off; ``_run_deferred`` checks
    the outputs once and replays the work with per-op checks to name the op."""

    def test_scope_skips_op_and_leaf_checks_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with tensor._deferred_checks():
                y = Tensor([-1.0]).log() * Tensor([np.inf])
            assert np.isnan(y.data[0])
            with pytest.raises(NonFiniteError, match=r"op 'log' produced non-finite values"):
                Tensor([-1.0]).log()

    def test_scope_is_per_thread(self):
        raised = []

        def other_thread():
            try:
                Tensor([np.nan])
            except NonFiniteError:
                raised.append(True)

        with tensor._deferred_checks():
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert raised == [True]

    def test_run_deferred_replays_to_name_the_op(self):
        calls = []

        def work():
            calls.append(1)
            return Tensor([1.0]), None, Tensor([-1.0]).log().relu()

        with pytest.raises(NonFiniteError, match=r"op 'log' produced non-finite values"):
            tensor._run_deferred(work, ("a", "b", "c"))
        assert len(calls) == 2
        out = tensor._run_deferred(lambda: (Tensor([2.0]).log(),), ("y",))
        assert out[0].data[0] == np.log(2.0)

    def test_check_deferred_names_the_array_when_no_op_raises(self):
        replays = []
        finite = [("a", np.ones(2))]
        tensor._check_deferred(finite, lambda: replays.append(1))
        assert replays == []
        with pytest.raises(NonFiniteError, match=r"^b is not finite"):
            tensor._check_deferred([*finite, ("b", np.array([1.0, np.inf])), ("c", np.array([np.nan]))],
                                   lambda: replays.append(1))
        assert replays == [1]


class TestRowMatmul:
    """``_row_matmul`` stacks its whole tiles into one ``np.matmul`` and
    equals a loop of zero-padded products of the tile height byte for byte,
    in float32 and float64, at conv2d's 256-row tiles and at matmul's 16-row
    tiles."""

    @pytest.mark.parametrize("m", [1, 200, 256, 3 * 256, 3 * 256 + 17])
    @pytest.mark.parametrize("n", [1, 8])
    def test_equals_per_tile_products(self, m, n):
        rng = np.random.default_rng(m + n)
        for dtype, tile, k in itertools.product((np.float32, np.float64),
                                                (tensor._TILE_ROWS, tensor._ROW_ALIGN), (9, 36, 144)):
            a = rng.normal(size=(m, k)).astype(dtype)
            b = rng.normal(size=(k, n)).astype(dtype)
            want = _fixed_height(a, b, tile)
            got = tensor._row_matmul(a, b, tile=tile)
            assert got.dtype == dtype
            assert got.tobytes() == want.tobytes()
            # into rows of a larger buffer, as graph-mode conv2d's chunks write
            into = np.zeros((m + 3, n), dtype)
            tensor._row_matmul(a, b, out=into[1:m + 1], tile=tile)
            assert into[1:m + 1].tobytes() == want.tobytes()
            assert not into[0].any() and not into[m + 1:].any()

    def test_matmul_of_float32_rows_runs_in_16_row_tiles(self):
        # float32 rows times float32 weights (a float32 body's layers) in
        # float32, times float64 weights (the head) in float64, and float64
        # rows (a float64 body) times either in float64: every product in
        # 16-row tiles
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(77, 36)), rng.normal(size=(36, 8))
        a32, b32 = a.astype(np.float32), b.astype(np.float32)
        for x, w, want in ((a32, b32, _fixed_height(a32, b32, 16)),
                           (a32, b, _fixed_height(a32.astype(np.float64), b, 16)),
                           (a, b, _fixed_height(a, b, 16)),
                           (a, b32, _fixed_height(a, b32.astype(np.float64), 16))):
            got = (Tensor(x) @ Tensor(w)).data
            assert got.dtype == np.result_type(x, w) and got.tobytes() == want.tobytes()


class TestConvOps:
    def test_conv2d_matches_direct_computation(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 5, 5))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b)).data

        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        expected = np.zeros((2, 4, 5, 5))
        for n in range(2):
            for co in range(4):
                for y in range(5):
                    for xx in range(5):
                        expected[n, co, y, xx] = (
                            np.sum(w[co] * xp[n, :, y:y + 3, xx:xx + 3]) + b[co]
                        )
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_conv1x1_projection(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(5, 2, 1, 1))
        b = np.zeros(5)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        expected = np.einsum("oc,nchw->nohw", w[:, :, 0, 0], x)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_conv2d_matches_einsum_reference_in_both_layouts(self):
        # Forward and all three gradients against an einsum over the same
        # sliding windows, for inputs stored NCHW and channels-last.
        # p > k-1 (k = 1 with p = 1, k = 3 with p = 3) crops the output
        # gradient before the input gradient's transposed convolution.
        rng = np.random.default_rng(5)
        for cin in (1, 3):
            for k, p in ((1, 0), (1, 1), (3, 0), (3, 1), (3, 3), (5, 0), (5, 2)):
                x = rng.normal(size=(2, cin, 5, 6))
                w = rng.normal(size=(4, cin, k, k))
                b = rng.normal(size=4)
                g = rng.normal(size=(2, 4, 6 + 2 * p - k, 7 + 2 * p - k))
                want = _conv_reference(x, w, b, p, g)
                channels_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
                for stored in (x, channels_last):
                    tx = Tensor(stored, requires_grad=True)
                    tw = Tensor(w, requires_grad=True)
                    tb = Tensor(b, requires_grad=True)
                    y = conv2d(tx, tw, tb, padding=p)
                    (y * Tensor(g)).sum().backward()
                    for got, ref in zip((y.data, tx.grad, tw.grad, tb.grad), want):
                        assert got.shape == ref.shape
                        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k, p", [(1, 0), (3, 1), (3, 3), (5, 2)])
    def test_float32_conv2d_matches_float64_reference_to_float32_rounding(self, k, p):
        # Each entry of the output and of dX and dW is a sum of K products
        # whose factors are rounded to float32 (relative error u = eps32/2
        # each, so 2u per product) and summed in float32 (at most K*u of
        # the sum of the magnitudes, whatever the order or blocking). So an
        # entry differs from the float64 one by at most (K + 2) * u times
        # the same sum over |x|, |w| and |g|; this allows twice that.
        # K is k*k*Cin for the output, k*k*Cout for dX and N*Ho*Wo for dW.
        # The output and dX are stored in float32, the output after the
        # float64 bias is added: one more rounding, u * |ref|, allowed
        # twice as eps32 * |ref|. Without it the border entries of k = 3,
        # p = 3 fail: they hold only the bias, every product is zero, and
        # the bias rounds to float32 by up to 7e-9. The bias gradient is
        # float64.
        rng = np.random.default_rng(11)
        n, cin, cout, h, wd = 5, 3, 4, 8, 8   # 320 rows: two float32 tiles
        x = rng.normal(size=(n, cin, h, wd)).astype(np.float32)
        w = rng.normal(size=(cout, cin, k, k))
        b = rng.normal(size=cout)
        g = rng.normal(size=(n, cout, h + 2 * p - k + 1, wd + 2 * p - k + 1)).astype(np.float32)
        x64, g64 = x.astype(np.float64), g.astype(np.float64)
        want = _conv_reference(x64, w, b, p, g64)
        bound = _conv_reference(np.abs(x64), np.abs(w), np.zeros(cout), p, np.abs(g64))
        tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
        y = conv2d(tx, tw, tb, padding=p)
        (y * Tensor(g)).sum().backward()
        eps = np.finfo(np.float32).eps
        terms = (k * k * cin, k * k * cout, g.shape[0] * g.shape[2] * g.shape[3])
        for got, ref, mag, K in zip((y.data, tx.grad, tw.grad), want, bound, terms):
            assert got.shape == ref.shape
            tol = (K + 2) * eps * mag + 1e-12
            if got.dtype == np.float32:   # the output and dX: the stored rounding
                tol += eps * np.abs(ref)
            assert np.all(np.abs(got - ref) <= tol)
        np.testing.assert_allclose(tb.grad, want[3], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype, n, size, cout, chunk_bytes, chunks", [
        # chunks are whole 256-row tiles in either dtype
        ("float64", 2, (5, 6), 4, None, None),
        # chunks that start inside output lines and images (k = 3, p = 1:
        # 25 rows per image, 400 in all): a tile, then a tile and a 144-row
        # tail, which the last product pads with zeros
        ("float64", 16, (5, 5), 5, 1, (2, slice(256, 400))),
        ("float32", 2, (5, 6), 4, None, None),
        # one tile, then a tile and a 63-row tail (575 rows)
        ("float32", 23, (5, 5), 5, 1, (2, slice(256, 575))),
        # the MiniResNet's 16 x 16 images: at k = 3, p = 1 an image is
        # exactly one 256-row tile, so every chunk starts and ends on an image
        ("float32", 3, (16, 16), 4, 1, (3, slice(512, 768))),
        # 4 x 4 images: at k = 3, p = 1 sixteen images a chunk
        ("float64", 40, (4, 4), 3, 1, (3, slice(512, 640))),
    ], ids=["one-chunk", "chunked", "one-chunk-float32", "chunked-float32",
            "image-tiles-float32", "image-chunks"])
    def test_conv2d_is_byte_identical_to_kept_patches(self, dtype, n, size, cout, chunk_bytes,
                                                       chunks, monkeypatch):
        # Graph mode keeps only the input and builds the im2col patches in row
        # chunks, in the forward and again in the backward. The output and dX
        # must equal, bit for bit, one product over patches built once and
        # kept until the backward, in the same dtype; dW and the bias gradient
        # must equal the float64 sums over the same row chunks of those kept
        # patches, and dW must stay within float rounding of one float64
        # product.
        if chunk_bytes is not None:
            monkeypatch.setattr(tensor, "_CONV_CHUNK_BYTES", chunk_bytes)
            got = tensor._conv_chunks(n * size[0] * size[1], 1)
            assert (len(got), got[-1]) == chunks
        h, wd = size
        rng = np.random.default_rng(7)
        eps = np.finfo(dtype).eps
        for cin in (1, 3):
            for k in (1, 3):
                for p in (0, 1, 2):
                    x = rng.normal(size=(n, cin, h, wd)).astype(dtype)
                    w = rng.normal(size=(cout, cin, k, k))
                    b = rng.normal(size=cout)
                    g = rng.normal(size=(n, cout, h + 1 + 2 * p - k, wd + 1 + 2 * p - k)).astype(dtype)
                    rows = tensor._chunk_rows(tensor._CONV_CHUNK_BYTES, x.itemsize * k * k * cin,
                                              tensor._TILE_ROWS)
                    want = _kept_patches_conv(x, w, b, p, g, rows)
                    channels_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
                    for stored in (x, channels_last):
                        tx = Tensor(stored, requires_grad=True)
                        tw = Tensor(w, requires_grad=True)
                        tb = Tensor(b, requires_grad=True)
                        y = conv2d(tx, tw, tb, padding=p)
                        (y * Tensor(g)).sum().backward()
                        for got, ref in zip((y.data, tx.grad, tw.grad, tb.grad), want):
                            assert got.shape == ref.shape and got.dtype == ref.dtype
                            assert np.array_equal(got, ref), (cin, k, p)
                    # dW against one float64 product over the same patches: an
                    # entry sums K = N*Ho*Wo products of values exact in
                    # ``dtype``, each product and running sum rounded with
                    # relative error u = eps/2 in chunks (float64 across
                    # them), so it is within (K + 1) * u of the sum of the
                    # magnitudes; the float64 product is within K * u, so
                    # (K + 1) * eps bounds the difference for either dtype.
                    patches, gmat = _kept_patches(x, p, k), _kept_patches(g, None, 1)
                    ref = patches.astype(np.float64).T @ gmat.astype(np.float64)
                    mag = np.abs(patches.astype(np.float64)).T @ np.abs(gmat.astype(np.float64))
                    dw = tw.grad.transpose(2, 3, 1, 0).reshape(ref.shape)
                    assert np.all(np.abs(dw - ref) <= (len(patches) + 1) * eps * mag), (cin, k, p)

    def test_conv2d_backward_builds_weight_patches_only_for_a_trained_weight(self, monkeypatch):
        # Every conv patch comes from one chunk builder: the forward's and
        # dW's from [.., k, k, Cin] windows of the input, dX's from
        # [.., k, k, Cout] windows of the output gradient (one chunk each at
        # this size). A constant weight skips dW's, and dX keeps its bits.
        shapes = []
        patches = tensor._patches

        def counted(win, rows):
            shapes.append(win.shape[3:])
            return patches(win, rows)

        monkeypatch.setattr(tensor, "_patches", counted)
        rng = np.random.default_rng(12)
        x, w, b = rng.normal(size=(2, 3, 5, 5)), rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4)
        grads = []
        for trained in (True, False):
            tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=trained)
            y = conv2d(tx, tw, Tensor(b))
            assert shapes == [(3, 3, 3)]
            shapes.clear()
            y.sum().backward()
            assert shapes == [(3, 3, 3), (3, 3, 4)][not trained:]
            shapes.clear()
            assert (tw.grad is not None) == trained
            grads.append(tx.grad)
        assert np.array_equal(*grads)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv2d_output_and_input_gradient_take_the_input_dtype(self, dtype):
        # The MiniResNet's float32 activations (and the float64 ones of any
        # other spec): output and dX take the input's dtype, while the weight
        # and bias gradients stay float64, the bias gradient summed in
        # float64 from the output gradient.
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(3, 2, 6, 6)).astype(dtype), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        g = rng.normal(size=(3, 4, 6, 6)).astype(dtype)
        y = conv2d(x, w, b)
        with no_grad():
            y_no_grad = conv2d(x, w, b)
        (y * Tensor(g)).sum().backward()
        for a in (y.data, y_no_grad.data, x.grad):
            assert a.dtype == dtype
        for a in (w.grad, b.grad):
            assert a.dtype == np.float64
        assert np.array_equal(y.data, y_no_grad.data)
        want_db = g.astype(np.float64).sum(axis=(0, 2, 3))
        np.testing.assert_allclose(b.grad, want_db, rtol=0, atol=1e-12)

    def test_cast_passes_the_gradient_back_in_the_source_dtype(self):
        x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        assert tensor._cast(x, "float64") is x
        y = tensor._cast(x, "float32")
        assert y.data.dtype == np.float32
        (y * Tensor(np.array([3.0, 4.0], np.float32))).sum().backward()
        assert x.grad.dtype == np.float64
        np.testing.assert_array_equal(x.grad, [3.0, 4.0])

    def test_cast_overflow_raises_non_finite_error_without_a_warning(self):
        # a float64 weight beyond float32's range, as in a diverged float32 body
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteError, match="op 'cast'"):
                tensor._cast(Tensor(np.array([1e150, 1.0])), "float32")

    def test_conv2d_output_is_channels_last_in_memory(self):
        # The speed of conv2d rests on this layout; the NCHW shape is a view.
        rng = np.random.default_rng(6)
        for k in (1, 3):
            out = conv2d(Tensor(rng.normal(size=(2, 3, 4, 4))), Tensor(rng.normal(size=(5, 3, k, k))),
                         Tensor(np.zeros(5))).data
            assert out.shape == (2, 5, 4, 4)
            assert out.transpose(0, 2, 3, 1).flags.c_contiguous

    def test_conv2d_negative_padding_rejected(self):
        x = Tensor(np.ones((1, 1, 4, 4)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        with pytest.raises(ShapeError, match="-1"):
            conv2d(x, w, Tensor(np.zeros(1)), padding=-1)

    def test_conv2d_kernel_larger_than_padded_input_rejected(self):
        x = Tensor(np.ones((1, 1, 2, 2)))
        w = Tensor(np.ones((1, 1, 5, 5)))
        with pytest.raises(ShapeError, match=r"\(1, 1, 5, 5\).*\(1, 1, 2, 2\)"):
            conv2d(x, w, Tensor(np.zeros(1)), padding=0)
        assert conv2d(x, w, Tensor(np.zeros(1)), padding=2).shape == (1, 1, 2, 2)

    def test_global_avg_pool(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = global_avg_pool(Tensor(x))
        np.testing.assert_allclose(out.data, [[7.5]])


def _conv_reference(x, w, b, p, g):
    """NCHW convolution by einsum over sliding windows, and the gradients of
    sum(out * g) with respect to x, w and b."""
    k = w.shape[-1]
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    out = np.einsum("nchwyx,ocyx->nohw", windows, w) + b[None, :, None, None]
    dxp = np.zeros_like(xp)
    ho, wo = out.shape[2:]
    for dy in range(k):
        for dx in range(k):
            dxp[:, :, dy:dy + ho, dx:dx + wo] += np.einsum("nohw,oc->nchw", g, w[:, :, dy, dx])
    dx = dxp[:, :, p:p + x.shape[2], p:p + x.shape[3]]
    return out, dx, np.einsum("nchwyx,nohw->ocyx", windows, g), g.sum(axis=(0, 2, 3))


class TestCrossEntropyValues:
    def test_uniform_logits(self):
        loss = cross_entropy(Tensor(np.zeros((1, 4))), np.array([2]))
        np.testing.assert_allclose(float(loss), np.log(4.0), atol=1e-12)

    def test_confident_correct(self):
        loss = cross_entropy(Tensor([[10.0, -10.0, -10.0, -10.0]]), np.array([0]))
        assert float(loss) < 1e-8

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            cross_entropy(Tensor(np.zeros((1, 4))), np.array([4]))


def _fixed_height(a, b, tile=256):
    """``a @ b`` as products of exactly ``tile`` rows, the last one
    zero-padded: how ``conv2d`` multiplies its rows (256) and how
    ``matmul`` does (16)."""
    pad = -len(a) % tile
    a = np.concatenate([a, np.zeros((pad, a.shape[1]), a.dtype)])
    return np.concatenate([a[i:i + tile] @ b for i in range(0, len(a), tile)])[:len(a) - pad]


def _kept_patches(a, p, k):
    """The [N*Ho*Wo, k*k*C] im2col patches of the NCHW ``a``, C innermost,
    built whole: ``a`` zero-padded by ``p`` (cropped by ``-p`` when ``p`` < 0),
    or with ``p`` None the channels-last rows of ``a`` itself (k = 1)."""
    al = a.transpose(0, 2, 3, 1)
    if p is None:
        return np.ascontiguousarray(al).reshape(-1, al.shape[3])
    n, h, wd, c = al.shape
    if p >= 0:
        ap = np.zeros((n, h + 2 * p, wd + 2 * p, c), a.dtype)
        ap[:, p:p + h, p:p + wd] = al
    else:
        ap = al[:, -p:p, -p:p]
    windows = np.lib.stride_tricks.sliding_window_view(ap, (k, k), axis=(1, 2))
    return np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3)).reshape(-1, k * k * c)


def _kept_patches_conv(x, w, b, p, g, rows):
    """conv2d's im2col formula in the dtype of ``x`` (and ``g``), with the
    patches built once in the forward and kept for the backward: the output
    and the gradients of sum(out * g) with respect to x, w and b. The output
    and dX are one product each over whole patches, in ``x``'s dtype and in
    256-row tiles; dW and the bias gradient are float64 sums over the
    ``tensor._row_chunks`` of ``rows`` rows, of each chunk's product of its
    kept patches with its rows of the output gradient, and of its float64
    column sums (a GEMV with a ones vector). The weights and the bias are cast to ``x``'s dtype, as
    conv2d casts them."""
    dtype = x.dtype
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    ho, wo = h + 2 * p - k + 1, wd + 2 * p - k + 1
    patches = _kept_patches(x, p, k)
    wmat = w.transpose(2, 3, 1, 0).reshape(k * k * cin, cout).astype(dtype)
    out = _fixed_height(patches, wmat)
    out += b.astype(dtype)
    gmat = _kept_patches(g, None, 1)
    dw, gb = np.zeros((k * k * cin, cout)), np.zeros(cout)
    for c in tensor._row_chunks(len(patches), rows):
        dw += patches[c].T @ gmat[c]
        gb += np.ones(c.stop - c.start) @ gmat[c].astype(np.float64)
    dw = dw.reshape(k, k, cin, cout).transpose(3, 2, 0, 1)
    # dX: the output gradient padded by k-1-p (cropped when p > k-1), its
    # patches kept, times the flipped kernel with Cout and Cin swapped
    gpatches = _kept_patches(g, k - 1 - p, k)
    wflip = w[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(k * k * cout, cin).astype(dtype)
    dx = _fixed_height(gpatches, wflip).reshape(n, h, wd, cin).transpose(0, 3, 1, 2)
    return out.reshape(n, ho, wo, cout).transpose(0, 3, 1, 2), dx, dw, gb
