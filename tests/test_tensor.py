"""Core autodiff engine: forward values, backward values, graph semantics."""

import numpy as np
import pytest

import uqnet.tensor as tensor
from uqnet.tensor import (
    NonFiniteError,
    ShapeError,
    Tensor,
    conv2d,
    cross_entropy,
    finite_checks,
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
        assert root._parents[0].grad is None

    def test_relu_and_clip_gradients_keep_signed_zeros_and_nonfinite(self):
        # g times the mask, bit for bit as g * 1.0 or g * 0.0: -0.0 keeps its
        # sign, and a masked-out nan or inf gives nan
        x = Tensor([-1.0, 2.0, 0.5, 3.0], requires_grad=True)
        g = np.array([2.0, -0.0, np.nan, np.inf])
        with finite_checks(False), np.errstate(invalid="ignore"):
            (x.relu() * Tensor(g)).sum().backward()
            relu_grad = x.grad
            x.zero_grad()
            (x.clip(0.0, 1.0) * Tensor(g)).sum().backward()
            want_relu = g * np.array([0.0, 1.0, 1.0, 1.0])
            want_clip = g * np.array([0.0, 0.0, 1.0, 0.0])
        assert relu_grad.tobytes() == want_relu.tobytes()
        assert x.grad.tobytes() == want_clip.tobytes()

    def test_no_grad_skips_recording(self):
        x = Tensor(3.0, requires_grad=True)
        with no_grad():
            y = x.square()
        assert y._parents == ()
        with pytest.raises(ValueError):
            y.backward()


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
    def test_nonfinite_result_raises_with_node(self):
        x = Tensor([-1.0])
        with pytest.raises(NonFiniteError, match=r"op 'log' .*node"):
            x.log()

    def test_checks_can_be_disabled(self):
        with finite_checks(False):
            y = Tensor([-1.0]).log()
        assert np.isnan(y.data[0])

    def test_nonfinite_leaf_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.nan])


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
        rng = np.random.default_rng(5)
        for cin in (1, 3):
            for k in (1, 3):
                for p in (0, k // 2):
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

    @pytest.mark.parametrize("n, size, cout, chunk_bytes", [
        (2, (5, 6), 4, None),
        # 16-row chunks that start inside output lines and images (k = 3,
        # p = 1: 25 rows per image, 175 in all), plus a 15-row tail
        (7, (5, 5), 5, 1),
    ], ids=["one-chunk", "chunked"])
    def test_conv2d_is_byte_identical_to_kept_patches(self, n, size, cout, chunk_bytes,
                                                       monkeypatch):
        # Graph mode keeps only the input, multiplies the im2col patches in row
        # chunks and rebuilds them all in the backward; the output and all three
        # gradients must equal, bit for bit, the formula that built the
        # patches once and kept them until the backward.
        if chunk_bytes is not None:
            monkeypatch.setattr(tensor, "_CONV_CHUNK_BYTES", chunk_bytes)
            chunks = tensor._row_chunks(n * size[0] * size[1], tensor._chunk_rows(chunk_bytes, 1))
            assert len(chunks) == 11 and chunks[-1] == slice(160, 175)
        h, wd = size
        rng = np.random.default_rng(7)
        for cin in (1, 3):
            for k in (1, 3):
                for p in (0, 1, 2):
                    x = rng.normal(size=(n, cin, h, wd))
                    w = rng.normal(size=(cout, cin, k, k))
                    b = rng.normal(size=cout)
                    g = rng.normal(size=(n, cout, h + 1 + 2 * p - k, wd + 1 + 2 * p - k))
                    want = _kept_patches_conv(x, w, b, p, g)
                    channels_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
                    for stored in (x, channels_last):
                        tx = Tensor(stored, requires_grad=True)
                        tw = Tensor(w, requires_grad=True)
                        tb = Tensor(b, requires_grad=True)
                        y = conv2d(tx, tw, tb, padding=p)
                        (y * Tensor(g)).sum().backward()
                        for got, ref in zip((y.data, tx.grad, tw.grad, tb.grad), want):
                            assert got.shape == ref.shape
                            assert np.array_equal(got, ref), (cin, k, p)

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


def _kept_patches_conv(x, w, b, p, g):
    """conv2d's im2col formula with the patches built once in the forward and
    reused by the backward: the output and the gradients of sum(out * g) with
    respect to x, w and b."""
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    ho, wo = h + 2 * p - k + 1, wd + 2 * p - k + 1
    xp = np.zeros((n, h + 2 * p, wd + 2 * p, cin))
    xp[:, p:p + h, p:p + wd] = x.transpose(0, 2, 3, 1)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    patches = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3)).reshape(n * ho * wo, k * k * cin)
    wmat = w.transpose(2, 3, 1, 0).reshape(k * k * cin, cout)
    out = patches @ wmat
    out += b
    gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, cout)
    dw = (patches.T @ gmat).reshape(k, k, cin, cout).transpose(3, 2, 0, 1)
    gxp = np.zeros(xp.shape)
    for dy in range(k):
        for dx in range(k):
            tap = wmat[(dy * k + dx) * cin:(dy * k + dx + 1) * cin]
            gxp[:, dy:dy + ho, dx:dx + wo] += (gmat @ tap.T).reshape(n, ho, wo, cin)
    dx = gxp[:, p:p + h, p:p + wd].transpose(0, 3, 1, 2)
    return out.reshape(n, ho, wo, cout).transpose(0, 3, 1, 2), dx, dw, gmat.sum(axis=0)
