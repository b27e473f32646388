"""Row-blocked evaluation: every no-grad forward runs in row blocks whose
size comes from the spec, and blocked output equals unblocked output byte
for byte."""

import numpy as np
import pytest

import uqnet.layers as layers
import uqnet.tensor as tensor
from uqnet.data import Dataset
from uqnet.evaluate import EvalConfig, evaluate
from uqnet.layers import VARIANTS, block_rows, build_model, miniresnet_spec, mlp_spec, row_blocks
from uqnet.optim import OptimizerConfig
from uqnet.rng import NS_EVAL_DROPOUT, PassRng, stream
from uqnet.train import TrainConfig, train
from uqnet.uncertainty import mc_probs, variational_outputs

N = 77   # 16-row blocks 16, 16, 16, 16, 13 under the smallest budget


def make(backbone, variant, n=N, classes=4, size=8):
    if backbone == "mlp":
        spec = mlp_spec(3, classes, variant, hidden=16)
    else:
        spec = miniresnet_spec((1, size, size), classes, variant, channels=(4, 6, 6))
    x = np.random.default_rng(1).normal(size=(n,) + spec.input_shape)
    ds = Dataset(x, np.arange(n) % classes, [f"c{k}" for k in range(classes)], "test")
    return spec, build_model(spec, 5), ds


def smallest_blocks(fn):
    """``fn()`` with the block budget shrunk to one byte: every forward runs
    in blocks of the alignment's row count."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(layers, "_BLOCK_BYTES", 1)
        return fn()


def same_bytes(a, b):
    return np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


BACKBONES = ["mlp", "miniresnet"]


class TestRowBlocks:
    def test_default_budget_keeps_small_batches_whole(self):
        # a batch stays one block up to a block and a tail shorter than half a block
        spec, _, _ = make("miniresnet", "bayesian2")
        rows = block_rows(spec)
        for n in (1, rows, rows + rows // 2 - 1):
            x = np.zeros((n,) + spec.input_shape)
            assert [r for r, _ in row_blocks(spec, x)] == [slice(0, n)]
        assert len(row_blocks(spec, np.zeros((rows + rows // 2,) + spec.input_shape))) == 2

    def test_rows_come_from_the_largest_per_example_intermediate(self):
        # the 16-channel conv's im2col row (16 * 16 * 16 * 9 floats) sets the
        # MiniResNet's block, and a hidden-192 activation the MLP's; neither
        # goes below one row alignment
        conv = miniresnet_spec((1, 16, 16), variant="bayesian2")
        for spec, row_bytes in ((conv, 16 * 16 * 16 * 9 * 8), (mlp_spec(2, hidden=192), 192 * 8)):
            assert block_rows(spec) == max(layers._BLOCK_BYTES // row_bytes // 16 * 16, 16)
            with pytest.MonkeyPatch.context() as m:
                m.setattr(layers, "_BLOCK_BYTES", 100 * row_bytes)
                assert block_rows(spec) == 96
        for spec in (conv, mlp_spec(2, hidden=192), mlp_spec(784, hidden=64)):
            assert block_rows(spec) % tensor._ROW_ALIGN == 0

    @pytest.mark.parametrize("n", [1, 7, 8, 15, 16, 23, 24, 31, 32, 33, 40, 77])
    def test_blocks_cover_the_batch_in_aligned_order(self, n):
        spec, _, ds = make("mlp", "baseline", n=n)
        blocks = smallest_blocks(lambda: row_blocks(spec, ds.inputs))
        rows = [r for r, _ in blocks]
        assert rows[0].start == 0 and rows[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(rows, rows[1:]))
        assert all(r.start % 16 == 0 for r in rows)
        assert all(r.stop - r.start >= 8 for r in rows[1:])   # no short tail block
        for r, xb in blocks:
            assert same_bytes(xb.data, ds.inputs[r])

    def test_single_example_is_one_block_of_one_row(self):
        spec, _, ds = make("miniresnet", "baseline")
        [(rows, xb)] = row_blocks(spec, ds.inputs[0])
        assert rows == slice(0, 1) and xb.shape == (1,) + spec.input_shape

    def test_block_rows_do_not_depend_on_the_batch(self):
        spec, _, _ = make("miniresnet", "bayesian2")
        small = np.zeros((2,) + spec.input_shape)
        large = np.zeros((5 * block_rows(spec),) + spec.input_shape)
        assert [r.stop - r.start for r, _ in row_blocks(spec, large)] == [block_rows(spec)] * 5
        assert len(row_blocks(spec, small)) == 1


class TestPassStreams:
    def test_a_pass_continues_each_layer_stream_across_blocks(self):
        pass_rng = PassRng(3, 2, NS_EVAL_DROPOUT)
        assert pass_rng.layer(4) is pass_rng.layer(4)
        first, second = pass_rng.layer(4).random((5, 3)), pass_rng.layer(4).random((7, 3))
        whole = stream(3, NS_EVAL_DROPOUT, 2, 4).random((12, 3))
        assert same_bytes(np.concatenate([first, second]), whole)
        assert same_bytes(PassRng(3, 2, NS_EVAL_DROPOUT).layer(4).random((5, 3)), first)


class TestBlockedEqualsUnblocked:
    @pytest.mark.parametrize("backbone", BACKBONES)
    @pytest.mark.parametrize("variant", ["bayesian1", "bayesian2"])
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("n", [N, 50])   # 50: its two-row tail joins the third block
    def test_mc_probs(self, backbone, variant, workers, n):
        spec, params, ds = make(backbone, variant, n=n)
        assert len(smallest_blocks(lambda: row_blocks(spec, ds.inputs))) == (n + 8) // 16
        whole = mc_probs(params, spec, ds.inputs, 6, seed=3, workers=workers)
        blocked = smallest_blocks(lambda: mc_probs(params, spec, ds.inputs, 6, seed=3,
                                                   workers=workers))
        assert same_bytes(blocked, whole)

    def test_float32_conv_rows_do_not_depend_on_where_a_block_starts(self):
        # The MiniResNet preset's convs compute in float32, in 256-row
        # products. 5x5 inputs give 25 patch rows per example, so a 16-example
        # block starts at patch row 400: the blocked forward's products start
        # where the whole batch's products are mid-tile.
        spec, params, ds = make("miniresnet", "bayesian2", size=5)
        assert spec.conv_dtype == "float32"
        starts = [rows.start * 25 for rows, _ in smallest_blocks(lambda: row_blocks(spec, ds.inputs))]
        assert [s % tensor._TILE_ROWS for s in starts] == [0, 144, 32, 176, 64]
        whole = mc_probs(params, spec, ds.inputs, 6, seed=3)
        assert same_bytes(smallest_blocks(lambda: mc_probs(params, spec, ds.inputs, 6, seed=3)), whole)
        whole = layers.eval_heads(params, spec, ds.inputs)[0]
        assert same_bytes(smallest_blocks(lambda: layers.eval_heads(params, spec, ds.inputs))[0], whole)

    @pytest.mark.parametrize("backbone", BACKBONES)
    @pytest.mark.parametrize("variant,space", [(v, "analytic") for v in VARIANTS]
                             + [("variational", "sampled")])
    def test_evaluate(self, backbone, variant, space):
        spec, params, ds = make(backbone, variant)
        cfg = EvalConfig(T=5, S=5, seed=2, space=space)
        (m1, r1), (m2, r2) = (evaluate(params, spec, ds, cfg),
                              smallest_blocks(lambda: evaluate(params, spec, ds, cfg)))
        for a, b in ((r1.y_pred, r2.y_pred), (r1.scores, r2.scores),
                     (r1.entropies, r2.entropies), (m1.confusion, m2.confusion)):
            assert same_bytes(a, b)

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_variational_outputs(self, backbone):
        spec, params, ds = make(backbone, "variational")
        whole = variational_outputs(params, spec, ds.inputs)
        blocked = smallest_blocks(lambda: variational_outputs(params, spec, ds.inputs))
        assert all(same_bytes(a, b) for a, b in zip(whole, blocked))

    @pytest.mark.parametrize("backbone", BACKBONES)
    @pytest.mark.parametrize("variant", ["bayesian2", "variational"])
    def test_train_log_and_parameters(self, backbone, variant):
        spec, _, ds = make(backbone, variant, n=2 * N)
        tr, va = ds.subset(np.arange(N)), ds.subset(np.arange(N, 2 * N))
        cfg = TrainConfig(OptimizerConfig("adam", lr=1e-2), epochs=2, batch_size=32, beta=0.1)

        def run():
            return train(build_model(spec, 5), spec, tr, va, cfg, seed=4)

        whole, blocked = run(), smallest_blocks(run)
        assert repr(whole.log) == repr(blocked.log)
        assert whole.best_epoch == blocked.best_epoch
        for name in whole.params.names():
            assert same_bytes(whole.params[name].data, blocked.params[name].data)

