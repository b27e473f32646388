"""Row-blocked evaluation: every no-grad forward runs in row blocks whose
size comes from the spec, and blocked output equals unblocked output byte
for byte."""

from dataclasses import replace

import numpy as np
import pytest

import uqnet.layers as layers
import uqnet.tensor as tensor
from uqnet.data import Dataset
from uqnet.evaluate import EvalConfig, evaluate
from uqnet.layers import (MC_VARIANTS, VARIANTS, block_rows, build_model, miniresnet_spec, mlp_spec,
                          row_blocks)
from uqnet.optim import OptimizerConfig
from uqnet.rng import NS_EVAL_DROPOUT, PassRng, stream
from uqnet.train import TrainConfig, train
from uqnet.uncertainty import mc_predict, mc_probs, variational_outputs

N = 77   # 16-row blocks 16, 16, 16, 16, 13 under the smallest budget


def make(backbone, variant, n=N, classes=4, size=8):
    if backbone == "mlp":
        spec = mlp_spec(3, classes, variant, hidden=16)
    else:
        spec = miniresnet_spec((1, size, size), classes, variant, channels=(4, 6, 6))
    x = np.random.default_rng(1).normal(size=(n,) + spec.input_shape)
    ds = Dataset(x, np.arange(n) % classes, [f"c{k}" for k in range(classes)])
    return spec, build_model(spec, 5), ds


def with_budget(nbytes, fn):
    """``fn()`` with the block budget set to ``nbytes``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(layers, "_BLOCK_BYTES", nbytes)
        return fn()


def smallest_blocks(fn):
    """``fn()`` with the block budget shrunk to one byte: every forward runs
    in blocks of the alignment's row count."""
    return with_budget(1, fn)


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
        # the largest layer activation sets the block: a 16-channel 16x16 map
        # for the MiniResNet and a hidden-192 vector for the MLP; a conv's
        # im2col patches do not count, since conv2d builds them in chunks.
        # The presets' blocks: the 16-row alignment floor and 128 rows
        conv, mlp = miniresnet_spec((1, 16, 16), variant="bayesian2"), mlp_spec(2, hidden=192)
        assert (block_rows(conv), block_rows(mlp)) == (16, 128)
        for spec, row_bytes in ((conv, 16 * 16 * 16 * 8), (mlp, 192 * 8)):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(layers, "_BLOCK_BYTES", 100 * row_bytes)
                assert block_rows(spec) == 96
        for spec in (conv, mlp, mlp_spec(784, hidden=64)):
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
        assert spec.dtype == "float32"
        starts = [rows.start * 25 for rows, _ in smallest_blocks(lambda: row_blocks(spec, ds.inputs))]
        assert [s % tensor._TILE_ROWS for s in starts] == [0, 144, 32, 176, 64]
        whole = mc_probs(params, spec, ds.inputs, 6, seed=3)
        assert same_bytes(smallest_blocks(lambda: mc_probs(params, spec, ds.inputs, 6, seed=3)), whole)
        whole = layers.eval_heads(params, spec, ds.inputs)[0]
        assert same_bytes(smallest_blocks(lambda: layers.eval_heads(params, spec, ds.inputs))[0], whole)

    @pytest.mark.parametrize("backbone", BACKBONES)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_evaluate(self, backbone, variant):
        spec, params, ds = make(backbone, variant)
        cfg = EvalConfig(T=5, S=5, seed=2)
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



class TestRowInvariance:
    """Every row-indexed product runs in fixed-height GEMM tiles, 16 rows for
    a matmul and 256 for a conv, in a float32 body and a float64 one alike.
    So evaluation gives the same bytes in 16-row blocks, in the default
    blocks and in one whole block, and one example gives the bytes of its
    row in a batch."""

    # (backbone, body dtype, classes): the MLP's float32 preset and float64
    # copies, with the 4-class head and a 10-class one, and a float64
    # MiniResNet on 5x5 images, whose 25 patch rows an example start its
    # default blocks inside conv tiles
    CASES = [("mlp", "float32", 4), ("mlp", "float32", 10), ("mlp", "float64", 4),
             ("mlp", "float64", 10), ("miniresnet", "float64", 4)]
    # the row counts of the blocks at each budget, and the batch size
    BLOCKS = {
        # hidden 100: the default block, 240 rows, is no multiple of 64
        "mlp": {"16": [16] * 37 + [8], "default": [240, 240, 120], "whole": [600]},
        "miniresnet": {"16": [16] * 8 + [22], "default": [48, 48, 54], "whole": [150]},
    }

    @pytest.fixture(params=CASES, ids=["-".join(map(str, c)) for c in CASES])
    def case(self, request):
        return request.param

    def make(self, case, variant):
        backbone, dtype, classes = case
        if backbone == "mlp":
            spec = mlp_spec(3, classes, variant, hidden=100)
        else:
            spec = miniresnet_spec((1, 5, 5), classes, variant)
        spec = replace(spec, dtype=dtype)
        n = self.BLOCKS[backbone]["whole"][0]
        x = np.random.default_rng(1).normal(size=(n,) + spec.input_shape)
        ds = Dataset(x, np.arange(n) % classes, [f"c{k}" for k in range(classes)])
        return spec, build_model(spec, 5), ds

    def at_three_block_sizes(self, spec, ds, fn):
        """``fn()`` in 16-row blocks, in the default blocks and in one block
        of every row."""
        sizes = {"16": 1, "default": layers._BLOCK_BYTES, "whole": 1 << 40}
        blocks = {k: [r.stop - r.start for r, _ in with_budget(b, lambda: row_blocks(spec, ds.inputs))]
                  for k, b in sizes.items()}
        assert blocks == self.BLOCKS[spec.backbone]
        return [with_budget(b, fn) for b in sizes.values()]

    @pytest.mark.parametrize("variant", ["bayesian1", "bayesian2"])
    def test_mc_probs(self, case, variant):
        spec, params, ds = self.make(case, variant)
        outs = self.at_three_block_sizes(spec, ds, lambda: mc_probs(params, spec, ds.inputs, 4, seed=3))
        assert all(same_bytes(o, outs[0]) for o in outs[1:])

    @pytest.mark.parametrize("variant", ["baseline", "variational"])
    def test_eval_heads(self, case, variant):
        spec, params, ds = self.make(case, variant)
        outs = self.at_three_block_sizes(spec, ds, lambda: layers.eval_heads(params, spec, ds.inputs))
        for out in outs[1:]:
            assert all(a is b is None or same_bytes(a, b) for a, b in zip(out, outs[0]))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_evaluate(self, case, variant):
        spec, params, ds = self.make(case, variant)
        cfg = EvalConfig(T=4, S=4, seed=2)
        outs = self.at_three_block_sizes(spec, ds, lambda: evaluate(params, spec, ds, cfg))
        for m, r in outs[1:]:
            m0, r0 = outs[0]
            for a, b in ((r.y_pred, r0.y_pred), (r.scores, r0.scores),
                         (r.entropies, r0.entropies), (m.confusion, m0.confusion)):
                assert same_bytes(a, b)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_example_is_row_0_of_the_batch(self, case, variant):
        spec, params, ds = self.make(case, variant)
        for one, batch in zip(layers.eval_heads(params, spec, ds.inputs[0]),
                              layers.eval_heads(params, spec, ds.inputs)):
            assert one is batch is None or same_bytes(one, batch[:1])
        if variant in MC_VARIANTS:
            batch = mc_probs(params, spec, ds.inputs, 4, seed=3)
            one = mc_predict(params, spec, ds.inputs[0], 4, seed=3)
            assert same_bytes(one.samples, batch[:, 0])
