"""Evaluation harness: per-variant prediction rules, report plumbing, comparison."""

import numpy as np
import pytest

from uqnet.data import SplitSpec, split, synth_blobs
from uqnet.evaluate import EvalConfig, compare_variants, evaluate
from uqnet.layers import build_model, mlp_spec
from uqnet.optim import OptimizerConfig
from uqnet.train import TrainConfig, train

TRAIN_CFG = TrainConfig(OptimizerConfig("adam", lr=2e-3), epochs=8, batch_size=64, beta=0.05)


def trained(variant, seed=0, overlap=0.25):
    ds = synth_blobs(800, 4, overlap=overlap, dim=2, seed=seed)
    tr, va, te = split(ds, SplitSpec(0.7, 0.15, 0.15, seed=seed))
    spec = mlp_spec(2, variant=variant, hidden=32)
    params = build_model(spec, seed)
    result = train(params, spec, tr, va, TRAIN_CFG, seed)
    return spec, result.params, te


class TestVariantRules:
    def test_baseline_scores_with_entropy(self):
        spec, params, te = trained("baseline")
        metrics, report = evaluate(params, spec, te, EvalConfig(seed=0))
        assert report.method == "entropy"
        assert metrics.accuracy > 0.8
        np.testing.assert_allclose(report.scores, report.entropies)

    def test_bayesian_scores_with_mc_variance(self):
        spec, params, te = trained("bayesian1")
        _, report = evaluate(params, spec, te, EvalConfig(T=16, seed=0))
        assert report.method == "mc-dropout"
        assert report.scores.min() >= 0.0

    def test_variational_analytic_and_sampled_spaces(self):
        spec, params, te = trained("variational")
        _, analytic = evaluate(params, spec, te, EvalConfig(seed=0, space="analytic"))
        _, sampled = evaluate(params, spec, te, EvalConfig(S=64, seed=0, space="sampled"))
        assert analytic.method == "variational-analytic"
        assert sampled.method == "variational-sampled"
        assert not np.array_equal(analytic.scores, sampled.scores)
        np.testing.assert_array_equal(analytic.y_pred, sampled.y_pred)

    def test_unknown_space_rejected(self):
        spec, params, te = trained("variational")
        with pytest.raises(ValueError, match="space"):
            evaluate(params, spec, te, EvalConfig(space="orbital"))

    def test_class_count_mismatch_rejected(self):
        spec, params, _ = trained("baseline")
        other = synth_blobs(40, n_classes=2, seed=0)
        with pytest.raises(ValueError, match="classes"):
            evaluate(params, spec, other, EvalConfig())


class TestDeterminism:
    def test_repeated_evaluation_is_bit_identical(self):
        spec, params, te = trained("bayesian2")
        cfg = EvalConfig(T=24, seed=5)
        _, r1 = evaluate(params, spec, te, cfg)
        _, r2 = evaluate(params, spec, te, cfg)
        np.testing.assert_array_equal(r1.scores, r2.scores)
        np.testing.assert_array_equal(r1.y_pred, r2.y_pred)

    def test_parallel_workers_match_sequential(self):
        spec, params, te = trained("bayesian1")
        _, seq = evaluate(params, spec, te, EvalConfig(T=24, seed=3, workers=1))
        _, par = evaluate(params, spec, te, EvalConfig(T=24, seed=3, workers=4))
        np.testing.assert_array_equal(seq.scores, par.scores)


class TestComparison:
    def test_four_variant_rows_are_wellformed(self):
        def make_splits(seed):
            ds = synth_blobs(800, 4, overlap=0.3, dim=2, seed=seed)
            return split(ds, SplitSpec(0.7, 0.15, 0.15, seed=seed))

        rows, runs = compare_variants(
            make_splits, lambda v: mlp_spec(2, variant=v, hidden=32),
            TRAIN_CFG, EvalConfig(T=16, S=16, seed=0, space="sampled"), seeds=[0])

        assert [r.variant for r in rows] == ["baseline", "bayesian1", "bayesian2", "variational"]
        for row in rows:
            assert 0.0 <= row.accuracy <= 1.0
            assert row.ratio is None or row.ratio > 0
        assert len(runs) == 4

    @staticmethod
    def two_seed_tags(seeds):
        def make_splits(seed):
            ds = synth_blobs(400, 4, overlap=0.2, dim=2, seed=seed)
            return split(ds, SplitSpec(0.7, 0.15, 0.15, seed=seed))

        quick = TrainConfig(OptimizerConfig("adam", lr=2e-3), epochs=3, batch_size=64)
        rows, _ = compare_variants(
            make_splits, lambda v: mlp_spec(2, variant=v, hidden=32),
            quick, EvalConfig(T=8, S=8, seed=0), seeds=seeds,
            variants=("baseline", "bayesian1"))
        return [(r.variant, r.seed) for r in rows]

    def test_multi_seed_adds_mean_and_range_rows(self):
        tags = self.two_seed_tags([0, 1])
        assert ("baseline", "mean") in tags and ("baseline", "range") in tags
        assert ("bayesian1", "0") in tags and ("bayesian1", "1") in tags

    def test_iterator_seeds_keep_aggregate_rows(self):
        assert self.two_seed_tags(iter([0, 1])) == self.two_seed_tags(range(2))
