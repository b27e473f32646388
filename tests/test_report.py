"""Uncertainty report: grouping, ratio, quartiles, histogram contracts."""

import csv

import numpy as np
import pytest

from uqnet.artifacts import write_per_example_csv
from uqnet.report import HISTOGRAM_BINS, build_report


def _fixture(seed=0, n=200, error_rate=0.2, scale=1.0):
    rng = np.random.default_rng(seed)
    y_true = rng.integers(0, 4, size=n)
    y_pred = y_true.copy()
    flip = rng.random(n) < error_rate
    y_pred[flip] = (y_true[flip] + 1) % 4
    # incorrect examples get systematically larger scores
    scores = scale * (rng.uniform(0.1, 0.5, size=n) + np.where(flip, 1.0, 0.0))
    entropies = rng.uniform(0.0, np.log(4.0), size=n)
    return y_true, y_pred, scores, entropies


class TestRatio:
    def test_ratio_matches_group_means(self):
        y_true, y_pred, scores, entropies = _fixture()
        rep = build_report(y_true, y_pred, scores, entropies, "mc-dropout")
        correct = y_true == y_pred
        expected = scores[~correct].mean() / scores[correct].mean()
        assert abs(rep.ratio - expected) < 1e-12
        assert rep.ratio > 1.0

    def test_ratio_invariant_under_positive_scaling(self):
        y_true, y_pred, scores, entropies = _fixture(1)
        r1 = build_report(y_true, y_pred, scores, entropies, "mc-dropout").ratio
        r2 = build_report(y_true, y_pred, 7.5 * scores, entropies, "mc-dropout").ratio
        assert abs(r1 - r2) < 1e-9 * r1

    def test_all_correct_marks_ratio_undefined(self):
        y = np.arange(12) % 4
        rep = build_report(y, y, np.full(12, 0.3), np.zeros(12), "mc-dropout")
        assert rep.ratio is None
        assert rep.incorrect_group is None
        assert rep.correct_group.count == 12


class TestHistogram:
    def test_shared_edges_and_unit_mass(self):
        y_true, y_pred, scores, entropies = _fixture(2)
        rep = build_report(y_true, y_pred, scores, entropies, "mc-dropout")
        assert rep.hist_edges.shape == (HISTOGRAM_BINS + 1,)
        assert rep.hist_edges[0] == 0.0
        assert rep.hist_edges[-1] == scores.max()
        assert abs(rep.hist_correct.sum() - 1.0) < 1e-9
        assert abs(rep.hist_incorrect.sum() - 1.0) < 1e-9

    def test_degenerate_zero_scores_keep_wellformed_bins(self):
        y_true = np.array([0, 1, 2, 3])
        y_pred = np.array([0, 1, 2, 0])
        rep = build_report(y_true, y_pred, np.zeros(4), np.zeros(4), "mc-dropout")
        assert rep.hist_edges[-1] > rep.hist_edges[0]
        assert abs(rep.hist_correct.sum() - 1.0) < 1e-9


class TestGroups:
    def test_quartiles_match_numpy(self):
        y_true, y_pred, scores, entropies = _fixture(3)
        rep = build_report(y_true, y_pred, scores, entropies, "mc-dropout")
        correct = y_true == y_pred
        expected = np.quantile(scores[correct], [0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(rep.correct_group.quartiles, expected)

    def test_counts_partition_examples(self):
        y_true, y_pred, scores, entropies = _fixture(4)
        rep = build_report(y_true, y_pred, scores, entropies, "mc-dropout")
        assert rep.correct_group.count + rep.incorrect_group.count == len(y_true)


class TestPerExampleCsv:
    def test_id_and_correct_columns(self, tmp_path):
        y_true, y_pred, scores, entropies = _fixture(5, n=40)
        path = str(tmp_path / "per_example.csv")
        write_per_example_csv(build_report(y_true, y_pred, scores, entropies, "mc-dropout"), path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["id"] for r in rows] == [str(i) for i in range(40)]
        assert [int(r["true"]) for r in rows] == y_true.tolist()
        assert [int(r["predicted"]) for r in rows] == y_pred.tolist()
        assert [r["correct"] for r in rows] == [str(int(t == p)) for t, p in zip(y_true, y_pred)]
        assert {r["correct"] for r in rows} == {"0", "1"}


class TestValidation:
    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            build_report([0], [0], [-0.1], [0.0], "mc-dropout")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            build_report([0, 1], [0], [0.1], [0.0], "mc-dropout")

    @pytest.mark.parametrize("scores", [[0.1, np.nan, 0.3], [np.inf, 0.2, 0.3], [0.1, 0.2, -np.inf]])
    def test_non_finite_scores_rejected(self, scores):
        # a NaN made R NaN, and an Inf in the correct group made it 0.0
        with pytest.raises(ValueError, match="scores must be finite"):
            build_report([0, 1, 1], [0, 1, 0], scores, [0.1, 0.2, 0.3], "mc-dropout")

    @pytest.mark.parametrize("entropy", [np.nan, np.inf])
    def test_non_finite_entropies_rejected(self, entropy):
        with pytest.raises(ValueError, match="entropies must be finite"):
            build_report([0, 1, 1], [0, 1, 0], [0.1, 0.2, 0.3], [0.1, entropy, 0.3], "mc-dropout")
