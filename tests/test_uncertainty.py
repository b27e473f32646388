"""Uncertainty mechanisms: KLD, reparameterized sampling, MC dropout, scores."""

import sys
from dataclasses import replace

import numpy as np
import pytest

from uqnet.data import Dataset
from uqnet.evaluate import EvalConfig, evaluate
import uqnet.layers as layers
from uqnet.layers import (MC_VARIANTS, block_rows, body_forward, build_model, eval_heads, head_forward,
                          miniresnet_spec, mlp_spec)
from uqnet.rng import NS_EVAL_DROPOUT, NS_EVAL_NOISE, PassRng, stream
from uqnet.tensor import NonFiniteError, Tensor, _row_chunks, check_gradient, no_grad
from uqnet.uncertainty import (
    PosteriorSamples,
    VariationalOutput,
    _batched_eval_noise,
    kld,
    kld_from_logvar,
    mc_predict,
    mc_probs,
    np_softmax,
    predictive_entropy,
    reparameterized_samples,
    sampled_scores,
    uncertainty_score,
    unbiased_variance,
    variance_score,
    variational_forward,
    variational_outputs,
)


def independent_mc_probs(params, spec, x, T, seed):
    """T full dropout-active passes with nothing shared between them."""
    with no_grad():
        return np.stack([
            np_softmax(head_forward(params, spec, body_forward(params, spec, x, PassRng(
                seed, t, NS_EVAL_DROPOUT)))[0].data)
            for t in range(T)
        ])


def mc_kl_estimate(mu, sigma2, n_draws, seed):
    """Monte Carlo estimate of KL(N(mu, diag s2) || N(0, I)) — independent oracle."""
    mu = np.asarray(mu, dtype=np.float64)
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    rng = np.random.default_rng(seed)
    x = mu + np.sqrt(sigma2) * rng.standard_normal((n_draws, mu.size))
    log_q = -0.5 * (((x - mu) ** 2) / sigma2 + np.log(2.0 * np.pi * sigma2)).sum(axis=1)
    log_p = -0.5 * (x ** 2 + np.log(2.0 * np.pi)).sum(axis=1)
    return float((log_q - log_p).mean())


class TestKld:
    def test_zero_at_standard_normal(self):
        assert kld(np.zeros(4), np.ones(4)) == 0.0

    def test_shifted_mean_value(self):
        # -1/2 [(1+0-1-1) + (1+0-0-1)] = 0.5, cross-checked by the MC oracle
        assert abs(kld([1.0, 0.0], [1.0, 1.0]) - 0.5) < 1e-12
        assert abs(mc_kl_estimate([1.0, 0.0], [1.0, 1.0], 10 ** 6, 0) - 0.5) < 1e-2

    def test_inflated_variance_value(self):
        expected = 0.5 * (4.0 - 1.0 - np.log(4.0))
        assert abs(kld([0.0], [4.0]) - expected) < 1e-12
        assert abs(mc_kl_estimate([0.0], [4.0], 10 ** 6, 1) - expected) < 1e-2

    def test_nonnegative_with_equality_only_at_origin(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            c = int(rng.integers(1, 6))
            mu = rng.normal(0, 2, size=c)
            s2 = rng.uniform(0.05, 5.0, size=c)
            assert kld(mu, s2) >= 0.0
        # any perturbation away from (0, 1) is strictly positive
        assert kld([0.01], [1.0]) > 0.0
        assert kld([0.0], [1.01]) > 0.0
        assert kld([0.0], [0.99]) > 0.0

    def test_rejects_nonpositive_sigma2(self):
        with pytest.raises(ValueError, match="positive"):
            kld([0.0], [0.0])
        with pytest.raises(ValueError, match="positive"):
            kld(Tensor([0.0]), Tensor([-1.0]))

    def test_gradient_wrt_mu(self):
        s2 = Tensor(np.array([0.5, 1.5, 2.0]))
        err = check_gradient(lambda m: kld(m, s2), np.array([0.3, -1.0, 0.7]))
        assert err < 1e-4

    def test_gradient_wrt_sigma2(self):
        mu = Tensor(np.array([0.3, -1.0, 0.7]))
        err = check_gradient(lambda s: kld(mu, s), np.array([0.5, 1.5, 2.0]))
        assert err < 1e-4

    def test_tensor_and_array_paths_agree(self):
        rng = np.random.default_rng(3)
        mu = rng.normal(size=5)
        s2 = rng.uniform(0.2, 3.0, size=5)
        assert abs(float(kld(Tensor(mu), Tensor(s2))) - kld(mu, s2)) < 1e-12

    def test_batch_logvar_form_matches_pointwise(self):
        rng = np.random.default_rng(4)
        mu = rng.normal(size=(3, 4))
        logvar = rng.normal(size=(3, 4))
        batch = float(kld_from_logvar(Tensor(mu), Tensor(logvar)))
        pointwise = np.mean([kld(mu[i], np.exp(logvar[i])) for i in range(3)])
        assert abs(batch - pointwise) < 1e-12


class TestReparameterization:
    def test_zero_eps_returns_mu(self):
        mu = np.array([1.0, -2.0, 0.5, 3.0])
        s2 = np.array([0.04, 0.25, 1.0, 4.0])
        out = reparameterized_samples(mu, s2, 1, seed=0, eps=np.zeros((1, 4)))
        np.testing.assert_array_equal(out, mu[None, :])

    def test_sampling_statistics(self):
        # Gaussian sampling-statistics oracle at S = 10^4
        mu = np.array([1.0, 0.0, 0.0, 0.0])
        s2 = np.array([0.04, 0.09, 0.25, 1.0])
        S = 10_000
        draws = reparameterized_samples(mu, s2, S, seed=5)
        bound = 3.0 * np.sqrt(s2) / np.sqrt(S)
        assert np.all(np.abs(draws.mean(axis=0) - mu) < bound)
        var = draws.var(axis=0, ddof=1)
        assert np.all(np.abs(var - s2) < 0.10 * s2)

    def test_third_moment_is_normal(self):
        mu = np.zeros(4)
        s2 = np.full(4, 2.0)
        draws = reparameterized_samples(mu, s2, 10 ** 5, seed=6)
        z = (draws - mu) / np.sqrt(s2)
        skew = (z ** 3).mean(axis=0)
        assert np.all(np.abs(skew) < 0.1)

    def test_draws_are_deterministic(self):
        a = reparameterized_samples(np.zeros(3), np.ones(3), 50, seed=7)
        b = reparameterized_samples(np.zeros(3), np.ones(3), 50, seed=7)
        np.testing.assert_array_equal(a, b)
        eps = _batched_eval_noise(7, 4, (3,))
        assert eps.shape == (4, 3)
        np.testing.assert_array_equal(eps, _batched_eval_noise(7, 4, (3,)))
        np.testing.assert_array_equal(eps[2], stream(7, NS_EVAL_NOISE, 2).standard_normal(3))

    def test_noise_blocks_sharing_generators_equal_one_draw(self):
        gens = []
        blocks = [_batched_eval_noise(7, 4, (2, 3), gens), _batched_eval_noise(7, 4, (5, 3), gens)]
        assert len(gens) == 4
        np.testing.assert_array_equal(np.concatenate(blocks, axis=1), _batched_eval_noise(7, 4, (7, 3)))


class TestVariationalForward:
    def setup_method(self):
        self.spec = mlp_spec(2, variant="variational")
        self.params = build_model(self.spec, 0)
        self.x = np.array([0.4, -1.2])

    def test_sigma2_strictly_positive(self):
        out = variational_forward(self.params, self.spec, self.x)
        assert np.all(out.sigma2 > 0)

    def test_forced_zero_eps_equals_mu(self):
        out = variational_forward(self.params, self.spec, self.x, S=1, eps=np.zeros((1, 4)))
        np.testing.assert_array_equal(out.samples[0], out.mu)

    def test_frozen_rng_is_deterministic(self):
        a = variational_forward(self.params, self.spec, self.x, S=20, seed=9)
        b = variational_forward(self.params, self.spec, self.x, S=20, seed=9)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_rejects_non_variational_spec(self):
        spec = mlp_spec(2, variant="baseline")
        params = build_model(spec, 0)
        with pytest.raises(ValueError, match="variational"):
            variational_forward(params, spec, self.x)

    def test_sample_statistics_match_heads(self):
        out = variational_forward(self.params, self.spec, self.x, S=10_000, seed=10)
        bound = 3.0 * np.sqrt(out.sigma2) / np.sqrt(10_000)
        assert np.all(np.abs(out.samples.mean(axis=0) - out.mu) < bound)


class TestMcPredict:
    def test_zero_rate_has_zero_variance(self):
        spec = mlp_spec(2, variant="bayesian1", p=0.0)
        params = build_model(spec, 1)
        post = mc_predict(params, spec, np.array([1.0, 2.0]), T=16, seed=0)
        np.testing.assert_array_equal(post.variance, np.zeros(4))
        assert np.all(post.samples == post.samples[0])

    def test_deterministic_given_seed(self):
        spec = mlp_spec(2, variant="bayesian1")
        params = build_model(spec, 1)
        a = mc_predict(params, spec, np.array([1.0, 2.0]), T=32, seed=4)
        b = mc_predict(params, spec, np.array([1.0, 2.0]), T=32, seed=4)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_parallel_equals_sequential(self):
        spec = mlp_spec(2, variant="bayesian2")
        params = build_model(spec, 2)
        x = np.random.default_rng(0).normal(size=(5, 2))
        seq = mc_probs(params, spec, x, T=24, seed=3, workers=1)
        par = mc_probs(params, spec, x, T=24, seed=3, workers=4)
        np.testing.assert_array_equal(seq, par)

    def test_mean_converges_to_large_T_reference(self):
        spec = mlp_spec(2, variant="bayesian1")
        params = build_model(spec, 3)
        x = np.array([0.5, -0.5])
        small = mc_predict(params, spec, x, T=100, seed=11)
        big = mc_predict(params, spec, x, T=10_000, seed=12)
        assert np.abs(small.mean - big.mean).max() < 0.05

    def test_argmax_invariant_to_sample_order(self):
        spec = mlp_spec(2, variant="bayesian2")
        params = build_model(spec, 4)
        post = mc_predict(params, spec, np.array([0.3, 0.9]), T=40, seed=5)
        perm = np.random.default_rng(0).permutation(40)
        shuffled = PosteriorSamples(post.samples[perm])
        assert shuffled.predicted_label == post.predicted_label

    def test_statistics_are_derived_from_samples(self):
        spec = mlp_spec(2, variant="bayesian2")
        post = mc_predict(build_model(spec, 4), spec, np.array([0.3, 0.9]), T=12, seed=5)
        samples = post.samples
        assert post.T == len(samples) == 12
        assert post.mean.tobytes() == samples.mean(0).tobytes()
        assert post.variance.tobytes() == unbiased_variance(samples).tobytes()
        assert uncertainty_score(post) == float(post.variance.mean())

    def test_validation(self):
        spec = mlp_spec(2, variant="bayesian1")
        params = build_model(spec, 1)
        with pytest.raises(ValueError, match="T must be >= 2"):
            mc_predict(params, spec, np.zeros(2), T=1, seed=0)
        for workers in (0, -3):
            with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
                mc_probs(params, spec, np.zeros((3, 2)), T=4, seed=0, workers=workers)
        base = mlp_spec(2, variant="baseline")
        with pytest.raises(ValueError, match="bayesian"):
            mc_predict(build_model(base, 0), base, np.zeros(2), T=8, seed=0)


class TestPrefixCachedMc:
    """mc_probs runs the layers before the first dropout once and shares them
    across passes; its output must equal T independent full passes bit for bit."""

    @staticmethod
    def make(backbone, variant, p=0.5):
        if backbone == "mlp":
            spec = mlp_spec(3, variant=variant, hidden=12, p=p)
        else:
            spec = miniresnet_spec((1, 8, 8), variant=variant, p=p, channels=(4, 6, 6))
        return spec, build_model(spec, 7)

    @pytest.mark.parametrize("backbone", ["mlp", "miniresnet"])
    @pytest.mark.parametrize("variant", ["bayesian1", "bayesian2"])
    @pytest.mark.parametrize("batched", [True, False])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_equals_independent_passes(self, backbone, variant, batched, workers):
        spec, params = self.make(backbone, variant)
        rng = np.random.default_rng(4)
        x = rng.normal(size=((5,) if batched else ()) + spec.input_shape)
        cached = mc_probs(params, spec, x, T=6, seed=11, workers=workers)
        reference = independent_mc_probs(params, spec, x, T=6, seed=11)
        assert cached.shape == (6, 5 if batched else 1, spec.n_classes)
        assert np.array_equal(cached, reference)

    def test_shared_prefix_survives_many_threads(self):
        spec, params = self.make("miniresnet", "bayesian2")
        x = np.random.default_rng(6).normal(size=(4,) + spec.input_shape)
        x_before = x.copy()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cached = mc_probs(params, spec, x, T=16, seed=8, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(cached, independent_mc_probs(params, spec, x, T=16, seed=8))
        assert np.array_equal(x, x_before)

    @pytest.mark.parametrize("backbone", ["mlp", "miniresnet"])
    def test_zero_rate_equals_independent_passes_with_zero_variance(self, backbone):
        spec, params = self.make(backbone, "bayesian2", p=0.0)
        x = np.random.default_rng(5).normal(size=(4,) + spec.input_shape)
        cached = mc_probs(params, spec, x, T=5, seed=2)
        assert np.array_equal(cached, independent_mc_probs(params, spec, x, T=5, seed=2))
        assert np.all(unbiased_variance(cached) == 0.0)


class TestScores:
    def test_zero_variance_posterior_scores_zero(self):
        samples = np.tile(np.array([[0.7, 0.1, 0.1, 0.1]]), (10, 1))
        post = PosteriorSamples.from_samples(samples)
        assert uncertainty_score(post) == 0.0

    def test_alternating_samples_variance(self):
        # rows alternate between two one-hot vectors; unbiased per-class
        # variance is 0.25 * T/(T-1) for the two active classes
        T = 10
        samples = np.zeros((T, 4))
        samples[0::2, 0] = 1.0
        samples[1::2, 1] = 1.0
        post = PosteriorSamples(samples)
        v = 0.25 * T / (T - 1)
        np.testing.assert_allclose(post.variance, [v, v, 0.0, 0.0], atol=1e-12)
        assert abs(uncertainty_score(post) - v / 2.0) < 1e-12

    def test_variational_sampled_scores_probability_space(self):
        mu = np.array([2.0, 0.0, 0.0, 0.0])
        s2 = np.full(4, 0.5)
        out = VariationalOutput(mu, s2, reparameterized_samples(mu, s2, 500, seed=8))
        score = uncertainty_score(out)
        probs = np_softmax(out.samples)
        assert abs(score - probs.var(axis=0, ddof=1).mean()) < 1e-15

    def test_identical_sampled_draws_score_exactly_zero(self):
        row = np.array([0.3, -1.7, 2.2, 0.05])
        out = VariationalOutput(row, np.ones(4), np.tile(row, (10, 1)))
        assert uncertainty_score(out) == 0.0

    @pytest.mark.parametrize("post", [
        PosteriorSamples(np.array([[0.5, 0.5]])),
        PosteriorSamples(np.full((1, 3, 2), 0.5)),
        VariationalOutput(np.zeros(4), np.ones(4), np.zeros((1, 4))),
        VariationalOutput(np.zeros((3, 4)), np.ones((3, 4)), np.zeros((1, 3, 4))),
    ], ids=["mc", "mc-batch", "variational", "variational-batch"])
    def test_one_draw_posterior_is_rejected(self, post):
        # the unbiased variance of one draw is undefined, not zero
        with pytest.raises(ValueError, match="at least 2 draws, got 1"):
            uncertainty_score(post)

    @pytest.mark.parametrize("draws", [None, np.zeros((1, 4))], ids=["none", "one"])
    def test_sampled_space_requires_draws(self, draws):
        out = VariationalOutput(np.zeros(4), np.ones(4), draws)
        with pytest.raises(ValueError, match="draws"):
            uncertainty_score(out)


class TestSampledScores:
    """``sampled_scores`` streams the draws in row blocks and returns the
    bytes of scoring the whole [S, N, C] draw at once."""

    @staticmethod
    def whole_batch(mu, s2, S, seed):
        return variance_score(np_softmax(reparameterized_samples(mu, s2, S, seed)))

    @pytest.mark.parametrize("n,S", [(300, 100), (1, 100), (300, 2), (1, 2)])
    def test_equals_scoring_all_draws_at_once(self, n, S):
        rng = np.random.default_rng(n + S)
        mu = rng.normal(scale=2.0, size=(n, 4))
        s2 = np.exp(rng.normal(size=(n, 4)))
        s2[::3] = 1e-300   # underflowing sigma: identical draws, score exactly 0
        if n == 300 and S == 100:   # the noise of each draw spans several blocks
            assert len(_row_chunks(n, layers._budget_rows(8 * S * 4))) >= 3
        scores = sampled_scores(mu, s2, S, seed=4)
        assert scores.shape == (n,)
        assert scores.tobytes() == self.whole_batch(mu, s2, S, 4).tobytes()
        assert (scores[::3] == 0.0).all()

    def test_rejects_fewer_than_two_draws_and_non_batches(self):
        with pytest.raises(ValueError, match="2 reparameterized draws"):
            sampled_scores(np.zeros((3, 4)), np.ones((3, 4)), 1, seed=0)
        with pytest.raises(ValueError, match=r"\[N, C\]"):
            sampled_scores(np.zeros(4), np.ones(4), 5, seed=0)


class TestPredictiveEntropy:
    def test_one_hot_is_zero(self):
        assert predictive_entropy([1.0, 0.0, 0.0, 0.0]) == 0.0

    def test_uniform_is_log_c(self):
        assert abs(predictive_entropy([0.25] * 4) - np.log(4.0)) < 1e-12

    def test_two_point_uniform(self):
        assert abs(predictive_entropy([0.5, 0.5, 0.0, 0.0]) - np.log(2.0)) < 1e-12

    def test_rejects_negative_and_unnormalized(self):
        with pytest.raises(ValueError, match="nonnegative"):
            predictive_entropy([-0.1, 1.1])
        with pytest.raises(ValueError, match="sum to 1"):
            predictive_entropy([0.5, 0.4])
        with pytest.raises(ValueError, match="sum to 1"):
            predictive_entropy([[0.5, 0.5], [0.5, 0.4]])


class TestSingleExampleIsBatchOfOne:
    """Each single-example call returns the bytes of row 0 of the batched path."""

    x = np.array([0.4, -1.2])

    def one_example(self):
        return Dataset(self.x[None, :], np.array([0]), ["a", "b", "c", "d"])

    def test_mc_predict_is_row_of_mc_probs_and_evaluate(self):
        spec = mlp_spec(2, variant="bayesian2")
        params = build_model(spec, 2)
        post = mc_predict(params, spec, self.x, T=16, seed=3)
        passes = mc_probs(params, spec, self.x[None, :], T=16, seed=3)
        assert post.samples.tobytes() == passes[:, 0, :].tobytes()
        _, report = evaluate(params, spec, self.one_example(), EvalConfig(T=16, seed=3))
        assert np.float64(uncertainty_score(post)).tobytes() == report.scores.tobytes()

    def test_variational_sampled_score_is_evaluate_row(self):
        spec = mlp_spec(2, variant="variational")
        params = build_model(spec, 0)
        out = variational_forward(params, spec, self.x, S=32, seed=5)
        _, report = evaluate(params, spec, self.one_example(),
                             EvalConfig(S=32, seed=5))
        score = uncertainty_score(out)
        assert np.float64(score).tobytes() == report.scores.tobytes()

    def test_entropy_rows_match_single_calls_and_loop_reference(self):
        p = np_softmax(np.random.default_rng(0).normal(scale=3.0, size=(300, 4)))
        p[::7] = [0.5, 0.0, 0.5, 0.0]
        p[::11] = [0.0, 1.0, 0.0, 0.0]
        batched = predictive_entropy(p)
        assert batched.shape == (300,)
        assert batched.tobytes() == np.array([predictive_entropy(r) for r in p]).tobytes()
        loop = np.array([-(r[r > 0] * np.log(r[r > 0])).sum() for r in p])
        assert batched.tobytes() == loop.tobytes()


class TestBatchPosteriorIsItsRows:
    """A batch posterior labels and scores each row exactly as that row's own
    posterior does, and ``evaluate`` reports what its batch posterior gives."""

    N = 100   # several row blocks on the 16x16 MiniResNet preset

    def make(self, backbone, variant):
        if backbone == "mlp":
            spec = mlp_spec(3, variant=variant, hidden=12)
        else:
            spec = miniresnet_spec((1, 16, 16), variant=variant)
        x = np.random.default_rng(3).normal(size=(self.N,) + spec.input_shape)
        ds = Dataset(x, np.arange(self.N) % 4, ["a", "b", "c", "d"])
        return spec, build_model(spec, 7), ds

    @staticmethod
    def batch_posterior(params, spec, x):
        """The posterior ``evaluate`` builds, from the public batched functions."""
        if spec.variant in MC_VARIANTS:
            return PosteriorSamples(mc_probs(params, spec, x, T=5, seed=2))
        mu, sigma2 = variational_outputs(params, spec, x)
        return VariationalOutput(mu, sigma2, reparameterized_samples(mu, sigma2, 5, seed=2))

    @staticmethod
    def row_posterior(post, i):
        if isinstance(post, PosteriorSamples):
            return PosteriorSamples(post.samples[:, i])
        return VariationalOutput(post.mu[i], post.sigma2[i], post.samples[:, i])

    @pytest.mark.parametrize("backbone", ["mlp", "miniresnet"])
    @pytest.mark.parametrize("variant", ["bayesian1", "bayesian2", "variational"])
    def test_rows_and_evaluate_read_the_batch_posterior(self, backbone, variant):
        spec, params, ds = self.make(backbone, variant)
        if backbone == "miniresnet":
            assert self.N >= 2 * block_rows(spec)
        post = self.batch_posterior(params, spec, ds.inputs)
        labels, scores = post.predicted_label, uncertainty_score(post)
        assert labels.shape == scores.shape == (self.N,)

        rows = [self.row_posterior(post, i) for i in range(self.N)]
        row_labels = [row.predicted_label for row in rows]
        row_scores = [uncertainty_score(row) for row in rows]
        assert all(type(v) is int for v in row_labels)
        assert all(type(v) is float for v in row_scores)
        assert labels.tobytes() == np.array(row_labels, dtype=labels.dtype).tobytes()
        assert scores.tobytes() == np.array(row_scores).tobytes()

        _, report = evaluate(params, spec, ds, EvalConfig(T=5, S=5, seed=2))
        assert report.y_pred.tobytes() == labels.astype(np.int64).tobytes()
        assert report.scores.tobytes() == scores.tobytes()


class TestNonFinite:
    def test_posteriors_reject_non_finite_values(self):
        # NaN fails every comparison, so the range and sum checks alone let it through
        with pytest.raises(ValueError, match="finite"):
            PosteriorSamples(np.full((3, 2, 4), np.nan))
        with pytest.raises(ValueError, match="finite"):
            PosteriorSamples(np.array([[np.inf, 0.0], [0.5, 0.5]]))
        ok_mu, ok_s2 = np.zeros(3), np.ones(3)
        for mu, s2 in ((np.full(3, np.nan), ok_s2), (ok_mu, np.full(3, np.nan)),
                       (ok_mu, np.array([1.0, np.inf, 1.0])), (np.array([0.0, -np.inf, 0.0]), ok_s2)):
            with pytest.raises(ValueError, match="finite"):
                VariationalOutput(mu, s2)
            with pytest.raises(ValueError, match="finite"):
                reparameterized_samples(mu, s2, 4, seed=0)

    @pytest.mark.parametrize("backbone,variant,dtype,op", [
        ("mlp", "bayesian1", "float64", "matmul"),
        # a float32 body meets the NaN first in its cast of the weight
        ("mlp", "bayesian1", "float32", "cast"),
        ("miniresnet", "bayesian2", "float32", "conv2d"),
    ], ids=["mlp-bayesian1-matmul", "mlp-bayesian1-cast", "miniresnet-bayesian2-conv2d"])
    def test_nan_weight_raises_from_mc_probs_in_worker_threads(self, backbone, variant, dtype, op):
        spec = replace(mlp_spec(3, variant=variant, hidden=12) if backbone == "mlp"
                       else miniresnet_spec((1, 8, 8), variant=variant), dtype=dtype)
        params = build_model(spec, 0)
        params["body.0.w"].data[0, 0] = np.nan
        x = np.random.default_rng(0).normal(size=(6,) + spec.input_shape)
        with pytest.raises(NonFiniteError, match=f"op '{op}'"):
            mc_probs(params, spec, x, T=4, seed=0, workers=2)

    def test_nan_weight_raises_from_eval_heads(self):
        spec = mlp_spec(3, variant="variational", hidden=12)
        params = build_model(spec, 0)
        params["head.mu.w"].data[0, 0] = np.nan
        x = np.random.default_rng(0).normal(size=(6, 3))
        with pytest.raises(NonFiniteError, match="op 'matmul'"):
            eval_heads(params, spec, x)
