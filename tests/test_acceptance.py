"""Acceptance suite: the library's advertised capability criteria.

Each test prints one ``[PASS]``/``[FAIL]`` line with the measured values
and its runtime budget (run with ``pytest tests/test_acceptance.py -v -s``
to see them live). Tolerances are pinned here and nowhere else.

The heavy end-to-end criteria use frozen configurations:

* separation run: blobs(n=5000, C=4, overlap=0.4, dim=2), split
  0.7/0.15/0.15, MLP hidden 192, Adam lr 1e-3, 40 epochs, batch 64,
  KLD weight 0.01, T=100, S=100, seeds 0/1/2; the variational score is
  the probability variance of its S softmaxed draws.
* conv sweep: textures(n=800, 16x16), noise in {0, 0.2, 0.35, 0.5}, split
  0.6/0.15/0.25, MiniResNet bayesian1, Adam lr 1e-3, 40 epochs, batch 32,
  T=100, seed 0.
"""

import hashlib
import os
import time
import zlib

import numpy as np
import pytest

from uqnet.cli import main as cli_main
from uqnet.data import SplitSpec, split, synth_blobs, synth_textures
from uqnet.evaluate import EvalConfig, evaluate
from uqnet.layers import build_model, miniresnet_spec, mlp_spec
from uqnet.losses import variational_loss_graph
from uqnet.metrics import ClassificationMetrics
from uqnet.optim import OptimizerConfig
from uqnet.tensor import Tensor, check_gradient, conv2d, cross_entropy, global_avg_pool
from uqnet.train import TrainConfig, train
from uqnet.uncertainty import kld, mc_predict, mc_probs, reparameterized_samples


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {num}: {detail} [{elapsed:.1f}s of {budget:.0f}s budget]")


# -- criterion 5 + 6 share one training run -----------------------------------------

SEP_SEEDS = (0, 1, 2)
SEP_TRAIN = TrainConfig(OptimizerConfig("adam", lr=1e-3), epochs=40, batch_size=64, beta=0.01)


@pytest.fixture(scope="module")
def separation_runs():
    t0 = time.time()
    results = {}
    for seed in SEP_SEEDS:
        ds = synth_blobs(5000, 4, overlap=0.4, dim=2, seed=seed)
        tr, va, te = split(ds, SplitSpec(0.7, 0.15, 0.15, seed=seed))
        for variant in ("baseline", "bayesian1", "bayesian2", "variational"):
            spec = mlp_spec(2, variant=variant, hidden=192)
            params = build_model(spec, seed)
            trained = train(params, spec, tr, va, SEP_TRAIN, seed)
            metrics, report = evaluate(trained.params, spec, te,
                                       EvalConfig(T=100, S=100, seed=seed))
            results[(variant, seed)] = (metrics, report)
    results["elapsed"] = time.time() - t0
    return results


class TestCriterion1Gradients:
    BUDGET = 60.0
    TOL = 1e-4
    TRIALS = 20

    def test_gradient_suite(self):
        t0 = time.time()
        worst: dict[str, float] = {}

        def weighted(rng, shape):
            w = Tensor(rng.normal(size=shape))
            return lambda out: (out * w).sum()

        def run_op(name, make_fn, make_point):
            err = 0.0
            for trial in range(self.TRIALS):
                # crc32, not hash(): str hashes change from process to process
                rng = np.random.default_rng((zlib.crc32(name.encode()), trial))
                err = max(err, check_gradient(make_fn(rng), make_point(rng), step=1e-5))
            worst[name] = err

        run_op("add", lambda rng: (lambda x, o=Tensor(rng.normal(size=(3, 4))),
                                   r=weighted(rng, (3, 4)): r(x + o)),
               lambda rng: rng.normal(size=(3, 4)))
        run_op("matmul", lambda rng: (lambda x, o=Tensor(rng.normal(size=(4, 3))),
                                      r=weighted(rng, (3, 3)): r(x @ o)),
               lambda rng: rng.normal(size=(3, 4)))
        run_op("conv", lambda rng: (lambda x, w=Tensor(rng.normal(size=(3, 2, 3, 3))),
                                    b=Tensor(rng.normal(size=3)),
                                    r=weighted(rng, (2, 3, 4, 4)): r(conv2d(x, w, b))),
               lambda rng: rng.normal(size=(2, 2, 4, 4)))
        run_op("relu", lambda rng: (lambda x, r=weighted(rng, (4, 4)): r(x.relu())),
               lambda rng: rng.normal(size=(4, 4)) + np.sign(rng.normal(size=(4, 4))) * 0.05)
        run_op("softmax", lambda rng: (lambda x, r=weighted(rng, (2, 5)): r(x.softmax())),
               lambda rng: rng.normal(size=(2, 5)))
        run_op("log", lambda rng: (lambda x, r=weighted(rng, (3, 3)): r(x.log())),
               lambda rng: rng.uniform(0.2, 3.0, size=(3, 3)))
        run_op("sum", lambda rng: (lambda x: x.sum()), lambda rng: rng.normal(size=(4, 3)))
        run_op("mean", lambda rng: (lambda x: x.mean()), lambda rng: rng.normal(size=(4, 3)))
        run_op("square", lambda rng: (lambda x, r=weighted(rng, (3, 3)): r(x.square())),
               lambda rng: rng.normal(size=(3, 3)))
        run_op("exp", lambda rng: (lambda x, r=weighted(rng, (3, 3)): r(x.exp())),
               lambda rng: rng.normal(size=(3, 3)))
        run_op("pool", lambda rng: (lambda x, r=weighted(rng, (2, 3)): r(global_avg_pool(x))),
               lambda rng: rng.normal(size=(2, 3, 4, 4)))
        run_op("cross_entropy",
               lambda rng: (lambda x, t=rng.integers(0, 4, size=5): cross_entropy(x, t)),
               lambda rng: rng.normal(size=(5, 4)))

        def vloss(rng):
            logvar = Tensor(rng.normal(scale=0.5, size=(3, 4)))
            targets = rng.integers(0, 4, size=3)
            eps = rng.standard_normal((3, 4))
            return lambda mu: variational_loss_graph(mu, logvar, targets, 1.0, eps)[0]

        run_op("ce_plus_kld_wrt_mu", vloss, lambda rng: rng.normal(size=(3, 4)))

        def vloss_lv(rng):
            mu = Tensor(rng.normal(size=(3, 4)))
            targets = rng.integers(0, 4, size=3)
            eps = rng.standard_normal((3, 4))
            return lambda lv: variational_loss_graph(mu, lv, targets, 1.0, eps)[0]

        run_op("ce_plus_kld_wrt_logvar", vloss_lv, lambda rng: rng.normal(scale=0.5, size=(3, 4)))

        elapsed = time.time() - t0
        worst_name = max(worst, key=worst.get)
        ok = worst[worst_name] < self.TOL
        _report(1, ok, f"{len(worst)} ops x {self.TRIALS} trials, worst rel err "
                       f"{worst[worst_name]:.2e} ({worst_name}) < {self.TOL}", elapsed, self.BUDGET)
        assert ok, worst
        assert elapsed < self.BUDGET


class TestCriterion2KldOracle:
    BUDGET = 60.0
    TOL = 1e-2
    N_PAIRS = 12
    DRAWS = 10 ** 6

    def test_analytic_matches_monte_carlo(self):
        t0 = time.time()
        assert kld(np.zeros(4), np.ones(4)) == 0.0
        rng = np.random.default_rng(20)
        worst = 0.0
        for i in range(self.N_PAIRS):
            c = int(rng.integers(2, 6))
            mu = rng.uniform(-1.0, 1.0, size=c)
            s2 = rng.uniform(0.5, 2.0, size=c)
            eps = np.random.default_rng((21, i)).standard_normal((self.DRAWS, c))
            draws = mu + np.sqrt(s2) * eps
            log_q = -0.5 * (((draws - mu) ** 2) / s2 + np.log(2 * np.pi * s2)).sum(axis=1)
            log_p = -0.5 * (draws ** 2 + np.log(2 * np.pi)).sum(axis=1)
            worst = max(worst, abs(kld(mu, s2) - float((log_q - log_p).mean())))
        elapsed = time.time() - t0
        ok = worst < self.TOL
        _report(2, ok, f"kld(0,1)=0 exact; {self.N_PAIRS} random pairs at 1e6 draws, "
                       f"worst |analytic-MC| {worst:.4f} < {self.TOL}", elapsed, self.BUDGET)
        assert ok
        assert elapsed < self.BUDGET


class TestCriterion3Reparameterization:
    BUDGET = 30.0
    S = 10 ** 5

    def test_sampling_statistics(self):
        t0 = time.time()
        mu = np.array([1.0, 0.0, 0.0, 0.0])
        s2 = np.array([0.04, 0.09, 0.25, 1.0])
        draws = reparameterized_samples(mu, s2, self.S, seed=30)
        mean_dev = np.abs(draws.mean(axis=0) - mu)
        mean_bound = 3.0 * np.sqrt(s2) / np.sqrt(self.S)
        var_rel = np.abs(draws.var(axis=0, ddof=1) - s2) / s2
        elapsed = time.time() - t0
        ok = bool(np.all(mean_dev < mean_bound) and np.all(var_rel < 0.10))
        _report(3, ok, f"S=1e5: max mean dev {mean_dev.max():.4f} < 3s/sqrt(S), "
                       f"max var rel dev {var_rel.max():.4f} < 0.10", elapsed, self.BUDGET)
        assert ok
        assert elapsed < self.BUDGET


class TestCriterion4McSanity:
    BUDGET = 120.0

    def test_zero_rate_and_standard_error_scaling(self):
        t0 = time.time()
        zero_spec = mlp_spec(2, variant="bayesian1", p=0.0, hidden=32)
        zero_params = build_model(zero_spec, 1)
        post = mc_predict(zero_params, zero_spec, np.array([0.5, -0.5]), T=32, seed=0)
        zero_ok = bool(np.all(post.variance == 0.0))

        spec = mlp_spec(2, variant="bayesian1", hidden=32)
        params = build_model(spec, 0)
        x = np.random.default_rng(1).normal(size=(8, 2))

        def mean_probs(T, seed):
            return mc_probs(params, spec, x, T, seed).mean(axis=0)

        m100 = np.stack([mean_probs(100, 1000 + s) for s in range(10)])
        m400 = np.stack([mean_probs(400, 2000 + s) for s in range(10)])
        se100 = m100.std(axis=0, ddof=1)
        se400 = m400.std(axis=0, ddof=1)
        ratio = float(np.sqrt((se400 ** 2).mean() / (se100 ** 2).mean()))
        scaling_ok = 0.35 < ratio < 0.65  # halving within +/- 30%

        elapsed = time.time() - t0
        ok = zero_ok and scaling_ok
        _report(4, ok, f"rate-0 variance exactly 0: {zero_ok}; SE(T=400)/SE(T=100) "
                       f"= {ratio:.3f} in [0.35, 0.65] across 10 seeds", elapsed, self.BUDGET)
        assert ok
        assert elapsed < self.BUDGET


class TestCriterion5Separation:
    BUDGET = 600.0
    MIN_ACC = 0.80
    MIN_RATIO = 2.0

    def test_uncertainty_separates_errors(self, separation_runs):
        details = []
        ok = True
        for variant in ("bayesian1", "bayesian2", "variational"):
            passing = 0
            for seed in SEP_SEEDS:
                metrics, report = separation_runs[(variant, seed)]
                if metrics.accuracy >= self.MIN_ACC and report.ratio is not None \
                        and report.ratio >= self.MIN_RATIO:
                    passing += 1
            ratios = [separation_runs[(variant, s)][1].ratio for s in SEP_SEEDS]
            accs = [separation_runs[(variant, s)][0].accuracy for s in SEP_SEEDS]
            details.append(f"{variant}: acc {min(accs):.3f}..{max(accs):.3f}, "
                           f"R {', '.join(f'{r:.2f}' for r in ratios)}, {passing}/3 seeds")
            ok = ok and passing >= 2
        elapsed = separation_runs["elapsed"]
        _report(5, ok, "; ".join(details), elapsed, self.BUDGET)
        assert ok, details
        assert elapsed < self.BUDGET


class TestCriterion6VariantParity:
    MAX_F1_GAP = 0.03

    def test_bayesian1_matches_baseline_f1(self, separation_runs):
        gaps = []
        for seed in SEP_SEEDS:
            base_f1 = separation_runs[("baseline", seed)][0].macro_f1
            b1_f1 = separation_runs[("bayesian1", seed)][0].macro_f1
            gaps.append(abs(b1_f1 - base_f1))
        ok = all(g <= self.MAX_F1_GAP for g in gaps)
        _report(6, ok, "macro-F1 gaps vs baseline: "
                       + ", ".join(f"{g:.3f}" for g in gaps) + f" (max {self.MAX_F1_GAP})",
                0.0, 1.0)
        assert ok, gaps


class TestCriterion7Determinism:
    BUDGET = 300.0

    def test_pipeline_repeat_bit_identical_with_parallel_mc(self, tmp_path):
        t0 = time.time()
        out = str(tmp_path / "run")
        argv_train = ["train", "--kind", "blobs", "--n", "400", "--overlap", "0.3",
                      "--variant", "bayesian2", "--hidden", "32", "--epochs", "3",
                      "--seed", "11", "--out", out]
        argv_eval = ["evaluate", "--checkpoint", os.path.join(out, "checkpoint.bin"),
                     "--T", "16", "--workers", "4", "--seed", "11", "--out", out]

        def digests():
            assert cli_main(argv_train) == 0
            assert cli_main(argv_eval) == 0
            return {name: hashlib.sha256(open(os.path.join(out, name), "rb").read()).hexdigest()
                    for name in sorted(os.listdir(out))}

        first = digests()
        second = digests()
        identical = first == second

        spec = mlp_spec(2, variant="bayesian1", hidden=32)
        params = build_model(spec, 0)
        x = np.random.default_rng(2).normal(size=(6, 2))
        par_ok = np.array_equal(mc_probs(params, spec, x, 24, seed=5, workers=1),
                                mc_probs(params, spec, x, 24, seed=5, workers=4))

        elapsed = time.time() - t0
        ok = identical and par_ok
        _report(7, ok, f"repeat run bit-identical over {len(first)} artifacts: {identical}; "
                       f"parallel MC == sequential: {par_ok}", elapsed, self.BUDGET)
        assert ok
        assert elapsed < self.BUDGET


class TestCriterion8MetricsOracle:
    BUDGET = 30.0

    def test_recompute_and_hand_fixture(self):
        t0 = time.time()
        rng = np.random.default_rng(42)
        exact = True
        for _ in range(100):
            c = int(rng.integers(2, 6))
            n = int(rng.integers(1, 200))
            y_true = rng.integers(0, c, size=n)
            y_pred = rng.integers(0, c, size=n)
            m_pairs = ClassificationMetrics.from_predictions(y_true, y_pred, c)
            m_matrix = np.zeros((c, c), dtype=np.int64)
            for t, p in zip(y_true, y_pred):
                m_matrix[t, p] += 1
            m_from_matrix = ClassificationMetrics(m_matrix)
            exact = exact and np.array_equal(m_pairs.confusion, m_from_matrix.confusion) \
                and np.array_equal(m_pairs.precision, m_from_matrix.precision) \
                and np.array_equal(m_pairs.recall, m_from_matrix.recall) \
                and np.array_equal(m_pairs.f1, m_from_matrix.f1)

        hand = ClassificationMetrics.from_predictions(
            [1, 1, 1, 1, 0, 0, 0, 0, 0, 0], [1, 1, 1, 0, 1, 0, 0, 0, 0, 0], 2)
        hand_ok = (hand.precision[1], hand.recall[1], hand.f1[1]) == (0.75, 0.75, 0.75)

        elapsed = time.time() - t0
        ok = exact and hand_ok
        _report(8, ok, f"100 random fixtures recompute exactly: {exact}; "
                       f"hand fixture 0.75/0.75/0.75: {hand_ok}", elapsed, self.BUDGET)
        assert ok
        assert elapsed < self.BUDGET


class TestCriterion9ConvPath:
    BUDGET = 900.0
    NOISE_LEVELS = (0.0, 0.2, 0.35, 0.5)

    def test_texture_noise_sweep(self):
        t0 = time.time()
        cfg = TrainConfig(OptimizerConfig("adam", lr=1e-3), epochs=40, batch_size=32)
        accs, ratios = [], []
        for noise in self.NOISE_LEVELS:
            ds = synth_textures(800, 4, size=16, noise=noise, seed=0)
            tr, va, te = split(ds, SplitSpec(0.6, 0.15, 0.25, seed=0))
            spec = miniresnet_spec((1, 16, 16), 4, variant="bayesian1")
            params = build_model(spec, 0)
            trained = train(params, spec, tr, va, cfg, 0)
            metrics, report = evaluate(trained.params, spec, te, EvalConfig(T=100, seed=0))
            accs.append(metrics.accuracy)
            ratios.append(report.ratio)

        clean_ok = accs[0] >= 0.9
        inversions = sum(1 for a, b in zip(accs, accs[1:]) if b > a + 1e-12)
        monotone_ok = inversions <= 1
        below_one = [i for i, a in enumerate(accs) if a < 1.0]
        if below_one:
            hi = max(below_one)
            ratio_ok = ratios[hi] is not None and ratios[hi] > 1.0
            ratio_msg = f"R at noise {self.NOISE_LEVELS[hi]} = {ratios[hi]:.2f} > 1"
        else:
            ratio_ok = False
            ratio_msg = "no noise level with accuracy < 1"

        elapsed = time.time() - t0
        ok = clean_ok and monotone_ok and ratio_ok
        acc_str = ", ".join(f"{a:.3f}" for a in accs)
        _report(9, ok, f"accuracies [{acc_str}] (clean >= 0.9: {clean_ok}, "
                       f"inversions {inversions} <= 1); {ratio_msg}", elapsed, self.BUDGET)
        assert ok, (accs, ratios)
        assert elapsed < self.BUDGET
