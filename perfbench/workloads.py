"""The benchmark's three workloads, their correctness gates and fingerprints.

Each workload builds its inputs from the seed in ``setup`` and runs one
round of user-facing uqnet calls in ``run_round``; ``check`` then gates the
round's outputs outside the timed part. uqnet functions are looked up on
their module at call time (``_train.train``, not a name bound at import),
so a traced run sees the tracer's wrappers. See NOTES.md for why each
workload exists.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

_data = importlib.import_module("uqnet.data")
_layers = importlib.import_module("uqnet.layers")
_train = importlib.import_module("uqnet.train")
_evaluate = importlib.import_module("uqnet.evaluate")
_uncertainty = importlib.import_module("uqnet.uncertainty")
_checkpoint = importlib.import_module("uqnet.checkpoint")
_config = importlib.import_module("uqnet.config")
_cli = importlib.import_module("uqnet.cli")
_optim = importlib.import_module("uqnet.optim")

VARIANTS = _layers.VARIANTS
MC_VARIANTS = ("bayesian1", "bayesian2")

clock = time.perf_counter


def sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def params_sha(params) -> str:
    h = hashlib.sha256()
    for name in sorted(params.tensors):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params.tensors[name].data).tobytes())
    return h.hexdigest()


def file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def conv_patch_bytes(spec, n: int) -> tuple[int, int]:
    """(sum over a forward pass, largest single call) of conv2d im2col bytes at batch n."""
    calls = []
    for layer, shape in zip(spec.layers, _layers.infer_shapes(spec)):
        if layer.kind == "conv3x3":
            kernels = [(layer.in_ch, 3)]
        elif layer.kind == "residual-block" and layer.block == "conv":
            kernels = [(layer.in_ch, 3), (layer.out_ch, 3)]
            if layer.in_ch != layer.out_ch:
                kernels.append((layer.in_ch, 1))
        else:
            continue
        h, w = shape[1], shape[2]
        calls += [n * h * w * cin * k * k * 8 for cin, k in kernels]
    return sum(calls), max(calls, default=0)


class Capture:
    """Keeps the outputs that ``evaluate`` computes but does not return.

    ``uqnet.evaluate.evaluate`` reduces the MC passes to predictions and
    scores, and ``uqnet compare`` writes no per-example file, so the gates
    tap two call sites: ``mc_probs`` as bound in ``uqnet.evaluate`` and
    ``evaluate`` as bound in ``uqnet.cli``. Each tap looks the real function
    up on its home module per call, so a tracer installed later still sees
    the call. The taps keep references only; they copy nothing.
    """

    def __init__(self):
        self.mc: dict[str, np.ndarray] = {}     # variant -> [T, N, C] passes
        self.evals: dict[str, tuple] = {}       # variant -> (metrics, report), CLI only

    def install(self) -> None:
        def mc_probs(params, spec, *args, **kwargs):
            out = _uncertainty.mc_probs(params, spec, *args, **kwargs)
            self.mc[spec.variant] = out
            return out

        def evaluate(params, spec, *args, **kwargs):
            out = _evaluate.evaluate(params, spec, *args, **kwargs)
            self.evals[spec.variant] = out
            return out

        _evaluate.mc_probs = mc_probs
        _cli.evaluate = evaluate

    def clear(self) -> None:
        self.mc.clear()
        self.evals.clear()


@dataclass
class Checked:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)


def _report_problems(tag: str, metrics, report, passes) -> list[str]:
    """Structure gates shared by every evaluate call."""
    problems = []
    if not (np.all(np.isfinite(report.scores)) and report.scores.min() >= 0):
        problems.append(f"{tag}: scores not finite and >= 0")
    if not (np.all(np.isfinite(report.entropies)) and report.entropies.min() >= 0):
        problems.append(f"{tag}: entropies not finite and >= 0")
    accuracy = float(np.mean(report.y_true == report.y_pred))
    if abs(accuracy - metrics.accuracy) > 1e-12:
        problems.append(f"{tag}: accuracy {metrics.accuracy} != {accuracy} from per-example rows")
    if passes is not None:
        mean = passes.mean(axis=0)
        if np.abs(mean.sum(axis=1) - 1.0).max() > 1e-9:
            problems.append(f"{tag}: mean-probability rows do not sum to 1 within 1e-9")
        if not np.array_equal(mean.argmax(axis=1), report.y_pred):
            problems.append(f"{tag}: predictions are not the argmax of the MC mean")
    return problems


def _recomputed_ratio(report) -> float | None:
    correct = report.y_true == report.y_pred
    if correct.all() or not correct.any():
        return None
    u_t = float(report.scores[correct].mean())
    u_f = float(report.scores[~correct].mean())
    if u_t == 0.0:
        return math.inf if u_f > 0.0 else None
    return u_f / u_t


def _log_problems(tag: str, result) -> list[str]:
    bad = [s for s in result.log if not math.isfinite(s.loss.total) or not 0 <= s.accuracy <= 1]
    problems = [f"{tag}: non-finite loss or accuracy outside [0, 1] at epoch {s.epoch} ({s.split})"
                for s in bad]
    if not math.isfinite(result.final_train_loss):
        problems.append(f"{tag}: final training loss is not finite")
    if not all(np.all(np.isfinite(t.data)) for t in result.params.tensors.values()):
        problems.append(f"{tag}: trained parameters are not finite")
    return problems


def _op(problems: list[str], tag: str, fn):
    """Run one operation; a raised exception becomes a recorded failure."""
    t0 = clock()
    try:
        value = fn()
    except Exception:  # the benchmark keeps running and reports the op as failed
        problems.append(f"{tag}: raised\n{traceback.format_exc()}")
        value = None
    return value, clock() - t0


# -- mlp-compare ------------------------------------------------------------------------


class MlpCompare:
    """Acceptance criterion 5 at reduced epochs: four MLP variants, train + evaluate."""

    name = "mlp-compare"
    N, CLASSES, OVERLAP, DIM, HIDDEN = 5000, 4, 0.4, 2, 192
    EPOCHS, BATCH, BETA = 2, 64, 0.01
    T, S = 50, 100
    MIN_ACCURACY = 0.85

    def __init__(self, capture: Capture):
        self.capture = capture

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        ds = _data.synth_blobs(self.N, self.CLASSES, overlap=self.OVERLAP, dim=self.DIM, seed=seed)
        self.splits = _data.split(ds, _data.SplitSpec(0.7, 0.15, 0.15, seed=seed))
        self.specs = {v: _layers.mlp_spec(self.DIM, self.CLASSES, v, hidden=self.HIDDEN)
                      for v in VARIANTS}
        self.train_cfg = _train.TrainConfig(_optim.OptimizerConfig("adam", lr=1e-3),
                                            epochs=self.EPOCHS, batch_size=self.BATCH,
                                            beta=self.BETA)
        self.eval_cfg = _evaluate.EvalConfig(T=self.T, S=self.S, seed=seed, space="sampled")

    def run_round(self) -> dict:
        train_ds, val_ds, test_ds = self.splits
        out = {"runs": {}, "problems": [], "train_s": 0.0, "eval_s": 0.0}
        for v in VARIANTS:
            spec = self.specs[v]
            params = _layers.build_model(spec, self.seed)
            result, dt = _op(out["problems"], f"{v} train", lambda: _train.train(
                params, spec, train_ds, val_ds, self.train_cfg, self.seed))
            out["train_s"] += dt
            evaluated = None
            if result is not None:
                evaluated, dt = _op(out["problems"], f"{v} evaluate", lambda: _evaluate.evaluate(
                    result.params, spec, test_ds, self.eval_cfg))
                out["eval_s"] += dt
            out["runs"][v] = (result, evaluated, self.capture.mc.pop(v, None))
        return out

    def check(self, out: dict) -> Checked:
        problems = list(out["problems"])
        failed_ops = len(problems)
        fingerprint = {}
        for v, (result, evaluated, passes) in out["runs"].items():
            if result is None:
                failed_ops += 1   # evaluate was never attempted
                continue
            before = len(problems)
            problems += _log_problems(f"{v} train", result)
            failed_ops += len(problems) > before
            fingerprint[f"{v}.params"] = params_sha(result.params)
            if evaluated is None:
                continue
            metrics, report = evaluated
            before = len(problems)
            problems += _report_problems(f"{v} evaluate", metrics, report,
                                         passes if v in MC_VARIANTS else None)
            if v in MC_VARIANTS and passes is None:
                problems.append(f"{v} evaluate: MC passes were not captured")
            if metrics.accuracy < self.MIN_ACCURACY:
                problems.append(f"{v} evaluate: accuracy {metrics.accuracy:.4f} "
                                f"< {self.MIN_ACCURACY}")
            if report.ratio is None or not report.ratio > 1.0:
                problems.append(f"{v} evaluate: uncertainty ratio R = {report.ratio} is not > 1")
            failed_ops += len(problems) > before
            fingerprint[f"{v}.predictions"] = sha256(report.y_pred)
            fingerprint[f"{v}.scores"] = sha256(report.scores)
        return Checked(2 * len(VARIANTS), failed_ops, problems, fingerprint)

    def sizes(self) -> dict:
        train_ds, val_ds, test_ds = self.splits
        return {
            "n_train": train_ds.n, "n_val": val_ds.n, "n_test": test_ds.n,
            "T": self.T, "S": self.S, "epochs": self.EPOCHS, "batch_size": self.BATCH,
            "hidden": self.HIDDEN,
            "parameters": {v: _layers.build_model(s, 0).n_parameters()
                           for v, s in self.specs.items()},
            "conv2d_patch_bytes": 0,
        }

    def rates(self, rounds: list[dict]) -> dict:
        train_ds, _, _ = self.splits
        examples = self.EPOCHS * train_ds.n * len(VARIANTS)
        train_s = statistics.median(r["train_s"] for r in rounds)
        return {"train_examples_per_s": (examples / train_s, "examples/s"),
                "eval_s": (statistics.median(r["eval_s"] for r in rounds), "s")}


# -- conv-mc-eval -----------------------------------------------------------------------


class ConvMcEval:
    """``uqnet compare --checkpoint-dir``: MC evaluation of four MiniResNet checkpoints."""

    name = "conv-mc-eval"
    N, NOISE = 800, 0.35
    T, S = 6, 100

    def __init__(self, capture: Capture):
        self.capture = capture

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.ckpt_dir = os.path.join(workdir, "checkpoints")
        self.out_dir = os.path.join(workdir, "compare")
        os.makedirs(self.ckpt_dir, exist_ok=True)
        cfg = _config.RunConfig(seed=seed, out=self.out_dir).with_overrides({
            "dataset": {"kind": "textures", "n": str(self.N), "noise": str(self.NOISE),
                        "train_frac": "0.6", "val_frac": "0.15", "test_frac": "0.25"},
            "model": {"backbone": "miniresnet"},
        })
        self.splits = cfg.make_splits()
        self.specs, self.params_sha = {}, {}
        for v in VARIANTS:
            run_cfg = replace(cfg, model=replace(cfg.model, variant=v))
            spec = run_cfg.make_spec(self.splits[0].input_shape)
            params = _layers.build_model(spec, seed)
            _checkpoint.save_checkpoint(os.path.join(self.ckpt_dir, f"{v}.bin"), spec, params,
                                        {"seed": seed, "variant": v, "config": run_cfg.to_text()})
            self.specs[v] = spec
            self.params_sha[v] = params_sha(params)
        self.argv = ["compare", "--checkpoint-dir", self.ckpt_dir, "--out", self.out_dir,
                     "--T", str(self.T), "--S", str(self.S), "--space", "sampled",
                     "--seed", str(seed)]

    def run_round(self) -> dict:
        self.capture.clear()
        problems = []
        with contextlib.redirect_stdout(io.StringIO()):   # keep the result line last
            code, _ = _op(problems, "uqnet compare", lambda: _cli.main(self.argv))
        return {"code": code, "problems": problems,
                "evals": dict(self.capture.evals), "mc": dict(self.capture.mc)}

    def check(self, out: dict) -> Checked:
        problems = list(out["problems"])
        if out["code"] != 0:
            problems.append(f"uqnet compare exited with {out['code']}")
        fingerprint = {}
        table = os.path.join(self.out_dir, "comparison.csv")
        rows = {}
        if os.path.exists(table):
            with open(table, newline="") as fh:
                rows = {row["variant"]: row for row in csv.DictReader(fh)}
            fingerprint["comparison.csv"] = file_sha(table)
        for v in VARIANTS:
            if v not in out["evals"] or v not in rows:
                problems.append(f"{v}: no evaluation or comparison row")
                continue
            metrics, report = out["evals"][v]
            problems += _report_problems(v, metrics, report, out["mc"].get(v))
            if v in MC_VARIANTS and v not in out["mc"]:
                problems.append(f"{v}: MC passes were not captured")
            row = rows[v]
            accuracy = float(np.mean(report.y_true == report.y_pred))
            if abs(float(row["accuracy"]) - accuracy) > 1e-12:
                problems.append(f"{v}: comparison.csv accuracy {row['accuracy']} != {accuracy}")
            ratio = _recomputed_ratio(report)
            cell = None if row["ratio"] == "undefined" else float(row["ratio"])
            if (cell is None) != (ratio is None) or (
                    ratio is not None and not math.isclose(cell, ratio, rel_tol=1e-12)):
                problems.append(f"{v}: comparison.csv ratio {row['ratio']} != recomputed {ratio}")
            hist = os.path.join(self.out_dir, f"histogram_{v}.csv")
            if not os.path.exists(hist):
                problems.append(f"{v}: histogram_{v}.csv missing")
                continue
            with open(hist, newline="") as fh:
                freqs = np.array([[float(r["freq_correct"]), float(r["freq_incorrect"])]
                                  for r in csv.DictReader(fh)])
            correct = report.y_true == report.y_pred
            expected = np.array([float(correct.any()), float((~correct).any())])
            if np.abs(freqs.sum(axis=0) - expected).max() > 1e-9:
                problems.append(f"{v}: histogram frequencies do not sum to 1 per group")
            for fig in ("box", "hist"):
                if not os.path.exists(os.path.join(self.out_dir, f"uncertainty_{fig}_{v}.svg")):
                    problems.append(f"{v}: uncertainty_{fig}_{v}.svg missing")
            fingerprint[f"{v}.predictions"] = sha256(report.y_pred)
            fingerprint[f"{v}.scores"] = sha256(report.scores)
            fingerprint[f"{v}.params"] = self.params_sha[v]
        return Checked(1, int(bool(problems)), problems, fingerprint)

    def sizes(self) -> dict:
        train_ds, val_ds, test_ds = self.splits
        per_pass, largest = conv_patch_bytes(self.specs["bayesian1"], test_ds.n)
        return {
            "n_train": train_ds.n, "n_val": val_ds.n, "n_test": test_ds.n,
            "T": self.T, "S": self.S, "epochs": 0,
            "parameters": {v: _layers.build_model(s, 0).n_parameters()
                           for v, s in self.specs.items()},
            "conv2d_patch_bytes": {"per_forward_pass": per_pass, "largest_call": largest},
        }

    def rates(self, rounds: list[dict]) -> dict:
        passes = self.splits[2].n * self.T * len(MC_VARIANTS)
        wall_s = statistics.median(r["wall_s"] for r in rounds)
        return {"mc_example_passes_per_s": (passes / wall_s, "example-passes/s")}


# -- conv-train -------------------------------------------------------------------------


class ConvTrain:
    """``train`` on MiniResNet bayesian2: conv2d in graph mode with backward."""

    name = "conv-train"
    N, NOISE = 800, 0.35
    EPOCHS, BATCH = 2, 32
    VARIANT = "bayesian2"

    def __init__(self, capture: Capture):
        self.capture = capture

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        ds = _data.synth_textures(self.N, 4, 16, noise=self.NOISE, seed=seed)
        self.splits = _data.split(ds, _data.SplitSpec(0.6, 0.15, 0.25, seed=seed))
        self.spec = _layers.miniresnet_spec(ds.input_shape, 4, self.VARIANT)
        self.train_cfg = _train.TrainConfig(_optim.OptimizerConfig("adam", lr=1e-3),
                                            epochs=self.EPOCHS, batch_size=self.BATCH)

    def run_round(self) -> dict:
        train_ds, val_ds, _ = self.splits
        problems = []
        params = _layers.build_model(self.spec, self.seed)
        result, dt = _op(problems, f"{self.VARIANT} train", lambda: _train.train(
            params, self.spec, train_ds, val_ds, self.train_cfg, self.seed))
        return {"result": result, "problems": problems, "train_s": dt}

    def check(self, out: dict) -> Checked:
        problems = list(out["problems"])
        result = out["result"]
        fingerprint = {}
        if result is not None:
            problems += _log_problems(f"{self.VARIANT} train", result)
            if len(result.log) != 2 * self.EPOCHS:
                problems.append(f"train log has {len(result.log)} rows, expected {2 * self.EPOCHS}")
            fingerprint[f"{self.VARIANT}.params"] = params_sha(result.params)
            fingerprint[f"{self.VARIANT}.train_log"] = hashlib.sha256(
                repr([(s.epoch, s.split, s.loss.total, s.accuracy) for s in result.log])
                .encode()).hexdigest()
        return Checked(1, int(bool(problems)), problems, fingerprint)

    def sizes(self) -> dict:
        train_ds, val_ds, test_ds = self.splits
        _, batch_largest = conv_patch_bytes(self.spec, self.BATCH)
        _, eval_largest = conv_patch_bytes(self.spec, train_ds.n)
        return {
            "n_train": train_ds.n, "n_val": val_ds.n, "n_test": test_ds.n,
            "epochs": self.EPOCHS, "batch_size": self.BATCH, "variant": self.VARIANT,
            "parameters": {self.VARIANT: _layers.build_model(self.spec, 0).n_parameters()},
            "conv2d_patch_bytes": {"largest_call_train_batch": batch_largest,
                                   "largest_call_epoch_end_eval": eval_largest},
        }

    def rates(self, rounds: list[dict]) -> dict:
        examples = self.EPOCHS * self.splits[0].n
        train_s = statistics.median(r["train_s"] for r in rounds)
        return {"train_examples_per_s": (examples / train_s, "examples/s")}


WORKLOADS = {w.name: w for w in (MlpCompare, ConvMcEval, ConvTrain)}
