"""Out-of-program tracing of uqnet for the benchmark's traced runs.

The tracer wraps functions of the uqnet modules from outside: every
public top-level function of each traced module, plus a few private
boundaries and methods the per-layer metrics need (``tensor._from_op``,
``tensor._checked``, ``tensor._matmul``, ``Tensor.backward``,
``Adam.step``, ``train._deterministic_eval``,
``evaluate._batched_eval_noise``, ``RunConfig.make_splits``).

A function is patched at every place it is bound, because uqnet binds
names at import time: ``conv2d`` lives in ``uqnet.layers`` as well as in
``uqnet.tensor``, ``model_forward`` in ``train``, ``evaluate`` and
``uncertainty``, and ``uqnet.train`` is the function, not the module.
:meth:`Tracer.install` therefore scans every ``uqnet`` module namespace and
every uqnet class dict (``Tensor.relu`` is the module function ``relu``)
and replaces each reference to the original object.

Each call is a span with a name, a start, an end and the span that was
open when it started. A span's self time is its duration minus the time
its child spans cover. Spans of high-frequency functions (the tensor
ops, ``rng.stream`` and the per-example scoring helpers) are aggregated
only; the others are also kept in memory and written out when the
benchmark ends. The stack is shared, so traced code must run on one
thread (every workload uses ``workers = 1``).
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("data", "tensor", "layers", "rng", "optim", "train", "uncertainty",
                  "evaluate", "report", "checkpoint", "artifacts", "config", "cli")

# private functions and methods that mark a layer boundary: (module, owner, attribute),
# with owner None for a module-level function
EXTRA_TARGETS = (
    ("tensor", None, "_from_op"),
    ("tensor", None, "_checked"),
    ("tensor", None, "_matmul"),
    ("tensor", "Tensor", "backward"),
    ("optim", "Adam", "step"),
    ("optim", "SGD", "step"),
    ("train", None, "_deterministic_eval"),
    ("evaluate", None, "_batched_eval_noise"),
    ("config", "RunConfig", "make_splits"),
    ("config", "RunConfig", "make_dataset"),
)

# context-manager factories: a span would time only the creation of the manager
SKIP = {"tensor.no_grad", "tensor.finite_checks"}

# called per op or per example: aggregated, never stored as individual spans
HOT_PREFIXES = ("tensor.", "rng.", "uncertainty.predictive_entropy", "uncertainty.np_softmax",
                "uncertainty.unbiased_variance", "layers.dropout")

# names that share one span name
ALIASES = {
    "data.synth_blobs": "data.synth",
    "data.synth_textures": "data.synth",
    "optim.Adam.step": "optim.step",
    "optim.SGD.step": "optim.step",
    "tensor.Tensor.backward": "tensor.backward",
    "tensor._from_op": "tensor.op",
    "tensor._checked": "tensor.finite_check",
    "tensor._matmul": "tensor.matmul",
    "tensor.conv2d": "tensor.conv2d.fwd",
    "train._deterministic_eval": "train.epoch_eval",
    "evaluate._batched_eval_noise": "evaluate.eval_noise",
    "config.RunConfig.make_splits": "config.make_splits",
    "config.RunConfig.make_dataset": "config.make_dataset",
    "checkpoint.load_checkpoint": "checkpoint.load",
    "checkpoint.save_checkpoint": "checkpoint.save",
    "cli.main": "cli",
}


class Tracer:
    """Span stack, per-name aggregates and counters for one traced run."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list[list] = []       # open frames: [name, start, child_s, span_id]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl_s, self_s
        self.counters: dict[str, int] = defaultdict(int)
        self.top_level_s = 0.0            # time covered by spans opened with an empty stack
        self.spans: list[tuple] = []      # (round, span_id, parent_id, name, start, end), non-hot
        self.round_index = 0              # 0 is the traced set-up, then one per traced round
        self.step_samples: list[float] = []   # train step durations in seconds, all rounds
        self._step_mark: float | None = None
        self._mc_depth = 0
        self._next_id = 0

    # -- installing -----------------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions at every place uqnet binds them."""
        mods = {short: sys.modules[f"uqnet.{short}"] for short in TRACED_MODULES}
        wrappers = {}   # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__ or name in SKIP):
                    continue
                wrappers[id(obj)] = self._wrapper(ALIASES.get(name, name), obj)
        for short, owner, attr in EXTRA_TARGETS:
            holder = vars(mods[short])[owner] if owner else mods[short]
            name = ".".join(filter(None, (short, owner, attr)))
            wrappers[id(vars(holder)[attr])] = self._wrapper(ALIASES.get(name, name),
                                                             vars(holder)[attr])

        holders = [m for k, m in list(sys.modules.items())
                   if k == "uqnet" or k.startswith("uqnet.")]
        holders += [obj for m in list(holders) for obj in vars(m).values()
                    if isinstance(obj, type) and obj.__module__.startswith("uqnet")]
        for holder in dict.fromkeys(holders):
            for attr, obj in list(vars(holder).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(holder, attr, wrapper)

    # -- wrappers -----------------------------------------------------------------

    def _wrapper(self, name: str, fn):
        hot = name.startswith(HOT_PREFIXES)
        if name == "tensor.conv2d.fwd":
            return self._conv2d_wrapper(fn)
        if name == "uncertainty.mc_probs":
            return self._mc_probs_wrapper(fn)
        enter = exit_ = None
        if name == "train.train":
            def enter():
                self._step_mark = self.clock()

            def exit_():
                self._step_mark = None
        elif name == "train.epoch_eval":
            def exit_():
                self._step_mark = self.clock()
        elif name == "optim.step":
            def exit_():
                now = self.clock()
                if self._step_mark is not None:
                    self.step_samples.append(now - self._step_mark)
                self._step_mark = now
        return self._span(name, fn, hot, enter, exit_)

    def _span(self, name: str, fn, hot: bool, enter=None, exit_=None, name_of=None):
        stack, stats, clock = self.stack, self.stats, self.clock

        def traced(*args, **kwargs):
            span_name = name_of(args) if name_of else name
            if enter:
                enter()
            span_id = -1
            if not hot:
                span_id = self._next_id
                self._next_id += 1
            frame = [span_name, clock(), 0.0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                st = stats[span_name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                else:
                    self.top_level_s += dur
                if not hot:
                    parent = next((f[3] for f in reversed(stack) if f[3] >= 0), -1)
                    self.spans.append((self.round_index, span_id, parent, span_name, frame[1], end))
                if exit_:
                    exit_()

        traced.__wrapped__ = fn
        return traced

    def _conv2d_wrapper(self, fn):
        counters = self.counters

        def counted(x, weight, bias, padding=None):
            out = fn(x, weight, bias, padding)
            n, cin, h, w = x.data.shape
            cout, _, k, _ = weight.data.shape
            p = k // 2 if padding is None else int(padding)
            ho, wo = h + 2 * p - k + 1, w + 2 * p - k + 1
            counters["tensor.conv2d.patch_bytes"] += n * ho * wo * cin * k * k * 8
            counters["tensor.conv2d.flops"] += 2 * n * ho * wo * cout * cin * k * k
            if self._mc_depth:
                counters["uncertainty.mc_conv2d_calls"] += 1
            if out._backward is not None:
                # the backward closure runs later, inside Tensor.backward
                out._backward = self._span("tensor.conv2d.bwd", out._backward, hot=True)
            return out

        return self._span("tensor.conv2d.fwd", counted, hot=True)

    def _mc_probs_wrapper(self, fn):
        def counted(params, spec, x, T, *args, **kwargs):
            self.counters["uncertainty.mc_passes"] += T
            self._mc_depth += 1
            try:
                return fn(params, spec, x, T, *args, **kwargs)
            finally:
                self._mc_depth -= 1

        return self._span("uncertainty.mc_probs", counted, hot=False,
                          name_of=lambda args: f"uncertainty.mc_probs.{args[1].variant}")

    # -- per-round snapshots ------------------------------------------------------

    def take_round(self) -> dict:
        """Return this round's aggregates and start the next round from zero."""
        self.round_index += 1
        snap = {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "top_level_s": self.top_level_s,
        }
        self.stats.clear()
        self.counters.clear()
        self.top_level_s = 0.0
        return snap


# -- per-layer metrics ------------------------------------------------------------------

def _calls(r, name):
    return r["stats"].get(name, (0, 0.0, 0.0))[0]


def _incl(r, name):
    return r["stats"].get(name, (0, 0.0, 0.0))[1]


def _self(r, name):
    return r["stats"].get(name, (0, 0.0, 0.0))[2]


def _share(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def round_metrics(r: dict, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced round (``*_s`` in seconds)."""
    c = r["counters"]
    train_s = _incl(r, "train.train")
    return {
        "tensor.conv2d.fwd_s": _self(r, "tensor.conv2d.fwd"),
        "tensor.conv2d.fwd_calls": _calls(r, "tensor.conv2d.fwd"),
        "tensor.conv2d.bwd_s": _self(r, "tensor.conv2d.bwd"),
        "tensor.conv2d.bwd_calls": _calls(r, "tensor.conv2d.bwd"),
        "tensor.conv2d.patch_bytes": c.get("tensor.conv2d.patch_bytes", 0),
        "tensor.conv2d.flops": c.get("tensor.conv2d.flops", 0),
        "tensor.ops": _calls(r, "tensor.op"),
        "tensor.op_self_s": _self(r, "tensor.op"),
        "tensor.finite_check_s": _self(r, "tensor.finite_check"),
        "tensor.matmul.calls": _calls(r, "tensor.matmul"),
        "tensor.matmul_s": _self(r, "tensor.matmul"),
        "tensor.backward_s": _self(r, "tensor.backward"),
        "rng.stream_calls": _calls(r, "rng.stream"),
        "rng.stream_s": _self(r, "rng.stream"),
        "optim.step_s": _self(r, "optim.step"),
        "optim.step_calls": _calls(r, "optim.step"),
        "optim.step_share": _share(_incl(r, "optim.step"), train_s),
        "train.train_s": train_s,
        "train.epoch_eval_s": _incl(r, "train.epoch_eval"),
        "train.epoch_eval_share": _share(_incl(r, "train.epoch_eval"), train_s),
        "layers.body_forward_s": _self(r, "layers.body_forward"),
        "layers.body_forward_calls": _calls(r, "layers.body_forward"),
        "layers.dropout_calls": _calls(r, "layers.dropout"),
        "uncertainty.mc_probs_s.bayesian1": _incl(r, "uncertainty.mc_probs.bayesian1"),
        "uncertainty.mc_probs_s.bayesian2": _incl(r, "uncertainty.mc_probs.bayesian2"),
        "uncertainty.mc_passes": c.get("uncertainty.mc_passes", 0),
        "uncertainty.mc_conv2d_calls": c.get("uncertainty.mc_conv2d_calls", 0),
        "uncertainty.variational_outputs_s": _incl(r, "uncertainty.variational_outputs"),
        "evaluate.evaluate_s": _incl(r, "evaluate.evaluate"),
        "evaluate.self_s": _self(r, "evaluate.evaluate"),
        "evaluate.eval_noise_s": _incl(r, "evaluate.eval_noise"),
        "report.build_report_s": _incl(r, "report.build_report"),
        "data.synth_s": _incl(r, "data.synth"),
        "data.split_s": _incl(r, "data.split"),
        "config.make_splits_s": _incl(r, "config.make_splits"),
        "checkpoint.load_s": _incl(r, "checkpoint.load"),
        "checkpoint.save_s": _incl(r, "checkpoint.save"),
        "artifacts.write_s": sum(v[1] for k, v in r["stats"].items()
                                 if k.startswith("artifacts.")),
        "cli.self_s": sum(v[2] for k, v in r["stats"].items() if k.split(".")[0] == "cli"),
        "trace.unattributed_s": wall_s - r["top_level_s"],
    }


def step_metrics(samples: list[float]) -> dict[str, float]:
    """Median and tail train step time; the tail is the highest percentile
    with at least ten samples beyond it."""
    n = len(samples)
    if n == 0:
        return {"train.step_ms.p50": 0.0, "train.step_ms.tail": 0.0,
                "train.step_ms.tail_pct": 0.0, "train.step_ms.samples": 0}
    ordered = sorted(samples)
    k = max(n - 11, 0)   # ten samples lie beyond index n - 11
    return {
        "train.step_ms.p50": statistics.median(ordered) * 1e3,
        "train.step_ms.tail": ordered[k] * 1e3,
        "train.step_ms.tail_pct": 100.0 * (k + 1) / n,
        "train.step_ms.samples": n,
    }


def self_time_table(rounds: list[dict]) -> list[tuple[str, float, float]]:
    """(name, median self s, median calls) per span name, largest self time first."""
    names = sorted({k for r in rounds for k in r["stats"]})
    rows = [(k, statistics.median(_self(r, k) for r in rounds),
             statistics.median(_calls(r, k) for r in rounds)) for k in names]
    return sorted(rows, key=lambda row: -row[1])


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name == "train.step_ms.tail_pct":
        return "%"
    if name.startswith("train.step_ms.") and name != "train.step_ms.samples":
        return "ms"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(("_share", "_frac")):
        return "fraction"
    if name.endswith("patch_bytes"):
        return "bytes"
    if name.endswith("flops"):
        return "flop"
    return "count"
