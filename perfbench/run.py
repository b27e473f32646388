"""uqnet benchmark: three workloads timed through uqnet's public API.

    python3 perfbench/run.py --workload mlp-compare --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this script, never from an installed copy. Each run sets the
workload up several times (``setup_s`` is the median), then repeats its
round until ``--seconds`` would be exceeded, checking every round's
outputs and fingerprints outside the timed part; the first round is a
warm-up and is left out of the medians. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the first third of the time
untraced and the rest with every uqnet module wrapped, and reports the
per-layer metrics. ``--workload all`` runs the three workloads one after
another, each in its own process so that ``peak_rss_mb`` is its own.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it holds the record of the
run: environment, sizes, fingerprints, workload-specific rates and any
failed gate. The exit code is 0 when every gate passed, 1 when one failed
and 2 when the uqnet source is missing. Work files go to ``.bench_out/``
and are removed at the end; the fingerprint store and span dumps stay.
See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("mlp-compare", "conv-mc-eval", "conv-train")
SETUP_REPEATS = 5
UNTRACED_SHARE = 1 / 3   # of --seconds in a traced run, the base of trace.overhead_frac

clock = time.perf_counter


def pin_blas_threads() -> None:
    """Run BLAS on one thread; must happen before numpy loads.

    uqnet's own code is single-threaded (``workers = 1``). A second BLAS
    thread speeds up only the largest conv GEMMs, and it makes every
    timing depend on what else runs on both cores.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def blas_record(np) -> dict:
    """BLAS library as numpy was built against it, and the thread count it runs with."""
    record = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()
                           and ".so" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads", "MKL_Get_Max_Threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"] = int(fn())
                return record
    record["threads"] = int(os.environ["OPENBLAS_NUM_THREADS"])
    return record


def code_sha() -> str:
    """sha256 of the uqnet sources and of this benchmark."""
    h = hashlib.sha256()
    for base in (SRC / "uqnet", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def probe_import() -> float:
    """Seconds for a fresh interpreter to import uqnet from source."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = clock()
    subprocess.run([sys.executable, "-c", "import uqnet"], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return clock() - t0


def run_rounds(wl, budget_s: float, tracer=None) -> list[dict]:
    """Repeat the workload's round while the next one is expected to end within budget_s.

    Outputs are checked and dropped after each round, so that retained
    results do not grow the process's peak memory with the round count.
    """
    rounds = []
    start = clock()
    while True:
        t0 = clock()
        out = wl.run_round()
        wall_s = clock() - t0
        row = {k: v for k, v in out.items() if k in ("train_s", "eval_s")}
        row["wall_s"] = wall_s
        if tracer is not None:
            row["trace"] = tracer.take_round()
        row["checked"] = wl.check(out)
        del out
        rounds.append(row)
        if clock() - start + statistics.median(r["wall_s"] for r in rounds) > budget_s:
            return rounds


def check_store(key: str, fingerprint: dict) -> str | None:
    """Compare with an earlier run of the same seed and code; remember this one."""
    path = OUT / "fingerprints.json"
    try:
        store = json.loads(path.read_text())
    except (OSError, ValueError):
        store = {}
    previous = store.get(key)
    if previous is not None and previous != fingerprint:
        return f"fingerprint differs from an earlier run with the same seed and code ({key})"
    store[key] = fingerprint
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None


def run_workload(args) -> int:
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import uqnet
    if Path(uqnet.__file__).resolve().parent != (SRC / "uqnet").resolve():
        print(f"error: imported uqnet from {uqnet.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        return _measure(args, np, tracing, workloads, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, np, tracing, workloads, workdir) -> int:
    capture = workloads.Capture()
    capture.install()
    wl = workloads.WORKLOADS[args.workload](capture)

    setups, imports = [], []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        imports.append(probe_import())
        wl.setup(args.seed, workdir)
        setups.append(clock() - t0)

    start = clock()
    if not args.trace:
        rounds = run_rounds(wl, args.seconds)
        traced, tr, setup_trace = [], None, None
    else:
        rounds = run_rounds(wl, args.seconds * UNTRACED_SHARE)
        tr = tracing.Tracer()
        tr.install()
        wl.setup(args.seed, workdir)
        setup_trace = tr.take_round()
        traced = run_rounds(wl, max(args.seconds - (clock() - start), 0.0), tr)
    measured_s = clock() - start

    # gates and fingerprints
    all_rounds = rounds + traced
    problems, attempted, failed = [], 0, 0
    first = all_rounds[0]["checked"].fingerprint
    for i, r in enumerate(all_rounds):
        c = r["checked"]
        attempted += c.attempted
        failed += c.failed
        problems += [f"round {i}: {p}" for p in c.problems]
        if c.fingerprint != first:
            problems.append(f"round {i}: fingerprint differs from round 0 (same seed and code)")
            failed += c.attempted - c.failed
    blas = blas_record(np)
    key = (f"{args.workload} seed={args.seed} code={code_sha()[:16]} "
           f"numpy={np.__version__} blas_threads={blas['threads']}")
    mismatch = check_store(key, first)
    if mismatch:
        problems.append(mismatch)
        failed = attempted

    # round 0 fills caches and the allocator; it is gated but not timed
    timed = rounds[1:] or rounds
    walls = [r["wall_s"] for r in timed]
    if not args.trace:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = _per_layer(tracing, traced, walls, setup_trace, imports, tr)
        _write_spans(args, tr, traced)

    rates = wl.rates(timed)
    rates["failed_frac"] = (failed / attempted, "fraction")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "traced_rounds": len(traced),
        "measured_s": measured_s, "round_wall_s": [r["wall_s"] for r in rounds],
        "env": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                "numpy": np.__version__, "blas": blas, "platform": platform.platform()},
        "sizes": wl.sizes(),
        "rates": {k: {"value": v, "unit": u} for k, (v, u) in rates.items()},
        "fingerprint": first, "fingerprint_key": key, "problems": problems,
    }

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(rounds)} rounds"
          + (f" + {len(traced)} traced" if traced else "") + f" in {measured_s:.1f} s")
    for name, (value, unit) in {**metrics, **(rates if not args.trace else {})}.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    if args.trace:
        print("  largest self times per round (s, calls):")
        for name, self_s, calls in tracing.self_time_table([r["trace"] for r in traced])[:12]:
            print(f"    {name:40s} {self_s:10.4f} {calls:10.0f}")
    for name, digest in first.items():
        print(f"  sha256 {name:32s} {digest[:16]}")
    for p in problems:
        print(f"  FAILED {p}")
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


def _per_layer(tracing, traced, untraced_walls, setup_trace, imports, tr) -> dict:
    per_round = [tracing.round_metrics(r["trace"], r["wall_s"]) for r in traced]
    values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    values.update(tracing.step_metrics(tr.step_samples))
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_frac"] = traced_wall / statistics.median(untraced_walls) - 1.0
    for name in ("data.synth", "data.split", "layers.build_model", "checkpoint.save"):
        values[f"setup.{name}_s"] = setup_trace["stats"].get(name, (0, 0.0, 0.0))[1]
    values["setup.import_s"] = statistics.median(imports)
    return {k: (v, tracing.unit_of(k)) for k, v in values.items()}


def _write_spans(args, tr, traced) -> None:
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "columns": ["round", "span_id", "parent_id", "name", "start_s", "end_s"],
        "spans": tr.spans,
        "rounds": [r["trace"] for r in traced],
    }))


def run_all(args) -> int:
    """Run every workload in its own process; print each one's output and a summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "uqnet" / "__init__.py").is_file():
        print(f"error: uqnet source not found under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
