"""Run one benchmark workload, or all four, against the adapterd in this checkout.

    python3 benchmarks/run.py --workload warm-one-token --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 7

A run builds its inputs from ``--seed``, times the program's set-up in fresh
child interpreters, then repeats rounds of the workload's operations for
``--seconds``, checking every output. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced rounds and reports the
per-module metrics, the tracing overhead, and writes the last traced round's
spans. The last line of standard output is one JSON object; a result file
with the machine and source details goes to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("warm-one-token", "adapter-churn", "live-stream", "profile-lift")
SETUP_SAMPLES = 5
MIN_ROUNDS = 2


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _source_lines(directory: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(directory.rglob("*.py")))


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "py_lines": {"src": _source_lines(SRC), "tests": _source_lines(ROOT / "tests")},
    }


def setup_once(code: str) -> float:
    """Time the program's set-up once, in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.split()[0])


def run_workload(args: argparse.Namespace) -> tuple[dict, dict]:
    import layers
    import oracles
    import workloads
    from tracer import Tracer

    bench = workloads.WORKLOADS[args.workload](args.seed, OUT)
    tracer = Tracer() if args.trace else None
    try:
        setup: list[float] = []
        plain, traced = [], []
        last_spans = None
        totals: dict = {}
        start = time.perf_counter()
        while True:
            n_plain, n_traced = len(plain), len(traced)
            elapsed = time.perf_counter() - start
            if elapsed >= args.seconds and n_plain >= MIN_ROUNDS and (
                    not tracer or n_traced >= MIN_ROUNDS):
                break
            if tracer and n_traced < n_plain:
                tracer.reset()
                layers.install(tracer)
                try:
                    traced.append(bench.run_round())
                finally:
                    tracer.unwrap()
                last_spans = tracer.spans()
                for name, row in tracer.totals(last_spans).items():
                    acc = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                    for key in acc:
                        acc[key] += row[key]
            else:
                plain.append(bench.run_round())
                if not tracer:
                    # One set-up sample after each round spreads them over the run, so
                    # their median does not hang on one moment of the host's speed.
                    setup_start = time.perf_counter()
                    setup.append(setup_once(bench.setup_code()))
                    start += time.perf_counter() - setup_start
        while not tracer and len(setup) < SETUP_SAMPLES:
            setup.append(setup_once(bench.setup_code()))
    finally:
        bench.close()

    rounds = plain + traced
    failures = [f for r in rounds for f in r.failures]
    result = {
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
    }
    ops = [s for r in plain for s in r.op_seconds]
    detail: dict = {"failures": failures[:20], "round_seconds": [r.seconds for r in plain],
                    "work_unit": bench.work_unit, "ops": len(ops)}
    if not tracer:
        level = bench.level
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (oracles.nearest_rank([r.seconds for r in plain], level), "s"),
            "work_per_s": (oracles.nearest_rank([r.work / r.seconds for r in plain], 1 - level), "1/s"),
            "op_ms": (oracles.nearest_rank(ops, level) * 1000.0, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        detail["setup_samples_s"] = setup
        detail["op_median_ms"] = statistics.median(ops) * 1000.0
        detail["work_per_s_overall"] = sum(r.work for r in plain) / sum(r.seconds for r in plain)
    else:
        overhead = (statistics.median(r.seconds for r in traced)
                    / statistics.median(r.seconds for r in plain) - 1.0) * 100.0
        counts: dict = {}
        samples: dict = {}
        for r in traced:
            for key, value in r.counts.items():
                counts[key] = counts.get(key, 0) + value
            for key, values in r.samples.items():
                samples.setdefault(key, []).extend(values)
        values, tails = layers.derive(totals, dict(tracer.counters), len(traced), counts,
                                      samples, overhead)
        metrics = {name: (values[name], unit) for name, (unit, _) in layers.PER_LAYER.items()}
        spans_path = OUT / f"spans_{args.workload}_seed{args.seed}.csv.gz"
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        detail["spans_written"] = tracer.write(spans_path, last_spans)
        detail["tails"] = {k: {"percentile": p, "value": v, "samples": n} for k, (p, v, n) in tails.items()}
        detail["traced_round_seconds"] = [r.seconds for r in traced]
        detail["span_totals"] = totals
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return result, detail


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, since peak RSS is a per-process high-water mark."""
    results = {}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        print(f"== {name} (exit {done.returncode})")
        print("\n".join(lines[:-1]))
        if done.returncode != 0:
            print(done.stderr.strip()[-2000:], file=sys.stderr)
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r is not None and r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "adapterd" / "__init__.py").is_file():
        print(f"error: no adapterd sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    import adapterd

    if Path(adapterd.__file__).resolve().parent != SRC / "adapterd":
        print(f"error: imported adapterd from {adapterd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, detail = run_workload(args)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "result": result,
              "detail": detail}
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for failure in detail["failures"]:
        print(f"FAIL {failure}")
    for name, (p, value, n) in ((k, (t["percentile"], t["value"], t["samples"]))
                                for k, t in detail.get("tails", {}).items()):
        print(f"{name}: p{p * 100:g} = {value:.3f} ms over {n} samples")
    for name, metric in result["metrics"].items():
        print(f"{name:<34}{metric['value']:>16.6g} {metric['unit']}")
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
