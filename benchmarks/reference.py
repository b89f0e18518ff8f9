"""One-off reference figures: every bundled scenario and the adapter-count sweep.

    python3 benchmarks/reference.py

Each case runs once through ``adapterd simulate`` in this process and prints
one markdown table row: host seconds, requests completed and discarded, tokens,
and the final residency. These are single measurements on a shared host, for
orientation only; the gated figures come from run.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SWEEP = (25, 200, 1000, 5000)


def main() -> int:
    sys.path.insert(0, str(SRC))
    import adapterd.cli as cli

    reports = []
    run = cli.run

    def capture(*args, **kwargs):
        reports.append(run(*args, **kwargs))
        return reports[-1]

    cli.run = capture
    OUT.mkdir(parents=True, exist_ok=True)
    cases = [(name, name) for name in cli._bundled_scenario_names()]
    for n in SWEEP:
        path = OUT / f"sweep-{n}.json"
        path.write_text(json.dumps({
            "name": f"sweep-{n}",
            "workload": {"n_adapters": n, "users": 500, "duration_ms": 20_000.0, "seed": 1},
        }))
        cases.append((f"{n} adapters, 500 users, 20 s", str(path)))
    print("| case | host s | completed | discarded | tokens | residency |")
    print("|---|---|---|---|---|---|")
    for label, token in cases:
        reports.clear()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["simulate", token])
        seconds = time.perf_counter() - start
        records = [r for report in reports for r in report.records]
        summary = {k: sum(rep.summary[k] for rep in reports) for k in ("completed", "discarded")}
        cache = {k: sum(rep.cache.get(k, 0) for rep in reports) for k in ("gpu", "cpu", "disk", "remote")}
        tokens = sum(r.output_tokens_emitted for r in records)
        tiers = " ".join(f"{k}={v}" for k, v in cache.items())
        print(f"| {label} | {seconds:.2f} | {summary['completed']} | {summary['discarded']} "
              f"| {tokens} | {tiers} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
