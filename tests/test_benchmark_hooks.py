"""The benchmark's traced run finds every program function it wraps, by name.

``benchmarks/layers.py`` patches functions where their callers look them up
(``engine.user_tick``, ``gateway.sample_payload``, ``cli.run`` and so on).
A rename in the program that breaks ``benchmarks/run.py --trace 1`` fails
here first.
"""

from __future__ import annotations

import json
from pathlib import Path

import adapterd.cli as cli
import adapterd.engine as engine

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_layers_install_wraps_and_unwraps(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import layers
    from tracer import Tracer

    originals = (cli.run, engine.user_tick, engine.summarize)
    scenario = tmp_path / "mini.json"
    scenario.write_text(
        json.dumps(
            {
                "name": "mini",
                "workload": {
                    "users": 3,
                    "duration_ms": 300.0,
                    "input_tokens_min": 5,
                    "input_tokens_max": 20,
                    "output_tokens_min": 2,
                    "output_tokens_max": 8,
                },
            }
        ),
        encoding="utf-8",
    )
    output = tmp_path / "report.json"
    tracer = Tracer()
    try:
        layers.install(tracer)
        assert cli.main(["simulate", str(scenario), "--output", str(output)]) == 0
    finally:
        tracer.unwrap()
    capsys.readouterr()
    assert (cli.run, engine.user_tick, engine.summarize) == originals

    totals = tracer.totals(tracer.spans())
    completed = json.loads(output.read_text())["summary"]["completed"]
    # run() asks each user once at t=0 and once after each of its completions.
    assert totals["workload.user_tick"]["calls"] == 3 + completed
    assert totals["engine.run"]["calls"] == 1
