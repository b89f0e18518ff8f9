"""The benchmark's hooks and checks, run against the program in tier 1.

``benchmarks/layers.py`` patches functions where their callers look them up
(``engine.user_tick``, ``gateway.sample_payload``, ``cli.run`` and so on).
A rename in the program that breaks ``benchmarks/run.py --trace 1`` fails
here first, and so does a ``compute_profile`` that stops calling the wrapped
``rouge_l``, which would zero the profiler's per-layer metrics, and a
``sample_payload`` that draws without calling ``workload.rng_next_uniform``,
which would zero the workload's RNG metrics.  So does a
profile, lift fit or leave-one-out RMSE that the ``profile-lift`` workload's
oracles would reject, and a simulate report or cold fetch that the
``adapter-churn`` workload's oracles would reject.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path

import pytest

import adapterd.cli as cli
import adapterd.engine as engine
import adapterd.profiler as profiler
from adapterd.core import EngineConfig, WorkloadConfig
from adapterd.profiler import (
    PROFILE_FEATURES,
    QUALITY_METRICS,
    bundled_fixture_path,
    fit_lift_model,
    join_tasks,
    load_quality_records,
    load_task_profiles,
    loo_rmse,
    profile_features,
)

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


@pytest.mark.parametrize(
    ("overrides", "draws"),
    [
        ({}, 3),  # input length, output length, adapter
        ({"adapter_assignment": "per_user"}, 2),  # the adapter is pinned, not drawn
    ],
    ids=["uniform", "per_user"],
)
def test_layers_count_each_rng_draw_of_a_payload(monkeypatch, overrides, draws):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import layers
    from tracer import Tracer

    workload_config = WorkloadConfig(
        n_adapters=4, users=3, duration_ms=1000.0, input_tokens_min=5, input_tokens_max=20,
        output_tokens_min=1, output_tokens_max=4, seed=11, **overrides,
    )
    tracer = Tracer()
    try:
        layers.install(tracer)
        engine.run(EngineConfig(), workload_config, prewarm_adapters=True)
    finally:
        tracer.unwrap()

    totals = tracer.totals(tracer.spans())
    payloads = totals["workload.sample_payload"]["calls"]
    assert payloads > workload_config.users
    assert totals["core.rng_next_uniform"]["calls"] == draws * payloads


def _synthetic_tasks() -> list[tuple[str, list[tuple[str, str]]]]:
    """Three of the benchmark's synthetic datasets: short, long-input and long on both sides."""
    import workloads

    with open(bundled_fixture_path("task_profiles.csv"), newline="", encoding="utf-8") as handle:
        rows = {row["name"]: row for row in csv.DictReader(handle)}
    return [
        (name, workloads.synthetic_task(random.Random(seed), rows[name], workloads.EXAMPLES_PER_TASK))
        for seed, name in enumerate(("glue_sst2", "wikisql", "magicoder"))
    ]


def test_profiles_pass_the_benchmark_oracle(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import oracles

    failures = []
    for name, examples in _synthetic_tasks():
        profile = profiler.compute_profile(examples, name)
        failures += oracles.check_profile(profile, examples, profiler.rouge_l)
    assert failures == []


def test_layers_trace_one_rouge_span_per_profiled_example(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import layers
    from tracer import Tracer

    name, examples = _synthetic_tasks()[2]
    originals = (profiler.compute_profile, profiler.rouge_l, profiler.compressibility)
    tracer = Tracer()
    try:
        layers.install(tracer)
        profiler.compute_profile(examples, name)
    finally:
        tracer.unwrap()
    assert (profiler.compute_profile, profiler.rouge_l, profiler.compressibility) == originals

    totals = tracer.totals(tracer.spans())
    assert totals["profiler.compute_profile"]["calls"] == 1
    assert totals["profiler.rouge_l"]["calls"] == len(examples)
    assert totals["profiler.compressibility"]["calls"] == len(examples)
    cells = sum(len(inp.split()) * len(out.split()) for inp, out in examples)
    assert tracer.counters["profiler.lcs_cells"] == cells > 0


def test_lift_fits_pass_the_benchmark_oracle(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import oracles

    pairs = join_tasks(
        load_task_profiles(bundled_fixture_path("task_profiles.csv")),
        load_quality_records(bundled_fixture_path("quality_records.csv")),
    )
    matrix = [profile_features(p) for p, _ in pairs]
    augmented = [row + [q.avg_base_score] for row, (_, q) in zip(matrix, pairs)]
    failures = []
    for target in QUALITY_METRICS:
        y = [getattr(q, target) for _, q in pairs]
        for label, rows, names in (
            (target, matrix, PROFILE_FEATURES),
            (f"{target}+avg_base_score", augmented, PROFILE_FEATURES + ("avg_base_score",)),
        ):
            train = fit_lift_model(rows, y, names, target).train_rmse
            loo = loo_rmse(rows, y, names, target)
            failures += oracles.check_lift(train, loo, rows, y, label)
    assert failures == []


def test_oversubscribed_run_passes_the_churn_oracles(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import oracles

    engine_config = EngineConfig(gpu_slots=4, cpu_slots=4)
    workload_config = WorkloadConfig(n_adapters=40, users=20, duration_ms=10_000.0, seed=3)
    report = engine.run(engine_config, workload_config)
    # More adapters were served than GPU and CPU hold together, so some were evicted.
    assert len(report.per_adapter) > engine_config.gpu_slots + engine_config.cpu_slots
    assert report.cache["disk"] > 0
    engine_dict = engine_config.to_dict()
    failures = oracles.check_virtual_report(report, engine_dict, workload_config.n_adapters)
    failures += oracles.check_cold_fetch(report.records, engine_dict)
    assert failures == []
