"""Self-tests of the benchmark's own checks: each oracle rejects a planted wrong answer.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
from adapterd.core import EngineConfig, Rng, WorkloadConfig, rng_split  # noqa: E402
from adapterd.metrics import RequestRecord  # noqa: E402
from adapterd.profiler import compute_profile, fit_lift_model, loo_rmse, rouge_l  # noqa: E402
from adapterd.workload import sample_payload  # noqa: E402

ENGINE = EngineConfig().to_dict()


def _record(rid: str = "r000001", input_tokens: int = 100, ttft: float = 100.0,
            emitted: int = 5, adapter: str = "adapter-00") -> RequestRecord:
    return RequestRecord(rid, adapter, input_tokens, emitted, 10.0, 10.0 + ttft, 10.0 + ttft + 50.0)


def test_ttft_below_closed_form_is_rejected():
    floor = oracles.min_ttft_ms(ENGINE, 100)
    assert floor == 80.0 + 0.15 * 100 + 12.0 + 0.6
    assert oracles.check_ttft_floor([_record(ttft=floor)], ENGINE) == []
    assert oracles.check_ttft_floor([_record(ttft=floor - 0.01)], ENGINE)
    fetch = oracles.remote_fetch_ms(ENGINE)
    assert oracles.check_cold_fetch([_record(ttft=floor + fetch)], ENGINE) == []
    assert oracles.check_cold_fetch([_record(ttft=floor + fetch - 1.0)], ENGINE)


def test_dropped_sse_token_is_rejected():
    expected = {"u000-00001": ("adapter-00", 100, 5)}
    ttft = oracles.min_ttft_ms(ENGINE, 100)
    assert oracles.check_live_records([_record("u000-00001", ttft=ttft)], expected, ENGINE) == []
    dropped = _record("u000-00001", ttft=ttft, emitted=4)
    assert oracles.check_live_records([dropped], expected, ENGINE)


def test_scrape_count_that_falls_is_rejected():
    assert oracles.check_scrapes([0, 3, 3, 9]) == []
    assert oracles.check_scrapes([0, 3, 2])


def test_splitmix_matches_the_program_stream():
    workload = WorkloadConfig(n_adapters=25, users=4, input_tokens_min=30, input_tokens_max=500,
                              output_tokens_min=1, output_tokens_max=120, seed=99)
    for user in range(4):
        rng = rng_split(Rng(workload.seed), user)
        ours = oracles.expected_payloads(99, user, 20, 25, (30, 500), (1, 120))
        for want in ours:
            payload, rng = sample_payload(rng, workload)
            assert (payload.adapter, payload.input_tokens, payload.output_tokens) == want


def _dp_lcs(a, b) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            table[i + 1][j + 1] = table[i][j] + 1 if x == y else max(table[i][j + 1], table[i + 1][j])
    return table[-1][-1]


def test_bit_parallel_lcs_matches_dynamic_programming():
    rng = random.Random(5)
    for _ in range(300):
        a = rng.choices("abcd", k=rng.randint(0, 30))
        b = rng.choices("abcd", k=rng.randint(0, 30))
        assert oracles.lcs_length(a, b) == _dp_lcs(a, b)


def _examples():
    rng = random.Random(3)
    words = [f"w{i}" for i in range(12)]
    return [(" ".join(rng.choices(words, k=rng.randint(3, 20))),
             " ".join(rng.choices(words, k=rng.randint(1, 8)))) for _ in range(15)]


def test_wrong_lcs_length_is_rejected():
    examples = _examples()
    profile = compute_profile(examples, "t")
    assert oracles.check_profile(profile, examples, rouge_l) == []
    off_by_one = lambda a, b: oracles.lcs_length(a, b) + 1  # noqa: E731
    assert oracles.check_profile(profile, examples, rouge_l, lcs=off_by_one)
    planted = lambda c, r: oracles.rouge_f1(c, r, off_by_one)  # noqa: E731
    assert any("rouge_l" in f for f in oracles.check_profile(profile, examples, planted))


def test_wrong_length_statistics_are_rejected():
    examples = _examples()
    profile = compute_profile(examples, "t")
    shifted = replace(profile, input_len=replace(profile.input_len, p95=profile.input_len.p95 + 1))
    assert oracles.check_profile(shifted, examples)


def _lift_case():
    rng = random.Random(11)
    matrix = [[rng.gauss(0, 1) for _ in range(4)] + [1.0] for _ in range(12)]
    y = [rng.gauss(0, 1) for _ in range(12)]
    return matrix, y, ("a", "b", "c", "d", "constant")


def test_perturbed_loo_value_is_rejected():
    matrix, y, names = _lift_case()
    train = fit_lift_model(matrix, y, names, "y").train_rmse
    loo = loo_rmse(matrix, y, names, "y")
    assert oracles.check_lift(train, loo, matrix, y, "case") == []
    assert oracles.check_lift(train, loo * (1 + 1e-6), matrix, y, "case")
    assert oracles.check_lift(train + 1e-6, loo, matrix, y, "case")


def test_exact_fit_passes_on_the_absolute_tolerance():
    matrix, _, names = _lift_case()
    y = [row[0] for row in matrix]  # the target is one of the features
    train = fit_lift_model(matrix, y, names, "y").train_rmse
    assert oracles.check_lift(train, loo_rmse(matrix, y, names, "y"), matrix, y, "exact") == []


def test_tracer_self_time_excludes_wrapped_children():
    import types

    from tracer import Tracer

    module = types.SimpleNamespace()
    module.inner = lambda: sum(range(20000))
    module.outer = lambda: module.inner() + module.inner()
    tracer = Tracer()
    tracer.wrap(module, "inner", "inner")
    tracer.wrap(module, "outer", "outer")
    module.outer()
    tracer.unwrap()
    spans = tracer.spans()
    totals = tracer.totals(spans)
    assert totals["inner"]["calls"] == 2 and totals["outer"]["calls"] == 1
    outer = totals["outer"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - totals["inner"]["total_s"])
    assert len(set(spans["trace"].tolist())) == 1  # one outermost call, one trace id


def test_tail_needs_ten_samples_beyond_it():
    import layers

    assert layers.tail(list(range(30)))[0] == 0.5
    p, value, n = layers.tail([float(i) for i in range(1, 201)])
    assert (p, value, n) == (0.95, 190.0, 200)


def test_benchmark_json_lists_every_metric():
    import layers

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER.values())
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "wall_s", "work_per_s", "op_ms", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == [
        "warm-one-token", "adapter-churn", "live-stream", "profile-lift"]
