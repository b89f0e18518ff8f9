"""End-to-end acceptance checks: twelve pinned criteria, one verdict line each.

Each test exercises one externally checkable property of the package --
latency bands, scaling ratios, determinism, oracle equivalence, regression
quality -- at its stated tolerance, and records a single PASS/FAIL line that
pytest prints in the terminal summary.
"""

from __future__ import annotations

import json
import math
import random
import urllib.request
from dataclasses import replace

import numpy as np
import pytest
from conftest import record_verdict
from test_cache import _run_trace

from adapterd.cli import _resolve_scenario, main
from adapterd.core import EngineConfig, WorkloadConfig
from adapterd.engine import run, single_request_timeline
from adapterd.gateway import ReplicaSet, bench, start_server
from adapterd.metrics import summarize
from adapterd.profiler import (
    PROFILE_FEATURES,
    QUALITY_METRICS,
    bundled_fixture_path,
    fit_lift_model,
    load_quality_records,
    load_task_profiles,
    pearson,
    predict,
    profile_features,
    rmse,
    rouge_l,
)


def _verdict(criterion: str, passed: bool, detail: str) -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}"
    print(line)
    record_verdict(line)
    assert passed, line


def _scenario_report(name: str):
    scenario = _resolve_scenario(name)
    return scenario, run(
        scenario.engine, scenario.workload, prewarm_adapters=scenario.prewarm_adapters
    )


@pytest.fixture(scope="module")
def table9():
    return _scenario_report("table9")


@pytest.fixture(scope="module")
def table10():
    return _scenario_report("table10")


@pytest.fixture(scope="module")
def table8():
    return _scenario_report("table8")


@pytest.fixture(scope="module")
def fairness():
    return _scenario_report("fairness")


def test_c01_single_stream_decode_throughput_band():
    """One user, long stream: per-request decode throughput is 1000/12.6 tok/s."""
    config = EngineConfig()
    workload = WorkloadConfig(
        users=1,
        n_adapters=0,
        duration_ms=30_000.0,
        input_tokens_min=100,
        input_tokens_max=100,
        output_tokens_min=200,
        output_tokens_max=200,
        seed=1,
    )
    report = run(config, workload)
    throughput = report.summary["throughput_tok_s"]["average"]
    expected = 1000.0 / (config.decode_base_ms + config.decode_per_seq_ms)
    passed = abs(throughput - expected) < 1e-6 and 74.0 <= throughput <= 83.0
    _verdict(
        "C1 single-stream throughput band",
        passed,
        f"{throughput:.3f} tok/s (expected {expected:.3f}, band [74, 83])",
    )


def test_c02_streaming_scales_with_load_ttft_stays_flat(table9):
    """50 users vs 1: streaming stretches ~3.5x while average TTFT barely moves."""
    scenario, crowded = table9
    solo = run(scenario.engine, replace(scenario.workload, users=1))
    ratio = (
        crowded.summary["streaming_ms"]["average"] / solo.summary["streaming_ms"]["average"]
    )
    ttft_solo = solo.summary["ttft_ms"]["average"]
    ttft_crowded = crowded.summary["ttft_ms"]["average"]
    increase = (ttft_crowded - ttft_solo) / ttft_solo
    passed = 2.8 <= ratio <= 4.2 and increase <= 0.25
    _verdict(
        "C2 load-scaling ratio",
        passed,
        f"streaming ratio {ratio:.3f} in [2.8, 4.2]; "
        f"TTFT {ttft_solo:.1f} -> {ttft_crowded:.1f} ms (+{increase * 100.0:.1f}% <= 25%)",
    )


def test_c03_p90_ttft_envelope(table9, table10):
    """p90 TTFT stays under 220 ms with and without 25 cold adapters."""
    p90_base = table9[1].summary["ttft_ms"]["p90"]
    p90_adapters = table10[1].summary["ttft_ms"]["p90"]
    passed = p90_base <= 220.0 and p90_adapters <= 220.0
    _verdict(
        "C3 p90 TTFT envelope",
        passed,
        f"base-only {p90_base:.1f} ms, 25-adapter {p90_adapters:.1f} ms (limit 220 ms)",
    )


def test_c04_warm_adapter_switching_overhead(table8):
    """Prewarmed 25-adapter 100-user one-token load adds <= 10 ms over idle base."""
    scenario, crowded = table8
    baseline = run(
        scenario.engine, replace(scenario.workload, n_adapters=0, users=1)
    )
    avg_crowded = crowded.summary["total_request_ms"]["average"]
    avg_baseline = baseline.summary["total_request_ms"]["average"]
    delta = avg_crowded - avg_baseline
    throughput_omitted = (
        "throughput_tok_s" not in crowded.summary
        and "throughput_tok_s" not in baseline.summary
    )
    passed = delta <= 10.0 and throughput_omitted
    _verdict(
        "C4 warm switching overhead",
        passed,
        f"{avg_crowded:.2f} ms vs {avg_baseline:.2f} ms baseline "
        f"(delta {delta:+.2f} ms <= 10 ms; single-token throughput omitted: "
        f"{throughput_omitted})",
    )


def test_c05_two_replicas_match_one_at_half_load(tmp_path):
    """100 users on 2 replicas matches 50 users on 1 replica within 5% everywhere."""
    out = tmp_path / "table11.json"
    assert main(["simulate", "table11", "--output", str(out)]) == 0
    doubled = json.loads(out.read_text())["summary"]
    scenario = _resolve_scenario("table11")
    single = run(scenario.engine, replace(scenario.workload, users=50)).summary
    worst = 0.0
    worst_name = ""
    for metric in ("total_request_ms", "ttft_ms", "streaming_ms"):
        for stat in ("average", "p90"):
            reference = single[metric][stat]
            deviation = abs(doubled[metric][stat] - reference) / reference
            if deviation > worst:
                worst, worst_name = deviation, f"{metric}.{stat}"
    passed = worst <= 0.05
    _verdict(
        "C5 replica linearity",
        passed,
        f"worst summary deviation {worst * 100.0:.2f}% ({worst_name}) <= 5%",
    )


def test_c06_simulate_cli_byte_identical(tmp_path, capsys):
    """Two simulate invocations with the same seed emit identical bytes."""
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    args = ["simulate", "table10", "--seed", "77", "--records"]
    assert main([*args, "--output", str(first)]) == 0
    stdout_first = capsys.readouterr().out
    assert main([*args, "--output", str(second)]) == 0
    stdout_second = capsys.readouterr().out
    passed = stdout_first == stdout_second and first.read_bytes() == second.read_bytes()
    _verdict(
        "C6 determinism",
        passed,
        f"stdout identical: {stdout_first == stdout_second}; "
        f"report files identical: {first.read_bytes() == second.read_bytes()}",
    )


def test_c07_cache_matches_brute_force_over_10k_ops():
    """10,000 random touch/advance operations over 50 adapters replay exactly."""
    rng = random.Random(20260814)
    ops = []
    for _ in range(10_000):
        if rng.random() < 0.7:
            ops.append(("touch", rng.randrange(1_000_000)))
        else:
            ops.append(("clock", rng.randrange(0, 3000)))
    _run_trace(ops, gpu_slots=8, cpu_slots=16, n_adapters=50)
    touches = sum(1 for kind, _ in ops if kind == "touch")
    _verdict(
        "C7 cache replay oracle",
        True,
        f"{len(ops)} ops ({touches} touches) over 50 adapters, "
        "state equal to brute-force replay after every op",
    )


def _one_record_figures(record):
    """(ttft, streaming, total) of one record as ``summarize`` reports them.

    The average of one value is that value exactly, so nothing is rounded.
    """
    summary = summarize([record], 1.0)
    return tuple(summary[key]["average"] for key in ("ttft_ms", "streaming_ms", "total_request_ms"))


def test_c08_engine_matches_closed_form_and_identity(table8, table9, table10, fairness):
    """Idle-engine runs hit the closed-form timeline; totals reconcile exactly."""
    config = EngineConfig()
    worst = 0.0
    for input_tokens, output_tokens in ((1, 1), (50, 1), (100, 200), (333, 7)):
        workload = WorkloadConfig(
            users=1,
            n_adapters=0,
            duration_ms=1.0,
            input_tokens_min=input_tokens,
            input_tokens_max=input_tokens,
            output_tokens_min=output_tokens,
            output_tokens_max=output_tokens,
        )
        record = run(config, workload).records[0]
        expected = single_request_timeline(config, input_tokens, output_tokens)
        measured = _one_record_figures(record)
        worst = max(worst, *(abs(m - e) for m, e in zip(measured, expected)))
    identity_checked = 0
    identity_exact = True
    for _scenario, report in (table8, table9, table10, fairness):
        for record in report.records:
            _, _, total = _one_record_figures(record)
            ttft = record.first_token_ms - record.submit_ms
            streaming = record.last_token_ms - record.first_token_ms
            identity_exact &= total == ttft + streaming
            identity_checked += 1
    passed = worst < 1e-9 and identity_exact
    _verdict(
        "C8 engine timeline oracle",
        passed,
        f"closed-form max deviation {worst:.2e} ms < 1e-9; "
        f"total == ttft + streaming exact on {identity_checked} records",
    )


def test_c09_symmetric_load_served_fairly(fairness):
    """Per-adapter completions stay within 10% of the mean; nobody starves."""
    _scenario, report = fairness
    counts = report.per_adapter
    mean = sum(counts.values()) / len(counts)
    max_deviation = max(abs(c - mean) / mean for c in counts.values())
    conserved = (
        report.summary["submitted"]
        == report.summary["completed"] + report.summary["discarded"]
    )
    passed = (
        len(counts) == 25
        and min(counts.values()) >= 1
        and max_deviation <= 0.10
        and conserved
    )
    _verdict(
        "C9 scheduler fairness",
        passed,
        f"25 adapters, counts {min(counts.values())}..{max(counts.values())} "
        f"(mean {mean:.1f}, worst deviation {max_deviation * 100.0:.1f}% <= 10%), "
        f"submitted == completed + discarded: {conserved}",
    )


def _lcs_table(a: list[str], b: list[str]) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def _lcs_f1(a: list[str], b: list[str]) -> float:
    if not a or not b:
        return 0.0
    lcs = _lcs_table(a, b)
    if lcs == 0:
        return 0.0
    precision = lcs / len(a)
    recall = lcs / len(b)
    return 2.0 * precision * recall / (precision + recall)


def test_c10_rouge_matches_brute_force_lcs_f1():
    """1000 random token-pair draws agree exactly with a full-table LCS F1."""
    rng = random.Random(424242)
    vocabulary = ["red", "blue", "green", "ox", "owl", "fig", "елка", "q7", "zz"]
    for _ in range(1000):
        a = [rng.choice(vocabulary) for _ in range(rng.randrange(0, 13))]
        b = [rng.choice(vocabulary) for _ in range(rng.randrange(0, 13))]
        assert rouge_l(" ".join(a), " ".join(b)) == _lcs_f1(a, b)
    _verdict(
        "C10 ROUGE-L oracle",
        True,
        "1000 random pairs (lengths <= 12) equal brute-force LCS F1 exactly",
    )


def test_c11_lift_regression_properties():
    """Planted linear data is recovered; the task fixture fits inside its bands."""
    rng = np.random.default_rng(11)
    planted_x = rng.normal(size=(31, 5))
    true_weights = np.array([0.7, -1.3, 0.25, 2.0, -0.4])
    planted_y = planted_x @ true_weights + 0.31
    names = tuple(f"f{i}" for i in range(5))
    model = fit_lift_model(planted_x.tolist(), planted_y.tolist(), names, "planted")
    predictions = [predict(model, row) for row in planted_x.tolist()]
    planted_residual = rmse(predictions, planted_y.tolist())

    profiles = {p.name: p for p in load_task_profiles(bundled_fixture_path("task_profiles.csv"))}
    quality = {
        q.name: q for q in load_quality_records(bundled_fixture_path("quality_records.csv"))
    }
    task_names = sorted(profiles)
    matrix = [profile_features(profiles[name]) for name in task_names]
    base_scores = [quality[name].avg_base_score for name in task_names]
    augmented = [row + [score] for row, score in zip(matrix, base_scores)]
    augmented_names = PROFILE_FEATURES + ("avg_base_score",)

    bands_ok = True
    augmentation_ok = True
    worst_rmse = 0.0
    for target in QUALITY_METRICS:
        y = [getattr(quality[name], target) for name in task_names]
        plain = fit_lift_model(matrix, y, PROFILE_FEATURES, target)
        with_base = fit_lift_model(augmented, y, augmented_names, target)
        bands_ok &= math.isfinite(plain.train_rmse) and plain.train_rmse <= 0.20
        augmentation_ok &= with_base.train_rmse <= plain.train_rmse + 1e-12
        worst_rmse = max(worst_rmse, plain.train_rmse)

    compressibility = [profiles[name].compressibility.mean for name in task_names]
    sign = pearson(compressibility, base_scores)

    passed = (
        planted_residual < 1e-9 and bands_ok and augmentation_ok and sign is not None and sign > 0
    )
    _verdict(
        "C11 lift regression properties",
        passed,
        f"planted residual {planted_residual:.2e} < 1e-9; worst in-sample RMSE "
        f"{worst_rmse:.3f} <= 0.20; base-score feature never hurts: {augmentation_ok}; "
        f"pearson(compressibility, avg base score) = {sign:.3f} > 0",
    )


def test_c12_live_mode_conformance():
    """Live SSE stream is well-formed; client metrics reconcile; rotation is even."""
    config = EngineConfig()
    workload = WorkloadConfig(
        users=1,
        n_adapters=0,
        duration_ms=2000.0,
        input_tokens_min=30,
        input_tokens_max=120,
        output_tokens_min=2,
        output_tokens_max=40,
        seed=3,
    )
    first = start_server(config, port=0)
    second = start_server(config, port=0)
    try:
        request = urllib.request.Request(
            f"{first.url}/v1/generate",
            data=json.dumps(
                {"input_tokens": 10, "max_new_tokens": 8, "stream": True}
            ).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        indices: list[int] = []
        saw_done = False
        with urllib.request.urlopen(request, timeout=30.0) as response:
            for raw in response:
                line = raw.strip()
                if not line.startswith(b"data: "):
                    continue
                data = line[len(b"data: "):]
                if data == b"[DONE]":
                    saw_done = True
                    break
                indices.append(json.loads(data)["token_index"])
        stream_ok = indices == list(range(8)) and saw_done

        solo = bench(ReplicaSet(endpoints=(first.url,)), workload)
        worst_jitter = 0.0
        for record in solo.records:
            total = record.last_token_ms - record.submit_ms
            parts = (record.first_token_ms - record.submit_ms) + (
                record.last_token_ms - record.first_token_ms
            )
            worst_jitter = max(worst_jitter, abs(total - parts))
        identity_ok = solo.summary["completed"] >= 1 and worst_jitter <= 5.0

        pair = bench(ReplicaSet(endpoints=(first.url, second.url)), workload)
        counts = pair.per_replica
        rotation_ok = abs(counts[first.url] - counts[second.url]) <= 1
    finally:
        first.stop()
        second.stop()
    passed = stream_ok and identity_ok and rotation_ok
    _verdict(
        "C12 live-mode conformance",
        passed,
        f"stream shape ok: {stream_ok}; identity jitter {worst_jitter:.3f} ms <= 5; "
        f"2-replica counts {dict(sorted(counts.items()))} within 1: {rotation_ok}",
    )
