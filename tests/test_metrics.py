"""Per-record figures, nearest-rank percentiles, summaries, and report merging."""

from __future__ import annotations

import io
import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adapterd.core import EngineConfig, WorkloadConfig
from adapterd.metrics import (
    MergeError,
    RequestRecord,
    RunReport,
    merge,
    percentile,
    summarize,
    write_records_csv,
)


def _record(rid="r1", adapter="base", inp=100, out=5, submit=0.0, first=107.5, last=157.5):
    return RequestRecord(
        request_id=rid,
        adapter=adapter,
        input_tokens=inp,
        output_tokens_emitted=out,
        submit_ms=submit,
        first_token_ms=first,
        last_token_ms=last,
    )


def _report(records, duration=1000.0, d0=12.0):
    engine = EngineConfig(decode_base_ms=d0)
    workload = WorkloadConfig(duration_ms=duration)
    return RunReport(
        config={"engine": engine.to_dict(), "workload": workload.to_dict()},
        summary=summarize(records, duration),
        cache={"gpu": 0, "cpu": 0, "disk": 0, "remote": 0, "in_transit": 0},
        records=tuple(records),
    )


def test_summary_of_one_record_reference_values():
    summary = summarize([_record()], 1000.0)
    assert summary["total_request_ms"]["average"] == 157.5
    assert summary["ttft_ms"]["average"] == 107.5
    assert summary["streaming_ms"]["average"] == 50.0
    assert summary["throughput_tok_s"]["average"] == 80.0


def test_summary_of_one_single_token_record_has_no_throughput():
    summary = summarize([_record(out=1, first=92.65, last=92.65, submit=0.0)], 1000.0)
    assert "throughput_tok_s" not in summary
    assert summary["streaming_ms"]["average"] == 0.0


@given(
    st.floats(0, 1e7, allow_nan=False),
    st.floats(0, 1e5, allow_nan=False),
    st.floats(0, 1e6, allow_nan=False),
)
def test_summary_identity_is_float_exact(submit, ttft_gap, stream_gap):
    record = _record(submit=submit, first=submit + ttft_gap, last=submit + ttft_gap + stream_gap)
    summary = summarize([record], 1000.0)  # the average of one value is that value
    assert summary["total_request_ms"]["average"] == (
        summary["ttft_ms"]["average"] + summary["streaming_ms"]["average"]
    )


def _summary_by_record(records, run_duration_ms):
    """The summary built from one (total, ttft, streaming, throughput) tuple per record."""
    if not records:
        return {"request_count": 0}
    rows = []
    for record in records:
        ttft = record.first_token_ms - record.submit_ms
        streaming = record.last_token_ms - record.first_token_ms
        seconds = streaming / 1000.0
        emitted = record.output_tokens_emitted
        rate = (emitted - 1) / seconds if emitted >= 2 and seconds > 0 else None
        rows.append((ttft + streaming, ttft, streaming, rate))

    def block(values):
        return {"average": sum(values) / len(values),
                "p90": sorted(values)[math.ceil(0.9 * len(values)) - 1]}

    totals, ttfts, streams, rates = zip(*rows)
    summary = {
        "request_count": len(records),
        "total_request_ms": block(totals),
        "ttft_ms": block(ttfts),
        "streaming_ms": block(streams),
    }
    if defined := [rate for rate in rates if rate is not None]:
        summary["throughput_tok_s"] = block(defined)
    seconds = run_duration_ms / 1000.0
    if seconds > 0:
        tokens = sum(record.output_tokens_emitted for record in records)
        summary["aggregate_throughput_tok_s"] = tokens / seconds
    return summary


# Zero, subnormal and normal instants, so equal timestamps and subnormal phases are common.
_INSTANTS = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1.0]), st.floats(0, 1e6))


@st.composite
def _timed_records(draw):
    records = []
    for i in range(draw(st.integers(0, 30))):
        submit, first, last = sorted(draw(st.tuples(_INSTANTS, _INSTANTS, _INSTANTS)))
        out = draw(st.sampled_from([1, 2, 7]))
        records.append(_record(rid=f"r{i:02d}", out=out, submit=submit, first=first, last=last))
    return records


@settings(max_examples=200)
@given(_timed_records(), st.sampled_from([0.0, 5e-324, 1.0, 60_000.0]))
@example([_record(out=1, first=90.0, last=90.0)], 1000.0)  # single token
@example([_record(out=3, submit=5.0, first=5.0, last=5.0)], 1000.0)  # equal timestamps
@example([_record(out=2, submit=0.0, first=0.0, last=5e-324)], 5e-324)  # subnormal duration
def test_summarize_equals_the_summary_built_per_record(records, run_duration_ms):
    assert summarize(records, run_duration_ms) == _summary_by_record(records, run_duration_ms)


@pytest.mark.parametrize("tokens", [1, 5], ids=["one-token", "multi-token"])
def test_summarize_peak_memory_stays_under_200_bytes_per_record(tokens):
    n = 10_000
    records = [
        _record(rid=f"r{i:05d}", out=tokens, submit=float(i), first=i + 50.5, last=i + 80.25)
        for i in range(n)
    ]
    tracemalloc.start()
    try:
        summarize(records, 60_000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 200


def test_percentile_nearest_rank_decile_list():
    values = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    assert percentile(values, 0.9) == 90


def test_percentile_singleton_and_max():
    assert percentile([7], 0.5) == 7
    assert percentile([5, 1, 3], 1.0) == 5


def test_percentile_empty_rejected():
    with pytest.raises(ValueError):
        percentile([], 0.9)


@given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=40), st.randoms())
def test_percentile_permutation_invariant(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert percentile(values, 0.9) == percentile(shuffled, 0.9)


@given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=40))
def test_percentile_monotone_in_p(values):
    assert percentile(values, 0.5) <= percentile(values, 0.9) <= percentile(values, 1.0)


def test_summarize_identical_records():
    records = [_record(rid="r1"), _record(rid="r2")]
    summary = summarize(records, 10_000.0)
    assert summary["total_request_ms"] == {"average": 157.5, "p90": 157.5}
    assert summary["ttft_ms"] == {"average": 107.5, "p90": 107.5}
    assert summary["streaming_ms"] == {"average": 50.0, "p90": 50.0}
    assert summary["throughput_tok_s"] == {"average": 80.0, "p90": 80.0}
    assert summary["aggregate_throughput_tok_s"] == 1.0
    assert summary["request_count"] == 2


def test_summarize_hand_built_ten_records():
    # Ten records with totals 100..1000, ttft 40..400, outputs 2..11.
    records = []
    for i in range(1, 11):
        ttft = 40.0 * i
        total = 100.0 * i
        records.append(
            _record(
                rid=f"r{i}",
                out=i + 1,
                submit=10.0 * i,
                first=10.0 * i + ttft,
                last=10.0 * i + total,
            )
        )
    summary = summarize(records, 60_000.0)
    assert summary["total_request_ms"]["average"] == pytest.approx(550.0)
    assert summary["total_request_ms"]["p90"] == 900.0
    assert summary["ttft_ms"]["average"] == pytest.approx(220.0)
    assert summary["ttft_ms"]["p90"] == 360.0
    assert summary["streaming_ms"]["average"] == pytest.approx(330.0)
    # throughput per record: i tokens over (100i - 40i) ms = i/(0.06 i) = 16.666...
    assert summary["throughput_tok_s"]["average"] == pytest.approx(1000.0 / 60.0)
    # aggregate: sum outputs 2..11 = 65 tokens over 60 seconds.
    assert summary["aggregate_throughput_tok_s"] == pytest.approx(65.0 / 60.0)


def test_summarize_subnormal_duration_omits_aggregate_throughput():
    # 5e-324 ms is > 0 but rounds to 0 s, which once raised ZeroDivisionError.
    summary = summarize([_record()], 5e-324)
    assert "aggregate_throughput_tok_s" not in summary
    assert summary["request_count"] == 1


def test_summarize_all_single_token_omits_throughput():
    records = [_record(rid=f"r{i}", out=1, first=90.0, last=90.0) for i in range(3)]
    summary = summarize(records, 1000.0)
    assert "throughput_tok_s" not in summary
    assert summary["total_request_ms"]["average"] == 90.0


def test_summarize_empty_marker():
    assert summarize([], 1000.0) == {"request_count": 0}


def test_merge_singleton_idempotent():
    report = _report([_record()])
    merged = merge([report])
    assert merged.summary == report.summary
    assert merged.per_adapter == report.per_adapter
    assert merged.records == report.records


def test_merge_two_reports_equals_summarize_of_union():
    r1 = _record(rid="r1", adapter="adapter-00")
    r2 = _record(rid="r2", adapter="adapter-01", first=120.5, last=170.5)
    merged = merge([_report([r1]), _report([r2])])
    assert merged.summary == summarize([r1, r2], 1000.0)
    assert merged.per_adapter == {"adapter-00": 1, "adapter-01": 1}


_COUNTERS = ("submitted", "completed", "discarded", "failure_count")
_TIERS = ("gpu", "cpu", "disk", "remote", "in_transit")


@st.composite
def _replica_reports(draw):
    """1-4 reports over disjoint random records, with random counters and caches."""
    times = st.floats(0, 1e6, allow_nan=False)
    records = [
        _record(rid=f"r{i:03d}", adapter=adapter, out=out, submit=submit,
                first=submit + ttft, last=submit + ttft + streaming)
        for i, (adapter, out, submit, ttft, streaming) in enumerate(draw(st.lists(
            st.tuples(st.sampled_from(["base", "adapter-00", "adapter-01", "adapter-02"]),
                      st.integers(1, 50), times, times, times),
            max_size=30,
        )))
    ]
    cuts = sorted(draw(st.lists(st.integers(0, len(records)), max_size=3)))
    reports = []
    for start, end in zip([0, *cuts], [*cuts, len(records)]):
        report = _report(records[start:end], duration=draw(st.floats(0, 1e7)))
        counters = draw(st.dictionaries(st.sampled_from(_COUNTERS), st.integers(0, 100)))
        cache = draw(st.dictionaries(st.sampled_from(_TIERS), st.integers(0, 3), min_size=1))
        reports.append(replace(report, summary={**report.summary, **counters}, cache=cache))
    return records, reports


@given(_replica_reports())
def test_merge_is_the_summary_of_the_union(case):
    records, reports = case
    merged = merge(reports)
    union = sorted(records, key=lambda r: (r.submit_ms, r.request_id))
    duration = max(r.config["workload"]["duration_ms"] for r in reports)
    expected = summarize(union, duration)
    for key in _COUNTERS:
        if all(key in report.summary for report in reports):
            expected[key] = sum(report.summary[key] for report in reports)
    assert merged.summary == expected
    assert merged.records == tuple(union)
    assert merged.per_adapter == Counter(record.adapter for record in records)
    # Zero-valued tiers stay, so a cache echo keeps every key it had.
    tiers = {tier for report in reports for tier in report.cache}
    assert merged.cache == {
        tier: sum(report.cache.get(tier, 0) for report in reports) for tier in tiers
    }


def test_merge_mismatched_engine_config_rejected():
    with pytest.raises(MergeError):
        merge([_report([_record()], d0=12.0), _report([_record()], d0=13.0)])


def test_merge_empty_list_rejected():
    with pytest.raises(MergeError):
        merge([])


_CSV_HEADER = "request_id,adapter,input_tokens,output_tokens,submit_ms,first_token_ms,last_token_ms"


def test_csv_header_exact():
    buffer = io.StringIO()
    write_records_csv([], buffer)
    assert buffer.getvalue() == _CSV_HEADER + "\n"


def test_csv_round_trip_shape():
    buffer = io.StringIO()
    write_records_csv([_record()], buffer)
    lines = buffer.getvalue().strip().split("\n")
    assert lines[0] == _CSV_HEADER
    assert lines[1].startswith("r1,base,100,5,")
    assert len(lines) == 2


def test_report_json_dict_keys_and_determinism():
    report = _report([_record()])
    d1 = report.to_json_str(include_records=False)
    d2 = report.to_json_str(include_records=False)
    assert d1 == d2
    payload = report.to_json_dict(include_records=True)
    assert set(payload) == {"config", "summary", "per_adapter", "cache", "records"}
    assert not math.isnan(payload["summary"]["total_request_ms"]["average"])
