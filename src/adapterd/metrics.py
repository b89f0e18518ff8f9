"""Request-level metric derivation, run summaries, and report serialization.

Latency accounting is split into two disjoint phases so that the totals
reconcile exactly: time to first token (submit to first token) and streaming
time (first token to last token).  The end-to-end total is *defined* as the
sum of the two phases, which keeps the identity ``total == ttft + streaming``
float-exact rather than merely approximate.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, NamedTuple, Sequence

__all__ = [
    "DerivedMetrics",
    "MergeError",
    "RequestRecord",
    "RunReport",
    "derive",
    "merge",
    "percentile",
    "summarize",
    "write_records_csv",
]

_CSV_FIELDS = (
    "request_id",
    "adapter",
    "input_tokens",
    "output_tokens",
    "submit_ms",
    "first_token_ms",
    "last_token_ms",
)


class MergeError(ValueError):
    """Raised when reports cannot be combined into one."""


class RequestRecord(NamedTuple):
    """Raw timestamps for one completed request."""

    request_id: str
    adapter: str
    input_tokens: int
    output_tokens_emitted: int
    submit_ms: float
    first_token_ms: float
    last_token_ms: float


class DerivedMetrics(NamedTuple):
    """Per-request latency and throughput figures derived from timestamps."""

    total_ms: float
    ttft_ms: float
    streaming_ms: float
    throughput_tok_s: float | None


def derive(record: RequestRecord) -> DerivedMetrics:
    """Compute latency phases and decode throughput for one record.

    Throughput counts only the ``n - 1`` tokens produced during the streaming
    phase (the first token belongs to the time-to-first-token phase), so it is
    undefined for single-token responses.
    """
    ttft = record.first_token_ms - record.submit_ms
    streaming = record.last_token_ms - record.first_token_ms
    seconds = streaming / 1000.0
    if record.output_tokens_emitted >= 2 and seconds > 0:
        throughput = (record.output_tokens_emitted - 1) / seconds
    else:
        throughput = None
    return DerivedMetrics(ttft + streaming, ttft, streaming, throughput)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the ceil(p * n)-th smallest value (1-based)."""
    if not values:
        raise ValueError("percentile of an empty sequence is undefined")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"percentile fraction must be in (0, 1], got {p}")
    rank = math.ceil(p * len(values))
    return sorted(values)[rank - 1]


def _stat_block(values: Sequence[float]) -> dict[str, float]:
    return {
        "average": sum(values) / len(values),
        "p90": percentile(values, 0.9),
    }


def summarize(records: Sequence[RequestRecord], run_duration_ms: float) -> dict:
    """Aggregate per-request metrics into a summary mapping.

    Per-request throughput is averaged over the records where it is defined
    (at least two tokens); aggregate throughput counts every emitted token
    over the full run duration.
    """
    if not records:
        return {"request_count": 0}
    # Each DerivedMetrics is a tuple, so one zip yields its fields as columns.
    totals, ttfts, streams, rates = zip(*[derive(record) for record in records])
    summary: dict = {
        "request_count": len(records),
        "total_request_ms": _stat_block(totals),
        "ttft_ms": _stat_block(ttfts),
        "streaming_ms": _stat_block(streams),
    }
    throughputs = [rate for rate in rates if rate is not None]
    if throughputs:
        summary["throughput_tok_s"] = _stat_block(throughputs)
    total_tokens = sum(record.output_tokens_emitted for record in records)
    if run_duration_ms > 0:
        summary["aggregate_throughput_tok_s"] = total_tokens / (run_duration_ms / 1000.0)
    return summary


@dataclass(frozen=True)
class RunReport:
    """Complete result of one run: configuration echo, summary, and breakdowns."""

    config: dict
    summary: dict
    per_adapter: dict[str, int]
    cache: dict[str, int]
    records: tuple[RequestRecord, ...] | None = None
    per_replica: dict[str, int] | None = None

    def to_json_dict(self, include_records: bool = False) -> dict:
        payload: dict = {
            "config": self.config,
            "summary": self.summary,
            "per_adapter": dict(sorted(self.per_adapter.items())),
            "cache": self.cache,
        }
        if self.per_replica is not None:
            payload["per_replica"] = self.per_replica
        if include_records:
            payload["records"] = [_record_row(r) for r in self.records or ()]
        return payload

    def to_json_str(self, include_records: bool = False) -> str:
        return json.dumps(self.to_json_dict(include_records), sort_keys=True, indent=2) + "\n"


def _record_row(record: RequestRecord) -> dict:
    return {
        "request_id": record.request_id,
        "adapter": record.adapter,
        "input_tokens": record.input_tokens,
        "output_tokens": record.output_tokens_emitted,
        "submit_ms": record.submit_ms,
        "first_token_ms": record.first_token_ms,
        "last_token_ms": record.last_token_ms,
    }


def write_records_csv(records: Iterable[RequestRecord], stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for record in records:
        writer.writerow(
            (
                record.request_id,
                record.adapter,
                record.input_tokens,
                record.output_tokens_emitted,
                repr(record.submit_ms),
                repr(record.first_token_ms),
                repr(record.last_token_ms),
            )
        )


_SUMMED_SUMMARY_KEYS = ("submitted", "completed", "discarded", "failure_count")


def merge(reports: Sequence[RunReport]) -> RunReport:
    """Combine reports from replicas of the same engine into one.

    All reports must carry identical engine configuration echoes and full
    record sets; the merged summary is recomputed from the union of records
    so averages and percentiles stay exact rather than averaged-of-averages.
    """
    if not reports:
        raise MergeError("cannot merge zero reports")
    engine_echo = reports[0].config.get("engine")
    for report in reports[1:]:
        if report.config.get("engine") != engine_echo:
            raise MergeError("reports come from differently configured engines")
    union: list[RequestRecord] = []
    for report in reports:
        if report.records is None:
            raise MergeError("merge requires per-request records on every report")
        union.extend(report.records)
    union.sort(key=lambda r: (r.submit_ms, r.request_id))
    duration = max(
        float(report.config.get("workload", {}).get("duration_ms", 0.0)) for report in reports
    )
    summary = summarize(union, duration)
    for key in _SUMMED_SUMMARY_KEYS:
        if all(key in report.summary for report in reports):
            summary[key] = sum(report.summary[key] for report in reports)
    per_adapter: dict[str, int] = {}
    cache: dict[str, int] = {}
    for report in reports:
        for adapter, count in report.per_adapter.items():
            per_adapter[adapter] = per_adapter.get(adapter, 0) + count
        for tier, count in report.cache.items():
            cache[tier] = cache.get(tier, 0) + count
    return RunReport(
        config=reports[0].config,
        summary=summary,
        per_adapter=per_adapter,
        cache=cache,
        records=tuple(union),
    )
