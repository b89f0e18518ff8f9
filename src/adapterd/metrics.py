"""Request records, run summaries, and report serialization.

Latency accounting is split into two disjoint phases so that the totals
reconcile exactly: time to first token (submit to first token) and streaming
time (first token to last token).  The end-to-end total is *defined* as the
sum of the two phases, which keeps the identity ``total == ttft + streaming``
float-exact rather than merely approximate.  :func:`summarize` reads each
figure as one column of floats straight from the records, so a summary makes
no tuple or other object per record beyond one float per column.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable, NamedTuple, Sequence

__all__ = [
    "MergeError",
    "RequestRecord",
    "RunReport",
    "SUMMARY_COUNTERS",
    "merge",
    "percentile",
    "summarize",
    "write_records_csv",
]

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


# The record's fields are its CSV columns and JSON keys, in order, under one rename.
_CSV_FIELDS = tuple(
    "output_tokens" if name == "output_tokens_emitted" else name
    for name in RequestRecord._fields
)


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

    Each record's time to first token is ``first - submit`` and its streaming
    time ``last - first``; its total is their sum.  Per-request throughput
    counts only the ``n - 1`` tokens of the streaming phase (the first token
    belongs to the time-to-first-token phase), so it is averaged over the
    records with at least two tokens and a streaming time that is > 0 in
    seconds.  Aggregate throughput counts every emitted token over the full
    run duration.
    """
    if not records:
        return {"request_count": 0}
    ttfts = [record.first_token_ms - record.submit_ms for record in records]
    streams = [record.last_token_ms - record.first_token_ms for record in records]
    summary: dict = {
        "request_count": len(records),
        "total_request_ms": _stat_block([t + s for t, s in zip(ttfts, streams)]),
        "ttft_ms": _stat_block(ttfts),
        "streaming_ms": _stat_block(streams),
    }
    throughputs = [
        (record.output_tokens_emitted - 1) / seconds
        for record, streaming in zip(records, streams)
        if record.output_tokens_emitted >= 2 and (seconds := streaming / 1000.0) > 0
    ]
    if throughputs:
        summary["throughput_tok_s"] = _stat_block(throughputs)
    total_tokens = sum(record.output_tokens_emitted for record in records)
    # A subnormal duration is > 0 in ms but 0 in seconds, so test the divisor.
    run_seconds = run_duration_ms / 1000.0
    if run_seconds > 0:
        summary["aggregate_throughput_tok_s"] = total_tokens / run_seconds
    return summary


# Run counters a summary may carry beside its latency blocks; merging sums them.
SUMMARY_COUNTERS = ("submitted", "completed", "discarded", "failure_count")


@dataclass(frozen=True)
class RunReport:
    """Complete result of one run: configuration echo, summary, and breakdowns."""

    config: dict
    summary: dict
    cache: dict[str, int]
    records: tuple[RequestRecord, ...]
    per_replica: dict[str, int] | None = None

    @property
    def per_adapter(self) -> dict[str, int]:
        """Completed requests per adapter, in adapter order."""
        return dict(sorted(Counter(r.adapter for r in self.records).items()))

    def to_json_dict(self, include_records: bool = False) -> dict:
        payload: dict = {
            "config": self.config,
            "summary": self.summary,
            "per_adapter": self.per_adapter,
            "cache": self.cache,
        }
        if self.per_replica is not None:
            payload["per_replica"] = self.per_replica
        if include_records:
            payload["records"] = [dict(zip(_CSV_FIELDS, r)) for r in self.records]
        return payload

    def to_json_str(self, include_records: bool = False) -> str:
        return json.dumps(self.to_json_dict(include_records), sort_keys=True, indent=2) + "\n"


def write_records_csv(records: Iterable[RequestRecord], stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    writer.writerows(records)  # csv writes each float by its repr


def merge(reports: Sequence[RunReport]) -> RunReport:
    """Combine reports from replicas of the same engine into one.

    All reports must carry identical engine configuration echoes; the merged
    summary is recomputed from the union of records so averages and
    percentiles stay exact rather than averaged-of-averages, and each run
    counter that every report carries is summed.
    """
    if not reports:
        raise MergeError("cannot merge zero reports")
    engine_echo = reports[0].config.get("engine")
    for report in reports[1:]:
        if report.config.get("engine") != engine_echo:
            raise MergeError("reports come from differently configured engines")
    union = sorted(
        (record for report in reports for record in report.records),
        key=lambda r: (r.submit_ms, r.request_id),
    )
    duration = max(
        float(report.config.get("workload", {}).get("duration_ms", 0.0)) for report in reports
    )
    summary = summarize(union, duration)
    for key in SUMMARY_COUNTERS:
        if all(key in report.summary for report in reports):
            summary[key] = sum(report.summary[key] for report in reports)
    cache: dict[str, int] = {}
    for report in reports:
        for tier, count in report.cache.items():
            cache[tier] = cache.get(tier, 0) + count
    return RunReport(config=reports[0].config, summary=summary, cache=cache, records=tuple(union))
