"""Independent checks for the benchmark's workloads.

Nothing here imports adapterd. Every check recomputes what the program should
have produced -- from the latency model's closed form, from a separately
written splitmix64 stream, from a bit-parallel LCS, from one least-squares fit
and its hat matrix -- and returns a list of human-readable failures. An empty
list means the output passed.
"""

from __future__ import annotations

import math
import zlib
from typing import Iterable, Sequence

import numpy as np

# -- splitmix64, written from the constants of the program's core module -----

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX_A = 0xBF58476D1CE4E5B9
MIX_B = 0x94D049BB133111EB


def mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * MIX_A) & MASK64
    z = ((z ^ (z >> 27)) * MIX_B) & MASK64
    return z ^ (z >> 31)


class SplitMix:
    """One user's stream: seeded from (run seed, user index), drawn in order."""

    def __init__(self, seed: int, user: int) -> None:
        self.state = mix64(seed ^ mix64(((user + 1) * GOLDEN) & MASK64))

    def uniform(self, lo: int, hi: int) -> int:
        span = hi - lo + 1
        limit = (1 << 64) // span * span
        while True:
            self.state = (self.state + GOLDEN) & MASK64
            value = mix64(self.state)
            if value < limit:
                return lo + value % span


def expected_payloads(
    seed: int, user: int, count: int, n_adapters: int,
    input_range: tuple[int, int], output_range: tuple[int, int],
) -> list[tuple[str, int, int]]:
    """The first ``count`` (adapter, input, output) draws of one uniform user.

    Draw order is input length, output length, then adapter index.
    """
    stream = SplitMix(seed, user)
    out = []
    for _ in range(count):
        input_tokens = stream.uniform(*input_range)
        output_tokens = stream.uniform(*output_range)
        adapter = f"adapter-{stream.uniform(0, n_adapters - 1):02d}" if n_adapters else "base"
        out.append((adapter, input_tokens, output_tokens))
    return out


# -- latency model closed forms ----------------------------------------------

# Float slack for comparing a simulated duration (a difference of two
# accumulated timestamps) against the same duration computed directly.
_TIME_EPS_MS = 1e-6


def min_ttft_ms(engine: dict, input_tokens: int) -> float:
    """Lowest TTFT the latency model allows: prefill plus one decode gap of one."""
    return (
        engine["prefill_base_ms"]
        + engine["prefill_per_token_ms"] * input_tokens
        + engine["decode_base_ms"]
        + engine["decode_per_seq_ms"]
    )


def remote_fetch_ms(engine: dict) -> float:
    return engine["t_download_ms"] + engine["t_disk_to_cpu_ms"] + engine["t_cpu_to_gpu_ms"]


def nearest_rank(values: Sequence[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered))) - 1]


def check_ttft_floor(records: Iterable, engine: dict, extra_ms: float = 0.0) -> list[str]:
    """Every record's TTFT is at least the closed-form minimum plus ``extra_ms``."""
    failures = []
    for r in records:
        floor = min_ttft_ms(engine, r.input_tokens) + extra_ms
        ttft = r.first_token_ms - r.submit_ms
        if ttft < floor - _TIME_EPS_MS:
            failures.append(f"{r.request_id}: ttft {ttft:.6f} ms < model floor {floor:.6f} ms")
    return failures


def check_virtual_report(report, engine: dict, n_adapters: int) -> list[str]:
    """Invariants every simulate report must satisfy, whatever the scenario."""
    s = report.summary
    records = report.records or ()
    failures = []
    if s["submitted"] != s["completed"] + s["discarded"]:
        failures.append(
            f"submitted {s['submitted']} != completed {s['completed']} + discarded {s['discarded']}"
        )
    if s["completed"] != len(records) or s["request_count"] != len(records):
        failures.append(f"completed {s['completed']} != {len(records)} records")
    if sum(report.per_adapter.values()) != len(records):
        failures.append("per-adapter counts do not sum to the record count")
    failures += check_ttft_floor(records, engine)
    if records:
        ttft = [r.first_token_ms - r.submit_ms for r in records]
        streaming = [r.last_token_ms - r.first_token_ms for r in records]
        total = [a + b for a, b in zip(ttft, streaming)]
        for key, values in (("ttft_ms", ttft), ("streaming_ms", streaming), ("total_request_ms", total)):
            mean = sum(values) / len(values)
            p90 = nearest_rank(values, 0.9)
            if s[key]["average"] != mean or s[key]["p90"] != p90:
                failures.append(
                    f"{key}: summary {s[key]} != recomputed average {mean!r}, p90 {p90!r}"
                )
    tiers = report.cache
    if n_adapters and sum(tiers.values()) != n_adapters:
        failures.append(f"residency {tiers} does not sum to {n_adapters} adapters")
    if tiers.get("gpu", 0) > engine["gpu_slots"] or tiers.get("cpu", 0) > engine["cpu_slots"]:
        failures.append(f"residency {tiers} exceeds gpu_slots/cpu_slots")
    return failures


def check_first_adapters(records: Iterable, seed: int, users: int, n_adapters: int,
                         input_range: tuple[int, int], output_range: tuple[int, int]) -> list[str]:
    """Each user's first request (ids 1..users, submitted at t=0) carries its drawn adapter."""
    by_id = {r.request_id: r for r in records}
    failures = []
    for user in range(users):
        rid = f"r{user + 1:06d}"
        record = by_id.get(rid)
        want = expected_payloads(seed, user, 1, n_adapters, input_range, output_range)[0]
        if record is None:
            failures.append(f"user {user}: first request {rid} has no record")
        elif (record.adapter, record.input_tokens) != want[:2] or record.submit_ms != 0.0:
            failures.append(f"user {user}: {rid} is {record.adapter}/{record.input_tokens}, want {want[:2]}")
    return failures


def check_cold_fetch(records: Iterable, engine: dict) -> list[str]:
    """From a cold start, each adapter's earliest request also waits out the remote fetch."""
    first: dict = {}
    for r in records:
        if r.adapter != "base":
            seen = first.get(r.adapter)
            if seen is None or (r.submit_ms, r.request_id) < (seen.submit_ms, seen.request_id):
                first[r.adapter] = r
    return check_ttft_floor(first.values(), engine, extra_ms=remote_fetch_ms(engine))


# -- live stream ---------------------------------------------------------------


def check_live_records(records: Iterable, expected: dict, engine: dict) -> list[str]:
    """Client records against the payloads the bench user must have sent.

    ``expected`` maps a bench request id to its (adapter, input, output) draw;
    a stream that lost or gained an SSE token shows as a wrong emitted count.
    """
    failures = []
    for r in records:
        want = expected.get(r.request_id)
        if want is None:
            failures.append(f"{r.request_id}: not a request the bench user draws")
            continue
        got = (r.adapter, r.input_tokens, r.output_tokens_emitted)
        if got != want:
            failures.append(f"{r.request_id}: streamed {got}, sent {want}")
    failures += check_ttft_floor(records, engine)
    return failures


def check_scrapes(counts: Sequence[int]) -> list[str]:
    """Scraped request_count values, in scrape order, never decrease."""
    return [
        f"scrape {i}: request_count fell from {a} to {b}"
        for i, (a, b) in enumerate(zip(counts, counts[1:]), start=1)
        if b < a
    ]


# -- profiler --------------------------------------------------------------------


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """LCS length by the bit-parallel recurrence (Allison-Dix / Hyyro)."""
    if not a or not b:
        return 0
    masks: dict[str, int] = {}
    for i, token in enumerate(a):
        masks[token] = masks.get(token, 0) | (1 << i)
    full = (1 << len(a)) - 1
    row = full
    for token in b:
        match = masks.get(token, 0)
        low = row & match
        row = ((row + low) | (row - low)) & full
    return len(a) - bin(row).count("1")


def rouge_f1(candidate: str, reference: str, lcs=lcs_length) -> float:
    cand = candidate.lower().split()
    ref = reference.lower().split()
    common = lcs(cand, ref)
    if not cand or not ref or common == 0:
        return 0.0
    precision = common / len(cand)
    recall = common / len(ref)
    return 2 * precision * recall / (precision + recall)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol or abs(a - b) <= tol * max(abs(a), abs(b))


def _stats(values: Sequence[float]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    return mean, math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def check_profile(profile, examples: Sequence[tuple[str, str]], rouge_l=None,
                  lcs=lcs_length) -> list[str]:
    """A TaskProfile against statistics recomputed from the raw examples.

    When ``rouge_l`` (the program's function) is given, it is also called on
    three evenly spaced pairs and compared with the separately written LCS.
    """
    failures = []
    inputs = [float(len(i.split())) for i, _ in examples]
    outputs = [float(len(o.split())) for _, o in examples]
    both = [a + b for a, b in zip(inputs, outputs)]
    if profile.n_examples != len(examples):
        failures.append(f"n_examples {profile.n_examples} != {len(examples)}")
    for label, values, got in (("input_len", inputs, profile.input_len),
                               ("output_len", outputs, profile.output_len),
                               ("example_len", both, profile.example_len)):
        mean, std = _stats(values)
        want = (mean, std, nearest_rank(values, 0.95))
        if not all(_close(g, w, 1e-12) for g, w in zip((got.mean, got.std, got.p95), want)):
            failures.append(f"{label}: {got} != mean/std/p95 {want}")
    rouges = [rouge_f1(o, i, lcs) for i, o in examples]
    mean, std = _stats(rouges)
    if not (_close(profile.io_rougeL.mean, mean, 1e-9) and _close(profile.io_rougeL.std, std, 1e-9)):
        failures.append(f"io_rougeL {profile.io_rougeL} != LCS-based mean {mean!r}, std {std!r}")
    # gzip.compress(mtime=0) is a 10-byte header, the level-9 deflate stream and an
    # 8-byte trailer; zlib.compress wraps the same stream in 2 + 4 bytes.
    ratios = [(len(zlib.compress(t.encode(), 9)) + 12) / len(t.encode())
              for t in (i + "\n" + o for i, o in examples)]
    mean, std = _stats(ratios)
    if not (_close(profile.compressibility.mean, mean, 1e-9)
            and _close(profile.compressibility.std, std, 1e-9)):
        failures.append(f"compressibility {profile.compressibility} != deflate mean {mean!r}")
    if rouge_l is not None:
        for inp, out in examples[::max(1, len(examples) // 3)][:3]:
            got, want = rouge_l(out, inp), rouge_f1(out, inp, lcs)
            if not _close(got, want, 1e-12):
                failures.append(f"rouge_l {got!r} != LCS-based {want!r}")
    return failures


def zscored_design(matrix: Sequence[Sequence[float]]) -> np.ndarray:
    """Columns to mean 0 and population std 1, constants dropped, plus an intercept."""
    x = np.asarray(matrix, dtype=float)
    mean, std = x.mean(axis=0), x.std(axis=0)
    keep = std > 0
    z = (x[:, keep] - mean[keep]) / std[keep]
    return np.hstack([z, np.ones((len(x), 1))])


def lift_references(matrix: Sequence[Sequence[float]], y: Sequence[float]) -> tuple[float, float]:
    """(in-sample RMSE from numpy lstsq, LOO RMSE from one fit and its hat matrix)."""
    design = zscored_design(matrix)
    target = np.asarray(y, dtype=float)
    solution, *_ = np.linalg.lstsq(design, target, rcond=None)
    residual = target - design @ solution
    hat = design @ np.linalg.pinv(design)
    loo_residual = (target - hat @ target) / (1.0 - np.diag(hat))
    return (float(np.sqrt(np.mean(residual ** 2))), float(np.sqrt(np.mean(loo_residual ** 2))))


def check_lift(train_rmse: float, loo: float, matrix, y, label: str) -> list[str]:
    want_train, want_loo = lift_references(matrix, y)
    failures = []
    if not _close(train_rmse, want_train, 1e-9):
        failures.append(f"{label}: in-sample RMSE {train_rmse!r} != lstsq {want_train!r}")
    if not _close(loo, want_loo, 1e-9):
        failures.append(f"{label}: LOO RMSE {loo!r} != hat-matrix {want_loo!r}")
    return failures
