"""Shared test helpers: the one-request closed form, and acceptance verdict lines."""

from __future__ import annotations

from adapterd.core import EngineConfig
from adapterd.engine import decode_gap, prefill_time

VERDICTS: list[str] = []


def single_request_timeline(
    config: EngineConfig, input_tokens: int, output_tokens: int
) -> tuple[float, float, float]:
    """Closed-form (ttft, streaming, total) for one request on an idle engine."""
    if output_tokens < 1:
        raise ValueError(f"output_tokens must be >= 1, got {output_tokens}")
    gap = decode_gap(config, 1)
    ttft = prefill_time(config, input_tokens) + gap
    streaming = (output_tokens - 1) * gap
    return ttft, streaming, ttft + streaming


def record_verdict(line: str) -> None:
    VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter) -> None:
    if VERDICTS:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
