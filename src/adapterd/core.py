"""Shared domain types, configuration validation, and the deterministic RNG.

All simulation time is real-valued milliseconds (``VirtualTime``). Every type
here is an immutable value.  An RNG state is a plain int: each draw takes a
state and returns the value together with the advanced state, and never
mutates anything, which is what makes a whole benchmark run a pure function
of its configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, NamedTuple

VirtualTime = float

BASE_ADAPTER = "base"

_ADAPTER_ASSIGNMENTS = ("uniform", "per_user")


def adapter_name(index: int) -> str:
    """Canonical adapter identifier; zero-padded so lexical order is numeric order."""
    return f"adapter-{index:02d}"


@dataclass(frozen=True)
class EngineConfig:
    """Latency-model constants and capacity knobs for the serving engine.

    Defaults calibrate decode(1) to 12.6 ms per token (79.4 tok/s single
    stream) with sub-millisecond adapter switch cost.
    """

    gpu_slots: int = 32
    cpu_slots: int = 256
    t_download_ms: float = 2000.0
    t_disk_to_cpu_ms: float = 200.0
    t_cpu_to_gpu_ms: float = 5.0
    decode_base_ms: float = 12.0
    decode_per_seq_ms: float = 0.6
    prefill_base_ms: float = 80.0
    prefill_per_token_ms: float = 0.15
    switch_overhead_ms: float = 0.1
    max_batch_size: int = 128
    admission_per_step: int = 8

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class WorkloadConfig:
    """Closed-loop workload shape: users, duration, and payload distributions.

    ``adapter_assignment`` is "uniform" (each request draws an adapter at
    random) or "per_user" (user i always targets adapter i mod n_adapters,
    giving exactly symmetric per-adapter load).
    """

    n_adapters: int = 0
    users: int = 1
    duration_ms: float = 120_000.0
    input_tokens_min: int = 30
    input_tokens_max: int = 500
    output_tokens_min: int = 1
    output_tokens_max: int = 120
    seed: int = 0
    adapter_assignment: str = "uniform"

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class Request(NamedTuple):
    """One generation request; ids are unique per run."""

    id: str
    adapter: str
    input_tokens: int
    max_new_tokens: int
    submit_time: VirtualTime


class ConfigError(ValueError):
    """Raised with the full list of config violations, not just the first."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


def _finite_nonneg(violations: list[str], name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
        violations.append(f"{name}: must be finite and >= 0 (got {value!r})")


def config_violations(engine: EngineConfig, workload: WorkloadConfig) -> list[str]:
    """Return every invariant violation in the pair; empty list means valid."""
    v: list[str] = []
    if engine.gpu_slots < 1:
        v.append(f"gpu_slots: must be >= 1 (got {engine.gpu_slots})")
    if engine.cpu_slots < 0:
        v.append(f"cpu_slots: must be >= 0 (got {engine.cpu_slots})")
    for name in (
        "t_download_ms",
        "t_disk_to_cpu_ms",
        "t_cpu_to_gpu_ms",
        "decode_per_seq_ms",
        "prefill_base_ms",
        "prefill_per_token_ms",
        "switch_overhead_ms",
    ):
        _finite_nonneg(v, name, getattr(engine, name))
    if not (math.isfinite(engine.decode_base_ms) and engine.decode_base_ms > 0):
        v.append(f"decode_base_ms: must be finite and > 0 (got {engine.decode_base_ms!r})")
    if engine.max_batch_size < 1:
        v.append(f"max_batch_size: must be >= 1 (got {engine.max_batch_size})")
    if engine.admission_per_step < 1:
        v.append(f"admission_per_step: must be >= 1 (got {engine.admission_per_step})")

    if workload.n_adapters < 0:
        v.append(f"n_adapters: must be >= 0 (got {workload.n_adapters})")
    if workload.users < 1:
        v.append(f"users: must be >= 1 (got {workload.users})")
    if not (math.isfinite(workload.duration_ms) and workload.duration_ms >= 0):
        v.append(f"duration_ms: must be finite and >= 0 (got {workload.duration_ms!r})")
    for lo_name, hi_name in (
        ("input_tokens_min", "input_tokens_max"),
        ("output_tokens_min", "output_tokens_max"),
    ):
        lo = getattr(workload, lo_name)
        hi = getattr(workload, hi_name)
        if lo < 1:
            v.append(f"{lo_name}: must be >= 1 (got {lo})")
        if lo > hi:
            v.append(f"{lo_name}: min <= max required (got {lo} > {hi})")
    if not (0 <= workload.seed < 2**64):
        v.append(f"seed: must be a 64-bit unsigned integer (got {workload.seed})")
    if workload.adapter_assignment not in _ADAPTER_ASSIGNMENTS:
        v.append(
            f"adapter_assignment: must be one of {_ADAPTER_ASSIGNMENTS} "
            f"(got {workload.adapter_assignment!r})"
        )
    elif workload.adapter_assignment == "per_user" and workload.n_adapters < 1:
        v.append("adapter_assignment: per_user requires n_adapters >= 1")
    return v


def validate_config(
    engine: EngineConfig, workload: WorkloadConfig
) -> tuple[EngineConfig, WorkloadConfig]:
    """Return the pair unchanged, or raise ConfigError carrying all violations."""
    violations = config_violations(engine, workload)
    if violations:
        raise ConfigError(violations)
    return engine, workload


# Deterministic splitmix64-style generator. The constants are fixed so any
# implementation in any language reproduces traces bit for bit.
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


# The splitmix64 state is the whole stream, so an RNG state is one int.
Rng = int


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def rng_next_uniform(rng: Rng, lo: int, hi: int) -> tuple[int, Rng]:
    """Uniform integer in [lo, hi], unbiased via rejection sampling."""
    if lo > hi:
        raise ValueError(f"rng_next_uniform: lo {lo} > hi {hi}")
    span = hi - lo + 1
    limit = (2**64 // span) * span
    while True:
        rng = (rng + _GOLDEN) & _MASK64
        value = _mix64(rng)
        if value < limit:
            return lo + (value % span), rng


def rng_split(rng: Rng, label: int) -> Rng:
    """Child stream for (state, label); pure, and the parent is not consumed."""
    return _mix64(rng ^ _mix64(((label + 1) * _GOLDEN) & _MASK64))


@dataclass(frozen=True)
class Scenario:
    """A runnable benchmark: configs plus replica count and adapter prewarming."""

    name: str
    engine: EngineConfig
    workload: WorkloadConfig
    replicas: int = 1
    prewarm_adapters: bool = False


def _dataclass_from_dict(cls: type, raw: dict[str, Any], where: str) -> Any:
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"{where}: unknown fields {unknown}")
    return cls(**raw)


def engine_config_from_dict(raw: dict[str, Any]) -> EngineConfig:
    return _dataclass_from_dict(EngineConfig, raw, "engine")


def workload_config_from_dict(raw: dict[str, Any]) -> WorkloadConfig:
    return _dataclass_from_dict(WorkloadConfig, raw, "workload")


def scenario_from_dict(raw: dict[str, Any]) -> Scenario:
    """Build a Scenario from one JSON document with "engine" and "workload" objects."""
    known = {"name", "engine", "workload", "replicas", "prewarm_adapters"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"scenario: unknown fields {unknown}")
    engine = engine_config_from_dict(raw.get("engine", {}))
    workload = workload_config_from_dict(raw.get("workload", {}))
    replicas = int(raw.get("replicas", 1))
    if replicas < 1:
        raise ValueError(f"scenario.replicas: must be >= 1 (got {replicas})")
    return Scenario(
        name=str(raw.get("name", "scenario")),
        engine=engine,
        workload=workload,
        replicas=replicas,
        prewarm_adapters=bool(raw.get("prewarm_adapters", False)),
    )


def load_scenario(path: str | Path) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return scenario_from_dict(json.load(handle))
