"""Shared domain types, configuration validation, and the deterministic RNG.

All simulation time is real-valued milliseconds (``VirtualTime``). Every type
here is an immutable value.  An RNG state is a plain int: each draw takes a
state and returns the value together with the advanced state, and never
mutates anything, which is what makes a whole benchmark run a pure function
of its configuration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import Annotated, Any, NamedTuple, get_args, get_origin, get_type_hints

VirtualTime = float

BASE_ADAPTER = "base"

_ADAPTER_ASSIGNMENTS = ("uniform", "per_user")


@functools.cache
def adapter_name(index: int) -> str:
    """Canonical adapter identifier; zero-padded so lexical order is numeric order.

    Cached, so every request, payload and record naming one adapter shares one
    string, and the cache holds one entry per index a run has named.
    """
    return f"adapter-{index:02d}"


class Bound(NamedTuple):
    """A numeric field's rule: at least ``lo``, or above it when ``strict``.

    A float field must also be finite. It is declared next to the field's
    type, as ``Annotated[int, Bound(1)]``, and :func:`field_violations`
    applies it.
    """

    lo: int
    strict: bool = False


@dataclass(frozen=True)
class EngineConfig:
    """Latency-model constants and capacity knobs for the serving engine.

    Defaults calibrate decode(1) to 12.6 ms per token (79.4 tok/s single
    stream) with sub-millisecond adapter switch cost.
    """

    gpu_slots: Annotated[int, Bound(1)] = 32
    cpu_slots: Annotated[int, Bound(0)] = 256
    t_download_ms: Annotated[float, Bound(0)] = 2000.0
    t_disk_to_cpu_ms: Annotated[float, Bound(0)] = 200.0
    t_cpu_to_gpu_ms: Annotated[float, Bound(0)] = 5.0
    decode_base_ms: Annotated[float, Bound(0, strict=True)] = 12.0
    decode_per_seq_ms: Annotated[float, Bound(0)] = 0.6
    prefill_base_ms: Annotated[float, Bound(0)] = 80.0
    prefill_per_token_ms: Annotated[float, Bound(0)] = 0.15
    switch_overhead_ms: Annotated[float, Bound(0)] = 0.1
    max_batch_size: Annotated[int, Bound(1)] = 128
    admission_per_step: Annotated[int, Bound(1)] = 8

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class WorkloadConfig:
    """Closed-loop workload shape: users, duration, and payload distributions.

    ``adapter_assignment`` is "uniform" (each request draws an adapter at
    random) or "per_user" (user i always targets adapter i mod n_adapters,
    giving exactly symmetric per-adapter load).
    """

    n_adapters: Annotated[int, Bound(0)] = 0
    users: Annotated[int, Bound(1)] = 1
    duration_ms: Annotated[float, Bound(0)] = 120_000.0
    input_tokens_min: Annotated[int, Bound(1)] = 30
    input_tokens_max: int = 500
    output_tokens_min: Annotated[int, Bound(1)] = 1
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


_JSON_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "a boolean"}

# Long enough for a 400-digit JSON integer, short enough that a 1 MiB input is
# never quoted back whole.
_ECHO_CHARS = 500


def clip(text: str) -> str:
    """``text`` as an error quotes it back: its first ``_ECHO_CHARS`` characters, then ``...``."""
    return text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "..."


@functools.cache
def _field_rules(cls: type) -> tuple[dict[str, tuple[type, Bound | None]], frozenset[str]]:
    """(type, bound) of each field of ``cls`` by name, and the fields without a default."""
    rules = {}
    for name, hint in get_type_hints(cls, include_extras=True).items():
        kind, *extras = get_args(hint) if get_origin(hint) is Annotated else (hint,)
        rules[name] = kind, next(iter(extras), None)
    required = frozenset(f.name for f in fields(cls) if f.default is MISSING)
    return rules, required


def field_violations(cls: type, values: Any, where: str) -> list[str]:
    """Every unknown, missing, mistyped or out-of-bounds field of ``values`` for ``cls``.

    ``values`` maps field names to values as JSON gives them: an int field
    takes an integer but not a boolean, a float field any number, and a
    nested configuration an object, checked the same way under its own name.
    A key or type violation names ``where`` and the field; a bound violation
    names the field alone, since it reads the same from a file, a flag or a
    constructor.  Each quoted value and the unknown-key list go through
    :func:`clip`.
    """
    if not isinstance(values, dict):
        return [f"{where}: must be an object (got {clip(repr(values))})"]
    rules, required = _field_rules(cls)
    violations = []
    unknown = sorted(set(values) - rules.keys())
    if unknown:
        violations.append(f"{where}: unknown fields {clip(repr(unknown))}")
    violations += [f"{where}.{name}: required" for name in sorted(required - set(values))]
    for name, value in values.items():
        if name not in rules:
            continue
        kind, bound = rules[name]
        accepted = (int, float) if kind is float else kind
        if is_dataclass(kind):
            violations += field_violations(kind, value, name)
        elif not isinstance(value, accepted) or isinstance(value, bool) != (kind is bool):
            got = clip(repr(value))
            violations.append(f"{where}.{name}: must be {_JSON_KINDS[kind]} (got {got})")
        elif bound is not None:
            try:
                finite = kind is int or math.isfinite(value)
            except OverflowError:  # an int beyond the float range, such as a 400-digit JSON integer
                finite = False
            if not (finite and (value > bound.lo if bound.strict else value >= bound.lo)):
                rule = ("finite and " if kind is float else "") + (">" if bound.strict else ">=")
                violations.append(f"{name}: must be {rule} {bound.lo} (got {clip(repr(value))})")
    return violations


def config_violations(engine: EngineConfig, workload: WorkloadConfig) -> list[str]:
    """Return every invariant violation in the pair; empty list means valid."""
    v = field_violations(EngineConfig, vars(engine), "engine")
    v += field_violations(WorkloadConfig, vars(workload), "workload")
    for lo_name, hi_name in (
        ("input_tokens_min", "input_tokens_max"),
        ("output_tokens_min", "output_tokens_max"),
    ):
        lo = getattr(workload, lo_name)
        hi = getattr(workload, hi_name)
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

    name: str = "scenario"
    engine: EngineConfig = EngineConfig()
    workload: WorkloadConfig = WorkloadConfig()
    replicas: Annotated[int, Bound(1)] = 1
    prewarm_adapters: bool = False


def scenario_from_dict(raw: Any) -> Scenario:
    """Build a Scenario from one JSON document with "engine" and "workload" objects.

    Raises ConfigError with one violation per unknown, mistyped or
    out-of-range field.
    """
    violations = field_violations(Scenario, raw, "scenario")
    if violations:
        raise ConfigError(violations)
    engine = EngineConfig(**raw.get("engine", {}))
    workload = WorkloadConfig(**raw.get("workload", {}))
    return Scenario(**{**raw, "engine": engine, "workload": workload})
