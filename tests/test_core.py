"""Core types: config validation and the deterministic RNG contract."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterd.core import (
    BASE_ADAPTER,
    ConfigError,
    EngineConfig,
    Rng,
    WorkloadConfig,
    adapter_name,
    config_violations,
    rng_next_uniform,
    rng_split,
    scenario_from_dict,
    validate_config,
)

# Known-answer vectors for the documented splitmix64 generator
# (increment 0x9E3779B97F4A7C15, mixers 0xBF58476D1CE4E5B9 / 0x94D049BB133111EB).
_SPLITMIX_SEED_0_FIRST = 16294208416658607535
_SPLITMIX_SEED_1234567_FIRST_3 = (
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
)

# chi-square critical value at the 99th percentile for 119 degrees of freedom.
_CHI2_99_DF119 = 157.79954116016174


def test_validate_defaults_ok():
    engine = EngineConfig()
    workload = WorkloadConfig()
    assert config_violations(engine, workload) == []
    assert validate_config(engine, workload) == (engine, workload)


def test_validate_gpu_slots_boundary():
    violations = config_violations(EngineConfig(gpu_slots=0), WorkloadConfig())
    assert len(violations) == 1
    assert "gpu_slots" in violations[0]


def test_validate_inverted_input_range():
    violations = config_violations(
        EngineConfig(), WorkloadConfig(input_tokens_min=500, input_tokens_max=30)
    )
    assert any("input_tokens_min" in v for v in violations)


def test_validate_collects_all_violations():
    engine = EngineConfig(gpu_slots=0, decode_base_ms=0.0, max_batch_size=0)
    workload = WorkloadConfig(users=0, output_tokens_min=5, output_tokens_max=2)
    violations = config_violations(engine, workload)
    assert len(violations) >= 5
    with pytest.raises(ConfigError) as excinfo:
        validate_config(engine, workload)
    assert excinfo.value.violations == violations


def test_validate_rejects_non_finite_latency():
    violations = config_violations(
        EngineConfig(t_download_ms=math.inf), WorkloadConfig()
    )
    assert any("t_download_ms" in v for v in violations)


def test_validate_token_minimum():
    violations = config_violations(EngineConfig(), WorkloadConfig(input_tokens_min=0))
    assert any("input_tokens_min" in v for v in violations)


def test_validate_per_user_assignment_needs_adapters():
    violations = config_violations(
        EngineConfig(), WorkloadConfig(adapter_assignment="per_user", n_adapters=0)
    )
    assert any("adapter_assignment" in v for v in violations)


def _next_u64(rng):
    """One full-width draw: a span of 2**64 never rejects, so it is one splitmix64 step."""
    return rng_next_uniform(rng, 0, 2**64 - 1)


def test_rng_known_answers():
    value, _ = _next_u64(Rng(0))
    assert value == _SPLITMIX_SEED_0_FIRST
    rng = Rng(1234567)
    seen = []
    for _ in range(3):
        value, rng = _next_u64(rng)
        seen.append(value)
    assert tuple(seen) == _SPLITMIX_SEED_1234567_FIRST_3


def test_rng_singleton_range():
    value, _ = rng_next_uniform(Rng(42), 5, 5)
    assert value == 5


def test_rng_advancing_is_pure():
    assert rng_next_uniform(Rng(9), 30, 500) == rng_next_uniform(Rng(9), 30, 500)


def test_rng_inverted_bounds_error():
    with pytest.raises(ValueError):
        rng_next_uniform(Rng(1), 10, 9)


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=200)
def test_rng_bounds_property(seed):
    value, _ = rng_next_uniform(Rng(seed), 30, 500)
    assert 30 <= value <= 500


def test_rng_uniformity_chi_square():
    rng = Rng(20240614)
    counts = [0] * 120
    for _ in range(100_000):
        value, rng = rng_next_uniform(rng, 1, 120)
        counts[value - 1] += 1
    expected = 100_000 / 120
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < _CHI2_99_DF119


def test_rng_split_deterministic():
    assert rng_split(Rng(77), 1) == rng_split(Rng(77), 1)


def test_rng_split_distinct_labels():
    rng = Rng(0xDEADBEEF)
    distinct = 0
    for trial in range(1000):
        seed, rng = _next_u64(rng)
        a, _ = _next_u64(rng_split(Rng(seed), 1))
        b, _ = _next_u64(rng_split(Rng(seed), 2))
        if a != b:
            distinct += 1
    assert distinct >= 999


def test_rng_split_leaves_parent_unchanged():
    parent = Rng(5150)
    rng_split(parent, 3)
    assert parent == Rng(5150)
    value, _ = _next_u64(parent)
    reference, _ = _next_u64(Rng(5150))
    assert value == reference


def _reference_mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


@pytest.mark.parametrize(
    ("lo", "hi"),
    [(7, 7), (0, 1), (0, 24), (1, 120), (0, 2**63), (0, 2**64 - 1)],
    ids=["1", "2", "25", "120", "2**63+1", "2**64"],
)
def test_rng_uniform_matches_splitmix_reference(lo, hi):
    """10,000 draws per span equal splitmix64 written out from its four constants."""
    span = hi - lo + 1
    limit = 2**64 - 2**64 % span
    start = rng_split(Rng(2026), span)
    assert type(start) is int
    assert start == _reference_mix(2026 ^ _reference_mix(((span + 1) * 0x9E3779B97F4A7C15) % 2**64))
    rng = state = start
    rejected = 0
    for _ in range(10_000):
        while True:
            state = (state + 0x9E3779B97F4A7C15) % 2**64
            value = _reference_mix(state)
            if value < limit:
                break
            rejected += 1
        drawn, rng = rng_next_uniform(rng, lo, hi)
        assert type(rng) is int
        assert (drawn, rng) == (lo + value % span, state)
    if span == 2**63 + 1:
        # Half of all 64-bit values lie at or above 2**63 + 1, so a draw rejects one on average.
        assert 9_000 < rejected < 11_000
    else:
        assert rejected == 0


def test_adapter_naming():
    assert adapter_name(0) == "adapter-00"
    assert adapter_name(24) == "adapter-24"
    assert BASE_ADAPTER == "base"
    assert sorted(adapter_name(i) for i in range(25)) == [
        adapter_name(i) for i in range(25)
    ]


def test_scenario_round_trip():
    raw = {
        "name": "tiny",
        "engine": {"decode_base_ms": 10.0},
        "workload": {"users": 2, "duration_ms": 1000},
        "replicas": 2,
    }
    scenario = scenario_from_dict(raw)
    assert scenario.name == "tiny"
    assert scenario.engine.decode_base_ms == 10.0
    assert scenario.engine.gpu_slots == 32
    assert scenario.workload.users == 2
    assert scenario.replicas == 2
    assert scenario.prewarm_adapters is False


def test_scenario_rejects_unknown_keys():
    with pytest.raises(ValueError):
        scenario_from_dict({"engine": {"warp_speed": 9}, "workload": {}})
    with pytest.raises(ValueError, match=r"workload: unknown fields \['task_profiles'\]"):
        scenario_from_dict({"workload": {"task_profiles": []}})
