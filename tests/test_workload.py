"""Synthetic workload sampling and the closed-loop user's next-request decision."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from adapterd.core import (
    BASE_ADAPTER,
    Rng,
    WorkloadConfig,
    adapter_name,
    rng_split,
)
from adapterd.workload import Payload, User, sample_payload, user_tick


def _workload(**overrides) -> WorkloadConfig:
    base = dict(
        n_adapters=25,
        users=1,
        duration_ms=120_000.0,
        input_tokens_min=30,
        input_tokens_max=500,
        output_tokens_min=1,
        output_tokens_max=120,
        seed=0,
    )
    base.update(overrides)
    return WorkloadConfig(**base)


@given(st.integers(0, 2**64 - 1))
def test_sampled_payload_within_bounds(seed):
    workload = _workload()
    rng = Rng(seed)
    for _ in range(20):
        payload, rng = sample_payload(rng, workload)
        assert 30 <= payload.input_tokens <= 500
        assert 1 <= payload.output_tokens <= 120
        assert payload.adapter in {adapter_name(i) for i in range(25)}


@given(st.integers(0, 2**64 - 1))
def test_zero_adapters_always_base(seed):
    workload = _workload(n_adapters=0)
    rng = Rng(seed)
    for _ in range(10):
        payload, rng = sample_payload(rng, workload)
        assert payload.adapter == BASE_ADAPTER


def test_sampling_is_pure():
    workload = _workload()
    rng = Rng(99)
    first, _ = sample_payload(rng, workload)
    second, _ = sample_payload(rng, workload)
    assert first == second


def test_fixed_adapter_overrides_draw():
    workload = _workload()
    rng = Rng(7)
    payload, _ = sample_payload(rng, workload, fixed_adapter="adapter-03")
    assert payload.adapter == "adapter-03"


def test_fixed_adapter_preserves_token_stream():
    """Pinning the adapter must not consume or reorder the token draws."""
    workload = _workload()
    rng = Rng(1234)
    free, _ = sample_payload(rng, workload)
    pinned, _ = sample_payload(rng, workload, fixed_adapter="adapter-09")
    assert pinned.input_tokens == free.input_tokens
    assert pinned.output_tokens == free.output_tokens


def test_idle_user_submits_before_deadline():
    """The user draws from its own stream, split from the run seed by user index."""
    workload = _workload(seed=42)
    user = User(5, workload)
    payload = user_tick(user, now=0.0, deadline=120_000.0, workload=workload)
    assert isinstance(payload, Payload)
    assert (payload, user.rng) == sample_payload(rng_split(Rng(42), 5), workload)


def test_idle_user_stops_at_deadline():
    workload = _workload()
    user = User(0, workload)
    start = user.rng
    assert user_tick(user, now=120_000.0, deadline=120_000.0, workload=workload) is None
    assert user.rng == start


def test_zero_think_time_resubmit_at_same_instant():
    """A user completing before the deadline submits again with no idle gap."""
    workload = _workload()
    user = User(3, workload)
    first = user_tick(user, now=0.0, deadline=120_000.0, workload=workload)
    second = user_tick(user, now=431.5, deadline=120_000.0, workload=workload)
    assert isinstance(first, Payload) and isinstance(second, Payload)


def test_per_user_assignment_pins_adapter():
    workload = _workload(n_adapters=25, adapter_assignment="per_user", users=25)
    for user_id in (0, 7, 24, 25, 31):
        user = User(user_id, workload)
        assert user.pinned_adapter == adapter_name(user_id % 25)
        payload = user_tick(user, now=0.0, deadline=1000.0, workload=workload)
        assert payload.adapter == adapter_name(user_id % 25)


def test_distinct_users_draw_distinct_streams():
    workload = _workload()
    payloads = []
    for user_id in range(8):
        payload = user_tick(User(user_id, workload), now=0.0, deadline=1000.0, workload=workload)
        payloads.append((payload.input_tokens, payload.output_tokens))
    assert len(set(payloads)) > 1
