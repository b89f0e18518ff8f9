"""Synthetic closed-loop workload generation.

Each simulated user is a closed loop with zero think time: submit a request,
wait for its last token, submit the next one at that same instant, and stop
submitting once the run deadline has passed.  A :class:`User` carries an
independent deterministic random stream derived from the run seed and its
global user index, so replica layouts and user counts never perturb each
other's draws; :func:`user_tick` is the loop's only decision, taken whenever
the user is idle.

Payload sampling draws, in a fixed order: the input length, the output
length, and finally the adapter.  Pinned-adapter sampling skips only the
adapter draw, leaving the token-length stream untouched.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    BASE_ADAPTER,
    Rng,
    WorkloadConfig,
    adapter_name,
    rng_next_uniform,
    rng_split,
)

__all__ = [
    "Payload",
    "User",
    "sample_payload",
    "user_tick",
]


class Payload(NamedTuple):
    """One sampled request shape."""

    adapter: str
    input_tokens: int
    output_tokens: int


class User:
    """One closed-loop user: its private random stream and its pinned adapter.

    Under per-user assignment user i always targets adapter i mod n_adapters;
    otherwise ``pinned_adapter`` is None and every request draws its adapter.
    """

    __slots__ = ("user_id", "rng", "pinned_adapter")

    def __init__(self, user_id: int, workload: WorkloadConfig) -> None:
        self.user_id = user_id
        self.rng = rng_split(Rng(workload.seed), user_id)
        self.pinned_adapter = (
            adapter_name(user_id % workload.n_adapters)
            if workload.adapter_assignment == "per_user" and workload.n_adapters > 0
            else None
        )


def sample_payload(
    rng: Rng, workload: WorkloadConfig, fixed_adapter: str | None = None
) -> tuple[Payload, Rng]:
    """Draw one request shape, returning the payload and the advanced stream."""
    input_tokens, rng = rng_next_uniform(
        rng, workload.input_tokens_min, workload.input_tokens_max
    )
    output_tokens, rng = rng_next_uniform(
        rng, workload.output_tokens_min, workload.output_tokens_max
    )
    if fixed_adapter is not None:
        adapter = fixed_adapter
    elif workload.n_adapters == 0:
        adapter = BASE_ADAPTER
    else:
        adapter_index, rng = rng_next_uniform(rng, 0, workload.n_adapters - 1)
        adapter = adapter_name(adapter_index)
    return Payload(adapter, input_tokens, output_tokens), rng


def user_tick(
    user: User, now: float, deadline: float, workload: WorkloadConfig
) -> Payload | None:
    """The idle user's next request at `now`, or None once the deadline has passed."""
    if now >= deadline:
        return None
    payload, user.rng = sample_payload(user.rng, workload, fixed_adapter=user.pinned_adapter)
    return payload
