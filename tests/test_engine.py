"""Discrete-event serving engine: timing formulas and end-to-end traces.

The latency oracles below are hand-derived from the cost model with default
constants (prefill 80 + 0.15/token ms, decode gap 12 + 0.6/streaming-sequence
ms, adapter switch 0.1 ms, remote adapter fetch 2000 + 200 + 5 ms):

* one request, 100 in / 5 out: prefill 95.0, first gap 12.6 -> ttft 107.6,
  four more gaps of 12.6 -> streaming 50.4, total 158.0;
* two simultaneous such requests: both prefill until 95.0 and see an empty
  streaming set, so both first tokens land at 107.6; afterwards each prices
  its gaps against the streaming set at schedule time, giving last tokens at
  159.8 and 160.4;
* a cold adapter must travel remote->disk->cpu->gpu (2205 ms) before its
  request can be admitted, shifting the whole timeline by 2205 ms.
"""

from __future__ import annotations

import gc
import json
import sys
import weakref
from dataclasses import fields, replace
from importlib import resources

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import adapterd.engine as engine
from adapterd.core import EngineConfig, Request, WorkloadConfig, scenario_from_dict
from adapterd.engine import (
    EngineCore,
    decode_gap,
    prefill_time,
    run,
    single_request_timeline,
)
from adapterd.scheduler import DuplicateRequestError
from adapterd.workload import user_tick

TOL = 1e-9


def _workload(**overrides) -> WorkloadConfig:
    base = dict(
        n_adapters=0,
        users=1,
        duration_ms=1.0,
        input_tokens_min=100,
        input_tokens_max=100,
        output_tokens_min=5,
        output_tokens_max=5,
        seed=5,
    )
    base.update(overrides)
    return WorkloadConfig(**base)


def test_prefill_time_reference():
    config = EngineConfig()
    assert prefill_time(config, 100) == pytest.approx(95.0, abs=TOL)
    assert prefill_time(config, 1) == pytest.approx(80.15, abs=TOL)
    with pytest.raises(ValueError):
        prefill_time(config, 0)


def test_decode_gap_reference():
    config = EngineConfig()
    assert decode_gap(config, 0) == pytest.approx(12.0, abs=TOL)
    assert decode_gap(config, 1) == pytest.approx(12.6, abs=TOL)
    assert decode_gap(config, 4) == pytest.approx(14.4, abs=TOL)


def test_single_request_timeline_reference():
    config = EngineConfig()
    ttft, streaming, total = single_request_timeline(config, 100, 5)
    assert ttft == pytest.approx(107.6, abs=TOL)
    assert streaming == pytest.approx(50.4, abs=TOL)
    assert total == pytest.approx(158.0, abs=TOL)


def test_single_request_timeline_one_token():
    config = EngineConfig()
    ttft, streaming, total = single_request_timeline(config, 1, 1)
    assert ttft == pytest.approx(92.75, abs=TOL)
    assert streaming == 0.0
    assert total == ttft
    with pytest.raises(ValueError):
        single_request_timeline(config, 1, 0)


def test_run_single_request_matches_timeline():
    report = run(EngineConfig(), _workload())
    assert len(report.records) == 1
    record = report.records[0]
    ttft, streaming, total = single_request_timeline(EngineConfig(), 100, 5)
    assert record.submit_ms == 0.0
    assert abs((record.first_token_ms - record.submit_ms) - ttft) < TOL
    assert abs((record.last_token_ms - record.first_token_ms) - streaming) < TOL
    assert abs((record.last_token_ms - record.submit_ms) - total) < TOL


def test_run_single_one_token_request():
    workload = _workload(input_tokens_min=1, input_tokens_max=1,
                         output_tokens_min=1, output_tokens_max=1)
    report = run(EngineConfig(), workload)
    record = report.records[0]
    assert abs(record.first_token_ms - 92.75) < TOL
    assert record.last_token_ms == record.first_token_ms


def test_run_sequential_requests_back_to_back():
    """Closed loop: the second request is submitted the instant the first ends."""
    report = run(EngineConfig(), _workload(duration_ms=200.0))
    assert [r.request_id for r in report.records] == ["r000001", "r000002"]
    first, second = report.records
    assert abs(first.last_token_ms - 158.0) < TOL
    assert second.submit_ms == first.last_token_ms
    assert abs(second.first_token_ms - 265.6) < TOL
    assert abs(second.last_token_ms - 316.0) < TOL


def test_run_two_concurrent_users_batch_pricing():
    report = run(EngineConfig(), _workload(users=2))
    records = sorted(report.records, key=lambda r: r.last_token_ms)
    assert len(records) == 2
    assert abs(records[0].first_token_ms - 107.6) < TOL
    assert abs(records[1].first_token_ms - 107.6) < TOL
    assert abs(records[0].last_token_ms - 159.8) < TOL
    assert abs(records[1].last_token_ms - 160.4) < TOL


def test_run_cold_adapter_waits_for_full_fetch():
    workload = _workload(n_adapters=1, duration_ms=2500.0)
    report = run(EngineConfig(), workload)
    assert report.summary["completed"] == 2
    cold, warm = report.records
    assert cold.adapter == "adapter-00"
    assert abs(cold.first_token_ms - 2312.6) < TOL
    assert abs(cold.last_token_ms - 2363.0) < TOL
    # The follow-up request reuses the now-resident adapter: no fetch delay.
    assert warm.submit_ms == cold.last_token_ms
    assert abs(warm.first_token_ms - 2470.6) < TOL
    assert report.cache["gpu"] == 1


def test_run_cold_adapter_discarded_when_deadline_precedes_fetch():
    report = run(EngineConfig(), _workload(n_adapters=1, duration_ms=1.0))
    assert report.summary == {"request_count": 0, "submitted": 1,
                              "completed": 0, "discarded": 1}


def test_run_prewarmed_adapter_has_no_fetch_delay():
    workload = _workload(n_adapters=1)
    report = run(EngineConfig(), workload, prewarm_adapters=True)
    record = report.records[0]
    assert abs(record.first_token_ms - 107.6) < TOL


def test_switch_overhead_charged_only_on_adapter_transition():
    config = EngineConfig()
    core = EngineCore(config, ["adapter-00", "adapter-01"], prewarm=True)
    core.schedule_submit(Request("a", "adapter-00", 100, 10, 0.0))
    core.schedule_submit(Request("b", "adapter-01", 100, 5, 50.0))
    core.schedule_submit(Request("c", "adapter-00", 100, 5, 60.0))
    core.schedule_submit(Request("d", "base", 100, 5, 70.0))
    core.run_until_idle()
    first = {r.request_id: r.first_token_ms for r in core.records}
    # b lands while adapter-00 streams: gap 12 + 0.6*2 plus the 0.1 switch.
    assert abs(first["b"] - 158.3) < TOL
    # c joins an adapter that is already streaming: no switch charge.
    assert abs(first["c"] - 168.2) < TOL
    # d is a base-model request: never charged, only batch-priced.
    assert abs(first["d"] - 178.8) < TOL


def test_an_id_already_in_flight_is_rejected():
    core = EngineCore(EngineConfig(), [])
    core.schedule_submit(Request("a", "base", 100, 5, 0.0))
    # "a" was admitted at 0 and decodes until 158.0, so its id is taken at 50.0.
    core.schedule_submit(Request("a", "base", 100, 5, 50.0))
    with pytest.raises(DuplicateRequestError):
        core.run_until_idle()


def test_a_finish_frees_its_batch_slot():
    core = EngineCore(EngineConfig(max_batch_size=1), [])
    core.schedule_submit(Request("a", "base", 100, 5, 0.0))
    core.schedule_submit(Request("b", "base", 100, 5, 0.0))
    core.run_until_idle()
    a, b = core.records
    # b waits for the one slot, is admitted the instant a finishes, then prefills.
    assert b.first_token_ms > a.last_token_ms
    assert abs(b.first_token_ms - (158.0 + 107.6)) < TOL


def test_run_zero_duration_produces_empty_report():
    report = run(EngineConfig(), _workload(duration_ms=0.0))
    assert report.summary == {"request_count": 0, "submitted": 0,
                              "completed": 0, "discarded": 0}
    assert report.records == ()


def test_run_seed_determinism():
    workload = _workload(
        users=5, duration_ms=3000.0, n_adapters=3, seed=42,
        input_tokens_min=30, input_tokens_max=500,
        output_tokens_min=1, output_tokens_max=120,
    )
    first = run(EngineConfig(), workload).to_json_str(include_records=True)
    second = run(EngineConfig(), workload).to_json_str(include_records=True)
    assert first == second
    other = run(EngineConfig(), _workload(
        users=5, duration_ms=3000.0, n_adapters=3, seed=43,
        input_tokens_min=30, input_tokens_max=500,
        output_tokens_min=1, output_tokens_max=120,
    )).to_json_str(include_records=True)
    assert other != first


def test_run_conservation_and_accounting():
    workload = _workload(
        users=8, duration_ms=2000.0, n_adapters=4, seed=9,
        input_tokens_min=30, input_tokens_max=500,
        output_tokens_min=1, output_tokens_max=120,
    )
    report = run(EngineConfig(), workload)
    summary = report.summary
    assert summary["submitted"] == summary["completed"] + summary["discarded"]
    assert summary["completed"] == len(report.records)
    assert sum(report.per_adapter.values()) == len(report.records)
    ids = [r.request_id for r in report.records]
    assert len(ids) == len(set(ids))
    for record in report.records:
        assert record.output_tokens_emitted >= 1
        assert record.submit_ms <= record.first_token_ms <= record.last_token_ms


@pytest.mark.parametrize("assignment", ["uniform", "per_user"])
def test_the_records_of_a_run_hold_one_string_per_adapter(assignment):
    workload = _workload(users=8, duration_ms=3000.0, n_adapters=5, adapter_assignment=assignment)
    records = run(EngineConfig(), workload, prewarm_adapters=True).records
    assert len({record.adapter for record in records}) == 5
    assert len({id(record.adapter) for record in records}) == 5


def test_run_batch_cap_defers_and_deadline_discards():
    config = EngineConfig(max_batch_size=2)
    report = run(config, _workload(users=5))
    assert report.summary["submitted"] == 5
    assert report.summary["completed"] == 2
    assert report.summary["discarded"] == 3
    for record in report.records:
        assert abs(record.first_token_ms - 107.6) < TOL


def test_run_queue_wait_shows_in_ttft():
    config = EngineConfig(max_batch_size=1)
    report = run(config, _workload(users=2, duration_ms=200.0))
    ttfts = sorted(r.first_token_ms - r.submit_ms for r in report.records)
    assert abs(ttfts[0] - 107.6) < TOL
    assert abs(ttfts[1] - 265.6) < TOL
    assert report.summary["discarded"] == 1


def test_run_user_offset_and_id_prefix():
    workload = _workload(users=2, duration_ms=50.0,
                         input_tokens_min=30, input_tokens_max=500)
    base_ids = [r.request_id for r in run(EngineConfig(), workload).records]
    shifted = run(EngineConfig(), workload, user_index_offset=2,
                  request_id_prefix="x")
    assert all(r.request_id.startswith("x") for r in shifted.records)
    assert base_ids and all(i.startswith("r") for i in base_ids)
    base_shapes = {(r.input_tokens, r.output_tokens_emitted)
                   for r in run(EngineConfig(), workload).records}
    shifted_shapes = {(r.input_tokens, r.output_tokens_emitted)
                      for r in shifted.records}
    assert base_shapes != shifted_shapes


def test_report_config_echo_round_trips():
    workload = _workload()
    report = run(EngineConfig(), workload)
    assert report.config["engine"] == EngineConfig().to_dict()
    assert report.config["workload"] == workload.to_dict()


def test_run_frees_its_engine_without_the_cycle_collector(monkeypatch):
    # A reference cycle through the finish callback would keep every finished
    # run's engine, records and cache alive until a full collection.
    cores = []

    class RecordedCore(EngineCore):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            cores.append(weakref.ref(self))

    monkeypatch.setattr(engine, "EngineCore", RecordedCore)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        report = run(EngineConfig(), _workload(n_adapters=3, users=2, duration_ms=3000.0))
    finally:
        if was_enabled:
            gc.enable()
    assert report.summary["completed"] > 0
    assert len(cores) == 1
    assert cores[0]() is None


@st.composite
def _small_runs(draw):
    """A small engine and workload: cold or prewarmed, hops of 0, 22.05 or 2,205 ms."""
    hop_scale = draw(st.sampled_from([0.0, 0.01, 1.0]))
    engine_config = EngineConfig(
        gpu_slots=draw(st.integers(1, 4)),
        cpu_slots=draw(st.integers(0, 3)),
        t_download_ms=2000.0 * hop_scale,
        t_disk_to_cpu_ms=200.0 * hop_scale,
        t_cpu_to_gpu_ms=5.0 * hop_scale,
        max_batch_size=draw(st.integers(1, 8)),
        admission_per_step=draw(st.integers(1, 4)),
    )
    n_adapters = draw(st.integers(0, 12))
    per_user = n_adapters > 0 and draw(st.booleans())
    workload_config = WorkloadConfig(
        n_adapters=n_adapters,
        users=draw(st.integers(1, 10)),
        duration_ms=draw(st.one_of(st.sampled_from([0.0, 2205.0]), st.floats(0.0, 3000.0))),
        output_tokens_max=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 2**64 - 1)),
        adapter_assignment="per_user" if per_user else "uniform",
    )
    return engine_config, workload_config, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_small_runs())
@example((  # a subnormal deadline: > 0 ms, but 0 s in the aggregate throughput
    EngineConfig(gpu_slots=1, cpu_slots=0, t_download_ms=0.0, t_disk_to_cpu_ms=0.0,
                 t_cpu_to_gpu_ms=0.0, max_batch_size=1, admission_per_step=1),
    WorkloadConfig(n_adapters=0, users=1, duration_ms=5e-324, output_tokens_max=1, seed=0),
    False,
))
def test_every_fetch_that_starts_also_lands(case):
    # Plans keep landing fetches after the deadline, so none is left in transit
    # however the deadline falls against the fetches and the streams.
    engine_config, workload_config, prewarm = case
    report = run(engine_config, workload_config, prewarm_adapters=prewarm)
    assert report.cache["in_transit"] == 0
    summary = report.summary
    assert summary["submitted"] == summary["completed"] + summary["discarded"]


@pytest.mark.parametrize(
    ("engine_config", "workload_config"),
    [
        (
            EngineConfig(gpu_slots=3, cpu_slots=2, max_batch_size=4),
            WorkloadConfig(n_adapters=8, users=6, duration_ms=3000.0,
                           output_tokens_max=40, seed=7),
        ),
        (
            EngineConfig(gpu_slots=2, cpu_slots=0, t_download_ms=20.0, max_batch_size=3),
            WorkloadConfig(n_adapters=5, users=5, duration_ms=1500.0, output_tokens_max=30,
                           seed=8, adapter_assignment="per_user"),
        ),
    ],
    ids=["uniform", "per-user"],
)
def test_closed_loop_users_tile_time(engine_config, workload_config, monkeypatch):
    """Each user submits at 0, then at the very float its previous request ended."""
    submits = []

    def recording_tick(user, now, deadline, workload):
        payload = user_tick(user, now, deadline, workload)
        if payload is not None:
            submits.append((user.user_id, now))
        return payload

    monkeypatch.setattr(engine, "user_tick", recording_tick)
    report = run(engine_config, workload_config)
    records = {record.request_id: record for record in report.records}
    by_user: dict[int, list[tuple[str, float]]] = {}
    for k, (user_id, now) in enumerate(submits, start=1):
        by_user.setdefault(user_id, []).append((f"r{k:06d}", now))
    assert sorted(by_user) == list(range(workload_config.users))
    for requests in by_user.values():
        assert requests[0][1] == 0.0
        for (previous, _), (request_id, submit_ms) in zip(requests, requests[1:]):
            assert submit_ms == records[previous].last_token_ms
        for request_id, submit_ms in requests:
            if request_id in records:
                assert records[request_id].submit_ms == submit_ms
    # Only a user's last request may be missing: it was queued at the deadline.
    missing = [rid for requests in by_user.values() for rid, _ in requests if rid not in records]
    assert len(missing) == report.summary["discarded"] > 0


# -- metamorphic relations ---------------------------------------------------
#
# Each relation runs the engine twice, under a change of input whose effect the
# latency model fixes exactly, so it needs no second implementation and holds
# whatever admission or residency order the engine uses.  Scaling by 2 is exact
# in binary floating point away from the subnormal range; by 3 it is not.

_COLD_200 = (EngineConfig(), WorkloadConfig(n_adapters=200, users=100, duration_ms=20000.0,
                                            seed=1), False)


def _named_run(name: str) -> tuple[EngineConfig, WorkloadConfig, bool]:
    """A bundled scenario's single-replica run, or the cold 200-adapter run."""
    if name == "cold-200":
        return _COLD_200
    text = resources.files("adapterd").joinpath("scenarios", f"{name}.json").read_text()
    scenario = scenario_from_dict(json.loads(text))
    return scenario.engine, scenario.workload, scenario.prewarm_adapters


def _check_time_scaling(engine_config, workload_config, prewarm):
    """Every ``*_ms`` field and the duration x 2: every record time x 2, nothing else moves."""
    doubled_ms = {
        f.name: 2 * getattr(engine_config, f.name)
        for f in fields(EngineConfig) if f.name.endswith("_ms")
    }
    base = run(engine_config, workload_config, prewarm_adapters=prewarm)
    scaled = run(
        replace(engine_config, **doubled_ms),
        replace(workload_config, duration_ms=2 * workload_config.duration_ms),
        prewarm_adapters=prewarm,
    )
    assert scaled.records == tuple(
        r._replace(submit_ms=2 * r.submit_ms, first_token_ms=2 * r.first_token_ms,
                   last_token_ms=2 * r.last_token_ms)
        for r in base.records
    )
    # Latencies double, throughputs halve, counts stay.
    expected = {}
    for key, value in base.summary.items():
        factor = 2 if key.endswith("_ms") else 0.5 if key.endswith("tok_s") else 1
        expected[key] = (
            {stat: factor * v for stat, v in value.items()} if isinstance(value, dict)
            else factor * value
        )
    assert scaled.summary == expected


def _check_causality(engine_config, workload_config, prewarm):
    """Deadlines D1 < D2: the records finished before D1 are the same."""
    cut = workload_config.duration_ms / 2
    late = run(engine_config, workload_config, prewarm_adapters=prewarm)
    early = run(engine_config, replace(workload_config, duration_ms=cut), prewarm_adapters=prewarm)
    finished = {r for r in early.records if r.last_token_ms < cut}
    assert finished == {r for r in late.records if r.last_token_ms < cut}
    return finished


# No drawn hop latency is any of these.
_OTHER_HOPS = {"t_download_ms": 777.0, "t_disk_to_cpu_ms": 55.5, "t_cpu_to_gpu_ms": 3.25}


def _check_hop_irrelevance(engine_config, workload_config):
    """Prewarmed, with every adapter on the GPU: hop latencies move nothing."""
    assert workload_config.n_adapters <= engine_config.gpu_slots
    base = run(engine_config, workload_config, prewarm_adapters=True)
    other = run(replace(engine_config, **_OTHER_HOPS), workload_config, prewarm_adapters=True)
    assert other.records == base.records
    assert other.summary == base.summary
    assert other.cache == base.cache


@settings(max_examples=400, deadline=None)
@given(_small_runs())
def test_time_scaling_by_two_doubles_every_time(case):
    engine_config, workload_config, prewarm = case
    # A duration whose seconds are subnormal makes the aggregate throughput inexact.
    duration = workload_config.duration_ms
    assume(duration == 0.0 or duration / 1000.0 >= sys.float_info.min)
    _check_time_scaling(engine_config, workload_config, prewarm)


@settings(max_examples=400, deadline=None)
@given(_small_runs())
def test_records_before_a_deadline_ignore_what_comes_after(case):
    _check_causality(*case)


@settings(max_examples=400, deadline=None)
@given(_small_runs())
def test_hop_latencies_move_nothing_when_every_adapter_is_resident(case):
    engine_config, workload_config, _prewarm = case
    fitted = min(workload_config.n_adapters, engine_config.gpu_slots)
    _check_hop_irrelevance(engine_config, replace(workload_config, n_adapters=fitted))


# table8 is left out: one run of it costs ~0.9 s.
@pytest.mark.parametrize("name", ["cold-200", "fairness", "table10", "table11", "table9"])
def test_bundled_runs_scale_with_time_and_keep_causality(name):
    engine_config, workload_config, prewarm = _named_run(name)
    _check_time_scaling(engine_config, workload_config, prewarm)
    assert _check_causality(engine_config, workload_config, prewarm)


@pytest.mark.parametrize("name", ["fairness", "table10"])
def test_bundled_prewarmed_runs_ignore_hop_latencies(name):
    engine_config, workload_config, _prewarm = _named_run(name)
    _check_hop_irrelevance(engine_config, workload_config)
