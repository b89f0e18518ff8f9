"""Per-module metrics: which functions the traced run wraps, and what it derives.

Each function is wrapped under the name its caller looks it up by, so a
module that imported a name with ``from ... import`` is patched in that
module, not only where the function is defined.
"""

from __future__ import annotations

import math
import statistics

import adapterd.cache as cache
import adapterd.cli as cli
import adapterd.engine as engine
import adapterd.gateway as gateway
import adapterd.metrics as metrics
import adapterd.profiler as profiler
import adapterd.scheduler as scheduler
import adapterd.workload as workload

from tracer import Tracer


def install(tracer: Tracer) -> None:
    def plan(result, _args) -> None:
        tracer.count("scheduler.admitted", len(result.admitted))
        if not result.admitted:
            tracer.count("scheduler.empty_plans")

    def touch(result, _args) -> None:
        if result.resident:
            tracer.count("cache.hits")

    def lcs_cells(_result, args) -> None:
        tracer.count("profiler.lcs_cells", len(args[0].split()) * len(args[1].split()))

    wrap = tracer.wrap
    wrap(cli, "cmd_simulate", "cli.simulate")
    wrap(cli, "run", "engine.run")
    wrap(cli, "merge", "metrics.merge")
    wrap(engine, "user_tick", "workload.user_tick")
    wrap(engine, "summarize", "metrics.summarize")
    wrap(engine.EngineCore, "process_due", "gateway.process_due")
    wrap(workload, "sample_payload", "workload.sample_payload")
    wrap(workload, "rng_next_uniform", "core.rng_next_uniform")
    wrap(metrics, "summarize", "metrics.summarize")
    wrap(scheduler.Scheduler, "enqueue", "scheduler.enqueue")
    wrap(scheduler.Scheduler, "plan_admission", "scheduler.plan_admission", after=plan)
    wrap(cache.AdapterCache, "touch", "cache.touch", after=touch)
    wrap(cache.AdapterCache, "on_clock", "cache.on_clock")
    wrap(cache.AdapterCache, "next_ready_at", "cache.next_ready_at")
    wrap(gateway, "sample_payload", "workload.sample_payload")
    wrap(gateway, "_stream_request", "gateway.stream_request")
    wrap(gateway, "merge", "metrics.merge")
    wrap(gateway, "summarize", "metrics.summarize")
    wrap(gateway.LiveEngine, "submit", "gateway.submit")
    wrap(gateway.LiveEngine, "report", "gateway.report")
    wrap(profiler, "compute_profile", "profiler.compute_profile")
    wrap(profiler, "rouge_l", "profiler.rouge_l", after=lcs_cells)
    wrap(profiler, "compressibility", "profiler.compressibility")
    wrap(profiler, "fit_lift_model", "profiler.fit_lift_model")
    wrap(profiler, "loo_rmse", "profiler.loo_rmse")


_TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.75)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples): the highest percentile with 10 samples beyond it.

    Below 40 samples there is no tail worth the name, and the median stands in.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.5, 0.0, 0
    if n >= 40:
        for p in _TAIL_LADDER:
            rank = math.ceil(p * n)
            if n - rank >= 10:
                return p, ordered[rank - 1], n
    return 0.5, statistics.median(ordered), n


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# name -> (unit, better). BENCHMARK.json lists the same metrics in this order.
PER_LAYER = {
    "core.rng_next_uniform.calls": ("count", "lower"),
    "core.rng_next_uniform.us": ("us", "lower"),
    "workload.sample_payload.calls": ("count", "lower"),
    "workload.sample_payload.us": ("us", "lower"),
    "workload.user_tick.calls": ("count", "lower"),
    "workload.user_tick.us": ("us", "lower"),
    "scheduler.enqueue.us": ("us", "lower"),
    "scheduler.plan_admission.calls": ("count", "lower"),
    "scheduler.plan_admission.us": ("us", "lower"),
    "scheduler.admitted_per_plan": ("count", "higher"),
    "scheduler.empty_plan_ratio": ("ratio", "lower"),
    "cache.touch.calls": ("count", "lower"),
    "cache.touch.us": ("us", "lower"),
    "cache.touch.hit_ratio": ("ratio", "higher"),
    "cache.on_clock.calls": ("count", "lower"),
    "cache.on_clock.us": ("us", "lower"),
    "cache.next_ready_at.us": ("us", "lower"),
    "engine.self_s": ("s", "lower"),
    "engine.self_us_per_token": ("us", "lower"),
    "engine.requests": ("count", "higher"),
    "engine.tokens": ("count", "higher"),
    "engine.discarded": ("count", "lower"),
    "metrics.summarize.calls": ("count", "lower"),
    "metrics.summarize.ms": ("ms", "lower"),
    "metrics.merge.ms": ("ms", "lower"),
    "cli.simulate.self_ms": ("ms", "lower"),
    "gateway.ttft_over_model_ms": ("ms", "lower"),
    "gateway.gap_over_model_ms": ("ms", "lower"),
    "gateway.ttft_tail_ms": ("ms", "lower"),
    "gateway.gap_tail_ms": ("ms", "lower"),
    "gateway.submit.us": ("us", "lower"),
    "gateway.process_due.calls": ("count", "lower"),
    "gateway.process_due.us": ("us", "lower"),
    "gateway.metrics_scrape_ms": ("ms", "lower"),
    "gateway.metrics_scrape_tail_ms": ("ms", "lower"),
    "gateway.requests": ("count", "higher"),
    "gateway.tokens": ("count", "higher"),
    "profiler.rouge_l.calls": ("count", "lower"),
    "profiler.rouge_l.us": ("us", "lower"),
    "profiler.lcs_cells_per_s": ("1/s", "higher"),
    "profiler.compressibility.calls": ("count", "lower"),
    "profiler.compressibility.us": ("us", "lower"),
    "profiler.compute_profile.ms": ("ms", "lower"),
    "profiler.fit_lift_model.ms": ("ms", "lower"),
    "profiler.loo_rmse.ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def derive(totals: dict, counters: dict, rounds: int, counts: dict, samples: dict,
           overhead_pct: float) -> tuple[dict[str, float], dict[str, tuple]]:
    """Per-layer values from the traced rounds, plus each tail's (percentile, samples).

    ``.calls`` and the engine and gateway counts are per round; ``.us`` and
    ``.ms`` are mean time per call. A module a workload never calls reads 0.
    """
    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    def per_round(name: str) -> float:
        return calls(name) / rounds

    def per_call(name: str, scale: float, key: str = "total_s") -> float:
        n = calls(name)
        return totals[name][key] / n * scale if n else 0.0

    def share(count: str, name: str) -> float:
        n = calls(name)
        return counters.get(count, 0) / n if n else 0.0

    tokens = counts.get("engine.tokens", 0)
    run_self = totals.get("engine.run", {}).get("self_s", 0.0)
    rouge_s = totals.get("profiler.rouge_l", {}).get("total_s", 0.0)
    tails = {key: tail(samples.get(key, [])) for key in ("client_ttft_ms", "client_gap_ms", "scrape_ms")}
    median = {key: _median(samples.get(key, [])) for key in samples}
    v = {
        "core.rng_next_uniform.calls": per_round("core.rng_next_uniform"),
        "core.rng_next_uniform.us": per_call("core.rng_next_uniform", 1e6),
        "workload.sample_payload.calls": per_round("workload.sample_payload"),
        "workload.sample_payload.us": per_call("workload.sample_payload", 1e6),
        "workload.user_tick.calls": per_round("workload.user_tick"),
        "workload.user_tick.us": per_call("workload.user_tick", 1e6),
        "scheduler.enqueue.us": per_call("scheduler.enqueue", 1e6),
        "scheduler.plan_admission.calls": per_round("scheduler.plan_admission"),
        "scheduler.plan_admission.us": per_call("scheduler.plan_admission", 1e6),
        "scheduler.admitted_per_plan": share("scheduler.admitted", "scheduler.plan_admission"),
        "scheduler.empty_plan_ratio": share("scheduler.empty_plans", "scheduler.plan_admission"),
        "cache.touch.calls": per_round("cache.touch"),
        "cache.touch.us": per_call("cache.touch", 1e6),
        "cache.touch.hit_ratio": share("cache.hits", "cache.touch"),
        "cache.on_clock.calls": per_round("cache.on_clock"),
        "cache.on_clock.us": per_call("cache.on_clock", 1e6),
        "cache.next_ready_at.us": per_call("cache.next_ready_at", 1e6),
        "engine.self_s": per_call("engine.run", 1.0, "self_s"),
        "engine.self_us_per_token": run_self * 1e6 / tokens if tokens else 0.0,
        "engine.requests": counts.get("engine.completed", 0) / rounds,
        "engine.tokens": tokens / rounds,
        "engine.discarded": counts.get("engine.discarded", 0) / rounds,
        "metrics.summarize.calls": per_round("metrics.summarize"),
        "metrics.summarize.ms": per_call("metrics.summarize", 1e3),
        "metrics.merge.ms": per_call("metrics.merge", 1e3),
        "cli.simulate.self_ms": per_call("cli.simulate", 1e3, "self_s"),
        "gateway.ttft_over_model_ms": median.get("client_ttft_ms", 0.0) - median.get("engine_ttft_ms", 0.0),
        "gateway.gap_over_model_ms": median.get("client_gap_ms", 0.0) - median.get("engine_gap_ms", 0.0),
        "gateway.ttft_tail_ms": tails["client_ttft_ms"][1],
        "gateway.gap_tail_ms": tails["client_gap_ms"][1],
        "gateway.submit.us": per_call("gateway.submit", 1e6),
        "gateway.process_due.calls": per_round("gateway.process_due"),
        "gateway.process_due.us": per_call("gateway.process_due", 1e6),
        "gateway.metrics_scrape_ms": median.get("scrape_ms", 0.0),
        "gateway.metrics_scrape_tail_ms": tails["scrape_ms"][1],
        "gateway.requests": counts.get("gateway.requests", 0) / rounds,
        "gateway.tokens": counts.get("gateway.tokens", 0) / rounds,
        "profiler.rouge_l.calls": per_round("profiler.rouge_l"),
        "profiler.rouge_l.us": per_call("profiler.rouge_l", 1e6),
        "profiler.lcs_cells_per_s": counters.get("profiler.lcs_cells", 0) / rouge_s if rouge_s else 0.0,
        "profiler.compressibility.calls": per_round("profiler.compressibility"),
        "profiler.compressibility.us": per_call("profiler.compressibility", 1e6),
        "profiler.compute_profile.ms": per_call("profiler.compute_profile", 1e3),
        "profiler.fit_lift_model.ms": per_call("profiler.fit_lift_model", 1e3),
        "profiler.loo_rmse.ms": per_call("profiler.loo_rmse", 1e3),
        "trace.overhead_pct": overhead_pct,
    }
    tail_info = {
        "gateway.ttft_tail_ms": tails["client_ttft_ms"],
        "gateway.gap_tail_ms": tails["client_gap_ms"],
        "gateway.metrics_scrape_tail_ms": tails["scrape_ms"],
    }
    return v, tail_info
