"""Command-line interface: simulate, serve, bench, profile, and lift.

Exit codes: 0 on success, 1 when a run produced no usable result (for
example a benchmark where every request failed), and 2 for usage, parse,
or configuration errors.

`serve` and `bench` import the gateway when they run, so the other
commands start without loading the HTTP stack.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict, replace
from importlib import resources
from pathlib import Path

from .core import (
    ConfigError,
    EngineConfig,
    Scenario,
    WorkloadConfig,
    adapter_name,
    config_violations,
    scenario_from_dict,
)
from .engine import run
from .metrics import SUMMARY_COUNTERS, RunReport, merge, write_records_csv
from .profiler import (
    PROFILE_FEATURES,
    QUALITY_METRICS,
    compute_profile,
    fit_lift_model,
    join_tasks,
    load_examples_jsonl,
    load_quality_records,
    load_task_profiles,
    loo_rmse,
    pearson,
    profile_features,
)

__all__ = ["main"]

_SUMMARY_ROWS = ("total_request_ms", "ttft_ms", "streaming_ms", "throughput_tok_s")


def format_summary_table(report: RunReport, title: str) -> str:
    """Render a report as a fixed-width metric x {average, p90} text table."""
    summary = report.summary
    lines = [f"== {title} =="]
    counters = [f"request_count={summary['request_count']}"]
    for key in SUMMARY_COUNTERS:
        if key in summary:
            counters.append(f"{key}={summary[key]}")
    lines.append("  ".join(counters))
    lines.append(f"{'metric':<28}{'average':>14}{'p90':>14}")
    for key in _SUMMARY_ROWS:
        block = summary.get(key)
        if block is not None:
            lines.append(f"{key:<28}{block['average']:>14.3f}{block['p90']:>14.3f}")
    aggregate = summary.get("aggregate_throughput_tok_s")
    if aggregate is not None:
        lines.append(f"{'aggregate_throughput_tok_s':<28}{aggregate:>14.3f}{'-':>14}")
    if report.per_replica:
        pairs = "  ".join(f"{k}={v}" for k, v in sorted(report.per_replica.items()))
        lines.append(f"per-replica: {pairs}")
    if report.cache:
        pairs = "  ".join(f"{k}={v}" for k, v in sorted(report.cache.items()))
        lines.append(f"cache: {pairs}")
    return "\n".join(lines) + "\n"


def _bundled_scenario_names() -> list[str]:
    directory = resources.files("adapterd").joinpath("scenarios")
    return sorted(p.name[: -len(".json")] for p in directory.iterdir() if p.name.endswith(".json"))


def _resolve_scenario(token: str) -> Scenario:
    source = Path(token)
    if not source.exists():
        source = resources.files("adapterd").joinpath("scenarios", f"{token}.json")
        if not source.is_file():
            names = ", ".join(_bundled_scenario_names())
            raise ValueError(
                f"no scenario file or bundled scenario named {token!r} (bundled: {names})"
            )
    return scenario_from_dict(json.loads(source.read_text(encoding="utf-8")))


def _write_output(report: RunReport, output: Path, format_: str, include_records: bool) -> None:
    if format_ == "csv":
        with open(output, "w", encoding="utf-8", newline="") as handle:
            write_records_csv(report.records, handle)
    else:
        output.write_text(report.to_json_str(include_records), encoding="utf-8")


def _split_users(total: int, replicas: int) -> list[int]:
    """Contiguous near-even split: the first `total % replicas` blocks get one extra."""
    base, extra = divmod(total, replicas)
    return [base + 1 if i < extra else base for i in range(replicas)]


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args.scenario)
    workload = scenario.workload
    if args.seed is not None:
        workload = replace(workload, seed=args.seed)
    if args.format == "csv" and args.output is None:
        print("error: --format csv requires --output", file=sys.stderr)
        return 2

    if scenario.replicas == 1:
        report = run(scenario.engine, workload, prewarm_adapters=scenario.prewarm_adapters)
    else:
        blocks = _split_users(workload.users, scenario.replicas)
        offset = 0
        sub_reports = []
        per_replica: dict[str, int] = {}
        for index, block_users in enumerate(blocks):
            if block_users == 0:
                per_replica[f"replica-{index}"] = 0
                continue
            sub_report = run(
                scenario.engine,
                replace(workload, users=block_users),
                prewarm_adapters=scenario.prewarm_adapters,
                user_index_offset=offset,
                request_id_prefix=f"rep{index}-",
            )
            sub_reports.append(sub_report)
            per_replica[f"replica-{index}"] = len(sub_report.records)
            offset += block_users
        merged = merge(sub_reports)
        report = replace(
            merged,
            config={"engine": scenario.engine.to_dict(), "workload": workload.to_dict()},
            per_replica=per_replica,
        )

    sys.stdout.write(format_summary_table(report, scenario.name))
    if args.output is not None:
        _write_output(report, args.output, args.format, args.records)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .gateway import serve

    adapters = [adapter_name(i) for i in range(args.adapters)]
    serve(EngineConfig(), port=args.port, adapters=adapters, prewarm=args.prewarm)
    return 0


# Each bench flag is its WorkloadConfig field's name with dashes, except these.
_BENCH_FLAG_RENAMES = {"n_adapters": "--adapters", "duration_ms": "--duration-s"}


def cmd_bench(args: argparse.Namespace) -> int:
    from .gateway import ReplicaSet, bench

    workload = WorkloadConfig(
        n_adapters=args.adapters,
        users=args.users,
        duration_ms=args.duration_s * 1000.0,
        input_tokens_min=args.input_tokens_min,
        input_tokens_max=args.input_tokens_max,
        output_tokens_min=args.output_tokens_min,
        output_tokens_max=args.output_tokens_max,
        seed=args.seed,
    )
    violations = []
    for violation in config_violations(EngineConfig(), workload):
        field, rule = violation.split(": ", 1)
        if field == "duration_ms":  # typed in seconds, held in milliseconds
            rule = rule.replace(repr(workload.duration_ms), f"{args.duration_s:g}")
        flag = _BENCH_FLAG_RENAMES.get(field, "--" + field.replace("_", "-"))
        violations.append(f"{flag}: {rule}")
    if violations:
        raise ConfigError(violations)
    report = bench(ReplicaSet(endpoints=tuple(args.url)), workload)
    sys.stdout.write(format_summary_table(report, "bench"))
    if args.output is not None:
        _write_output(report, args.output, "json", include_records=True)
    if report.summary["completed"] == 0:
        print("error: no request completed", file=sys.stderr)
        return 1
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    examples = load_examples_jsonl(args.dataset)
    name = args.name or Path(args.dataset).stem
    profile = compute_profile(examples, name)
    text = json.dumps(asdict(profile), indent=2, sort_keys=True) + "\n"
    if args.output is not None:
        args.output.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_lift(args: argparse.Namespace) -> int:
    pairs = join_tasks(load_task_profiles(args.profiles), load_quality_records(args.quality))
    matrix = [profile_features(profile) for profile, _ in pairs]
    y = [getattr(record, args.target) for _, record in pairs]
    # (label, JSON key suffix, feature rows, feature names) of each fitted model.
    variants = [("profile features", "", matrix, PROFILE_FEATURES)]
    leaked = args.target == "avg_base_score"
    if not leaked:
        augmented = [row + [record.avg_base_score] for row, (_, record) in zip(matrix, pairs)]
        names = PROFILE_FEATURES + ("avg_base_score",)
        variants.append(("profile features + avg_base_score", "_with_base_score", augmented, names))
    models = [fit_lift_model(rows, y, names, args.target) for _, _, rows, names in variants]
    model = models[0]
    correlations = dict(zip(PROFILE_FEATURES, (pearson(column, y) for column in zip(*matrix))))

    lines = [f"target: {args.target}", f"tasks: {len(y)}"]
    result: dict = {
        "target": args.target,
        "n_tasks": len(y),
        "weights": dict(zip(model.feature_names, model.weights)),
        "intercept": model.intercept,
        "pearson_r": correlations,
    }
    for (label, suffix, _, _), fitted in zip(variants, models):
        lines.append(f"in-sample RMSE ({label}): {fitted.train_rmse:.4f}")
        result["rmse_insample" + suffix] = fitted.train_rmse
    if args.mode == "loo":
        for label, suffix, rows, names in variants:
            loo = loo_rmse(rows, y, names, args.target)
            lines.append(f"LOO RMSE ({label}): {loo:.4f}")
            result["rmse_loo" + suffix] = loo
    if leaked:
        lines.append("no model with avg_base_score as a feature: it is the target")
    lines.append("weights (z-scored profile features):")
    for feature, weight in zip(model.feature_names, model.weights):
        lines.append(f"  {feature:<24}{weight:+.4f}")
    lines.append(f"  {'intercept':<24}{model.intercept:+.4f}")
    lines.append(f"pearson r with {args.target} (profile features):")
    for feature, r in correlations.items():
        lines.append(f"  {feature:<24}" + ("n/a" if r is None else f"{r:+.4f}"))

    sys.stdout.write("\n".join(lines) + "\n")
    if args.output is not None:
        args.output.write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adapterd",
        description="Multi-adapter serving simulator, live gateway, and lift profiler.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario in deterministic virtual time")
    sim.add_argument("scenario", help="scenario JSON path or bundled name")
    sim.add_argument("--seed", type=int, default=None, help="override the workload seed")
    sim.add_argument("--output", type=Path, default=None, help="write the report to this file")
    sim.add_argument("--format", choices=("json", "csv"), default="json")
    sim.add_argument(
        "--records", action="store_true", help="include per-request records in JSON output"
    )
    sim.set_defaults(handler=cmd_simulate)

    srv = sub.add_parser("serve", help="run the live SSE gateway in the foreground")
    srv.add_argument("--port", type=int, default=None, help="default: $ADAPTERD_PORT or 8000")
    srv.add_argument("--adapters", type=int, default=0, help="number of adapters to register")
    srv.add_argument("--prewarm", action="store_true", help="load all adapters onto the GPU")
    srv.set_defaults(handler=cmd_serve)

    ben = sub.add_parser("bench", help="drive a closed-loop workload against live replicas")
    # argparse's private matcher, with no public hook, reads "-1e-7" as an option, not a value.
    ben._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$", re.I)
    ben.add_argument("--url", action="append", required=True, help="replica URL (repeatable)")
    ben.add_argument("--users", type=int, default=1)
    ben.add_argument("--duration-s", type=float, default=10.0)
    ben.add_argument("--adapters", type=int, default=0)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--input-tokens-min", type=int, default=30)
    ben.add_argument("--input-tokens-max", type=int, default=500)
    ben.add_argument("--output-tokens-min", type=int, default=1)
    ben.add_argument("--output-tokens-max", type=int, default=120)
    ben.add_argument("--output", type=Path, default=None)
    ben.set_defaults(handler=cmd_bench)

    prof = sub.add_parser("profile", help="profile a JSONL dataset of input/output pairs")
    prof.add_argument("dataset", help="JSONL file with {\"input\": ..., \"output\": ...} lines")
    prof.add_argument("--name", default=None, help="task name (default: dataset file stem)")
    prof.add_argument("--output", type=Path, default=None)
    prof.set_defaults(handler=cmd_profile)

    lift = sub.add_parser("lift", help="fit a fine-tuning lift model from task profiles")
    lift.add_argument("--profiles", required=True, help="task-profile CSV")
    lift.add_argument("--quality", required=True, help="quality-metric CSV")
    lift.add_argument("--target", required=True, choices=QUALITY_METRICS)
    lift.add_argument("--mode", choices=("insample", "loo"), default="insample")
    lift.add_argument("--output", type=Path, default=None)
    lift.set_defaults(handler=cmd_lift)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as error:
        for violation in error.violations:
            print(f"error: {violation}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
