"""Command-line behavior: scenarios, outputs, exit codes, and determinism."""

from __future__ import annotations

import json
import math
import re
import threading
from pathlib import Path
from typing import get_args, get_type_hints

import pytest

import adapterd.gateway as gateway
from adapterd.cli import _resolve_scenario, main
from adapterd.core import Bound, EngineConfig, Scenario, WorkloadConfig, adapter_name
from adapterd.gateway import start_server
from adapterd.profiler import bundled_fixture_path


def _scenario_file(tmp_path, name="mini", **overrides):
    doc = {
        "name": name,
        "engine": {},
        "workload": {
            "users": 3,
            "n_adapters": 0,
            "duration_ms": 400.0,
            "input_tokens_min": 5,
            "input_tokens_max": 20,
            "output_tokens_min": 2,
            "output_tokens_max": 8,
            "seed": 5,
        },
    }
    doc.update(overrides)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_no_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_unknown_scenario_exits_2(capsys):
    assert main(["simulate", "no-such-scenario"]) == 2
    err = capsys.readouterr().err
    assert "table9" in err  # the error lists the bundled names


def test_bundled_names_resolve_without_running():
    scenario = _resolve_scenario("fairness")
    assert scenario.workload.adapter_assignment == "per_user"
    assert scenario.workload.n_adapters == 25
    for name in ("table8", "table9", "table10", "table11"):
        assert _resolve_scenario(name).name == name


def test_simulate_prints_metric_table(tmp_path, capsys):
    path = _scenario_file(tmp_path)
    assert main(["simulate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "== mini ==" in out
    assert "total_request_ms" in out
    assert "ttft_ms" in out
    assert "p90" in out
    assert "completed=" in out


def test_simulate_byte_identical_across_runs(tmp_path, capsys):
    path = _scenario_file(tmp_path)
    first_out, second_out = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["simulate", str(path), "--output", str(first_out), "--records"]) == 0
    stdout_first = capsys.readouterr().out
    assert main(["simulate", str(path), "--output", str(second_out), "--records"]) == 0
    stdout_second = capsys.readouterr().out
    assert stdout_first == stdout_second
    assert first_out.read_bytes() == second_out.read_bytes()


def test_simulate_seed_override_changes_result(tmp_path, capsys):
    path = _scenario_file(tmp_path)
    main(["simulate", str(path)])
    baseline = capsys.readouterr().out
    main(["simulate", str(path), "--seed", "99"])
    reseeded = capsys.readouterr().out
    assert baseline != reseeded


def test_simulate_json_output_includes_records_and_echo(tmp_path):
    path = _scenario_file(tmp_path)
    out = tmp_path / "report.json"
    assert main(["simulate", str(path), "--output", str(out), "--records"]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["workload"]["seed"] == 5
    assert payload["config"]["engine"] == EngineConfig().to_dict()
    assert len(payload["records"]) == payload["summary"]["completed"]
    assert payload["records"], "expected at least one completed request"


def test_simulate_csv_output(tmp_path):
    path = _scenario_file(tmp_path)
    out = tmp_path / "records.csv"
    assert main(["simulate", str(path), "--output", str(out), "--format", "csv"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "request_id,adapter,input_tokens,output_tokens,submit_ms,first_token_ms,last_token_ms"
    )
    assert len(lines) > 1


def test_simulate_csv_without_output_exits_2(tmp_path, capsys):
    path = _scenario_file(tmp_path)
    assert main(["simulate", str(path), "--format", "csv"]) == 2
    assert "--output" in capsys.readouterr().err


def test_simulate_replicas_split_and_merge(tmp_path):
    path = _scenario_file(tmp_path, replicas=2)
    out = tmp_path / "report.json"
    assert main(["simulate", str(path), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload["per_replica"]) == {"replica-0", "replica-1"}
    assert sum(payload["per_replica"].values()) == payload["summary"]["completed"]
    # The merged echo reports the original full user count, not the per-replica split.
    assert payload["config"]["workload"]["users"] == 3


def test_simulate_rejects_live_mode(tmp_path, capsys):
    # Scenarios have no execution mode: a "mode" key is an unknown field.
    path = _scenario_file(tmp_path, mode="live")
    assert main(["simulate", str(path)]) == 2
    assert "unknown fields ['mode']" in capsys.readouterr().err


def test_simulate_rejects_unknown_scenario_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"wot": 1}), encoding="utf-8")
    assert main(["simulate", str(path)]) == 2
    assert "wot" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("doc", "message"),
    [
        ([], "scenario: must be an object (got [])"),
        ({"engine": 5}, "engine: must be an object (got 5)"),
        ({"engine": None}, "engine: must be an object (got None)"),
        ({"engine": {"gpu_slots": "x"}, "workload": {}},
         "engine.gpu_slots: must be an integer (got 'x')"),
        ({"replicas": [1]}, "scenario.replicas: must be an integer (got [1])"),
        ({"workload": {"seed": 1.5}}, "workload.seed: must be an integer (got 1.5)"),
        ({"workload": {"users": True}}, "workload.users: must be an integer (got True)"),
        ({"workload": {"duration_ms": False}},
         "workload.duration_ms: must be a number (got False)"),
        ({"workload": {"adapter_assignment": 1}},
         "workload.adapter_assignment: must be a string (got 1)"),
        ({"prewarm_adapters": 1}, "scenario.prewarm_adapters: must be a boolean (got 1)"),
        # A JSON integer is a number, but one past the float range is not finite.
        ({"workload": {"duration_ms": 10**400}},
         f"duration_ms: must be finite and >= 0 (got {10**400})"),
        ({"engine": {"t_download_ms": 10**400}},
         f"t_download_ms: must be finite and >= 0 (got {10**400})"),
        ({"engine": {"decode_base_ms": -10**400}},
         f"decode_base_ms: must be finite and > 0 (got {-10**400})"),
    ],
    ids=["list", "engine-int", "engine-null", "str-in-int", "list-in-int", "float-in-int",
         "bool-in-int", "bool-in-float", "int-in-str", "int-in-bool", "huge-duration",
         "huge-hop", "huge-decode"],
)
def test_simulate_mistyped_scenario_exits_2_with_one_line(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_simulate_takes_an_integer_for_a_float_field(tmp_path, capsys):
    # JSON has one number type: 400 is a valid duration, and is echoed as written.
    path = _scenario_file(tmp_path)
    doc = json.loads(path.read_text())
    doc["workload"]["duration_ms"] = 400
    path.write_text(json.dumps(doc), encoding="utf-8")
    output = tmp_path / "report.json"
    assert main(["simulate", str(path), "--output", str(output)]) == 0
    capsys.readouterr()
    duration = json.loads(output.read_text())["config"]["workload"]["duration_ms"]
    assert type(duration) is int and duration == 400


# (section, field, type, bound, strict) of every bounded scenario field. A field
# holds at least its bound, or more than it when strict; a float field must also
# be finite. Section None is the scenario itself.
_BOUNDED = [
    ("engine", "gpu_slots", int, 1, False),
    ("engine", "cpu_slots", int, 0, False),
    ("engine", "t_download_ms", float, 0, False),
    ("engine", "t_disk_to_cpu_ms", float, 0, False),
    ("engine", "t_cpu_to_gpu_ms", float, 0, False),
    ("engine", "decode_base_ms", float, 0, True),
    ("engine", "decode_per_seq_ms", float, 0, False),
    ("engine", "prefill_base_ms", float, 0, False),
    ("engine", "prefill_per_token_ms", float, 0, False),
    ("engine", "switch_overhead_ms", float, 0, False),
    ("engine", "max_batch_size", int, 1, False),
    ("engine", "admission_per_step", int, 1, False),
    ("workload", "n_adapters", int, 0, False),
    ("workload", "users", int, 1, False),
    ("workload", "duration_ms", float, 0, False),
    ("workload", "input_tokens_min", int, 1, False),
    ("workload", "output_tokens_min", int, 1, False),
    (None, "replicas", int, 1, False),
]


def _bound_cases():
    for section, field, kind, bound, strict in _BOUNDED:
        if kind is int:
            inside, outside = bound + strict, bound + strict - 1
        elif strict:
            inside, outside = math.nextafter(bound, math.inf), bound
        else:
            inside, outside = bound, math.nextafter(bound, -math.inf)
        values = [(inside, True, "inside"), (outside, False, "outside")]
        if kind is float:
            values += [(10**400, False, "huge"), (-(10**400), False, "-huge")]
        for value, valid, label in values:
            yield pytest.param(section, field, value, valid, id=f"{field}-{label}")


@pytest.mark.parametrize(("section", "field", "value", "valid"), _bound_cases())
def test_simulate_checks_each_bounded_field_at_its_bound(
    tmp_path, capsys, section, field, value, valid
):
    path = _scenario_file(tmp_path)
    doc = json.loads(path.read_text())
    (doc if section is None else doc[section])[field] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["simulate", str(path)])
    captured = capsys.readouterr()
    if valid:
        assert code == 0, captured.err
        return
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and field in line


def test_every_numeric_field_declares_a_bound():
    # A new int or float knob cannot land unchecked, nor outside the table above.
    # The exempt fields are checked against other fields instead.
    exempt = {"input_tokens_max", "output_tokens_max", "seed"}
    unbounded, declared = [], []
    for cls in (EngineConfig, WorkloadConfig, Scenario, gateway._GenerateBody):
        for name, hint in get_type_hints(cls, include_extras=True).items():
            kind, *extras = get_args(hint) or (hint,)
            bounds = [extra for extra in extras if isinstance(extra, Bound)]
            if kind in (int, float) and not bounds and name not in exempt:
                unbounded.append(f"{cls.__name__}.{name}")
            if bounds and cls is not gateway._GenerateBody:
                declared += [(name, kind, bound.lo, bound.strict) for bound in bounds]
    assert unbounded == []
    assert sorted(declared) == sorted(row[1:] for row in _BOUNDED)


def test_simulate_reports_every_field_fault_of_a_file(tmp_path, capsys):
    doc = {"wot": 1, "engine": {"gpu_slots": 0}, "workload": {"seed": 1.5, "users": 0}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: scenario: unknown fields ['wot']",
        "error: gpu_slots: must be >= 1 (got 0)",
        "error: workload.seed: must be an integer (got 1.5)",
        "error: users: must be >= 1 (got 0)",
    ]


def _dataset_file(tmp_path):
    rows = [
        {"input": "alpha beta gamma", "output": "delta"},
        {"input": "one two", "output": "three four five"},
        {"input": "x y z w", "output": "y z"},
    ]
    path = tmp_path / "toy.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return path


def test_profile_stdout_and_file(tmp_path, capsys):
    path = _dataset_file(tmp_path)
    assert main(["profile", str(path), "--name", "toy-task"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "toy-task"
    assert payload["n_examples"] == 3
    assert payload["input_len"]["mean"] == pytest.approx(3.0)
    out = tmp_path / "profile.json"
    assert main(["profile", str(path), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["name"] == "toy"


def test_profile_bad_jsonl_exits_2_with_line_number(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"input": "a", "output": "b"}\nnot json\n', encoding="utf-8")
    assert main(["profile", str(path)]) == 2
    assert ":2:" in capsys.readouterr().err


_RMSE_LINE = re.compile(r"in-sample RMSE \(profile features\): ([0-9.]+)")
_RMSE_AUG_LINE = re.compile(r"in-sample RMSE \(profile features \+ avg_base_score\): ([0-9.]+)")


def _lift_args(target, *extra):
    return [
        "lift",
        "--profiles", str(bundled_fixture_path("task_profiles.csv")),
        "--quality", str(bundled_fixture_path("quality_records.csv")),
        "--target", target,
        *extra,
    ]


def test_lift_insample_reproduces_reference_rmse(capsys):
    assert main(_lift_args("gpt4_score")) == 0
    out = capsys.readouterr().out
    rmse = float(_RMSE_LINE.search(out).group(1))
    rmse_augmented = float(_RMSE_AUG_LINE.search(out).group(1))
    assert rmse == pytest.approx(0.140, abs=5e-3)
    assert rmse_augmented == pytest.approx(0.121, abs=5e-3)
    assert rmse_augmented <= rmse
    weights, pearson = out.split("weights (z-scored profile features):\n")[1].split(
        "pearson r with gpt4_score (profile features):\n"
    )
    assert len(weights.splitlines()) == 15  # 14 features + intercept
    assert len(pearson.splitlines()) == 14
    assert all(line.startswith("  ") for line in (weights + pearson).splitlines())


def test_lift_loo_mode_prints_holdout_rmse(capsys):
    assert main(_lift_args("gpt4_score", "--mode", "loo")) == 0
    out = capsys.readouterr().out
    assert "LOO RMSE (profile features): 0.7018" in out
    assert "LOO RMSE (profile features + avg_base_score): 0.7627" in out


def test_lift_base_score_target_skips_the_leaked_model(tmp_path, capsys):
    out = tmp_path / "lift.json"
    assert main(_lift_args("avg_base_score", "--mode", "loo", "--output", str(out))) == 0
    text = capsys.readouterr().out
    assert "in-sample RMSE (profile features): 0.0987" in text
    assert "LOO RMSE (profile features): 1.2704" in text
    assert "+ avg_base_score" not in text
    assert "no model with avg_base_score as a feature: it is the target" in text
    payload = json.loads(out.read_text())
    assert {"rmse_insample", "rmse_loo"} <= set(payload)
    assert not [key for key in payload if key.endswith("_with_base_score")]


def test_lift_loo_with_leverage_one_exits_2(tmp_path, capsys):
    # 10 tasks for 14 features plus an intercept: every row is fitted exactly.
    args = _lift_args("gpt4_score", "--mode", "loo")
    for flag in ("--profiles", "--quality"):
        index = args.index(flag) + 1
        path = tmp_path / Path(args[index]).name
        lines = Path(args[index]).read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:11]) + "\n", encoding="utf-8")
        args[index] = str(path)
    assert main(args) == 2
    assert "leverage 1" in capsys.readouterr().err


def test_lift_output_json(tmp_path):
    out = tmp_path / "lift.json"
    assert main(_lift_args("best_ft_score", "--output", str(out))) == 0
    payload = json.loads(out.read_text())
    assert payload["target"] == "best_ft_score"
    assert payload["n_tasks"] == 31
    assert set(payload["weights"]) == set(
        json.loads(json.dumps(list(payload["weights"])))
    )  # keys are the fitted feature names
    assert payload["rmse_insample"] == pytest.approx(0.097, abs=5e-3)


def test_lift_rejects_unknown_target():
    with pytest.raises(SystemExit) as excinfo:
        main(_lift_args("nonsense"))
    assert excinfo.value.code == 2


def test_lift_name_mismatch_exits_2(tmp_path, capsys):
    quality = tmp_path / "quality.csv"
    lines = bundled_fixture_path("quality_records.csv").read_text().splitlines()
    quality.write_text("\n".join(lines[:3]) + "\n", encoding="utf-8")
    args = _lift_args("gpt4_score")
    args[4] = str(quality)
    assert main(args) == 2
    assert "task names differ" in capsys.readouterr().err


def _drop_columns(*names):
    def edit(rows):
        keep = [i for i, column in enumerate(rows[0]) if column not in names]
        return [[row[i] for i in keep] for row in rows]

    return edit


def _set_cell(line, column, value):
    def edit(rows):
        rows[line - 1][rows[0].index(column)] = value
        return rows

    return edit


def _blank_line_before(line, edit):
    """``edit``, then an empty line in front of the given line, which moves it one down."""
    def with_blank(rows):
        rows = edit(rows)
        return rows[: line - 1] + [[""]] + rows[line - 1:]

    return with_blank


def _cut_row(line, cells):
    def edit(rows):
        rows[line - 1] = rows[line - 1][:cells]
        return rows

    return edit


@pytest.mark.parametrize(
    ("fixture", "edit", "message"),
    [
        ("task_profiles.csv", _drop_columns("io_rougeL_std"), "1: missing columns: io_rougeL_std"),
        (
            "task_profiles.csv",
            _drop_columns("n_examples", "compressibility_mean"),
            "1: missing columns: compressibility_mean, n_examples",
        ),
        ("quality_records.csv", _drop_columns("gpt4_score"), "1: missing columns: gpt4_score"),
        (
            "quality_records.csv",
            lambda rows: [],
            "1: missing columns: avg_base_lift, avg_base_score, avg_ft_score, best_base_score, "
            "best_ft_score, gpt4_score, max_gpt4_lift, name",
        ),
        (
            "task_profiles.csv",
            _set_cell(3, "input_len_std", "abc"),
            "3: field 'input_len_std' is not a number: 'abc'",
        ),
        (
            "task_profiles.csv",
            _set_cell(2, "n_examples", "x1"),
            "2: field 'n_examples' is not a number: 'x1'",
        ),
        (
            "quality_records.csv",
            _set_cell(2, "avg_ft_score", "abc"),
            "2: field 'avg_ft_score' is not a number: 'abc'",
        ),
        (
            "task_profiles.csv",
            _cut_row(4, 10),
            "4: field 'example_len_p95' is not a number: None",
        ),
        (
            "quality_records.csv",
            _cut_row(2, 3),
            "2: field 'avg_base_lift' is not a number: None",
        ),
        (
            "task_profiles.csv",
            _set_cell(2, "n_examples", "inf"),
            "2: field 'n_examples' is not an integer: 'inf'",
        ),
        (
            "task_profiles.csv",
            _set_cell(5, "n_examples", "nan"),
            "5: field 'n_examples' is not an integer: 'nan'",
        ),
        (
            "task_profiles.csv",
            _set_cell(3, "n_examples", "2.5"),
            "3: field 'n_examples' is not an integer: '2.5'",
        ),
        (
            "task_profiles.csv",
            _blank_line_before(4, _set_cell(4, "n_examples", "x1")),
            "5: field 'n_examples' is not a number: 'x1'",
        ),
        (
            "quality_records.csv",
            _blank_line_before(3, _set_cell(3, "gpt4_score", "abc")),
            "4: field 'gpt4_score' is not a number: 'abc'",
        ),
        (
            "task_profiles.csv",
            _set_cell(4, "input_len_mean", "inf"),
            "4: field 'input_len_mean' is not finite: 'inf'",
        ),
        (
            "quality_records.csv",
            _set_cell(6, "gpt4_score", "nan"),
            "6: field 'gpt4_score' is not finite: 'nan'",
        ),
    ],
)
def test_lift_csv_errors_exit_2_with_one_line(tmp_path, capfd, fixture, edit, message):
    lines = bundled_fixture_path(fixture).read_text(encoding="utf-8").splitlines()
    rows = edit([line.split(",") for line in lines])
    path = tmp_path / fixture
    path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    args = _lift_args("gpt4_score")
    flag = "--profiles" if fixture == "task_profiles.csv" else "--quality"
    args[args.index(flag) + 1] = str(path)
    assert main(args) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {path}:{message}"]


_FAST = EngineConfig(
    prefill_base_ms=1.0,
    prefill_per_token_ms=0.0,
    decode_base_ms=2.0,
    decode_per_seq_ms=0.0,
)


def test_bench_cli_against_live_server(tmp_path, capsys):
    server = start_server(_FAST, port=0)
    try:
        out = tmp_path / "bench.json"
        code = main([
            "bench",
            "--url", server.url,
            "--users", "1",
            "--duration-s", "0.3",
            "--input-tokens-min", "1", "--input-tokens-max", "1",
            "--output-tokens-min", "2", "--output-tokens-max", "4",
            "--output", str(out),
        ])
    finally:
        server.stop()
    assert code == 0
    stdout = capsys.readouterr().out
    assert "== bench ==" in stdout
    payload = json.loads(out.read_text())
    assert payload["summary"]["completed"] >= 1
    assert payload["summary"]["failure_count"] == 0


def test_bench_cli_dead_endpoint_exit_1(capsys):
    code = main([
        "bench",
        "--url", "http://127.0.0.1:9",
        "--users", "1",
        "--duration-s", "0.2",
    ])
    assert code == 1
    assert "no request completed" in capsys.readouterr().err


def test_serve_passes_its_flags_to_the_gateway(monkeypatch):
    def unpatched(*_args, **_kwargs):
        raise AssertionError("the CLI ran its own binding of serve, not gateway.serve")

    calls = []
    monkeypatch.setattr(gateway, "serve", lambda *args, **kwargs: calls.append((args, kwargs)))
    # A CLI that bound serve at import would otherwise block on a real server.
    monkeypatch.setattr(gateway, "start_server", unpatched)
    assert main(["serve", "--port", "0", "--adapters", "3", "--prewarm"]) == 0
    adapters = [adapter_name(i) for i in range(3)]
    assert calls == [((EngineConfig(),), {"port": 0, "adapters": adapters, "prewarm": True})]


def _engine_threads():
    return sum(thread.name == "adapterd-engine" for thread in threading.enumerate())


@pytest.mark.parametrize(
    ("flags", "env", "message"),
    [
        (["--port", "70000"], None, "--port must be in 0-65535, got 70000"),
        ([], "-5", "ADAPTERD_PORT must be in 0-65535, got -5"),
    ],
)
def test_serve_out_of_range_port_exits_2(monkeypatch, capfd, flags, env, message):
    if env is None:
        monkeypatch.delenv("ADAPTERD_PORT", raising=False)
    else:
        monkeypatch.setenv("ADAPTERD_PORT", env)
    before = _engine_threads()
    assert main(["serve", *flags]) == 2
    assert capfd.readouterr().err.splitlines() == [f"error: {message}"]
    assert _engine_threads() == before


@pytest.mark.parametrize(
    ("flags", "message"),
    [
        (
            ["--input-tokens-min", "500", "--input-tokens-max", "30"],
            "--input-tokens-min: min <= max required (got 500 > 30)",
        ),
        (["--users", "0"], "--users: must be >= 1 (got 0)"),
        (["--duration-s", "-1"], "--duration-s: must be finite and >= 0 (got -1)"),
        (["--adapters", "-3"], "--adapters: must be >= 0 (got -3)"),
        # An exponent-form negative number is a value, not an option.
        (["--duration-s", "-1e-7"], "--duration-s: must be finite and >= 0 (got -1e-07)"),
    ],
)
def test_bench_invalid_workload_exits_2_before_any_request(capfd, flags, message):
    assert main(["bench", "--url", "http://127.0.0.1:1", "--duration-s", "0.2", *flags]) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]
