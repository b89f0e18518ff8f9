"""Command-line behavior: scenarios, outputs, exit codes, and determinism."""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path

import pytest

import adapterd.gateway as gateway
from adapterd.cli import _resolve_scenario, main
from adapterd.core import EngineConfig, adapter_name
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
    weight_lines = [l for l in out.splitlines() if l.startswith("  ")]
    assert len(weight_lines) == 15  # 14 features + intercept


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
    ],
)
def test_bench_invalid_workload_exits_2_before_any_request(capfd, flags, message):
    assert main(["bench", "--url", "http://127.0.0.1:1", "--duration-s", "0.2", *flags]) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]
