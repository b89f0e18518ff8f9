"""Start-up cost: each `adapterd` command imports only the layers it runs.

numpy (used only by the lift fits) and the HTTP stack (used only by `serve`
and `bench`) dominate the cost of importing the CLI.  Each case runs in a
fresh interpreter, because the pytest process has already imported
everything, and reports which of those modules the command left loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from adapterd.cli import main
from adapterd.profiler import bundled_fixture_path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("numpy", "http.client", "http.server", "urllib.request")


def _fresh_run(argv: list[str] | None) -> tuple[str, list[str]]:
    """Run ``main(argv)`` (or only import the CLI) in a new interpreter.

    Returns the command's stdout and the HEAVY modules loaded afterwards.
    """
    script = (
        "import json, sys\n"
        "from adapterd.cli import main\n"
        f"argv = {argv!r}\n"
        "if argv is not None and main(argv) != 0:\n"
        "    sys.exit('command failed')\n"
        "sys.stdout.flush()\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]), file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(done.stderr.splitlines()[-1])


@pytest.mark.parametrize("argv", [None, ["simulate", "fairness"]], ids=["import", "simulate"])
def test_cli_and_simulate_load_no_numpy_or_http(argv):
    _, loaded = _fresh_run(argv)
    assert loaded == []


def test_profile_loads_no_numpy(tmp_path):
    path = tmp_path / "toy.jsonl"
    rows = [{"input": "alpha beta gamma", "output": "beta"}, {"input": "x y", "output": "y z"}]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    out, loaded = _fresh_run(["profile", str(path)])
    assert json.loads(out)["n_examples"] == 2
    assert "numpy" not in loaded


def test_lift_loads_numpy_and_matches_in_process(capsys):
    argv = [
        "lift",
        "--profiles", str(bundled_fixture_path("task_profiles.csv")),
        "--quality", str(bundled_fixture_path("quality_records.csv")),
        "--target", "gpt4_score",
        "--mode", "loo",
    ]
    out, loaded = _fresh_run(argv)
    assert "numpy" in loaded
    assert main(argv) == 0
    assert out == capsys.readouterr().out
