"""Imports: each `adapterd` command imports only the layers it runs, every
name a module of `src/adapterd` imports is used, and every public name has a
caller there.

numpy (used only by the lift fits) and the HTTP stack (used only by `serve`
and `bench`) dominate the cost of importing the CLI.  Each case runs in a
fresh interpreter, because the pytest process has already imported
everything, and reports which of those modules the command left loaded.
"""

from __future__ import annotations

import ast
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


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a chain of attribute reads on a name, else None."""
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else None


def _unused_imports(source: str) -> list[str]:
    """Names the module imports but never reads and does not list in ``__all__``.

    ``import a.b`` binds ``a`` but counts as used only where a chain starting
    with ``a.b`` is read, so reading ``a.c`` does not hide it.
    """
    tree = ast.parse(source)
    imported = []
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    # Every chain and, since ast.walk visits the inner nodes too, each of its prefixes.
    read = {_dotted(node) for node in ast.walk(tree)}
    return [name for name in imported if name not in read | exported]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in (SRC / "adapterd").glob("*.py"))
)
def test_every_imported_name_is_used(module):
    source = (SRC / "adapterd" / module).read_text(encoding="utf-8")
    assert _unused_imports(source) == []


def test_unused_import_check_sees_plain_from_and_exported_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom x import a, b as c\nfrom y import d\n"
        "__all__ = ['d']\nprint(c)\n"
    )
    assert _unused_imports(source) == ["os.path", "j", "a"]


def test_unused_import_check_sees_a_dotted_import_past_its_sibling():
    source = "import urllib.error\nimport urllib.request\nurllib.request.urlopen\n"
    assert _unused_imports(source) == ["urllib.error"]


# Public names that nothing in src/adapterd calls, and why each stays public.
_UNCALLED_PUBLIC = {
    "bundled_fixture_path": "README documents it as the way to reach the bundled fixtures",
    "predict": "C11's oracle applies a fitted model with it; a `lift --predict` would call it",
}


def _public_names_without_a_caller(sources: list[str]) -> list[str]:
    """``__all__`` names that no module reads and no module imports from the package.

    A name counts as read where it is loaded as a ``Name`` or an attribute, in
    its own module or another; a relative import counts as a caller too.
    """
    exported = []
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                exported += ast.literal_eval(node.value)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level > 0:
                used |= {alias.name for alias in node.names}
    return sorted(name for name in exported if name not in used)


def test_every_public_name_has_a_caller():
    sources = [p.read_text(encoding="utf-8") for p in (SRC / "adapterd").glob("*.py")]
    assert _public_names_without_a_caller(sources) == sorted(_UNCALLED_PUBLIC)


def test_public_name_check_sees_reads_and_package_imports_only():
    sources = [
        "__all__ = ['f', 'g', 'h', 'k']\ndef f(): pass\ndef h(): f()\nk = 1\nx.k = 2\n",
        "from .a import g\nfrom os import h\n",
    ]
    assert _public_names_without_a_caller(sources) == ["h", "k"]
