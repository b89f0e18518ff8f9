"""Golden hashes: `simulate --records` and `profile` output are pinned byte for byte.

C6 checks that two runs of one build agree; these hashes check that a change
to the code leaves every bundled scenario's report exactly as it was.  Each
case runs ``adapterd simulate <scenario> [--seed k] --output f.json --records``
and compares the SHA-256 of the written file.  A ``None`` seed runs the
scenario's own seed.  ``table8`` runs at its own seed only, since one run of
it costs several seconds.  ``CSV_GOLDEN`` pins ``--format csv --output f.csv``
the same way, so ``write_records_csv`` is fixed as well as the JSON report.

The bundled scenarios never hold more adapters than ``gpu_slots``, so they
never evict.  ``EVICTION_GOLDEN`` pins ``run()`` on oversubscribed
configurations instead, so the order in which the adapter cache demotes and
promotes is fixed as well: the SHA-256 covers the report's summary,
per-adapter counts, final tier occupancy and every record.  ``churn-scale``
is the benchmark's ``adapter-churn`` configuration (2,000 adapters, 300
users) at a seed of its own, so the admission sweep's fetch order is pinned
at the scale where its queues are longest.

``PROFILE_GOLDEN`` pins ``adapterd profile <file> --output f.json`` on a
seeded dataset whose pairs are long enough to span several 64-bit words,
so a change to how ``rouge_l`` computes its LCS must leave every profile
float exactly as it was.

The 14 JSON hashes (``GOLDEN`` and ``EVICTION_GOLDEN``) were re-pinned when
``WorkloadConfig.task_profiles`` was deleted, which drops
``"task_profiles": null`` from each report's config echo.  Before the
deletion, a test checked that a ``sort_keys``/``indent=2`` re-dump of each
parsed report reproduced its bytes exactly, and pinned the hash of that
re-dump with the key popped.  The plain hashes after the deletion equal that
table, so the key was the only byte that moved.  ``CSV_GOLDEN`` and
``PROFILE_GOLDEN`` did not move.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from adapterd.cli import main
from adapterd.core import EngineConfig, WorkloadConfig
from adapterd.engine import run

GOLDEN = {
    ("fairness", None): "03bc3ce895935760b6056257b15e538a02637fdfddc01ee42150d196912bebcf",
    ("table8", None): "ee09989d5620f04065fe15ed135a2c36de945fd0cf56f797813ac11bb909f77c",
    ("table9", None): "99966da52bd558a283f777547d25c38679d5c5bc80d5e6fe871a9e891849daa8",
    ("table10", None): "ff15ad1d9f479d75c18d0a79a297d61ecd1e03a3327d7015a6496c20066e7d6d",
    ("table11", None): "c378fc15333af090bd5aff8a880fd687f93991f2e4d29a94cde29ac0722298e2",
    ("fairness", 1): "3469aee9070a7534b5fdbc6538adabd18860bd81888a8b9acac2298076bb286c",
    ("table9", 1): "ea43a85bb9ffae05ee333bc257e709e8b145ec9fc6570fa1878fc02ac616710f",
    ("table10", 1): "bbdaa8902452f97b11ef2be24f72cc3b691e8f0069b749eda4024b43fb37ffce",
    ("table11", 1): "f8efc86f4e5b4280360c83679e979f22657030a6c60ac90f79f0195823e21525",
}


@pytest.mark.parametrize(("scenario", "seed"), sorted(GOLDEN, key=str))
def test_simulate_records_hash_is_pinned(scenario, seed, tmp_path, capsys):
    output = tmp_path / "report.json"
    argv = ["simulate", scenario, "--output", str(output), "--records"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(output.read_bytes()).hexdigest() == GOLDEN[(scenario, seed)]


CSV_GOLDEN = {
    ("fairness", None): "342fca1d6f16506efb633d0b75ae5a7a86de33fe754d083b4ec17618158aaa36",
    ("table10", 1): "7eeef7ada17e25ae282561363def1c429d8f51836280c5051216967e5344e2c4",
}


@pytest.mark.parametrize(("scenario", "seed"), sorted(CSV_GOLDEN, key=str))
def test_simulate_csv_hash_is_pinned(scenario, seed, tmp_path, capsys):
    output = tmp_path / "records.csv"
    argv = ["simulate", scenario, "--format", "csv", "--output", str(output)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(output.read_bytes()).hexdigest() == CSV_GOLDEN[(scenario, seed)]


_NO_HOP_LATENCY = {"t_download_ms": 0.0, "t_disk_to_cpu_ms": 0.0, "t_cpu_to_gpu_ms": 0.0}

EVICTION_CASES = {
    "200-adapters": (
        EngineConfig(),
        WorkloadConfig(n_adapters=200, users=100, duration_ms=5000.0, seed=1),
    ),
    "no-cpu-tier": (
        EngineConfig(gpu_slots=8, cpu_slots=0),
        WorkloadConfig(n_adapters=60, users=40, duration_ms=20000.0, seed=2),
    ),
    "zero-latency-hops": (
        EngineConfig(gpu_slots=3, cpu_slots=5, **_NO_HOP_LATENCY),
        WorkloadConfig(n_adapters=20, users=12, duration_ms=20000.0, seed=3),
    ),
    "per-user": (
        EngineConfig(gpu_slots=4, cpu_slots=6),
        WorkloadConfig(
            n_adapters=16, users=16, duration_ms=20000.0, seed=4, adapter_assignment="per_user"
        ),
    ),
    "churn-scale": (
        EngineConfig(),
        WorkloadConfig(
            n_adapters=2000, users=300, duration_ms=10000.0, input_tokens_min=30,
            input_tokens_max=500, output_tokens_min=1, output_tokens_max=120, seed=5,
        ),
    ),
}

EVICTION_GOLDEN = {
    "200-adapters": "8dd2956357af5ccd9739a9b041d09bb9d2572a4774f937e4994d9a1a89bda18b",
    "no-cpu-tier": "62b39c9e30dbe8605303517d317cef5a69828137cd740f000afbe2e030f52db6",
    "zero-latency-hops": "59904ea1fcc9a13cccefd2be71c1b12f16f1cbd064503d65c005b899c61c14b5",
    "per-user": "ff39d9aca138f3d0e9a6fe09be9dfadb29604674a9073665a233c34636bcd7e8",
    "churn-scale": "69d5f2c179a2a88183e89f9e37d02fbe69aa40b9b6265131279f069b2d7c8b6e",
}


@pytest.mark.parametrize("case", sorted(EVICTION_GOLDEN))
def test_oversubscribed_run_hash_is_pinned(case):
    engine_config, workload_config = EVICTION_CASES[case]
    report = run(engine_config, workload_config)
    assert sum(report.cache.values()) == workload_config.n_adapters
    assert report.cache["gpu"] == engine_config.gpu_slots
    text = report.to_json_str(include_records=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == EVICTION_GOLDEN[case]


PROFILE_GOLDEN = "9854530fcf1c02265caabc457e1e4fd38ee460a9398f6ad124f291e868227de1"

_PROFILE_VOCAB = ["the", "The", "THE", "cat", "Cat", "sat", "on", "mat", "Mat", "a",
                  "dog", "ran", "far", "away", "Away", "naïve", "café", "x", "y", "z"]


def _profile_dataset(path):
    """30 seeded input/output pairs: short and >128-word sides, mixed case,
    repeated words, copied runs, one empty output and irregular whitespace."""
    rng = random.Random(20261018)
    lengths = [(2, 5), (3, 0), (1, 1), (63, 64), (64, 65), (65, 63), (127, 128),
               (128, 129), (129, 127), (200, 150), (140, 300), (600, 40)]
    lengths += [(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(18)]
    lines = []
    for i, (n_in, n_out) in enumerate(lengths):
        vocab = _PROFILE_VOCAB[: 2 + i % 19]
        words = [rng.choice(vocab) for _ in range(n_in)]
        if i % 3 == 0:
            out = [rng.choice(words) if rng.random() < 0.5 else rng.choice(vocab)
                   for _ in range(n_out)]
        else:
            start = rng.randrange(len(words))
            out = words[start:start + n_out] + [rng.choice(vocab) for _ in range(n_out)]
            out = out[:n_out]
        text_in = (" " if i % 2 else "  \t").join(words)
        lines.append(json.dumps({"input": text_in, "output": " ".join(out)}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_profile_output_hash_is_pinned(tmp_path, capsys):
    dataset = tmp_path / "golden.jsonl"
    _profile_dataset(dataset)
    output = tmp_path / "profile.json"
    assert main(["profile", str(dataset), "--output", str(output)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(output.read_bytes()).hexdigest() == PROFILE_GOLDEN
