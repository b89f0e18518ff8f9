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
    ("fairness", None): "368443787446d4a460de5b5a95e948cb9209b8b8f2a37f9263ae6226de1117f3",
    ("table8", None): "3d10f33f6f5ad02f868b1696393983599e38a073a0b2891488e5d2c376704b62",
    ("table9", None): "e35dc9388be73af4e52aa9f1fa0545f01ec1d01991f49a2b58a536d4fac0ec18",
    ("table10", None): "e5b150e14fe8a13192534d8f558596f1fcc082024fbed4858c9f2861fd701c7e",
    ("table11", None): "de955266c1bca13ea891a5040d9b06074136e0cfdbcb3db281dce31c9f76b5be",
    ("fairness", 1): "ce186b2cd87464bba33d6b4561ceb498ea95eacca07ad0fed577350ba9f266c3",
    ("table9", 1): "690aa3e73682839c6046d968858f01d3258bd49ef1f03014e7deddd5f4f1ee39",
    ("table10", 1): "ce3218108155bbd75d868d1954cc65a3e8e0ee9e5e8fa51875e4206da2dcce79",
    ("table11", 1): "caa120d2b64cc43f3380cc380c4fc0d08aaf4fff84960d5f7041724ba7ba1c60",
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
    "200-adapters": "819e96947aca64c6b41562dbb030564d82dcd6571451e0a9de4f416b0e30d2fa",
    "no-cpu-tier": "ccc238f1e24f02512b955d8fc83c38436285988562b7eb88090e173c35e607e4",
    "zero-latency-hops": "c2dfbeb11d240e545281d9f28cb8a9cdc1bd9d3076f698669a438acaa3c1eeea",
    "per-user": "399de1f456c2ad93d29c54a2df6f5f7933d8c7160cdba0dc077b99bf45ebcf89",
    "churn-scale": "e9dcc086f79ca453b8fd754254c4fde240cf4e5b1a2c62f871188fc613890b5f",
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
