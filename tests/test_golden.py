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
at the scale where its queues are longest.  ``deadline-mid-fetch`` starts
every fetch before the deadline and lands it after, so it pins that the
cache keeps landing loads once admission has stopped.
``zero-latency-prefill`` zeroes every hop and the prefill, so fetches land
at the instant of the plan that starts them, together with prefill
completions.

``PROFILE_GOLDEN`` pins ``adapterd profile <file> --output f.json`` on a
seeded dataset whose pairs are long enough to span several 64-bit words,
so a change to how ``rouge_l`` computes its LCS must leave every profile
float exactly as it was.

``LIFT_GOLDEN`` pins ``adapterd lift`` on the bundled task-profile and
quality fixtures, for every target in both modes: the SHA-256 of the
``--output`` JSON and of stdout.  It fixes how the CSV readers map columns
onto the feature vector, as well as the fits themselves.

The 14 JSON hashes then pinned (``GOLDEN`` and the first five
``EVICTION_GOLDEN`` cases) were re-pinned when
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
from adapterd.profiler import bundled_fixture_path

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
    "deadline-mid-fetch": (
        EngineConfig(gpu_slots=4, cpu_slots=2),
        WorkloadConfig(n_adapters=30, users=20, duration_ms=2100.0, seed=4),
    ),
    "zero-latency-prefill": (
        EngineConfig(
            gpu_slots=2, cpu_slots=1, prefill_base_ms=0.0, prefill_per_token_ms=0.0,
            **_NO_HOP_LATENCY,
        ),
        WorkloadConfig(
            n_adapters=10, users=6, duration_ms=300.0, output_tokens_max=4, seed=4
        ),
    ),
}

EVICTION_GOLDEN = {
    "200-adapters": "8dd2956357af5ccd9739a9b041d09bb9d2572a4774f937e4994d9a1a89bda18b",
    "no-cpu-tier": "62b39c9e30dbe8605303517d317cef5a69828137cd740f000afbe2e030f52db6",
    "zero-latency-hops": "59904ea1fcc9a13cccefd2be71c1b12f16f1cbd064503d65c005b899c61c14b5",
    "per-user": "ff39d9aca138f3d0e9a6fe09be9dfadb29604674a9073665a233c34636bcd7e8",
    "churn-scale": "69d5f2c179a2a88183e89f9e37d02fbe69aa40b9b6265131279f069b2d7c8b6e",
    "deadline-mid-fetch": "7d285ca3af636d2ae515299df960f665235f0677b0395b6cb2879a3cd81d9c8f",
    "zero-latency-prefill": "712c050b2f09f5ecf2453f125d1b4416ccdd9a19f1fa01ed330323d70d58fdf6",
}


@pytest.mark.parametrize("case", sorted(EVICTION_GOLDEN))
def test_oversubscribed_run_hash_is_pinned(case):
    engine_config, workload_config = EVICTION_CASES[case]
    report = run(engine_config, workload_config)
    assert sum(report.cache.values()) == workload_config.n_adapters
    assert report.cache["gpu"] == engine_config.gpu_slots
    text = report.to_json_str(include_records=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == EVICTION_GOLDEN[case]


# 3 users over 4 replicas: the last replica gets no user, so it serves nothing
# and is still listed in per_replica.  No bundled scenario leaves a replica empty.
SPARSE_REPLICAS = {
    "name": "sparse-replicas",
    "replicas": 4,
    "workload": {"n_adapters": 5, "users": 3, "duration_ms": 20000.0, "seed": 7},
}
SPARSE_REPLICAS_GOLDEN = "3bbf966cde1f9b04217a821d92a1ad9d83559b8da51c1d002299ee6e823bf64f"


def test_sparse_replicas_hash_is_pinned(tmp_path, capsys):
    scenario = tmp_path / "sparse-replicas.json"
    scenario.write_text(json.dumps(SPARSE_REPLICAS), encoding="utf-8")
    output = tmp_path / "report.json"
    assert main(["simulate", str(scenario), "--output", str(output), "--records"]) == 0
    capsys.readouterr()
    assert json.loads(output.read_text())["per_replica"] == {
        "replica-0": 10, "replica-1": 9, "replica-2": 10, "replica-3": 0,
    }
    assert hashlib.sha256(output.read_bytes()).hexdigest() == SPARSE_REPLICAS_GOLDEN


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


# (target, mode) -> (SHA-256 of the --output JSON, SHA-256 of stdout)
LIFT_GOLDEN = {
    ("gpt4_score", "insample"): (
        "d0d7e9a4280bbe77710e4475e81d8b77c6bb149bbb88c071bd05aad42a25764e",
        "e99999c85080cd66d11e91500d16f02e1942ea274523fe496c0098bc806b1180",
    ),
    ("gpt4_score", "loo"): (
        "a3b0f8dd8dd9f3d05adea79ff23cd22b731f7242771ea605aa7b4ea05680a860",
        "63f28806037a1bb823bde23d6ff9a3fa09c34a73902d592938de3fded5a3f42b",
    ),
    ("max_gpt4_lift", "insample"): (
        "e997e2cee6ad07f81cc59cd88da2665a147641b81a9a2da705087cf6a2343725",
        "bcbaed9e0c45dc1460488e09c76a0bc6508a521942e5fd0a2fedb829fa980acf",
    ),
    ("max_gpt4_lift", "loo"): (
        "209904ce6b84e2bedc7cdc4dbb5973fe3011f84a17929af43678bf749fdefc80",
        "2f3bf9b3d40573e6038abae6a0951eb6fb7fca72a6830de2713dacbe06290a14",
    ),
    ("avg_base_lift", "insample"): (
        "5e6cc18c4c72f77e56e7f132c6aabd974417b2531eeb14752967d68c576b0b95",
        "3a0ca6a03e563ad0c80159528fb7ef38c1003db79a8a26ab110a10c37f34bfce",
    ),
    ("avg_base_lift", "loo"): (
        "04cbf7292a1c8c7bb99796b89902c174dada47dd1fd8fdd07e275057043d35c0",
        "057e981e09d29601a61f1de8773a9a71a19e52d6ce26c2844d6a1b5b0d916528",
    ),
    ("best_base_score", "insample"): (
        "58ab83878a47ca1ac678d48cf4d388d1f04f17dc34fb02d18a1530e93e06176f",
        "755672900da227585586248e2e8ebcbf8f61dd08217e12d6546f918d30b10556",
    ),
    ("best_base_score", "loo"): (
        "715d1f1c23dcc18176f836e64fcb92ef0a26deed6a9213d71fdd9f01ce815dba",
        "60e6ff3678898986dfcd8fffa4cb4e17ac005f03a0f222fec775a1c75ab357cc",
    ),
    ("avg_base_score", "insample"): (
        "ab532d5e9f7b4aebd5ba6e81e1887de74e8fb788cf373b47d1e59af59a729e8e",
        "788b6d443a5ba44cf933084ec88e0f466604827b7fae3f53fac58ec4912d3365",
    ),
    ("avg_base_score", "loo"): (
        "1655abff13b91b57e1c9248a7af20577ae7897f9219f415a2947a7f7c9f0ba7f",
        "01fa85d571b11355ce01fb65ce29a446fd2fcf7b77f8c192e866ac3ecaa758fc",
    ),
    ("best_ft_score", "insample"): (
        "6ebfe1743f9d069b5b0030d60db8cebb8f6a1320dcf9a700ef23c225a45a86d6",
        "7f0a54406f9a4462b674f88beabe136b9339683ec13f5a810c9826c2a6beff82",
    ),
    ("best_ft_score", "loo"): (
        "40f8a4b78e866385a1a4dae0288fe3a61939820012babedb2e87553a9b07f673",
        "e7481c5ba5f5f578455677da5b578a0c2237ecfc286b9a53dfd701f2a1423187",
    ),
    ("avg_ft_score", "insample"): (
        "bd006bf26363b450e02d3fe6aae310d44eb1c717387aac0cb3db149503bbfa87",
        "f73489a77c975d318b2e2fcd5fac32a4bd721c8c5b12c0368ea4c66037bdcc90",
    ),
    ("avg_ft_score", "loo"): (
        "d28df9b3ba9fc282dc495d6466e33736e941f38562ec544c9cb0a5e00b32abb0",
        "ffe0ccbd7b84535d47243049a5ef42fc688d0751fbb47172a182c673c80c4c52",
    ),
}


@pytest.mark.parametrize(("target", "mode"), sorted(LIFT_GOLDEN))
def test_lift_output_hash_is_pinned(target, mode, tmp_path, capsys):
    output = tmp_path / "lift.json"
    argv = [
        "lift",
        "--profiles", str(bundled_fixture_path("task_profiles.csv")),
        "--quality", str(bundled_fixture_path("quality_records.csv")),
        "--target", target,
        "--mode", mode,
        "--output", str(output),
    ]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    hashes = (
        hashlib.sha256(output.read_bytes()).hexdigest(),
        hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
    )
    assert hashes == LIFT_GOLDEN[(target, mode)]
