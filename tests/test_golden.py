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
onto the feature vector, as well as the fits themselves.  Its 28 hashes
were re-pinned when ``lift`` gained the Pearson block after its weights and
the ``pearson_r`` JSON key.  With stdout cut at ``pearson r with`` and the
JSON re-dumped (``sort_keys``, ``indent=2``) without that key, every output
hashed to the table as it stood before, so nothing else moved.

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
        "b698ae49bf9513bb34e4dcf64a68440df2c9f45ba42b5832add7aef939577640",
        "dfc2756f9091f4a89c06d41b09a41c60e45afc63394e46bf9c456dcf63f030ed",
    ),
    ("gpt4_score", "loo"): (
        "fe49fce5b6abca21299989f0b41ba07a81e25ef9ba8c292e4d4fdedaa9657b61",
        "59e22ae037975b3e14b44dcf2532f5e50161587b29d80962bd05070a43595589",
    ),
    ("max_gpt4_lift", "insample"): (
        "eca9ade6b910d565ef513fd23e6265757394558a4d2c3a323591414dbf871b5b",
        "562348dbb351ddebd6d47407e46011d4a8150bf564d0356fd126053b4fa43144",
    ),
    ("max_gpt4_lift", "loo"): (
        "f05b052f7965781e7c3930e3ba6c706bcb8af77a33e61dffe5b6081a292567ab",
        "4c2d53a8cd23317bc867c3dbcfc133d2eca881e16fe561ffd65b2f3d6850a04f",
    ),
    ("avg_base_lift", "insample"): (
        "e1db768d645dcae21022a4bbb6f50edab61df7d78e2acbd87087cbd617c99065",
        "ebcdef24787dcc1a9d60c37511f56daf9767bc9d8abbf6f596c84ccc44c7e054",
    ),
    ("avg_base_lift", "loo"): (
        "96370ca8b5dd5b5e0e2919d5094bba9e1408cb59154d656dbc5418088738ff24",
        "57337740869cab9f0d7f2a7ece00fad54956d795b574560328cb0bddaf51f15d",
    ),
    ("best_base_score", "insample"): (
        "7614ab08044f1f296364466380edf06bacaf456341a831230d4abfbe2723f6c5",
        "58491695f42afbfac8ea11c83fdaa852ba6fbf9bda76213181d9e201d6c53c14",
    ),
    ("best_base_score", "loo"): (
        "ec1e78a7671c6caa57cd54882726039d4b6ed4c177428318f3aced41b1a8a478",
        "cef5b7a90d0029d7d45b5ef68a63c4d05ed19e7e9d1b5bfebd49c51f85dac9c8",
    ),
    ("avg_base_score", "insample"): (
        "a41780b582482cc0e10a469012eccc3ba61ae99ddf4da2c10a1e1d6fdcebd0cd",
        "f9aca38611412921e791ab6351c7b30456b4bde4014f5b5a5c69ddb5f452fb60",
    ),
    ("avg_base_score", "loo"): (
        "19ca749a277d38903ee26ef82b605e0fd97fc85c2d818273db8ef339b6b17c8e",
        "cf111974e6fe60bcee1622bd79292bd47ace03e70444350bd8cf212570a5c0b9",
    ),
    ("best_ft_score", "insample"): (
        "7060889a79db7144ce244498772424f5fcb9095f42b00d2f73b65e4bb1bec26d",
        "3c97d253e5aaf2f77c8232abbd2ea655a9615df4683407041442240e7b6ac99b",
    ),
    ("best_ft_score", "loo"): (
        "d57d2d76a109b9a4b945f15a54811ba7359faca1aafdfc0f595f8f3de65005e5",
        "ca59d0154833e3ebbd9894c8b3297e783b8e530dd14e398476ae56b9a831d01f",
    ),
    ("avg_ft_score", "insample"): (
        "453dd777d38453d73a44a89adda5df9c6fb7dc9c1c28a120d8f5b184c27f0d97",
        "15b9cd5ac040dc608e156acba70536d5b1e50c48d14e5c7e4d2e0e27a66f4684",
    ),
    ("avg_ft_score", "loo"): (
        "49676f7ee5df2b2e8109b6176503bd790a535c873f5388c1d204e28e3e46eb28",
        "d790cb4bfdee560cb4f4024f2f9758e311669d9199118f6a53df4f5e2f2bee2a",
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
