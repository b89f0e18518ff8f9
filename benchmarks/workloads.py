"""The benchmark's four workloads, driven through adapterd's public entry points.

Each workload builds its inputs from the seed, then runs rounds: a fixed set
of operations, timed one by one, followed by their checks. The first time an
operation runs it is checked against ``oracles``; a repeat of the same
operation on the same input must then give identical output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import random
import statistics
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import oracles

SRC = Path(__file__).resolve().parent.parent / "src"

# Imported by run.py once it has put the checkout's src/ first on sys.path.
import adapterd.cli as cli  # noqa: E402
import adapterd.core as core  # noqa: E402
import adapterd.gateway as gateway  # noqa: E402
import adapterd.profiler as profiler  # noqa: E402

# The quantile a run reports for round time and op latency (and 1 - it for the
# work rate). When every op is a fixed amount of host work, the spread of op
# times within a run is the host's speed: it jumps between a common contended
# level and brief faster spells whose share changes from run to run, so the
# level nine ops in ten stay within is steady between runs where the median
# is not. Where the latency model paces the ops, the median is the steady one.
HOST_PACED = 0.9
MODEL_PACED = 0.5


@dataclass
class Round:
    seconds: float = 0.0
    op_seconds: list[float] = field(default_factory=list)
    work: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)


def sub_seed(seed: int, index: int) -> int:
    """A distinct 63-bit seed per (run seed, index), reproducible across runs."""
    return oracles.mix64((seed * 1_000_003 + index) & oracles.MASK64) >> 1


def _child(setup: str, teardown: str = "") -> str:
    """Source for a set-up child: put src/ first on the path, time ``setup``, print it."""
    return (
        f"import sys, time\nsys.path.insert(0, {str(SRC)!r})\nstart = time.perf_counter()\n"
        f"{setup}\nprint(repr(time.perf_counter() - start))\n{teardown}\n"
    )


# -- virtual workloads ------------------------------------------------------------


class Simulate:
    """``adapterd simulate`` on a generated scenario, at several seeds per round."""

    work_unit = "requests"
    level = HOST_PACED

    def __init__(self, seed: int, out: Path, scenario: dict, seeds_per_round: int) -> None:
        self.engine = {**core.EngineConfig().to_dict(), **scenario["engine"]}
        self.workload = scenario["workload"]
        self.seeds = [sub_seed(seed, k) for k in range(seeds_per_round)]
        self.path = out / f"scenario-{scenario['name']}.json"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(scenario, indent=2), encoding="utf-8")
        self._digests: dict[int, int] = {}
        self._reports: list = []
        run = cli.run

        def capture(*args, **kwargs):  # keeps each simulate run's report for the checks
            report = run(*args, **kwargs)
            self._reports.append(report)
            return report

        cli.run = capture
        self._restore = lambda: setattr(cli, "run", run)

    def setup_code(self) -> str:
        return _child(f"import adapterd.cli\nadapterd.cli._resolve_scenario({str(self.path)!r})")

    def check(self, report, seed: int) -> list[str]:
        return oracles.check_virtual_report(report, self.engine, self.workload["n_adapters"])

    def work(self, report) -> float:
        return report.summary["completed"]

    def run_round(self) -> Round:
        rnd = Round()
        reports = []
        start = time.perf_counter()
        for seed in self.seeds:
            sink = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                code = cli.main(["simulate", str(self.path), "--seed", str(seed)])
            rnd.op_seconds.append(time.perf_counter() - t0)
            reports.append((seed, code, self._reports.pop()))
        rnd.seconds = time.perf_counter() - start
        for seed, code, report in reports:
            rnd.attempted += 1
            digest = hash((report.records, json.dumps(report.summary, sort_keys=True),
                           tuple(sorted(report.cache.items()))))
            if code != 0:
                problems = [f"exit code {code}"]
            elif seed not in self._digests:
                problems = self.check(report, seed)
                self._digests[seed] = digest
            elif digest != self._digests[seed]:
                problems = ["records differ from an earlier run of the same seed"]
            else:
                problems = []
            if problems:
                rnd.failed += 1
                rnd.failures += [f"seed {seed}: {p}" for p in problems[:3]]
            rnd.work += self.work(report)
            for key in ("completed", "discarded"):
                rnd.counts[f"engine.{key}"] = rnd.counts.get(f"engine.{key}", 0) + report.summary[key]
            tokens = sum(r.output_tokens_emitted for r in report.records)
            rnd.counts["engine.tokens"] = rnd.counts.get("engine.tokens", 0) + tokens
        return rnd

    def close(self) -> None:
        self._restore()


class WarmOneToken(Simulate):
    """table8's engine and workload blocks, cut to 12 s of virtual time."""

    def __init__(self, seed: int, out: Path) -> None:
        table8 = json.loads((SRC / "adapterd" / "scenarios" / "table8.json").read_text())
        table8["name"] = "warm-one-token"
        table8["workload"]["duration_ms"] = 12_000.0
        super().__init__(seed, out, table8, seeds_per_round=3)

    def check(self, report, seed: int) -> list[str]:
        w = self.workload
        return super().check(report, seed) + oracles.check_first_adapters(
            report.records, seed, w["users"], w["n_adapters"],
            (w["input_tokens_min"], w["input_tokens_max"]),
            (w["output_tokens_min"], w["output_tokens_max"]),
        )


class AdapterChurn(Simulate):
    """Cold start, 300 users drawing uniformly from 2,000 adapters, default engine."""

    work_unit = "tokens"

    def __init__(self, seed: int, out: Path) -> None:
        scenario = {
            "name": "adapter-churn",
            "engine": {},
            "workload": {
                "n_adapters": 2000, "users": 300, "duration_ms": 10_000.0,
                "input_tokens_min": 30, "input_tokens_max": 500,
                "output_tokens_min": 1, "output_tokens_max": 120, "seed": 0,
            },
        }
        super().__init__(seed, out, scenario, seeds_per_round=3)

    def check(self, report, seed: int) -> list[str]:
        return super().check(report, seed) + oracles.check_cold_fetch(report.records, self.engine)

    def work(self, report) -> float:
        return sum(r.output_tokens_emitted for r in report.records)


# -- live stream ------------------------------------------------------------------

LATENCY_SCALE = 10.0
_LATENCY_FIELDS = (
    "t_download_ms", "t_disk_to_cpu_ms", "t_cpu_to_gpu_ms", "decode_base_ms",
    "decode_per_seq_ms", "prefill_base_ms", "prefill_per_token_ms", "switch_overhead_ms",
)


def scaled_engine() -> core.EngineConfig:
    base = core.EngineConfig()
    return core.EngineConfig(**{
        **base.to_dict(),
        **{name: getattr(base, name) / LATENCY_SCALE for name in _LATENCY_FIELDS},
    })


class LiveStream:
    """One ``bench`` user and one ``/v1/metrics`` scraper against an in-process server."""

    work_unit = "tokens"
    level = MODEL_PACED
    adapters = 25
    round_ms = 2000.0
    scrape_interval_s = 0.1
    input_range = (30, 500)
    output_range = (1, 120)

    def __init__(self, seed: int, out: Path) -> None:
        self.seed = seed
        config = scaled_engine()
        self.engine = config.to_dict()
        names = [core.adapter_name(i) for i in range(self.adapters)]
        self.server = gateway.start_server(config, port=0, adapters=names, prewarm=True)
        self.rounds = 0
        self.scraped: list[int] = []

    def setup_code(self) -> str:
        return _child(
            "import urllib.request\nimport adapterd.core as core\n"
            "from adapterd.gateway import start_server\n"
            f"config = core.EngineConfig(**{self.engine!r})\n"
            f"names = [core.adapter_name(i) for i in range({self.adapters})]\n"
            "server = start_server(config, port=0, adapters=names, prewarm=True)\n"
            "urllib.request.urlopen(server.url + '/healthz', timeout=10).read()",
            # Exiting at once ends the child's server threads and closes its socket,
            # without waiting out the HTTP server's half-second shutdown poll.
            teardown="import os\nsys.stdout.flush()\nos._exit(0)",
        )

    def _scrape(self, stop: threading.Event, latencies: list[float], counts: list[int],
                problems: list[str]) -> None:
        url = self.server.url + "/v1/metrics"
        due = time.perf_counter()
        while not stop.is_set():
            t0 = time.perf_counter()
            try:
                with urllib.request.urlopen(url, timeout=10) as response:
                    body = json.loads(response.read())
                counts.append(int(body["summary"]["request_count"]))
            except (OSError, ValueError, KeyError, TypeError) as error:
                problems.append(f"scrape failed: {error!r}")
            latencies.append(time.perf_counter() - t0)
            due += self.scrape_interval_s
            stop.wait(max(0.0, due - time.perf_counter()))

    def run_round(self) -> Round:
        rnd = Round()
        seed = sub_seed(self.seed, self.rounds)
        self.rounds += 1
        workload = core.WorkloadConfig(
            n_adapters=self.adapters, users=1, duration_ms=self.round_ms,
            input_tokens_min=self.input_range[0], input_tokens_max=self.input_range[1],
            output_tokens_min=self.output_range[0], output_tokens_max=self.output_range[1],
            seed=seed,
        )
        before = len(self.server.engine.report().records)
        stop = threading.Event()
        latencies: list[float] = []
        problems: list[str] = []
        scraper = threading.Thread(target=self._scrape, args=(stop, latencies, self.scraped, problems))
        scraper.start()
        start = time.perf_counter()
        report = gateway.bench(gateway.ReplicaSet(endpoints=(self.server.url,)), workload)
        rnd.seconds = time.perf_counter() - start
        stop.set()
        scraper.join()
        served = self.server.engine.report().records[before:]

        summary = report.summary
        records = report.records or ()
        expected = {
            f"u000-{i + 1:05d}": payload
            for i, payload in enumerate(oracles.expected_payloads(
                seed, 0, summary["submitted"], self.adapters, self.input_range, self.output_range))
        }
        # Each failure line starts with its request id; a request fails once however many checks it fails.
        bad = {f.split(":")[0] for f in oracles.check_live_records(records, expected, self.engine)}
        rnd.attempted = summary["submitted"]
        rnd.failed = summary["failure_count"] + len(bad)
        rnd.failures += sorted(bad)[:3]
        if len(served) != summary["completed"]:
            problems.append(f"server completed {len(served)}, client {summary['completed']}")
        problems += oracles.check_scrapes(self.scraped)
        rnd.failures += problems
        ttft = [r.first_token_ms - r.submit_ms for r in records]
        rnd.op_seconds = [t / 1000.0 for t in ttft]
        rnd.work = sum(r.output_tokens_emitted for r in records)
        rnd.counts = {"gateway.requests": summary["completed"], "gateway.tokens": rnd.work}
        rnd.samples = {
            "client_ttft_ms": ttft,
            "client_gap_ms": _gaps(records),
            "engine_ttft_ms": [r.first_token_ms - r.submit_ms for r in served],
            "engine_gap_ms": _gaps(served),
            "scrape_ms": [s * 1000.0 for s in latencies],
        }
        return rnd

    def close(self) -> None:
        self.server.stop()


def _gaps(records) -> list[float]:
    """Mean gap between tokens of each multi-token response."""
    return [
        (r.last_token_ms - r.first_token_ms) / (r.output_tokens_emitted - 1)
        for r in records if r.output_tokens_emitted > 1
    ]


# -- profile and lift -------------------------------------------------------------

EXAMPLES_PER_TASK = 20
_VOCAB = [f"w{i}" for i in range(4000)]
_VOCAB_CUM = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(len(_VOCAB))))
_COPY_SHARE = 0.3


def _lognormal_lengths(rng: random.Random, mean: float, std: float, n: int) -> list[int]:
    """n lengths with the given mean and std, one from each of n equal-probability strata."""
    if std <= 0:
        return [max(1, round(mean))] * n
    sigma = math.sqrt(math.log(1 + (std / mean) ** 2))
    mu = math.log(mean) - sigma * sigma / 2
    normal = statistics.NormalDist()
    lengths = [
        max(1, round(math.exp(mu + sigma * normal.inv_cdf((i + rng.uniform(0.25, 0.75)) / n))))
        for i in range(n)
    ]
    rng.shuffle(lengths)
    return lengths


def synthetic_task(rng: random.Random, row: dict, n: int) -> list[tuple[str, str]]:
    """Examples whose input and output lengths follow one row of task_profiles.csv.

    Words come from a Zipf-like vocabulary; about 30% of output words copy an
    input word, so input/output ROUGE-L is not trivially zero.
    """
    ins = _lognormal_lengths(rng, float(row["input_len_mean"]), float(row["input_len_std"]), n)
    outs = _lognormal_lengths(rng, float(row["output_len_mean"]), float(row["output_len_std"]), n)
    examples = []
    for n_in, n_out in zip(ins, outs):
        words = rng.choices(_VOCAB, cum_weights=_VOCAB_CUM, k=n_in)
        out = [rng.choice(words) if rng.random() < _COPY_SHARE else w
               for w in rng.choices(_VOCAB, cum_weights=_VOCAB_CUM, k=n_out)]
        examples.append((" ".join(words), " ".join(out)))
    return examples


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class ProfileLift:
    """compute_profile over 31 synthetic tasks, then every lift fit and LOO on the fixture."""

    work_unit = "examples"
    level = HOST_PACED

    def __init__(self, seed: int, out: Path) -> None:
        fixtures = SRC / "adapterd" / "fixtures"
        rows = _read_csv(fixtures / "task_profiles.csv")
        quality = {q["name"]: q for q in _read_csv(fixtures / "quality_records.csv")}
        self.tasks = [
            (row["name"], synthetic_task(random.Random(sub_seed(seed, i)), row, EXAMPLES_PER_TASK))
            for i, row in enumerate(rows)
        ]
        features = tuple(profiler.PROFILE_FEATURES)
        by_name = {row["name"]: row for row in rows}
        names = sorted(by_name)
        matrix = [[float(by_name[n][f]) for f in features] for n in names]
        base = [float(quality[n]["avg_base_score"]) for n in names]
        self.cases = []
        for target in profiler.QUALITY_METRICS:
            y = [float(quality[n][target]) for n in names]
            self.cases.append((target, matrix, y, features, target))
            self.cases.append((f"{target}+avg_base_score", [r + [b] for r, b in zip(matrix, base)],
                               y, features + ("avg_base_score",), target))
        self._seen: dict[str, object] = {}

    def setup_code(self) -> str:
        return _child(
            "import adapterd.profiler as p\n"
            "p.load_task_profiles(p.bundled_fixture_path('task_profiles.csv'))\n"
            "p.load_quality_records(p.bundled_fixture_path('quality_records.csv'))"
        )

    def _judge(self, rnd: Round, key: str, output, first_check) -> None:
        rnd.attempted += 1
        if key in self._seen:
            problems = [] if output == self._seen[key] else [f"{key}: differs from its first run"]
        else:
            problems = first_check()
            self._seen[key] = output
        if problems:
            rnd.failed += 1
            rnd.failures += problems[:3]

    def run_round(self) -> Round:
        rnd = Round()
        profiles = []
        start = time.perf_counter()
        for name, examples in self.tasks:
            t0 = time.perf_counter()
            profiles.append(profiler.compute_profile(examples, name))
            rnd.op_seconds.append(time.perf_counter() - t0)
        fits = [
            (profiler.fit_lift_model(m, y, names, target).train_rmse,
             profiler.loo_rmse(m, y, names, target))
            for _label, m, y, names, target in self.cases
        ]
        rnd.seconds = time.perf_counter() - start
        for (name, examples), profile in zip(self.tasks, profiles):
            self._judge(rnd, name, profile,
                        lambda: oracles.check_profile(profile, examples, profiler.rouge_l))
            rnd.work += len(examples)
        for (label, m, y, _names, _t), (train, loo) in zip(self.cases, fits):
            self._judge(rnd, label, (train, loo), lambda: oracles.check_lift(train, loo, m, y, label))
        return rnd

    def close(self) -> None:
        pass


WORKLOADS = {
    "warm-one-token": WarmOneToken,
    "adapter-churn": AdapterChurn,
    "live-stream": LiveStream,
    "profile-lift": ProfileLift,
}
