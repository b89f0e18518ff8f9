"""Task-complexity profiling and fine-tuning lift prediction.

Given a supervised text dataset, this module computes cheap structural
heuristics -- token-length distributions, input/output ROUGE-L similarity,
and DEFLATE compressibility.  ``adapterd lift`` relates them to one
model-quality metric: the Pearson r of each feature with it, and ordinary
least squares on z-scored features.  The regression predicts how much quality
lift adapter-based fine-tuning is likely to deliver for a task before any
training is run.

Conventions, applied consistently: whitespace tokenization (lowercased for
ROUGE), population standard deviation, and nearest-rank percentiles.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from dataclasses import astuple, dataclass, fields, is_dataclass
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Sequence, get_type_hints

from .metrics import percentile

# numpy is imported inside the lift fits only, so profiling never pays for it.
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "LenStats",
    "LiftModel",
    "MeanStd",
    "PROFILE_FEATURES",
    "QUALITY_METRICS",
    "QualityRecord",
    "TaskProfile",
    "bundled_fixture_path",
    "compressibility",
    "compute_profile",
    "fit_lift_model",
    "join_tasks",
    "load_examples_jsonl",
    "load_quality_records",
    "load_task_profiles",
    "loo_rmse",
    "pearson",
    "predict",
    "profile_features",
    "rmse",
    "rouge_l",
]


# ---------------------------------------------------------------------------
# Text heuristics


def rouge_l(candidate: str, reference: str) -> float:
    """LCS-based F1 between two texts (lowercased, whitespace-tokenized).

    Returns 0.0 when either text is empty or the sequences share no tokens.
    """
    cand = candidate.lower().split()
    ref = reference.lower().split()
    if not cand or not ref:
        return 0.0
    lcs = _lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    return 2 * precision * recall / (precision + recall)


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest-common-subsequence length by the bit-parallel recurrence.

    Allison and Dix (1986), in the form Hyyrö (2004) gives: bit i of
    ``masks[token]`` is set where the shorter sequence holds ``token`` at i,
    and ``row`` packs one row of the LCS table as differences.  Bit i is
    clear where the row steps up by one at position i, so the LCS is the
    number of clear bits.  Each token of the longer sequence costs a few
    word operations on ints of ``len(shorter)`` bits, in place of one
    interpreted step per table cell.
    """
    if len(b) < len(a):
        a, b = b, a
    masks: dict[str, int] = {}
    for i, token in enumerate(a):
        masks[token] = masks.get(token, 0) | (1 << i)
    full = (1 << len(a)) - 1
    row = full
    for match in map(masks.get, b):
        if match:
            low = row & match
            row = ((row + low) | (row - low)) & full
    return len(a) - row.bit_count()


def compressibility(text: str) -> float:
    """Compressed-to-original byte ratio of the UTF-8 encoding (gzip container).

    Smaller values mean more redundant text.  ``mtime`` is pinned so the ratio
    is a pure function of the text.
    """
    if not text:
        raise ValueError("compressibility of empty text is undefined")
    raw = text.encode("utf-8")
    compressed = gzip.compress(raw, mtime=0)
    return len(compressed) / len(raw)


# ---------------------------------------------------------------------------
# Profiles


@dataclass(frozen=True)
class LenStats:
    mean: float
    std: float
    p95: float


@dataclass(frozen=True)
class MeanStd:
    mean: float
    std: float


@dataclass(frozen=True)
class TaskProfile:
    """Structural heuristics for one supervised text dataset."""

    name: str
    n_examples: int
    input_len: LenStats
    output_len: LenStats
    example_len: LenStats
    io_rougeL: MeanStd
    compressibility: MeanStd


@dataclass(frozen=True)
class QualityRecord:
    """Observed model-quality metrics for one task."""

    name: str
    gpt4_score: float
    max_gpt4_lift: float
    avg_base_lift: float
    best_base_score: float
    avg_base_score: float
    best_ft_score: float
    avg_ft_score: float


def _csv_layout(record_type: type) -> tuple[tuple[type, tuple[str, ...]], ...]:
    """(type, CSV columns) of each field of ``record_type`` after ``name``.

    A field is one column, except that a stats group such as
    ``input_len: LenStats`` spans one ``<field>_<stat>`` column per stat.
    """
    return tuple(
        (kind, tuple(f"{name}_{f.name}" for f in fields(kind)) if is_dataclass(kind) else (name,))
        for name, kind in list(get_type_hints(record_type).items())[1:]
    )


# Computed once, so the loaders do not walk the types on every row.
_PROFILE_LAYOUT = _csv_layout(TaskProfile)
_QUALITY_LAYOUT = _csv_layout(QualityRecord)
PROFILE_FEATURES = tuple(chain.from_iterable(columns for _, columns in _PROFILE_LAYOUT))
QUALITY_METRICS = tuple(chain.from_iterable(columns for _, columns in _QUALITY_LAYOUT))


def _pop_std(values: Sequence[float], mean: float) -> float:
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def _len_stats(values: Sequence[float]) -> LenStats:
    mean = sum(values) / len(values)
    return LenStats(mean=mean, std=_pop_std(values, mean), p95=percentile(values, 0.95))


def _mean_std(values: Sequence[float]) -> MeanStd:
    mean = sum(values) / len(values)
    return MeanStd(mean=mean, std=_pop_std(values, mean))


def compute_profile(examples: Sequence[tuple[str, str]], name: str) -> TaskProfile:
    """Profile a dataset of (input, output) text pairs."""
    if not examples:
        raise ValueError("cannot profile an empty dataset")
    input_lens = [float(len(inp.split())) for inp, _ in examples]
    output_lens = [float(len(out.split())) for _, out in examples]
    example_lens = [i + o for i, o in zip(input_lens, output_lens)]
    rouges = [rouge_l(out, inp) for inp, out in examples]
    ratios = [compressibility(inp + "\n" + out) for inp, out in examples]
    return TaskProfile(
        name=name,
        n_examples=len(examples),
        input_len=_len_stats(input_lens),
        output_len=_len_stats(output_lens),
        example_len=_len_stats(example_lens),
        io_rougeL=_mean_std(rouges),
        compressibility=_mean_std(ratios),
    )


def profile_features(profile: TaskProfile) -> list[float]:
    """The profile as an ordered feature vector matching PROFILE_FEATURES."""
    n_examples, *groups = astuple(profile)[1:]
    return [float(n_examples), *chain.from_iterable(groups)]


# ---------------------------------------------------------------------------
# Statistics


def rmse(predicted: Sequence[float], actual: Sequence[float]) -> float:
    if len(predicted) != len(actual) or not predicted:
        raise ValueError("rmse requires equal non-empty vectors")
    return math.sqrt(
        sum((p - a) ** 2 for p, a in zip(predicted, actual)) / len(predicted)
    )


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Pearson correlation; None when either input has zero variance."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("pearson requires equal vectors of length >= 2")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return None
    return cov / math.sqrt(var_x * var_y)


# ---------------------------------------------------------------------------
# Regression


@dataclass(frozen=True)
class LiftModel:
    """Linear predictor of a quality metric from profile features.

    ``feature_means``/``feature_stds`` hold the z-scoring applied to each
    kept feature before the weights.
    """

    target: str
    feature_names: tuple[str, ...]
    weights: tuple[float, ...]
    intercept: float
    feature_means: tuple[float, ...]
    feature_stds: tuple[float, ...]
    train_rmse: float


# A row whose 1 - h_ii is at or below this has leverage 1: the other rows fit
# it exactly whatever its target, so it has no leave-one-out prediction.
_LEVERAGE_SLACK = 1e-9


def _zscored_design(
    matrix: Sequence[Sequence[float]], y: Sequence[float], feature_names: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validated design for a lift fit: z-scored columns, no constants, intercept last.

    Also returns the target vector and the kept columns' indices, means and stds.
    """
    import numpy as np

    if len(matrix) != len(y):
        raise ValueError(f"matrix has {len(matrix)} rows but y has {len(y)}")
    if len(y) < 2:
        raise ValueError("a lift fit requires at least 2 rows")
    data = np.asarray(matrix, dtype=float)
    if data.ndim != 2:
        raise ValueError("matrix rows must be equal-length feature vectors")
    if len(feature_names) != data.shape[1]:
        raise ValueError(f"{len(feature_names)} feature names for {data.shape[1]} columns")
    means = data.mean(axis=0)
    stds = data.std(axis=0)
    kept = np.flatnonzero(stds > 0)
    design = np.ones((len(y), len(kept) + 1))
    design[:, :-1] = (data[:, kept] - means[kept]) / stds[kept]
    return design, np.asarray(y, dtype=float), kept, means[kept], stds[kept]


def fit_lift_model(
    matrix: Sequence[Sequence[float]],
    y: Sequence[float],
    feature_names: tuple[str, ...],
    target: str,
) -> LiftModel:
    """Z-score the features (dropping constants), then least-squares fit.

    Rank-deficient systems get the minimum-norm solution.
    """
    import numpy as np

    design, target_values, kept, means, stds = _zscored_design(matrix, y, feature_names)
    solution, *_ = np.linalg.lstsq(design, target_values, rcond=None)
    return LiftModel(
        target=target,
        feature_names=tuple(feature_names[i] for i in kept),
        weights=tuple(float(w) for w in solution[:-1]),
        intercept=float(solution[-1]),
        feature_means=tuple(float(m) for m in means),
        feature_stds=tuple(float(s) for s in stds),
        train_rmse=rmse((design @ solution).tolist(), list(y)),
    )


def predict(model: LiftModel, features: Sequence[float]) -> float:
    """Apply the model's stored z-scoring and weights to one row of its features."""
    row = [float(v) for v in features]
    if len(row) != len(model.feature_names):
        raise ValueError(f"expected {len(model.feature_names)} features, got {len(row)}")
    total = model.intercept
    for value, weight, mean, std in zip(
        row, model.weights, model.feature_means, model.feature_stds
    ):
        total += weight * ((value - mean) / std)
    return total


def loo_rmse(
    matrix: Sequence[Sequence[float]],
    y: Sequence[float],
    feature_names: tuple[str, ...],
    target: str,
) -> float:
    """Leave-one-out RMSE of :func:`fit_lift_model` for the ``target`` metric.

    From one fit: with an intercept in the design, the refit without row i
    misses it by e_i / (1 - h_ii), where e is the full fit's residual and H =
    D pinv(D) its hat matrix (the PRESS identity), whatever each refit's
    z-scoring.  Raises ValueError when a row has leverage 1, so that no
    held-out prediction exists: when there are no more rows than design
    columns, or a feature varies in that row only.
    """
    import numpy as np

    design, target_values, *_ = _zscored_design(matrix, y, feature_names)
    if len(y) < 3:
        raise ValueError("leave-one-out requires at least 3 rows")
    hat = design @ np.linalg.pinv(design)
    free = 1.0 - np.diag(hat)
    stuck = np.flatnonzero(free <= _LEVERAGE_SLACK)
    if stuck.size:
        raise ValueError(
            f"leave-one-out is undefined: row {int(stuck[0])} of {len(y)} has leverage 1 "
            f"(the design has {design.shape[1]} columns, or a feature varies in that row only)"
        )
    loo_residual = (target_values - hat @ target_values) / free
    return float(np.sqrt(np.mean(loo_residual**2)))


def join_tasks(
    profiles: Sequence[TaskProfile], quality: Sequence[QualityRecord]
) -> list[tuple[TaskProfile, QualityRecord]]:
    """Profile/quality pairs in task-name order; ValueError if the name sets differ."""
    profile_by_name = {p.name: p for p in profiles}
    quality_by_name = {q.name: q for q in quality}
    if profile_by_name.keys() != quality_by_name.keys():
        only_profiles = sorted(profile_by_name.keys() - quality_by_name.keys())
        only_quality = sorted(quality_by_name.keys() - profile_by_name.keys())
        raise ValueError(
            f"task names differ: only in profiles {only_profiles}, only in quality {only_quality}"
        )
    return [(profile_by_name[name], quality_by_name[name]) for name in sorted(profile_by_name)]


# ---------------------------------------------------------------------------
# File formats


def bundled_fixture_path(name: str) -> Path:
    """Path to a data file shipped with the package."""
    return Path(str(resources.files(__package__) / "fixtures" / name))


def load_examples_jsonl(path: str | Path) -> list[tuple[str, str]]:
    """Read a JSON-lines dataset of {"input": ..., "output": ...} objects."""
    examples: list[tuple[str, str]] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict) or "input" not in obj or "output" not in obj:
                raise ValueError(
                    f"{path}:{line_no}: expected an object with 'input' and 'output'"
                )
            if not isinstance(obj["input"], str) or not isinstance(obj["output"], str):
                raise ValueError(f"{path}:{line_no}: 'input' and 'output' must be strings")
            examples.append((obj["input"], obj["output"]))
    return examples


def _load_csv(path: str | Path, record_type: type, layout: tuple) -> list:
    """One ``record_type`` per row of a CSV holding ``name`` and the layout's columns."""
    columns: list[str] = []
    spans = []  # (type, first column, end column) of each field, into a row's values
    for kind, group in layout:
        spans.append((kind, len(columns), len(columns) + len(group)))
        columns += group
    integral = [kind is int for kind, start, end in spans for _ in range(start, end)]
    records = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        required = {"name", *columns}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            missing = sorted(required - set(reader.fieldnames or ()))
            raise ValueError(f"{path}:1: missing columns: {', '.join(missing)}")
        for row in reader:  # reader.line_num is the row's line in the file
            values = []
            for column, is_int in zip(columns, integral):
                try:
                    value = float(row[column])
                except (TypeError, ValueError):
                    value = None
                if value is None or not math.isfinite(value) or is_int and not value.is_integer():
                    rule = "a number" if value is None else "an integer" if is_int else "finite"
                    raise ValueError(
                        f"{path}:{reader.line_num}: field '{column}' is not {rule}: {row[column]!r}"
                    )
                values.append(value)
            parts = [kind(*values[start:end]) for kind, start, end in spans]
            records.append(record_type(row["name"], *parts))
    return records


def load_task_profiles(path: str | Path) -> list[TaskProfile]:
    """Read task profiles from CSV: ``name`` plus one column per PROFILE_FEATURES entry."""
    return _load_csv(path, TaskProfile, _PROFILE_LAYOUT)


def load_quality_records(path: str | Path) -> list[QualityRecord]:
    """Read per-task quality metrics from CSV: ``name`` plus one column per metric."""
    return _load_csv(path, QualityRecord, _QUALITY_LAYOUT)
