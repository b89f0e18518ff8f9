"""Task-complexity profiling, lift-regression and Pearson-correlation oracles.

The frozen regression expectations come from the bundled 31-task fixture
CSVs; the RMSEs they produce were verified against an independent numpy
computation before being pinned here.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from adapterd.cli import main
from adapterd.profiler import (
    PROFILE_FEATURES,
    QUALITY_METRICS,
    QualityRecord,
    bundled_fixture_path,
    compressibility,
    compute_profile,
    fit_lift_model,
    join_tasks,
    load_quality_records,
    load_task_profiles,
    loo_rmse,
    pearson,
    predict,
    profile_features,
    rmse,
    rouge_l,
)

# ---------------------------------------------------------------------------
# rouge_l


def test_rouge_identical_nonempty():
    assert rouge_l("alpha beta gamma", "alpha beta gamma") == 1.0


def test_rouge_partial_overlap():
    assert rouge_l("the cat sat", "the dog sat") == pytest.approx(2 / 3, abs=1e-12)


def test_rouge_subset_asymmetric_lengths():
    # L=1, precision 1/1, recall 1/2 -> F1 = 2/3.
    assert rouge_l("a", "a b") == pytest.approx(2 / 3, abs=1e-12)


def test_rouge_disjoint_and_empty():
    assert rouge_l("x y z", "p q r") == 0.0
    assert rouge_l("", "a b") == 0.0
    assert rouge_l("a b", "") == 0.0
    assert rouge_l("", "") == 0.0


def test_rouge_case_insensitive():
    assert rouge_l("The Cat", "the cat") == 1.0


def test_rouge_f1_symmetric():
    pairs = [("a b c d", "b d e"), ("x", "x y z"), ("m n o p q", "q p o n m")]
    for cand, ref in pairs:
        assert rouge_l(cand, ref) == pytest.approx(rouge_l(ref, cand), abs=1e-12)


def dp_lcs(a: list[str], b: list[str]) -> int:
    """O(len(a) * len(b)) dynamic-programming LCS, the reference for the bit-parallel one."""
    previous = [0] * (len(b) + 1)
    for token_a in a:
        current = [0]
        for j, token_b in enumerate(b):
            if token_a == token_b:
                current.append(previous[j] + 1)
            else:
                current.append(max(previous[j + 1], current[j]))
        previous = current
    return previous[-1]


def dp_f1(candidate: str, reference: str) -> float:
    """ROUGE-L F1 written out from the DP: the exact value rouge_l must return."""
    cand = candidate.lower().split()
    ref = reference.lower().split()
    length = dp_lcs(cand, ref)
    if length == 0:
        return 0.0
    precision = length / len(cand)
    recall = length / len(ref)
    return 2 * precision * recall / (precision + recall)


def test_rouge_matches_lcs_oracle_on_random_pairs():
    rng = random.Random(20260814)
    vocab = ["red", "blue", "green", "cyan", "plum", "gold", "teal", "rust"]
    for _ in range(1000):
        a = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
        b = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
        assert rouge_l(a, b) == dp_f1(a, b)


_MIXED_VOCAB = ["the", "cat", "sat", "on", "mat", "a", "dog", "ran", "far", "away",
                "red", "blue", "green", "cyan", "plum", "gold", "teal", "rust", "x", "y"]

# Lengths on and beside the 64- and 128-bit word edges of the row bitmask.
_WORD_EDGES = (0, 1, 2, 63, 64, 65, 127, 128, 129)


def _mixed_case_text(rng: random.Random, vocab: list[str], n: int) -> str:
    words = (rng.choice(vocab) for _ in range(n))
    return " ".join(rng.choice((w, w, w, w.upper(), w.title())) for w in words)


def test_rouge_equals_dp_on_lengths_up_to_600_and_word_edges():
    rng = random.Random(600)
    lengths = [(a, b) for a in _WORD_EDGES for b in _WORD_EDGES]
    lengths += [(rng.randint(0, 600), rng.randint(0, 600)) for _ in range(24)]
    lengths += [(rng.randint(0, 80), rng.randint(0, 80)) for _ in range(96)]
    for i, (n_cand, n_ref) in enumerate(lengths):
        vocab = _MIXED_VOCAB[: rng.randint(2, 20)]
        cand = _mixed_case_text(rng, vocab, n_cand)
        ref = _mixed_case_text(rng, vocab, n_ref)
        if i % 3 == 0 and n_cand:
            # Start the reference with a run copied from the candidate, so the LCS is long.
            start = rng.randrange(n_cand)
            ref = " ".join((cand.split()[start:start + n_ref] + ref.split())[:n_ref])
        assert rouge_l(cand, ref) == dp_f1(cand, ref), (n_cand, n_ref, len(vocab))
        assert rouge_l(ref, cand) == dp_f1(ref, cand), (n_ref, n_cand, len(vocab))
        assert rouge_l(cand, "") == rouge_l("", cand) == 0.0


# ---------------------------------------------------------------------------
# compressibility


def test_compressibility_repetitive_text():
    assert compressibility("a" * 1000) < 0.05


def test_compressibility_empty_rejected():
    with pytest.raises(ValueError):
        compressibility("")


def test_compressibility_deterministic():
    text = "the quick brown fox jumps over the lazy dog. " * 4
    assert compressibility(text) == compressibility(text)


# ---------------------------------------------------------------------------
# compute_profile


def test_compute_profile_single_example():
    profile = compute_profile([("a b", "a")], "tiny")
    assert profile.name == "tiny"
    assert profile.n_examples == 1
    assert profile.input_len.mean == 2 and profile.input_len.std == 0
    assert profile.input_len.p95 == 2
    assert profile.output_len.mean == 1
    assert profile.example_len.mean == 3 and profile.example_len.p95 == 3
    assert profile.io_rougeL.mean == pytest.approx(2 / 3, abs=1e-12)
    assert profile.io_rougeL.std == 0.0
    assert 0 < profile.compressibility.mean


def test_compute_profile_duplication_invariant():
    examples = [("one two three", "four five")]
    single = compute_profile(examples, "t")
    repeated = compute_profile(examples * 7, "t")
    assert repeated.n_examples == 7
    assert repeated.input_len == single.input_len
    assert repeated.output_len == single.output_len
    assert repeated.io_rougeL == single.io_rougeL
    assert repeated.compressibility == single.compressibility


def test_compute_profile_matches_independent_recomputation():
    rng = random.Random(7)
    vocab = ["data", "model", "train", "test", "batch", "loss", "cache", "token"]
    examples = []
    for _ in range(100):
        inp = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 30)))
        out = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 10)))
        examples.append((inp, out))
    profile = compute_profile(examples, "synthetic")
    in_lens = np.array([len(i.split()) for i, _ in examples], dtype=float)
    out_lens = np.array([len(o.split()) for _, o in examples], dtype=float)
    ex_lens = in_lens + out_lens
    assert profile.input_len.mean == pytest.approx(in_lens.mean(), abs=1e-12)
    assert profile.input_len.std == pytest.approx(in_lens.std(), abs=1e-12)
    assert profile.input_len.p95 == np.sort(in_lens)[math.ceil(0.95 * 100) - 1]
    assert profile.output_len.std == pytest.approx(out_lens.std(), abs=1e-12)
    assert profile.example_len.mean == pytest.approx(ex_lens.mean(), abs=1e-12)
    rouges = np.array([rouge_l(o, i) for i, o in examples])
    assert profile.io_rougeL.mean == pytest.approx(rouges.mean(), abs=1e-12)
    assert profile.io_rougeL.std == pytest.approx(rouges.std(), abs=1e-12)


def test_compute_profile_empty_rejected():
    with pytest.raises(ValueError):
        compute_profile([], "nothing")


# ---------------------------------------------------------------------------
# fit_lift_model (z-scoring, least squares) / predict / rmse / pearson


def _fit(matrix, y, names=None):
    names = names or tuple(f"x{i}" for i in range(len(matrix[0])))
    return fit_lift_model(matrix, y, names, "y")


def test_zscore_reference_column():
    model = _fit([[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0])
    assert model.feature_means == pytest.approx((2.0,))
    assert model.feature_stds == pytest.approx((0.816496580927726,), abs=1e-12)
    column = [(x - model.feature_means[0]) / model.feature_stds[0] for x in (1.0, 2.0, 3.0)]
    assert column == pytest.approx([-1.224744871391589, 0.0, 1.224744871391589], abs=1e-12)
    # y equals the raw column, so the z-scored weight is the column's std.
    assert model.weights == pytest.approx((0.816496580927726,), abs=1e-12)
    assert model.intercept == pytest.approx(2.0, abs=1e-12)


def test_zscore_drops_constant_column():
    model = _fit([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]], [1.0, 0.0, 2.0], ("a", "constant"))
    assert model.feature_names == ("a",)
    assert len(model.weights) == len(model.feature_means) == len(model.feature_stds) == 1
    assert predict(model, [2.0]) == pytest.approx(1.0, abs=1e-12)


def test_zscore_output_has_zero_mean_unit_std():
    rng = random.Random(3)
    matrix = [[rng.uniform(-5, 5) for _ in range(4)] for _ in range(40)]
    model = _fit(matrix, [rng.uniform(-1, 1) for _ in range(40)])
    cols = np.array(matrix)
    assert np.allclose(model.feature_means, cols.mean(axis=0), rtol=0, atol=1e-12)
    assert np.allclose(model.feature_stds, cols.std(axis=0), rtol=0, atol=1e-12)
    # The same z-scoring that predict applies leaves each column at mean 0 / std 1.
    z = (cols - np.array(model.feature_means)) / np.array(model.feature_stds)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)


def test_zscore_requires_two_rows():
    with pytest.raises(ValueError):
        _fit([[1.0, 2.0]], [1.0])


def test_fit_ols_exact_line():
    model = _fit([[1.0], [2.0], [3.0]], [3.0, 5.0, 7.0])
    assert model.weights[0] / model.feature_stds[0] == pytest.approx(2.0, abs=1e-9)
    assert model.intercept == pytest.approx(5.0, abs=1e-9)  # mean y at the mean x
    assert model.train_rmse == pytest.approx(0.0, abs=1e-9)
    assert predict(model, [4.0]) == pytest.approx(9.0, abs=1e-9)


def test_fit_ols_constant_target():
    model = _fit([[1.0], [2.0], [3.0]], [5.0, 5.0, 5.0])
    assert model.weights[0] == pytest.approx(0.0, abs=1e-9)
    assert model.intercept == pytest.approx(5.0, abs=1e-9)


def test_fit_ols_dimension_mismatch():
    with pytest.raises(ValueError, match="rows"):
        _fit([[1.0], [2.0]], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="feature names"):
        fit_lift_model([[1.0], [2.0]], [1.0, 2.0], ("a", "b"), "y")
    with pytest.raises(ValueError, match="equal-length"):
        fit_lift_model([1.0, 2.0], [1.0, 2.0], ("a",), "y")


def test_planted_noiseless_model_recovered():
    rng = random.Random(31)
    true_weights = [0.4, -1.1, 2.5, 0.0, 0.75]
    rows = [[rng.uniform(-2, 2) for _ in range(5)] for _ in range(31)]
    y = [sum(w * x for w, x in zip(true_weights, row)) + 0.3 for row in rows]
    model = _fit(rows, y)
    # A weight on a z-scored column is the raw-scale weight times that column's std.
    for got, std, want in zip(model.weights, model.feature_stds, true_weights):
        assert got / std == pytest.approx(want, abs=1e-9)
    raw_intercept = model.intercept - sum(
        w / s * m for w, s, m in zip(model.weights, model.feature_stds, model.feature_means)
    )
    assert raw_intercept == pytest.approx(0.3, abs=1e-9)
    for row, target in zip(rows, y):
        assert predict(model, row) == pytest.approx(target, abs=1e-9)


def test_predict_missing_feature_rejected():
    model = _fit([[1.0], [2.0]], [1.0, 2.0], ("width",))
    assert predict(model, [1.0]) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        predict(model, [])
    with pytest.raises(ValueError):
        predict(model, [1.0, 2.0])


def test_rmse_reference():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-12)
    with pytest.raises(ValueError):
        rmse([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        rmse([], [])


def test_rmse_homogeneity():
    predicted = [1.0, -2.0, 3.5]
    actual = [0.5, 1.0, -1.0]
    base = rmse(predicted, actual)
    scaled = rmse([3 * p for p in predicted], [3 * a for a in actual])
    assert scaled == pytest.approx(3 * base, rel=1e-12)


def test_pearson_references():
    assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == pytest.approx(-1.0, abs=1e-12)
    assert pearson([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5, abs=1e-12)


def test_pearson_zero_variance_undefined():
    assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None


def test_pearson_planted_correlation_recovered():
    rng = random.Random(99)
    xs, ys = [], []
    rho = 0.9
    for _ in range(1000):
        x = rng.gauss(0, 1)
        noise = rng.gauss(0, 1)
        xs.append(x)
        ys.append(rho * x + math.sqrt(1 - rho * rho) * noise)
    assert pearson(xs, ys) == pytest.approx(rho, abs=0.05)


# ---------------------------------------------------------------------------
# fixtures, lift pipeline


def test_fixture_loads_31_tasks_with_identities():
    profiles = load_task_profiles(bundled_fixture_path("task_profiles.csv"))
    quality = load_quality_records(bundled_fixture_path("quality_records.csv"))
    assert len(profiles) == 31 and len(quality) == 31
    assert [p.name for p in profiles] == [q.name for q in quality]
    for q in quality:
        # Lift columns are rounded to 3 decimals in the source material.
        assert q.max_gpt4_lift == pytest.approx(q.best_ft_score - q.gpt4_score, abs=2e-3)
        assert q.avg_base_lift == pytest.approx(q.avg_ft_score - q.avg_base_score, abs=2e-3)
    for p in profiles:
        assert p.n_examples >= 1
        assert 0.366 <= p.compressibility.mean <= 0.748
        assert p.input_len.std >= 0 and p.output_len.std >= 0


def test_profile_csv_round_trips_through_the_feature_vector(tmp_path):
    """Writing profile_features under PROFILE_FEATURES and reading it back gives
    the profiles again, so the reader and the feature vector agree column by column."""
    profiles = load_task_profiles(bundled_fixture_path("task_profiles.csv"))
    profiles.append(compute_profile([("a b c a", "b a"), ("x y", "y y z w")], "computed"))
    # Columns reversed, so a reader that went by position would fail.
    header = ["name", *PROFILE_FEATURES][::-1]
    lines = [",".join(header)]
    for profile in profiles:
        row = [profile.name, *map(repr, profile_features(profile))]
        lines.append(",".join(row[::-1]))
    path = tmp_path / "profiles.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    loaded = load_task_profiles(path)
    assert loaded == profiles
    assert all(type(p.n_examples) is int for p in loaded)


def _lift_pearson_r(tmp_path, capsys, target, profiles=None, quality=None):
    """The ``pearson_r`` object of ``adapterd lift --output`` (bundled CSVs by default).

    Also checks that stdout ends with the same values, ``n/a`` for ``null``.
    """
    output = tmp_path / "lift.json"
    argv = [
        "lift",
        "--profiles", str(profiles or bundled_fixture_path("task_profiles.csv")),
        "--quality", str(quality or bundled_fixture_path("quality_records.csv")),
        "--target", target,
        "--output", str(output),
    ]
    assert main(argv) == 0
    correlations = json.loads(output.read_text(encoding="utf-8"))["pearson_r"]
    printed = capsys.readouterr().out.split(f"pearson r with {target} (profile features):\n")
    in_order = [(feature, correlations[feature]) for feature in PROFILE_FEATURES]
    assert printed[1].splitlines() == [
        f"  {feature:<24}" + ("n/a" if r is None else f"{r:+.4f}") for feature, r in in_order
    ]
    return correlations


def test_correlation_report_two_tasks_all_extreme(tmp_path, capsys):
    copies = []
    for name in ("task_profiles.csv", "quality_records.csv"):
        lines = bundled_fixture_path(name).read_text(encoding="utf-8").splitlines()
        copies.append(tmp_path / name)
        copies[-1].write_text("\n".join(lines[:3]) + "\n", encoding="utf-8")
    for target in QUALITY_METRICS:
        correlations = _lift_pearson_r(tmp_path, capsys, target, *copies)
        assert list(correlations) == sorted(PROFILE_FEATURES)
        for value in correlations.values():
            assert value is None or abs(value) == pytest.approx(1.0, abs=1e-9)


def test_fixture_compressibility_correlates_with_base_score(tmp_path, capsys):
    value = _lift_pearson_r(tmp_path, capsys, "avg_base_score")["compressibility_mean"]
    assert value is not None and value > 0
    assert value == pytest.approx(0.4008, abs=1e-3)


def _profiles_csv(tmp_path, constant_column):
    """The bundled profile CSV, or a copy with ``constant_column`` set to 1 in every row."""
    path = bundled_fixture_path("task_profiles.csv")
    if constant_column is None:
        return path
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    index = rows[0].index(constant_column)
    for row in rows[1:]:
        row[index] = "1"
    copy = tmp_path / "task_profiles.csv"
    copy.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    return copy


@pytest.mark.parametrize("constant_column", [None, "output_len_std"], ids=["bundled", "constant"])
def test_pearson_r_matches_numpy_corrcoef(tmp_path, capsys, constant_column):
    """Each feature's r with each metric is numpy's, and None exactly at a constant feature."""
    profiles_csv = _profiles_csv(tmp_path, constant_column)
    pairs = join_tasks(
        load_task_profiles(profiles_csv),
        load_quality_records(bundled_fixture_path("quality_records.csv")),
    )
    features = np.array([profile_features(p) for p, _ in pairs])
    for metric in QUALITY_METRICS:
        correlations = _lift_pearson_r(tmp_path, capsys, metric, profiles=profiles_csv)
        y = np.array([getattr(q, metric) for _, q in pairs])
        for i, feature in enumerate(PROFILE_FEATURES):
            got = correlations[feature]
            if np.ptp(features[:, i]) == 0:
                assert got is None, (feature, metric)
            else:
                want = np.corrcoef(features[:, i], y)[0, 1]
                assert got == pytest.approx(want, abs=1e-12), (feature, metric)


_EXPECTED_RMSE = {
    # target: (without avg_base_score feature, with it), frozen from an
    # independent numpy fit over the bundled fixture.
    "gpt4_score": (0.140, 0.121),
    "max_gpt4_lift": (0.092, 0.085),
    "avg_base_lift": (0.099, 0.095),
    "best_base_score": (0.166, 0.097),
    "avg_base_score": (0.099, 0.000),
    "best_ft_score": (0.097, 0.091),
    "avg_ft_score": (0.119, 0.095),
}


def test_lift_regression_reproduces_quality_prediction_table():
    profiles = load_task_profiles(bundled_fixture_path("task_profiles.csv"))
    quality = load_quality_records(bundled_fixture_path("quality_records.csv"))
    matrix = [profile_features(p) for p in profiles]
    by_name = {q.name: q for q in quality}
    base_scores = [by_name[p.name].avg_base_score for p in profiles]
    for target, (want_plain, want_augmented) in _EXPECTED_RMSE.items():
        y = [getattr(by_name[p.name], target) for p in profiles]
        plain = fit_lift_model(matrix, y, PROFILE_FEATURES, target)
        augmented_matrix = [row + [b] for row, b in zip(matrix, base_scores)]
        augmented = fit_lift_model(
            augmented_matrix, y, PROFILE_FEATURES + ("avg_base_score",), target
        )
        assert math.isfinite(plain.train_rmse)
        assert plain.train_rmse == pytest.approx(want_plain, abs=5e-3)
        assert augmented.train_rmse == pytest.approx(want_augmented, abs=5e-3)
        assert augmented.train_rmse <= plain.train_rmse + 1e-12


def test_fit_lift_model_predicts_training_rows():
    profiles = load_task_profiles(bundled_fixture_path("task_profiles.csv"))
    quality = load_quality_records(bundled_fixture_path("quality_records.csv"))
    matrix = [profile_features(p) for p in profiles]
    y = [q.best_ft_score for q in quality]
    model = fit_lift_model(matrix, y, PROFILE_FEATURES, "best_ft_score")
    predictions = [predict(model, row) for row in matrix]
    assert rmse(predictions, y) == pytest.approx(model.train_rmse, abs=1e-9)


def test_loo_rmse_finite_and_larger_than_insample():
    profiles = load_task_profiles(bundled_fixture_path("task_profiles.csv"))
    quality = load_quality_records(bundled_fixture_path("quality_records.csv"))
    matrix = [profile_features(p) for p in profiles]
    y = [q.max_gpt4_lift for q in quality]
    model = fit_lift_model(matrix, y, PROFILE_FEATURES, "max_gpt4_lift")
    loo = loo_rmse(matrix, y, PROFILE_FEATURES, "max_gpt4_lift")
    assert math.isfinite(loo)
    assert loo >= model.train_rmse


def _loo_by_refit(matrix, y, feature_names, target):
    """Reference LOO: refit without each row, predict it, pool the errors."""
    predictions = []
    for i in range(len(y)):
        rest = [j for j in range(len(y)) if j != i]
        model = fit_lift_model(
            [matrix[j] for j in rest], [y[j] for j in rest], feature_names, target
        )
        kept = [feature_names.index(name) for name in model.feature_names]
        predictions.append(predict(model, [matrix[i][k] for k in kept]))
    return rmse(predictions, y)


def _fixture_lift_cases():
    """The 7 targets, each without and with avg_base_score as a feature."""
    pairs = join_tasks(
        load_task_profiles(bundled_fixture_path("task_profiles.csv")),
        load_quality_records(bundled_fixture_path("quality_records.csv")),
    )
    matrix = [profile_features(p) for p, _ in pairs]
    augmented = [row + [q.avg_base_score] for row, (_, q) in zip(matrix, pairs)]
    cases = []
    for target in QUALITY_METRICS:
        y = [getattr(q, target) for _, q in pairs]
        cases.append((matrix, y, PROFILE_FEATURES, target))
        cases.append((augmented, y, PROFILE_FEATURES + ("avg_base_score",), target))
    return cases


def test_loo_rmse_matches_refit_oracle_on_fixture():
    for matrix, y, names, target in _fixture_lift_cases():
        want = _loo_by_refit(matrix, y, names, target)
        got = loo_rmse(matrix, y, names, target)
        if "avg_base_score" in names and target == "avg_base_score":
            # The target is one of the features: both are rounding noise around 0.
            assert got == pytest.approx(0.0, abs=1e-9) and want == pytest.approx(0.0, abs=1e-9)
        else:
            assert got == pytest.approx(want, rel=1e-8), (target, len(names))


def test_loo_rmse_matches_refit_oracle_on_random_full_rank_designs():
    rng = random.Random(2024)
    for _ in range(40):
        n_features = rng.randint(1, 6)
        n_rows = rng.randint(n_features + 3, 30)
        scales = [rng.uniform(0.1, 10) for _ in range(n_features)]
        matrix = [[rng.gauss(0, scale) for scale in scales] for _ in range(n_rows)]
        y = [rng.gauss(0, 1) for _ in range(n_rows)]
        names = tuple(f"x{i}" for i in range(n_features))
        want = _loo_by_refit(matrix, y, names, "y")
        assert loo_rmse(matrix, y, names, "y") == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize(
    "matrix",
    [
        # No more rows than design columns (2 features + intercept).
        [[1.0, 0.0], [0.0, 1.0], [2.0, 5.0]],
        # The second column varies in the last row only.
        [[1.0, 0.0], [2.0, 0.0], [4.0, 0.0], [3.0, 0.0], [5.0, 7.0]],
    ],
)
def test_loo_rmse_rejects_leverage_one(matrix):
    y = [float(i % 3) for i in range(len(matrix))]
    with pytest.raises(ValueError, match="leverage 1"):
        loo_rmse(matrix, y, ("a", "b"), "y")


def test_quality_record_fields_match_metric_tuple():
    assert QUALITY_METRICS == (
        "gpt4_score",
        "max_gpt4_lift",
        "avg_base_lift",
        "best_base_score",
        "avg_base_score",
        "best_ft_score",
        "avg_ft_score",
    )
    record = QualityRecord("t", 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    assert [getattr(record, f) for f in QUALITY_METRICS] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
