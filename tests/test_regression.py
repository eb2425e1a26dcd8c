import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lstrader.pattern_bank import PatternBank, normalize
from lstrader.regression import (
    CombinerWeights,
    KernelChoice,
    PredictorModel,
    calibrate_c,
    classify_binary,
    empirical_conditional,
    feature_block,
    fit_points,
    fit_weights,
    kernel_weights,
    predict_label,
    similarity,
    similarity_many,
)

from conftest import series_from_prices

GAUSSIAN = KernelChoice("gaussian_l2")
EXP_SIM = KernelChoice("exp_similarity", c=1.0)

finite_vectors = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=3, max_size=25
)


def row_blocks(m):
    """Two blocks (queries, vectors) of 1-4 finite rows of length m."""
    rows = st.lists(st.floats(-1e3, 1e3), min_size=m, max_size=m)
    block = st.lists(rows, min_size=1, max_size=4)
    return st.tuples(block, block)


def bank_from_vectors(vectors, labels, populations=None):
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    n = vectors.shape[0]
    if populations is None:
        populations = np.ones(n, dtype=np.int64)
    return PatternBank(
        window_length=vectors.shape[1],
        vectors=vectors,
        labels=np.asarray(labels, dtype=np.float64),
        populations=np.asarray(populations, dtype=np.int64),
    )


def random_bank(rng, n=20, dim=8):
    vectors = np.stack([normalize(rng.normal(size=dim)) for _ in range(n)])
    return bank_from_vectors(vectors, rng.normal(size=n))


class TestSimilarity:
    def test_hand_case_exact(self):
        assert similarity((1, 2, 3), (1, 3, 2)) == 0.5

    def test_self_similarity_is_one(self):
        assert similarity((1, 2, 3), (1, 2, 3)) == 1.0

    def test_negation_is_minus_one(self):
        assert similarity((1, 2, 3), (-1, -2, -3)) == -1.0

    def test_positive_affine_gives_one(self):
        a = np.array([0.3, -1.2, 4.0, 2.2])
        assert similarity(a, 2.0 * a + 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_constant_vector_is_neutral(self):
        assert similarity((5.0, 5.0, 5.0), (1.0, 2.0, 3.0)) == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            similarity((1, 2), (1, 2, 3))

    def test_tiny_vectors_rejected(self):
        with pytest.raises(ValueError):
            similarity((1,), (2,))

    @given(finite_vectors)
    def test_self_similarity_property(self, values):
        a = np.array(values)
        expected = 0.0 if a.max() == a.min() else 1.0
        assert similarity(a, a) == pytest.approx(expected, abs=1e-12)

    @given(st.lists(st.floats(-100, 100), min_size=4, max_size=12),
           st.lists(st.floats(-100, 100), min_size=4, max_size=12))
    def test_symmetric_and_bounded(self, a_vals, b_vals):
        size = min(len(a_vals), len(b_vals))
        a, b = np.array(a_vals[:size]), np.array(b_vals[:size])
        s = similarity(a, b)
        assert s == similarity(b, a)
        assert -1.0 <= s <= 1.0

    @given(
        finite_vectors,
        st.floats(min_value=0.05, max_value=20),
        st.floats(min_value=-100, max_value=100),
    )
    def test_affine_invariance(self, values, alpha, beta):
        a = np.array(values)
        # a tiny relative spread turns the comparison into float-cancellation
        # noise; and float absorption can collapse a into a constant outright
        assume(a.max() == a.min() or np.ptp(a) > 1e-6 * max(1.0, np.abs(a).max()))
        transformed = alpha * a + beta
        assume((transformed.max() == transformed.min()) == (a.max() == a.min()))
        b = np.sin(np.arange(a.size))  # fixed non-constant partner
        assert similarity(transformed, b) == pytest.approx(similarity(a, b), abs=1e-9)

    def test_extreme_magnitudes_share_one_rule(self):
        x = np.array([1e200, -1e200, 0.0, 5.0])
        assert similarity(x, x) == 1.0
        assert similarity_many(x[None, :], x[None, :])[0, 0] == 1.0

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            similarity_many(np.array([[1.0, np.nan, 2.0]]), np.array([[1.0, 2.0, 3.0]]))

    @given(
        st.integers(min_value=2, max_value=12).flatmap(row_blocks),
        st.integers(min_value=-150, max_value=150),
        st.integers(min_value=-150, max_value=150),
    )
    @settings(max_examples=200, deadline=None)
    def test_block_matches_scalar_at_any_magnitude(self, blocks, q_exp, v_exp):
        queries = np.array(blocks[0]) * 10.0**q_exp
        vectors = np.array(blocks[1]) * 10.0**v_exp
        batch = similarity_many(queries, vectors)
        assert batch.shape == (len(queries), len(vectors))
        for i, q in enumerate(queries):
            for j, v in enumerate(vectors):
                s = similarity(q, v)
                assert -1.0 <= s <= 1.0
                assert batch[i, j] == pytest.approx(s, abs=1e-12)

    def test_matches_batch_path(self, rng):
        queries = rng.normal(size=(6, 10))
        vectors = rng.normal(size=(4, 10))
        batch = similarity_many(queries, vectors)
        for i in range(6):
            for j in range(4):
                assert batch[i, j] == pytest.approx(similarity(queries[i], vectors[j]), abs=1e-12)


class TestKernelWeights:
    def test_single_pattern_bank(self, rng):
        bank = random_bank(rng, n=1)
        w = kernel_weights(rng.normal(size=8), bank, GAUSSIAN)
        assert w.shape == (1,)
        assert w[0] == 1.0

    def test_equidistant_patterns_split_evenly(self):
        base = normalize(np.array([1.0, -1.0, 1.0, -1.0]))
        bank = bank_from_vectors([base, -base], [2.0, 4.0])
        x = np.zeros(4)  # equidistant from both patterns
        w = kernel_weights(x, bank, GAUSSIAN)
        assert np.allclose(w, [0.5, 0.5], atol=1e-12)

    def test_exp_similarity_weights_match_scalar_oracle(self):
        # three patterns at similarities exactly (1, 0, -1) from the query
        p1 = normalize(np.array([1.0, -1.0, 1.0, -1.0]))
        p2 = normalize(np.array([1.0, 1.0, -1.0, -1.0]))  # deviations orthogonal to p1
        bank = bank_from_vectors([p1, p2, -p1], [1.0, 2.0, 3.0])
        w = kernel_weights(p1, bank, KernelChoice("exp_similarity", c=1.0))
        raw = np.exp([1.0, 0.0, -1.0])
        assert np.allclose(w, raw / raw.sum(), atol=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(["gaussian_l2", "exp_similarity"]))
    @settings(max_examples=40, deadline=None)
    def test_weights_are_a_distribution(self, seed, variant):
        rng = np.random.default_rng(seed)
        bank = random_bank(rng, n=7, dim=6)
        w = kernel_weights(rng.normal(size=6), bank, KernelChoice(variant, c=2.0))
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        bank = random_bank(rng, n=3, dim=6)
        with pytest.raises(ValueError):
            kernel_weights(np.zeros(5), bank, GAUSSIAN)


def naive_conditional_expectation(x, vectors, labels):
    """Independent re-implementation of the kernel average, scalar loops only."""
    weights = []
    for row in vectors:
        weights.append(math.exp(-0.25 * sum((float(a) - float(b)) ** 2 for a, b in zip(x, row))))
    total = math.fsum(weights)
    return math.fsum(w * float(y) for w, y in zip(weights, labels)) / total


class TestPredictLabel:
    def test_single_pattern_returns_its_label(self, rng):
        bank = bank_from_vectors([normalize(np.arange(5.0))], [5.0])
        assert predict_label(rng.normal(size=5), bank, GAUSSIAN) == 5.0

    def test_equidistant_patterns_average(self):
        base = normalize(np.array([1.0, -1.0, 1.0, -1.0]))
        bank = bank_from_vectors([base, -base], [2.0, 4.0])
        assert predict_label(np.zeros(4), bank, GAUSSIAN) == pytest.approx(3.0, abs=1e-12)

    def test_matches_naive_oracle(self, rng):
        for _ in range(20):
            bank = random_bank(rng, n=20, dim=12)
            x = normalize(rng.normal(size=12)) + 0.4 * rng.normal(size=12)
            got = predict_label(x, bank, GAUSSIAN)
            want = naive_conditional_expectation(x, bank.vectors, bank.labels)
            assert got == pytest.approx(want, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_prediction_is_convex_combination(self, seed):
        rng = np.random.default_rng(seed)
        bank = random_bank(rng, n=6, dim=7)
        value = predict_label(rng.normal(size=7), bank, EXP_SIM)
        assert bank.labels.min() - 1e-12 <= value <= bank.labels.max() + 1e-12


class TestEmpiricalConditional:
    def test_all_labels_match(self, rng):
        bank = bank_from_vectors(
            [normalize(rng.normal(size=6)) for _ in range(4)], [2.0] * 4
        )
        assert empirical_conditional(2.0, rng.normal(size=6), bank, GAUSSIAN) == 1.0

    def test_no_labels_match(self, rng):
        bank = random_bank(rng, n=5, dim=6)
        assert empirical_conditional(123.0, rng.normal(size=6), bank, GAUSSIAN) == 0.0

    def test_balanced_binary_masses(self):
        base = normalize(np.array([1.0, -1.0, 1.0, -1.0]))
        bank = bank_from_vectors([base, -base], [0.0, 1.0])
        x = np.zeros(4)
        assert empirical_conditional(0.0, x, bank, GAUSSIAN) == pytest.approx(0.5, abs=1e-12)
        assert empirical_conditional(1.0, x, bank, GAUSSIAN) == pytest.approx(0.5, abs=1e-12)


class TestClassifyBinary:
    def test_dominant_class_one_mass(self, rng):
        target = normalize(rng.normal(size=10))
        decoys = [normalize(rng.normal(size=10)) for _ in range(3)]
        bank = bank_from_vectors([target] + decoys, [1.0, 0.0, 0.0, 0.0])
        assert classify_binary(target, bank, GAUSSIAN) == 1

    def test_exact_balance_declares_zero(self):
        base = normalize(np.array([1.0, -1.0, 1.0, -1.0]))
        bank = bank_from_vectors([base, -base], [1.0, 0.0])
        assert classify_binary(np.zeros(4), bank, GAUSSIAN) == 0

    def test_single_class_bank_returns_that_class(self, rng):
        vecs = [normalize(rng.normal(size=6)) for _ in range(3)]
        assert classify_binary(np.zeros(6), bank_from_vectors(vecs, [1.0] * 3), GAUSSIAN) == 1
        assert classify_binary(np.zeros(6), bank_from_vectors(vecs, [0.0] * 3), GAUSSIAN) == 0

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_single_class_bank_refuses_wrong_length_query(self, rng, label):
        bank = bank_from_vectors([normalize(rng.normal(size=6)) for _ in range(3)], [label] * 3)
        for kernel in (GAUSSIAN, EXP_SIM):
            with pytest.raises(ValueError, match=r"query has shape \(5,\), bank expects \(6,\)"):
                classify_binary(np.zeros(5), bank, kernel)

    def test_non_binary_labels_rejected(self, rng):
        bank = random_bank(rng, n=4, dim=6)
        with pytest.raises(ValueError, match="labels"):
            classify_binary(np.zeros(6), bank, GAUSSIAN)

    def test_decision_invariant_to_common_mass_scaling(self, rng):
        # normalized vs unnormalized masses (a common positive factor) agree
        for seed in range(30):
            local = np.random.default_rng(seed)
            vecs = [normalize(local.normal(size=8)) for _ in range(6)]
            labels = (np.arange(6) % 2).astype(float)
            bank = bank_from_vectors(vecs, labels)
            x = local.normal(size=8)
            w = kernel_weights(x, bank, EXP_SIM)  # normalized masses
            ones = bank.labels == 1.0
            for scale in (1e-6, 1.0, 1e6):
                decided = int((scale * w[ones].sum()) > (scale * w[~ones].sum()))
                assert decided == classify_binary(x, bank, EXP_SIM)


class TestAssembleFeatures:
    """Combiner inputs at one prediction point: a one-row feature_block."""

    def make_banks(self, rng, windows=(3, 5, 8)):
        return tuple(random_bank(rng, n=4, dim=w) for w in windows)

    def test_boundary_history(self, rng):
        banks = self.make_banks(rng)
        series = series_from_prices(
            100 + np.cumsum(rng.normal(size=20)), imbalances=rng.uniform(-1, 1, 20)
        )
        feats = feature_block(series, banks, EXP_SIM, [8])[0]
        assert all(np.isfinite(feats))
        with pytest.raises(ValueError, match="history"):
            feature_block(series, banks, EXP_SIM, [7])

    def test_imbalance_passes_through(self, rng):
        banks = self.make_banks(rng)
        imb = rng.uniform(-1, 1, 20)
        series = series_from_prices(100 + np.cumsum(rng.normal(size=20)), imbalances=imb)
        feats = feature_block(series, banks, EXP_SIM, [11])[0]
        assert feats[-1] == imb[11]

    def test_constant_history_is_finite(self, rng):
        banks = self.make_banks(rng)
        series = series_from_prices(np.full(20, 42.0))
        feats = feature_block(series, banks, EXP_SIM, [10])[0]
        assert all(np.isfinite(feats))

    def test_out_of_range_rejected(self, rng):
        banks = self.make_banks(rng)
        series = series_from_prices(np.arange(20.0))
        with pytest.raises(ValueError):
            feature_block(series, banks, EXP_SIM, [20])

    def test_planted_pattern_recovers_label(self, rng):
        # trailing window affinely matches one bank pattern; others are far
        window = 12
        shape = np.sin(np.arange(window) * 0.7)
        target = normalize(shape)
        decoys = [normalize(rng.normal(size=window)) for _ in range(3)]
        kernel = KernelChoice("exp_similarity", c=8.0)
        banks = tuple(
            bank_from_vectors([target] + decoys, [0.7, 0.0, 0.0, 0.0])
            for _ in range(3)
        )
        # build a series whose last `window` prices equal 100 + 3 * shape
        prices = np.concatenate([np.full(window, 100.0), 100.0 + 3.0 * shape])
        series = series_from_prices(prices)
        banks = (
            bank_from_vectors([target] + decoys[:1], [0.7, 0.0]),
            bank_from_vectors([normalize(rng.normal(size=16))], [0.0]),
            bank_from_vectors([normalize(rng.normal(size=20))], [0.0]),
        )
        feats = feature_block(series, banks, kernel, [len(prices) - 1])[0]
        assert abs(feats[0] - 0.7) <= 0.1

    def test_batch_path_matches_scalar_path(self, rng):
        kernel = KernelChoice("exp_similarity", c=3.0)
        banks = self.make_banks(rng)
        n = 30
        series = series_from_prices(
            100 + np.cumsum(rng.normal(size=n)), imbalances=rng.uniform(-1, 1, n)
        )
        ts = np.arange(8, n)
        block = feature_block(series, banks, kernel, ts)
        for row, t in zip(block, ts):
            one = feature_block(series, banks, kernel, [t])[0]
            assert np.allclose(row, one, atol=1e-12)
        # scattered points are refused, not gathered
        with pytest.raises(ValueError, match="consecutive"):
            feature_block(series, banks, kernel, ts[[0, 3, 4, 10, 21]])

    @pytest.mark.parametrize(
        "points",
        [[11, 10], [10, 10], [10, 12], [10.5], [10.0, 11.0], [[10, 11]]],
        ids=["unsorted", "repeated", "gapped", "non_integer", "float", "2d"],
    )
    @pytest.mark.parametrize("call", ["feature_block", "dp_stream"])
    def test_points_not_one_consecutive_run_rejected(self, rng, points, call):
        """Prediction points are one ascending run of consecutive integers:
        [10.5] no longer scores point 10."""
        model = PredictorModel(self.make_banks(rng), EXP_SIM, CombinerWeights((0.1, 0.2, 0.3, 0.4, 0.5)))
        series = series_from_prices(100 + np.cumsum(rng.normal(size=20)))
        score = {
            "feature_block": lambda ts: feature_block(series, model.banks, EXP_SIM, ts),
            "dp_stream": lambda ts: model.dp_stream(series, ts)[1],
        }[call]
        with pytest.raises(ValueError, match="one ascending run of consecutive integers"):
            score(points)
        assert score([]).shape[0] == 0
        assert score([10, 11]).shape[0] == 2

    def test_gaussian_kernel_rejected(self, rng):
        """Series windows are scored under exp_similarity alone."""
        series = series_from_prices(100 + np.cumsum(rng.normal(size=20)))
        with pytest.raises(ValueError, match="scored under exp_similarity only, got 'gaussian_l2'"):
            feature_block(series, self.make_banks(rng), GAUSSIAN, [10])


class TestFitWeights:
    def planted_samples(self, rng, n, true_w, noise=0.0):
        feats = rng.normal(size=(n, 4))
        targets = true_w[0] + feats @ np.asarray(true_w[1:]) + noise * rng.normal(size=n)
        return feats, targets

    def test_recovers_planted_weights(self, rng):
        w = fit_weights(*self.planted_samples(rng, 200, (0.5, 1.0, 0.0, 0.0, 2.0)))
        assert np.allclose(w.as_array(), [0.5, 1.0, 0.0, 0.0, 2.0], atol=1e-8)
        assert not w.used_ridge

    def test_zero_targets_give_zero_weights(self, rng):
        w = fit_weights(*self.planted_samples(rng, 50, (0.0, 0.0, 0.0, 0.0, 0.0)))
        assert np.allclose(w.as_array(), 0.0, atol=1e-10)

    def test_duplicate_columns_trigger_ridge(self, rng):
        feats = rng.normal(size=(60, 4))
        feats[:, 1] = feats[:, 0]  # duplicated feature column
        targets = 1.0 + feats @ np.array([2.0, 0.0, 0.5, -1.0]) + 0.01 * rng.normal(size=60)
        w = fit_weights(feats, targets)
        assert w.used_ridge
        design = np.column_stack([np.ones(60), feats])
        ridge_residual = design @ w.as_array() - targets
        pinv_residual = design @ (np.linalg.pinv(design) @ targets) - targets
        assert ridge_residual @ ridge_residual <= pinv_residual @ pinv_residual + 1e-6

    def test_too_few_samples_rejected(self, rng):
        with pytest.raises(ValueError, match="at least 5"):
            fit_weights(*self.planted_samples(rng, 4, (0.0, 1.0, 1.0, 1.0, 1.0)))

    def test_residual_orthogonal_to_design(self, rng):
        feats, targets = self.planted_samples(rng, 80, (0.3, -1.0, 2.0, 0.7, 0.1), noise=0.5)
        w = fit_weights(feats, targets)
        design = np.column_stack([np.ones(80), feats])
        residual = design @ w.as_array() - targets
        assert np.all(np.abs(design.T @ residual) < 1e-8 * len(targets))


class TestPredictDp:
    """The combiner on one feature row: CombinerWeights.apply."""

    def test_zero_weights(self):
        w = CombinerWeights((0, 0, 0, 0, 0))
        assert w.apply((3.0, -1.0, 2.0, 0.5)) == 0.0

    def test_intercept_only(self):
        w = CombinerWeights((1, 0, 0, 0, 0))
        assert w.apply((9.0, 9.0, 9.0, 9.0)) == 1.0

    def test_hand_case(self):
        w = CombinerWeights((0, 1, 1, 1, 1))
        assert w.apply((0.1, 0.2, 0.3, -0.1)) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("shape", [(3,), (5,), (2, 3), ()])
    def test_wrong_width_rejected(self, shape):
        w = CombinerWeights((0, 1, 1, 1, 1))
        with pytest.raises(ValueError, match=r"5 weights take 4 features, got \(" + ", ".join(map(str, shape))):
            w.apply(np.zeros(shape))

    def test_nonfinite_weights_rejected(self):
        with pytest.raises(ValueError):
            CombinerWeights((math.nan, 0, 0, 0, 0))


def planted_series_for_calibration(rng, n=160):
    prices = 100 + np.cumsum(rng.normal(scale=0.4, size=n))
    imb = rng.uniform(-1, 1, size=n)
    return series_from_prices(prices, imbalances=imb)


class TestCalibrateC:
    def make_banks(self, rng):
        return tuple(random_bank(rng, n=5, dim=w) for w in (4, 6, 8))

    def test_single_grid_point_returned(self, rng):
        series = planted_series_for_calibration(rng)
        result = calibrate_c([3.0], series, self.make_banks(rng))
        assert result.c == 3.0

    def test_duplicate_grid_same_as_dedup(self, rng):
        series = planted_series_for_calibration(rng)
        banks = self.make_banks(rng)
        a = calibrate_c([1.0, 2.0, 4.0], series, banks)
        b = calibrate_c([2.0, 1.0, 4.0, 2.0, 1.0], series, banks)
        assert a.c == b.c
        assert a.weights == b.weights
        assert a.errors == b.errors

    def test_sharper_kernel_wins_when_planted(self, rng):
        # targets generated from the c=4 feature map: only c=4 can fit exactly
        banks = self.make_banks(rng)
        base = planted_series_for_calibration(rng, n=200)
        ts = fit_points(base, banks)
        features = feature_block(base, banks, KernelChoice("exp_similarity", c=4.0), ts)
        true_w = np.array([0.05, 2.0, -1.0, 1.5, 0.3])
        targets = true_w[0] + features @ true_w[1:]
        prices = base.prices.copy()
        for t, target in zip(ts, targets):
            prices[t + 1] = prices[t] + target
        series = series_from_prices(prices, imbalances=base.imbalances.copy())
        # the planted construction rewrites prices, which feeds back into the
        # windows; verify the intended MSE ordering independently, then assert
        result = calibrate_c([1.0, 4.0], series, banks)
        errors = dict(result.errors)
        if errors[4.0] < errors[1.0]:
            assert result.c == 4.0

    def test_mse_ordering_matches_direct_recomputation(self, rng):
        banks = self.make_banks(rng)
        series = planted_series_for_calibration(rng, n=150)
        result = calibrate_c([0.5, 2.0, 8.0], series, banks)
        ts = fit_points(series, banks)
        targets = series.prices[ts + 1] - series.prices[ts]
        for c, mse in result.errors:
            feats = feature_block(series, banks, KernelChoice("exp_similarity", c=c), ts)
            w = fit_weights(feats, targets)
            predicted = feats @ w.as_array()[1:] + w.as_array()[0]
            direct = float(((predicted - targets) ** 2).mean())
            assert mse == pytest.approx(direct, rel=1e-9)
        best_c, best_mse = min(result.errors, key=lambda e: (e[1], e[0]))
        assert result.c == best_c

    def test_empty_grid_rejected(self, rng):
        with pytest.raises(ValueError):
            calibrate_c([], planted_series_for_calibration(rng), self.make_banks(rng))

    @pytest.mark.parametrize(
        "grid", [[1.0, np.inf], [np.nan], [0.0, 1.0], [-2.0]], ids=["inf", "nan", "zero", "negative"]
    )
    def test_non_finite_or_non_positive_grid_rejected(self, rng, grid):
        with pytest.raises(ValueError, match="c grid values must be finite and > 0"):
            calibrate_c(grid, planted_series_for_calibration(rng), self.make_banks(rng))

    @pytest.mark.parametrize("buckets", [10, 11, 12, 13])
    def test_too_few_fit_samples_rejected(self, rng, buckets):
        """Banks of 4 and 8 buckets leave buckets - 9 fit points, under the 5 a fit needs."""
        banks = (random_bank(rng, n=5, dim=4), random_bank(rng, n=5, dim=8))
        series = planted_series_for_calibration(rng, n=buckets)
        with pytest.raises(ValueError, match=f"^fit series yields {buckets - 9} samples, need at least 5$"):
            calibrate_c([1.0, 2.0], series, banks)


@pytest.mark.parametrize("c", [0.0, -1.0, np.inf, np.nan])
def test_exp_similarity_needs_finite_positive_c(c):
    with pytest.raises(ValueError, match="requires a finite c > 0"):
        KernelChoice("exp_similarity", c=c)


def test_huge_c_gives_finite_features_without_a_warning():
    """Under c = 1e308 the softmax shift overflows for the pattern that is
    anticorrelated with the window: its weight is 0, and no numpy warning
    is raised (pytest makes a RuntimeWarning an error)."""
    shape = np.sin(np.arange(8) * 0.9)
    bank = bank_from_vectors([normalize(shape), normalize(-shape)], [1.0, -1.0])
    series = series_from_prices(np.concatenate([np.full(8, 100.0), 100.0 + shape]))
    feats = feature_block(series, (bank,), KernelChoice("exp_similarity", c=1e308), np.arange(8, 16))
    assert np.isfinite(feats).all()
    assert feats[-1, 0] == 1.0


class TestPredictorModel:
    def make_model(self, rng, c=2.0):
        banks = tuple(random_bank(rng, n=4, dim=w) for w in (4, 6, 8))
        return PredictorModel(
            banks=banks,
            kernel=KernelChoice("exp_similarity", c=c),
            weights=CombinerWeights((0.1, 1.0, -0.5, 0.25, 0.0)),
        )

    def test_json_round_trip(self, rng, tmp_path):
        model = self.make_model(rng)
        for i, bank in enumerate(model.banks):
            bank.save_json(tmp_path / f"bank_{i}.json")
        model.save_json(tmp_path / "model.json", [f"bank_{i}.json" for i in range(3)])
        loaded = PredictorModel.load_json(tmp_path / "model.json")
        assert loaded.kernel == model.kernel
        assert loaded.weights == model.weights
        for a, b in zip(loaded.banks, model.banks):
            assert np.array_equal(a.vectors, b.vectors)

    def test_old_bank_files_predict_the_same(self, rng, tmp_path):
        """JSON banks carrying "kernel_c" 1.0, as older versions wrote them,
        beside a model c of 4.0, predict bit for bit as the same banks written
        in the new form."""
        model = self.make_model(rng, c=4.0)
        old, new = tmp_path / "old", tmp_path / "new"
        names = ["bank_4.json", "bank_6.json", "bank_8.json"]
        for folder in (old, new):
            folder.mkdir()
            model.save_json(folder / "model.json", names)
        for bank, name in zip(model.banks, names):
            bank.save_json(new / name)
            (old / name).write_text(json.dumps({**bank.to_json_dict(), "kernel_c": 1.0}))
        series = series_from_prices(
            100 + np.cumsum(rng.normal(size=40)), imbalances=rng.uniform(-1, 1, 40)
        )
        loaded = PredictorModel.load_json(old / "model.json")
        assert loaded.kernel.c == 4.0
        ts, got = loaded.dp_stream(series)
        want_ts, want = PredictorModel.load_json(new / "model.json").dp_stream(series)
        assert ts.tobytes() == want_ts.tobytes()
        assert got.tobytes() == want.tobytes() == model.dp_stream(series)[1].tobytes()

    def test_gaussian_kernel_rejected(self, rng):
        with pytest.raises(ValueError, match="scored under exp_similarity only, got 'gaussian_l2'"):
            PredictorModel(self.make_model(rng).banks, GAUSSIAN, CombinerWeights((0, 0, 0, 0, 0)))

    def test_requires_one_weight_per_bank(self, rng):
        banks = (random_bank(rng, n=3, dim=4),)
        with pytest.raises(ValueError, match="1 banks need 3 combiner weights"):
            PredictorModel(banks=banks, kernel=GAUSSIAN, weights=CombinerWeights((0, 0, 0, 0, 0)))
        with pytest.raises(ValueError, match="at least one bank"):
            PredictorModel(banks=(), kernel=GAUSSIAN, weights=CombinerWeights((0, 0, 0)))

    def test_dp_stream_matches_manual_affine(self, rng):
        model = self.make_model(rng)
        series = series_from_prices(
            100 + np.cumsum(rng.normal(size=40)), imbalances=rng.uniform(-1, 1, 40)
        )
        ts, dp = model.dp_stream(series)
        for t, value in zip(ts, dp):
            feats = feature_block(series, model.banks, model.kernel, [t])[0]
            assert value == pytest.approx(model.weights.apply(feats), abs=1e-12)

    @pytest.mark.parametrize("windows", [(4,), (4, 6), (4, 6, 8), (4, 6, 8, 10)])
    def test_any_bank_count_round_trips(self, rng, tmp_path, windows):
        n = len(windows)
        banks = tuple(random_bank(rng, n=4, dim=w) for w in windows)
        model = PredictorModel(
            banks=banks,
            kernel=KernelChoice("exp_similarity", c=2.0),
            weights=CombinerWeights(tuple(rng.normal(size=n + 2))),
        )
        names = [f"bank_{w}.json" for w in windows]
        for bank, name in zip(banks, names):
            bank.save_json(tmp_path / name)
        model.save_json(tmp_path / "model.json", names)
        keys = json.loads((tmp_path / "model.json").read_text())["weights"]
        assert sorted(keys) == sorted([f"w{i}" for i in range(n + 2)] + ["used_ridge"])
        loaded = PredictorModel.load_json(tmp_path / "model.json")
        assert loaded.weights == model.weights
        series = series_from_prices(
            100 + np.cumsum(rng.normal(size=40)), imbalances=rng.uniform(-1, 1, 40)
        )
        ts, dp = loaded.dp_stream(series)
        feats = feature_block(series, loaded.banks, loaded.kernel, ts)
        assert feats.shape == (len(ts), n + 1)
        for row, value in zip(feats, dp):
            assert value == pytest.approx(model.weights.apply(row), abs=1e-12)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.pop("kernel"), "needs a dict 'kernel'"),
            (lambda d: d.pop("weights"), "needs a dict 'weights'"),
            (lambda d: d.pop("banks"), "needs a list 'banks'"),
            (lambda d: d.update(kernel="exp_similarity"), "needs a dict 'kernel'"),
            (lambda d: d["kernel"].pop("c"), r"bad model kernel \(KeyError: 'c'\)"),
            (lambda d: d["kernel"].update(c=None), "bad model kernel"),
            (lambda d: d["kernel"].update(c=float("inf")), "bad model kernel.*finite c > 0"),
            (lambda d: d["kernel"].update(c="2"), r"bad model kernel \(TypeError: c must be a JSON number"),
            (lambda d: d["kernel"].update(c=True), r"bad model kernel \(TypeError: c must be a JSON number"),
            (lambda d: d["weights"].update(w0="1"), "model JSON weights needs a number 'w0'"),
            (lambda d: d["weights"].update(w1=True), "model JSON weights needs a number 'w1'"),
            (lambda d: d["weights"].update(used_ridge="no"), "model JSON weights needs a boolean 'used_ridge'"),
            (lambda d: d.update(banks=[5]), "model JSON needs a list of path strings 'banks'"),
        ],
        ids=["no_kernel", "no_weights", "no_banks", "kernel_not_dict", "no_c", "c_null", "c_inf",
             "c_str", "c_bool", "w0_str", "w1_bool", "used_ridge_str", "bank_not_str"],
    )
    def test_load_rejects_malformed_model_naming_file(self, rng, tmp_path, edit, message):
        model = self.make_model(rng)
        data = model.to_json_dict([f"bank_{i}.json" for i in range(3)])
        edit(data)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"model.json: .*{message}"):
            PredictorModel.load_json(path)

    def test_load_truncated_model_names_file_line_and_column(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"kernel": ')
        with pytest.raises(ValueError, match=r"model.json: malformed JSON at line 1 column 12"):
            PredictorModel.load_json(path)

    def test_load_names_a_malformed_bank_file(self, rng, tmp_path):
        model = self.make_model(rng)
        names = [f"bank_{i}.json" for i in range(3)]
        for bank, name in zip(model.banks, names):
            bank.save_json(tmp_path / name)
        model.save_json(tmp_path / "model.json", names)
        (tmp_path / "bank_1.json").write_text('{"window_length": 6}')
        with pytest.raises(ValueError, match="bank_1.json: bank JSON needs a list 'patterns'"):
            PredictorModel.load_json(tmp_path / "model.json")

    def test_load_rejects_weight_count_mismatch(self, rng, tmp_path):
        model = self.make_model(rng)
        names = [f"bank_{i}.json" for i in range(3)]
        for bank, name in zip(model.banks, names):
            bank.save_json(tmp_path / name)
        model.save_json(tmp_path / "model.json", names)
        data = json.loads((tmp_path / "model.json").read_text())
        del data["weights"]["w4"]
        (tmp_path / "model.json").write_text(json.dumps(data))
        with pytest.raises(ValueError, match="model.json: 3 banks need weights w0..w4"):
            PredictorModel.load_json(tmp_path / "model.json")


@pytest.mark.parametrize("windows", [(4,), (4, 6), (4, 6, 8, 10)])
def test_calibration_fits_n_plus_two_weights(rng, windows):
    banks = tuple(random_bank(rng, n=5, dim=w) for w in windows)
    result = calibrate_c([1.0, 2.0], planted_series_for_calibration(rng), banks)
    assert len(result.weights.w) == len(windows) + 2
