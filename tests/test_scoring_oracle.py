"""Window scoring against a long-double two-pass reference.

The reference normalizes every window and every bank vector in extended
precision (subtract the mean, subtract the mean of the residual, divide by
the root mean square; a constant row is the zero row), correlates them,
takes the softmax of the kernel scores and averages the bank labels. The
block scorer works on rows taken relative to their last value, a block of
rows at a time, with a magnitude guard; it must agree with the reference
to 1e-12 on series built to stress each of those steps. The block scorer
takes one consecutive run of points under the exp_similarity kernel; the
gaussian_l2 kernel scores single queries, which must agree with the
reference too.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from lstrader import regression
from lstrader.pattern_bank import PatternBank, normalize, row_blocks
from lstrader.regression import (
    DP_SLICE_ROWS,
    SCORE_BLOCK_ROWS,
    CombinerWeights,
    KernelChoice,
    PredictorModel,
    calibrate_c,
    feature_block,
    fit_points,
    fit_weights,
    predict_label,
    similarity,
    similarity_many,
)

from conftest import series_from_prices

LD = np.longdouble
WINDOWS = (8, 16, 40)
POINTS = 2 * SCORE_BLOCK_ROWS + 1
GRID = (0.5, 2.0, 8.0)


def ld_normalize(rows):
    rows = np.asarray(rows, dtype=LD)
    c = rows - rows.mean(axis=1, keepdims=True)
    c -= c.mean(axis=1, keepdims=True)
    rms = np.sqrt((c * c).mean(axis=1, keepdims=True))
    constant = rows.max(axis=1) == rows.min(axis=1)
    out = np.zeros_like(c)
    out[~constant] = c[~constant] / rms[~constant]
    return out


def ld_bank_feature(prices, ts, bank, kernel):
    """Reference per-point prediction of one bank, in long double."""
    m = bank.window_length
    windows = ld_normalize(sliding_window_view(np.asarray(prices, dtype=LD), m)[ts - m + 1])
    if kernel.variant == "exp_similarity":
        s = windows @ ld_normalize(bank.vectors).T / m
        scores = LD(kernel.c) * np.clip(s, -1, 1)
    else:
        diff = windows[:, None, :] - bank.vectors.astype(LD)[None, :, :]
        scores = -(diff * diff).sum(axis=2) / 4
    w = np.exp(scores - scores.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    return w @ bank.labels.astype(LD)


def ld_features(series, banks, kernel, ts):
    columns = [ld_bank_feature(series.prices, ts, bank, kernel) for bank in banks]
    return np.column_stack(columns + [series.imbalances[ts].astype(LD)])


def level_1e6(rng, n):
    """Price level 1e6 moving by about 1e-3 per bucket."""
    return 1e6 + np.cumsum(rng.normal(scale=1e-3, size=n))


def flat_jumps(rng, n):
    """Long flat stretches, each ending in one jump: many windows are exactly
    constant or constant but for their last few values."""
    steps = np.zeros(n)
    ends = np.cumsum(rng.integers(20, 60, size=n))
    ends = ends[ends < n]
    steps[ends] = rng.choice([-1.0, 1.0], size=ends.size) * rng.uniform(0.5, 2.0, size=ends.size)
    return 100.0 + np.cumsum(steps)


def flat_jumps_noisy(rng, n):
    """flat_jumps with 1e-9 noise, so flat windows are near-constant."""
    return flat_jumps(rng, n) + rng.normal(scale=1e-9, size=n)


SERIES = {"level_1e6": level_1e6, "flat_jumps": flat_jumps, "flat_jumps_noisy": flat_jumps_noisy}


def make_case(rng, make_prices):
    """A series with POINTS prediction points and banks mixing windows of the
    series (so the softmax has favourites) with random patterns."""
    n = POINTS + max(WINDOWS) + 1
    prices = make_prices(rng, n)
    series = series_from_prices(prices, imbalances=rng.uniform(-1, 1, size=n))
    banks = []
    for m in WINDOWS:
        view = sliding_window_view(prices, m)
        picks = view[rng.choice(len(view), size=8, replace=False)]
        vectors = [normalize(v) for v in picks] + [normalize(rng.normal(size=m)) for _ in range(3)]
        vectors = np.array([v for v in vectors if v.any()])
        banks.append(
            PatternBank(
                window_length=m,
                vectors=vectors,
                labels=rng.normal(size=len(vectors)),
                populations=np.ones(len(vectors), dtype=np.int64),
            )
        )
    return series, tuple(banks)


def scaled(series, exponent):
    return series_from_prices(np.ldexp(series.prices, exponent), imbalances=series.imbalances)


SIMILARITY = KernelChoice("exp_similarity", c=8.0)
KERNELS = [SIMILARITY, KernelChoice("gaussian_l2")]


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.variant)
@pytest.mark.parametrize("exponent", [0, 300, -300])
@pytest.mark.parametrize("name", sorted(SERIES))
def test_feature_block_matches_long_double_reference(name, exponent, kernel):
    """exp_similarity: feature_block over the run, and one point at a time,
    agrees with the reference, and scattered points are refused.
    gaussian_l2: feature_block refuses it, and predict_label of each point's
    normalized window agrees with the reference."""
    rng = np.random.default_rng(sum(map(ord, name)))
    series, banks = make_case(rng, SERIES[name])
    ts = fit_points(series, banks)
    assert ts.size == POINTS
    want = ld_features(series, banks, kernel, ts).astype(np.float64)
    series = scaled(series, exponent)
    if kernel.variant == "gaussian_l2":
        with pytest.raises(ValueError, match="scored under exp_similarity only"):
            feature_block(series, banks, kernel, ts)
        for j, bank in enumerate(banks):
            windows = sliding_window_view(series.prices, bank.window_length)[ts - bank.window_length + 1]
            got = [predict_label(normalize(window), bank, kernel) for window in windows]
            np.testing.assert_allclose(got, want[:, j], rtol=0, atol=1e-12)
        return
    got = feature_block(series, banks, kernel, ts)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    # scattered points, unsorted and repeated, crossing block boundaries
    picks = rng.choice(ts.size, size=POINTS, replace=True)
    with pytest.raises(ValueError, match="one ascending run of consecutive integers"):
        feature_block(series, banks, kernel, ts[picks])
    # one point at a time gives the batch's bits
    for i in (0, SCORE_BLOCK_ROWS - 1, SCORE_BLOCK_ROWS, ts.size - 1):
        assert feature_block(series, banks, kernel, ts[i : i + 1]).tobytes() == got[i].tobytes()


@pytest.mark.parametrize("exponent", [0, 300, -300])
@pytest.mark.parametrize("name", sorted(SERIES))
def test_calibrate_c_mse_matches_long_double_reference(name, exponent):
    rng = np.random.default_rng(sum(map(ord, name)) + 1)
    series, banks = make_case(rng, SERIES[name])
    ts = fit_points(series, banks)
    targets = series.prices[ts + 1] - series.prices[ts]
    result = calibrate_c(GRID, scaled(series, exponent), banks)
    scale = 2.0**exponent
    for c, mse in result.errors:
        features = ld_features(series, banks, KernelChoice("exp_similarity", c=c), ts)
        weights = fit_weights(features.astype(np.float64), targets)
        residual = weights.apply(features.astype(np.float64)) - targets
        want = float(residual @ residual) / residual.size
        assert mse / scale**2 == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.fixture(scope="module")
def week():
    """60,000 prediction points of a random walk against banks of 180, 360
    and 720 buckets, 20 patterns each (a week of 10-second buckets): the
    series, the banks and the points."""
    rng = np.random.default_rng(3)
    n = 60_000 + 721
    series = series_from_prices(5000 + np.cumsum(rng.normal(size=n)), imbalances=rng.uniform(-1, 1, size=n))
    banks = tuple(
        PatternBank(
            window_length=m,
            vectors=np.array([normalize(rng.normal(size=m)) for _ in range(20)]),
            labels=rng.normal(size=20),
            populations=np.ones(20, dtype=np.int64),
        )
        for m in (180, 360, 720)
    )
    return series, banks, fit_points(series, banks)


def week_model(banks):
    return PredictorModel(banks, KernelChoice("exp_similarity", c=2.0), CombinerWeights((0.1, 0.5, -0.3, 0.2, 0.05)))


SCORING_CALLS = {
    "exp_similarity": lambda series, banks, ts: feature_block(series, banks, SIMILARITY, ts),
    "dp_stream": lambda series, banks, ts: week_model(banks).dp_stream(series, ts)[1],
}


def test_feature_block_memory_is_bounded(week):
    """feature_block of 60,000 points holds the features (1.8 MiB) and one
    anchored block of 256 x 720 (1.4 MiB) with its scores: a traced peak of
    3.9 MiB. dp_stream holds its dp (0.5 MiB) and one slice of 4096 points'
    features (0.1 MiB) beside the block: 2.4 MiB, not the 4.1 MiB of every
    point's features beside dp. Not a (points, 720) array (345 MB), nor the
    previous block while the next is made (1.4 MiB more), nor a block of 512
    rows (5.4-5.7 MiB)."""
    for call in sorted(SCORING_CALLS):
        tracemalloc.start()
        try:
            out = SCORING_CALLS[call](*week)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == ((60_000,) if call == "dp_stream" else (60_000, 4))
        bound = 3 if call == "dp_stream" else 4.75
        assert peak < bound * 2**20, f"{call}: peak {peak / 2**20:.2f} MiB"


def test_a_point_scores_the_same_bits_in_any_run(week):
    """A point's features and dp depend on its window and the model alone, not
    on the run it is scored in. The last 600 points give the batch's bits one
    at a time, and so does every point of runs cut 1 to 100 points short or
    started 1 to 64 points later."""
    series, banks, ts = week
    model = week_model(banks)
    features = feature_block(series, banks, model.kernel, ts)
    dp = model.dp_stream(series, ts)[1]

    def same_bits(points):
        rows = slice(points[0] - ts[0], points[-1] - ts[0] + 1)
        assert feature_block(series, banks, model.kernel, points).tobytes() == features[rows].tobytes()
        assert model.dp_stream(series, points)[1].tobytes() == dp[rows].tobytes()

    for i in range(ts.size - 600, ts.size):
        same_bits(ts[i : i + 1])
    last = ts[-1000:]
    for cut in (1, 5, 16, 33, 63, 64, 100):
        same_bits(last[:-cut])
    for later in (1, 16, 64):
        same_bits(last[later:])


@pytest.mark.parametrize("count", [DP_SLICE_ROWS, DP_SLICE_ROWS + 1, DP_SLICE_ROWS + 2, 1])
def test_dp_stream_slices_give_the_batch_bits(week, count):
    """dp_stream scores DP_SLICE_ROWS points at a time, yet gives the bits of
    the weights applied to every point's features at once, whatever the point
    count modulo the slice: each point's dp is summed along its own row, so a
    remainder of 1 point is scored like any other slice."""
    series, banks, ts = week
    model, points = week_model(banks), ts[:count]
    want = model.weights.apply(feature_block(series, banks, model.kernel, points))
    assert model.dp_stream(series, points)[1].tobytes() == want.tobytes()


def test_block_size_does_not_change_bits(week, monkeypatch):
    """Blocks of SCORE_BLOCK_ROWS, 512, 100 and 64 rows give the same features,
    dp and calibration bit for bit, so the block size never changes a bundle:
    it sets memory alone."""
    series, banks, _ = week

    def score():
        calibration = calibrate_c(GRID, series, banks)
        outputs = [SCORING_CALLS[call](*week) for call in sorted(SCORING_CALLS)]
        return [a.tobytes() for a in outputs] + [repr((calibration.c, calibration.weights, calibration.errors))]

    got = score()
    for rows in (512, 100, 64):
        monkeypatch.setattr(regression, "SCORE_BLOCK_ROWS", rows)
        assert score() == got, f"blocks of {rows} rows"


def test_similarity_products_stay_under_the_blas_threading_cutoff(week, monkeypatch):
    """Each product _similarity hands to np.matmul on the default banks (180,
    360 and 720 buckets, 20 patterns) has m * n * k <= 2^18, which OpenBLAS
    runs on the calling thread, and exactly P rows, a power of two that
    divides SCORE_BLOCK_ROWS: 64, 32 and 16 rows. Runs of 2 blocks and 5
    points and of 1 point are padded to whole pieces, so no product is short
    and no rounding depends on the run's length."""
    series, banks, ts = week
    shapes = []

    def recording(a, b, *args, **kwargs):
        shapes.append((a.shape, b.shape))
        return matmul(a, b, *args, **kwargs)

    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", recording)
    feature_block(series, banks, SIMILARITY, ts[: 2 * SCORE_BLOCK_ROWS + 5])
    feature_block(series, banks, SIMILARITY, ts[:1])
    similarity_many(sliding_window_view(series.prices, 720)[: SCORE_BLOCK_ROWS], banks[-1].vectors)
    monkeypatch.undo()
    assert all(rows * m * k <= 2**18 for (rows, m), (_, k) in shapes)
    assert all(SCORE_BLOCK_ROWS % rows == 0 for (rows, _), _ in shapes)
    pieces = {m: {rows for (rows, m_), _ in shapes if m_ == m} for m in (180, 360, 720)}
    assert pieces == {180: {64}, 360: {32}, 720: {16}}


def spiky_rows(m):
    """Rows of one repeated value with a few one-off spikes; some stay constant."""
    value = st.floats(-1e6, 1e6, allow_subnormal=False)
    spikes = st.lists(st.tuples(st.integers(0, m - 1), value), max_size=2)
    row = st.tuples(value, spikes).map(lambda r: _spike(m, *r))
    return st.lists(row, min_size=1, max_size=4)


def _spike(m, base, spikes):
    row = [base] * m
    for i, v in spikes:
        row[i] = v
    return row


@given(st.integers(min_value=2, max_value=10).flatmap(lambda m: st.tuples(spiky_rows(m), spiky_rows(m))))
@settings(max_examples=200, deadline=None)
def test_symmetric_and_block_matches_single_pairs_on_spiky_rows(blocks):
    queries, vectors = np.array(blocks[0]), np.array(blocks[1])
    batch = similarity_many(queries, vectors)
    for i, q in enumerate(queries):
        for j, v in enumerate(vectors):
            s = similarity(q, v)
            assert s == similarity(v, q)
            assert batch[i, j] == pytest.approx(s, abs=1e-12)
            if q.max() == q.min() or v.max() == v.min():
                assert s == 0.0


def bank_windows(series, m, ts):
    """(slice, windows) of the length-m windows ending at ts, gathered
    SCORE_BLOCK_ROWS points at a time."""
    for out, points in row_blocks(ts, SCORE_BLOCK_ROWS):
        yield out, sliding_window_view(series.prices, m)[points - m + 1]


def per_bank_features(series, banks, kernel, ts):
    """The bank-major loop that block-major scoring replaced: each bank
    gathers its own windows, a block of points at a time, and anchors them
    itself (inside _scores)."""
    features = np.empty((ts.size, len(banks) + 1))
    for j, bank in enumerate(banks):
        for out, windows in bank_windows(series, bank.window_length, ts):
            scores = regression._scores(windows, bank, kernel.variant)
            features[out, j] = regression._label_average(regression._softmax(scores, kernel.c), bank.labels)
    features[:, -1] = series.imbalances[ts]
    return features


def per_bank_calibration(grid, series, banks):
    """calibrate_c over per-bank scores: (c, weights, ridge flag, MSE table)."""
    ts = fit_points(series, banks)
    targets = series.prices[ts + 1] - series.prices[ts]
    scores = []
    for bank in banks:
        bank_scores = np.empty((ts.size, len(bank)))
        for out, windows in bank_windows(series, bank.window_length, ts):
            bank_scores[out] = regression._scores(windows, bank, "exp_similarity")
        scores.append(bank_scores)
    best, errors = None, []
    for c in sorted(set(grid)):
        columns = [regression._label_average(regression._softmax(s, c), bank.labels)
                   for s, bank in zip(scores, banks)]
        features = np.column_stack(columns + [series.imbalances[ts]])
        weights = fit_weights(features, targets)
        residual = weights.apply(features) - targets
        mse = float((residual @ residual) / residual.size)
        errors.append((c, mse))
        if best is None or mse < best[0]:
            best = (mse, c, weights)
    return best[1], best[2].w, best[2].used_ridge, tuple(errors)


def outcome(call):
    """repr of call()'s result, or of the ValueError it raised (nan == nan here)."""
    try:
        return repr(call())
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def block_major_cases(draw):
    lengths = sorted(draw(st.sets(st.integers(2, 24), min_size=1, max_size=4)))
    points = draw(st.sampled_from(["consecutive", "scattered", "single"]))
    return lengths, points, draw(st.integers(0, 2**32 - 1))


@given(block_major_cases())
@settings(max_examples=60, deadline=None)
def test_block_major_scoring_equals_per_bank_loop_bit_for_bit(case):
    """One anchored block of the longest windows, each bank scoring its suffix,
    gives the per-bank loop's features and calibration bit for bit. Segments at
    1e-70 and 1e70 make rows whose suffix for a short bank lies outside
    [2^-400, 2^400] while a longer bank's suffix does not; such a row must be
    rescaled in a copy, not in the block the longer banks read. Scattered
    points are refused."""
    lengths, points, seed = case
    rng = np.random.default_rng(seed)
    shortest, longest = lengths[0], lengths[-1]
    n = longest + SCORE_BLOCK_ROWS + 40
    prices = 100.0 + np.cumsum(rng.normal(size=n))
    for _ in range(8):
        start = int(rng.integers(0, n))
        stop = min(n, start + int(rng.integers(1, longest + 1)))
        scale = rng.choice([1e-70, 1e70, 0.0])
        prices[start:stop] = scale * rng.normal(size=stop - start) + (0.0 if scale else prices[start])
    # a point whose shortest window alone lies in a tiny segment
    t = int(rng.integers(longest + shortest, n - 1))
    prices[t - shortest + 1 : t + 1] = 1e-70 * rng.normal(size=shortest)
    series = series_from_prices(prices, imbalances=rng.uniform(-1, 1, size=n))
    banks = tuple(
        PatternBank(
            window_length=m,
            vectors=np.array([normalize(rng.normal(size=m)) for _ in range(3)] + [np.zeros(m)]),
            labels=rng.normal(size=4),
            populations=np.ones(4, dtype=np.int64),
        )
        for m in lengths
    )
    if points == "consecutive":
        ts = np.arange(longest, n - 1)
    elif points == "scattered":  # unsorted, repeated, crossing block boundaries
        ts = np.append(rng.integers(longest, n, size=SCORE_BLOCK_ROWS + 20), t)
    else:
        ts = np.array([t])
    kernel = KernelChoice("exp_similarity", c=float(rng.choice(GRID)))
    if points == "scattered":
        with pytest.raises(ValueError, match="one ascending run of consecutive integers"):
            feature_block(series, banks, kernel, ts)
    else:
        got = feature_block(series, banks, kernel, ts)
        assert got.tobytes() == per_bank_features(series, banks, kernel, ts).tobytes()
    want = outcome(lambda: per_bank_calibration(GRID, series, banks))
    got = outcome(lambda: (lambda r: (r.c, r.weights.w, r.weights.used_ridge, r.errors))(
        calibrate_c(GRID, series, banks)))
    assert got == want
