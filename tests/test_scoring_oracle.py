"""Window scoring against a long-double two-pass reference.

The reference normalizes every window and every bank vector in extended
precision (subtract the mean, subtract the mean of the residual, divide by
the root mean square; a constant row is the zero row), correlates them,
takes the softmax of the kernel scores and averages the bank labels. The
block scorer works on rows taken relative to their last value, a block of
rows at a time, with a magnitude guard; it must agree with the reference
to 1e-12 on series built to stress each of those steps.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from lstrader.pattern_bank import PatternBank, normalize
from lstrader.regression import (
    SCORE_BLOCK_ROWS,
    KernelChoice,
    calibrate_c,
    feature_block,
    fit_points,
    fit_weights,
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


KERNELS = [KernelChoice("exp_similarity", c=8.0), KernelChoice("gaussian_l2")]


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.variant)
@pytest.mark.parametrize("exponent", [0, 300, -300])
@pytest.mark.parametrize("name", sorted(SERIES))
def test_feature_block_matches_long_double_reference(name, exponent, kernel):
    rng = np.random.default_rng(sum(map(ord, name)))
    series, banks = make_case(rng, SERIES[name])
    ts = fit_points(series, banks)
    assert ts.size == POINTS
    want = ld_features(series, banks, kernel, ts)
    series = scaled(series, exponent)
    got = feature_block(series, banks, kernel, ts)
    np.testing.assert_allclose(got, want.astype(np.float64), rtol=0, atol=1e-12)
    # scattered points, unsorted and repeated, crossing block boundaries
    picks = rng.choice(ts.size, size=POINTS, replace=True)
    got = feature_block(series, banks, kernel, ts[picks])
    np.testing.assert_allclose(got, want[picks].astype(np.float64), rtol=0, atol=1e-12)
    # one point at a time agrees with the blocks
    for i in (0, SCORE_BLOCK_ROWS - 1, SCORE_BLOCK_ROWS, ts.size - 1):
        one = feature_block(series, banks, kernel, ts[i : i + 1])[0]
        np.testing.assert_allclose(one, want[i].astype(np.float64), rtol=0, atol=1e-12)


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
        weights = fit_weights(list(zip(features.astype(np.float64), targets)))
        residual = weights.apply(features.astype(np.float64)) - targets
        want = float(residual @ residual) / residual.size
        assert mse / scale**2 == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_feature_block_memory_is_bounded():
    """Scoring 60,000 points against a 720 bank allocates a few blocks of
    rows, not a (points, 720) array (345 MB)."""
    rng = np.random.default_rng(3)
    n = 60_000 + 720
    series = series_from_prices(5000 + np.cumsum(rng.normal(size=n)))
    vectors = np.array([normalize(rng.normal(size=720)) for _ in range(20)])
    bank = PatternBank(
        window_length=720,
        vectors=vectors,
        labels=rng.normal(size=20),
        populations=np.ones(20, dtype=np.int64),
    )
    ts = np.arange(720, n)
    for kernel in KERNELS:
        tracemalloc.start()
        try:
            features = feature_block(series, (bank,), kernel, ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert features.shape == (ts.size, 2)
        assert peak < 32 * 2**20, f"{kernel.variant}: peak {peak / 2**20:.1f} MiB"


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
