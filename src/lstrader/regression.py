"""Kernel-weighted empirical regression over pattern banks.

The estimator treats stored patterns as a proxy for the unknown prototype
vectors of the generative model: a query is scored against every bank
pattern, scores become normalized kernel weights, and the prediction is the
weight-averaged pattern label. Two kernels are supported:

* ``exp_similarity``:   weight_i proportional to exp(c * s(x, x_i)), the
  one kernel under which series windows are scored;
* ``gaussian_l2``:      weight_i proportional to exp(-|x - x_i|^2 / 4), for
  single queries only (``kernel_weights`` and the functions built on it);

where s is the mean- and scale-invariant correlation

    s(a, b) = sum((a_z - mean(a)) (b_z - mean(b))) / (M std(a) std(b)),

std being the square root of the mean squared deviation, and s = 0 when
either vector is constant.

How scores are computed (each row taken relative to its own last value,
the magnitude guard, one anchored block of SCORE_BLOCK_ROWS points for
every bank, the row-local rule) is set out once, in README.md ("How it
works", step 3). The formula: on anchored rows d
(``pattern_bank.anchored_rows``), with s1 = sum(d), mean = s1 / M and
msq = max(sum(d^2) - s1 * mean, 0) / M,

    s = (d . d_v - M mean mean_v) / (M sqrt(msq msq_v)),

0 where the denominator is 0, clipped to [-1, 1]. Both sides go through
the same row rule, so s(a, b) == s(b, a) bit for bit. ``_similarity`` is
the one place the formula is computed (``similarity_many`` and its 1x1
call ``similarity`` wrap it), and ``_score_blocks`` the one block loop,
shared by ``feature_block`` and ``calibrate_c``, over one consecutive run
of prediction points. Every product and sum of scoring is row-local: a
point's bits depend on its window and the model alone, not on the other
points of its call, so where a run starts and ends, and how it is cut
into blocks and slices, changes no bit.

A predictor holds N >= 1 banks with strictly increasing window lengths. On
top of the N per-bank predictions sits an affine combiner with N + 2
weights (intercept, one coefficient per bank, order-book imbalance), fit by
ordinary least squares with a small-ridge fallback for rank-deficient
designs, and a grid calibration for the kernel sharpness constant c. Each
job has one form, over rows: a point's features are a one-row ``feature_block``,
and ``CombinerWeights.apply`` and ``fit_weights`` take a feature matrix.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .market_data import PriceSeries, read_json, require_fields, write_json
from .pattern_bank import PatternBank, anchored_moments, anchored_rows, row_blocks

KERNEL_GAUSSIAN_L2 = "gaussian_l2"
KERNEL_EXP_SIMILARITY = "exp_similarity"
_KERNEL_VARIANTS = (KERNEL_GAUSSIAN_L2, KERNEL_EXP_SIMILARITY)

DEFAULT_C_GRID = (0.5, 1.0, 2.0, 4.0, 8.0)
RIDGE_LAMBDA = 1e-8
MIN_FIT_SAMPLES = 5

# Query rows per scoring block: every scoring temporary holds at most this
# many rows of M values, whatever the number of prediction points (1.4 MiB
# at M = 720); see ROADMAP.md, "Settled sizings". It caps the product pieces,
# so under 64 rows it would change the default banks' bits.
SCORE_BLOCK_ROWS = 256
# Prediction points per dp_stream slice: beside dp, one slice of features is held.
DP_SLICE_ROWS = 4096
# OpenBLAS runs a dgemm of m n k <= 65536 * GEMM_MULTITHREAD_THRESHOLD (4) on the calling
# thread (interface/gemm.c); scoring products are cut to that size (README.md, step 3).
SINGLE_THREAD_MNK = 2**18


@dataclass(frozen=True)
class KernelChoice:
    """Kernel variant plus the sharpness constant used by exp_similarity."""

    variant: str
    c: float = 1.0

    def __post_init__(self) -> None:
        if self.variant not in _KERNEL_VARIANTS:
            raise ValueError(f"unknown kernel variant: {self.variant!r}")
        if self.variant == KERNEL_EXP_SIMILARITY and not (np.isfinite(self.c) and self.c > 0):
            raise ValueError("exp_similarity requires a finite c > 0")


def _similarity(rows: tuple, rows_v: tuple) -> np.ndarray:
    """s of query rows against pattern rows, both given as their
    anchored_moments. d . d_v is taken in products of P rows, P the largest
    power of two with P K M <= SINGLE_THREAD_MNK, at least 1 and at most
    SCORE_BLOCK_ROWS; zero rows pad a short last piece to P rows."""
    dv, mean_v, msq_v = rows_v
    d, mean, msq = rows
    m = d.shape[1]
    piece = max(1, min(SINGLE_THREAD_MNK >> (dv.shape[0] * m - 1).bit_length(), SCORE_BLOCK_ROWS))
    scores = np.empty((d.shape[0], dv.shape[0]))
    for rows_out, rows_d in row_blocks(d, piece):
        # a short product rounds otherwise than a full one, so a row's bits would depend on the run
        full = rows_d if len(rows_d) == piece else np.concatenate((rows_d, np.zeros((piece - len(rows_d), m))))
        scores[rows_out] = np.matmul(full, dv.T)[: len(rows_d)]
    cross = mean[:, None] * mean_v
    cross *= m
    scores -= cross
    denom = np.multiply(msq[:, None], msq_v, out=cross)
    np.sqrt(denom, out=denom)
    denom *= m
    # a row that is not constant has msq >= sum(d^2) / (M (M + 1)), far above
    # rounding, so the denominator is 0 only for a constant row; its d and
    # mean are exactly 0, so s stays 0 there
    np.divide(scores, denom, out=scores, where=denom > 0)
    np.minimum(scores, 1.0, out=scores)
    return np.maximum(scores, -1.0, out=scores)


def similarity_many(queries: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Pairwise similarity s of query rows against pattern rows.

    Returns an (n_queries, n_vectors) array clipped to [-1, 1]; a constant
    row scores 0 against everything.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if queries.ndim != 2 or vectors.ndim != 2 or queries.shape[1] != vectors.shape[1]:
        raise ValueError(f"dimension mismatch: queries {queries.shape} vs vectors {vectors.shape}")
    if queries.shape[1] < 2:
        raise ValueError("similarity needs vectors of length >= 2")
    return _similarity(anchored_rows(queries), anchored_rows(vectors))


def similarity(a, b) -> float:
    """Mean- and scale-invariant correlation of two equal-length vectors.

    Bounded in [-1, 1]; invariant under positive affine transforms of either
    argument; defined as 0 when either vector is constant.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise ValueError(f"similarity needs equal-length vectors, got {a.shape} vs {b.shape}")
    return float(similarity_many(a[None, :], b[None, :])[0, 0])


def _scores(queries: np.ndarray, bank: PatternBank, variant: str) -> np.ndarray:
    """Log-kernel scores (n, K) of one block of query rows against the bank
    patterns, before the kernel constant: s for exp_similarity,
    -|x - x_i|^2 / 4 for gaussian_l2. Rows are compared as given."""
    if variant == KERNEL_EXP_SIMILARITY:
        return _similarity(anchored_rows(queries), bank.anchored)
    sq_q = np.einsum("ij,ij->i", queries, queries)
    sq_v = np.einsum("ij,ij->i", bank.vectors, bank.vectors)
    d2 = sq_q[:, None] + sq_v[None, :] - 2.0 * (queries @ bank.vectors.T)
    np.clip(d2, 0.0, None, out=d2)
    return -0.25 * d2


def _softmax(scores: np.ndarray, scale: float) -> np.ndarray:
    """Normalized kernel weights: the row-wise softmax of scale * scores."""
    w = scale * scores
    # under a huge scale a shift may overflow to -inf, whose exp is the 0 weight it stands for
    with np.errstate(over="ignore"):
        w -= w.max(axis=1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=1, keepdims=True)
    return w


def _label_average(weights: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """A bank's prediction per row of kernel weights: the weighted label average,
    each row summed on its own (a matrix-vector product rounds its last rows
    otherwise, by the row count)."""
    return (weights * labels).sum(axis=-1)


def kernel_weights(x, bank: PatternBank, kernel: KernelChoice) -> np.ndarray:
    """Normalized kernel weight per bank pattern (non-negative, sums to 1)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (bank.window_length,):
        raise ValueError(f"query has shape {x.shape}, bank expects ({bank.window_length},)")
    scale = kernel.c if kernel.variant == KERNEL_EXP_SIMILARITY else 1.0  # gaussian_l2 has no constant
    return _softmax(_scores(x[None, :], bank, kernel.variant), scale)[0]


def predict_label(x, bank: PatternBank, kernel: KernelChoice) -> float:
    """Kernel-weighted average of bank labels: the estimated E[y | x]."""
    return float(_label_average(kernel_weights(x, bank, kernel), bank.labels))


def empirical_conditional(y: float, x, bank: PatternBank, kernel: KernelChoice) -> float:
    """Estimated P(y | x): the share of kernel weight on patterns labeled exactly y."""
    w = kernel_weights(x, bank, kernel)
    return float(w[bank.labels == y].sum() / w.sum())


def classify_binary(x, bank: PatternBank, kernel: KernelChoice) -> int:
    """Declare 1 iff the class-1 kernel mass strictly exceeds the class-0 mass.

    Bank labels must all be 0 or 1. A single-class bank is no separate case:
    the other class has no mass, so the bank's own class is declared, and a
    query of the wrong length is refused as for any bank.
    """
    labels = bank.labels
    if not np.isin(labels, (0.0, 1.0)).all():
        raise ValueError("classify_binary requires bank labels in {0, 1}")
    ones = labels == 1.0
    w = kernel_weights(x, bank, kernel)
    return int(w[ones].sum() > w[~ones].sum())


def history_required(banks: Sequence[PatternBank]) -> int:
    """Buckets of history a prediction point must have behind it."""
    return max(bank.window_length for bank in banks)


def _score_blocks(series: PriceSeries, banks: Sequence[PatternBank], ts: np.ndarray):
    """(slice, bank index, s) of the consecutive run ts, SCORE_BLOCK_ROWS points at
    a time. A block is a view of the longest windows, anchored once; each bank
    scores its suffix, as the suffix of d = windows - windows[:, -1:] is its own d."""
    longest = history_required(banks)
    for out, points in row_blocks(ts, SCORE_BLOCK_ROWS):
        windows = sliding_window_view(series.prices[points[0] + 1 - longest : points[-1] + 1], longest)
        with np.errstate(invalid="ignore", over="ignore"):
            d = windows - windows[:, -1:]
        for j, bank in enumerate(banks):
            yield out, j, _similarity(anchored_moments(d[:, longest - bank.window_length :]), bank.anchored)
        del d  # a block goes before the next is made


def _check_points(series: PriceSeries, banks: Sequence[PatternBank], ts) -> np.ndarray:
    """ts as int64, once it is one ascending run of consecutive integers (an
    empty run included) whose points each have their history in the series."""
    ts, needed = np.asarray(ts), history_required(banks)
    if ts.size and not (ts.ndim == 1 and ts.dtype.kind in "iu" and (np.diff(ts) == 1).all()):
        raise ValueError("prediction points must be one ascending run of consecutive integers")
    ts = ts.astype(np.int64, copy=False)  # no copy of an int64 run, which dp_stream holds beside ts
    if ts.size and (ts[0] < needed or ts[-1] >= len(series)):
        raise ValueError(f"prediction points need {needed} buckets of history and must lie in "
                         f"[{needed}, {len(series) - 1}], got [{ts[0]}, {ts[-1]}]")
    return ts


def _check_kernel(kernel: KernelChoice) -> None:
    """Series windows are scored under the similarity kernel alone."""
    if kernel.variant != KERNEL_EXP_SIMILARITY:
        raise ValueError(f"series are scored under {KERNEL_EXP_SIMILARITY} only, got {kernel.variant!r}")


def feature_block(
    series: PriceSeries,
    banks: Sequence[PatternBank],
    kernel: KernelChoice,
    ts: np.ndarray,
) -> np.ndarray:
    """Combiner inputs at a consecutive run of prediction points.

    Returns a (len(ts), N + 1) array: per row, the N bank predictions
    (shortest window first) and then the imbalance, from data up to and
    including that point. Each bank scores the trailing window of its length
    under the exp_similarity kernel, the only one accepted. Windows are
    scored in blocks, so memory does not grow with len(ts) beyond the result.
    """
    _check_kernel(kernel)
    ts = _check_points(series, banks, ts)
    features = np.empty((ts.size, len(banks) + 1))
    for out, j, scores in _score_blocks(series, banks, ts):
        features[out, j] = _label_average(_softmax(scores, kernel.c), banks[j].labels)
    features[:, -1] = series.imbalances[ts]
    return features


@dataclass(frozen=True)
class CombinerWeights:
    """Affine combiner over N bank predictions and the imbalance.

    w holds N + 2 weights: the intercept, one coefficient per bank (shortest
    window first), then the imbalance coefficient.
    """

    w: tuple[float, ...]
    used_ridge: bool = False

    def __post_init__(self) -> None:
        w = tuple(float(v) for v in self.w)
        if len(w) < 3:
            raise ValueError(
                f"combiner needs an intercept, a bank and an imbalance weight, got {len(w)} weights"
            )
        if not np.isfinite(w).all():
            raise ValueError("combiner weights must be finite")
        object.__setattr__(self, "w", w)

    def as_array(self) -> np.ndarray:
        return np.array(self.w)

    def apply(self, features) -> np.ndarray:
        """Intercept plus the coefficient-weighted sum of the features over the last
        axis (N bank predictions, imbalance), each row summed on its own."""
        w = self.as_array()
        features = np.asarray(features, dtype=np.float64)
        if features.shape[-1:] != (w.size - 1,):
            raise ValueError(f"{w.size} weights take {w.size - 1} features, got {features.shape}")
        return (features * w[1:]).sum(axis=-1) + w[0]


def fit_weights(features, targets) -> CombinerWeights:
    """Ordinary least squares for the combiner on rows of N + 1 features (N
    bank predictions, then imbalance) and their targets; rank-deficient
    designs fall back to a small ridge (lambda = 1e-8), flagged in used_ridge."""
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    n = features.shape[0]
    if n < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples, got {n}")
    design = np.column_stack([np.ones(n), features])
    gram = design.T @ design
    rhs = design.T @ targets
    used_ridge = bool(np.linalg.matrix_rank(design) < design.shape[1])
    if used_ridge:
        gram = gram + RIDGE_LAMBDA * np.eye(design.shape[1])
    w = np.linalg.solve(gram, rhs)
    return CombinerWeights(tuple(w.tolist()), used_ridge=used_ridge)


@dataclass(frozen=True)
class CalibrationResult:
    """Chosen kernel constant, its combiner fit, and the full grid search."""

    c: float
    weights: CombinerWeights
    errors: tuple[tuple[float, float], ...]  # (c, in-sample MSE) per grid point


def fit_points(series: PriceSeries, banks: Sequence[PatternBank]) -> np.ndarray:
    """Prediction points of a series that have both full history and a target."""
    first = history_required(banks)
    last = len(series) - 2  # target is the increment into bucket t+1
    if last < first:
        raise ValueError(
            f"series has {len(series)} buckets, need more than {first + 1} "
            "for any fit/evaluation point"
        )
    return np.arange(first, last + 1)


def check_c_grid(grid: Sequence[float]) -> list[float]:
    """The distinct values of a c grid in ascending order; ValueError unless
    there is at least one and each is finite and > 0."""
    grid = sorted({float(c) for c in grid})
    if not grid:
        raise ValueError("c grid is empty")
    if not all(np.isfinite(c) and c > 0 for c in grid):
        raise ValueError("c grid values must be finite and > 0")
    return grid


def calibrate_c(
    grid: Sequence[float],
    fit_series: PriceSeries,
    banks: Sequence[PatternBank],
) -> CalibrationResult:
    """Grid-search the exp_similarity constant on in-sample combiner MSE.

    For each c the combiner is refit on the series and scored against the
    realized next-bucket price changes; the smallest-MSE c wins, ties going
    to the smaller c. Similarity scores do not depend on c, so the sweep
    costs one pass of window scoring plus a softmax and a small OLS per c.
    """
    grid = check_c_grid(grid)
    ts = fit_points(fit_series, banks)
    if ts.size < MIN_FIT_SAMPLES:
        raise ValueError(
            f"fit series yields {ts.size} samples, need at least {MIN_FIT_SAMPLES}"
        )
    targets = fit_series.prices[ts + 1] - fit_series.prices[ts]
    imbalances = fit_series.imbalances[ts]
    scores = [np.empty((ts.size, len(bank))) for bank in banks]
    for out, j, block in _score_blocks(fit_series, banks, ts):
        scores[j][out] = block

    best: tuple[float, float, CombinerWeights] | None = None
    errors = []
    for c in grid:
        columns = [_label_average(_softmax(s, c), bank.labels) for s, bank in zip(scores, banks)]
        features = np.column_stack(columns + [imbalances])
        weights = fit_weights(features, targets)
        residual = weights.apply(features) - targets
        mse = float((residual @ residual) / residual.size)
        errors.append((c, mse))
        if best is None or mse < best[0]:
            best = (mse, c, weights)

    _, c_star, weights_star = best
    return CalibrationResult(c=c_star, weights=weights_star, errors=tuple(errors))


@dataclass(frozen=True)
class PredictorModel:
    """The trained predictor: N >= 1 banks with strictly increasing window
    lengths, an exp_similarity kernel, and N + 2 combiner weights."""

    banks: tuple[PatternBank, ...]
    kernel: KernelChoice
    weights: CombinerWeights

    def __post_init__(self) -> None:
        banks = tuple(self.banks)
        if not banks:
            raise ValueError("predictor needs at least one bank")
        lengths = [b.window_length for b in banks]
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise ValueError("bank window lengths must be strictly increasing")
        if len(self.weights.w) != len(banks) + 2:
            raise ValueError(
                f"{len(banks)} banks need {len(banks) + 2} combiner weights (intercept, "
                f"one per bank, imbalance), got {len(self.weights.w)}"
            )
        _check_kernel(self.kernel)
        object.__setattr__(self, "banks", banks)

    def dp_stream(self, series: PriceSeries, ts: np.ndarray | None = None):
        """Predicted price change at each of a consecutive run of prediction points.

        Returns (ts, dp). Defaults to every point with full history and an
        observable next bucket. Points are scored DP_SLICE_ROWS at a time, so
        beside dp only one slice of features is held.
        """
        if ts is None:
            ts = fit_points(series, self.banks)
        points = _check_points(series, self.banks, ts)
        dp = np.empty(points.size)
        for out, block in row_blocks(points, DP_SLICE_ROWS):
            dp[out] = self.weights.apply(feature_block(series, self.banks, self.kernel, block))
        return ts, dp

    def to_json_dict(self, bank_paths: Sequence[str]) -> dict:
        if len(bank_paths) != len(self.banks):
            raise ValueError("need one path per bank")
        weights = {f"w{i}": v for i, v in enumerate(self.weights.w)}
        weights["used_ridge"] = self.weights.used_ridge
        return {
            "kernel": {"variant": self.kernel.variant, "c": self.kernel.c},
            "weights": weights,
            "banks": list(bank_paths),
        }

    def save_json(self, path, bank_paths: Sequence[str]) -> None:
        write_json(path, self.to_json_dict(bank_paths))

    @classmethod
    def load_json(cls, path) -> "PredictorModel":
        """A model and its banks, whose paths are relative to the model file. A fault
        raises ValueError naming its file: a bank's own, else the model file."""
        kernel, weights, refs = read_json(path, _parse_model)
        base = os.path.dirname(os.fspath(path))
        try:
            banks = tuple(PatternBank.load(os.path.join(base, ref)) for ref in refs)
        except IsADirectoryError as exc:
            raise ValueError(f"{path}: bank path {exc.filename} is a directory") from None
        try:
            return cls(banks=banks, kernel=kernel, weights=weights)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _parse_model(data) -> tuple[KernelChoice, CombinerWeights, list[str]]:
    """(kernel, weights, bank paths) of a model's JSON form: c and the weights
    JSON numbers, used_ridge a boolean, the banks a list of path strings."""
    require_fields(data, (("kernel", dict, "a dict"), ("weights", dict, "a dict"),
                          ("banks", list, "a list")), "model JSON")
    refs, w = data["banks"], data["weights"]
    if not all(isinstance(ref, str) for ref in refs):
        raise ValueError("model JSON needs a list of path strings 'banks'")
    try:
        c = data["kernel"]["c"]
        if type(c) not in (int, float):
            raise TypeError(f"c must be a JSON number, got {c!r}")
        kernel = KernelChoice(variant=data["kernel"]["variant"], c=float(c))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad model kernel ({type(exc).__name__}: {exc})") from None
    names = [f"w{i}" for i in range(len(refs) + 2)]
    found = sorted(k for k in w if k != "used_ridge")
    if found != sorted(names):
        raise ValueError(f"{len(refs)} banks need weights w0..{names[-1]}, found {found}")
    require_fields(w, [(k, (int, float), "a number") for k in names]
                   + [("used_ridge", bool, "a boolean")], "model JSON weights")
    return kernel, CombinerWeights(tuple(w[k] for k in names), w["used_ridge"]), refs
