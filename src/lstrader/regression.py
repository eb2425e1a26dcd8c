"""Kernel-weighted empirical regression over pattern banks.

The estimator treats stored patterns as a proxy for the unknown prototype
vectors of the generative model: a query is scored against every bank
pattern, scores become normalized kernel weights, and the prediction is the
weight-averaged pattern label. Two kernels are supported:

* ``gaussian_l2``:      weight_i proportional to exp(-|x - x_i|^2 / 4)
* ``exp_similarity``:   weight_i proportional to exp(c * s(x, x_i))

where s is the mean- and scale-invariant correlation

    s(a, b) = sum((a_z - mean(a)) (b_z - mean(b))) / (M std(a) std(b)),

std being the square root of the mean squared deviation, and s = 0 when
either vector is constant.

There is one scoring rule and one scorer. ``similarity_many`` evaluates s
for a block of query rows against a block of pattern rows with one matrix
product over M. Each row's deviations are first divided by their largest
magnitude (``pattern_bank.scaled_deviations``; a bank keeps its own scaled
rows), so finite inputs of any magnitude neither overflow nor underflow
when squared; ``similarity`` is its 1x1 call. ``_kernel_weights`` turns a
block of query rows into normalized weights against one bank. Everything
that predicts goes through it: ``feature_block`` with the trailing windows
of a series, and ``kernel_weights``, ``predict_label``,
``empirical_conditional``, ``classify_binary`` and ``assemble_features`` as
one-row calls.

A predictor holds N >= 1 banks with strictly increasing window lengths. On
top of the N per-bank predictions sits an affine combiner with N + 2
weights (intercept, one coefficient per bank, order-book imbalance), fit by
ordinary least squares with a small-ridge fallback for rank-deficient
designs, and a grid calibration for the kernel sharpness constant c.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .market_data import PriceSeries
from .pattern_bank import PatternBank, normalize_rows, scaled_deviations

KERNEL_GAUSSIAN_L2 = "gaussian_l2"
KERNEL_EXP_SIMILARITY = "exp_similarity"
_KERNEL_VARIANTS = (KERNEL_GAUSSIAN_L2, KERNEL_EXP_SIMILARITY)

DEFAULT_C_GRID = (0.5, 1.0, 2.0, 4.0, 8.0)
RIDGE_LAMBDA = 1e-8
MIN_FIT_SAMPLES = 5


@dataclass(frozen=True)
class KernelChoice:
    """Kernel variant plus the sharpness constant used by exp_similarity."""

    variant: str
    c: float = 1.0

    def __post_init__(self) -> None:
        if self.variant not in _KERNEL_VARIANTS:
            raise ValueError(f"unknown kernel variant: {self.variant!r}")
        if self.variant == KERNEL_EXP_SIMILARITY and not self.c > 0:
            raise ValueError("exp_similarity requires c > 0")


def _similarity(queries: np.ndarray, dv: np.ndarray, msq_v: np.ndarray) -> np.ndarray:
    """s of query rows against pattern rows given as their scaled_deviations.

    The deviation block of the queries is freed before the
    (n_queries, n_vectors) scaling.
    """
    dq, msq_q = scaled_deviations(queries)
    scores = dq @ dv.T
    del dq
    denom = np.outer(msq_q, msq_v)
    np.sqrt(denom, out=denom)
    denom *= queries.shape[1]
    # a constant row has zero deviations, so its products are already 0
    np.divide(scores, denom, out=scores, where=denom > 0)
    np.clip(scores, -1.0, 1.0, out=scores)
    return scores


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
    return _similarity(queries, *scaled_deviations(vectors))


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
    """Log-kernel scores (n, K) of query rows against the bank patterns,
    before the kernel constant: s for exp_similarity, -|x - x_i|^2 / 4 for
    gaussian_l2. Rows are compared as given."""
    if queries.shape[1] != bank.window_length:
        raise ValueError(
            f"queries have length {queries.shape[1]}, bank expects {bank.window_length}"
        )
    if variant == KERNEL_EXP_SIMILARITY:
        return _similarity(queries, *bank.scaled_rows)
    sq_q = np.einsum("ij,ij->i", queries, queries)
    sq_v = np.einsum("ij,ij->i", bank.vectors, bank.vectors)
    d2 = sq_q[:, None] + sq_v[None, :] - 2.0 * (queries @ bank.vectors.T)
    np.clip(d2, 0.0, None, out=d2)
    return -0.25 * d2


def _softmax(scores: np.ndarray, scale: float) -> np.ndarray:
    """Normalized kernel weights: the row-wise softmax of scale * scores."""
    w = scale * scores
    w -= w.max(axis=1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=1, keepdims=True)
    return w


def _kernel_weights(queries: np.ndarray, bank: PatternBank, kernel: KernelChoice) -> np.ndarray:
    """The scorer: normalized kernel weights (n, K) of query rows against a bank."""
    scale = kernel.c if kernel.variant == KERNEL_EXP_SIMILARITY else 1.0
    return _softmax(_scores(queries, bank, kernel.variant), scale)


def kernel_weights(x, bank: PatternBank, kernel: KernelChoice) -> np.ndarray:
    """Normalized kernel weight per bank pattern (non-negative, sums to 1)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (bank.window_length,):
        raise ValueError(f"query has shape {x.shape}, bank expects ({bank.window_length},)")
    return _kernel_weights(x[None, :], bank, kernel)[0]


def predict_label(x, bank: PatternBank, kernel: KernelChoice) -> float:
    """Kernel-weighted average of bank labels: the estimated E[y | x]."""
    return float(kernel_weights(x, bank, kernel) @ bank.labels)


def empirical_conditional(y: float, x, bank: PatternBank, kernel: KernelChoice) -> float:
    """Estimated P(y | x): the share of kernel weight on patterns labeled exactly y."""
    w = kernel_weights(x, bank, kernel)
    return float(w[bank.labels == y].sum() / w.sum())


def classify_binary(x, bank: PatternBank, kernel: KernelChoice) -> int:
    """Declare 1 iff the class-1 kernel mass strictly exceeds the class-0 mass.

    Bank labels must all be 0 or 1. A single-class bank returns its class
    (the limit of the mass ratio).
    """
    labels = bank.labels
    if not np.isin(labels, (0.0, 1.0)).all():
        raise ValueError("classify_binary requires bank labels in {0, 1}")
    ones = labels == 1.0
    if ones.all():
        return 1
    if not ones.any():
        return 0
    w = kernel_weights(x, bank, kernel)
    return int(w[ones].sum() > w[~ones].sum())


def history_required(banks: Sequence[PatternBank]) -> int:
    """Buckets of history a prediction point must have behind it."""
    return max(bank.window_length for bank in banks)


def _windows(series: PriceSeries, m: int, ts: np.ndarray) -> np.ndarray:
    """Rows of the length-m windows ending at each of ts. Consecutive points
    (every caller in the pipeline) get a view of the prices, not a copy."""
    view = sliding_window_view(series.prices, m)
    starts = ts - m + 1
    if (np.diff(ts) == 1).all():
        return view[starts[0] : starts[0] + ts.size]
    return view[starts]


def feature_block(
    series: PriceSeries,
    banks: Sequence[PatternBank],
    kernel: KernelChoice,
    ts: np.ndarray,
) -> np.ndarray:
    """Combiner inputs at many prediction points.

    Returns a (len(ts), N + 1) array: per row, the N bank predictions
    (shortest window first) and then the imbalance, from data up to and
    including that point. Each bank scores the trailing window of its length;
    gaussian_l2 compares the normalized window, exp_similarity needs no
    normalization.
    """
    ts = np.asarray(ts, dtype=np.int64)
    if ts.size == 0:
        return np.empty((0, len(banks) + 1))
    needed = history_required(banks)
    if ts.min() < needed or ts.max() >= len(series):
        raise ValueError(
            f"prediction points need {needed} buckets of history and must lie in "
            f"[{needed}, {len(series) - 1}], got [{ts.min()}, {ts.max()}]"
        )
    columns = []
    for bank in banks:
        windows = _windows(series, bank.window_length, ts)
        if kernel.variant == KERNEL_GAUSSIAN_L2:
            windows = normalize_rows(windows)
        columns.append(_kernel_weights(windows, bank, kernel) @ bank.labels)
    columns.append(series.imbalances[ts])
    return np.column_stack(columns)


def assemble_features(
    t: int,
    series: PriceSeries,
    banks: Sequence[PatternBank],
    kernel: KernelChoice,
) -> np.ndarray:
    """Combiner inputs for a prediction at bucket t: feature_block at one point."""
    return feature_block(series, banks, kernel, np.array([t]))[0]


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

    def apply(self, features: np.ndarray) -> np.ndarray:
        """Intercept plus features @ coefficients, over the last axis."""
        w = self.as_array()
        return features @ w[1:] + w[0]


def predict_dp(features, weights: CombinerWeights) -> float:
    """The combiner on one feature row (N bank predictions, then imbalance)."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape != (len(weights.w) - 1,):
        raise ValueError(f"{len(weights.w)} weights take {len(weights.w) - 1} features, got {features.shape}")
    return float(weights.apply(features))


def _fit_weights_xy(features: np.ndarray, targets: np.ndarray) -> CombinerWeights:
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


def fit_weights(samples: Sequence[tuple]) -> CombinerWeights:
    """Ordinary least squares for the combiner over (features, target) pairs.

    Every feature row holds the same N + 1 values (N bank predictions, then
    imbalance). Rank-deficient designs fall back to a small ridge
    (lambda = 1e-8) and are flagged via used_ridge.
    """
    if len(samples) < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples, got {len(samples)}")
    features = np.array([list(f) for f, _ in samples], dtype=np.float64)
    targets = np.array([t for _, t in samples], dtype=np.float64)
    return _fit_weights_xy(features, targets)


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
    grid = sorted({float(c) for c in grid})
    if not grid:
        raise ValueError("c grid is empty")
    if grid[0] <= 0:
        raise ValueError("c grid values must be > 0")
    ts = fit_points(fit_series, banks)
    if ts.size < MIN_FIT_SAMPLES:
        raise ValueError(
            f"fit series yields {ts.size} samples, need at least {MIN_FIT_SAMPLES}"
        )
    targets = fit_series.prices[ts + 1] - fit_series.prices[ts]
    imbalances = fit_series.imbalances[ts]
    scores = [
        _scores(_windows(fit_series, bank.window_length, ts), bank, KERNEL_EXP_SIMILARITY)
        for bank in banks
    ]

    best: tuple[float, float, CombinerWeights] | None = None
    errors = []
    for c in grid:
        columns = [_softmax(s, c) @ bank.labels for s, bank in zip(scores, banks)]
        features = np.column_stack(columns + [imbalances])
        weights = _fit_weights_xy(features, targets)
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
    lengths, the kernel choice, and N + 2 combiner weights."""

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
        if self.kernel.variant == KERNEL_EXP_SIMILARITY:
            if any(b.kernel_c != self.kernel.c for b in banks):
                raise ValueError("kernel constant must be shared across banks")
        object.__setattr__(self, "banks", banks)

    def dp_stream(self, series: PriceSeries, ts: np.ndarray | None = None):
        """Predicted price change at each prediction point of a series.

        Returns (ts, dp). Defaults to every point with full history and an
        observable next bucket.
        """
        if ts is None:
            ts = fit_points(series, self.banks)
        return ts, self.weights.apply(feature_block(series, self.banks, self.kernel, ts))

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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(bank_paths), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load_json(cls, path) -> "PredictorModel":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        for key, kind in (("kernel", dict), ("weights", dict), ("banks", list)):
            if not isinstance(data, dict) or not isinstance(data.get(key), kind):
                raise ValueError(f"{path}: model JSON needs a {kind.__name__} {key!r}")
        try:
            kernel = KernelChoice(variant=data["kernel"]["variant"], c=float(data["kernel"]["c"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad model kernel ({type(exc).__name__}: {exc})") from None
        w = data["weights"]
        names = [f"w{i}" for i in range(len(data["banks"]) + 2)]
        found = sorted(k for k in w if k != "used_ridge")
        if found != sorted(names):
            raise ValueError(
                f"{path}: {len(data['banks'])} banks need weights w0..{names[-1]}, found {found}"
            )
        weights = CombinerWeights(
            tuple(float(w[k]) for k in names), used_ridge=bool(w.get("used_ridge", False))
        )
        base = os.path.dirname(os.fspath(path))
        banks = []
        for ref in data["banks"]:
            bank_path = ref if os.path.isabs(ref) else os.path.join(base, ref)
            bank = PatternBank.load(bank_path)
            if kernel.variant == KERNEL_EXP_SIMILARITY:
                bank = bank.with_kernel_c(kernel.c)
            banks.append(bank)
        return cls(banks=tuple(banks), kernel=kernel, weights=weights)
