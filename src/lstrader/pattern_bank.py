"""Pattern mining: labeled window extraction, k-means, bank selection.

A pattern is a fixed-length window of the price grid paired with the price
change over the bucket that follows it. Windows are stored zero-mean /
unit-std (std is the root of the mean squared deviation); a constant window
normalizes to the zero vector. README.md ("How it works", step 2, and "File
formats") sets out how a bank is built, k-means included, and stored.

``anchored_rows`` and ``anchored_moments`` are the row rule of the
similarity score (see ``regression``); a bank computes its own rows once
(``PatternBank.anchored``). ``row_blocks`` serves both modules' blocked loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .market_data import PriceSeries, json_floats, read_json, require_fields, write_json

DEFAULT_WINDOW_LENGTHS = (180, 360, 720)
DEFAULT_NUM_CLUSTERS = 100
DEFAULT_NUM_SELECTED = 20
EFFECTIVENESS_EPS = 1e-9

# Rows per k-means distance block and cluster-sum gather: bounds the gathered
# rows and their distances to this many, whatever the number of points.
# 128-row distance blocks change the banks of one-day markets.
_SCORE_ROWS = 256


def normalize(x) -> np.ndarray:
    """Zero-mean, unit-std copy of x; a constant vector maps to zeros.

    Not ``normalize_rows(x[None])[0]``: the variance is a dot product here and
    an einsum there, which differ in the last bits (on 202 of the 300 k-means
    centroids of the seed-7 demo, and 38 of its 60 bank vectors), so one
    would change the bank files the other writes."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0 or x.max() == x.min():
        return np.zeros_like(x)
    peak = max(abs(x.max()), abs(x.min()))
    if not 2.0**-400 <= peak <= 2.0**400:
        # an exact power-of-two rescale, so the variance neither under- nor overflows
        x = np.ldexp(x, -np.frexp(peak)[1])
    deviations = x - x.mean()
    deviations -= deviations.mean()  # kill the residual of an inexact mean
    variance = (deviations @ deviations) / x.size
    if variance == 0.0:
        return np.zeros_like(deviations)
    return deviations / np.sqrt(variance)


def normalize_rows(block: np.ndarray) -> np.ndarray:
    """Row-wise normalize; constant rows become zero rows. A row is rescaled
    as ``normalize`` rescales a vector, so each row's variance is finite."""
    block = np.asarray(block, dtype=np.float64)
    high, low = block.max(axis=1), block.min(axis=1)
    constant = high == low
    peak = np.maximum(np.abs(high), np.abs(low))
    wild = ~((peak >= 2.0**-400) & (peak <= 2.0**400))
    if wild.any():
        block = block.copy()
        block[wild] = np.ldexp(block[wild], -np.frexp(peak[wild])[1][:, None])
    deviations = block - block.mean(axis=1, keepdims=True)
    deviations -= deviations.mean(axis=1, keepdims=True)
    variance = np.einsum("ij,ij->i", deviations, deviations) / block.shape[1]
    scale = np.sqrt(variance, out=np.zeros_like(variance), where=variance > 0)
    usable = (scale > 0) & ~constant
    with np.errstate(invalid="ignore", divide="ignore"):
        deviations /= np.where(scale > 0, scale, 1.0)[:, None]
    deviations[~usable] = 0.0
    return deviations


def anchored_rows(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row rule of the similarity score: each row taken relative to its
    own last value, d = rows - rows[:, -1:], then ``anchored_moments`` of d."""
    with np.errstate(invalid="ignore", over="ignore"):
        return anchored_moments(block - block[:, -1:])


def anchored_moments(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, mean, msq) of anchored rows d: mean = sum(d) / M and
    msq = max(sum(d^2) - sum(d) * mean, 0) / M. A constant row is exactly
    zero. Rows whose sum(d^2) lies outside [2^-400, 2^400] are multiplied by
    the power of two that brings their largest |d| into [0.5, 1), which is
    exact, so the product of two mean squares neither under- nor overflows.
    Such rows are rescaled in a copy: d itself is never written, so it may be
    a view of a block that other callers share.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        s2 = np.einsum("ij,ij->i", d, d)
        wild = ~((s2 >= 2.0**-400) & (s2 <= 2.0**400))  # NaN and inf included
        if wild.any():
            rows = d[wild]
            _, exponent = np.frexp(np.abs(rows).max(axis=1))
            rows = np.ldexp(rows, -exponent[:, None])
            d = d.copy()
            d[wild] = rows
            s2[wild] = np.einsum("ij,ij->i", rows, rows)
            if not np.isfinite(s2).all():
                raise ValueError(
                    "rows must be finite, with finite differences from their last value"
                )
    m = d.shape[1]
    s1 = d.sum(axis=1)
    mean = s1 / m
    msq = np.maximum(s2 - s1 * mean, 0.0) / m
    return d, mean, msq


@dataclass(frozen=True)
class WindowSet:
    """All labeled windows of one length, as arrays.

    raw is a read-only strided view of the series prices (row i is window
    i; nothing is copied), normalized holds the row-normalized windows
    (constant windows are zero rows), and labels holds each window's
    next-bucket price change.
    """

    raw: np.ndarray
    normalized: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.labels.shape[0]


def extract_windows(series: PriceSeries, window: int) -> WindowSet:
    """All labeled windows of the given length, one starting at every bucket.

    Window i is prices[i : i+window); its label is the increment
    prices[i+window] - prices[i+window-1]. Starts whose label bucket would
    fall past the series end are not produced.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if len(series) < window + 1:
        raise ValueError(
            f"series has {len(series)} buckets, need at least {window + 1} "
            f"for windows of length {window}"
        )
    prices = series.prices
    raw = sliding_window_view(prices, window)[: len(series) - window]
    labels = prices[window:] - prices[window - 1 : -1]
    normalized = normalize_rows(raw)
    normalized.setflags(write=False)
    labels.setflags(write=False)
    return WindowSet(raw=raw, normalized=normalized, labels=labels)


@dataclass(frozen=True)
class ClusterSet:
    """k-means result over normalized patterns, with per-cluster label stats."""

    k: int
    centroids: np.ndarray
    assignments: np.ndarray
    member_label_mean: np.ndarray
    member_label_std: np.ndarray
    populations: np.ndarray
    objective_history: tuple[float, ...]


def _row_sq_norms(a: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, a)


def _kmeanspp_init(
    points: np.ndarray, sq_norms: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))

    def sq_dists_to(j: int) -> np.ndarray:
        center = centers[j : j + 1]
        d2 = sq_norms + _row_sq_norms(center) - 2.0 * (points @ center[0])
        return np.clip(d2, 0.0, None, out=d2)

    centers[0] = points[rng.integers(n)]
    closest = sq_dists_to(0)
    for j in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = rng.choice(n, p=closest / total)
        else:
            idx = int(rng.integers(n))  # all points coincide with chosen centers
        centers[j] = points[idx]
        np.minimum(closest, sq_dists_to(j), out=closest)
    return centers


def row_blocks(rows: np.ndarray, size: int):
    """(slice, rows[slice]) over the leading axis of an array, size rows at a time."""
    for lo in range(0, len(rows), size):
        out = slice(lo, lo + size)
        yield out, rows[out]


def _nearest_two(
    points: np.ndarray,
    sq_norms: np.ndarray,
    centroids: np.ndarray,
    sq_centroids: np.ndarray,
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per listed row: nearest centroid, its squared distance, and the
    second-smallest squared distance (inf when k == 1).

    Squared distances are ||x||^2 + ||c||^2 - 2 x.c clipped at zero; the
    argmin takes the lowest index on ties.
    """
    nearest = np.empty(rows.size, dtype=np.intp)
    best = np.empty(rows.size)
    second = np.full(rows.size, np.inf)
    every_row = rows.size == points.shape[0]  # rows are distinct and ascending, so 0..n-1
    for out, block in row_blocks(rows, _SCORE_ROWS):
        take = out if every_row else block  # a slice is a view, not a gathered copy
        cross = points[take] @ centroids.T
        cross *= 2.0
        d2 = sq_norms[take, None] + sq_centroids[None, :]
        d2 -= cross
        np.clip(d2, 0.0, None, out=d2)
        nearest[out] = d2.argmin(axis=1)
        picked = (np.arange(block.size), nearest[out])
        best[out] = d2[picked]
        if centroids.shape[0] > 1:
            d2[picked] = np.inf
            second[out] = d2.min(axis=1)
    return nearest, best, second


def kmeans(
    points: np.ndarray, labels: np.ndarray, k: int, seed: int, max_iters: int = 100
) -> ClusterSet:
    """Lloyd's algorithm with k-means++ seeding on the rows of points.

    labels holds one value per row; the result carries each cluster's label
    mean and std. Deterministic given the seed. Stops when assignments
    stabilize or after max_iters update/assign cycles; the returned
    assignments are always nearest-centroid under the returned centroids.
    Empty clusters are reseeded to the point currently farthest from its
    centroid.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array")
    n, dim = points.shape
    if labels.shape != (n,):
        raise ValueError(f"need one label per point: {labels.shape[0]} labels, {n} points")
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < k:
        raise ValueError(f"need at least k={k} patterns, got {n}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    rng = np.random.default_rng(seed)
    sq_norms = _row_sq_norms(points)
    centroids = _kmeanspp_init(points, sq_norms, k, rng)
    sq_centroids = _row_sq_norms(centroids)

    # Rounding allowance. A computed squared distance is within
    # tol * (||x||^2 + max ||c||^2) of the exact one; every bound is widened
    # by the relative factor tol each time it is updated. A row is skipped
    # only when its computed nearest centroid provably cannot change.
    tol = 2.0 * (dim + 4) * np.finfo(np.float64).eps

    def sq_error(rows):
        return tol * (sq_norms[rows] + sq_centroids.max())

    def set_bounds(rows, best, second):
        """From fresh distance rows: an upper bound on each row's distance to
        its own centroid and a lower bound on its distance to any other."""
        err = sq_error(rows)
        upper[rows] = np.sqrt(best + err) * (1.0 + tol)
        lower[rows] = np.sqrt(np.maximum(second - err, 0.0)) * (1.0 - tol)

    def objective():  # sum ||x||^2 - 2 sum_j s_j.c_j + sum_j n_j ||c_j||^2: no pass over the points
        cross = np.einsum("ij,ij->", sums, centroids)
        return float(sq_norms.sum() - 2.0 * cross + counts @ sq_centroids)

    all_rows = np.arange(n)
    upper, lower = np.empty(n), np.empty(n)
    assignments, best, second = _nearest_two(points, sq_norms, centroids, sq_centroids, all_rows)
    set_bounds(all_rows, best, second)
    counts = np.bincount(assignments, minlength=k)
    sums = np.zeros((k, dim))  # fixed-order adds, not products: alike at any BLAS thread count
    for cluster in range(k):
        for _, block in row_blocks(np.flatnonzero(assignments == cluster), _SCORE_ROWS):
            sums[cluster] += points[block].sum(axis=0)
    history = [objective()]

    for _ in range(max_iters):
        new_centroids = np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None], 0.0)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            # reseed from exact distances; then every row is recomputed
            _, assigned_d2, _ = _nearest_two(points, sq_norms, centroids, sq_centroids, all_rows)
            farthest = np.argsort(-assigned_d2, kind="stable")[: empties.size]
            new_centroids[empties] = points[farthest]
            centroids = new_centroids
            sq_centroids = _row_sq_norms(centroids)
            rows = all_rows
        else:
            shift = np.sqrt(_row_sq_norms(new_centroids - centroids)) * (1.0 + tol)
            centroids = new_centroids
            sq_centroids = _row_sq_norms(centroids)
            upper += shift[assignments]
            upper *= 1.0 + tol
            # every other centroid moved at most the largest shift among
            # the clusters other than the point's own
            top = np.argmax(shift)
            runner_up = np.max(np.delete(shift, top), initial=0.0)
            lower -= np.where(assignments == top, runner_up, shift[top])
            lower *= 1.0 - tol
            # triangle inequality: a point within `upper` of its centroid is
            # at least gap - upper from every other centroid, where gap is
            # the distance from its centroid to the nearest other one
            gap2 = sq_centroids[:, None] + sq_centroids[None, :] - 2.0 * (centroids @ centroids.T)
            np.fill_diagonal(gap2, np.inf)
            gap2 = gap2.min(axis=1) - 2.0 * tol * sq_centroids.max()
            gap = np.sqrt(np.maximum(gap2, 0.0)) * (1.0 - tol)
            bound = np.maximum(lower, (gap[assignments] - upper) * (1.0 - tol))
            bound = np.maximum(bound, 0.0)
            slack = 2.0 * sq_error(all_rows)
            may_move = upper * upper * (1.0 + tol) + slack >= bound * bound * (1.0 - tol)
            rows = np.flatnonzero(may_move)

        nearest, best, second = _nearest_two(points, sq_norms, centroids, sq_centroids, rows)
        set_bounds(rows, best, second)
        changed = nearest != assignments[rows]
        moved, to_cluster = rows[changed], nearest[changed]
        for row, to, away in zip(moved.tolist(), to_cluster.tolist(), assignments[moved].tolist()):
            sums[to] += points[row]
            sums[away] -= points[row]
        assignments[moved] = to_cluster
        counts = np.bincount(assignments, minlength=k)
        history.append(objective())
        if moved.size == 0:
            break

    label_mean = np.zeros(k)
    label_std = np.zeros(k)
    for cluster in range(k):
        members = labels[assignments == cluster]
        if members.size:
            label_mean[cluster] = members.mean()
            label_std[cluster] = np.sqrt(((members - members.mean()) ** 2).mean())

    return ClusterSet(
        k=k,
        centroids=centroids,
        assignments=assignments,
        member_label_mean=label_mean,
        member_label_std=label_std,
        populations=counts,
        objective_history=tuple(history),
    )


def select_effective(clusters: ClusterSet, m: int) -> "PatternBank":
    """The bank of the top-m clusters by effectiveness |mean label| / (label std + eps).

    Ties break toward larger population, then lower cluster id. Each pattern
    is a centroid re-normalized to zero mean / unit std, labeled with its
    cluster's mean member label and carrying its population.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > clusters.k:
        raise ValueError(f"cannot select m={m} from {clusters.k} clusters")
    scores = np.abs(clusters.member_label_mean) / (
        clusters.member_label_std + EFFECTIVENESS_EPS
    )
    order = sorted(
        range(clusters.k),
        key=lambda i: (-scores[i], -int(clusters.populations[i]), i),
    )[:m]
    return PatternBank(
        window_length=clusters.centroids.shape[1],
        vectors=np.stack([normalize(clusters.centroids[i]) for i in order]),
        labels=clusters.member_label_mean[order],
        populations=clusters.populations[order],
    )


@dataclass(frozen=True)
class PatternBank:
    """Selected representative patterns for one window length.

    Vectors are stored normalized (or all-zero for a degenerate constant
    representative).
    """

    window_length: int
    vectors: np.ndarray
    labels: np.ndarray
    populations: np.ndarray

    def __post_init__(self) -> None:
        vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.float64)
        populations = np.ascontiguousarray(self.populations, dtype=np.int64)
        if vectors.ndim != 2 or vectors.shape[0] == 0:
            raise ValueError("bank must hold at least one pattern")
        if vectors.shape[1] != self.window_length:
            raise ValueError(
                f"bank vectors have dimension {vectors.shape[1]}, "
                f"expected window_length {self.window_length}"
            )
        if labels.shape != (vectors.shape[0],) or populations.shape != (vectors.shape[0],):
            raise ValueError("labels/populations must align with vectors")
        if (populations < 0).any():
            raise ValueError("populations must be >= 0")
        if not np.isfinite(labels).all():
            raise ValueError("bank labels must be finite")
        means = vectors.mean(axis=1)
        rms = np.sqrt((vectors**2).mean(axis=1))
        ok = (np.abs(means) <= 1e-6) & ((np.abs(rms - 1.0) <= 1e-6) | (rms == 0.0))
        if not ok.all():
            raise ValueError("bank vectors must be normalized (or zero for constants)")
        for arr in (vectors, labels, populations):
            arr.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "populations", populations)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @cached_property
    def anchored(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """anchored_rows of the vectors, computed once per bank for scoring."""
        rows = anchored_rows(self.vectors)
        for arr in rows:
            arr.setflags(write=False)
        return rows

    def to_json_dict(self) -> dict:
        rows = zip(self.vectors.tolist(), self.labels.tolist(), self.populations.tolist())
        return {
            "window_length": self.window_length,
            "patterns": [{"vector": v, "label": y, "population": n} for v, y, n in rows],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PatternBank":
        """A bank from its JSON form, in one pass over the patterns. Vector
        values and labels must be JSON numbers (a null reads as NaN, which
        the bank refuses) and a population an integer in [0, 2^63); a
        missing or mistyped field raises ValueError naming it and its pattern."""
        require_fields(data, (("patterns", list, "a list"), ("window_length", int, "an integer")),
                       "bank JSON")
        window_length, values = data["window_length"], "bank JSON pattern values"
        vectors, labels, populations = [], [], []
        for i, pattern in enumerate(data["patterns"]):
            for key in ("vector", "label", "population"):
                if not isinstance(pattern, dict) or key not in pattern:
                    raise ValueError(f"bank JSON pattern {i} needs a {key!r}")
            vector, population = pattern["vector"], pattern["population"]
            if not isinstance(vector, list) or len(vector) != window_length:
                raise ValueError(
                    f"bank JSON pattern {i} needs a 'vector' of window_length {window_length} values"
                )
            if type(population) is not int or not 0 <= population < 2**63:
                raise ValueError(f"bank JSON pattern {i} needs an integer 'population' in [0, 2^63)")
            vectors.append(json_floats(vector, values, f"pattern {i} 'vector'"))
            labels.append(json_floats([pattern["label"]], values, f"pattern {i} 'label'")[0])
            populations.append(population)
        return cls(window_length, vectors, labels, populations)

    def save_json(self, path) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path) -> "PatternBank":
        """A bank from its JSON file; malformed JSON, text that is not UTF-8,
        or a missing or mistyped field raises ValueError naming the file."""
        return read_json(path, cls.from_json_dict)


def check_mining(window_lengths, k: int, m: int) -> tuple[int, ...]:
    """The window lengths as ints, once they and the other ``build_banks``
    settings are valid: at least one length, each >= 1 and strictly
    increasing, and k and m each >= 1. Otherwise raises ValueError naming
    what is wrong, before any series is needed."""
    if k < 1 or m < 1:
        raise ValueError(f"k and m must be >= 1, got k={k}, m={m}")
    window_lengths = tuple(int(w) for w in window_lengths)
    if not window_lengths:
        raise ValueError("need at least one window length")
    if any(b <= a for a, b in zip(window_lengths, window_lengths[1:])):
        raise ValueError("window lengths must be strictly increasing")
    if window_lengths[0] < 1:
        raise ValueError(f"window lengths must be >= 1, got {window_lengths[0]}")
    return window_lengths


def build_banks(
    series: PriceSeries,
    window_lengths: Sequence[int] = DEFAULT_WINDOW_LENGTHS,
    k: int = DEFAULT_NUM_CLUSTERS,
    m: int = DEFAULT_NUM_SELECTED,
    seed: int = 0,
) -> tuple[PatternBank, ...]:
    """Build one bank per window length from a historical series.

    The settings must pass ``check_mining``. For small inputs k is clamped
    to half the window count (at least 1) and m to the effective k, so short
    series still yield usable banks.
    """
    window_lengths = check_mining(window_lengths, k, m)
    longest = window_lengths[-1]
    if len(series) < longest + 1:
        raise ValueError(
            f"series has {len(series)} buckets, need at least {longest + 1} "
            f"to build a bank of window length {longest}"
        )
    rng = np.random.default_rng(seed)
    seeds = [int(rng.integers(2**31)) for _ in window_lengths]
    banks = []
    # longest first: the largest window matrix lands before smaller banks fragment the heap
    for window, cluster_seed in reversed(list(zip(window_lengths, seeds))):
        windows = extract_windows(series, window)
        k_eff = max(1, min(k, len(windows) // 2))
        m_eff = min(m, k_eff)
        clusters = kmeans(windows.normalized, windows.labels, k_eff, seed=cluster_seed)
        del windows  # free this length's windows before the next length's are made
        banks.append(select_effective(clusters, m_eff))
    return tuple(reversed(banks))
