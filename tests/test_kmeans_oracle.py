"""pattern_bank.kmeans against the textbook Lloyd loop it replaced.

The reference below recomputes every point-to-centroid distance in every
iteration and builds cluster sums with np.add.at. The array version must
reach the same assignments, populations, label statistics and iteration
count; its centroids may differ only by summation-order rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lstrader.pattern_bank import kmeans, normalize_rows


def _pairwise_sq_dists(points, centers):
    d2 = (
        np.einsum("ij,ij->i", points, points)[:, None]
        + np.einsum("ij,ij->i", centers, centers)[None, :]
        - 2.0 * points @ centers.T
    )
    np.clip(d2, 0.0, None, out=d2)
    return d2


def _kmeanspp_init(points, k, rng):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    closest = _pairwise_sq_dists(points, centers[:1])[:, 0]
    for j in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = rng.choice(n, p=closest / total)
        else:
            idx = int(rng.integers(n))
        centers[j] = points[idx]
        np.minimum(closest, _pairwise_sq_dists(points, centers[j : j + 1])[:, 0], out=closest)
    return centers


def reference_kmeans(points, labels, k, seed, max_iters=100):
    """Lloyd's loop with k-means++ seeding; returns a dict of results and
    the number of empty-cluster reseeds it performed."""
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(points, k, rng)
    d2 = _pairwise_sq_dists(points, centroids)
    assignments = d2.argmin(axis=1)
    assigned_d2 = d2[np.arange(n), assignments]
    history = [float(assigned_d2.sum())]
    reseeds = 0

    for _ in range(max_iters):
        counts = np.bincount(assignments, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignments, points)
        new_centroids = np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None], 0.0)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            reseeds += empties.size
            order = iter(np.argsort(-assigned_d2, kind="stable"))
            for empty in empties:
                new_centroids[empty] = points[int(next(order))]
        centroids = new_centroids

        d2 = _pairwise_sq_dists(points, centroids)
        new_assignments = d2.argmin(axis=1)
        assigned_d2 = d2[np.arange(n), new_assignments]
        history.append(float(assigned_d2.sum()))
        converged = np.array_equal(new_assignments, assignments)
        assignments = new_assignments
        if converged:
            break

    label_mean = np.zeros(k)
    label_std = np.zeros(k)
    for cluster in range(k):
        members = labels[assignments == cluster]
        if members.size:
            label_mean[cluster] = members.mean()
            label_std[cluster] = np.sqrt(((members - members.mean()) ** 2).mean())
    return {
        "centroids": centroids,
        "assignments": assignments,
        "populations": np.bincount(assignments, minlength=k),
        "label_mean": label_mean,
        "label_std": label_std,
        "history": history,
        "reseeds": reseeds,
    }


def assert_matches_reference(points, labels, k, seed, max_iters=100):
    ref = reference_kmeans(points, labels, k, seed, max_iters)
    got = kmeans(points, labels, k, seed=seed, max_iters=max_iters)
    assert np.array_equal(got.assignments, ref["assignments"])
    assert np.array_equal(got.populations, ref["populations"])
    assert len(got.objective_history) == len(ref["history"])  # same iteration count
    assert np.max(np.abs(got.centroids - ref["centroids"])) <= 1e-12
    assert np.array_equal(got.member_label_mean, ref["label_mean"])
    assert np.array_equal(got.member_label_std, ref["label_std"])
    scale = max(1.0, max(ref["history"]))
    assert np.allclose(got.objective_history, ref["history"], rtol=0, atol=1e-9 * scale)
    return ref


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seeded_random_windows(seed):
    rng = np.random.default_rng(seed)
    walks = np.cumsum(rng.normal(size=(400, 24)), axis=1)
    assert_matches_reference(normalize_rows(walks), rng.normal(size=400), k=15, seed=seed)


def test_duplicates_and_constant_rows_force_reseeds():
    rng = np.random.default_rng(11)
    distinct = normalize_rows(rng.normal(size=(3, 8)))
    points = np.concatenate([np.repeat(distinct, 5, axis=0), np.zeros((4, 8))])
    labels = rng.normal(size=points.shape[0])
    ref = assert_matches_reference(points, labels, k=6, seed=4)
    assert ref["reseeds"] > 0


def test_single_cluster():
    rng = np.random.default_rng(5)
    points = normalize_rows(rng.normal(size=(50, 7)))
    ref = assert_matches_reference(points, rng.normal(size=50), k=1, seed=9)
    assert len(ref["history"]) == 2


def test_one_cluster_per_point():
    rng = np.random.default_rng(6)
    points = normalize_rows(rng.normal(size=(12, 5)))
    assert_matches_reference(points, rng.normal(size=12), k=12, seed=2)


def test_iteration_cap():
    rng = np.random.default_rng(7)
    points = normalize_rows(np.cumsum(rng.normal(size=(300, 16)), axis=1))
    ref = assert_matches_reference(points, rng.normal(size=300), k=20, seed=3, max_iters=3)
    assert len(ref["history"]) == 4


@pytest.mark.parametrize("k, seed, max_iters, values", [
    (3, 96109690, 5, [-3, 0, 0, 3, -1, 3, -3, 3, 3, -3, 1, 3, -3, -1, 2, 3, 1, -1, 0, 3]),
    (6, 2074383350, 4, [-3, 3, 5, 7, 1, 3, -3, -3, 7, 3, 5, -3, 4, 2, -1, -7, 4, -5, 7, 5,
                        -2, -1, -2, 7, -4, 6, -1, 0, 3, 7]),
    (10, 1818771577, 1, [48, 0, -4, 38, 31, -37, -37, -26, 50, 1, -30, 12, -7, 16, 26, 34, 43,
                         38, -46, 4, -12, 37, -11, -7, -11]),
    (4, 1065989243, 8, [20, -28, -50, -13, -38, -25, 36, -48, 22, 2, -43, -50, 32, -9, 42, 37,
                        -5, 28, 31, 21]),
])
def test_exact_ties_need_the_rounding_allowance(k, seed, max_iters, values):
    """1-D integer points with exact distance ties, on which the bounds need their
    rounding allowance: with it set to 0, each case gets other assignments (and
    the first and last other iteration counts)."""
    points = np.array(values, dtype=np.float64)[:, None]
    assert_matches_reference(points, np.zeros(len(values)), k, seed, max_iters)


@st.composite
def small_problems(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    dim = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=1, max_value=n))
    # small integers: exact sums in any order, many exact ties and duplicates
    values = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=n * dim, max_size=n * dim))
    labels = draw(st.lists(st.integers(min_value=-5, max_value=5), min_size=n, max_size=n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    max_iters = draw(st.integers(min_value=1, max_value=8))
    points = np.array(values, dtype=np.float64).reshape(n, dim)
    return points, np.array(labels, dtype=np.float64), k, seed, max_iters


@settings(max_examples=200, deadline=None)
@given(small_problems())
def test_matches_reference_on_small_shapes(problem):
    points, labels, k, seed, max_iters = problem
    assert_matches_reference(points, labels, k, seed, max_iters)
