import json
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lstrader.latent_source import (
    LabelDist,
    LatentSourceSpec,
    demo_spec,
    generate_labeled,
    generate_price_series,
)
from lstrader.pattern_bank import (
    PatternBank,
    build_banks,
    extract_windows,
    kmeans,
    normalize,
    normalize_rows,
    select_effective,
)

from conftest import series_from_prices

vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=3, max_size=40
)


class TestNormalize:
    def test_three_point_ramp(self):
        out = normalize([1.0, 2.0, 3.0])
        assert abs(out.mean()) < 1e-12
        assert abs(np.sqrt((out**2).mean()) - 1.0) < 1e-12
        assert np.allclose(out / out[2], [-1.0, 0.0, 1.0])

    def test_idempotent(self):
        out = normalize([3.0, -1.0, 4.0, 1.0, 5.0])
        assert np.allclose(normalize(out), out, atol=1e-12)

    def test_constant_maps_to_zero(self):
        assert not normalize([5.0, 5.0, 5.0]).any()

    @pytest.mark.parametrize(
        "scale", [2.0**-600, 2.0**-1000, 2.0**600], ids=["2^-600", "2^-1000", "2^600"]
    )
    def test_tiny_and_huge_vectors_normalize_bit_for_bit(self, scale):
        """A vector whose variance would under- or overflow normalizes to the
        same bits as the same vector at unit scale; the byte-exact bank
        property found [0, 0, 0, 0, 1.09e-160]."""
        x = np.array([0.0, 1.0, -2.5, 3.0, 0.75])
        assert normalize(x * scale).tobytes() == normalize(x).tobytes()
        out = normalize([0.0, 0.0, 0.0, 0.0, 1.0931460866485707e-160])
        assert abs(np.sqrt((out**2).mean()) - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "scale", [2.0**-600, 2.0**-1000, 2.0**600], ids=["2^-600", "2^-1000", "2^600"]
    )
    def test_tiny_and_huge_rows_normalize_as_vectors_do(self, scale):
        """normalize_rows rescales a row as normalize rescales a vector: the
        same bits as at unit scale, and the same values as normalize."""
        rows = np.array([[0.0, 1.0, -2.5, 3.0, 0.75], [4.0, 4.0, 4.0, 4.0, 4.0], [0.0] * 5])
        assert normalize_rows(rows * scale).tobytes() == normalize_rows(rows).tobytes()
        block = np.vstack([rows * scale, [[0.0, 0.0, 0.0, 0.0, 1.0931460866485707e-160]]])
        np.testing.assert_allclose(normalize_rows(block), normalized_rows(block), rtol=0, atol=1e-12)

    @given(vectors, st.floats(min_value=0.01, max_value=100), st.floats(min_value=-50, max_value=50))
    def test_positive_affine_invariance(self, values, alpha, beta):
        x = np.array(values)
        # tiny relative spread makes the comparison float-cancellation noise,
        # not a statement about the transform
        assume(x.max() == x.min() or np.ptp(x) > 1e-6 * max(1.0, np.abs(x).max()))
        base = normalize(x)
        shifted = normalize(alpha * x + beta)
        assert np.allclose(base, shifted, atol=1e-9)


def normalized_rows(rows):
    """Stack of per-row normalize(): the points k-means clusters."""
    return np.stack([normalize(x) for x in rows])


class TestExtractWindows:
    def test_minimum_length_yields_one_pattern(self):
        series = series_from_prices([1.0, 2.0, 4.0, 7.0, 11.0])
        windows = extract_windows(series, window=4)
        assert len(windows) == 1
        assert windows.labels[0] == 4.0  # last increment
        assert np.array_equal(windows.raw[0], [1.0, 2.0, 4.0, 7.0])

    def test_window_count(self):
        series = series_from_prices(np.arange(14.0))
        assert len(extract_windows(series, window=4)) == 10

    def test_stride_thins_starts(self):
        series = series_from_prices(np.arange(14.0))
        assert len(extract_windows(series, window=4, stride=3)) == 4

    def test_constant_series_flags_every_pattern(self):
        series = series_from_prices(np.full(9, 5.0))
        windows = extract_windows(series, window=4)
        assert len(windows) == 5
        assert np.all(windows.labels == 0.0)
        # a constant window is flagged by a zero normalized row
        assert not windows.normalized.any(axis=1).any()

    def test_raw_is_a_read_only_view_of_the_prices(self):
        series = series_from_prices(np.arange(14.0) ** 2)
        windows = extract_windows(series, window=4, stride=3)
        assert np.shares_memory(windows.raw, series.prices)
        assert not windows.raw.flags.writeable
        assert not windows.normalized.flags.writeable
        assert not windows.labels.flags.writeable
        for i, start in enumerate(range(0, 10, 3)):
            assert np.array_equal(windows.raw[i], series.prices[start : start + 4])

    def test_rows_match_per_window_normalize(self):
        rng = np.random.default_rng(6)
        prices = 100.0 + np.cumsum(rng.normal(size=40))
        prices[10:20] = prices[10]  # some constant windows
        windows = extract_windows(series_from_prices(prices), window=5, stride=2)
        assert np.allclose(windows.normalized, normalized_rows(windows.raw), atol=1e-12)
        assert windows.normalized.shape == (len(windows), 5)
        assert windows.labels.shape == (len(windows),)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            extract_windows(series_from_prices([1.0, 2.0, 3.0]), window=3)

    def test_labels_are_next_increment(self):
        prices = np.array([10.0, 11.0, 9.0, 12.0, 15.0, 14.0])
        windows = extract_windows(series_from_prices(prices), window=3)
        assert windows.labels.tolist() == [3.0, 3.0, -1.0]


def blob_points(seed=0, per_blob=25, dim=8, separation=50.0):
    rng = np.random.default_rng(seed)
    a_center = rng.normal(size=dim)
    b_center = rng.normal(size=dim) + separation
    rows, labels, truth = [], [], []
    for i in range(per_blob * 2):
        center, label = (a_center, 1.0) if i % 2 == 0 else (b_center, -1.0)
        rows.append(center + 0.01 * rng.normal(size=dim))
        labels.append(label)
        truth.append(0 if i % 2 == 0 else 1)
    return normalized_rows(rows), np.array(labels), np.array(truth)


class TestKmeans:
    def test_single_cluster_centroid_is_mean(self):
        points = normalized_rows([np.random.default_rng(i).normal(size=5) for i in range(10)])
        clusters = kmeans(points, np.zeros(10), k=1, seed=0)
        assert np.allclose(clusters.centroids[0], points.mean(axis=0), atol=1e-12)

    def test_one_pattern_per_cluster_zero_distance(self):
        rng = np.random.default_rng(3)
        points = normalized_rows([rng.normal(size=6) for _ in range(7)])
        clusters = kmeans(points, np.zeros(7), k=7, seed=1)
        assert clusters.objective_history[-1] == pytest.approx(0.0, abs=1e-9)
        assert sorted(clusters.assignments.tolist()) == list(range(7))

    def test_recovers_planted_blobs(self):
        points, labels, truth = blob_points()
        clusters = kmeans(points, labels, k=2, seed=5)
        mapping = clusters.assignments[truth == 0][0]
        predicted = (clusters.assignments != mapping).astype(int)
        assert np.array_equal(predicted, truth)

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(17)
        rows, labels = zip(*[(rng.normal(size=10), float(rng.normal())) for _ in range(120)])
        clusters = kmeans(normalized_rows(rows), np.array(labels), k=9, seed=2)
        history = clusters.objective_history
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        points = normalized_rows([rng.normal(size=6) for _ in range(40)])
        a = kmeans(points, np.zeros(40), k=5, seed=13)
        b = kmeans(points, np.zeros(40), k=5, seed=13)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)

    def test_fewer_patterns_than_k_rejected(self):
        points = normalized_rows([np.arange(4.0)])
        with pytest.raises(ValueError):
            kmeans(points, np.zeros(1), k=2, seed=0)

    def test_label_count_must_match_points(self):
        points = normalized_rows([np.arange(4.0), np.arange(4.0) ** 2])
        with pytest.raises(ValueError, match="one label per point"):
            kmeans(points, np.zeros(3), k=1, seed=0)

    def test_assignments_are_nearest_centroid(self):
        rng = np.random.default_rng(23)
        points = normalized_rows([rng.normal(size=6) for _ in range(60)])
        clusters = kmeans(points, np.zeros(60), k=6, seed=3, max_iters=2)  # may stop before converging
        d2 = ((points[:, None, :] - clusters.centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(d2.argmin(axis=1), clusters.assignments)

    def test_working_memory_is_bounded_by_blocks(self):
        """The 720-bucket windows of a one-day market's train third (n = 2160,
        k = 100): k-means holds at most 4 MiB above its 11.9 MiB input. Scoring
        1024 rows a block held 6.3-7.7 MiB."""
        series = generate_price_series(demo_spec(), duration=86400.0, seed=7).series
        windows = extract_windows(series.slice(0, 2880), 720)
        assert len(windows) == 2160
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kmeans(windows.normalized, windows.labels, k=100, seed=7)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, f"peak {peak / 2**20:.2f} MiB above the input"


def cluster_set_from_stats(means, stds, pops, dim=6):
    from lstrader.pattern_bank import ClusterSet

    k = len(means)
    rng = np.random.default_rng(0)
    return ClusterSet(
        k=k,
        centroids=rng.normal(size=(k, dim)),
        assignments=np.repeat(np.arange(k), 2),
        member_label_mean=np.array(means, dtype=float),
        member_label_std=np.array(stds, dtype=float),
        populations=np.array(pops, dtype=np.int64),
        objective_history=(1.0,),
    )


class TestSelectEffective:
    def test_all_clusters_ordered_by_score(self):
        clusters = cluster_set_from_stats([1.0, 4.0, 2.0], [1.0, 1.0, 1.0], [5, 5, 5])
        selected = select_effective(clusters, m=3)
        assert selected.labels.tolist() == [4.0, 2.0, 1.0]

    def test_high_mean_low_std_ranks_first(self):
        clusters = cluster_set_from_stats([5.0, 0.0, 0.0], [0.1, 1.0, 1.0], [5, 5, 5])
        selected = select_effective(clusters, m=1)
        assert selected.labels[0] == 5.0

    def test_planted_signal_cluster_survives_selection(self):
        rng = np.random.default_rng(4)
        means = rng.normal(scale=0.01, size=10)
        stds = np.full(10, 1.0)
        means[6] = 3.0
        stds[6] = 0.2
        clusters = cluster_set_from_stats(means, stds, [4] * 10)
        selected = select_effective(clusters, m=3)
        # independent recomputation of the ranking score
        scores = np.abs(means) / (stds + 1e-9)
        assert selected.labels[0] == pytest.approx(means[6])
        assert set(selected.labels.tolist()) <= set(means[np.argsort(-scores)[:3]])

    def test_population_breaks_ties(self):
        clusters = cluster_set_from_stats([1.0, 1.0], [1.0, 1.0], [2, 9])
        selected = select_effective(clusters, m=1)
        assert selected.populations[0] == 9

    def test_m_larger_than_k_rejected(self):
        clusters = cluster_set_from_stats([1.0], [1.0], [5])
        with pytest.raises(ValueError):
            select_effective(clusters, m=2)

    def test_selected_scores_dominate_rejected(self):
        rng = np.random.default_rng(9)
        clusters = cluster_set_from_stats(
            rng.normal(size=8), rng.uniform(0.1, 2.0, size=8), [3] * 8
        )
        # independent recomputation of the ranking score
        scores = np.abs(clusters.member_label_mean) / (clusters.member_label_std + 1e-9)
        order = np.argsort(-scores, kind="stable")
        for m in (1, 3, 8):
            selected = select_effective(clusters, m=m)
            assert len(selected) == min(m, clusters.k)
            assert selected.labels.tolist() == clusters.member_label_mean[order[:m]].tolist()
            ranked = np.sort(scores)[::-1]
            assert min(ranked[:m]) >= (max(ranked[m:]) if m < clusters.k else -np.inf)

    def test_representatives_are_normalized(self):
        rng = np.random.default_rng(2)
        clusters = cluster_set_from_stats(rng.normal(size=4), rng.uniform(0.5, 1.0, 4), [3] * 4)
        for vector in select_effective(clusters, m=4).vectors:
            assert abs(vector.mean()) < 1e-9
            assert abs(np.sqrt((vector**2).mean()) - 1.0) < 1e-9


POPULATION = r"bank JSON pattern 1 needs an integer 'population' in \[0, 2\^63\)"


class TestPatternBank:
    def make_bank(self, n=4, dim=6):
        rng = np.random.default_rng(31)
        vectors, labels = [], []
        for _ in range(n):
            vectors.append(normalize(rng.normal(size=dim)))
            labels.append(float(rng.normal()))
        return PatternBank(dim, np.stack(vectors), np.array(labels), np.arange(1, n + 1))

    def test_json_round_trip(self, tmp_path):
        bank = self.make_bank()
        path = tmp_path / "bank.json"
        bank.save_json(path)
        assert sorted(json.loads(path.read_text())) == ["patterns", "window_length"]
        loaded = PatternBank.load(path)
        assert loaded.window_length == bank.window_length
        assert np.array_equal(loaded.vectors, bank.vectors)
        assert np.array_equal(loaded.labels, bank.labels)
        assert np.array_equal(loaded.populations, bank.populations)

    def test_unnormalized_vectors_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            PatternBank(
                window_length=3,
                vectors=np.array([[1.0, 2.0, 3.0]]),
                labels=np.array([0.0]),
                populations=np.array([1]),
            )

    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError):
            PatternBank(
                window_length=3,
                vectors=np.empty((0, 3)),
                labels=np.empty(0),
                populations=np.empty(0, dtype=np.int64),
            )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.pop("patterns"), "bank JSON needs a list 'patterns'"),
            (lambda d: d.update(patterns={"vector": []}), "bank JSON needs a list 'patterns'"),
            (lambda d: d.pop("window_length"), "bank JSON needs an integer 'window_length'"),
            (lambda d: d.update(window_length="6"), "bank JSON needs an integer 'window_length'"),
            (lambda d: d["patterns"][2].pop("vector"), "bank JSON pattern 2 needs a 'vector'"),
            (lambda d: d["patterns"][1].pop("label"), "bank JSON pattern 1 needs a 'label'"),
            (lambda d: d["patterns"][0].pop("population"), "bank JSON pattern 0 needs a 'population'"),
            (lambda d: d["patterns"].append(3.0), "bank JSON pattern 4 needs a 'vector'"),
            (lambda d: d["patterns"][3]["vector"].pop(), "bank JSON pattern 3 needs a 'vector' of window_length 6"),
            (lambda d: d["patterns"][3].update(vector=7.0), "bank JSON pattern 3 needs a 'vector' of window_length 6"),
            (lambda d: d["patterns"][1].update(label="up"), "bank JSON pattern values must be numbers"),
            (lambda d: d["patterns"][1].update(label=None), "bank labels must be finite"),
            (lambda d: d["patterns"][1].update(population=2**64), POPULATION),
            (lambda d: d["patterns"][1].update(population=2**63), POPULATION),
            (lambda d: d["patterns"][1].update(population=1e300), POPULATION),
            (lambda d: d["patterns"][1].update(population=1.5), POPULATION),
            (lambda d: d["patterns"][1].update(population="3"), POPULATION),
            (lambda d: d["patterns"][1].update(population=True), POPULATION),
            (lambda d: d["patterns"][1].update(population=-1), POPULATION),
            (lambda d: d["patterns"][1].update(label="0.5"),
             "bank JSON pattern values must be numbers: pattern 1 'label' holds a str"),
            (lambda d: d["patterns"][1].update(label=True),
             "bank JSON pattern values must be numbers: pattern 1 'label' holds a bool"),
            (lambda d: d["patterns"][1].update(label=10**400),
             "bank JSON pattern values must be numbers: pattern 1 'label' holds an integer past float64's range"),
            (lambda d: d["patterns"][2]["vector"].__setitem__(4, repr(d["patterns"][2]["vector"][4])),
             "bank JSON pattern values must be numbers: pattern 2 'vector' holds a str"),
            (lambda d: d["patterns"][2]["vector"].__setitem__(4, False),
             "bank JSON pattern values must be numbers: pattern 2 'vector' holds a bool"),
        ],
        ids=[
            "no_patterns", "patterns_not_list", "no_window_length", "window_length_str",
            "no_vector", "no_label", "no_population",
            "pattern_not_dict", "short_vector", "vector_not_list", "label_str", "label_null",
            "population_2**64", "population_2**63", "population_1e300", "population_1.5",
            "population_str", "population_bool", "population_negative",
            "label_number_str", "label_bool", "label_past_float64", "vector_value_str",
            "vector_value_bool",
        ],
    )
    def test_malformed_json_bank_names_file_and_field(self, tmp_path, edit, message):
        data = self.make_bank().to_json_dict()
        edit(data)
        path = tmp_path / "bank.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"bank.json: {message}"):
            PatternBank.load(path)

    def test_bank_json_not_an_object_names_file(self, tmp_path):
        path = tmp_path / "bank.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="bank.json: bank JSON needs a list 'patterns'"):
            PatternBank.load(path)

    def test_truncated_json_bank_names_file_line_and_column(self, tmp_path):
        path = tmp_path / "bank.json"
        path.write_text('{\n  "patterns": ')
        with pytest.raises(ValueError, match=r"bank.json: malformed JSON at line 2 column 15"):
            PatternBank.load(path)

    def test_old_files_with_a_kernel_c_load_the_same_bank(self, tmp_path):
        """A bank JSON with a "kernel_c" key, as older versions wrote it, loads
        to the same bank, and it saves to the new form byte for byte."""
        bank = self.make_bank(n=5, dim=9)
        old_json = tmp_path / "old.json"
        old_json.write_text(json.dumps({**bank.to_json_dict(), "kernel_c": 2.5}))
        loaded = PatternBank.load(old_json)
        assert loaded.window_length == bank.window_length
        for name in ("vectors", "labels", "populations"):
            assert getattr(loaded, name).tobytes() == getattr(bank, name).tobytes()
        PatternBank.load(old_json).save_json(tmp_path / "new.json")
        bank.save_json(tmp_path / "want.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=5, max_size=5),
            min_size=1,
            max_size=4,
        ),
        labels=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_json_round_trip_is_byte_exact_property(self, rows, labels, seed):
        """Any finite label (-0.0, subnormals, 1e308) and population survive
        save_json -> load -> save_json bit for bit, and the second file is the first."""
        rng = np.random.default_rng(seed)
        bank = PatternBank(
            window_length=5,
            vectors=np.stack([normalize(r) for r in rows]),
            labels=np.array(labels[: len(rows)]),
            populations=rng.integers(0, 2**62, size=len(rows)),
        )
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
            bank.save_json(first)
            loaded = PatternBank.load(first)
            loaded.save_json(second)
            with open(first, "rb") as fa, open(second, "rb") as fb:
                assert fa.read() == fb.read()
        assert loaded.vectors.tobytes() == bank.vectors.tobytes()
        assert loaded.labels.tobytes() == bank.labels.tobytes()
        assert loaded.populations.tobytes() == bank.populations.tobytes()
        assert loaded.window_length == bank.window_length

    def test_negative_population_rejected(self):
        with pytest.raises(ValueError, match="populations"):
            PatternBank(
                window_length=3,
                vectors=np.array([normalize([1.0, 2.0, 3.0])]),
                labels=np.array([0.0]),
                populations=np.array([-1]),
            )


class TestBuildBanks:
    def synthetic_series(self, n_buckets, seed=0):
        rng = np.random.default_rng(seed)
        prices = 100.0 + np.cumsum(rng.normal(scale=0.3, size=n_buckets))
        return series_from_prices(prices)

    def test_too_short_series_rejected(self):
        series = self.synthetic_series(181)  # 30 minutes only
        with pytest.raises(ValueError, match="at least"):
            build_banks(series)

    @pytest.mark.parametrize("k, m", [(0, 20), (-3, 20), (10, 0)])
    def test_k_and_m_below_one_rejected(self, k, m):
        with pytest.raises(ValueError, match=f"k and m must be >= 1, got k={k}, m={m}"):
            build_banks(self.synthetic_series(900), window_lengths=(30,), k=k, m=m)

    def test_no_window_length_rejected(self):
        with pytest.raises(ValueError, match="need at least one window length"):
            build_banks(self.synthetic_series(900), window_lengths=())

    def test_boundary_series_clamps_to_single_pattern(self):
        series = self.synthetic_series(721)  # exactly 120 minutes + 1 bucket
        banks = build_banks(series, seed=3)
        assert [b.window_length for b in banks] == [180, 360, 720]
        assert len(banks[2]) == 1  # k and m clamped to 1

    def test_bank_shapes_and_invariants(self):
        series = self.synthetic_series(900)
        banks = build_banks(series, window_lengths=(30, 60, 120), k=10, m=4, seed=1)
        for bank, window in zip(banks, (30, 60, 120)):
            assert bank.window_length == window
            assert len(bank) == 4
            assert bank.vectors.shape == (4, window)
            means = bank.vectors.mean(axis=1)
            rms = np.sqrt((bank.vectors**2).mean(axis=1))
            assert np.all(np.abs(means) < 1e-9)
            assert np.all((np.abs(rms - 1) < 1e-9) | (rms == 0))

    def test_deterministic(self):
        series = self.synthetic_series(800)
        a = build_banks(series, window_lengths=(20, 40, 80), k=8, m=3, seed=5)
        b = build_banks(series, window_lengths=(20, 40, 80), k=8, m=3, seed=5)
        for bank_a, bank_b in zip(a, b):
            assert np.array_equal(bank_a.vectors, bank_b.vectors)
            assert np.array_equal(bank_a.labels, bank_b.labels)

    def test_planted_two_blob_clustering_recovers_labels(self):
        # oracle: zero-noise latent source draws carry their planted source index
        rng = np.random.default_rng(44)
        spec = LatentSourceSpec(
            sources=rng.normal(size=(2, 12)) * 5,
            mix=np.array([0.5, 0.5]),
            label_dists=(LabelDist("point", 1.0), LabelDist("point", -1.0)),
            noise_sigma=0.0,
            seed=77,
        )
        draws = generate_labeled(spec, 60)
        points = normalized_rows([x for x, _, _ in draws])
        clusters = kmeans(points, np.array([y for _, y, _ in draws]), k=2, seed=8)
        anchor = clusters.assignments[draws.source == 0][0]
        predicted = np.where(clusters.assignments == anchor, 0, 1)
        assert np.array_equal(predicted, draws.source)
