import json

import numpy as np
import pytest
from scipy import stats

from lstrader.latent_source import (
    LabelDist,
    LatentSourceSpec,
    demo_spec,
    generate_labeled,
    generate_price_series,
)


def two_source_spec(noise_sigma=0.0, mix=(0.5, 0.5), seed=42, dim=6):
    rng = np.random.default_rng(99)
    sources = rng.normal(size=(2, dim))
    return LatentSourceSpec(
        sources=sources,
        mix=np.array(mix),
        label_dists=(LabelDist("point", mean=-1.0), LabelDist("point", mean=2.0)),
        noise_sigma=noise_sigma,
        seed=seed,
    )


class TestSpecValidation:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            two_source_spec(mix=(0.5, 0.6))

    def test_negative_mix_rejected(self):
        with pytest.raises(ValueError):
            two_source_spec(mix=(1.5, -0.5))

    def test_label_dist_count_must_match(self):
        with pytest.raises(ValueError):
            LatentSourceSpec(
                sources=np.ones((2, 3)),
                mix=np.array([0.5, 0.5]),
                label_dists=(LabelDist("point", 0.0),),
                noise_sigma=0.0,
                seed=0,
            )

    def test_unknown_label_kind_rejected(self):
        with pytest.raises(ValueError):
            LabelDist("cauchy", 0.0)

    def test_json_round_trip(self, tmp_path):
        spec = two_source_spec(noise_sigma=0.3)
        path = tmp_path / "spec.json"
        spec.save_json(path)
        loaded = LatentSourceSpec.load_json(path)
        assert np.array_equal(spec.sources, loaded.sources)
        assert np.array_equal(spec.mix, loaded.mix)
        assert spec.label_dists == loaded.label_dists
        assert spec.noise_sigma == loaded.noise_sigma
        assert spec.seed == loaded.seed


class TestSpecJsonFaults:
    """A malformed spec file raises ValueError naming the file and the field."""

    def load(self, tmp_path, text):
        path = tmp_path / "spec.json"
        path.write_text(text)
        return LatentSourceSpec.load_json(path)

    def test_truncated_file(self, tmp_path):
        with pytest.raises(ValueError, match=r"spec\.json: malformed JSON at line 1 column 19"):
            self.load(tmp_path, '{"sources": [[1.0,')

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.clear(), "spec JSON needs a list 'sources'"),
            (lambda d: d.update(sources="abc"), "spec JSON needs a list 'sources'"),
            (lambda d: d.pop("mix"), "spec JSON needs a list 'mix'"),
            (lambda d: d.update(label_dists={}), "spec JSON needs a list 'label_dists'"),
            (lambda d: d.update(noise_sigma="0.1"), "spec JSON needs a number 'noise_sigma'"),
            (lambda d: d.update(seed=1.5), "spec JSON needs an integer 'seed'"),
            (lambda d: d.update(seed=True), "spec JSON needs an integer 'seed'"),
            (lambda d: d.update(seed=-1), "seed must be >= 0"),
            (lambda d: d["label_dists"].__setitem__(0, "point"),
             r"spec JSON label_dists\[0\] needs a string 'kind'"),
            (lambda d: d["label_dists"][1].pop("mean"), r"spec JSON label_dists\[1\] needs a number 'mean'"),
            (lambda d: d["sources"][0].__setitem__(1, "a"), "spec JSON values must be numbers"),
            (lambda d: d["sources"][0].pop(), "spec JSON values must be numbers"),
            (lambda d: d["label_dists"][0].update(variance="x"), "spec JSON values must be numbers"),
            (lambda d: d["mix"].append(0.0), "mix must have 2 entries"),
            (lambda d: d["label_dists"][0].update(kind="cauchy"), "unknown label distribution kind"),
            (lambda d: d.update(mix=[str(p) for p in d["mix"]]), "spec JSON values must be numbers"),
            (lambda d: d["sources"][1].__setitem__(0, "0.5"), "spec JSON values must be numbers"),
            (lambda d: d["label_dists"][1].update(kind="gaussian", variance=True),
             "spec JSON values must be numbers"),
        ],
        ids=["empty", "sources_str", "no_mix", "label_dists_dict", "noise_str", "seed_float",
             "seed_bool", "seed_negative", "label_dist_str", "no_mean", "source_str", "ragged", "variance_str",
             "mix_length", "unknown_kind", "mix_number_strs", "source_number_str", "variance_bool"],
    )
    def test_missing_or_mistyped_field(self, tmp_path, mutate, message):
        data = two_source_spec().to_json_dict()
        mutate(data)
        with pytest.raises(ValueError, match=r"spec\.json: " + message):
            self.load(tmp_path, json.dumps(data))

    def test_not_an_object(self, tmp_path):
        with pytest.raises(ValueError, match="spec.json: spec JSON needs a list 'sources'"):
            self.load(tmp_path, "[1, 2]")

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["mix"].__setitem__(0, None), "mix must be finite"),
            (lambda d: d["mix"].__setitem__(1, float("nan")), "mix must be finite"),
            (lambda d: d["sources"][1].__setitem__(2, None), "sources must be finite"),
            (lambda d: d["sources"][0].__setitem__(0, float("inf")), "sources must be finite"),
            (lambda d: d.update(noise_sigma=float("nan")), "noise_sigma must be finite"),
            (lambda d: d.update(noise_sigma=float("inf")), "noise_sigma must be finite"),
            (lambda d: d["label_dists"][0].update(mean=float("nan")), "label mean and variance must be finite"),
            (lambda d: d["label_dists"][1].update(mean=float("-inf")), "label mean and variance must be finite"),
            (lambda d: d["label_dists"][0].update(kind="gaussian", variance=float("nan")),
             "label mean and variance must be finite"),
            (lambda d: d["label_dists"][0].update(kind="gaussian", variance=float("inf")),
             "label mean and variance must be finite"),
        ],
        ids=["mix_null", "mix_nan", "source_null", "source_inf", "noise_nan", "noise_inf",
             "mean_nan", "mean_inf", "variance_nan", "variance_inf"],
    )
    def test_non_finite_value(self, tmp_path, mutate, message):
        data = two_source_spec().to_json_dict()
        mutate(data)
        with pytest.raises(ValueError, match=r"spec\.json: " + message):
            self.load(tmp_path, json.dumps(data))  # NaN and Infinity as json.load accepts them


class TestGenerateLabeled:
    def test_zero_noise_points_equal_sources_exactly(self):
        spec = two_source_spec(noise_sigma=0.0)
        draws = generate_labeled(spec, 50)
        for x, y, k in draws:
            assert np.array_equal(x, spec.sources[k])
            assert y == spec.label_dists[k].mean

    def test_single_source_always_index_zero(self):
        spec = LatentSourceSpec(
            sources=np.ones((1, 4)),
            mix=np.array([1.0]),
            label_dists=(LabelDist("point", 3.0),),
            noise_sigma=0.0,
            seed=5,
        )
        draws = generate_labeled(spec, 20)
        assert set(draws.source.tolist()) == {0}

    def test_mixture_frequency_concentrates(self):
        spec = LatentSourceSpec(
            sources=np.zeros((2, 3)),
            mix=np.array([0.3, 0.7]),
            label_dists=(LabelDist("point", 0.0), LabelDist("point", 1.0)),
            noise_sigma=1.0,
            seed=7,
        )
        draws = generate_labeled(spec, 10_000)
        freq = float((draws.source == 0).mean())
        assert abs(freq - 0.3) <= 0.02  # binomial concentration at n = 10^4

    def test_mixture_chi_square_sanity(self):
        spec = LatentSourceSpec(
            sources=np.zeros((3, 2)),
            mix=np.array([0.2, 0.3, 0.5]),
            label_dists=tuple(LabelDist("point", 0.0) for _ in range(3)),
            noise_sigma=1.0,
            seed=11,
        )
        n = 10_000
        draws = generate_labeled(spec, n)
        observed = np.bincount(draws.source, minlength=3)
        _, p_value = stats.chisquare(observed, f_exp=spec.mix * n)
        assert p_value > 1e-6

    def test_deterministic_given_seed(self):
        spec = two_source_spec(noise_sigma=0.7)
        first = generate_labeled(spec, 100)
        second = generate_labeled(spec, 100)
        assert np.array_equal(first.x, second.x)
        assert np.array_equal(first.y, second.y)
        assert np.array_equal(first.source, second.source)

    def test_gaussian_labels_follow_source_means(self):
        spec = LatentSourceSpec(
            sources=np.zeros((1, 2)),
            mix=np.array([1.0]),
            label_dists=(LabelDist("gaussian", mean=5.0, variance=0.25),),
            noise_sigma=0.0,
            seed=3,
        )
        draws = generate_labeled(spec, 4000)
        assert abs(draws.y.mean() - 5.0) < 0.05
        assert abs(draws.y.std() - 0.5) < 0.05

    def test_zero_noise_identifiability(self):
        spec = two_source_spec(noise_sigma=0.0, seed=21)
        draws = generate_labeled(spec, 200)
        d2 = ((draws.x[:, None, :] - spec.sources[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(d2.argmin(axis=1), draws.source)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_labeled(two_source_spec(), 0)


class TestGeneratePriceSeries:
    def test_constant_increment_source_gives_linear_path(self):
        spec = LatentSourceSpec(
            sources=np.full((1, 5), 0.25),
            mix=np.array([1.0]),
            label_dists=(LabelDist("point", 1.25),),
            noise_sigma=0.0,
            seed=0,
        )
        result = generate_price_series(spec, duration=170.0, seed=9, start_price=100.0)
        diffs = np.diff(result.series.prices)
        assert np.allclose(diffs, 0.25, atol=1e-12)
        assert result.series.prices[0] == 100.0

    def test_deterministic_given_seed(self):
        spec = demo_spec(noise_sigma=0.1)
        a = generate_price_series(spec, 7200.0, seed=4)
        b = generate_price_series(spec, 7200.0, seed=4)
        assert np.array_equal(a.series.prices, b.series.prices)
        assert np.array_equal(a.series.imbalances, b.series.imbalances)
        assert a.placements == b.placements

    def test_placement_count_matches_duration(self):
        spec = demo_spec()
        duration = 36000.0
        result = generate_price_series(spec, duration, seed=1)
        expected = duration / (spec.dim * 10.0)
        assert abs(len(result.placements) - expected) <= 1

    def test_placements_tile_the_increments(self):
        spec = demo_spec()
        result = generate_price_series(spec, 12345.0, seed=2)
        covered = 0
        for p in result.placements:
            assert p.start == covered
            covered += p.length
        assert covered == len(result.series) - 1

    @pytest.mark.parametrize("duration", [np.inf, -np.inf, np.nan])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="duration must be finite"):
            generate_price_series(demo_spec(), duration=duration, seed=0)

    def test_more_than_max_buckets_rejected(self, monkeypatch):
        from lstrader import latent_source

        monkeypatch.setattr(latent_source, "MAX_BUCKETS", 100)
        with pytest.raises(ValueError, match="needs more than 100 buckets of 10.0 s"):
            generate_price_series(demo_spec(), duration=1000.0, seed=0)
        assert len(generate_price_series(demo_spec(), duration=990.0, seed=0).series) == 100

    def test_duration_shorter_than_pattern_rejected(self):
        spec = demo_spec(pattern_len=60)
        with pytest.raises(ValueError, match="shorter"):
            generate_price_series(spec, duration=500.0, seed=0)

    def test_zero_noise_increments_match_sources(self):
        spec = demo_spec(noise_sigma=0.0)
        result = generate_price_series(spec, 36000.0, seed=6)
        increments = np.diff(result.series.prices)
        for p in result.placements:
            expected = spec.sources[p.source][: p.length]
            assert np.allclose(increments[p.start : p.start + p.length], expected, atol=1e-9)

    def test_imbalance_gain_encodes_next_move(self):
        spec = demo_spec(noise_sigma=0.0)
        result = generate_price_series(spec, 36000.0, seed=6, imbalance_gain=0.5)
        increments = np.diff(result.series.prices)
        assert np.allclose(result.series.imbalances[:-1], np.tanh(0.5 * increments), atol=1e-12)
        assert result.series.imbalances[-1] == 0.0

    def test_neutral_imbalance_by_default(self):
        result = generate_price_series(demo_spec(), 36000.0, seed=6)
        assert not result.series.imbalances.any()
