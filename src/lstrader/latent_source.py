"""Synthetic data generation from a latent source model.

The generative assumption: there is a small set of prototype vectors
(sources). Every observation is one source plus isotropic Gaussian noise,
and its label is drawn from that source's label distribution. This module
samples labeled data from the model and, for end-to-end runs, stitches
source patterns (interpreted as price increments) into a walkable price
series with known planted structure.

Everything is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market_data import (DEFAULT_INTERVAL, MAX_BUCKETS, PriceSeries, json_floats, read_json,
                          require_fields, write_json)

MIX_TOLERANCE = 1e-12

LABEL_POINT = "point"
LABEL_GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class LabelDist:
    """Per-source label distribution: a point mass or a Gaussian."""

    kind: str
    mean: float
    variance: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (LABEL_POINT, LABEL_GAUSSIAN):
            raise ValueError(f"unknown label distribution kind: {self.kind!r}")
        if not np.isfinite([self.mean, self.variance]).all():
            raise ValueError("label mean and variance must be finite")
        if self.variance < 0:
            raise ValueError("label variance must be >= 0")
        if self.kind == LABEL_POINT and self.variance != 0.0:
            raise ValueError("point-mass label distribution must have variance 0")


@dataclass(frozen=True)
class LatentSourceSpec:
    """Full description of a latent source model instance.

    sources: (K, d) array of prototype vectors.
    mix: K probabilities, summing to 1 within 1e-12.
    label_dists: one label distribution per source.
    noise_sigma: scale of the per-coordinate Gaussian observation noise
        (1.0 reproduces the identity-covariance model).
    """

    sources: np.ndarray
    mix: np.ndarray
    label_dists: tuple[LabelDist, ...]
    noise_sigma: float
    seed: int

    def __post_init__(self) -> None:
        sources = np.ascontiguousarray(self.sources, dtype=np.float64)
        mix = np.ascontiguousarray(self.mix, dtype=np.float64)
        if sources.ndim != 2 or sources.shape[0] < 1 or sources.shape[1] < 1:
            raise ValueError("sources must be a non-empty (K, d) array")
        k = sources.shape[0]
        if mix.shape != (k,):
            raise ValueError(f"mix must have {k} entries, got shape {mix.shape}")
        for name, values in (("sources", sources), ("mix", mix), ("noise_sigma", self.noise_sigma)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        if np.any(mix < 0):
            raise ValueError("mixture probabilities must be >= 0")
        if abs(float(mix.sum()) - 1.0) > MIX_TOLERANCE:
            raise ValueError(f"mixture probabilities sum to {mix.sum()!r}, expected 1")
        if len(self.label_dists) != k:
            raise ValueError(f"need {k} label distributions, got {len(self.label_dists)}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        sources.setflags(write=False)
        mix.setflags(write=False)
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "mix", mix)
        object.__setattr__(self, "label_dists", tuple(self.label_dists))

    @property
    def num_sources(self) -> int:
        return self.sources.shape[0]

    @property
    def dim(self) -> int:
        return self.sources.shape[1]

    def to_json_dict(self) -> dict:
        return {
            "sources": self.sources.tolist(),
            "mix": self.mix.tolist(),
            "label_dists": [
                {"kind": d.kind, "mean": d.mean, "variance": d.variance}
                for d in self.label_dists
            ],
            "noise_sigma": self.noise_sigma,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LatentSourceSpec":
        """A spec from its JSON form; a missing or mistyped field raises ValueError naming it."""
        number = (int, float)
        require_fields(data, (("sources", list, "a list"), ("mix", list, "a list"),
                              ("label_dists", list, "a list"), ("noise_sigma", number, "a number"),
                              ("seed", int, "an integer")), "spec JSON")
        for i, d in enumerate(data["label_dists"]):
            require_fields(d, (("kind", str, "a string"), ("mean", number, "a number")),
                           f"spec JSON label_dists[{i}]")
        values = "spec JSON values"
        variances = json_floats([d.get("variance", 0.0) for d in data["label_dists"]], values,
                                "'variance'").tolist()
        label_dists = tuple(LabelDist(d["kind"], d["mean"], v)
                            for d, v in zip(data["label_dists"], variances))
        return cls(json_floats(data["sources"], values, "'sources'"),
                   json_floats(data["mix"], values, "'mix'"), label_dists, data["noise_sigma"],
                   data["seed"])

    def save_json(self, path) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load_json(cls, path) -> "LatentSourceSpec":
        return read_json(path, cls.from_json_dict)


@dataclass(frozen=True)
class LabeledSet:
    """Sampled labeled data: observation matrix, labels, true source indices.

    Source indices are 0-based positions into ``spec.sources``.
    """

    x: np.ndarray
    y: np.ndarray
    source: np.ndarray

    def __len__(self) -> int:
        return len(self.y)


def generate_labeled(spec: LatentSourceSpec, n: int) -> LabeledSet:
    """Draw n labeled points (x, y, source) from the model."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(spec.seed)
    source = rng.choice(spec.num_sources, size=n, p=spec.mix)
    noise = rng.standard_normal((n, spec.dim))
    x = spec.sources[source] + spec.noise_sigma * noise
    means = np.array([d.mean for d in spec.label_dists])
    stds = np.array([np.sqrt(d.variance) for d in spec.label_dists])
    y = means[source] + stds[source] * rng.standard_normal(n)
    return LabeledSet(x=x, y=y, source=source)


@dataclass(frozen=True)
class Placement:
    """Location of one embedded source pattern in a synthetic series.

    ``start`` is the index of the bucket where the pattern's first increment
    begins; the pattern covers increments [start, start + length).
    """

    start: int
    source: int
    length: int


@dataclass(frozen=True)
class SyntheticSeries:
    series: PriceSeries
    placements: tuple[Placement, ...]


def generate_price_series(
    spec: LatentSourceSpec,
    duration: float,
    seed: int,
    interval: float = DEFAULT_INTERVAL,
    start_price: float = 500.0,
    imbalance_gain: float = 0.0,
) -> SyntheticSeries:
    """Stitch source patterns into a gapless synthetic price series.

    Source vectors are read as per-bucket price increments. Patterns are
    drawn per the mixture and laid back-to-back (the final one truncated at
    the series end), with per-increment Gaussian noise of scale
    ``spec.noise_sigma``. Placements of the embedded patterns are returned
    for test introspection.

    The imbalance channel is ``tanh(imbalance_gain * next_increment)``:
    zero gain produces a neutral (all-zero) channel. A non-finite duration,
    or one of more than MAX_BUCKETS buckets, is refused before anything is
    allocated.
    """
    if not interval > 0:
        raise ValueError("interval must be > 0")
    if not np.isfinite(duration):
        raise ValueError(f"duration must be finite, got {duration!r}")
    steps = duration // interval
    if steps + 1 > MAX_BUCKETS:
        raise ValueError(
            f"duration {duration!r} s needs more than {MAX_BUCKETS} buckets of {interval!r} s"
        )
    pattern_len = spec.dim
    num_buckets = int(steps) + 1
    num_increments = num_buckets - 1
    if num_increments < pattern_len:
        raise ValueError(
            f"duration {duration}s holds {num_increments} increments, "
            f"shorter than the {pattern_len}-increment source patterns"
        )

    rng = np.random.default_rng(seed)
    increments = np.empty(num_increments)
    placements: list[Placement] = []
    pos = 0
    while pos < num_increments:
        k = int(rng.choice(spec.num_sources, p=spec.mix))
        take = min(pattern_len, num_increments - pos)
        chunk = spec.sources[k][:take]
        if spec.noise_sigma > 0:
            chunk = chunk + spec.noise_sigma * rng.standard_normal(take)
        increments[pos : pos + take] = chunk
        placements.append(Placement(start=pos, source=k, length=take))
        pos += take

    prices = np.empty(num_buckets)
    prices[0] = start_price
    np.cumsum(increments, out=prices[1:])
    prices[1:] += start_price

    imbalances = np.zeros(num_buckets)
    if imbalance_gain != 0.0:
        imbalances[:-1] = np.tanh(imbalance_gain * increments)

    series = PriceSeries(
        start_time=0.0, interval=interval, prices=prices, imbalances=imbalances
    )
    return SyntheticSeries(series=series, placements=tuple(placements))


def demo_spec(
    seed: int = 20140506,
    noise_sigma: float = 0.0,
) -> LatentSourceSpec:
    """A stylized four-source model for demos and synthetic experiments.

    Two high-amplitude sources (a sustained run with tapered ends, and its
    mirror) and two low-amplitude oscillations at different frequencies.
    Strong moves are rarer than calm ones, so thresholded strategies see a
    spread of signal strengths; the tapers make a run's wind-down visible
    inside a trailing window.
    """
    pattern_len = 60
    t = np.arange(pattern_len, dtype=np.float64)
    taper = np.minimum(1.0, np.minimum(t / 6.0, (pattern_len - 1 - t) / 10.0))
    run = 0.9 * np.clip(taper, 0.05, 1.0)
    wiggle_slow = 0.12 * np.sin(2.0 * np.pi * t / pattern_len)
    wiggle_fast = 0.10 * np.sin(4.0 * np.pi * t / pattern_len + 0.7)
    sources = np.stack([run, -run, wiggle_slow, wiggle_fast])
    label_dists = tuple(
        LabelDist(kind=LABEL_POINT, mean=float(s.sum())) for s in sources
    )
    strong_mix = 0.15
    calm_mix = (1.0 - 2.0 * strong_mix) / 2.0
    return LatentSourceSpec(
        sources=sources,
        mix=np.array([strong_mix, strong_mix, calm_mix, calm_mix]),
        label_dists=label_dists,
        noise_sigma=noise_sigma,
        seed=seed,
    )
