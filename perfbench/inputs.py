"""Seeded input generation for the benchmark workloads.

Runs in its own child process before any timed child, so none of it is
counted. Uses only public lstrader entry points (``demo_spec``,
``generate_price_series``, ``cli.main``) plus numpy for the tick stream.
"""

from __future__ import annotations

import contextlib
import io
import os

import numpy as np

TICK_EPOCH = 1_400_000_000  # 2014-05-13, the paper's data period
DEMO_START_PRICE = 5000.0


def pipeline_argv(spec_path: str, out_dir: str, seed: int, duration: float) -> list[str]:
    """The train workload's command line: the demo config at one market size."""
    return [
        "pipeline",
        "--spec", spec_path,
        "--out", out_dir,
        "--seed", str(seed),
        "--duration", repr(float(duration)),
        "--start-price", repr(DEMO_START_PRICE),
    ]


def write_spec(work: str) -> str:
    from lstrader.latent_source import demo_spec

    path = os.path.join(work, "spec.json")
    demo_spec().save_json(path)
    return path


def prepare_train(work: str, size: dict) -> dict:
    return {"spec": write_spec(work)}


def prepare_evaluate(work: str, size: dict, model_seed: int, series_seed: int) -> dict:
    """The model train would produce at this seed, plus a fresh series."""
    from lstrader.cli import main as cli_main
    from lstrader.latent_source import demo_spec, generate_price_series

    spec = write_spec(work)
    model_dir = os.path.join(work, "model")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(pipeline_argv(spec, model_dir, model_seed, size["train_duration"]))
    if rc != 0:
        raise RuntimeError(f"preparing the evaluate model failed with exit code {rc}")
    series = generate_price_series(
        demo_spec(), duration=size["eval_duration"], seed=series_seed, start_price=DEMO_START_PRICE
    ).series
    series_path = os.path.join(work, "eval_series.csv")
    series.to_csv(series_path)
    return {
        "model": os.path.join(model_dir, "model.json"),
        "series": series_path,
        "buckets": len(series),
        "series_bytes": os.path.getsize(series_path),
    }


def prepare_ingest(work: str, size: dict, seed: int, interval: float = 10.0) -> dict:
    """One tick CSV with a full book ladder, plus reference arrays.

    Poisson(rate) ticks per bucket at irregular millisecond timestamps, so
    some buckets are empty; a random walk price with 2 decimals; volumes
    with 8 decimals; about one tick in ten has a shallower book on one
    side, written as blank trailing levels.
    """
    rng = np.random.default_rng(seed)
    levels = size["ingest_levels"]
    n_buckets = int(size["ingest_duration"] // interval)
    per_bucket = rng.poisson(size["tick_rate"], n_buckets)
    per_bucket[0] = max(per_bucket[0], 1)
    bucket = np.repeat(np.arange(n_buckets), per_bucket)
    offset_ms = rng.integers(1, int(interval * 1000) + 1, bucket.size)
    order = np.lexsort((offset_ms, bucket))
    start = TICK_EPOCH + interval * (seed % 1000)
    ts = np.round(start + interval * bucket[order] + offset_ms[order] / 1000.0, 3)
    n = ts.size
    price = np.round(500.0 + np.cumsum(rng.normal(0.0, 0.25, n)), 2)
    steps = 0.01 * np.arange(1, levels + 1)
    bid_px = np.round(price[:, None] - steps, 2)
    ask_px = np.round(price[:, None] + steps, 2)
    bid_vol = np.round(rng.exponential(2.0, (n, levels)), 8)
    ask_vol = np.round(rng.exponential(2.0, (n, levels)), 8)
    for px, vol in ((bid_px, bid_vol), (ask_px, ask_vol)):
        shallow = np.flatnonzero(rng.random(n) < 0.05)
        depth = rng.integers(1, levels, shallow.size)
        for row, d in zip(shallow, depth):
            px[row, d:] = np.nan
            vol[row, d:] = np.nan

    path = os.path.join(work, "ticks.csv")
    header = ["timestamp", "price"]
    header += [f"bid_{k}_{i}" for i in range(1, levels + 1) for k in ("price", "vol")]
    header += [f"ask_{k}_{i}" for i in range(1, levels + 1) for k in ("price", "vol")]
    table = np.empty((n, 2 + 4 * levels))
    table[:, 0] = ts
    table[:, 1] = price
    table[:, 2 : 2 + 2 * levels : 2] = bid_px
    table[:, 3 : 3 + 2 * levels : 2] = bid_vol
    table[:, 2 + 2 * levels :: 2] = ask_px
    table[:, 3 + 2 * levels :: 2] = ask_vol
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in table.tolist():
            fh.write(",".join("" if v != v else repr(v) for v in row) + "\n")

    # level volumes summed in file order, as a naive reader would
    bid_sum = np.array([sum(v for v in row if v == v) for row in bid_vol.tolist()])
    ask_sum = np.array([sum(v for v in row if v == v) for row in ask_vol.tolist()])
    ref_path = os.path.join(work, "ticks_ref.npz")
    np.savez(ref_path, ts=ts, price=price, bid_sum=bid_sum, ask_sum=ask_sum)
    return {"ticks": path, "ref": ref_path, "ticks_count": n, "ticks_bytes": os.path.getsize(path)}
