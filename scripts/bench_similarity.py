#!/usr/bin/env python3
"""Micro-benchmark for the similarity scoring rule.

Times ``similarity_many`` (the one rule every prediction is scored with) on
a block of random queries against a block of normalized random patterns and
reports evaluations per second, best of the repeats. One evaluation is one
query-pattern pair.

A second line times ``feature_block`` on a generated 7-day ``demo_spec()``
series against one bank of normalized random patterns per default window
length: prediction points per second (best of the repeats) and the peak of
the allocations ``tracemalloc`` sees during one call.
"""

import argparse
import time
import tracemalloc

import numpy as np

from lstrader.latent_source import demo_spec, generate_price_series
from lstrader.pattern_bank import (
    DEFAULT_NUM_SELECTED,
    DEFAULT_WINDOW_LENGTHS,
    PatternBank,
    normalize_rows,
)
from lstrader.regression import KernelChoice, feature_block, fit_points, similarity_many


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=1024)
    parser.add_argument("--patterns", type=int, default=2048)
    parser.add_argument("--dim", type=int, default=360)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    queries = rng.standard_normal((args.queries, args.dim))
    patterns = normalize_rows(rng.standard_normal((args.patterns, args.dim)))
    best = float("inf")
    for _ in range(args.repeats):
        start = time.perf_counter()
        scores = similarity_many(queries, patterns)
        best = min(best, time.perf_counter() - start)
    if not np.isfinite(scores).all():
        raise SystemExit("error: similarity_many produced non-finite scores")
    total = args.queries * args.patterns
    rate = total / best
    print(
        f"{total:,} similarity evaluations at M={args.dim}: "
        f"{rate:,.0f} evaluations/sec ({rate / 1e6:.1f}M/s)"
    )

    series = generate_price_series(demo_spec(), duration=7 * 86400.0, seed=args.seed).series
    banks = tuple(
        PatternBank(
            window_length=m,
            vectors=normalize_rows(rng.standard_normal((DEFAULT_NUM_SELECTED, m))),
            labels=rng.standard_normal(DEFAULT_NUM_SELECTED),
            populations=np.ones(DEFAULT_NUM_SELECTED, dtype=np.int64),
        )
        for m in DEFAULT_WINDOW_LENGTHS
    )
    kernel = KernelChoice("exp_similarity", c=1.0)
    ts = fit_points(series, banks)
    best = float("inf")
    for _ in range(args.repeats):
        start = time.perf_counter()
        feature_block(series, banks, kernel, ts)
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    feature_block(series, banks, kernel, ts)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    windows = ",".join(str(m) for m in DEFAULT_WINDOW_LENGTHS)
    print(
        f"feature_block on {ts.size:,} points of a 7-day demo series, banks {windows}: "
        f"{ts.size / best:,.0f} points/sec, tracemalloc peak {peak / 2**20:.1f} MiB"
    )


if __name__ == "__main__":
    main()
