#!/usr/bin/env python3
"""Micro-benchmark for the similarity scoring rule.

Times ``similarity_many`` (the one rule every prediction is scored with) on
a block of random queries against a block of normalized random patterns and
reports evaluations per second, best of the repeats. One evaluation is one
query-pattern pair.
"""

import argparse
import time

import numpy as np

from lstrader.pattern_bank import normalize_rows
from lstrader.regression import similarity_many


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


if __name__ == "__main__":
    main()
