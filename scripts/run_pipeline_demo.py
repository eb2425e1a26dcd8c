#!/usr/bin/env python3
"""End-to-end demo experiment on planted synthetic data.

Writes a demo latent-source spec, runs the full pipeline (generate, split,
build banks, calibrate, fit, sweep, backtest, report), and prints the
headline numbers and the pipeline's wall time. Everything but the wall time
lands in the chosen output directory.
"""

import argparse
import json
import os
import sys
import time

from lstrader.cli import main as cli_main
from lstrader.latent_source import demo_spec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo_run")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--duration", type=float, default=259200.0, help="seconds (default 3 days)")
    parser.add_argument("--noise-sigma", type=float, default=0.0)
    parser.add_argument("--start-price", type=float, default=5000.0)
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    spec_path = os.path.join(args.out, "spec.json")
    demo_spec(noise_sigma=args.noise_sigma).save_json(spec_path)

    start = time.perf_counter()
    rc = cli_main(
        [
            "pipeline",
            "--spec", spec_path,
            "--out", args.out,
            "--seed", str(args.seed),
            "--duration", str(args.duration),
            "--start-price", str(args.start_price),
        ]
    )
    wall_s = time.perf_counter() - start
    if rc != 0:
        return rc

    with open(os.path.join(args.out, "summary.json"), "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    print("\n=== demo summary ===")
    for key in ("total_profit", "num_trades", "num_round_trips", "avg_investment",
                "return_pct", "sharpe", "threshold", "kernel_c"):
        print(f"  {key:>16}: {summary[key]}")
    print(f"  {'pipeline_wall_s':>16}: {wall_s:.3f}")
    print(f"  artifacts in {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
