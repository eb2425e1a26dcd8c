"""Metric names and units the benchmark reports; BENCHMARK.json mirrors them."""

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
}

WINDOWS = (180, 360, 720)

PER_LAYER = {
    "pattern_bank.build_banks_s": "s",
    **{f"pattern_bank.extract_windows_s.{m}": "s" for m in WINDOWS},
    **{f"pattern_bank.kmeans_s.{m}": "s" for m in WINDOWS},
    **{f"pattern_bank.kmeans_iters.{m}": "count" for m in WINDOWS},
    **{f"pattern_bank.windows.{m}": "count" for m in WINDOWS},
    "pattern_bank.select_s": "s",
    "pattern_bank.bank_save_s": "s",
    "pattern_bank.bank_load_s": "s",
    "regression.calibrate_c_s": "s",
    "regression.feature_block_s": "s",
    "regression.feature_block_calls": "count",
    "regression.points_scored": "count",
    "regression.sim_evals_per_s": "1/s",
    "regression.dp_stream_1row_us": "us",
    "trader.run_backtest_s": "s",
    "trader.run_backtest_calls": "count",
    "trader.buckets_per_s": "1/s",
    "trader.step_us": "us",
    "trader.trades": "count",
    "evaluator.sweep_s": "s",
    "evaluator.emit_report_s": "s",
    "evaluator.report_bytes": "bytes",
    "market_data.parse_ticks_s": "s",
    "market_data.ticks_per_s": "1/s",
    "market_data.coarsen_s": "s",
    "market_data.series_to_csv_s": "s",
    "market_data.series_from_csv_s": "s",
    "market_data.ticks": "count",
    "market_data.buckets": "count",
    "latent_source.generate_s": "s",
    "cli.pipeline_s": "s",
    "cli.report_s": "s",
    "cli.ingest_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "decide_us.p50": "us",
    "decide_us.p99": "us",
    "profit": "price",
    "sharpe": "ratio",
    "error_rate": "fraction",
}

HIGHER_IS_BETTER = {
    "regression.sim_evals_per_s",
    "trader.buckets_per_s",
    "market_data.ticks_per_s",
    "profit",
    "sharpe",
}

# Counts that must repeat exactly between runs of one instance.
COUNTS = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "bytes"))
