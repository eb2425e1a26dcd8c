"""Command-line front door for the full prediction/backtest pipeline.

Subcommands:
  gen          synthetic price series from a latent source spec JSON
  ingest       tick CSV -> coarsened PriceSeries CSV
  build-banks  pattern banks from a (training) series
  fit          kernel-constant calibration + combiner fit; writes model.json
  backtest     one threshold run, writing the ledger and report bundle
  sweep        threshold sweep table
  report       backtest + sweep + full report bundle in one go
  pipeline     gen/ingest, three-way temporal split, banks, fit, evaluation

The pipeline splits the series into three consecutive periods (train / fit
/ evaluate, exact fractions by bucket count with the remainder on the last
period), builds banks on the first, calibrates on the second, and reports
on the third. All randomness derives from one --seed. --windows takes any
strictly increasing list of window lengths, one bank per length.

Each bank is written once, by build-banks or by the pipeline (into the run
directory's banks/), as JSON or, with --bank-format binary, LSTBANK1. The
kernel constant c lives only in model.json, whose bank paths are relative
to its own directory: fit refers to the files it read, so it writes no bank.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import evaluator, trader
from .latent_source import LatentSourceSpec, generate_price_series
from .market_data import DEFAULT_INTERVAL, PriceSeries, coarsen, parse_ticks
from .pattern_bank import (
    DEFAULT_NUM_CLUSTERS,
    DEFAULT_NUM_SELECTED,
    DEFAULT_WINDOW_LENGTHS,
    PatternBank,
    build_banks,
)
from .regression import (
    DEFAULT_C_GRID,
    KERNEL_EXP_SIMILARITY,
    KernelChoice,
    PredictorModel,
    calibrate_c,
    fit_points,
)

SPLIT_TOLERANCE = 1e-9
AUTO_THRESHOLD_QUANTILES = (0.5, 0.7, 0.8, 0.9, 0.95, 0.99)


@dataclass
class RunConfig:
    """Pipeline settings; every field maps to a CLI flag."""

    spec_path: str | None = None
    ticks_path: str | None = None
    out_dir: str = "out"
    duration: float = 259200.0  # three days
    interval: float = DEFAULT_INTERVAL
    window_lengths: tuple[int, ...] = DEFAULT_WINDOW_LENGTHS
    k: int = DEFAULT_NUM_CLUSTERS
    m: int = DEFAULT_NUM_SELECTED
    stride: int = 1
    c_grid: tuple[float, ...] = DEFAULT_C_GRID
    thresholds: tuple[float, ...] | None = None  # None -> quantile auto-grid
    split: tuple[float, float, float] = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    seed: int = 0
    sharpe_variant: str = evaluator.SHARPE_SQRT
    bank_format: str = "json"
    start_price: float = 500.0
    imbalance_gain: float = 0.0
    max_iters: int = 100

    def __post_init__(self) -> None:
        if len(self.split) != 3 or any(f <= 0 for f in self.split):
            raise ValueError("split needs three positive fractions")
        if abs(sum(self.split) - 1.0) > SPLIT_TOLERANCE:
            raise ValueError(f"split fractions sum to {sum(self.split)!r}, expected 1")
        if (self.spec_path is None) == (self.ticks_path is None):
            raise ValueError("exactly one of --spec / --ticks is required")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")


def _save_banks(banks, out_dir: str, bank_format: str) -> list[str]:
    """Write each bank to out_dir as bank_<window>.json (or .bin, binary); their file names."""
    os.makedirs(out_dir, exist_ok=True)
    binary = bank_format == "binary"
    names = []
    for bank in banks:
        name = f"bank_{bank.window_length}.{'bin' if binary else 'json'}"
        (bank.save_binary if binary else bank.save_json)(os.path.join(out_dir, name))
        names.append(name)
    return names


def _auto_thresholds(dp: np.ndarray) -> tuple[float, ...]:
    """Deterministic threshold grid from the |dp| distribution."""
    magnitude = np.abs(dp)
    values = [float(np.quantile(magnitude, q)) for q in AUTO_THRESHOLD_QUANTILES]
    grid = sorted({v for v in values if v > 0})
    if not grid:
        peak = float(magnitude.max())
        grid = [peak / 2 if peak > 0 else 1e-6]
    return tuple(grid)


def cmd_gen(args) -> int:
    spec = LatentSourceSpec.load_json(args.spec)
    seed = spec.seed if args.seed is None else args.seed
    result = generate_price_series(
        spec,
        duration=args.duration,
        seed=seed,
        interval=args.interval,
        start_price=args.start_price,
        imbalance_gain=args.imbalance_gain,
    )
    result.series.to_csv(args.out)
    if args.placements:
        with open(args.placements, "w", encoding="utf-8") as fh:
            json.dump(
                [
                    {"start": p.start, "source": p.source, "length": p.length}
                    for p in result.placements
                ],
                fh,
                indent=2,
            )
            fh.write("\n")
    print(f"wrote {len(result.series)} buckets to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    with open(args.ticks, "r", newline="", encoding="utf-8") as fh:
        ticks = parse_ticks(fh)
    series = coarsen(ticks, interval=args.interval)
    series.to_csv(args.out)
    print(f"wrote {len(series)} buckets to {args.out}")
    return 0


def cmd_build_banks(args) -> int:
    series = PriceSeries.from_csv(args.series)
    banks = build_banks(
        series,
        window_lengths=args.windows,
        k=args.k,
        m=args.m,
        stride=args.stride,
        seed=args.seed,
        max_iters=args.max_iters,
    )
    for name in _save_banks(banks, args.out_dir, args.bank_format):
        print(f"wrote {os.path.join(args.out_dir, name)}")
    return 0


def _load_banks_from_dir(bank_dir: str) -> list[tuple[PatternBank, str]]:
    """(bank, path) of each bank_*.json / bank_*.bin file in bank_dir, shortest window first."""
    names = sorted(
        n for n in os.listdir(bank_dir) if n.startswith("bank_") and n.split(".")[-1] in ("json", "bin")
    )
    if not names:
        raise FileNotFoundError(f"no bank_*.json or bank_*.bin files in {bank_dir}")
    paths = [os.path.join(bank_dir, n) for n in names]
    return sorted(((PatternBank.load(p), p) for p in paths), key=lambda bp: bp[0].window_length)


def _fit_model(series, banks, bank_refs, c_grid, out_dir: str):
    """Calibrate c, refit weights and write model.json, which refers to the
    banks' existing files by bank_refs (paths relative to out_dir)."""
    calibration = calibrate_c(c_grid, series, banks)
    os.makedirs(out_dir, exist_ok=True)
    model = PredictorModel(
        banks=tuple(banks),
        kernel=KernelChoice(KERNEL_EXP_SIMILARITY, c=calibration.c),
        weights=calibration.weights,
    )
    model_path = os.path.join(out_dir, "model.json")
    model.save_json(model_path, bank_refs)
    return model, model_path, calibration


def cmd_fit(args) -> int:
    series = PriceSeries.from_csv(args.series)
    banks, paths = zip(*_load_banks_from_dir(args.banks_dir))
    refs = [os.path.relpath(path, args.out_dir) for path in paths]
    model, model_path, calibration = _fit_model(series, banks, refs, args.c_grid, args.out_dir)
    print(f"calibrated c={calibration.c} (grid MSE: {calibration.errors})")
    print(f"wrote {model_path}")
    return 0


def cmd_backtest(args) -> int:
    series = PriceSeries.from_csv(args.series)
    model = PredictorModel.load_json(args.model)
    report = trader.run_backtest(model, series, args.threshold, sharpe_variant=args.sharpe_variant)
    os.makedirs(args.out_dir, exist_ok=True)
    trader.write_ledger_csv(report.trades, os.path.join(args.out_dir, "trades.csv"))
    evaluator.emit_report(
        report, [], model.banks, args.out_dir, series=series, sharpe_variant=args.sharpe_variant
    )
    print(f"total profit {report.total_profit} over {report.num_trades} trades")
    return 0


def cmd_sweep(args) -> int:
    series = PriceSeries.from_csv(args.series)
    model = PredictorModel.load_json(args.model)
    rows = evaluator.sweep_thresholds(model, series, args.thresholds, args.sharpe_variant)
    evaluator.write_sweep_csv(rows, args.out)
    print(f"wrote {args.out} ({len(rows)} thresholds)")
    return 0


def _evaluate(model, series, thresholds, sharpe_variant, out_dir, extra_summary=None):
    """Score once, sweep, keep the peak-profit threshold's backtest, emit the bundle."""
    ts, dp = model.dp_stream(series)
    if thresholds is None:
        thresholds = _auto_thresholds(dp)
    rows = evaluator.sweep_thresholds(
        model, series, thresholds, sharpe_variant, dp_stream=(ts, dp)
    )
    report = min(rows, key=lambda r: (-r.total_profit, r.threshold)).report
    os.makedirs(out_dir, exist_ok=True)
    trader.write_ledger_csv(report.trades, os.path.join(out_dir, "trades.csv"))
    extra = {"kernel_c": model.kernel.c, "used_ridge": model.weights.used_ridge}
    if extra_summary:
        extra.update(extra_summary)
    evaluator.emit_report(
        report,
        rows,
        model.banks,
        out_dir,
        series=series,
        sharpe_variant=sharpe_variant,
        extra_summary=extra,
    )
    return report, rows


def cmd_report(args) -> int:
    series = PriceSeries.from_csv(args.series)
    model = PredictorModel.load_json(args.model)
    report, rows = _evaluate(model, series, args.thresholds, args.sharpe_variant, args.out_dir)
    print(f"wrote report bundle to {args.out_dir} (best threshold {report.threshold})")
    return 0


def run_pipeline(config: RunConfig) -> dict:
    """All stages in order; returns the summary dictionary."""
    out = config.out_dir
    seed_seq = np.random.SeedSequence(config.seed)
    gen_seed, bank_seed = (int(s.generate_state(1)[0]) for s in seed_seq.spawn(2))

    if config.spec_path is not None:
        spec = LatentSourceSpec.load_json(config.spec_path)
        result = generate_price_series(
            spec,
            duration=config.duration,
            seed=gen_seed,
            interval=config.interval,
            start_price=config.start_price,
            imbalance_gain=config.imbalance_gain,
        )
        series = result.series
    else:
        with open(config.ticks_path, "r", newline="", encoding="utf-8") as fh:
            ticks = parse_ticks(fh)
        series = coarsen(ticks, interval=config.interval)
    os.makedirs(out, exist_ok=True)
    series.to_csv(os.path.join(out, "series.csv"))

    n = len(series)
    n1 = int(config.split[0] * n)
    n2 = int(config.split[1] * n)
    bounds = {"train": (0, n1), "fit": (n1, n1 + n2), "eval": (n1 + n2, n)}
    if not (0 < n1 < n1 + n2 < n):
        raise ValueError(f"series of {n} buckets cannot be split into three periods")
    with open(os.path.join(out, "periods.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {"n_buckets": n, "interval": series.interval, **{k: list(v) for k, v in bounds.items()}},
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    print(f"periods: train={bounds['train']} fit={bounds['fit']} eval={bounds['eval']}")

    train = series.slice(*bounds["train"])
    fit_series = series.slice(*bounds["fit"])
    eval_series = series.slice(*bounds["eval"])

    banks = build_banks(
        train,
        window_lengths=config.window_lengths,
        k=config.k,
        m=config.m,
        stride=config.stride,
        seed=bank_seed,
        max_iters=config.max_iters,
    )
    names = _save_banks(banks, os.path.join(out, "banks"), config.bank_format)
    refs = [os.path.join("banks", name) for name in names]
    model, model_path, calibration = _fit_model(fit_series, banks, refs, config.c_grid, out)
    print(f"calibrated c={calibration.c}, weights ridge_fallback={model.weights.used_ridge}")

    # strict three-way split: every feature window must sit inside its period
    longest = max(config.window_lengths)
    fit_ts_global = fit_points(fit_series, model.banks) + bounds["fit"][0]
    eval_ts_global = fit_points(eval_series, model.banks) + bounds["eval"][0]
    if (
        fit_ts_global.min() - longest + 1 < bounds["fit"][0]
        or fit_ts_global.max() >= bounds["eval"][0]
        or eval_ts_global.min() - longest + 1 < bounds["eval"][0]
    ):
        raise ValueError(
            f"feature windows cross a period boundary: fit points "
            f"[{fit_ts_global.min()}, {fit_ts_global.max()}], eval points from "
            f"{eval_ts_global.min()}, longest window {longest}, periods {bounds}"
        )

    report, rows = _evaluate(
        model,
        eval_series,
        config.thresholds,
        config.sharpe_variant,
        out,
        extra_summary={"seed": config.seed},
    )
    print(
        f"eval: threshold={report.threshold} profit={report.total_profit} "
        f"trades={report.num_trades} sharpe={report.sharpe}"
    )
    with open(os.path.join(out, "summary.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def cmd_pipeline(args) -> int:
    config = RunConfig(
        spec_path=args.spec,
        ticks_path=args.ticks,
        out_dir=args.out,
        duration=args.duration,
        interval=args.interval,
        window_lengths=args.windows,
        k=args.k,
        m=args.m,
        stride=args.stride,
        c_grid=args.c_grid,
        thresholds=args.thresholds,
        split=args.split,
        seed=args.seed,
        sharpe_variant=args.sharpe_variant,
        bank_format=args.bank_format,
        start_price=args.start_price,
        imbalance_gain=args.imbalance_gain,
        max_iters=args.max_iters,
    )
    run_pipeline(config)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lstrader",
        description="Latent-source kernel regression trading pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sharpe_variant = dict(choices=evaluator.SHARPE_VARIANTS, default=evaluator.SHARPE_SQRT)

    gen = sub.add_parser("gen", help="generate a synthetic price series")
    gen.add_argument("--spec", required=True, help="latent source spec JSON")
    gen.add_argument("--out", required=True, help="output PriceSeries CSV")
    gen.add_argument("--duration", type=float, default=259200.0)
    gen.add_argument("--seed", type=int, default=None, help="defaults to the spec's seed")
    gen.add_argument("--interval", type=float, default=DEFAULT_INTERVAL)
    gen.add_argument("--start-price", type=float, default=500.0)
    gen.add_argument("--imbalance-gain", type=float, default=0.0)
    gen.add_argument("--placements", default=None, help="optional placements JSON out")
    gen.set_defaults(func=cmd_gen)

    ingest = sub.add_parser("ingest", help="coarsen a tick CSV onto the bucket grid")
    ingest.add_argument("--ticks", required=True)
    ingest.add_argument("--out", required=True)
    ingest.add_argument("--interval", type=float, default=DEFAULT_INTERVAL)
    ingest.set_defaults(func=cmd_ingest)

    banks = sub.add_parser("build-banks", help="build pattern banks from a series")
    banks.add_argument("--series", required=True)
    banks.add_argument("--out-dir", required=True)
    banks.add_argument("--windows", type=_parse_ints, default=DEFAULT_WINDOW_LENGTHS)
    banks.add_argument("--k", type=int, default=DEFAULT_NUM_CLUSTERS)
    banks.add_argument("--m", type=int, default=DEFAULT_NUM_SELECTED)
    banks.add_argument("--stride", type=int, default=1)
    banks.add_argument("--seed", type=int, default=0)
    banks.add_argument("--max-iters", type=int, default=100)
    banks.add_argument("--bank-format", choices=("json", "binary"), default="json")
    banks.set_defaults(func=cmd_build_banks)

    fit = sub.add_parser("fit", help="calibrate the kernel constant and fit the combiner")
    fit.add_argument("--series", required=True)
    fit.add_argument("--banks-dir", required=True)
    fit.add_argument("--out-dir", required=True)
    fit.add_argument("--c-grid", type=_parse_floats, default=DEFAULT_C_GRID)
    fit.set_defaults(func=cmd_fit)

    backtest = sub.add_parser("backtest", help="run one threshold backtest")
    backtest.add_argument("--series", required=True)
    backtest.add_argument("--model", required=True)
    backtest.add_argument("--threshold", type=float, required=True)
    backtest.add_argument("--out-dir", required=True)
    backtest.add_argument("--sharpe-variant", **sharpe_variant)
    backtest.set_defaults(func=cmd_backtest)

    sweep = sub.add_parser("sweep", help="threshold sweep table")
    sweep.add_argument("--series", required=True)
    sweep.add_argument("--model", required=True)
    sweep.add_argument("--thresholds", type=_parse_floats, required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--sharpe-variant", **sharpe_variant)
    sweep.set_defaults(func=cmd_sweep)

    report = sub.add_parser("report", help="backtest + sweep + report bundle")
    report.add_argument("--series", required=True)
    report.add_argument("--model", required=True)
    report.add_argument("--out-dir", required=True)
    report.add_argument("--thresholds", type=_parse_floats, default=None)
    report.add_argument("--sharpe-variant", **sharpe_variant)
    report.set_defaults(func=cmd_report)

    pipeline = sub.add_parser("pipeline", help="all stages in order")
    source = pipeline.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", default=None, help="latent source spec JSON")
    source.add_argument("--ticks", default=None, help="tick CSV input")
    pipeline.add_argument("--out", required=True)
    pipeline.add_argument("--duration", type=float, default=259200.0)
    pipeline.add_argument("--interval", type=float, default=DEFAULT_INTERVAL)
    pipeline.add_argument("--windows", type=_parse_ints, default=DEFAULT_WINDOW_LENGTHS)
    pipeline.add_argument("--k", type=int, default=DEFAULT_NUM_CLUSTERS)
    pipeline.add_argument("--m", type=int, default=DEFAULT_NUM_SELECTED)
    pipeline.add_argument("--stride", type=int, default=1)
    pipeline.add_argument("--c-grid", type=_parse_floats, default=DEFAULT_C_GRID)
    pipeline.add_argument("--thresholds", type=_parse_floats, default=None)
    pipeline.add_argument("--split", type=_parse_floats, default=(1 / 3, 1 / 3, 1 / 3))
    pipeline.add_argument("--seed", type=int, default=0)
    pipeline.add_argument("--max-iters", type=int, default=100)
    pipeline.add_argument("--sharpe-variant", **sharpe_variant)
    pipeline.add_argument("--bank-format", choices=("json", "binary"), default="json")
    pipeline.add_argument("--start-price", type=float, default=500.0)
    pipeline.add_argument("--imbalance-gain", type=float, default=0.0)
    pipeline.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        path = exc.filename if exc.filename else exc
        print(f"error: missing input file: {path}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
