"""Performance metrics, threshold sweeps, and report artifacts.

The Sharpe ratio here compares strategy profit against the buy-and-hold
price drift over the same interval:

    (sum of round-trip profits - C) / (L * sigma_p)

with C the absolute start-to-end price move, L the number of round trips,
and sigma_p the dispersion of per-round-trip profits. By default sigma_p is
the standard deviation (square root of the mean squared deviation); the
``paper-literal`` variant drops the square root for comparison runs.

Report bundle written by emit_report:
  summary.json         headline metrics
  sweep.csv            threshold,num_trades,avg_holding_s,avg_profit,total_profit,sharpe
  equity_curve.csv     bucket_time,price,cum_profit
  cluster_centers.csv  one row per bank pattern: window length, label, M values
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .market_data import PriceSeries, write_float_rows
from .pattern_bank import PatternBank
from .regression import PredictorModel

if TYPE_CHECKING:
    from .trader import Trade

SHARPE_SQRT = "sqrt"
SHARPE_PAPER_LITERAL = "paper-literal"
SHARPE_VARIANTS = (SHARPE_SQRT, SHARPE_PAPER_LITERAL)

LEDGER_TOLERANCE = 1e-9


def sharpe(profits: Sequence[float], price_move: float, variant: str = SHARPE_SQRT) -> float:
    """Sharpe ratio of a round-trip profit sequence against the price drift.

    Returns NaN (the undefined flag) when there are fewer than two round
    trips or the profit dispersion is zero.
    """
    if variant not in SHARPE_VARIANTS:
        raise ValueError(f"unknown sharpe variant: {variant!r}")
    profits = np.asarray(profits, dtype=np.float64)
    count = profits.size
    if count < 2:
        return math.nan
    deviations = profits - profits.mean()
    msd = (deviations @ deviations) / count
    sigma = np.sqrt(msd) if variant == SHARPE_SQRT else msd
    if sigma == 0.0:
        return math.nan
    return float((profits.sum() - price_move) / (count * sigma))


@dataclass(frozen=True)
class BacktestReport:
    """Full outcome of one backtest: ledger plus derived metrics."""

    threshold: float
    trades: tuple["Trade", ...]
    round_trip_profits: tuple[float, ...]
    cumulative_profit_series: np.ndarray
    total_profit: float
    num_trades: int
    num_round_trips: int
    avg_holding_time: float  # seconds
    avg_investment: float
    benchmark_move: float  # |end price - start price| over the test interval
    sharpe: float
    sharpe_defined: bool

    def __post_init__(self) -> None:
        if self.num_trades != len(self.trades):
            raise ValueError("num_trades must equal ledger length")
        if self.num_round_trips != len(self.round_trip_profits):
            raise ValueError("num_round_trips must match profits")
        if abs(self.total_profit - math.fsum(self.round_trip_profits)) > LEDGER_TOLERANCE:
            raise ValueError("total_profit must equal the sum of round-trip profits")
        series = np.ascontiguousarray(self.cumulative_profit_series, dtype=np.float64)
        series.setflags(write=False)
        object.__setattr__(self, "cumulative_profit_series", series)


@dataclass(frozen=True)
class SweepRow:
    """One threshold's performance summary, with the backtest it came from."""

    threshold: float
    num_trades: int
    avg_holding_time: float
    avg_profit_per_trade: float
    total_profit: float
    sharpe: float
    report: BacktestReport = field(repr=False, compare=False)


def row_from_report(report: BacktestReport) -> SweepRow:
    if report.num_round_trips:
        avg_profit = report.total_profit / report.num_round_trips
    else:
        avg_profit = 0.0
    return SweepRow(
        threshold=report.threshold,
        num_trades=report.num_trades,
        avg_holding_time=report.avg_holding_time,
        avg_profit_per_trade=avg_profit,
        total_profit=report.total_profit,
        sharpe=report.sharpe,
        report=report,
    )


def sweep_thresholds(
    model: PredictorModel,
    series: PriceSeries,
    thresholds: Sequence[float],
    sharpe_variant: str = SHARPE_SQRT,
    dp_stream: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[SweepRow]:
    """Backtest each threshold; rows come back in threshold order.

    The predicted-change stream does not depend on the threshold, so it is
    computed once (or taken from dp_stream, as in run_backtest) and shared
    across all runs.
    """
    from .trader import run_backtest

    thresholds = [float(t) for t in thresholds]
    if not thresholds:
        raise ValueError("thresholds must be non-empty")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be strictly increasing")
    if dp_stream is None:
        dp_stream = model.dp_stream(series)
    return [
        row_from_report(
            run_backtest(model, series, t, dp_stream=dp_stream, sharpe_variant=sharpe_variant)
        )
        for t in thresholds
    ]


def _open_for_write(path: str):
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"failed opening {path} for writing: {exc}") from exc


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    with _open_for_write(os.fspath(path)) as fh:
        fh.write("threshold,num_trades,avg_holding_s,avg_profit,total_profit,sharpe\r\n")
        for row in rows:
            values = (row.avg_holding_time, row.avg_profit_per_trade, row.total_profit, row.sharpe)
            floats = ",".join(repr(float(v)) for v in values)
            fh.write(f"{float(row.threshold)!r},{row.num_trades},{floats}\r\n")


def summary_dict(
    report: BacktestReport, sharpe_variant: str = SHARPE_SQRT, extra: dict | None = None
) -> dict:
    """Headline metrics for summary.json.

    Return percentage follows the profit-over-average-investment convention;
    when the paper-literal sharpe variant is configured both dispersion
    conventions are emitted side by side.
    """
    if report.avg_investment > 0:
        return_pct = 100.0 * report.total_profit / report.avg_investment
    else:
        return_pct = 0.0
    summary = {
        "total_profit": report.total_profit,
        "num_trades": report.num_trades,
        "num_round_trips": report.num_round_trips,
        "avg_holding_s": report.avg_holding_time,
        "avg_investment": report.avg_investment,
        "return_pct": return_pct,
        "threshold": report.threshold,
        "sharpe": None if math.isnan(report.sharpe) else report.sharpe,
        "sharpe_defined": report.sharpe_defined,
        "sharpe_variant": sharpe_variant,
    }
    if sharpe_variant == SHARPE_PAPER_LITERAL:
        for name, variant in (
            ("sharpe_sqrt", SHARPE_SQRT),
            ("sharpe_paper_literal", SHARPE_PAPER_LITERAL),
        ):
            value = sharpe(report.round_trip_profits, report.benchmark_move, variant)
            summary[name] = None if math.isnan(value) else value
    if extra:
        summary.update(extra)
    return summary


def emit_report(
    report: BacktestReport,
    sweep: Sequence[SweepRow],
    banks: Sequence[PatternBank],
    out_dir,
    series: PriceSeries | None = None,
    sharpe_variant: str = SHARPE_SQRT,
    extra_summary: dict | None = None,
) -> dict[str, str]:
    """Write the report bundle; returns artifact name -> path.

    Serialization is deterministic: identical inputs produce byte-identical
    files. The equity curve uses the backtested series' bucket times when
    the series is provided, else bucket indices.
    """
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    summary_path = os.path.join(out_dir, "summary.json")
    with _open_for_write(summary_path) as fh:
        json.dump(summary_dict(report, sharpe_variant, extra_summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths["summary"] = summary_path

    sweep_path = os.path.join(out_dir, "sweep.csv")
    write_sweep_csv(sweep, sweep_path)
    paths["sweep"] = sweep_path

    curve_path = os.path.join(out_dir, "equity_curve.csv")
    cum = report.cumulative_profit_series
    if series is not None and len(series) == len(cum):
        times = series.bucket_times
        prices = series.prices
    else:
        times = np.arange(len(cum), dtype=np.float64)
        prices = np.full(len(cum), np.nan)
    with _open_for_write(curve_path) as fh:
        write_float_rows(fh, (times, prices, cum), ("bucket_time", "price", "cum_profit"))
    paths["equity_curve"] = curve_path

    centers_path = os.path.join(out_dir, "cluster_centers.csv")
    with _open_for_write(centers_path) as fh:
        for bank in banks:
            write_float_rows(fh, (bank.labels, bank.vectors), lead=f"{bank.window_length},")
    paths["cluster_centers"] = centers_path

    return paths
