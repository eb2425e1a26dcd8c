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

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .market_data import PriceSeries, open_for_write, write_float_rows, write_json
from .pattern_bank import PatternBank
from .regression import PredictorModel

if TYPE_CHECKING:
    from .trader import Trade

SHARPE_SQRT = "sqrt"
SHARPE_PAPER_LITERAL = "paper-literal"
SHARPE_VARIANTS = (SHARPE_SQRT, SHARPE_PAPER_LITERAL)


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
    """Full outcome of one backtest: what run_backtest measured, from which
    the counts, the total and the mean profit per round trip follow."""

    threshold: float
    trades: tuple["Trade", ...]
    round_trip_profits: tuple[float, ...]
    cumulative_profit_series: np.ndarray
    avg_holding_time: float  # seconds
    avg_investment: float
    benchmark_move: float  # |end price - start price| over the test interval
    sharpe: float

    def __post_init__(self) -> None:
        series = np.ascontiguousarray(self.cumulative_profit_series, dtype=np.float64)
        series.setflags(write=False)
        object.__setattr__(self, "cumulative_profit_series", series)

    @property
    def total_profit(self) -> float:
        return math.fsum(self.round_trip_profits)

    @property
    def num_trades(self) -> int:
        return len(self.trades)

    @property
    def num_round_trips(self) -> int:
        return len(self.round_trip_profits)

    @property
    def sharpe_defined(self) -> bool:
        return not math.isnan(self.sharpe)

    @property
    def avg_profit_per_trade(self) -> float:
        """Mean profit per round trip; 0 with none."""
        return self.total_profit / self.num_round_trips if self.num_round_trips else 0.0


def sweep_thresholds(
    model: PredictorModel,
    series: PriceSeries,
    thresholds: Sequence[float],
    sharpe_variant: str = SHARPE_SQRT,
    dp_stream: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[BacktestReport]:
    """Backtest each threshold; the reports come back in threshold order.

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
        run_backtest(model, series, t, dp_stream=dp_stream, sharpe_variant=sharpe_variant)
        for t in thresholds
    ]


def write_sweep_csv(rows: Sequence[BacktestReport], path) -> None:
    with open_for_write(path) as fh:
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
    sweep: Sequence[BacktestReport],
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
    files = ("summary.json", "sweep.csv", "equity_curve.csv", "cluster_centers.csv")
    paths = {os.path.splitext(name)[0]: os.path.join(out_dir, name) for name in files}
    write_json(paths["summary"], summary_dict(report, sharpe_variant, extra_summary))
    write_sweep_csv(sweep, paths["sweep"])

    cum = report.cumulative_profit_series
    if series is not None and len(series) == len(cum):
        times = series.bucket_times
        prices = series.prices
    else:
        times = np.arange(len(cum), dtype=np.float64)
        prices = np.full(len(cum), np.nan)
    with open_for_write(paths["equity_curve"]) as fh:
        write_float_rows(fh, (times, prices, cum), ("bucket_time", "price", "cum_profit"))
    with open_for_write(paths["cluster_centers"]) as fh:
        for bank in banks:
            write_float_rows(fh, (bank.labels, bank.vectors), lead=f"{bank.window_length},")
    return paths
