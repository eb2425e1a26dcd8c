"""Performance metrics, threshold sweeps, and the report bundle that
README.md ("File formats") sets out.

Imports run one way, evaluator -> trader -> market_data: the trader
backtests a given dp stream and writes no file, and this module alone writes
the bundle. sweep.csv and trades.csv are csv.writer rows from one helper; the
float tables come from market_data's shared float writer. The Sharpe ratio is
computed here only, when a report is written, in the convention the report names.

The Sharpe ratio here compares strategy profit against the buy-and-hold
price drift over the same interval:

    (sum of round-trip profits - C) / (L * sigma_p)

with C the absolute start-to-end price move, L the number of round trips,
and sigma_p the dispersion of per-round-trip profits. By default sigma_p is
the standard deviation (square root of the mean squared deviation); the
``paper-literal`` variant drops the square root for comparison runs.
"""

from __future__ import annotations

import csv
import math
import os
from typing import Sequence

import numpy as np

from . import trader
from .market_data import PriceSeries, open_for_write, write_float_rows, write_json
from .pattern_bank import PatternBank

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


def check_thresholds(thresholds: Sequence[float]) -> list[float]:
    """thresholds as floats; ValueError unless there is at least one, each is
    finite and > 0, and they strictly increase."""
    thresholds = [float(t) for t in thresholds]
    if not thresholds:
        raise ValueError("thresholds must be non-empty")
    if not all(math.isfinite(t) and t > 0 for t in thresholds):
        raise ValueError("thresholds must be finite and > 0")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be strictly increasing")
    return thresholds


def sweep_thresholds(
    series: PriceSeries, dp_stream: tuple[np.ndarray, np.ndarray], thresholds: Sequence[float]
) -> list[trader.BacktestReport]:
    """The backtests of one dp stream at each threshold, in threshold order."""
    return [trader.run_backtest(series, dp_stream, t) for t in check_thresholds(thresholds)]


def summary_dict(
    report: trader.BacktestReport, sharpe_variant: str = SHARPE_SQRT, extra: dict | None = None
) -> dict:
    """Headline metrics for summary.json.

    Return percentage follows the profit-over-average-investment convention.
    "sharpe" is computed here in the convention "sharpe_variant" names, null
    when undefined; paper-literal also emits both conventions side by side.
    """
    if report.avg_investment > 0:
        return_pct = 100.0 * report.total_profit / report.avg_investment
    else:
        return_pct = 0.0
    ratios = {}
    for variant in (sharpe_variant, SHARPE_SQRT, SHARPE_PAPER_LITERAL):
        value = sharpe(report.round_trip_profits, report.benchmark_move, variant)
        ratios[variant] = None if math.isnan(value) else value
    summary = {
        "total_profit": report.total_profit,
        "num_trades": report.num_trades,
        "num_round_trips": report.num_round_trips,
        "avg_holding_s": report.avg_holding_time,
        "avg_investment": report.avg_investment,
        "return_pct": return_pct,
        "threshold": report.threshold,
        "sharpe": ratios[sharpe_variant],
        "sharpe_defined": ratios[sharpe_variant] is not None,
        "sharpe_variant": sharpe_variant,
    }
    if sharpe_variant == SHARPE_PAPER_LITERAL:
        summary["sharpe_sqrt"] = ratios[SHARPE_SQRT]
        summary["sharpe_paper_literal"] = ratios[SHARPE_PAPER_LITERAL]
    if extra:
        summary.update(extra)
    return summary


SWEEP_HEADER = ("threshold", "num_trades", "avg_holding_s", "avg_profit", "total_profit", "sharpe")
LEDGER_HEADER = ("time", "side", "price", "position_after", "round_trip_profit")


def _write_rows(path, header, rows) -> None:
    """header, then rows of Python values, as csv.writer writes them: a float
    cell is its repr and None is an empty cell."""
    with open_for_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def emit_report(
    report: trader.BacktestReport,
    sweep: Sequence[trader.BacktestReport],
    banks: Sequence[PatternBank],
    out_dir,
    series: PriceSeries,
    sharpe_variant: str = SHARPE_SQRT,
    extra_summary: dict | None = None,
) -> dict[str, str]:
    """Write the report bundle, trades.csv included; returns artifact name -> path.

    series is the backtested one: the equity curve pairs its bucket times
    and prices with report.equity_curve(series), computed for this report
    alone. Serialization is deterministic: identical inputs give identical bytes.
    """
    cum = report.equity_curve(series)
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    files = ("summary.json", "sweep.csv", "equity_curve.csv", "cluster_centers.csv", "trades.csv")
    paths = {os.path.splitext(name)[0]: os.path.join(out_dir, name) for name in files}
    write_json(paths["summary"], summary_dict(report, sharpe_variant, extra_summary))
    _write_rows(paths["sweep"], SWEEP_HEADER, (
        [float(row.threshold), row.num_trades, float(row.avg_holding_time), float(row.avg_profit_per_trade),
         float(row.total_profit), sharpe(row.round_trip_profits, row.benchmark_move, sharpe_variant)]
        for row in sweep))
    with open_for_write(paths["equity_curve"]) as fh:
        columns = (series.bucket_times, series.prices, cum)
        write_float_rows(fh, columns, ("bucket_time", "price", "cum_profit"))
    with open_for_write(paths["cluster_centers"]) as fh:
        for bank in banks:
            write_float_rows(fh, (bank.labels, bank.vectors), lead=f"{bank.window_length},")
    _write_rows(paths["trades"], LEDGER_HEADER, (
        [trade.time, trade.side, float(trade.price), trade.position_after,
         None if trade.round_trip_profit is None else float(trade.round_trip_profit)]
        for trade in report.trades))
    return paths
