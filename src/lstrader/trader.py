"""Threshold trading state machine and the causal backtest loop.

Position is held in whole units capped to {-1, 0, +1}. A predicted change
above the threshold buys one unit when flat or short; below the negative
threshold sells one unit when flat or long; anything else holds. Fills are
at the current bucket price with no fees or slippage.

A round trip is a matched entry/exit pair returning the position to flat;
its profit attaches to the closing trade. Any position still open at the
end of a backtest is force-liquidated at the final bucket price and counted
as a final round trip. The backtest is event-driven: only a bucket with
|dp| > threshold can move the position, so ``step`` runs there alone, and
``np.repeat`` fills in the per-bucket mark to market between fills.

The backtest trades a given (ts, dp) stream and knows no model. Imports run
one way, evaluator -> trader -> market_data: the evaluator sweeps and reports.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .market_data import PriceSeries, open_for_write

SIDE_BUY = "buy"
SIDE_SELL = "sell"

LEDGER_HEADER = ("time", "side", "price", "position_after", "round_trip_profit")


@dataclass(frozen=True)
class Position:
    units: int = 0

    def __post_init__(self) -> None:
        if self.units not in (-1, 0, 1):
            raise ValueError(f"position units must be in {{-1, 0, +1}}, got {self.units}")


SHORT, FLAT, LONG = Position(-1), Position(0), Position(1)
_POSITION = {-1: SHORT, 0: FLAT, 1: LONG}  # step moves between these, validated once


@dataclass(frozen=True)
class Trade:
    """One fill. round_trip_profit is set on trades that close a round trip."""

    time: int
    side: str
    price: float
    position_after: int
    round_trip_profit: float | None = None


@dataclass(frozen=True)
class BacktestReport:
    """Full outcome of one backtest: what run_backtest measured, from which
    the counts, the total and the mean profit per round trip follow."""

    threshold: float
    trades: tuple[Trade, ...]
    round_trip_profits: tuple[float, ...]
    cumulative_profit_series: np.ndarray
    avg_holding_time: float  # seconds
    avg_investment: float
    benchmark_move: float  # |end price - start price| over the test interval

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
    def avg_profit_per_trade(self) -> float:
        """Mean profit per round trip; 0 with none."""
        return self.total_profit / self.num_round_trips if self.num_round_trips else 0.0


def step(
    position: Position,
    dp: float,
    threshold: float,
    price: float,
    time: int = 0,
) -> tuple[Position, Trade | None]:
    """One decision: buy above +threshold when short or flat, sell below
    -threshold when long or flat, else hold. Strict inequalities; exactly one
    unit moves per trade."""
    if not threshold > 0:
        raise ValueError("threshold must be > 0")
    if dp > threshold and position.units <= 0:
        new = _POSITION[position.units + 1]
        return new, Trade(time=time, side=SIDE_BUY, price=price, position_after=new.units)
    if dp < -threshold and position.units >= 0:
        new = _POSITION[position.units - 1]
        return new, Trade(time=time, side=SIDE_SELL, price=price, position_after=new.units)
    return position, None


def write_ledger_csv(trades, path) -> None:
    with open_for_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(LEDGER_HEADER)
        for trade in trades:
            profit = "" if trade.round_trip_profit is None else repr(float(trade.round_trip_profit))
            writer.writerow(
                [trade.time, trade.side, repr(float(trade.price)), trade.position_after, profit]
            )


def run_backtest(
    series: PriceSeries, dp_stream: tuple[np.ndarray, np.ndarray], threshold: float
) -> BacktestReport:
    """Simulate the strategy causally over a series at one threshold.

    dp_stream is (ts, dp), as PredictorModel.dp_stream gives it: the
    predicted change into t+1 at each consecutive point t up to bucket n - 2,
    where the state machine acts at the bucket-t price. An open position at
    the series end is liquidated at the final price. The cumulative profit
    series marks each bucket to market as cash + units * price, with the
    cash and units left by the last fill at or before it.
    """
    if not threshold > 0:
        raise ValueError("threshold must be > 0")
    ts, dp = dp_stream
    n = len(series)
    # a first point below 0 would index prices from the end
    if len(ts) == 0 or ts[0] < 0 or ts[-1] != n - 2 or len(ts) != ts[-1] - ts[0] + 1:
        raise ValueError("dp_stream does not cover this series' prediction points")
    if len(dp) != len(ts):
        raise ValueError(f"dp_stream has {len(dp)} predictions for {len(ts)} points")

    dp = np.asarray(dp, dtype=np.float64)
    prices = series.prices
    first_t = int(ts[0])
    signals = first_t + np.flatnonzero(np.abs(dp) > threshold)  # dp ends at bucket n - 2

    fills: list[Trade] = []
    position = FLAT
    events = zip(signals.tolist(), dp[signals - first_t].tolist(), prices[signals].tolist())
    for t, d, price in events:
        position, trade = step(position, d, threshold, price, time=t)
        if trade is not None:
            fills.append(trade)
    if position.units != 0:  # force-liquidate at the final bucket
        side = SIDE_SELL if position.units > 0 else SIDE_BUY
        fills.append(Trade(time=n - 1, side=side, price=float(prices[-1]), position_after=0))

    profits: list[float] = []
    holding_buckets: list[int] = []
    entry_prices: list[float] = []
    for i, trade in enumerate(fills):
        if trade.position_after == 0:  # closes the round trip the fill before opened
            entry = fills[i - 1]
            profit = (1.0 if trade.side == SIDE_SELL else -1.0) * (trade.price - entry.price)
            fills[i] = replace(trade, round_trip_profit=profit)
            profits.append(profit)
            holding_buckets.append(trade.time - entry.time)
            entry_prices.append(entry.price)
    signed = [trade.price if trade.side == SIDE_SELL else -trade.price for trade in fills]
    total_profit = math.fsum(profits)
    if abs(total_profit - math.fsum(signed)) > 1e-9:
        raise AssertionError("ledger conservation violated")  # internal sanity check

    spans = np.diff([first_t] + [trade.time for trade in fills] + [n])
    cash = np.repeat(np.cumsum([0.0] + signed), spans)  # cumsum adds in fill order
    units = np.repeat([0] + [trade.position_after for trade in fills], spans)
    cumulative = np.zeros(n)
    cumulative[first_t:] = cash + units * prices[first_t:]
    cumulative[-1] = total_profit  # flat after liquidation: final mark is realized P&L

    return BacktestReport(
        threshold=float(threshold),
        trades=tuple(fills),
        round_trip_profits=tuple(profits),
        cumulative_profit_series=cumulative,
        avg_holding_time=(
            float(np.mean(holding_buckets) * series.interval) if holding_buckets else 0.0
        ),
        avg_investment=float(np.mean(entry_prices)) if entry_prices else 0.0,
        benchmark_move=abs(float(prices[-1] - prices[0])),
    )
