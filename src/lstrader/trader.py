"""Threshold trading state machine and the causal backtest loop.

Position is held in whole units capped to {-1, 0, +1}: a predicted change
above the threshold buys one unit when flat or short, one below minus the
threshold sells one unit when flat or long, and anything else holds. Fills
are at the bucket price with no fees or slippage. A round trip returns the
position to flat, and its profit attaches to the closing trade; a position
still open at the end is liquidated at the final price, as a last round trip.

Only a bucket with |dp| > threshold can trade, and of a run of such signals
of one sign only the first two (two fills one way take the position from -1
to +1), so ``step`` sees those alone. A backtest keeps its fills, not a
per-bucket curve: ``BacktestReport.equity_curve`` marks them to market for
the one report that is written.

The backtest trades a given (ts, dp) stream; it knows no model and writes no
file. Imports run one way, evaluator -> trader -> market_data: the evaluator
sweeps, and writes the report, trades.csv included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .market_data import PriceSeries

SIDE_BUY = "buy"
SIDE_SELL = "sell"


@dataclass(frozen=True)
class Position:
    units: int = 0

    def __post_init__(self) -> None:
        if self.units not in (-1, 0, 1):
            raise ValueError(f"position units must be in {{-1, 0, +1}}, got {self.units}")


FLAT = Position(0)


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
    buckets: int  # length of the backtested series
    avg_holding_time: float  # seconds
    avg_investment: float
    benchmark_move: float  # |end price - start price| over the test interval

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

    def equity_curve(self, series: PriceSeries) -> np.ndarray:
        """Cumulative profit at each bucket of the backtested series: cash +
        units * price as the last fill at or before the bucket left them, 0.0
        before the first fill, and the realized total at the last bucket."""
        if len(series) != self.buckets:
            raise ValueError(f"series has {len(series)} buckets, the backtest {self.buckets}")
        signed = [trade.price if trade.side == SIDE_SELL else -trade.price for trade in self.trades]
        spans = np.diff([0] + [trade.time for trade in self.trades] + [self.buckets])
        cash = np.repeat(np.cumsum([0.0] + signed), spans)  # cumsum adds in fill order
        units = np.repeat([0] + [trade.position_after for trade in self.trades], spans)
        curve = cash + units * series.prices
        curve[-1] = self.total_profit
        return curve


def step(
    position: Position,
    dp: float,
    threshold: float,
    price: float,
    time: int = 0,
) -> tuple[Position, Trade | None]:
    """One decision: buy above +threshold when short or flat, sell below
    -threshold when long or flat, else hold. Strict inequalities; exactly one
    unit moves per trade. A non-finite dp is refused, not traded."""
    if not threshold > 0:
        raise ValueError("threshold must be > 0")
    if not math.isfinite(dp):
        raise ValueError(f"dp must be finite, got {dp}")
    if dp > threshold and position.units <= 0:
        new = Position(position.units + 1)
        return new, Trade(time=time, side=SIDE_BUY, price=price, position_after=new.units)
    if dp < -threshold and position.units >= 0:
        new = Position(position.units - 1)
        return new, Trade(time=time, side=SIDE_SELL, price=price, position_after=new.units)
    return position, None


def run_backtest(
    series: PriceSeries, dp_stream: tuple[np.ndarray, np.ndarray], threshold: float
) -> BacktestReport:
    """Simulate the strategy causally over a series at one threshold.

    dp_stream is (ts, dp), as PredictorModel.dp_stream gives it: the
    predicted change into t+1 at each consecutive point t up to bucket n - 2,
    where the state machine acts at the bucket-t price. An open position at
    the series end is liquidated at the final price; a non-finite dp is refused.
    """
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError("threshold must be finite and > 0")
    ts, dp = dp_stream
    n = len(series)
    # a first point below 0 would index prices from the end
    if np.ndim(ts) != 1 or len(ts) == 0 or ts[0] < 0 or ts[-1] != n - 2 or (np.diff(ts) != 1).any():
        raise ValueError("dp_stream does not cover this series' prediction points")
    if len(dp) != len(ts):
        raise ValueError(f"dp_stream has {len(dp)} predictions for {len(ts)} points")

    dp = np.asarray(dp, dtype=np.float64)
    finite = np.isfinite(dp)
    if not finite.all():
        raise ValueError(f"dp_stream has a non-finite prediction at t={int(ts[finite.argmin()])}")
    prices = series.prices
    first_t = int(ts[0])
    hits = np.flatnonzero(np.abs(dp) > threshold)  # dp ends at bucket n - 2
    up = dp[hits] > 0
    # a run of signals of one sign moves the position at most twice: from its third on, it holds
    held = 2 + np.flatnonzero((up[2:] == up[1:-1]) & (up[1:-1] == up[:-2]))
    signals = first_t + np.delete(hits, held)

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

    return BacktestReport(
        threshold=float(threshold),
        trades=tuple(fills),
        round_trip_profits=tuple(profits),
        buckets=n,
        avg_holding_time=(
            float(np.mean(holding_buckets) * series.interval) if holding_buckets else 0.0
        ),
        avg_investment=float(np.mean(entry_prices)) if entry_prices else 0.0,
        benchmark_move=abs(float(prices[-1] - prices[0])),
    )
