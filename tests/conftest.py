import io

import numpy as np
import pytest

from lstrader.market_data import PriceSeries, TickTable, imbalance


def make_ticks(*ticks) -> TickTable:
    """TickTable from (timestamp, price[, bid_total, ask_total]) tuples; totals default to 1."""
    full = [(*tick, 1.0, 1.0)[:4] for tick in ticks]
    ts, prices, bids, asks = np.array(full, dtype=np.float64).reshape(-1, 4).T
    return TickTable(timestamps=ts, prices=prices, imbalances=imbalance(bids, asks))


def series_from_prices(prices, interval: float = 10.0, imbalances=None) -> PriceSeries:
    prices = np.asarray(prices, dtype=np.float64)
    if imbalances is None:
        imbalances = np.zeros_like(prices)
    return PriceSeries(start_time=0.0, interval=interval, prices=prices, imbalances=imbalances)


def tick_csv(rows: str) -> io.StringIO:
    return io.StringIO("timestamp,price,bid_vol_total,ask_vol_total\n" + rows)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
