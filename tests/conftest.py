import contextlib
import pathlib
import tempfile

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


def write_csv(directory, text: str, name: str = "ticks.csv") -> pathlib.Path:
    """The path of a file ``name`` in directory, holding text as given (no newline translation)."""
    path = pathlib.Path(directory) / name
    path.write_text(text, encoding="utf-8", newline="")
    return path


def tick_csv(directory, rows: str) -> pathlib.Path:
    """The path of a basic-form tick CSV of the given rows, written in directory."""
    return write_csv(directory, "timestamp,price,bid_vol_total,ask_vol_total\n" + rows)


@contextlib.contextmanager
def temp_csv(text: str):
    """The path of a temporary file holding text as given, removed on exit. For
    Hypothesis tests: a function-scoped tmp_path fails its health check."""
    with tempfile.TemporaryDirectory() as directory:
        yield write_csv(directory, text)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
