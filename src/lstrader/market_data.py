"""Tick-stream parsing and coarsening onto a uniform time grid.

Raw exchange observations arrive as irregularly spaced ticks, each carrying
a trade price and an order-book snapshot. Everything downstream runs on a
gapless fixed-interval grid, so this module does three things: parse the
tick CSV, compute the order-book imbalance feature, and map ticks onto
interval buckets. Each tick lands in the closest *future* grid point, the
last tick inside a bucket wins, and empty buckets carry the previous
bucket's values forward.

Tick CSV schema (header row required, UTF-8, ``.`` decimal separator):

* basic:    ``timestamp,price,bid_vol_total,ask_vol_total``
* extended: ``timestamp,price,bid_price_1,bid_vol_1,...,ask_price_1,ask_vol_1,...``
  with up to 60 levels per side; a trailing level may be left blank.

The basic form collapses each book side to a single level holding the
total volume (the trade price is used as the level price placeholder).

``PriceSeries`` serializes to CSV as ``bucket_time,price,imbalance``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

Level = tuple[float, float]  # (price, volume)

MAX_BOOK_DEPTH = 60
DEFAULT_INTERVAL = 10.0
MAX_BUCKETS = 10**8  # about 32 years at 10 s; bounds what an absurd timestamp gap can allocate

_BASIC_HEADER = ("timestamp", "price", "bid_vol_total", "ask_vol_total")
_SERIES_HEADER = ("bucket_time", "price", "imbalance")


@dataclass(frozen=True)
class BookSnapshot:
    """Order-book volume ladder, up to 60 levels per side.

    Bids are sorted by strictly descending price, asks by strictly
    ascending price. Volumes are non-negative.
    """

    bids: tuple[Level, ...] = ()
    asks: tuple[Level, ...] = ()

    def __post_init__(self) -> None:
        for side, levels, descending in (
            ("bid", self.bids, True),
            ("ask", self.asks, False),
        ):
            if len(levels) > MAX_BOOK_DEPTH:
                raise ValueError(f"{side} depth {len(levels)} exceeds {MAX_BOOK_DEPTH}")
            for _, volume in levels:
                if volume < 0:
                    raise ValueError(f"{side} volume must be >= 0, got {volume}")
            prices = [price for price, _ in levels]
            for earlier, later in zip(prices, prices[1:]):
                if descending and not later < earlier:
                    raise ValueError("bid prices must be strictly descending")
                if not descending and not later > earlier:
                    raise ValueError("ask prices must be strictly ascending")


@dataclass(frozen=True)
class TickRecord:
    """One raw exchange observation: trade price plus book snapshot."""

    timestamp: float
    price: float
    book: BookSnapshot

    def __post_init__(self) -> None:
        if not self.price > 0:
            raise ValueError(f"tick price must be > 0, got {self.price}")

    @property
    def bid_volumes(self) -> tuple[Level, ...]:
        return self.book.bids

    @property
    def ask_volumes(self) -> tuple[Level, ...]:
        return self.book.asks


@dataclass(frozen=True)
class PriceSeries:
    """Gapless fixed-interval price grid with aligned imbalance values."""

    start_time: float
    interval: float
    prices: np.ndarray
    imbalances: np.ndarray

    def __post_init__(self) -> None:
        prices = np.ascontiguousarray(self.prices, dtype=np.float64)
        imbalances = np.ascontiguousarray(self.imbalances, dtype=np.float64)
        if prices.ndim != 1 or imbalances.ndim != 1:
            raise ValueError("prices and imbalances must be 1-D")
        if len(prices) != len(imbalances):
            raise ValueError(
                f"length mismatch: {len(prices)} prices vs {len(imbalances)} imbalances"
            )
        if len(prices) == 0:
            raise ValueError("PriceSeries cannot be empty")
        if not self.interval > 0:
            raise ValueError("interval must be > 0")
        for name, values in (("price", prices), ("imbalance", imbalances)):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValueError(f"non-finite {name} {values[bad[0]]} at bucket {bad[0]}")
        prices.setflags(write=False)
        imbalances.setflags(write=False)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "imbalances", imbalances)

    def __len__(self) -> int:
        return len(self.prices)

    @property
    def bucket_times(self) -> np.ndarray:
        return self.start_time + self.interval * np.arange(len(self.prices))

    def slice(self, start: int, stop: int) -> "PriceSeries":
        """Contiguous sub-series over bucket indices [start, stop)."""
        if not 0 <= start < stop <= len(self):
            raise ValueError(f"invalid slice [{start}, {stop}) of {len(self)} buckets")
        return PriceSeries(
            start_time=self.start_time + start * self.interval,
            interval=self.interval,
            prices=self.prices[start:stop].copy(),
            imbalances=self.imbalances[start:stop].copy(),
        )

    def to_csv(self, path) -> None:
        try:
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(_SERIES_HEADER)
                for t, p, r in zip(self.bucket_times, self.prices, self.imbalances):
                    writer.writerow([repr(float(t)), repr(float(p)), repr(float(r))])
        except OSError as exc:
            raise OSError(f"failed writing price series to {path}: {exc}") from exc

    @classmethod
    def from_csv(cls, path, default_interval: float = DEFAULT_INTERVAL) -> "PriceSeries":
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != _SERIES_HEADER:
                raise ValueError(f"{path}: expected header {','.join(_SERIES_HEADER)}")
            times, prices, imbalances = [], [], []
            for row in reader:
                if not row:
                    continue
                if len(row) != 3:
                    raise ValueError(f"{path} line {reader.line_num}: expected 3 columns")
                t, p, r = float(row[0]), float(row[1]), float(row[2])
                if not (math.isfinite(t) and math.isfinite(p) and math.isfinite(r)):
                    raise ValueError(f"{path} line {reader.line_num}: non-finite value in {row}")
                times.append(t)
                prices.append(p)
                imbalances.append(r)
        if not times:
            raise ValueError(f"{path}: empty price series")
        if len(times) > 1:
            steps = np.diff(times)
            interval = float(steps[0])
            if not np.allclose(steps, interval, rtol=0, atol=1e-9):
                raise ValueError(f"{path}: bucket times are not uniformly spaced")
        else:
            interval = default_interval
        return cls(
            start_time=times[0],
            interval=interval,
            prices=np.array(prices),
            imbalances=np.array(imbalances),
        )


def imbalance(book: BookSnapshot, depth: int = MAX_BOOK_DEPTH) -> float:
    """Order-book imbalance (v_bid - v_ask) / (v_bid + v_ask) over top levels.

    Returns 0.0 when both sides are empty of volume (neutral signal).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    v_bid = sum(volume for _, volume in book.bids[:depth])
    v_ask = sum(volume for _, volume in book.asks[:depth])
    total = v_bid + v_ask
    if total == 0:
        return 0.0
    return (v_bid - v_ask) / total


def _as_lines(stream) -> Iterable[str]:
    if isinstance(stream, (bytes, bytearray)):
        return io.StringIO(stream.decode("utf-8")).readlines()
    if isinstance(stream, str):
        return io.StringIO(stream).readlines()
    if isinstance(stream, (io.RawIOBase, io.BufferedIOBase)):
        return io.TextIOWrapper(stream, encoding="utf-8")
    return stream  # text file object or any iterable of lines


def _parse_float(token: str, what: str, line_num: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"line {line_num}: non-numeric {what}: {token!r}") from None


def _split_extended_header(header: list[str]) -> tuple[int, int]:
    """Validate the extended header and return (bid levels, ask levels)."""
    cols = [c.strip() for c in header]
    idx = 2
    n_bid = 0
    while idx + 1 < len(cols) and cols[idx] == f"bid_price_{n_bid + 1}":
        if cols[idx + 1] != f"bid_vol_{n_bid + 1}":
            raise ValueError(f"line 1: expected bid_vol_{n_bid + 1}, got {cols[idx + 1]!r}")
        n_bid += 1
        idx += 2
    n_ask = 0
    while idx + 1 < len(cols) and cols[idx] == f"ask_price_{n_ask + 1}":
        if cols[idx + 1] != f"ask_vol_{n_ask + 1}":
            raise ValueError(f"line 1: expected ask_vol_{n_ask + 1}, got {cols[idx + 1]!r}")
        n_ask += 1
        idx += 2
    if idx != len(cols):
        raise ValueError(f"line 1: unrecognized tick CSV column {cols[idx]!r}")
    if n_bid == 0 and n_ask == 0:
        raise ValueError("line 1: extended tick CSV header has no book levels")
    if n_bid > MAX_BOOK_DEPTH or n_ask > MAX_BOOK_DEPTH:
        raise ValueError(f"line 1: book depth exceeds {MAX_BOOK_DEPTH}")
    return n_bid, n_ask


def _parse_levels(
    row: list[str], offset: int, count: int, side: str, line_num: int
) -> tuple[Level, ...]:
    levels: list[Level] = []
    for i in range(count):
        price_tok = row[offset + 2 * i].strip()
        vol_tok = row[offset + 2 * i + 1].strip()
        if price_tok == "" and vol_tok == "":
            continue  # absent level
        if price_tok == "" or vol_tok == "":
            raise ValueError(f"line {line_num}: half-empty {side} level {i + 1}")
        levels.append(
            (
                _parse_float(price_tok, f"{side}_price_{i + 1}", line_num),
                _parse_float(vol_tok, f"{side}_vol_{i + 1}", line_num),
            )
        )
    return tuple(levels)


def parse_ticks(stream) -> list[TickRecord]:
    """Parse a tick CSV stream into records, in file order.

    Accepts a text or binary file object, a str/bytes blob, or any iterable
    of lines. An entirely empty stream yields an empty list. Malformed rows
    and decreasing timestamps raise ValueError naming the offending line.
    """
    reader = csv.reader(_as_lines(stream))
    header = next(reader, None)
    while header is not None and all(tok.strip() == "" for tok in header):
        header = next(reader, None)
    if header is None:
        return []
    cols = tuple(c.strip() for c in header)
    if cols[:2] != ("timestamp", "price"):
        raise ValueError("line 1: missing tick CSV header (must start with timestamp,price)")
    extended = len(cols) > 2 and cols[2] != "bid_vol_total"
    if extended:
        n_bid, n_ask = _split_extended_header(list(cols))
        expected_len = 2 + 2 * (n_bid + n_ask)
    else:
        if cols != _BASIC_HEADER:
            raise ValueError(f"line 1: expected header {','.join(_BASIC_HEADER)}")
        expected_len = 4

    ticks: list[TickRecord] = []
    previous_ts: float | None = None
    for row in reader:
        line_num = reader.line_num
        if not row or all(tok.strip() == "" for tok in row):
            continue
        if len(row) != expected_len:
            raise ValueError(
                f"line {line_num}: expected {expected_len} columns, got {len(row)}"
            )
        timestamp = _parse_float(row[0], "timestamp", line_num)
        price = _parse_float(row[1], "price", line_num)
        if previous_ts is not None and timestamp < previous_ts:
            raise ValueError(
                f"line {line_num}: timestamp {timestamp} decreased below {previous_ts}"
            )
        previous_ts = timestamp
        try:
            if extended:
                book = BookSnapshot(
                    bids=_parse_levels(row, 2, n_bid, "bid", line_num),
                    asks=_parse_levels(row, 2 + 2 * n_bid, n_ask, "ask", line_num),
                )
            else:
                bid_total = _parse_float(row[2], "bid_vol_total", line_num)
                ask_total = _parse_float(row[3], "ask_vol_total", line_num)
                book = BookSnapshot(bids=((price, bid_total),), asks=((price, ask_total),))
            ticks.append(TickRecord(timestamp=timestamp, price=price, book=book))
        except ValueError as exc:
            msg = str(exc)
            raise ValueError(msg if msg.startswith("line ") else f"line {line_num}: {msg}") from None
    return ticks


def bucket_index(timestamp: float, interval: float) -> int:
    """Index of the closest future grid point (grid points map to themselves)."""
    return math.ceil(timestamp / interval)


def coarsen(ticks: list[TickRecord], interval: float = DEFAULT_INTERVAL) -> PriceSeries:
    """Map ticks onto a gapless fixed-interval grid.

    Within a bucket the last tick's price and imbalance win; buckets with
    no ticks carry the previous bucket's values forward. A span of more than
    MAX_BUCKETS buckets is refused before anything is allocated.
    """
    if not ticks:
        raise ValueError("cannot coarsen an empty tick sequence")
    if not interval > 0:
        raise ValueError("interval must be > 0")
    for earlier, later in zip(ticks, ticks[1:]):
        if later.timestamp < earlier.timestamp:
            raise ValueError("tick timestamps must be non-decreasing")

    first_bucket = bucket_index(ticks[0].timestamp, interval)
    last_bucket = bucket_index(ticks[-1].timestamp, interval)
    n = last_bucket - first_bucket + 1
    if n > MAX_BUCKETS:
        raise ValueError(
            f"ticks from t={ticks[0].timestamp!r} to t={ticks[-1].timestamp!r} span {n} "
            f"buckets of {interval!r} s, more than {MAX_BUCKETS}"
        )
    prices = np.full(n, np.nan)
    imbalances = np.full(n, np.nan)

    for tick in ticks:
        idx = bucket_index(tick.timestamp, interval) - first_bucket
        prices[idx] = tick.price
        imbalances[idx] = imbalance(tick.book)

    # forward-fill empty buckets; bucket 0 is always populated by the first tick
    filled = ~np.isnan(prices)
    carry = np.maximum.accumulate(np.where(filled, np.arange(n), 0))
    prices = prices[carry]
    imbalances = imbalances[carry]

    return PriceSeries(
        start_time=first_bucket * interval,
        interval=interval,
        prices=prices,
        imbalances=imbalances,
    )
