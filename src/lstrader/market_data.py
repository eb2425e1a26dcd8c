"""Tick-stream parsing and coarsening onto a uniform time grid.

Raw exchange observations arrive as irregularly spaced ticks, each carrying
a trade price and an order-book snapshot. Everything downstream runs on a
gapless fixed-interval grid, so this module parses the tick CSV into a
columnar ``TickTable`` (timestamp, price and order-book imbalance per tick)
and maps ticks onto interval buckets. Each tick lands in the closest
*future* grid point, the last tick inside a bucket wins, and empty buckets
carry the previous bucket's values forward.

Tick CSV schema (header row required, UTF-8, ``.`` decimal separator):

* basic:    ``timestamp,price,bid_vol_total,ask_vol_total``
* extended: ``timestamp,price,bid_price_1,bid_vol_1,...,ask_price_1,ask_vol_1,...``
  with up to 60 levels per side; a level with a blank price and a blank
  volume is absent (at any depth), a level with only one of them blank is
  an error.

Imbalance is (v_bid - v_ask) / (v_bid + v_ask) over all present levels, 0
for an empty book. Prices must be > 0, volumes >= 0, timestamps
non-decreasing, present bid (ask) prices strictly descending (ascending),
and every value finite; a fault raises ValueError naming the line.

``PriceSeries`` serializes to CSV as ``bucket_time,price,imbalance``.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

MAX_BOOK_DEPTH = 60
DEFAULT_INTERVAL = 10.0
MAX_BUCKETS = 10**8  # about 32 years at 10 s; bounds what an absurd timestamp gap can allocate
BLOCK_ROWS = 4096  # rows per bulk float conversion; bounds the tokens held at once

_BASIC_HEADER = ("timestamp", "price", "bid_vol_total", "ask_vol_total")
_SERIES_HEADER = ("bucket_time", "price", "imbalance")


@dataclass(frozen=True)
class TickTable:
    """Ticks in file order as read-only, finite float64 columns."""

    timestamps: np.ndarray
    prices: np.ndarray
    imbalances: np.ndarray

    def __post_init__(self) -> None:
        for name in ("timestamps", "prices", "imbalances"):
            values = np.array(getattr(self, name), dtype=np.float64)
            if values.ndim != 1:
                raise ValueError(f"{name} must be 1-D")
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValueError(f"non-finite {name[:-1]} {values[bad[0]]} at tick {bad[0]}")
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        if not len(self.timestamps) == len(self.prices) == len(self.imbalances):
            raise ValueError("length mismatch between timestamps, prices and imbalances")

    def __len__(self) -> int:
        return len(self.timestamps)


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


def imbalance(bid_total, ask_total) -> np.ndarray:
    """Order-book imbalance (v_bid - v_ask) / (v_bid + v_ask) from the two side totals.

    0 where both sides are empty of volume (neutral signal).
    """
    bid = np.asarray(bid_total, dtype=np.float64)
    ask = np.asarray(ask_total, dtype=np.float64)
    total = bid + ask
    return np.divide(bid - ask, total, out=np.zeros(total.shape), where=total != 0)


def _as_lines(stream) -> Iterable[str]:
    if isinstance(stream, (bytes, bytearray)):
        return io.StringIO(stream.decode("utf-8")).readlines()
    if isinstance(stream, str):
        return io.StringIO(stream).readlines()
    if isinstance(stream, (io.RawIOBase, io.BufferedIOBase)):
        return io.TextIOWrapper(stream, encoding="utf-8")
    return stream  # text file object or any iterable of lines


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


def _layout(cols: tuple[str, ...]):
    """(optional, sides) of a header: per column whether a blank token means an
    absent level, and per book side (side, price columns, volume columns).

    The basic form is a one-level book per side priced at the trade price.
    """
    if cols[:2] != ("timestamp", "price"):
        raise ValueError("line 1: missing tick CSV header (must start with timestamp,price)")
    if len(cols) > 2 and cols[2] != "bid_vol_total":
        n_bid, n_ask = _split_extended_header(list(cols))
        bid, ask = 2 + 2 * np.arange(n_bid), 2 + 2 * n_bid + 2 * np.arange(n_ask)
        return np.arange(len(cols)) >= 2, (("bid", bid, bid + 1), ("ask", ask, ask + 1))
    if cols != _BASIC_HEADER:
        raise ValueError(f"line 1: expected header {','.join(_BASIC_HEADER)}")
    price, bid, ask = np.array([1]), np.array([2]), np.array([3])
    return np.zeros(4, dtype=bool), (("bid", price, bid), ("ask", price, ask))


def _convert(rows: list[list[str]], lines: list[int], names, optional: np.ndarray):
    """(values, blank, error) of a block of rows; blank tokens are NaN.

    One bulk conversion does the work. A block it refuses is converted token
    by token: error then names the first token that is not a number, and
    only the rows before that token's row are returned.
    """
    blank = np.zeros((len(rows), len(names)), dtype=bool)
    filled = list(rows)
    for i, row in enumerate(rows):
        if "" in row:
            blank[i] = [tok == "" for tok in row]
            filled[i] = [tok or "nan" for tok in row]
    if not (blank & ~optional).any():
        try:
            return np.array(filled, dtype=np.float64), blank, None
        except ValueError:
            pass  # a token float() refuses, or a blank that is only whitespace
    values = np.zeros(blank.shape)
    for i, row in enumerate(rows):
        for j, tok in enumerate(row):
            shown = tok.strip() if optional[j] else tok
            blank[i, j] = optional[j] and not shown
            try:
                values[i, j] = np.nan if blank[i, j] else float(tok)
            except ValueError:
                error = ValueError(f"line {lines[i]}: non-numeric {names[j]}: {shown!r}")
                return values[:i], blank[:i], error
    return values, blank, None


def _order_faults(prices: np.ndarray, present: np.ndarray, descending: bool) -> np.ndarray:
    """Rows whose present levels are not strictly ordered; absent levels are skipped.

    Each present level must pass the running extreme of the present levels
    before it, which for an ordered ladder is the previous present level.
    """
    signed = np.where(present, prices if descending else -prices, np.inf)
    ordered = signed[:, 1:] < np.minimum.accumulate(signed, axis=1)[:, :-1]
    return (present[:, 1:] & ~ordered).any(axis=1)


def _reduce_block(rows, lines, names, layout, previous_ts: float):
    """(timestamps, prices, imbalances) of a block of rows that pass every check.

    A fault raises ValueError naming the first faulty line and the first
    check of ``checks`` that line fails.
    """
    optional, sides = layout
    values, blank, error = _convert(rows, lines, names, optional)
    ts, price = values[:, 0], values[:, 1]
    before = np.concatenate([[previous_ts], ts])[:-1]
    bad = ~np.isfinite(values) & ~blank
    volumes = [values[:, vol] for _, _, vol in sides]
    with np.errstate(over="ignore"):  # an overflowing total is a fault checked below
        # level by level, left to right, as sum() adds; a blank (NaN) or faulty
        # negative volume adds 0, so no total is NaN
        bid, ask = (
            functools.reduce(np.add, np.where(v >= 0, v, 0.0).T, np.zeros(len(v))) for v in volumes
        )
        book = bid + ask
    checks = [  # (faulty rows, message for faulty row i)
        (bad.any(axis=1), lambda i: f"non-finite {names[bad[i].argmax()]}: "
         f"{rows[i][bad[i].argmax()].strip()!r}"),
        (ts < before, lambda i: f"timestamp {ts[i]} decreased below {before[i]}"),
    ]
    for side, px, vol in sides:
        half = blank[:, px] != blank[:, vol]
        checks.append((half.any(axis=1), lambda i, s=side, h=half: (
            f"half-empty {s} level {h[i].argmax() + 1}")))
    for (side, px, vol), v in zip(sides, volumes):
        neg, order = v < 0, "descending" if side == "bid" else "ascending"
        checks.append((neg.any(axis=1), lambda i, s=side, v=v, n=neg: (
            f"{s} volume must be >= 0, got {v[i, n[i].argmax()]}")))
        checks.append((_order_faults(values[:, px], ~blank[:, vol], side == "bid"),
                       lambda i, s=side, o=order: f"{s} prices must be strictly {o}"))
    checks.append((~(price > 0), lambda i: f"tick price must be > 0, got {price[i]}"))
    checks.append((~np.isfinite(book), lambda i: (
        f"non-finite book volume total: bid {bid[i]}, ask {ask[i]}")))

    faulty = functools.reduce(np.logical_or, (mask for mask, _ in checks))
    if faulty.any():
        i = faulty.argmax()
        describe = next(describe for mask, describe in checks if mask[i])
        raise ValueError(f"line {lines[i]}: {describe(i)}")
    if error is not None:
        raise error
    return ts, price, imbalance(bid, ask)


def parse_ticks(stream) -> TickTable:
    """Parse a tick CSV stream into a TickTable, in file order.

    Accepts a text or binary file object, a str/bytes blob, or any iterable
    of lines. An empty or header-only stream yields a table of length 0.
    Rows are converted and checked BLOCK_ROWS at a time, each block reduced
    to its three columns before the next is read. A malformed row, a
    non-finite value or a decreasing timestamp raises ValueError naming the
    line.
    """
    reader = csv.reader(_as_lines(stream))
    header = next(reader, None)
    while header is not None and all(tok.strip() == "" for tok in header):
        header = next(reader, None)
    if header is None:
        return TickTable(np.empty(0), np.empty(0), np.empty(0))
    names = tuple(c.strip() for c in header)
    layout = _layout(names)
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    rows: list[list[str]] = []
    lines: list[int] = []

    def reduce_rows() -> None:
        previous_ts = float(parts[-1][0][-1]) if parts else -math.inf
        parts.append(_reduce_block(rows, lines, names, layout, previous_ts))
        rows.clear()
        lines.clear()

    try:
        for row in reader:
            if not row or all(tok.strip() == "" for tok in row):
                continue
            if len(row) != len(names):
                line_num = reader.line_num
                if rows:
                    reduce_rows()  # a fault in an earlier row is reported first
                raise ValueError(f"line {line_num}: expected {len(names)} columns, got {len(row)}")
            rows.append(row)
            lines.append(reader.line_num)
            if len(rows) == BLOCK_ROWS:
                reduce_rows()
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    if rows:
        reduce_rows()
    if not parts:
        return TickTable(np.empty(0), np.empty(0), np.empty(0))
    return TickTable(*(np.concatenate(column) for column in zip(*parts)))


def bucket_index(timestamp: float, interval: float) -> int:
    """Index of the closest future grid point (grid points map to themselves)."""
    return math.ceil(timestamp / interval)


def coarsen(ticks: TickTable, interval: float = DEFAULT_INTERVAL) -> PriceSeries:
    """Map ticks onto a gapless fixed-interval grid.

    Within a bucket the last tick's price and imbalance win; buckets with
    no ticks carry the previous bucket's values forward. A span of more than
    MAX_BUCKETS buckets is refused before anything is allocated.
    """
    if len(ticks) == 0:
        raise ValueError("cannot coarsen an empty tick sequence")
    if not interval > 0:
        raise ValueError("interval must be > 0")
    ts = ticks.timestamps
    if np.any(ts[1:] < ts[:-1]):
        raise ValueError("tick timestamps must be non-decreasing")

    first, last = float(ts[0]), float(ts[-1])
    n = math.inf  # Python float quotients: one too large is inf, not a warning
    if math.isfinite(first / interval) and math.isfinite(last / interval):
        n = bucket_index(last, interval) - bucket_index(first, interval) + 1
    if n > MAX_BUCKETS:
        raise ValueError(
            f"ticks from t={first!r} to t={last!r} span {n} "
            f"buckets of {interval!r} s, more than {MAX_BUCKETS}"
        )
    buckets = np.ceil(ts / interval)  # exact integers, as bucket_index gives
    idx = (buckets - buckets[0]).astype(np.intp)
    last_in_bucket = np.flatnonzero(np.append(idx[1:] != idx[:-1], True))
    prices = np.full(n, np.nan)
    imbalances = np.full(n, np.nan)
    prices[idx[last_in_bucket]] = ticks.prices[last_in_bucket]
    imbalances[idx[last_in_bucket]] = ticks.imbalances[last_in_bucket]

    # forward-fill empty buckets; bucket 0 is always populated by the first tick
    carry = np.maximum.accumulate(np.where(~np.isnan(prices), np.arange(n), 0))
    start_time = bucket_index(first, interval) * interval
    return PriceSeries(start_time, interval, prices[carry], imbalances[carry])
