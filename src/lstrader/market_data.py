"""Tick-stream parsing and coarsening onto a uniform time grid.

Raw ticks are parsed into a columnar ``TickTable`` and mapped onto a gapless
fixed-interval ``PriceSeries``. README.md ("How it works", step 1, and "File
formats") sets out the formats, the checks, the grid mapping and the block rules
of both readers (``_value_blocks``, via ``_csv_file``) and of ``write_float_rows``.

Every module opens its files through ``open_text`` and ``open_for_write``,
and reads and writes JSON through ``read_json`` and ``write_json``, whose
value rules are ``require_fields`` and ``json_floats``. A ValueError raised
while ``open_text`` holds a file open names that file.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

MAX_BOOK_DEPTH = 60
DEFAULT_INTERVAL = 10.0
MAX_BUCKETS = 10**8  # about 32 years at 10 s; bounds what an absurd timestamp gap can allocate
BLOCK_ROWS = 4096  # most rows per bulk float conversion
# a block takes no more lines once they hold this much text (512 KiB). A block costs
# about 3x its text to hold on the plain path and 9x on the csv path (a str per token).
# 2 MiB blocks read no faster; below 512 KiB a plain file's peak falls by under 0.2 MiB.
BLOCK_CHARS = 2**19
_READ_LINES = 64  # lines of a block's first read, which sizes the next
# float cells per joined write, whatever the row width: 512 rows of a 3-column series
# (4096 left ~2 MiB of freed floats and strings resident), 2 rows of a 720-bucket bank
WRITE_CELLS = 1536

_BASIC_HEADER = ("timestamp", "price", "bid_vol_total", "ask_vol_total")
_MAX_TICK_COLUMNS = 2 + 4 * MAX_BOOK_DEPTH  # the widest tick header: a price and a volume per level
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
        start, step = float(self.start_time), float(self.interval)
        if not all(map(math.isfinite, (start, step, start + step * (len(prices) - 1)))):  # the last bucket time
            raise ValueError(f"bucket times must be finite: {start!r} + {step!r} * i")
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
        with open_for_write(path) as fh:
            write_float_rows(fh, (self.bucket_times, self.prices, self.imbalances), _SERIES_HEADER)

    @classmethod
    def from_csv(cls, path) -> "PriceSeries":
        """Read a series CSV (see ``_value_blocks``); a fault raises ValueError naming file and line."""
        with _csv_file(path, len(_SERIES_HEADER), False) as (header, blocks):
            if header is None or tuple(h.strip() for h in header) != _SERIES_HEADER:
                raise ValueError(f"expected header {','.join(_SERIES_HEADER)}")
            parts = []
            for values, _, lines, rows in blocks(_SERIES_HEADER, np.zeros(3, dtype=bool)):
                bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
                if bad.size:
                    raise ValueError(f"line {lines[bad[0]]}: non-finite value in {rows[bad[0]]}")
                parts.append(values)
            if not parts:
                raise ValueError("empty price series")
            times, prices, imbalances = np.concatenate(parts).T
            interval = float(times[1] - times[0]) if len(times) > 1 else DEFAULT_INTERVAL
            if not np.allclose(np.diff(times), interval, rtol=0, atol=1e-9):
                raise ValueError("bucket times are not uniformly spaced")
            if not interval > 0:
                raise ValueError(f"bucket times must increase, got a step of {interval!r}")
            return cls(float(times[0]), interval, prices, imbalances)


@contextlib.contextmanager
def open_text(path, newline=None):
    """path opened to read UTF-8 text. A ValueError raised while it is open is
    raised again as "<path>: <message>"; a byte that is not UTF-8 reads
    "<path>: not UTF-8 text (<reason>)"."""
    with open(path, "r", newline=newline, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


@contextlib.contextmanager
def open_for_write(path):
    """path opened to write UTF-8 text as given (no newline translation); an
    OSError from opening, writing or closing it raises OSError naming it."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc


def read_json(path, parse):
    """parse(the JSON value of the file at path). Malformed JSON (with its line and
    column), text that is not UTF-8 or a ValueError from parse raises ValueError naming the file."""
    with open_text(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
        return parse(data)


def write_json(path, data) -> None:
    """data as a JSON file: indent 2, sorted keys and a closing newline. A
    non-finite float raises ValueError: strict JSON has no token for it."""
    with open_for_write(path) as fh:
        json.dump(data, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def require_fields(data, fields, what: str) -> None:
    """Raise ValueError unless data is a dict holding each (key, type,
    description) of fields, naming the first field missing or mistyped. A
    boolean is taken only where the type asked for is bool, so it is not a number."""
    for key, kind, name in fields:
        value = data.get(key) if isinstance(data, dict) else None
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ValueError(f"{what} needs {name} {key!r}")


_JSON_NUMBER = frozenset((int, float, type(None)))  # the types json.load gives a number or null


def json_floats(values, what: str, field: str) -> np.ndarray:
    """A JSON list of numbers, or a list of equal-length such lists, as
    float64 (null reads as NaN, for the caller's finite check). A string, a
    boolean, a ragged list or an integer past float64's range raises
    ValueError "<what> must be numbers: <field> holds ..."."""
    cells = np.array(values, dtype=object).ravel()
    try:
        if set(map(type, cells)) <= _JSON_NUMBER:
            return np.array(values, dtype=np.float64)
    except OverflowError:
        pass
    kind = next((f"a {type(v).__name__}" for v in cells if type(v) not in _JSON_NUMBER),
                "an integer past float64's range")
    raise ValueError(f"{what} must be numbers: {field} holds {kind}")


def write_float_rows(fh, columns, header: Iterable[str] = (), lead: str = "") -> None:
    """CSV rows of equal-length float64 columns (1-D, or 2-D for several), each led by
    ``lead``: csv.writer's bytes for repr(float(x)) cells, joined as many whole rows
    at a time as fit in WRITE_CELLS (at least one). A block calls repr once per distinct
    bit pattern, not per cell; bits, not float equality, tell values apart, so -0.0 and
    0.0 keep their own cells."""
    if header:
        fh.write(",".join(header) + "\r\n")
    step = max(1, WRITE_CELLS // sum(math.prod(np.shape(c)[1:]) for c in columns))
    for start in range(0, len(columns[0]), step):
        block = np.column_stack([c[start : start + step] for c in columns])
        # return_index makes np.unique argsort with mergesort, which pages in less
        # sort code than its default quicksort: the same cells at a lower peak
        bits, _, cell = np.unique(block.view(np.uint64), return_index=True, return_inverse=True)
        text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
        rows = text[cell.reshape(block.shape)].tolist()
        fh.write("".join(f"{lead}{','.join(row)}\r\n" for row in rows))


def imbalance(bid_total, ask_total) -> np.ndarray:
    """Order-book imbalance (v_bid - v_ask) / (v_bid + v_ask) from the two side totals.

    0 where both sides are empty of volume (neutral signal).
    """
    bid = np.asarray(bid_total, dtype=np.float64)
    ask = np.asarray(ask_total, dtype=np.float64)
    total = bid + ask
    return np.divide(bid - ask, total, out=np.zeros(total.shape), where=total != 0)


def _layout(cols: tuple[str, ...]):
    """(optional, sides) of a stripped tick header: per column whether a blank
    token means an absent level, and per book side (side, price columns, volume
    columns), the columns as slices, so that selecting them from a block makes
    no copy. A header of neither form raises ValueError naming line 1.

    The basic form is a one-level book per side priced at the trade price.
    """
    if cols[:2] != ("timestamp", "price"):
        raise ValueError("line 1: missing tick CSV header (must start with timestamp,price)")
    if len(cols) == 2 or cols[2] == "bid_vol_total":
        if cols != _BASIC_HEADER:
            raise ValueError(f"line 1: expected header {','.join(_BASIC_HEADER)}")
        price = slice(1, 2)
        return np.zeros(4, dtype=bool), (("bid", price, slice(2, 3)), ("ask", price, slice(3, 4)))
    idx, levels = 2, []
    for side in ("bid", "ask"):
        n = 0
        while idx + 1 < len(cols) and cols[idx] == f"{side}_price_{n + 1}":
            if cols[idx + 1] != f"{side}_vol_{n + 1}":
                raise ValueError(f"line 1: expected {side}_vol_{n + 1}, got {cols[idx + 1]!r}")
            n, idx = n + 1, idx + 2
        levels.append(n)
    if idx != len(cols):
        raise ValueError(f"line 1: unrecognized tick CSV column {cols[idx]!r}")
    if max(levels) > MAX_BOOK_DEPTH:
        raise ValueError(f"line 1: book depth exceeds {MAX_BOOK_DEPTH}")
    ask = 2 + 2 * levels[0]
    return np.arange(len(cols)) >= 2, (
        ("bid", slice(2, ask, 2), slice(3, ask, 2)),
        ("ask", slice(ask, len(cols), 2), slice(ask + 1, len(cols), 2)),
    )


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


def _reduce_block(values, blank, lines, rows, names, sides, previous_ts: float):
    """(timestamps, prices, imbalances) of a block of values (blanks NaN) that pass every check.

    A fault raises ValueError naming the first faulty line and the first
    check of ``checks`` that line fails; only a non-finite token reads ``rows``.
    """
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
    return ts.copy(), price.copy(), imbalance(bid, ask)  # owned: the block's values can go


def _plain_block(chunk: list[str], optional: np.ndarray):
    """(values, blank) of lines csv.reader splits at every comma, or None. Lines fit
    csv's field limit and hold a comma, no n or N (a NaN is an optional blank), no
    \\x1c-\\x1f, which loadtxt strips and float() refuses, and no quote, which loadtxt
    would refuse only after parsing the lines before it; loadtxt refuses what else it
    and float() read apart: 1_0, a non-ASCII digit, a \\r inside a line."""
    if (max(map(len, chunk)) > csv.field_size_limit()
            or not all(map(operator.contains, chunk, itertools.repeat(",")))  # a row, not an empty line
            or any(map("".join(chunk).__contains__, '"nN\x1c\x1d\x1e\x1f'))):  # one joined copy, freed here
        return None
    if optional.any():  # a leading blank is in the required first column: loadtxt refuses it
        chunk = [line.replace(",,", ",nan,").replace(",,", ",nan,").replace(",\n", ",nan\n")
                 .replace(",\r", ",nan\r") if ",," in line or line.endswith((",\n", ",\r\n", ",\r")) else line
                 for line in chunk]
    try:
        values = np.loadtxt(chunk, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    blank = np.isnan(values)
    if values.shape != (len(chunk), len(optional)) or (blank & ~optional).any() or np.isinf(values).any():
        return None
    return values, blank


def _line_block(fh) -> list[str]:
    """The next BLOCK_ROWS lines of fh, or fewer once they hold about
    BLOCK_CHARS characters; every line whole. Past the first _READ_LINES
    lines, each read is sized by the mean line length so far, so a file of
    short lines takes two reads a block."""
    chunk = list(itertools.islice(fh, min(_READ_LINES, BLOCK_ROWS)))
    chars = sum(map(len, chunk))
    while chunk and len(chunk) < BLOCK_ROWS and chars < BLOCK_CHARS:
        fits = -(-(BLOCK_CHARS - chars) * len(chunk) // max(chars, 1))  # lines of the mean length
        part = list(itertools.islice(fh, min(BLOCK_ROWS - len(chunk), fits)))
        if not part:
            break
        chunk += part
        if len(chunk) < BLOCK_ROWS:  # a block full of rows needs no count
            chars += sum(map(len, part))
    return chunk


class _CappedLines:
    """The lines of a text file, read in pieces of ``2 * limit + 3``
    characters (limit: csv's field limit) and cut as README step 1 sets out:
    a piece with no comma and no line end, or a line of ``width`` pieces and
    2 characters, ends the stream with a field over the limit, which
    csv.reader refuses at that line without it being held whole. A field
    within the limit takes at most 2 * limit + 2 characters (each a doubled
    quote, plus two quotes). ``width`` may change between lines (a reader
    sets its header's). A \\r ends a line, as in the newline="" file
    ``_csv_file`` opens; after a full piece ending in \\r one piece is read
    ahead, which may be that line end's \\n.
    """

    def __init__(self, fh, width: int):
        self.width = width
        self._lines = self._capped(fh)

    def __iter__(self) -> Iterator[str]:
        return self._lines

    def _capped(self, fh) -> Iterator[str]:
        limit = csv.field_size_limit()
        size, over = 2 * limit + 3, "x" * (limit + 1)
        readline = fh.readline
        piece = readline(size)
        while piece:
            if len(piece) < size:  # the whole line, as nearly every line is
                yield piece
                piece = readline(size)
                continue
            parts, chars, carry = [piece], size, None
            cap = self.width * size + 2
            while chars < cap and len(piece) == size and not piece.endswith("\n"):
                if not any(map(piece.__contains__, ",\r\n")):
                    yield "".join(parts[:-1]) + over  # the piece lies inside one field
                    return
                piece = readline(size)
                if parts[-1].endswith("\r") and piece != "\n":
                    carry = piece  # that \r ended the line: piece begins the next
                    break
                parts.append(piece)
                chars += len(piece)
            if chars >= cap:
                yield over
                return
            yield "".join(parts)
            piece = readline(size) if carry is None else carry


def _csv_block(chunk: list[str], fh, names, optional: np.ndarray, skip_blank: bool, line_num: int):
    """(lines read, fault, block) of csv.reader over the lines of ``chunk``, numbered
    from ``line_num + 1``, read on from ``fh`` only to end a row a quote carries past
    them. block is (values, blank, line numbers, rows) by ``_convert``, empty and (with
    skip_blank) all-whitespace rows skipped, or None if no row is left. fault is None
    or the ValueError of the block's first fault, naming its line."""
    reader = csv.reader(itertools.chain(chunk, fh))
    rows: list[list[str]] = []
    lines: list[int] = []
    fault = None
    try:
        for row in reader:
            if row and not (skip_blank and all(tok.strip() == "" for tok in row)):
                if len(row) != len(names):
                    fault = f"expected {len(names)} columns, got {len(row)}"
                    break
                rows.append(row)
                lines.append(line_num + reader.line_num)
            if reader.line_num >= len(chunk):
                break
    except csv.Error as exc:
        fault = str(exc)
    if fault is not None:
        fault = ValueError(f"line {line_num + reader.line_num}: {fault}")
    if not rows:
        return reader.line_num, fault, None
    values, blank, error = _convert(rows, lines, names, optional)
    return reader.line_num, error or fault, (values, blank, lines, rows)  # error's row comes first


def _value_blocks(fh, names, optional: np.ndarray, skip_blank: bool, line_num: int):
    """(values, blank, line numbers, rows) blocks of the lines of ``fh`` after its
    line ``line_num``, blanks NaN, one per ``_line_block`` by the rule of README
    step 1: a ``_plain_block`` (rows None) or else a ``_csv_block``, whose fault
    raises once its block's earlier rows are checked. A block is let go of
    before the next is read; a caller that keeps no view of it holds one block
    at a time. ``fh`` is the reader's ``_CappedLines``."""
    while chunk := _line_block(fh):
        plain = _plain_block(chunk, optional)
        if plain is not None:
            n, chunk = len(chunk), None  # let the lines go before the next block is read
            yield *plain, range(line_num + 1, line_num + n + 1), None
            del plain  # nor hold this block's values while the next is parsed
        else:
            n, fault, block = _csv_block(chunk, fh, names, optional, skip_blank, line_num)
            chunk = None
            if block is not None:
                yield block
                block[3].clear()  # in place: the caller's name for the rows lets go of them too
                del block
            if fault is not None:
                raise fault
        line_num += n


@contextlib.contextmanager
def _csv_file(path, width: int, skip_blank: bool):
    """(header, blocks) of the CSV file at path, open while the with block runs,
    so that a ValueError raised in it names the file (``open_text``). header is
    the first row (with skip_blank, the first holding a non-blank token) or None;
    blocks(names, optional) gives the ``_value_blocks`` of the lines after it.
    Lines come through ``_CappedLines``, ``width`` fields wide for the header
    and ``len(names)`` after it."""
    with open_text(path, newline="") as fh:
        lines = _CappedLines(fh, width)
        reader = csv.reader(lines)
        try:
            header = next((row for row in reader if not skip_blank or any(tok.strip() for tok in row)), None)
        except csv.Error as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None

        def blocks(names, optional):
            lines.width = len(names)
            return _value_blocks(lines, names, optional, skip_blank, reader.line_num)

        yield header, blocks


def parse_ticks(path) -> TickTable:
    """The ticks of the tick CSV file at path as a TickTable, in file order.

    An empty or header-only file yields a table of length 0. Each block is
    reduced to three owned columns before the next is read (README step 1).
    A fault raises ValueError naming the file and line.
    """
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    with _csv_file(path, _MAX_TICK_COLUMNS, True) as (header, blocks):
        if header is not None:
            names = tuple(c.strip() for c in header)
            optional, sides = _layout(names)
            for values, blank, line_nums, rows in blocks(names, optional):
                previous_ts = float(parts[-1][0][-1]) if parts else -math.inf
                parts.append(_reduce_block(values, blank, line_nums, rows, names, sides, previous_ts))
                del values, blank  # the loop holds no block while the next is read
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
