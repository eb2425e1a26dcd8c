"""market_data.parse_ticks and coarsen against the row-by-row reader they replaced.

The reference below builds one book object per tick, sums each side's
level volumes with sum(), and places ticks in buckets one at a time. The
columnar reader must give the same timestamps, prices and imbalances bit
for bit, the same series CSV bytes, and raise at the same line on every
malformed input. Inputs hold no nan or inf token: the reference accepts
some of those, the columnar reader rejects them all (see test_market_data).
"""

import csv
import io
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lstrader import market_data
from lstrader.market_data import BLOCK_ROWS, PriceSeries, coarsen, parse_ticks

from conftest import temp_csv, write_csv

# -- reference ---------------------------------------------------------------

_BASIC_HEADER = ("timestamp", "price", "bid_vol_total", "ask_vol_total")


def _parse_float(token, what, line_num):
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"line {line_num}: non-numeric {what}: {token!r}") from None


def _check_book(bids, asks):
    for side, levels, descending in (("bid", bids, True), ("ask", asks, False)):
        for _, volume in levels:
            if volume < 0:
                raise ValueError(f"{side} volume must be >= 0, got {volume}")
        prices = [price for price, _ in levels]
        for earlier, later in zip(prices, prices[1:]):
            if descending and not later < earlier:
                raise ValueError("bid prices must be strictly descending")
            if not descending and not later > earlier:
                raise ValueError("ask prices must be strictly ascending")


def _split_extended_header(cols):
    idx, n_bid = 2, 0
    while idx + 1 < len(cols) and cols[idx] == f"bid_price_{n_bid + 1}":
        if cols[idx + 1] != f"bid_vol_{n_bid + 1}":
            raise ValueError(f"line 1: expected bid_vol_{n_bid + 1}, got {cols[idx + 1]!r}")
        n_bid, idx = n_bid + 1, idx + 2
    n_ask = 0
    while idx + 1 < len(cols) and cols[idx] == f"ask_price_{n_ask + 1}":
        if cols[idx + 1] != f"ask_vol_{n_ask + 1}":
            raise ValueError(f"line 1: expected ask_vol_{n_ask + 1}, got {cols[idx + 1]!r}")
        n_ask, idx = n_ask + 1, idx + 2
    if idx != len(cols):
        raise ValueError(f"line 1: unrecognized tick CSV column {cols[idx]!r}")
    if n_bid == 0 and n_ask == 0:
        raise ValueError("line 1: extended tick CSV header has no book levels")
    return n_bid, n_ask


def _parse_levels(row, offset, count, side, line_num):
    levels = []
    for i in range(count):
        price_tok = row[offset + 2 * i].strip()
        vol_tok = row[offset + 2 * i + 1].strip()
        if price_tok == "" and vol_tok == "":
            continue
        if price_tok == "" or vol_tok == "":
            raise ValueError(f"line {line_num}: half-empty {side} level {i + 1}")
        levels.append(
            (
                _parse_float(price_tok, f"{side}_price_{i + 1}", line_num),
                _parse_float(vol_tok, f"{side}_vol_{i + 1}", line_num),
            )
        )
    return tuple(levels)


def reference_parse_ticks(path):
    """(timestamp, price, bids, asks) per tick of the file at path, as the row-by-row
    reader built them; a fault is raised as "<path>: <message>", as parse_ticks does."""
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return _reference_ticks(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _reference_ticks(text):
    reader = csv.reader(io.StringIO(text).readlines())
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

    ticks = []
    previous_ts = None
    for row in reader:
        line_num = reader.line_num
        if not row or all(tok.strip() == "" for tok in row):
            continue
        if len(row) != expected_len:
            raise ValueError(f"line {line_num}: expected {expected_len} columns, got {len(row)}")
        timestamp = _parse_float(row[0], "timestamp", line_num)
        price = _parse_float(row[1], "price", line_num)
        if previous_ts is not None and timestamp < previous_ts:
            raise ValueError(f"line {line_num}: timestamp {timestamp} decreased below {previous_ts}")
        previous_ts = timestamp
        try:
            if extended:
                bids = _parse_levels(row, 2, n_bid, "bid", line_num)
                asks = _parse_levels(row, 2 + 2 * n_bid, n_ask, "ask", line_num)
            else:
                bids = ((price, _parse_float(row[2], "bid_vol_total", line_num)),)
                asks = ((price, _parse_float(row[3], "ask_vol_total", line_num)),)
            _check_book(bids, asks)
            if not price > 0:
                raise ValueError(f"tick price must be > 0, got {price}")
        except ValueError as exc:
            msg = str(exc)
            raise ValueError(msg if msg.startswith("line ") else f"line {line_num}: {msg}") from None
        ticks.append((timestamp, price, bids, asks))
    return ticks


def reference_imbalance(bids, asks):
    v_bid = sum(volume for _, volume in bids)
    v_ask = sum(volume for _, volume in asks)
    total = v_bid + v_ask
    if total == 0:
        return 0.0
    return (v_bid - v_ask) / total


def reference_coarsen(ticks, interval):
    first_bucket = math.ceil(ticks[0][0] / interval)
    n = math.ceil(ticks[-1][0] / interval) - first_bucket + 1
    prices = np.full(n, np.nan)
    imbalances = np.full(n, np.nan)
    for timestamp, price, bids, asks in ticks:
        idx = math.ceil(timestamp / interval) - first_bucket
        prices[idx] = price
        imbalances[idx] = reference_imbalance(bids, asks)
    carry = np.maximum.accumulate(np.where(~np.isnan(prices), np.arange(n), 0))
    return PriceSeries(
        start_time=first_bucket * interval,
        interval=interval,
        prices=prices[carry],
        imbalances=imbalances[carry],
    )


# -- inputs --------------------------------------------------------------------


def make_csv(seed, n_rows, extended=True, max_depth=6, spaced_blanks=False):
    """A valid tick CSV as (header, rows, interval); each row is a list of tokens.

    Equal timestamps, jumps over several buckets, shallow books (trailing
    absent levels), mid-ladder gaps and all-zero books all occur.
    """
    rng = np.random.default_rng(seed)
    interval = 10.0
    steps = np.where(
        rng.random(n_rows) < 0.2, 0.0, rng.choice([0.25, 1.5, 3.0, 10.0, 47.5], n_rows)
    )
    ts = np.round(1_700_000_000.0 + np.cumsum(steps) + rng.integers(0, 3), 3)
    prices = np.round(100.0 + np.cumsum(rng.normal(0, 0.3, n_rows)), 2)
    prices = np.abs(prices) + 0.01
    if not extended:
        header = list(_BASIC_HEADER)
        volumes = np.round(rng.exponential(3.0, (n_rows, 2)), 4)
        volumes[rng.random(n_rows) < 0.05] = 0.0
        rows = [
            [repr(float(t)), repr(float(p)), repr(float(b)), repr(float(a))]
            for t, p, (b, a) in zip(ts, prices, volumes)
        ]
        return header, rows, interval
    n_bid, n_ask = int(rng.integers(0, max_depth + 1)), int(rng.integers(1, max_depth + 1))
    header = ["timestamp", "price"]
    header += [f"bid_{k}_{i}" for i in range(1, n_bid + 1) for k in ("price", "vol")]
    header += [f"ask_{k}_{i}" for i in range(1, n_ask + 1) for k in ("price", "vol")]
    blank = " " if spaced_blanks else ""
    rows = []
    for t, p in zip(ts, prices):
        row = [repr(float(t)), repr(float(p))]
        for n_levels, sign in ((n_bid, -1), (n_ask, 1)):
            depth = int(rng.integers(0, n_levels + 1)) if rng.random() < 0.3 else n_levels
            for level in range(n_levels):
                absent = level >= depth or rng.random() < 0.1
                if absent:
                    row += [blank, blank]
                    continue
                volume = 0.0 if rng.random() < 0.1 else round(float(rng.exponential(2.0)), 6)
                row += [repr(round(float(p) + sign * 0.01 * (level + 1), 2)), repr(volume)]
        rows.append(row)
    return header, rows, interval


def render(header, rows, seed=0):
    """CSV text of the rows, with blank and whitespace-only lines here and there."""
    rng = np.random.default_rng(seed + 1)
    out = [",".join(header)]
    for row in rows:
        if rng.random() < 0.02:
            out.append(rng.choice(["", " ", ",,", " , "]))
        out.append(",".join(row))
    return "\n".join(out) + "\n"


def assert_same_ticks(text, interval, tmp_path):
    path = write_csv(tmp_path, text)
    expected = reference_parse_ticks(path)
    table = parse_ticks(path)
    assert len(table) == len(expected)
    columns = (
        [t for t, _, _, _ in expected],
        [p for _, p, _, _ in expected],
        [reference_imbalance(bids, asks) for _, _, bids, asks in expected],
    )
    for got, want in zip((table.timestamps, table.prices, table.imbalances), columns):
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
    if expected:
        coarsen(table, interval).to_csv(tmp_path / "new.csv")
        reference_coarsen(expected, interval).to_csv(tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def raised(parse, path):
    with pytest.raises(ValueError) as info:
        parse(path)
    return str(info.value)


def line_of(message):
    return int(re.search(r": line (\d+):", message).group(1))


# -- equal results on valid input --------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_extended_random_books(seed, tmp_path):
    header, rows, interval = make_csv(seed, 300 + 100 * seed)
    assert_same_ticks(render(header, rows, seed), interval, tmp_path)


@pytest.mark.parametrize("seed", range(3))
def test_basic_random_ticks(seed, tmp_path):
    header, rows, interval = make_csv(seed, 500, extended=False)
    assert_same_ticks(render(header, rows, seed), interval, tmp_path)


@pytest.mark.parametrize("extended", [True, False])
def test_rows_across_block_boundaries(extended, tmp_path):
    header, rows, interval = make_csv(99, 2 * BLOCK_ROWS + 123, extended=extended, max_depth=3)
    assert_same_ticks(render(header, rows, 99), interval, tmp_path)


def test_whitespace_blank_levels(tmp_path):
    header, rows, interval = make_csv(5, 400, spaced_blanks=True)
    assert_same_ticks(render(header, rows, 5), interval, tmp_path)


def test_full_ladder(tmp_path):
    header, rows, interval = make_csv(11, 200, max_depth=60)
    assert_same_ticks(render(header, rows, 11), interval, tmp_path)


# -- the same line on malformed input -------------------------------------------


def _inject(rows, header, kind, at, rng):
    """Copy of rows with one fault of the given kind in row `at`."""
    rows = [list(row) for row in rows]
    row = rows[at]
    basic = header[2] == "bid_vol_total"
    levels = [] if basic else [j for j in range(2, len(row), 2) if row[j].strip()]
    if kind == "non_numeric":
        row[rng.choice([j for j, tok in enumerate(row) if tok.strip()])] = "1.2.3"
    elif kind == "columns":
        row.append("1")
    elif kind == "decrease":
        row[0] = repr(float(rows[at - 1][0]) - 0.5)
    elif kind == "price":
        row[1] = rng.choice(["0", "-3.5", "0.0"])
    elif kind == "volume" and basic:
        row[2 + int(rng.integers(0, 2))] = "-1.5"
    elif kind == "volume" and levels:
        row[levels[int(rng.integers(0, len(levels)))] + 1] = "-1.5"
    elif kind == "half_empty" and levels:
        j = levels[int(rng.integers(0, len(levels)))]
        row[j + int(rng.integers(0, 2))] = ""
    elif kind in ("order", "equal_prices"):
        n_bid = sum(1 for name in header if name.startswith("bid_price"))
        for start, stop in ((2, 2 + 2 * n_bid), (2 + 2 * n_bid, len(row))):
            side = [j for j in levels if start <= j < stop]
            if len(side) >= 2:
                a, b = side[:2]
                row[a], row[b] = (row[b], row[a]) if kind == "order" else (row[a], row[a])
                break
        else:
            return None
    else:
        return None
    return rows


KINDS = ["non_numeric", "columns", "decrease", "price", "volume", "half_empty", "order", "equal_prices"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("extended", [True, False])
def test_single_fault_same_line_and_message(kind, extended, tmp_path):
    header, rows, _ = make_csv(7, 600, extended=extended)
    rng = np.random.default_rng(len(kind))
    checked = 0
    for at in rng.integers(1, len(rows), 12):
        faulty = _inject(rows, header, kind, int(at), rng)
        if faulty is None:
            continue
        path = write_csv(tmp_path, render(header, faulty, 7))
        want = raised(reference_parse_ticks, path)
        assert raised(parse_ticks, path) == want
        checked += 1
    assert checked > 0 or (kind in ("half_empty", "order", "equal_prices") and not extended)


@pytest.mark.parametrize("at", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS])
def test_decrease_at_block_boundary(at, tmp_path):
    header, rows, _ = make_csv(3, 2 * BLOCK_ROWS + 50, max_depth=2)
    rows[at][0] = repr(float(rows[at - 1][0]) - 1.0)
    path = write_csv(tmp_path, render(header, rows, 3))
    message = raised(parse_ticks, path)
    assert message == raised(reference_parse_ticks, path)
    assert "decreased" in message


@pytest.mark.parametrize("seed", range(8))
def test_two_faults_first_line_wins(seed, tmp_path):
    header, rows, _ = make_csv(seed, 5000, max_depth=2)
    rng = np.random.default_rng(seed)
    first, second = sorted(rng.choice(np.arange(1, len(rows)), 2, replace=False))
    kinds = rng.choice(KINDS, 2)
    faulty = _inject(rows, header, kinds[1], int(second), rng) or rows
    faulty = _inject(faulty, header, kinds[0], int(first), rng) or faulty
    path = write_csv(tmp_path, render(header, faulty, seed))
    try:
        reference_parse_ticks(path)
    except ValueError as exc:
        assert line_of(raised(parse_ticks, path)) == line_of(str(exc))
    else:
        assert len(parse_ticks(path)) == len(rows)


_TOKENS = st.sampled_from(["", " ", "0", "1", "2.5", "-1", "100", "99.5", "1e3", "x", "3 "])


@settings(max_examples=200, deadline=None)
@given(
    extended=st.booleans(),
    cells=st.lists(st.lists(_TOKENS, min_size=4, max_size=6), max_size=12),
)
def test_random_tokens_agree(extended, cells):
    header = (
        "timestamp,price,bid_price_1,bid_vol_1,ask_price_1,ask_vol_1"
        if extended
        else ",".join(_BASIC_HEADER)
    )
    text = header + "\n" + "\n".join(",".join(row) for row in cells) + "\n"
    with temp_csv(text) as path:
        try:
            expected = reference_parse_ticks(path)
        except ValueError as exc:
            assert line_of(raised(parse_ticks, path)) == line_of(str(exc))
            return
        table = parse_ticks(path)
    assert table.timestamps.tobytes() == np.array([t[0] for t in expected], dtype=np.float64).tobytes()
    assert table.imbalances.tobytes() == np.array(
        [reference_imbalance(bids, asks) for _, _, bids, asks in expected], dtype=np.float64
    ).tobytes()


# -- the plain-block reader against the csv path --------------------------------

_EXTENDED_HEADER = "timestamp,price,bid_price_1,bid_vol_1,bid_price_2,bid_vol_2,ask_price_1,ask_vol_1"
_PLAIN_FAULTS = [
    "", " ", "  ", '"1.5"', "#", "1_0", "١", "nan", "inf", "-inf", "1e999", "-1", "x",
    "\x1c2", "2\x1f", " 2.5", "0" * 131072 + "1",
]


@st.composite
def tick_texts(draw):
    """A tick CSV of mostly plain rows, some levels absent (blanks in the middle and
    at the end of a line), with faults, line-end kinds and blank lines mixed in."""
    header = draw(st.sampled_from([_EXTENDED_HEADER, ",".join(_BASIC_HEADER)]))
    lines = [header]
    for i in range(draw(st.integers(0, 12))):
        price = draw(st.floats(1.0, 1e4))
        volumes = [repr(draw(st.floats(0.0, 1e9))) for _ in range(3)]
        if header == _EXTENDED_HEADER:
            tokens = [repr(10.0 * i), repr(price), repr(price - 0.5), volumes[0],
                      repr(price - 1.0), volumes[1], repr(price + 0.5), volumes[2]]
            for start in (2, 4, 6):  # an absent level
                if draw(st.integers(0, 3)) == 0:
                    tokens[start : start + 2] = ["", ""]
        else:
            tokens = [repr(10.0 * i), repr(price)] + volumes[:2]
        if draw(st.integers(0, 3)) == 0:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_PLAIN_FAULTS))
        if draw(st.integers(0, 15)) == 0:
            tokens = tokens[:-1] if draw(st.booleans()) else tokens + ["0"]
        lines.append(",".join(tokens))
        if draw(st.integers(0, 15)) == 0:
            lines.append(draw(st.sampled_from(["", " ", ",,,"])))
    ends = (st.sampled_from(["\n", "\r\n", "\r"]) if draw(st.booleans())
            else st.just(draw(st.sampled_from(["\n", "\r\n"]))))
    text = "".join(line + draw(ends) for line in lines)
    return text[:-1] if draw(st.integers(0, 4)) == 0 else text  # at times no final newline


def parse_outcome(path):
    """The TickTable columns' bytes, or the error (a header line csv refuses
    raises csv.Error, on either path)."""
    try:
        table = parse_ticks(path)
    except (ValueError, csv.Error) as exc:
        return f"{type(exc).__name__}: {exc}"
    return table.timestamps.tobytes(), table.prices.tobytes(), table.imbalances.tobytes()


@settings(max_examples=400, deadline=None)
@given(tick_texts(), st.sampled_from([1, 2, 3, BLOCK_ROWS]))
@example(_EXTENDED_HEADER + "\n1.0,100.0,99.5,2.0,,,100.5,1.0\n2.0,100.0,99.5,2.0,99.0,1.0,,\n", BLOCK_ROWS)
@example(_EXTENDED_HEADER + "\r\n1.0,100.0,,,,,100.5,1.0\r\n2.0,100.0,99.5,2.0,,,,\r\n", 1)
@example(_EXTENDED_HEADER + "\n1.0,100.0,99.5,2.0,,,100.5,nan\n", BLOCK_ROWS)  # a nan is no blank
@example(_EXTENDED_HEADER + "\n1.0,1e999,99.5,2.0,,,100.5,1.0\n", BLOCK_ROWS)
@example(_EXTENDED_HEADER + "\n1.0,,99.5,2.0,,,100.5,1.0\n", BLOCK_ROWS)  # a blank price
@example("timestamp,price,bid_vol_total,ask_vol_total\r1.0,100.0,2.0,1.0\r\r\n\r\r\n", 1)  # empty lines
@example("timestamp,price,bid_vol_total,ask_vol_total\n1.0,100.0,\x1c2,1.0\n", BLOCK_ROWS)
@example("timestamp,price,bid_vol_total,ask_vol_total\r1.0,100.0,2.0,1.0\r2.0,100.0,2.0,1.0\r", 2)
@example("timestamp,price,bid_vol_total,ask_vol_total\n1.0,100.0,2.0,1.0\n2.0,100.0,2.0,1.0", 2)
@example(f"timestamp,price,bid_vol_total,ask_vol_total\n1.0,{'0' * 131072}1,2.0,1.0\n", BLOCK_ROWS)
@example("timestamp,price,bid_vol_total,ask_vol_total\n1.0,1_0,2.0,1.0\n2.0,١,2.0,1.0\n", BLOCK_ROWS)
def test_plain_reader_matches_csv_path(text, block_rows):
    """Values bit for bit, or the same message, with and without the plain-block reader."""
    with temp_csv(text) as path, pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error")
        patch.setattr(market_data, "BLOCK_ROWS", block_rows)
        got = parse_outcome(path)
        patch.setattr(market_data, "_plain_block", lambda chunk, optional: None)
        want = parse_outcome(path)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(tick_texts(), st.sampled_from([1, 100, 250, 600]), st.sampled_from([1, 3]))
def test_text_bounded_blocks_read_the_same(text, block_chars, first_read):
    """Blocks cut short by BLOCK_CHARS, down to one line each, give the same
    columns or the same message as blocks of BLOCK_ROWS lines."""
    with temp_csv(text) as path, pytest.MonkeyPatch.context() as patch:
        want = parse_outcome(path)
        patch.setattr(market_data, "BLOCK_CHARS", block_chars)
        patch.setattr(market_data, "_READ_LINES", first_read)
        assert parse_outcome(path) == want


def test_plain_file_never_reaches_the_csv_path(monkeypatch, tmp_path):
    """Plain rows with blank levels mid-line and at the line end, and \\r\\n or
    lone \\r ends, are read without csv.reader."""
    header, rows, _ = make_csv(13, 2 * BLOCK_ROWS + 5, max_depth=4)
    assert any(row[-1] == "" for row in rows) and any("" in row[2:-1] for row in rows)
    text = "\r\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\r\n"
    paths = [write_csv(tmp_path, text, "crlf.csv"), write_csv(tmp_path, text.replace("\r\n", "\r"), "cr.csv")]
    wants = [parse_outcome(path) for path in paths]
    assert wants[0] == wants[1]

    def no_csv_path(*args):
        raise AssertionError("a plain block fell back to csv.reader")

    monkeypatch.setattr(market_data, "_convert", no_csv_path)
    assert [parse_outcome(path) for path in paths] == wants


@pytest.mark.parametrize("odd", ["blank_line", "quoted_token"])
def test_one_odd_line_sends_only_its_block_to_the_csv_path(monkeypatch, tmp_path, odd):
    """A blank line or a quoted token on line 4 of a file of four blocks sends
    that line's block to csv.reader; the blocks after it go to np.loadtxt."""
    header, rows, _ = make_csv(17, 200, max_depth=4)
    lines = [",".join(header)] + [",".join(row) for row in rows]
    if odd == "blank_line":
        lines.insert(3, "")
    else:
        lines[3] = '"{}",{}'.format(*lines[3].split(",", 1))
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    monkeypatch.setattr(market_data, "BLOCK_ROWS", 64)
    want = parse_outcome(path)
    converted = []
    convert = market_data._convert

    def counted(rows, *args):
        converted.append(len(rows))
        return convert(rows, *args)

    monkeypatch.setattr(market_data, "_convert", counted)
    assert parse_outcome(path) == want
    assert 0 < sum(converted) <= 64, converted


@pytest.mark.parametrize("short_row", [False, True], ids=["read_on", "short_row_next"])
def test_quoted_line_end_across_a_block_boundary(monkeypatch, tmp_path, short_row):
    """A quoted volume holding a line end, on lines 5-6 where a block of 4 lines
    ends at line 5: the block reads on to end that row, and the next block starts
    at line 7 with the line numbers one csv.reader over the whole text gives."""
    header, rows, interval = make_csv(23, 12, extended=False)
    rows[3][2] = f'"{rows[3][2]}\n"'
    if short_row:
        rows.insert(4, rows[4][:-1])
    text = "\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n"
    monkeypatch.setattr(market_data, "BLOCK_ROWS", 4)
    if short_row:
        path = write_csv(tmp_path, text)
        assert raised(parse_ticks, path) == raised(reference_parse_ticks, path) == (
            f"{path}: line 7: expected 4 columns, got 3")
    else:
        assert_same_ticks(text, interval, tmp_path)


# the ASCII digits of 0 to 9999, four to a row, and how many of them are trailing zeros
DIGITS = np.frombuffer("".join(f"{i:04d}" for i in range(10**4)).encode(), np.uint8).reshape(-1, 4)
TRAILING_ZEROS = np.array([4 - len(f"{i:04d}".rstrip("0")) for i in range(10**4)])


def repr_lines(table, quoted):
    """The bytes of one ",".join(map(repr, row)) line per row of table, the first
    cell in quotes if quoted and the last ten cells of every tenth row blank.

    Each cell is laid out as its text, zero bytes, then a comma (a newline ending
    a row), and the zero bytes are dropped. A value in [1e-4, 100) that is its
    own 8-place rounding has that decimal as its repr, less the trailing zeros
    after the first place, so its text is looked up four digits at a time; repr
    formats every other value once per distinct value."""
    n, width = table.shape
    short = (table >= 1e-4) & (table < 100) & (table == np.round(table, 8))
    short[:, 0] = False
    rest = ~short
    rest[:, 0] = False
    first = np.array([(f'"{x!r}"' if quoted else repr(x)).encode() for x in table[:, 0].tolist()])
    bits, index = np.unique(table[rest].view(np.uint64), return_inverse=True)
    text = np.array([repr(x).encode() for x in bits.view(np.float64).tolist()])
    scaled = np.rint(table[short] * 1e8).astype(np.int64)
    whole, high, low = np.unravel_index(scaled, (100, 10**4, 10**4))
    decimal = np.empty((len(scaled), 11), np.uint8)
    decimal[:, :2] = DIGITS[whole, 2:]
    decimal[:, 0] *= whole >= 10
    decimal[:, 2] = ord(".")
    decimal[:, 3:7] = DIGITS[high]
    decimal[:, 7:] = DIGITS[low]
    zeros = np.where(low == 0, 4 + TRAILING_ZEROS[high], TRAILING_ZEROS[low])
    decimal[:, 4:] *= np.arange(7, 0, -1) > zeros[:, None]
    cells = np.zeros((n, width, max(first.itemsize, text.itemsize, 11) + 1), np.uint8)
    cells[:, 0, : first.itemsize] = first.view(np.uint8).reshape(n, -1)
    cells[rest, : text.itemsize] = text.view(np.uint8).reshape(len(text), -1)[index]
    cells[short, :11] = decimal
    cells[::10, -10:, :-1] = 0
    cells[:, :, -1] = ord(",")
    cells[:, -1, -1] = ord("\n")
    return cells[cells != 0].tobytes()


def write_wide_ticks(path, n, levels, quoted=False):
    """n ticks of ``levels`` levels a side, every tenth with its last five ask
    levels blank; quoted puts every timestamp in quotes, which sends the file
    down the csv.reader path from its first block. Written 1000 rows at a time,
    which bounds the text arrays and keeps every tenth row a tenth tick."""
    rng = np.random.default_rng(5)
    price = np.round(500.0 + np.cumsum(rng.normal(0.0, 0.25, n)), 2)
    steps = 0.01 * np.arange(1, levels + 1)
    table = np.empty((n, 2 + 4 * levels))
    table[:, 0] = np.round(1.4e9 + np.cumsum(rng.exponential(5.0, n)), 3)
    table[:, 1] = price
    table[:, 2 : 2 + 2 * levels : 2] = price[:, None] - steps
    table[:, 2 + 2 * levels :: 2] = price[:, None] + steps
    table[:, 3 : 2 + 2 * levels : 2] = np.round(rng.exponential(2.0, (n, levels)), 8)
    table[:, 3 + 2 * levels :: 2] = np.round(rng.exponential(2.0, (n, levels)), 8)
    header = ["timestamp", "price"] + [f"{side}_{k}_{i}" for side in ("bid", "ask")
                                       for i in range(1, levels + 1) for k in ("price", "vol")]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, n, 1000):
            fh.write(repr_lines(table[start : start + 1000], quoted))
    return path


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_repr_lines_matches_per_row_repr(quoted):
    """repr_lines against the per-row join it replaced, on values on both sides
    of each edge of its lookup path: exponent-form reprs below 1e-4, zero and
    negatives, 100 and more, more than 8 places, and trailing zeros."""
    rng = np.random.default_rng(8)
    edges = [0.0, -0.0, -1.5, 1e-4, 9.99e-5, 5e-9, 99.99999999, 100.0, 1e16, 0.1 + 0.2,
             12.5, 3.0, 10.0, 0.00010001, 1.2345678912, 2.0 / 3.0]
    table = np.round(rng.exponential(2.0, (30, 22)), 8)
    table[:, 0] = np.round(1.4e9 + np.cumsum(rng.exponential(5.0, 30)), 3)
    table[1, 1 : 1 + len(edges)] = edges  # a row with no blank cells
    table[2, 0] = 12.5  # a first cell, quoted or not, that the lookup could take
    expected = []
    for i, row in enumerate(table.tolist()):
        line = ",".join(map(repr, row))
        if quoted:
            line = '"' + line.replace(",", '",', 1)
        expected.append((line.rsplit(",", 10)[0] + "," * 10 if i % 10 == 0 else line) + "\n")
    assert repr_lines(table, quoted) == "".join(expected).encode()


def parse_peak(path):
    """(ticks, tracemalloc peak in bytes) of parse_ticks on the file at path."""
    tracemalloc.start()
    try:
        ticks = parse_ticks(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return ticks, peak


def test_parse_ticks_peak_memory(tmp_path):
    """9,000 ticks of 60 levels a side (about 22 MB of text): the blocks, not the
    file, bound what is held at once. A block of BLOCK_CHARS (512 KiB) of text
    costs about 3x its text on the plain path and about 9x on the csv path,
    where csv.reader makes a str per token; 2 MiB blocks peak at 4.6 and
    17.6 MiB. A joined block text or a token list per block shows as a higher
    peak."""
    n = 9000
    for quoted, bound in ((False, 2.5 * 2**20), (True, 8 * 2**20)):
        ticks, peak = parse_peak(write_wide_ticks(tmp_path / f"{quoted}.csv", n, 60, quoted))
        assert len(ticks) == n
        assert peak < bound, f"quoted={quoted}: peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "csv_path"])
def test_parse_ticks_memory_does_not_grow_with_file_length(tmp_path, quoted):
    """Three times the ticks raise the peak by less than the longer file's three
    output columns and 1 MiB: a block is let go of once it is reduced, so
    neither its values nor a view of them stays behind. At 60 levels a side,
    1500 ticks are about six blocks (about 3 MB of text)."""
    n = 1500
    peaks = []
    for rows in (n, 3 * n):
        ticks, peak = parse_peak(write_wide_ticks(tmp_path / f"{rows}.csv", rows, 60, quoted))
        assert len(ticks) == rows
        peaks.append(peak)
    columns = 3 * 8 * 3 * n
    assert peaks[1] - peaks[0] < columns + 2**20, (
        f"peak {peaks[0] / 2**20:.2f} MiB at {n} ticks, {peaks[1] / 2**20:.2f} MiB at {3 * n}"
    )
