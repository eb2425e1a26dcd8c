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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lstrader.market_data import BLOCK_ROWS, PriceSeries, coarsen, parse_ticks

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


def reference_parse_ticks(text):
    """(timestamp, price, bids, asks) per tick, as the row-by-row reader built them."""
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
    expected = reference_parse_ticks(text)
    table = parse_ticks(text)
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


def raised(parse, text):
    with pytest.raises(ValueError) as info:
        parse(text)
    return str(info.value)


def line_of(message):
    return int(re.match(r"line (\d+):", message).group(1))


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
def test_single_fault_same_line_and_message(kind, extended):
    header, rows, _ = make_csv(7, 600, extended=extended)
    rng = np.random.default_rng(len(kind))
    checked = 0
    for at in rng.integers(1, len(rows), 12):
        faulty = _inject(rows, header, kind, int(at), rng)
        if faulty is None:
            continue
        text = render(header, faulty, 7)
        want = raised(reference_parse_ticks, text)
        assert raised(parse_ticks, text) == want
        checked += 1
    assert checked > 0 or (kind in ("half_empty", "order", "equal_prices") and not extended)


@pytest.mark.parametrize("at", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS])
def test_decrease_at_block_boundary(at):
    header, rows, _ = make_csv(3, 2 * BLOCK_ROWS + 50, max_depth=2)
    rows[at][0] = repr(float(rows[at - 1][0]) - 1.0)
    text = render(header, rows, 3)
    message = raised(parse_ticks, text)
    assert message == raised(reference_parse_ticks, text)
    assert "decreased" in message


@pytest.mark.parametrize("seed", range(8))
def test_two_faults_first_line_wins(seed):
    header, rows, _ = make_csv(seed, 5000, max_depth=2)
    rng = np.random.default_rng(seed)
    first, second = sorted(rng.choice(np.arange(1, len(rows)), 2, replace=False))
    kinds = rng.choice(KINDS, 2)
    faulty = _inject(rows, header, kinds[1], int(second), rng) or rows
    faulty = _inject(faulty, header, kinds[0], int(first), rng) or faulty
    text = render(header, faulty, seed)
    try:
        reference_parse_ticks(text)
    except ValueError as exc:
        assert line_of(raised(parse_ticks, text)) == line_of(str(exc))
    else:
        assert len(parse_ticks(text)) == len(rows)


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
    try:
        expected = reference_parse_ticks(text)
    except ValueError as exc:
        assert line_of(raised(parse_ticks, text)) == line_of(str(exc))
        return
    table = parse_ticks(text)
    assert table.timestamps.tobytes() == np.array([t[0] for t in expected], dtype=np.float64).tobytes()
    assert table.imbalances.tobytes() == np.array(
        [reference_imbalance(bids, asks) for _, _, bids, asks in expected], dtype=np.float64
    ).tobytes()
