"""The block float-CSV writer, the report's row writer and the block series
reader against per-row csv.writer/float() code.

The oracle writers below are that code: one csv.writer row per bucket,
pattern, sweep row or trade, repr(float(x)) per cell. The library's writers
must give the same bytes, and the reader must give back the written floats
bit for bit, at sizes on both sides of a block boundary.
"""

import csv
import io
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lstrader import market_data
from lstrader.evaluator import LEDGER_HEADER, emit_report, sharpe
from lstrader.market_data import BLOCK_ROWS, WRITE_CELLS, PriceSeries
from lstrader.pattern_bank import PatternBank, normalize
from lstrader.trader import BacktestReport, Trade

AWKWARD = np.array([-0.0, 5e-324, 1e22, 0.1 + 0.2, 1e-310, -1.5e300, 2.0**53 + 2, 1 / 3, 0.0])


def oracle_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def float_cells(*columns):
    return ([repr(float(v)) for v in values] for values in zip(*columns))


def awkward_column(n, rng):
    column = rng.normal(scale=1e3, size=n)
    column[: min(n, len(AWKWARD))] = AWKWARD[:n]
    return rng.permutation(column)


def awkward_series(n, rng):
    return PriceSeries(
        start_time=1.7e9, interval=10.0,
        prices=awkward_column(n, rng), imbalances=awkward_column(n, rng),
    )


def cycling_report(series):
    """A report whose fills cycle long, flat, short, flat at every bucket, so
    that its equity curve marks each awkward price."""
    sides, after = ("buy", "sell", "sell", "buy"), (1, 0, -1, 0)
    trades = tuple(Trade(t, sides[t % 4], float(price), after[t % 4])
                   for t, price in enumerate(series.prices))
    return BacktestReport(
        threshold=0.5, trades=trades, round_trip_profits=(), buckets=len(series),
        avg_holding_time=0.0, avg_investment=0.0, benchmark_move=0.0,
    )


def awkward_banks(rng):
    banks = []
    for window in (3, 7):
        vectors = np.stack([normalize(rng.normal(size=window)) for _ in range(5)] + [np.zeros(window)])
        banks.append(
            PatternBank(
                window_length=window, vectors=vectors, labels=AWKWARD[:6] * (1 if window == 3 else -1),
                populations=np.ones(6, dtype=np.int64),
            )
        )
    return banks


SERIES_ROWS = WRITE_CELLS // 3  # rows per write of a 3-column series
SIZES = [1, 2, SERIES_ROWS - 1, SERIES_ROWS, SERIES_ROWS + 1, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]


@pytest.mark.parametrize("n", SIZES)
def test_series_csv_bytes_match_csv_writer(tmp_path, rng, n):
    series = awkward_series(n, rng)
    series.to_csv(tmp_path / "new.csv")
    oracle_csv(tmp_path / "old.csv", ("bucket_time", "price", "imbalance"),
               float_cells(series.bucket_times, series.prices, series.imbalances))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_series_csv_round_trip_is_bit_exact(tmp_path, rng, n):
    series = awkward_series(n, rng)
    series.to_csv(tmp_path / "series.csv")
    loaded = PriceSeries.from_csv(tmp_path / "series.csv")
    assert loaded.prices.tobytes() == series.prices.tobytes()
    assert loaded.imbalances.tobytes() == series.imbalances.tobytes()
    assert (loaded.start_time, loaded.interval) == (series.start_time, series.interval)


@pytest.mark.parametrize("n", [1, SERIES_ROWS + 1])
def test_report_csvs_match_csv_writer(tmp_path, rng, n):
    series = awkward_series(n, rng)
    report = cycling_report(series)
    banks = awkward_banks(rng)
    # cycling_report closes no round trip, so its Sharpe is nan; the second row's is defined
    closed = replace(report, threshold=0.1 + 0.2, round_trip_profits=tuple(rng.normal(size=5)),
                     avg_holding_time=1e22, benchmark_move=1 / 3)
    sweep = [report, closed]
    assert math.isnan(sharpe(report.round_trip_profits, report.benchmark_move))
    paths = emit_report(report, sweep, banks, tmp_path / "new", series=series)

    oracle_csv(tmp_path / "curve.csv", ("bucket_time", "price", "cum_profit"),
               float_cells(series.bucket_times, series.prices, report.equity_curve(series)))
    oracle_csv(tmp_path / "centers.csv", (), (
        [bank.window_length, repr(float(bank.labels[i]))] + [repr(float(v)) for v in bank.vectors[i]]
        for bank in banks for i in range(len(bank))
    ))
    # cycling_report's fills close no round trip: the profit cell stays empty
    oracle_csv(tmp_path / "ledger.csv", LEDGER_HEADER, (
        [t.time, t.side, repr(float(t.price)), t.position_after, ""] for t in report.trades
    ))
    oracle_csv(tmp_path / "sweep.csv", ("threshold", "num_trades", "avg_holding_s", "avg_profit",
                                        "total_profit", "sharpe"), (
        [repr(float(r.threshold)), r.num_trades] + [repr(float(v)) for v in (
            r.avg_holding_time, r.avg_profit_per_trade, r.total_profit,
            sharpe(r.round_trip_profits, r.benchmark_move))]
        for r in sweep
    ))
    for name, oracle in (("equity_curve", "curve.csv"), ("cluster_centers", "centers.csv"),
                         ("trades", "ledger.csv"), ("sweep", "sweep.csv")):
        with open(paths[name], "rb") as fh:
            assert fh.read() == (tmp_path / oracle).read_bytes()


# values whose repr is awkward, or that are equal as floats but not as bits
BIT_POOL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, np.nan, -np.nan,
                     np.inf, -np.inf, 1.0, 0.1 + 0.2, 1e22, -1.5e300])


def row_wise_rows(columns, header, lead):
    """The row-wise writer write_float_rows replaced: one csv.writer row per
    row, the lead's cells first, then repr(float(x)) per value."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    if header:
        writer.writerow(header)
    lead_cells = lead.split(",")[:-1]
    for row in np.column_stack(columns).tolist():
        writer.writerow(lead_cells + [repr(float(v)) for v in row])
    return buf.getvalue()


def rows_per_write(width):
    return max(1, WRITE_CELLS // width)


# (rows, float cells per row): narrow rows and rows of about, and past, WRITE_CELLS
# cells, each on both sides of the second block edge
SHAPES = st.one_of(st.integers(1, 4), st.sampled_from([721, WRITE_CELLS, WRITE_CELLS + 1])).flatmap(
    lambda width: st.tuples(st.integers(1, 2 * rows_per_write(width) + 2), st.just(width))
)


@given(shape=SHAPES, lead=st.sampled_from(["", "180,"]), seed=st.integers(0, 2**32 - 1))
@example(shape=(WRITE_CELLS + 1, 1), lead="", seed=0)
@example(shape=(2 * SERIES_ROWS, 3), lead="180,", seed=1)
@example(shape=(7, 721), lead="720,", seed=2)
@settings(max_examples=60, deadline=None)
def test_write_float_rows_bytes_equal_row_wise_writer(shape, lead, seed):
    """Bit-pattern dedupe per block gives the row-wise bytes: -0.0 beside 0.0
    in one block, subnormals, nan of either sign, and values repeated on both
    sides of each block edge (every rows_per_write rows); a 2-D column after a
    1-D one with a lead, wide enough to take several blocks of 2 rows or 1."""
    rows, width = shape
    rng = np.random.default_rng(seed)
    values = rng.normal(scale=1e3, size=(rows, width))
    awkward = rng.random((rows, width)) < 0.5
    values[awkward] = BIT_POOL[rng.integers(len(BIT_POOL), size=awkward.sum())]
    flat = values.reshape(-1)
    flat[:2] = (-0.0, 0.0)[: flat.size]
    after = np.arange(rows_per_write(width), rows, rows_per_write(width))  # each later block's first row
    values[after] = values[after - 1]
    columns = (values[:, 0], values[:, 1:]) if width > 1 else (values[:, 0],)
    header = ("a", "b") if width > 1 else ()
    buf = io.StringIO()
    market_data.write_float_rows(buf, columns, header, lead=lead)
    assert buf.getvalue() == row_wise_rows(columns, header, lead)


def test_write_float_rows_memory_is_bounded_by_cells(tmp_path, rng):
    """200 bank rows of 721 cells (1.1 MiB of floats) are written 2 rows at a
    time: a traced peak of about 0.3 MiB, not the 21 MiB of text that all
    200 rows joined in one block held."""
    labels, vectors = rng.normal(size=200), rng.normal(size=(200, 720))
    with market_data.open_for_write(tmp_path / "bank.csv") as fh:
        tracemalloc.start()
        try:
            market_data.write_float_rows(fh, (labels, vectors), lead="720,")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestSeriesReaderFaults:
    def write(self, path, rows):
        good = [f"{10.0 * i!r},{100.0 + i!r},0.0" for i in range(len(rows))]
        lines = [row if row is not None else line for row, line in zip(rows, good)]
        path.write_text("bucket_time,price,imbalance\n" + "\n".join(lines) + "\n")
        return path

    def test_bad_token_names_file_line_and_column(self, tmp_path):
        path = self.write(tmp_path / "bad.csv", [None, "10.0,abc,0.0", None])
        with pytest.raises(ValueError, match=r"bad\.csv: line 3: non-numeric price: 'abc'$"):
            PriceSeries.from_csv(path)

    def test_bad_token_past_a_block_boundary(self, tmp_path):
        rows = [None] * (BLOCK_ROWS + 10)
        rows[BLOCK_ROWS + 4] = f"{10.0 * (BLOCK_ROWS + 4)},100.0,x1"
        path = self.write(tmp_path / "bad.csv", rows)
        with pytest.raises(ValueError, match=rf"bad\.csv: line {BLOCK_ROWS + 6}: non-numeric imbalance: 'x1'"):
            PriceSeries.from_csv(path)

    def test_empty_token_is_named(self, tmp_path):
        path = self.write(tmp_path / "bad.csv", [None, ",100.0,0.0"])
        with pytest.raises(ValueError, match=r"bad\.csv: line 3: non-numeric bucket_time: ''"):
            PriceSeries.from_csv(path)

    def test_earlier_fault_is_reported_first(self, tmp_path):
        path = self.write(tmp_path / "bad.csv", [None, "10.0,inf,0.0", "20.0,abc,0.0", "30.0,1.0"])
        with pytest.raises(ValueError, match=r"bad\.csv: line 3: non-finite value in \['10.0', 'inf', '0.0'\]"):
            PriceSeries.from_csv(path)
        path = self.write(tmp_path / "bad.csv", [None, "10.0,abc,0.0", "20.0,1.0"])
        with pytest.raises(ValueError, match=r"bad\.csv: line 3: non-numeric price"):
            PriceSeries.from_csv(path)

    def test_column_count_names_the_line(self, tmp_path):
        path = self.write(tmp_path / "bad.csv", [None, None, "20.0,1.0"])
        with pytest.raises(ValueError, match=r"bad\.csv: line 4: expected 3 columns"):
            PriceSeries.from_csv(path)

    def test_uneven_spacing_still_rejected(self, tmp_path):
        path = self.write(tmp_path / "bad.csv", [None, None, "25.0,1.0,0.0"])
        with pytest.raises(ValueError, match=r"bad\.csv: bucket times are not uniformly spaced"):
            PriceSeries.from_csv(path)


def oracle_from_csv(path):
    """The per-row reader from_csv replaced (csv.reader, float() per token),
    with the fault messages of the block reader."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != HEADER:
            raise ValueError(f"{path}: expected header {','.join(HEADER)}")
        values = []
        try:
            for row in reader:
                if not row:
                    continue
                if len(row) != 3:
                    raise ValueError(f"{path}: line {reader.line_num}: expected 3 columns, got {len(row)}")
                parsed = []
                for name, token in zip(HEADER, row):
                    try:
                        parsed.append(float(token))
                    except ValueError:
                        raise ValueError(
                            f"{path}: line {reader.line_num}: non-numeric {name}: {token!r}"
                        ) from None
                if not all(map(math.isfinite, parsed)):
                    raise ValueError(f"{path}: line {reader.line_num}: non-finite value in {row}")
                values.append(parsed)
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not values:
        raise ValueError(f"{path}: empty price series")
    values = np.array(values)
    steps = np.diff(values[:, 0])
    if len(steps) and not np.allclose(steps, steps[0], rtol=0, atol=1e-9):
        raise ValueError(f"{path}: bucket times are not uniformly spaced")
    if len(steps) and not steps[0] > 0:
        raise ValueError(f"{path}: bucket times must increase, got a step of {float(steps[0])!r}")
    return values


HEADER = ("bucket_time", "price", "imbalance")
FAULTS = ["", " ", "abc", "inf", "nan", '"1.5"', " 2.5", "1_0", '"1\n5"']


@st.composite
def series_texts(draw):
    """A series CSV whose lines are mostly plain, with line-end, quoting,
    blank-line, column-count and token faults mixed in."""
    n = draw(st.integers(0, 14))
    lines = ["bucket_time,price,imbalance"]
    for i in range(n):
        tokens = [repr(10.0 * i), repr(draw(st.floats(-1e6, 1e6))), repr(draw(st.floats(-1, 1)))]
        if draw(st.integers(0, 7)) == 0:
            tokens[draw(st.integers(0, 2))] = draw(st.sampled_from(FAULTS))
        if draw(st.integers(0, 15)) == 0:
            tokens = tokens[: draw(st.sampled_from([1, 2]))] if draw(st.booleans()) else tokens + ["0"]
        lines.append(",".join(tokens))
        if draw(st.integers(0, 15)) == 0:
            lines.append(draw(st.sampled_from(["", " "])))
    ends = st.sampled_from(["\n", "\r\n", "\r"]) if draw(st.booleans()) else st.just(draw(st.sampled_from(["\n", "\r\n"])))
    text = "".join(line + draw(ends) for line in lines)
    return text[:-1] if draw(st.integers(0, 4)) == 0 else text  # at times no final newline


@settings(max_examples=400, deadline=None)
@given(series_texts(), st.sampled_from([1, 2, 3, BLOCK_ROWS]))
@example("bucket_time,price,imbalance\n0.0,1.0\n10.0,2.0,3.0,4.0\n", BLOCK_ROWS)  # widths that cancel
@example("bucket_time,price,imbalance\r0.0,1.0,2.0\r10.0,1.0,2.0\r20.0,1.0,2.0\r", BLOCK_ROWS)
@example("bucket_time,price,imbalance\r0.0,1.0,2.0\r,1.0,2.0\r,3.0,4.0\r", BLOCK_ROWS)  # lone CRs
@example(f"bucket_time,price,imbalance\n0.0,{'0' * 131072}1,2.0\n", BLOCK_ROWS)  # past csv's field limit
@example('bucket_time,price,imbalance\n0.0,"1.5",2.0\n"10.0","1,5",2.0\n', BLOCK_ROWS)
@example("bucket_time,price,imbalance\n0.0,1.0,2.0\n10.0,1.0,2.0", BLOCK_ROWS)  # no final newline
def test_block_reader_matches_per_row_reader(tmp_path_factory, text, block_rows):
    assert_reads_as_oracle(tmp_path_factory, text, BLOCK_ROWS=block_rows)


@settings(max_examples=200, deadline=None)
@given(series_texts(), st.sampled_from([1, 40, 100, 250]), st.sampled_from([1, 3]))
def test_text_bounded_blocks_match_per_row_reader(tmp_path_factory, text, block_chars, first_read):
    """Blocks cut short by BLOCK_CHARS, down to one line each, read as whole ones."""
    assert_reads_as_oracle(tmp_path_factory, text, BLOCK_CHARS=block_chars, _READ_LINES=first_read)


def assert_reads_as_oracle(tmp_path_factory, text, **constants):
    """PriceSeries.from_csv of text, with the given market_data constants, gives
    the oracle's values bit for bit or its message."""
    path = tmp_path_factory.mktemp("series") / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = oracle_from_csv(path)
    except ValueError as exc:
        expected = str(exc)
    with pytest.MonkeyPatch.context() as patch:
        for name, value in constants.items():
            patch.setattr(market_data, name, value)
        try:
            series = PriceSeries.from_csv(path)
        except ValueError as exc:
            assert str(exc) == expected
            return
    assert not isinstance(expected, str), expected
    got = np.column_stack([series.bucket_times, series.prices, series.imbalances])
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("token", ["\x1c2.5", "2.5\x1f", "1e999", "1_0", "١"])
def test_tokens_loadtxt_and_float_read_apart(tmp_path, token):
    """np.loadtxt strips \\x1c-\\x1f and reads 1e999 as inf; float() refuses the
    first, and 1_0 and Arabic-Indic digits, which loadtxt refuses, float() reads."""
    path = tmp_path / "s.csv"
    path.write_bytes(f"bucket_time,price,imbalance\n0.0,1.0,0.0\n10.0,{token},0.0\n".encode("utf-8"))
    try:
        expected = oracle_from_csv(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            PriceSeries.from_csv(path)
        assert str(info.value) == str(exc)
        return
    assert PriceSeries.from_csv(path).prices.tobytes() == expected[:, 1].tobytes()
