import csv
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lstrader import market_data
from lstrader.market_data import (
    MAX_BUCKETS,
    PriceSeries,
    TickTable,
    bucket_index,
    coarsen,
    imbalance,
    parse_ticks,
)

from conftest import make_ticks, series_from_prices, temp_csv, tick_csv, write_csv

EXTENDED_HEADER = "timestamp,price,bid_price_1,bid_vol_1,bid_price_2,bid_vol_2,ask_price_1,ask_vol_1\n"


class TestParseTicks:
    def test_empty_stream_yields_empty_sequence(self, tmp_path):
        ticks = parse_ticks(write_csv(tmp_path, ""))
        assert isinstance(ticks, TickTable)
        assert len(ticks) == 0

    def test_header_only_yields_empty_sequence(self, tmp_path):
        assert len(parse_ticks(tick_csv(tmp_path, ""))) == 0

    def test_single_basic_row(self, tmp_path):
        ticks = parse_ticks(tick_csv(tmp_path, "12.5,101.25,30,10\n"))
        assert len(ticks) == 1
        assert ticks.timestamps[0] == 12.5
        assert ticks.prices[0] == 101.25
        assert ticks.imbalances[0] == (30.0 - 10.0) / (30.0 + 10.0)

    def test_columns_are_read_only(self, tmp_path):
        ticks = parse_ticks(tick_csv(tmp_path, "1,100,1,1\n"))
        for column in (ticks.timestamps, ticks.prices, ticks.imbalances):
            assert column.dtype == np.float64
            with pytest.raises(ValueError):
                column[0] = 0.0

    def test_non_numeric_price_names_line(self, tmp_path):
        with pytest.raises(ValueError, match="ticks.csv: line 3"):
            parse_ticks(tick_csv(tmp_path, "1,100,1,1\nbad_time_ok,oops,1,1\n".replace("bad_time_ok", "2")))

    def test_decreasing_timestamp_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="ticks.csv: line 3.*decreased"):
            parse_ticks(tick_csv(tmp_path, "5,100,1,1\n4,100,1,1\n"))

    def test_equal_timestamps_allowed(self, tmp_path):
        assert len(parse_ticks(tick_csv(tmp_path, "5,100,1,1\n5,101,1,1\n"))) == 2

    def test_missing_header_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="ticks.csv: line 1"):
            parse_ticks(write_csv(tmp_path, "1,100,1,1\n"))

    def test_wrong_column_count_names_line(self, tmp_path):
        with pytest.raises(ValueError, match="ticks.csv: line 2"):
            parse_ticks(tick_csv(tmp_path, "1,100,1\n"))

    def test_nonpositive_price_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="ticks.csv: line 2"):
            parse_ticks(tick_csv(tmp_path, "1,0,1,1\n"))

    def test_extended_form(self, tmp_path):
        row = "3.0,100.5,100.4,7,100.3,2,100.6,4\n"
        ticks = parse_ticks(write_csv(tmp_path, EXTENDED_HEADER + row))
        assert ticks.imbalances[0] == ((7.0 + 2.0) - 4.0) / ((7.0 + 2.0) + 4.0)

    def test_extended_form_blank_level(self, tmp_path):
        row = "3.0,100.5,100.4,7,,,100.6,4\n"
        ticks = parse_ticks(write_csv(tmp_path, EXTENDED_HEADER + row))
        assert ticks.imbalances[0] == (7.0 - 4.0) / (7.0 + 4.0)

    def test_extended_gap_level_allowed(self, tmp_path):
        row = "3.0,100.5,,,100.3,2,100.6,4\n"
        ticks = parse_ticks(write_csv(tmp_path, EXTENDED_HEADER + row))
        assert ticks.imbalances[0] == (2.0 - 4.0) / (2.0 + 4.0)

    def test_extended_half_empty_level_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="ticks.csv: line 2: half-empty bid level 2"):
            parse_ticks(write_csv(tmp_path, EXTENDED_HEADER + "3.0,100.5,100.4,7,100.3,,100.6,4\n"))

    def test_extended_unsorted_bids_rejected(self, tmp_path):
        row = "3.0,100.5,100.3,7,100.4,2,100.6,4\n"
        with pytest.raises(ValueError, match="ticks.csv: line 2.*descending"):
            parse_ticks(write_csv(tmp_path, EXTENDED_HEADER + row))

    def test_extended_unsorted_bids_across_gap_rejected(self, tmp_path):
        header = "timestamp,price,bid_price_1,bid_vol_1,bid_price_2,bid_vol_2,bid_price_3,bid_vol_3,ask_price_1,ask_vol_1\n"
        row = "3.0,100.5,100.3,7,,,100.4,2,100.6,4\n"
        with pytest.raises(ValueError, match="ticks.csv: line 2: bid prices must be strictly descending"):
            parse_ticks(write_csv(tmp_path, header + row))

    def test_negative_volume_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"ticks\.csv: line 3: ask volume must be >= 0, got -2\.0"):
            parse_ticks(tick_csv(tmp_path, "1,100,1,1\n2,100,1,-2\n"))
        row = "3.0,100.5,100.4,-1e308,100.3,-1e308,100.6,1e308\n"  # totals of opposite sign overflow
        with pytest.raises(ValueError, match=r"ticks\.csv: line 2: bid volume must be >= 0, got -1e\+308"):
            parse_ticks(write_csv(tmp_path, EXTENDED_HEADER + row))

    @pytest.mark.parametrize(
        "row, column",
        [
            ("nan,100,1,1", "timestamp"),
            ("inf,100,1,1", "timestamp"),
            ("2,inf,1,1", "price"),
            ("2,NaN,1,1", "price"),
            ("2,100,nan,1", "bid_vol_total"),
            ("2,100,1,-inf", "ask_vol_total"),
            ("2,100,inf,-inf", "bid_vol_total"),
        ],
    )
    def test_non_finite_value_names_line(self, tmp_path, row, column):
        with pytest.raises(ValueError, match=f"ticks.csv: line 3: non-finite {column}: "):
            parse_ticks(tick_csv(tmp_path, f"1,100,1,1\n{row}\n"))

    @pytest.mark.parametrize(
        "row",
        ["3.0,100.5,100.4,nan,,,100.6,4", "3.0,100.5,100.4,7,,,inf,4", "3.0,100.5,100.4,inf,100.3,-inf,100.6,4"],
    )
    def test_extended_non_finite_level_names_line(self, tmp_path, row):
        with pytest.raises(ValueError, match="ticks.csv: line 2: non-finite (bid_vol_1|ask_price_1): "):
            parse_ticks(write_csv(tmp_path, EXTENDED_HEADER + row + "\n"))

    def test_overflowing_volume_total_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="ticks.csv: line 2: non-finite book volume total"):
            parse_ticks(tick_csv(tmp_path, "1,100,1e308,1e308\n"))
        with pytest.raises(ValueError, match="ticks.csv: line 2: non-finite book volume total: bid inf"):
            parse_ticks(write_csv(tmp_path, EXTENDED_HEADER + "3.0,100.5,100.4,1e308,100.3,1e308,100.6,4\n"))

    @pytest.mark.parametrize(
        "row, side",
        [("3.0,100.5,100.4,7,100.4,2,100.6,4", "bid"), ("3.0,100.5,100.4,7,,,100.6,4,100.6,1", "ask")],
    )
    def test_equal_level_prices_rejected(self, tmp_path, row, side):
        header = EXTENDED_HEADER.strip() + ("\n" if side == "bid" else ",ask_price_2,ask_vol_2\n")
        with pytest.raises(ValueError, match=f"ticks.csv: line 2: {side} prices must be strictly"):
            parse_ticks(write_csv(tmp_path, header + row + "\n"))

    def test_csv_reader_error_names_line(self, tmp_path):
        huge = "1" * 200_000  # beyond the csv module's field size limit
        with pytest.raises(ValueError, match="ticks.csv: line 3: field larger than field limit"):
            parse_ticks(tick_csv(tmp_path, f"1,100,1,1\n2,{huge},1,1\n"))

    def test_header_csv_error_names_line(self, tmp_path):
        path = write_csv(tmp_path, f"timestamp,price,{'x' * 131073}\n1,100\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 1: field larger than field limit"):
            parse_ticks(path)

    def test_lone_cr_str_equals_newline_str(self, tmp_path):
        text = EXTENDED_HEADER + "1,100,99.5,2,,,100.5,1\n2,100,99.5,2,99,1,,\n3,101,,,,,,\n"
        want = parse_ticks(write_csv(tmp_path, text, "lf.csv"))
        got = parse_ticks(write_csv(tmp_path, text.replace("\n", "\r"), "cr.csv"))
        for name in ("timestamps", "prices", "imbalances"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_blank_timestamp_is_non_numeric(self, tmp_path):
        with pytest.raises(ValueError, match="ticks.csv: line 2: non-numeric timestamp: ''"):
            parse_ticks(tick_csv(tmp_path, ",100,1,1\n"))

    def test_earlier_fault_reported_before_column_count(self, tmp_path):
        with pytest.raises(ValueError, match="ticks.csv: line 3: tick price must be > 0"):
            parse_ticks(tick_csv(tmp_path, "1,100,1,1\n2,0,1,1\n3,100,1\n"))


_FUZZ_HEADERS = [
    "timestamp,price,bid_vol_total,ask_vol_total",
    "timestamp,price,bid_price_1,bid_vol_1,bid_price_2,bid_vol_2,ask_price_1,ask_vol_1",
    "timestamp,price,ask_price_1,ask_vol_1",
]


def _read_peak(read, path):
    """(result or ValueError message, tracemalloc peak in bytes) of read(path)."""
    tracemalloc.start()
    try:
        result = read(path)
    except ValueError as exc:
        result = str(exc)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return result, peak


class TestOverLongLine:
    """A line longer than any row of fields within csv's field limit is refused
    without being held whole: the 8 MiB token below used to be read into one
    string (and a second for csv's field) before csv refused it."""

    TOKEN = "1" * (8 * 2**20)

    def test_tick_line_refused_within_a_bounded_peak(self, tmp_path):
        path = tmp_path / "ticks.csv"
        path.write_text(f"timestamp,price,bid_vol_total,ask_vol_total\n1,100,1,1\n2,{self.TOKEN},1,1\n3,100,1,1\n")
        message, peak = _read_peak(parse_ticks, path)
        assert message == f"{path}: line 3: field larger than field limit ({csv.field_size_limit()})"
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_wide_tick_field_refused_within_one_piece(self, tmp_path):
        """At 60 levels a side a line may run to 242 pieces before the line cap;
        a piece with no delimiter is refused at once. Reading the line whole
        peaked at 80.3 MiB."""
        header = ["timestamp", "price"] + [f"{side}_{k}_{i}" for side in ("bid", "ask")
                                           for i in range(1, 61) for k in ("price", "vol")]
        levels = ",".join([f"{900 - i},1" for i in range(60)] + [f"{1100 + i},1" for i in range(60)])
        path = tmp_path / "ticks.csv"
        path.write_text(f"{','.join(header)}\n1,1000,{levels}\n2,{'1' * (40 * 2**20)},{levels}\n")
        message, peak = _read_peak(parse_ticks, path)
        assert message == f"{path}: line 3: field larger than field limit ({csv.field_size_limit()})"
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_header_field_refused_within_a_bounded_peak(self, tmp_path):
        """The header is read through the same pieces: it peaked at 16.1 MiB."""
        path = tmp_path / "ticks.csv"
        path.write_text(f"timestamp,price,bid_vol_total,ask_vol_total{self.TOKEN}\n1,100,1,1\n")
        message, peak = _read_peak(parse_ticks, path)
        assert message == f"{path}: line 1: field larger than field limit ({csv.field_size_limit()})"
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_series_header_field_refused_within_a_bounded_peak(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(f"bucket_time,price,imbalance{self.TOKEN}\n0.0,100.0,0.0\n")
        message, peak = _read_peak(PriceSeries.from_csv, path)
        assert message == f"{path}: line 1: field larger than field limit ({csv.field_size_limit()})"
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_series_line_refused_within_a_bounded_peak(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(f"bucket_time,price,imbalance\n0.0,100.0,0.0\n10.0,{self.TOKEN},0.0\n")
        message, peak = _read_peak(PriceSeries.from_csv, path)
        assert message == f"{path}: line 3: field larger than field limit ({csv.field_size_limit()})"
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_earlier_fault_still_reported_first(self, tmp_path):
        path = tmp_path / "ticks.csv"
        path.write_text(f"timestamp,price,bid_vol_total,ask_vol_total\n1,0,1,1\n2,{self.TOKEN},1,1\n")
        message, _ = _read_peak(parse_ticks, path)
        assert message == f"{path}: line 2: tick price must be > 0, got 0.0"

    def test_fields_at_the_limit_still_parse(self, tmp_path):
        """Four fields of exactly the limit (whitespace-padded numbers), quoted,
        make the longest plain row; it reads as it did before the cap."""
        limit = csv.field_size_limit()
        cells = [f'"{tok.rjust(limit)}"' for tok in ("1", "100", "3", "1")]
        path = tmp_path / "ticks.csv"
        path.write_text("timestamp,price,bid_vol_total,ask_vol_total\n" + ",".join(cells) + "\n2,101,1,1\n")
        ticks, _ = _read_peak(parse_ticks, path)
        assert list(ticks.prices) == [100.0, 101.0]
        assert list(ticks.imbalances) == [0.5, 0.0]
        # the longest line a row of four fields within the limit can take: each
        # field is `limit` doubled quotes; csv splits it, the converter names it
        path.write_text("timestamp,price,bid_vol_total,ask_vol_total\n"
                        + ",".join(['"' + '""' * limit + '"'] * 4) + "\n")
        message, _ = _read_peak(parse_ticks, path)
        assert message.startswith(f"{path}: line 2: non-numeric timestamp: '\"\"\"")

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_end_at_a_piece_boundary(self, tmp_path, end):
        """Lines whose \\r is the last character of a piece (at a field limit of
        14, pieces of 31 characters) read as they do with \\n line ends, and a
        later fault names the same line."""
        def row(values, widths):  # quoted, space-padded fields
            return ",".join(f'"{v.rjust(w)}"' for v, w in zip(values, widths))

        rows = [row(("1", "100", "1", "1"), (5, 5, 5, 4)),  # 30 characters, then the \r
                row(("2", "101", "3", "1"), (14, 14, 14, 8)),  # 61
                "3,102,1,3"]
        assert [len(r) for r in rows[:2]] == [30, 61]
        text = "timestamp,price,bid_vol_total,ask_vol_total\n" + "\n".join(rows) + "\n"
        old = csv.field_size_limit(14)
        try:
            want = parse_ticks(write_csv(tmp_path, text, "lf.csv"))
            path = tmp_path / "ticks.csv"
            path.write_bytes(text.replace("\n", end).encode())
            got, _ = _read_peak(parse_ticks, path)
            path.write_bytes((text + "4,0,1,1\n").replace("\n", end).encode())
            message, _ = _read_peak(parse_ticks, path)
        finally:
            csv.field_size_limit(old)
        assert list(want.prices) == [100.0, 101.0, 102.0]
        for name in ("timestamps", "prices", "imbalances"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert message == f"{path}: line 5: tick price must be > 0, got 0.0"


class TestParseTicksFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        header=st.sampled_from(_FUZZ_HEADERS),
        body=st.text(alphabet="0123456789.,-+eEnaifINF \"\n\r\t_x", max_size=300),
    )
    def test_any_text_gives_table_or_value_error(self, header, body):
        try:
            with temp_csv(header + "\n" + body) as path:
                ticks = parse_ticks(path)
        except ValueError:
            return
        assert isinstance(ticks, TickTable)
        assert np.isfinite(ticks.imbalances).all() and (np.abs(ticks.imbalances) <= 1).all()

    @settings(max_examples=300, deadline=None)
    @given(
        header=st.sampled_from(_FUZZ_HEADERS),
        values=st.lists(
            st.sampled_from([np.inf, -np.inf, np.nan, 1e308, -1e308, 0.0, -0.0, 1.0]) | st.floats(),
            min_size=1,
            max_size=40,
        ),
    )
    def test_any_float_tokens_give_table_or_value_error(self, header, values):
        width = len(header.split(","))
        rows = [values[i : i + width] for i in range(0, len(values), width)]
        body = "\n".join(",".join(repr(v) for v in row) for row in rows)
        try:
            with temp_csv(header + "\n" + body + "\n") as path:
                parse_ticks(path)
        except ValueError:
            pass


class TestImbalance:
    def test_bid_heavy(self):
        assert imbalance(30, 10) == 0.5

    def test_balanced(self):
        assert imbalance(7, 7) == 0.0

    def test_ask_only(self):
        assert imbalance(0, 10) == -1.0

    def test_both_zero_is_neutral(self):
        assert imbalance(0, 0) == 0.0

    def test_elementwise(self):
        assert list(imbalance(np.array([30.0, 0.0, 1.0]), np.array([10.0, 0.0, 3.0]))) == [0.5, 0.0, -0.5]

    @given(
        bid=st.floats(min_value=0, max_value=1e9, allow_nan=False),
        ask=st.floats(min_value=0, max_value=1e9, allow_nan=False),
    )
    def test_antisymmetric_and_bounded(self, bid, ask):
        forward = imbalance(bid, ask)
        swapped = imbalance(ask, bid)
        assert forward == -swapped
        assert -1.0 <= forward <= 1.0


class TestCoarsen:
    def test_maps_to_closest_future_point(self):
        series = coarsen(make_ticks((12.4, 100.0)), interval=10)
        assert series.start_time == 20.0

    def test_grid_point_maps_to_itself(self):
        series = coarsen(make_ticks((10.0, 100.0)), interval=10)
        assert series.start_time == 10.0

    def test_last_tick_wins_within_bucket(self):
        series = coarsen(make_ticks((3, 100.0), (7, 101.0)), interval=10)
        assert len(series) == 1
        assert series.prices[0] == 101.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            coarsen(make_ticks(), interval=10)

    def test_gaps_carry_forward(self):
        ticks = make_ticks((10, 100.0, 3, 1), (50, 105.0))
        series = coarsen(ticks, interval=10)
        assert len(series) == 5
        assert list(series.prices) == [100.0, 100.0, 100.0, 100.0, 105.0]
        assert series.imbalances[2] == 0.5  # carried forward with the price

    def test_length_covers_every_bucket(self):
        ticks = make_ticks(*((t, 100.0 + t) for t in (1.0, 14.0, 14.5, 97.0)))
        series = coarsen(ticks, interval=10)
        first = bucket_index(1.0, 10) * 10
        last = bucket_index(97.0, 10) * 10
        assert len(series) == int((last - first) / 10) + 1

    def test_idempotent_on_aligned_series(self):
        ticks = make_ticks(*((10.0 * i, 100.0 + i, 2, 1) for i in range(1, 8)))
        once = coarsen(ticks, interval=10)
        again = coarsen(
            make_ticks(
                *(
                    (t, p, 1 + r, 1 - r)
                    for t, p, r in zip(once.bucket_times, once.prices, once.imbalances)
                )
            ),
            interval=10,
        )
        assert np.array_equal(once.prices, again.prices)
        assert np.allclose(once.imbalances, again.imbalances, atol=1e-12)
        assert once.start_time == again.start_time

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(ValueError):
            coarsen(make_ticks((20, 100.0), (5, 100.0)), interval=10)

    def test_absurd_gap_refused_before_allocating(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("coarsen allocated the bucket grid")

        monkeypatch.setattr(market_data.np, "full", no_allocation)
        ticks = make_ticks((0.0, 100.0), (1e12, 101.0))
        with pytest.raises(ValueError, match=r"t=0\.0 to t=1000000000000\.0 .*more than 100000000"):
            coarsen(ticks, interval=10)
        assert MAX_BUCKETS == 10**8

    def test_overflowing_bucket_number_refused(self, monkeypatch):
        monkeypatch.setattr(market_data.np, "full", None)
        with pytest.raises(ValueError, match="span inf buckets"):
            coarsen(make_ticks((1.0, 100.0), (1e300, 101.0)), interval=1e-10)

    def test_last_tick_wins_across_many_buckets(self):
        ts = np.array([1.0, 2.0, 10.0, 10.0, 31.0, 39.5, 40.0, 40.0])
        ticks = TickTable(ts, 100.0 + np.arange(len(ts)), np.linspace(-1, 1, len(ts)))
        series = coarsen(ticks, interval=10)
        assert list(series.prices) == [103.0, 103.0, 103.0, 107.0]
        assert list(series.imbalances) == [ticks.imbalances[3]] * 3 + [1.0]


class TestTickTable:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            TickTable(np.zeros(2), np.ones(3), np.zeros(3))

    @pytest.mark.parametrize("column", ["timestamps", "prices", "imbalances"])
    def test_non_finite_rejected(self, column):
        columns = {"timestamps": np.arange(3.0), "prices": np.ones(3), "imbalances": np.zeros(3)}
        columns[column][2] = np.nan
        with pytest.raises(ValueError, match=f"non-finite {column[:-1]} nan at tick 2"):
            TickTable(**columns)

    def test_copies_its_input(self):
        ts = np.arange(3.0)
        table = TickTable(ts, np.ones(3), np.zeros(3))
        ts[0] = 5.0  # the caller's array stays writable
        assert table.timestamps[0] == 0.0


class TestPriceSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PriceSeries(0.0, 10.0, np.ones(3), np.zeros(2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PriceSeries(0.0, 10.0, np.array([]), np.array([]))

    def test_immutable(self):
        series = series_from_prices([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            series.prices[0] = 9.0

    def test_csv_round_trip(self, tmp_path):
        series = series_from_prices([100.0, 100.1, 99.95], imbalances=[0.25, -0.5, 0.0])
        path = tmp_path / "series.csv"
        series.to_csv(path)
        loaded = PriceSeries.from_csv(path)
        assert np.array_equal(series.prices, loaded.prices)
        assert np.array_equal(series.imbalances, loaded.imbalances)
        assert loaded.interval == 10.0
        assert loaded.start_time == 0.0

    def test_slice_shifts_start_time(self):
        series = series_from_prices(np.arange(10.0))
        part = series.slice(3, 7)
        assert part.start_time == 30.0
        assert list(part.prices) == [3.0, 4.0, 5.0, 6.0]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            PriceSeries.from_csv(path)

    @pytest.mark.parametrize("times, step", [((10.0, 10.0), "0.0"), ((20.0, 10.0, 0.0), "-10.0")])
    def test_non_increasing_times_name_file(self, tmp_path, times, step):
        path = tmp_path / "flat.csv"
        path.write_text("bucket_time,price,imbalance\n" + "".join(f"{t},100.0,0.0\n" for t in times))
        with pytest.raises(ValueError, match=f"flat.csv: bucket times must increase, got a step of {step}"):
            PriceSeries.from_csv(path)

    def test_header_csv_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"bucket_time,{'x' * 131073}\n0.0,100.0,0.0\n")
        with pytest.raises(ValueError, match="bad.csv: line 1: field larger than field limit"):
            PriceSeries.from_csv(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["price", "imbalance"])
    def test_non_finite_values_rejected(self, bad, field):
        prices, imbalances = np.array([1.0, 2.0, 3.0]), np.zeros(3)
        (prices if field == "price" else imbalances)[1] = bad
        with pytest.raises(ValueError, match=f"non-finite {field} .* bucket 1"):
            PriceSeries(0.0, 10.0, prices, imbalances)

    @pytest.mark.parametrize("start, interval, n", [(np.nan, 10.0, 1), (0.0, np.inf, 1), (1e308, 1e308, 2)])
    def test_non_finite_bucket_times_rejected(self, start, interval, n):
        with pytest.raises(ValueError, match="bucket times must be finite"):
            PriceSeries(start, interval, np.ones(n), np.zeros(n))

    @pytest.mark.parametrize("row", ["20.0,nan,0.0", "20.0,100.0,inf", "20.0,100.0,-inf", "nan,100.0,0.0"])
    def test_csv_non_finite_value_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "series.csv"
        path.write_text(f"bucket_time,price,imbalance\n0.0,100.0,0.0\n10.0,100.5,0.1\n{row}\n")
        with pytest.raises(ValueError, match=r"series\.csv: line 4: non-finite"):
            PriceSeries.from_csv(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_json_refuses_non_finite_floats(tmp_path, bad):
    """Strict JSON has no NaN or Infinity token, so no JSON file holds one."""
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        market_data.write_json(tmp_path / "x.json", {"threshold": bad})
