import io

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

from conftest import make_ticks, series_from_prices, tick_csv

EXTENDED_HEADER = "timestamp,price,bid_price_1,bid_vol_1,bid_price_2,bid_vol_2,ask_price_1,ask_vol_1\n"


class TestParseTicks:
    def test_empty_stream_yields_empty_sequence(self):
        ticks = parse_ticks(io.StringIO(""))
        assert isinstance(ticks, TickTable)
        assert len(ticks) == 0

    def test_header_only_yields_empty_sequence(self):
        assert len(parse_ticks(tick_csv(""))) == 0

    def test_single_basic_row(self):
        ticks = parse_ticks(tick_csv("12.5,101.25,30,10\n"))
        assert len(ticks) == 1
        assert ticks.timestamps[0] == 12.5
        assert ticks.prices[0] == 101.25
        assert ticks.imbalances[0] == (30.0 - 10.0) / (30.0 + 10.0)

    def test_columns_are_read_only(self):
        ticks = parse_ticks(tick_csv("1,100,1,1\n"))
        for column in (ticks.timestamps, ticks.prices, ticks.imbalances):
            assert column.dtype == np.float64
            with pytest.raises(ValueError):
                column[0] = 0.0

    def test_non_numeric_price_names_line(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_ticks(tick_csv("1,100,1,1\nbad_time_ok,oops,1,1\n".replace("bad_time_ok", "2")))

    def test_decreasing_timestamp_rejected(self):
        with pytest.raises(ValueError, match="line 3.*decreased"):
            parse_ticks(tick_csv("5,100,1,1\n4,100,1,1\n"))

    def test_equal_timestamps_allowed(self):
        assert len(parse_ticks(tick_csv("5,100,1,1\n5,101,1,1\n"))) == 2

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_ticks(io.StringIO("1,100,1,1\n"))

    def test_wrong_column_count_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_ticks(tick_csv("1,100,1\n"))

    def test_nonpositive_price_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_ticks(tick_csv("1,0,1,1\n"))

    def test_extended_form(self):
        row = "3.0,100.5,100.4,7,100.3,2,100.6,4\n"
        ticks = parse_ticks(io.StringIO(EXTENDED_HEADER + row))
        assert ticks.imbalances[0] == ((7.0 + 2.0) - 4.0) / ((7.0 + 2.0) + 4.0)

    def test_extended_form_blank_level(self):
        row = "3.0,100.5,100.4,7,,,100.6,4\n"
        ticks = parse_ticks(io.StringIO(EXTENDED_HEADER + row))
        assert ticks.imbalances[0] == (7.0 - 4.0) / (7.0 + 4.0)

    def test_extended_gap_level_allowed(self):
        row = "3.0,100.5,,,100.3,2,100.6,4\n"
        ticks = parse_ticks(io.StringIO(EXTENDED_HEADER + row))
        assert ticks.imbalances[0] == (2.0 - 4.0) / (2.0 + 4.0)

    def test_extended_half_empty_level_rejected(self):
        with pytest.raises(ValueError, match="line 2: half-empty bid level 2"):
            parse_ticks(io.StringIO(EXTENDED_HEADER + "3.0,100.5,100.4,7,100.3,,100.6,4\n"))

    def test_extended_unsorted_bids_rejected(self):
        row = "3.0,100.5,100.3,7,100.4,2,100.6,4\n"
        with pytest.raises(ValueError, match="line 2.*descending"):
            parse_ticks(io.StringIO(EXTENDED_HEADER + row))

    def test_extended_unsorted_bids_across_gap_rejected(self):
        header = "timestamp,price,bid_price_1,bid_vol_1,bid_price_2,bid_vol_2,bid_price_3,bid_vol_3,ask_price_1,ask_vol_1\n"
        row = "3.0,100.5,100.3,7,,,100.4,2,100.6,4\n"
        with pytest.raises(ValueError, match="line 2: bid prices must be strictly descending"):
            parse_ticks(io.StringIO(header + row))

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError, match=r"line 3: ask volume must be >= 0, got -2\.0"):
            parse_ticks(tick_csv("1,100,1,1\n2,100,1,-2\n"))
        row = "3.0,100.5,100.4,-1e308,100.3,-1e308,100.6,1e308\n"  # totals of opposite sign overflow
        with pytest.raises(ValueError, match=r"line 2: bid volume must be >= 0, got -1e\+308"):
            parse_ticks(io.StringIO(EXTENDED_HEADER + row))

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
    def test_non_finite_value_names_line(self, row, column):
        with pytest.raises(ValueError, match=f"line 3: non-finite {column}: "):
            parse_ticks(tick_csv(f"1,100,1,1\n{row}\n"))

    @pytest.mark.parametrize(
        "row",
        ["3.0,100.5,100.4,nan,,,100.6,4", "3.0,100.5,100.4,7,,,inf,4", "3.0,100.5,100.4,inf,100.3,-inf,100.6,4"],
    )
    def test_extended_non_finite_level_names_line(self, row):
        with pytest.raises(ValueError, match="line 2: non-finite (bid_vol_1|ask_price_1): "):
            parse_ticks(io.StringIO(EXTENDED_HEADER + row + "\n"))

    def test_overflowing_volume_total_rejected(self):
        with pytest.raises(ValueError, match="line 2: non-finite book volume total"):
            parse_ticks(tick_csv("1,100,1e308,1e308\n"))
        with pytest.raises(ValueError, match="line 2: non-finite book volume total: bid inf"):
            parse_ticks(io.StringIO(EXTENDED_HEADER + "3.0,100.5,100.4,1e308,100.3,1e308,100.6,4\n"))

    @pytest.mark.parametrize(
        "row, side",
        [("3.0,100.5,100.4,7,100.4,2,100.6,4", "bid"), ("3.0,100.5,100.4,7,,,100.6,4,100.6,1", "ask")],
    )
    def test_equal_level_prices_rejected(self, row, side):
        header = EXTENDED_HEADER.strip() + ("\n" if side == "bid" else ",ask_price_2,ask_vol_2\n")
        with pytest.raises(ValueError, match=f"line 2: {side} prices must be strictly"):
            parse_ticks(io.StringIO(header + row + "\n"))

    def test_csv_reader_error_names_line(self):
        huge = "1" * 200_000  # beyond the csv module's field size limit
        with pytest.raises(ValueError, match="line 3: field larger than field limit"):
            parse_ticks(tick_csv(f"1,100,1,1\n2,{huge},1,1\n"))

    def test_blank_timestamp_is_non_numeric(self):
        with pytest.raises(ValueError, match="line 2: non-numeric timestamp: ''"):
            parse_ticks(tick_csv(",100,1,1\n"))

    def test_earlier_fault_reported_before_column_count(self):
        with pytest.raises(ValueError, match="line 3: tick price must be > 0"):
            parse_ticks(tick_csv("1,100,1,1\n2,0,1,1\n3,100,1\n"))

    def test_accepts_bytes(self):
        blob = b"timestamp,price,bid_vol_total,ask_vol_total\n1,100,1,1\n"
        assert len(parse_ticks(blob)) == 1


_FUZZ_HEADERS = [
    "timestamp,price,bid_vol_total,ask_vol_total",
    "timestamp,price,bid_price_1,bid_vol_1,bid_price_2,bid_vol_2,ask_price_1,ask_vol_1",
    "timestamp,price,ask_price_1,ask_vol_1",
]


class TestParseTicksFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        header=st.sampled_from(_FUZZ_HEADERS),
        body=st.text(alphabet="0123456789.,-+eEnaifINF \"\n\r\t_x", max_size=300),
    )
    def test_any_text_gives_table_or_value_error(self, header, body):
        try:
            ticks = parse_ticks(header + "\n" + body)
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
            parse_ticks(header + "\n" + body + "\n")
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["price", "imbalance"])
    def test_non_finite_values_rejected(self, bad, field):
        prices, imbalances = np.array([1.0, 2.0, 3.0]), np.zeros(3)
        (prices if field == "price" else imbalances)[1] = bad
        with pytest.raises(ValueError, match=f"non-finite {field} .* bucket 1"):
            PriceSeries(0.0, 10.0, prices, imbalances)

    @pytest.mark.parametrize("row", ["20.0,nan,0.0", "20.0,100.0,inf", "20.0,100.0,-inf", "nan,100.0,0.0"])
    def test_csv_non_finite_value_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "series.csv"
        path.write_text(f"bucket_time,price,imbalance\n0.0,100.0,0.0\n10.0,100.5,0.1\n{row}\n")
        with pytest.raises(ValueError, match=r"series\.csv line 4: non-finite"):
            PriceSeries.from_csv(path)
