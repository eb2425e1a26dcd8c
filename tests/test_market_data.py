import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lstrader import market_data
from lstrader.market_data import (
    MAX_BUCKETS,
    BookSnapshot,
    PriceSeries,
    TickRecord,
    bucket_index,
    coarsen,
    imbalance,
    parse_ticks,
)

from conftest import make_book, make_tick, series_from_prices, tick_csv


class TestParseTicks:
    def test_empty_stream_yields_empty_sequence(self):
        assert parse_ticks(io.StringIO("")) == []

    def test_header_only_yields_empty_sequence(self):
        assert parse_ticks(tick_csv("")) == []

    def test_single_basic_row(self):
        ticks = parse_ticks(tick_csv("12.5,101.25,30,10\n"))
        assert len(ticks) == 1
        tick = ticks[0]
        assert tick.timestamp == 12.5
        assert tick.price == 101.25
        assert tick.bid_volumes == ((101.25, 30.0),)
        assert tick.ask_volumes == ((101.25, 10.0),)

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
        header = "timestamp,price,bid_price_1,bid_vol_1,bid_price_2,bid_vol_2,ask_price_1,ask_vol_1\n"
        row = "3.0,100.5,100.4,7,100.3,2,100.6,4\n"
        ticks = parse_ticks(io.StringIO(header + row))
        assert ticks[0].bid_volumes == ((100.4, 7.0), (100.3, 2.0))
        assert ticks[0].ask_volumes == ((100.6, 4.0),)

    def test_extended_form_blank_level(self):
        header = "timestamp,price,bid_price_1,bid_vol_1,bid_price_2,bid_vol_2,ask_price_1,ask_vol_1\n"
        row = "3.0,100.5,100.4,7,,,100.6,4\n"
        ticks = parse_ticks(io.StringIO(header + row))
        assert ticks[0].bid_volumes == ((100.4, 7.0),)

    def test_extended_unsorted_bids_rejected(self):
        header = "timestamp,price,bid_price_1,bid_vol_1,bid_price_2,bid_vol_2,ask_price_1,ask_vol_1\n"
        row = "3.0,100.5,100.3,7,100.4,2,100.6,4\n"
        with pytest.raises(ValueError, match="line 2.*descending"):
            parse_ticks(io.StringIO(header + row))

    def test_accepts_bytes(self):
        blob = b"timestamp,price,bid_vol_total,ask_vol_total\n1,100,1,1\n"
        assert len(parse_ticks(blob)) == 1


class TestImbalance:
    def test_bid_heavy(self):
        assert imbalance(make_book(30, 10)) == 0.5

    def test_balanced(self):
        assert imbalance(make_book(7, 7)) == 0.0

    def test_ask_only(self):
        assert imbalance(make_book(0, 10)) == -1.0

    def test_both_zero_is_neutral(self):
        assert imbalance(make_book(0, 0)) == 0.0

    def test_depth_truncation(self):
        book = BookSnapshot(
            bids=((101, 5), (100, 50)),
            asks=((102, 5), (103, 0)),
        )
        assert imbalance(book, depth=1) == 0.0
        assert imbalance(book, depth=2) == pytest.approx((55 - 5) / 60)

    @given(
        bid=st.floats(min_value=0, max_value=1e9, allow_nan=False),
        ask=st.floats(min_value=0, max_value=1e9, allow_nan=False),
    )
    def test_antisymmetric_and_bounded(self, bid, ask):
        forward = imbalance(make_book(bid, ask))
        swapped = imbalance(make_book(ask, bid))
        assert forward == -swapped
        assert -1.0 <= forward <= 1.0


class TestCoarsen:
    def test_maps_to_closest_future_point(self):
        series = coarsen([make_tick(12.4, 100.0)], interval=10)
        assert series.start_time == 20.0

    def test_grid_point_maps_to_itself(self):
        series = coarsen([make_tick(10.0, 100.0)], interval=10)
        assert series.start_time == 10.0

    def test_last_tick_wins_within_bucket(self):
        series = coarsen([make_tick(3, 100.0), make_tick(7, 101.0)], interval=10)
        assert len(series) == 1
        assert series.prices[0] == 101.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            coarsen([], interval=10)

    def test_gaps_carry_forward(self):
        ticks = [make_tick(10, 100.0, bid=3, ask=1), make_tick(50, 105.0)]
        series = coarsen(ticks, interval=10)
        assert len(series) == 5
        assert list(series.prices) == [100.0, 100.0, 100.0, 100.0, 105.0]
        assert series.imbalances[2] == 0.5  # carried forward with the price

    def test_length_covers_every_bucket(self):
        ticks = [make_tick(t, 100.0 + t) for t in (1.0, 14.0, 14.5, 97.0)]
        series = coarsen(ticks, interval=10)
        first = bucket_index(1.0, 10) * 10
        last = bucket_index(97.0, 10) * 10
        assert len(series) == int((last - first) / 10) + 1

    def test_idempotent_on_aligned_series(self):
        ticks = [make_tick(10.0 * i, 100.0 + i, bid=2, ask=1) for i in range(1, 8)]
        once = coarsen(ticks, interval=10)
        again = coarsen(
            [
                TickRecord(timestamp=t, price=p, book=make_book(1 + r, 1 - r, p))
                for t, p, r in zip(once.bucket_times, once.prices, once.imbalances)
            ],
            interval=10,
        )
        assert np.array_equal(once.prices, again.prices)
        assert np.allclose(once.imbalances, again.imbalances, atol=1e-12)
        assert once.start_time == again.start_time

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(ValueError):
            coarsen([make_tick(20, 100.0), make_tick(5, 100.0)], interval=10)

    def test_absurd_gap_refused_before_allocating(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("coarsen allocated the bucket grid")

        monkeypatch.setattr(market_data.np, "full", no_allocation)
        ticks = [make_tick(0.0, 100.0), make_tick(1e12, 101.0)]
        with pytest.raises(ValueError, match=r"t=0\.0 to t=1000000000000\.0 .*more than 100000000"):
            coarsen(ticks, interval=10)
        assert MAX_BUCKETS == 10**8


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
