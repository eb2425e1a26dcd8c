import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lstrader.pattern_bank import PatternBank, normalize
from lstrader.regression import CombinerWeights, KernelChoice, PredictorModel
from lstrader.trader import FLAT, Position, run_backtest, step, write_ledger_csv

from conftest import series_from_prices


def make_model(rng, windows=(3, 5, 8), weights=(0.0, 1.0, 1.0, 1.0, 0.0), c=2.0):
    banks = []
    for w in windows:
        vectors = np.stack([normalize(rng.normal(size=w)) for _ in range(4)])
        banks.append(
            PatternBank(
                window_length=w,
                vectors=vectors,
                labels=rng.normal(size=4),
                populations=np.ones(4, dtype=np.int64),
                kernel_c=c,
            )
        )
    return PredictorModel(
        banks=tuple(banks),
        kernel=KernelChoice("exp_similarity", c=c),
        weights=CombinerWeights(weights),
    )


def random_series(rng, n=60, scale=0.5):
    prices = 100 + np.cumsum(rng.normal(scale=scale, size=n))
    return series_from_prices(prices, imbalances=rng.uniform(-1, 1, n))


class TestStep:
    def test_transition_table(self):
        # (units, signal) -> (units after, trade side); signal in {above, inside, below}
        table = {
            (-1, "above"): (0, "buy"),
            (0, "above"): (1, "buy"),
            (1, "above"): (1, None),
            (-1, "inside"): (-1, None),
            (0, "inside"): (0, None),
            (1, "inside"): (1, None),
            (-1, "below"): (-1, None),
            (0, "below"): (-1, "sell"),
            (1, "below"): (0, "sell"),
        }
        threshold = 0.5
        dp_for = {"above": 0.8, "inside": 0.1, "below": -0.8}
        for (units, signal), (expected_units, expected_side) in table.items():
            position, trade = step(Position(units), dp_for[signal], threshold, 100.0, time=3)
            assert position.units == expected_units, (units, signal)
            if expected_side is None:
                assert trade is None
            else:
                assert trade.side == expected_side
                assert trade.position_after == expected_units
                assert trade.price == 100.0
                assert trade.time == 3

    def test_dp_equal_to_threshold_does_nothing(self):
        position, trade = step(FLAT, 0.5, 0.5, 100.0)
        assert position.units == 0 and trade is None
        position, trade = step(FLAT, -0.5, 0.5, 100.0)
        assert position.units == 0 and trade is None

    def test_long_cap_blocks_buy(self):
        position, trade = step(Position(1), 1e9, 0.5, 100.0)
        assert position.units == 1 and trade is None

    def test_short_position_buy_returns_to_flat(self):
        position, trade = step(Position(-1), 1e9, 0.5, 100.0)
        assert position.units == 0
        assert trade.side == "buy"

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError):
            step(FLAT, 1.0, 0.0, 100.0)

    def test_invalid_position_rejected(self):
        with pytest.raises(ValueError):
            Position(2)

    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=300))
    def test_position_stays_bounded(self, dps):
        position = FLAT
        for dp in dps:
            position, _ = step(position, dp, 0.3, 100.0)
            assert position.units in (-1, 0, 1)


class TestRunBacktest:
    def test_zero_weight_model_never_trades(self, rng):
        model = make_model(rng, weights=(0.0, 0.0, 0.0, 0.0, 0.0))
        report = run_backtest(model, random_series(rng), 0.1)
        assert report.num_trades == 0
        assert report.total_profit == 0.0
        assert not report.cumulative_profit_series.any()
        assert not report.sharpe_defined

    def test_always_buy_model_single_round_trip(self, rng):
        # huge intercept forces dp far above any threshold at every bucket
        model = make_model(rng, weights=(1e6, 0.0, 0.0, 0.0, 0.0))
        prices = np.linspace(100, 160, 40)  # monotone rising
        series = series_from_prices(prices)
        report = run_backtest(model, series, 1.0)
        assert report.num_trades == 2  # entry buy + final liquidation sell
        assert report.trades[0].side == "buy"
        assert report.trades[1].side == "sell"
        entry = report.trades[0].price
        assert report.total_profit == pytest.approx(prices[-1] - entry, abs=1e-9)
        assert report.num_round_trips == 1

    def test_trades_only_on_signal(self, rng):
        model = make_model(rng)
        series = random_series(rng, n=80)
        threshold = 0.4
        ts, dp = model.dp_stream(series)
        report = run_backtest(model, series, threshold)
        dp_at = dict(zip((int(t) for t in ts), dp))
        for trade in report.trades:
            if trade.time in dp_at:  # all but the forced liquidation
                assert abs(dp_at[trade.time]) > threshold

    def test_ledger_conservation(self, rng):
        for seed in range(5):
            local = np.random.default_rng(seed)
            model = make_model(local)
            series = random_series(local, n=100)
            report = run_backtest(model, series, 0.2)
            cash = math.fsum(
                trade.price if trade.side == "sell" else -trade.price
                for trade in report.trades
            )
            assert abs(math.fsum(report.round_trip_profits) - cash) <= 1e-9

    def test_deterministic(self, rng):
        model = make_model(rng)
        series = random_series(rng, n=90)
        a = run_backtest(model, series, 0.25)
        b = run_backtest(model, series, 0.25)
        assert a.trades == b.trades
        assert np.array_equal(a.cumulative_profit_series, b.cumulative_profit_series)

    def test_cumulative_final_equals_total(self, rng):
        model = make_model(rng)
        series = random_series(rng, n=120)
        report = run_backtest(model, series, 0.15)
        assert report.cumulative_profit_series[-1] == pytest.approx(report.total_profit, abs=1e-9)

    def test_too_short_series_rejected(self, rng):
        model = make_model(rng)
        with pytest.raises(ValueError):
            run_backtest(model, series_from_prices(np.arange(9.0)), 0.1)

    def test_open_position_liquidated_at_end(self, rng):
        model = make_model(rng, weights=(1e6, 0.0, 0.0, 0.0, 0.0))
        series = random_series(rng, n=30)
        report = run_backtest(model, series, 1.0)
        assert report.trades[-1].time == len(series) - 1
        assert report.trades[-1].position_after == 0
        assert report.trades[-1].round_trip_profit is not None

    def test_round_trip_profit_signs(self, rng):
        model = make_model(rng, weights=(-1e6, 0.0, 0.0, 0.0, 0.0))  # always sell
        prices = np.linspace(100, 90, 30)  # falling market: short wins
        series = series_from_prices(prices)
        report = run_backtest(model, series, 1.0)
        assert report.total_profit > 0

    def test_ledger_csv_round_trippable(self, rng, tmp_path):
        model = make_model(rng)
        series = random_series(rng, n=80)
        report = run_backtest(model, series, 0.2)
        path = tmp_path / "trades.csv"
        write_ledger_csv(report.trades, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time,side,price,position_after,round_trip_profit"
        assert len(lines) == report.num_trades + 1

    def test_avg_investment_is_mean_entry_price(self, rng):
        model = make_model(rng)
        series = random_series(rng, n=100)
        report = run_backtest(model, series, 0.2)
        if report.num_round_trips:
            entries = []
            for trade in report.trades:
                if trade.position_after != 0:
                    entries.append(trade.price)
            assert report.avg_investment == pytest.approx(np.mean(entries), abs=1e-9)
