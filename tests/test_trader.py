import csv
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lstrader.evaluator import emit_report, sharpe
from lstrader.pattern_bank import PatternBank, normalize
from lstrader.regression import CombinerWeights, KernelChoice, PredictorModel, fit_points
from lstrader.trader import FLAT, Position, Trade, run_backtest, step

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
            )
        )
    return PredictorModel(
        banks=tuple(banks),
        kernel=KernelChoice("exp_similarity", c=c),
        weights=CombinerWeights(weights),
    )


def oracle_ledger_csv(path, trades):
    """trades.csv as csv.writer rows of repr(float(x)) cells, written here
    apart from the library: an open round trip's profit cell is empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("time", "side", "price", "position_after", "round_trip_profit"))
        for t in trades:
            profit = "" if t.round_trip_profit is None else repr(float(t.round_trip_profit))
            writer.writerow([t.time, t.side, repr(float(t.price)), t.position_after, profit])


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

    @pytest.mark.parametrize("dp", [math.nan, math.inf, -math.inf])
    def test_non_finite_dp_rejected(self, dp):
        """A live decision on a non-finite prediction is refused, not held or traded."""
        with pytest.raises(ValueError, match="dp must be finite"):
            step(FLAT, dp, 0.5, 100.0)

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
        series = random_series(rng)
        report = run_backtest(series, model.dp_stream(series), 0.1)
        assert report.num_trades == 0
        assert report.total_profit == 0.0
        assert not report.equity_curve(series).any()
        assert math.isnan(sharpe(report.round_trip_profits, report.benchmark_move))

    def test_always_buy_model_single_round_trip(self, rng):
        # huge intercept forces dp far above any threshold at every bucket
        model = make_model(rng, weights=(1e6, 0.0, 0.0, 0.0, 0.0))
        prices = np.linspace(100, 160, 40)  # monotone rising
        series = series_from_prices(prices)
        report = run_backtest(series, model.dp_stream(series), 1.0)
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
        report = run_backtest(series, (ts, dp), threshold)
        dp_at = dict(zip((int(t) for t in ts), dp))
        for trade in report.trades:
            if trade.time in dp_at:  # all but the forced liquidation
                assert abs(dp_at[trade.time]) > threshold

    def test_ledger_conservation(self, rng):
        for seed in range(5):
            local = np.random.default_rng(seed)
            model = make_model(local)
            series = random_series(local, n=100)
            report = run_backtest(series, model.dp_stream(series), 0.2)
            cash = math.fsum(
                trade.price if trade.side == "sell" else -trade.price
                for trade in report.trades
            )
            assert abs(math.fsum(report.round_trip_profits) - cash) <= 1e-9

    def test_deterministic(self, rng):
        model = make_model(rng)
        series = random_series(rng, n=90)
        a = run_backtest(series, model.dp_stream(series), 0.25)
        b = run_backtest(series, model.dp_stream(series), 0.25)
        assert a.trades == b.trades
        assert np.array_equal(a.equity_curve(series), b.equity_curve(series))

    def test_cumulative_final_equals_total(self, rng):
        model = make_model(rng)
        series = random_series(rng, n=120)
        report = run_backtest(series, model.dp_stream(series), 0.15)
        assert report.equity_curve(series)[-1] == pytest.approx(report.total_profit, abs=1e-9)

    def test_dp_stream_of_wrong_length_rejected(self, rng):
        model = make_model(rng)
        series = random_series(rng, n=60)
        ts, dp = model.dp_stream(series)
        for wrong in (dp[:-1], np.append(dp, 1e9)):
            with pytest.raises(ValueError, match="predictions"):
                run_backtest(series, (ts, wrong), 0.1)

    @pytest.mark.parametrize(
        "points",
        [
            lambda n: np.arange(0),
            lambda n: np.arange(-3, n - 1),
            lambda n: np.arange(5, n - 2),
            lambda n: np.arange(5, n),
            lambda n: np.array([5, 7, n - 2]),
            lambda n: np.r_[5, 7, 6, 8 : n - 1],
            lambda n: np.r_[5, 6, 6, 8 : n - 1],
            lambda n: np.arange(5, n - 1)[None, :],
        ],
        ids=["empty", "starts_below_0", "ends_early", "ends_late", "gapped", "shuffled", "repeated",
             "two_dimensional"],
    )
    def test_dp_stream_not_covering_the_series_rejected(self, points):
        # without a model the stream alone says where it starts: one that
        # started below 0 would trade prices indexed from the series' end
        series = series_from_prices(np.linspace(100.0, 110.0, 30))
        ts = points(len(series))
        with pytest.raises(ValueError, match="does not cover"):
            run_backtest(series, (ts, np.full(len(ts), 1e9)), 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_dp_rejected_naming_its_point(self, bad):
        """A non-finite dp is refused, not traded as a hold (NaN) or a signal
        (inf): the error names the first such point."""
        series = series_from_prices(np.linspace(100.0, 184.0, 30))
        ts = np.arange(0, 29)
        dp = np.full(29, bad)
        dp[:3] = 1.0
        with pytest.raises(ValueError, match="non-finite prediction at t=3$"):
            run_backtest(series, (ts, dp), 0.5)

    def test_too_short_series_rejected(self, rng):
        model = make_model(rng)
        series = series_from_prices(np.arange(9.0))
        with pytest.raises(ValueError):
            run_backtest(series, model.dp_stream(series), 0.1)

    def test_open_position_liquidated_at_end(self, rng):
        model = make_model(rng, weights=(1e6, 0.0, 0.0, 0.0, 0.0))
        series = random_series(rng, n=30)
        report = run_backtest(series, model.dp_stream(series), 1.0)
        assert report.trades[-1].time == len(series) - 1
        assert report.trades[-1].position_after == 0
        assert report.trades[-1].round_trip_profit is not None

    def test_round_trip_profit_signs(self, rng):
        model = make_model(rng, weights=(-1e6, 0.0, 0.0, 0.0, 0.0))  # always sell
        prices = np.linspace(100, 90, 30)  # falling market: short wins
        series = series_from_prices(prices)
        report = run_backtest(series, model.dp_stream(series), 1.0)
        assert report.total_profit > 0

    def test_ledger_csv_round_trippable(self, rng, tmp_path):
        model = make_model(rng)
        series = random_series(rng, n=80)
        report = run_backtest(series, model.dp_stream(series), 0.2)
        path = pathlib.Path(emit_report(report, [report], [], tmp_path, series=series)["trades"])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time,side,price,position_after,round_trip_profit"
        assert len(lines) == report.num_trades + 1
        assert report.num_round_trips > 0
        oracle_ledger_csv(tmp_path / "oracle.csv", report.trades)
        assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        for row, trade in zip(rows, report.trades, strict=True):
            profit = None if row[4] == "" else float(row[4])
            assert (int(row[0]), row[1], float(row[2]), int(row[3]), profit) == (
                trade.time, trade.side, trade.price, trade.position_after, trade.round_trip_profit)

    def test_avg_investment_is_mean_entry_price(self, rng):
        model = make_model(rng)
        series = random_series(rng, n=100)
        report = run_backtest(series, model.dp_stream(series), 0.2)
        if report.num_round_trips:
            entries = []
            for trade in report.trades:
                if trade.position_after != 0:
                    entries.append(trade.price)
            assert report.avg_investment == pytest.approx(np.mean(entries), abs=1e-9)


def reference_backtest(prices, first_t, dp, threshold):
    """The per-bucket loop the event-driven backtest replaced, kept as its
    oracle: (trades, round-trip profits, cumulative profit series)."""
    n = len(prices)
    trades, profits, cumulative = [], [], np.zeros(n)
    cash, units, entry_price = 0.0, 0, 0.0
    for t in range(first_t, n):
        side = None
        if t < n - 1:
            d = float(dp[t - first_t])
            if d > threshold and units <= 0:
                side = "buy"
            elif d < -threshold and units >= 0:
                side = "sell"
        elif units != 0:  # force-liquidate at the final bucket
            side = "sell" if units > 0 else "buy"
        if side is not None:
            price = float(prices[t])
            units += 1 if side == "buy" else -1
            cash += -price if side == "buy" else price
            profit = None
            if units == 0:
                profit = (1.0 if side == "sell" else -1.0) * (price - entry_price)
                profits.append(profit)
            else:
                entry_price = price
            trades.append(Trade(t, side, price, units, profit))
        cumulative[t] = cash + units * prices[t]
    cumulative[-1] = math.fsum(profits)
    return trades, profits, cumulative


ORACLE_MODEL = make_model(np.random.default_rng(7))


def assert_matches_reference(prices, dp, threshold):
    """run_backtest on a given dp stream equals the per-bucket reference exactly."""
    series = series_from_prices(prices)
    ts = fit_points(series, ORACLE_MODEL.banks)
    dp = np.asarray(dp, dtype=np.float64)
    assert len(dp) == len(ts)
    report = run_backtest(series, (ts, dp), threshold)
    trades, profits, cumulative = reference_backtest(series.prices, int(ts[0]), dp, threshold)
    assert report.trades == tuple(trades)
    assert report.round_trip_profits == tuple(profits)
    assert np.array_equal(report.equity_curve(series), cumulative)
    return report


@st.composite
def dp_streams(draw):
    """(prices, dp, threshold): dp mixes exact +-threshold ties, zeros,
    multiples of the threshold (long same-sign runs) and arbitrary values."""
    threshold = draw(st.sampled_from([0.5, 1e-3, 3.0]))
    first_t = int(fit_points(series_from_prices(np.ones(40)), ORACLE_MODEL.banks)[0])
    n = draw(st.integers(first_t + 2, first_t + 120))
    ties = st.sampled_from([threshold, -threshold, 0.0, 2 * threshold, -2 * threshold])
    value = st.one_of(ties, st.floats(-4 * threshold, 4 * threshold))
    if draw(st.booleans()):  # runs of one value
        runs = draw(st.lists(st.tuples(value, st.integers(1, 30)), min_size=1, max_size=12))
        dp = [v for v, length in runs for _ in range(length)]
        dp = (dp * (n // len(dp) + 1))[: n - 1 - first_t]
    else:
        dp = draw(st.lists(value, min_size=n - 1 - first_t, max_size=n - 1 - first_t))
    seed = draw(st.integers(0, 2**32 - 1))
    # a log-normal walk crosses binades, where marking order shows in the last bits
    prices = 100 * np.exp(np.cumsum(np.random.default_rng(seed).normal(scale=0.1, size=n)))
    return prices, dp, threshold


class TestBacktestOracle:
    @settings(max_examples=300, deadline=None)
    @given(dp_streams())
    def test_matches_per_bucket_reference(self, case):
        assert_matches_reference(*case)

    def ones(self, n=40):
        first_t = int(fit_points(series_from_prices(np.ones(n)), ORACLE_MODEL.banks)[0])
        return first_t, np.ones(n - 1 - first_t)

    def test_dp_at_threshold_never_trades(self, rng):
        first_t, ones = self.ones()
        dp = 0.5 * ones
        dp[::2] *= -1
        prices = 100 + rng.normal(size=40).cumsum()
        report = assert_matches_reference(prices, dp, 0.5)
        assert report.num_trades == 0
        assert not report.equity_curve(series_from_prices(prices)).any()

    def test_same_sign_run_holds_at_the_cap(self, rng):
        first_t, ones = self.ones()
        dp = ones.copy()
        dp[:5] = -1.0  # short, flat, then long, held to the end
        report = assert_matches_reference(100 + rng.normal(size=40).cumsum(), dp, 0.5)
        assert [(t.time, t.side, t.position_after) for t in report.trades] == [
            (first_t, "sell", -1), (first_t + 5, "buy", 0), (first_t + 6, "buy", 1), (39, "sell", 0),
        ]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("length", [1, 2, 3, 50])
    @pytest.mark.parametrize("start", [-1, 0, 1])
    def test_same_sign_runs(self, rng, start, length, sign):
        # from each position, a run of signals of one sign with dp at exactly
        # +-t and 0 between them, then one signal the other way: the run moves
        # the position until the cap, and no further
        t = 0.5
        lead = [float(start), 0.0] if start else [0.0]
        run = [v for i in range(length) for v in (sign * (1.0 + i % 3), sign * t, -sign * t, 0.0)]
        dp = lead + run + [-sign, 0.0]
        first_t = self.ones()[0]
        report = assert_matches_reference(100 + rng.normal(size=first_t + 1 + len(dp)).cumsum(), dp, t)
        lo = first_t + len(lead)
        in_run = [trade for trade in report.trades if lo <= trade.time < lo + len(run)]
        assert len(in_run) == min(length, 1 - int(sign) * start)

    def test_zero_trades(self, rng):
        first_t, ones = self.ones()
        report = assert_matches_reference(100 + rng.normal(size=40).cumsum(), 0 * ones, 0.5)
        assert report.trades == () and report.total_profit == 0.0

    def test_reopening_marks_after_the_fill(self, rng):
        # cash left by a round trip at small prices loses its low bits when a
        # large price is added, so marking the reopening bucket with the state
        # before its fill (cash + 0 units) would differ in the last bits
        first_t, ones = self.ones()
        dp = 0 * ones
        dp[[0, 3, 6, 9]] = [1.0, -1.0, -1.0, 1.0]
        prices = 100 + rng.normal(size=40).cumsum()
        prices[[first_t, first_t + 3, first_t + 6]] = [3.3, 3.7, 1000.1]
        report = assert_matches_reference(prices, dp, 0.5)
        assert report.num_round_trips == 2

    @pytest.mark.parametrize("sign, closing_side", [(1.0, "sell"), (-1.0, "buy")])
    def test_forced_liquidation(self, rng, sign, closing_side):
        first_t, ones = self.ones()
        dp = 0 * ones
        dp[-1] = sign  # opened at the last feasible bucket, closed at the final one
        prices = 100 + rng.normal(size=40).cumsum()
        report = assert_matches_reference(prices, dp, 0.5)
        (opening, closing) = report.trades
        assert (opening.time, closing.time, closing.side) == (38, 39, closing_side)
        assert closing.round_trip_profit == sign * (prices[39] - prices[38])
        assert report.equity_curve(series_from_prices(prices))[-1] == report.total_profit
