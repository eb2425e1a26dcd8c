import json
import math
import statistics
import tracemalloc

import numpy as np
import pytest

from lstrader.evaluator import (
    SHARPE_PAPER_LITERAL,
    SHARPE_SQRT,
    emit_report,
    sharpe,
    summary_dict,
    sweep_thresholds,
)
from lstrader.trader import run_backtest

from conftest import series_from_prices
from test_trader import make_model, oracle_ledger_csv, random_series


def oracle_sharpe(profits, price_move):
    # independent scalar implementation on the standard library
    count = len(profits)
    if count < 2:
        return math.nan
    sigma = statistics.pstdev(profits)
    if sigma == 0:
        return math.nan
    return (math.fsum(profits) - price_move) / (count * sigma)


def sweep_fields(report):
    """What a sweep row shows of a backtest, plus its trades."""
    return (report.threshold, report.num_trades, report.avg_holding_time,
            report.avg_profit_per_trade, report.total_profit,
            sharpe(report.round_trip_profits, report.benchmark_move), report.trades)


class TestSharpe:
    def test_hand_case(self):
        assert sharpe([2.0, 4.0], 1.0) == 2.5

    def test_single_trade_undefined(self):
        assert math.isnan(sharpe([2.0], 0.0))

    def test_constant_profits_undefined(self):
        assert math.isnan(sharpe([3.0, 3.0, 3.0], 1.0))

    def test_homogeneous_in_scale(self):
        profits = [2.0, 4.0, -1.0, 3.0]
        base = sharpe(profits, 1.0)
        doubled = sharpe([2 * p for p in profits], 2.0)
        assert doubled == pytest.approx(base, abs=1e-12)

    def test_paper_literal_variant_drops_the_root(self):
        profits = [1.0, 5.0]
        move = 0.5
        msd = 4.0  # deviations (-2, 2) -> mean squared deviation 4
        assert sharpe(profits, move, SHARPE_PAPER_LITERAL) == pytest.approx(
            (6.0 - 0.5) / (2 * msd), abs=1e-12
        )
        assert sharpe(profits, move, SHARPE_SQRT) == pytest.approx(
            (6.0 - 0.5) / (2 * 2.0), abs=1e-12
        )

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            sharpe([1.0, 2.0], 0.0, "rms")

    def test_matches_independent_oracle(self, rng):
        for _ in range(100):
            count = int(rng.integers(2, 30))
            profits = rng.normal(scale=5.0, size=count).tolist()
            move = float(abs(rng.normal(scale=10.0)))
            got = sharpe(profits, move)
            want = oracle_sharpe(profits, move)
            assert got == pytest.approx(want, abs=1e-10)


class TestSweepThresholds:
    def test_single_threshold_matches_standalone(self, rng):
        model = make_model(rng)
        series = random_series(rng, n=90)
        dp_stream = model.dp_stream(series)
        rows = sweep_thresholds(series, dp_stream, [0.2])
        standalone = run_backtest(series, dp_stream, 0.2)
        assert sweep_fields(rows[0]) == sweep_fields(standalone)

    def test_threshold_above_max_dp_trades_nothing(self, rng):
        model = make_model(rng)
        series = random_series(rng, n=90)
        ts, dp = model.dp_stream(series)
        giant = float(np.abs(dp).max()) * 2 + 1
        rows = sweep_thresholds(series, (ts, dp), [giant])
        assert rows[0].num_trades == 0
        assert rows[0].total_profit == 0.0

    def test_rows_in_threshold_order(self, rng):
        model = make_model(rng)
        series = random_series(rng, n=90)
        thresholds = [0.05, 0.1, 0.2, 0.4]
        rows = sweep_thresholds(series, model.dp_stream(series), thresholds)
        assert [row.threshold for row in rows] == thresholds

    def test_signal_crossings_non_increasing(self, rng):
        model = make_model(rng)
        series = random_series(rng, n=120)
        _, dp = model.dp_stream(series)
        thresholds = [0.05, 0.1, 0.2, 0.4, 0.8]
        crossings = [(np.abs(dp) > t).sum() for t in thresholds]
        assert all(b <= a for a, b in zip(crossings, crossings[1:]))

    def test_row_consistency(self, rng):
        model = make_model(rng)
        series = random_series(rng, n=120)
        for threshold in (0.05, 0.2):
            report = run_backtest(series, model.dp_stream(series), threshold)
            assert report.avg_profit_per_trade * report.num_round_trips == pytest.approx(
                report.total_profit, abs=1e-6
            )

    def test_given_dp_stream_is_reused(self, rng):
        model = make_model(rng)
        series = random_series(rng, n=90)
        thresholds = [0.05, 0.1, 0.2]
        ts, dp = model.dp_stream(series)
        # a stream far above every threshold buys once and is liquidated at the end
        shifted = sweep_thresholds(series, (ts, dp * 0 + 10.0), thresholds)
        assert [row.num_trades for row in shifted] == [2, 2, 2]

    def test_rows_carry_their_backtest(self, rng):
        model = make_model(rng)
        series = random_series(rng, n=90)
        dp_stream = model.dp_stream(series)
        for row in sweep_thresholds(series, dp_stream, [0.05, 0.2]):
            standalone = run_backtest(series, dp_stream, row.threshold)
            assert row.threshold == standalone.threshold
            assert row.trades == standalone.trades
            assert row.total_profit == standalone.total_profit

    def test_sweep_and_report_keep_one_curve(self, tmp_path):
        # 40 per-bucket curves of 200k buckets would hold 64 MB: a sweep keeps
        # the fills, and the report computes the one curve it writes
        n = 200_000
        series = series_from_prices(100 + np.random.default_rng(3).normal(scale=0.05, size=n).cumsum())
        ts = np.arange(10, n - 1)
        dp_stream = (ts, np.sin(ts / 500.0))  # smooth: long runs of one sign
        tracemalloc.start()
        try:
            rows = sweep_thresholds(series, dp_stream, np.linspace(0.02, 0.98, 40))
            best = max(rows, key=lambda row: row.total_profit)
            emit_report(best, rows, [], tmp_path, series=series)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert best.num_trades > 0
        assert peak < 10 * 8 * n  # ten float64 arrays of the series' length

    def test_unsorted_thresholds_rejected(self, rng):
        model = make_model(rng)
        series = random_series(rng, n=90)
        with pytest.raises(ValueError):
            sweep_thresholds(series, model.dp_stream(series), [0.2, 0.1])


class TestEmitReport:
    def run_reportable(self, rng):
        model = make_model(rng)
        series = random_series(rng, n=120)
        dp_stream = model.dp_stream(series)
        report = run_backtest(series, dp_stream, 0.1)
        rows = sweep_thresholds(series, dp_stream, [0.1, 0.3])
        return model, series, report, rows

    def test_bundle_artifacts(self, rng, tmp_path):
        model, series, report, rows = self.run_reportable(rng)
        paths = emit_report(report, rows, model.banks, tmp_path, series=series)
        assert set(paths) == {"summary", "sweep", "equity_curve", "cluster_centers", "trades"}
        summary = json.loads((tmp_path / "summary.json").read_text())
        for key in (
            "total_profit",
            "num_trades",
            "avg_investment",
            "return_pct",
            "sharpe",
            "sharpe_defined",
            "threshold",
        ):
            assert key in summary
        sweep_lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert sweep_lines[0] == "threshold,num_trades,avg_holding_s,avg_profit,total_profit,sharpe"
        assert len(sweep_lines) == 3
        curve_lines = (tmp_path / "equity_curve.csv").read_text().strip().splitlines()
        assert curve_lines[0] == "bucket_time,price,cum_profit"
        assert len(curve_lines) == len(series) + 1
        centers_lines = (tmp_path / "cluster_centers.csv").read_text().strip().splitlines()
        assert len(centers_lines) == sum(len(b) for b in model.banks)
        first = centers_lines[0].split(",")
        assert int(first[0]) == model.banks[0].window_length
        assert len(first) == 2 + model.banks[0].window_length
        assert report.num_trades > 0 and report.num_round_trips > 0
        oracle_ledger_csv(tmp_path / "ledger.csv", report.trades)
        with open(paths["trades"], "rb") as fh:
            assert fh.read() == (tmp_path / "ledger.csv").read_bytes()

    def test_reemission_is_byte_identical(self, rng, tmp_path):
        model, series, report, rows = self.run_reportable(rng)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        emit_report(report, rows, model.banks, dir_a, series=series)
        emit_report(report, rows, model.banks, dir_b, series=series)
        for name in ("summary.json", "sweep.csv", "equity_curve.csv", "cluster_centers.csv", "trades.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_empty_ledger_summary(self, rng, tmp_path):
        model = make_model(rng, weights=(0.0, 0.0, 0.0, 0.0, 0.0))
        series = random_series(rng, n=60)
        report = run_backtest(series, model.dp_stream(series), 0.5)
        emit_report(report, [], model.banks, tmp_path, series=series)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["total_profit"] == 0.0
        assert summary["num_trades"] == 0
        assert summary["return_pct"] == 0.0
        assert summary["sharpe"] is None
        assert summary["sharpe_defined"] is False

    def test_paper_literal_switch_emits_both_variants(self, rng, tmp_path):
        model, series, report, rows = self.run_reportable(rng)
        emit_report(
            report, rows, model.banks, tmp_path, series=series, sharpe_variant=SHARPE_PAPER_LITERAL
        )
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "sharpe_sqrt" in summary
        assert "sharpe_paper_literal" in summary

    def test_paper_literal_sharpe_is_the_one_written(self, rng, tmp_path):
        model, series, report, rows = self.run_reportable(rng)
        emit_report(
            report, rows, model.banks, tmp_path, series=series, sharpe_variant=SHARPE_PAPER_LITERAL
        )
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["sharpe"] is not None
        assert summary["sharpe"] == summary["sharpe_paper_literal"] != summary["sharpe_sqrt"]
        lines = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        for row, line in zip(rows, lines, strict=True):
            value = sharpe(row.round_trip_profits, row.benchmark_move, SHARPE_PAPER_LITERAL)
            assert line.split(",")[-1] == repr(value)

    def test_series_of_another_length_rejected(self, rng, tmp_path):
        model, series, report, rows = self.run_reportable(rng)
        with pytest.raises(ValueError, match="buckets"):
            emit_report(report, rows, model.banks, tmp_path / "out", series=series.slice(1, len(series)))
        assert not (tmp_path / "out").exists()

    def test_return_pct_definition(self, rng):
        model, series, report, rows = self.run_reportable(rng)
        summary = summary_dict(report)
        if report.avg_investment > 0:
            assert summary["return_pct"] == pytest.approx(
                100.0 * report.total_profit / report.avg_investment, abs=1e-9
            )

    def test_cumulative_curve_final_value(self, rng):
        model, series, report, rows = self.run_reportable(rng)
        assert report.equity_curve(series)[-1] == pytest.approx(
            report.total_profit, abs=1e-9
        )
