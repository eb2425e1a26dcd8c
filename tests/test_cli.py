import json
import os

import pytest

from lstrader.cli import RunConfig, main
from lstrader.latent_source import demo_spec
from lstrader.market_data import PriceSeries

SMALL = dict(duration=28800.0, windows="30,60,120", k="12", m="4")


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    demo_spec(seed=5).save_json(path)
    return str(path)


def run_cli(*args):
    return main([str(a) for a in args])


def small_pipeline_args(spec_path, out_dir, seed=7, extra=()):
    return [
        "pipeline",
        "--spec", spec_path,
        "--out", str(out_dir),
        "--seed", str(seed),
        "--duration", str(SMALL["duration"]),
        "--windows", SMALL["windows"],
        "--k", SMALL["k"],
        "--m", SMALL["m"],
        *extra,
    ]


def fit_small_model(spec_path, tmp_path):
    """A 6-hour series and a 3-bank model fitted on it: (series path, model dir)."""
    series_csv = tmp_path / "series.csv"
    run_cli("gen", "--spec", spec_path, "--out", series_csv, "--duration", 21600)
    banks_dir = tmp_path / "banks"
    assert run_cli(
        "build-banks", "--series", series_csv, "--out-dir", banks_dir,
        "--windows", "30,60,120", "--k", "8", "--m", "3",
    ) == 0
    fit_dir = tmp_path / "fitted"
    assert run_cli(
        "fit", "--series", series_csv, "--banks-dir", banks_dir,
        "--out-dir", fit_dir, "--c-grid", "1",
    ) == 0
    return series_csv, fit_dir


class TestArgHandling:
    def test_unknown_subcommand_nonzero(self, capsys):
        assert run_cli("frobnicate") != 0

    def test_unknown_flag_nonzero(self, spec_path):
        assert run_cli("gen", "--spec", spec_path, "--out", "x.csv", "--bogus") != 0

    def test_no_subcommand_nonzero(self):
        assert run_cli() != 0

    def test_missing_input_file_named(self, tmp_path, capsys):
        rc = run_cli("ingest", "--ticks", tmp_path / "nope.csv", "--out", tmp_path / "o.csv")
        assert rc != 0
        assert "nope.csv" in capsys.readouterr().err


class TestGen:
    def test_gen_writes_series(self, spec_path, tmp_path):
        out = tmp_path / "series.csv"
        assert run_cli("gen", "--spec", spec_path, "--out", out, "--duration", 7200) == 0
        series = PriceSeries.from_csv(out)
        assert len(series) == 721

    def test_gen_deterministic(self, spec_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("gen", "--spec", spec_path, "--out", out, "--duration", 7200, "--seed", 3) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_placements_sidecar(self, spec_path, tmp_path):
        out = tmp_path / "series.csv"
        placements = tmp_path / "placements.json"
        assert run_cli(
            "gen", "--spec", spec_path, "--out", out, "--duration", 7200,
            "--placements", placements,
        ) == 0
        data = json.loads(placements.read_text())
        assert all({"start", "source", "length"} <= set(p) for p in data)


class TestIngest:
    def test_ingest_round_trip(self, tmp_path):
        ticks = tmp_path / "ticks.csv"
        ticks.write_text(
            "timestamp,price,bid_vol_total,ask_vol_total\n"
            "1,100,3,1\n12,101,1,1\n19,102,1,3\n"
        )
        out = tmp_path / "series.csv"
        assert run_cli("ingest", "--ticks", ticks, "--out", out) == 0
        series = PriceSeries.from_csv(out)
        assert list(series.prices) == [100.0, 102.0]
        assert series.imbalances[0] == 0.5

    def test_ingest_empty_file_fails_with_diagnostic(self, tmp_path, capsys):
        ticks = tmp_path / "empty.csv"
        ticks.write_text("")
        rc = run_cli("ingest", "--ticks", ticks, "--out", tmp_path / "o.csv")
        assert rc != 0
        assert "empty" in capsys.readouterr().err

    def test_ingest_absurd_gap_fails_with_diagnostic(self, tmp_path, capsys, monkeypatch):
        from lstrader import market_data

        def no_allocation(*args, **kwargs):
            raise AssertionError("coarsen allocated the bucket grid")

        monkeypatch.setattr(market_data.np, "full", no_allocation)
        ticks = tmp_path / "ticks.csv"
        ticks.write_text("timestamp,price,bid_vol_total,ask_vol_total\n0,100,1,1\n1e12,101,1,1\n")
        rc = run_cli("ingest", "--ticks", ticks, "--out", tmp_path / "o.csv")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "t=0.0 to t=1000000000000.0" in err

    @pytest.mark.parametrize("row", ["nan,101,1,1", "inf,101,1,1", "20,inf,1,1", "20,101,nan,1"])
    def test_ingest_non_finite_fails_naming_line(self, tmp_path, capsys, row):
        ticks = tmp_path / "ticks.csv"
        ticks.write_text(f"timestamp,price,bid_vol_total,ask_vol_total\n1,100,1,1\n{row}\n")
        rc = run_cli("ingest", "--ticks", ticks, "--out", tmp_path / "o.csv")
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: line 3: non-finite ")

    def test_ingest_malformed_row_fails(self, tmp_path, capsys):
        ticks = tmp_path / "bad.csv"
        ticks.write_text("timestamp,price,bid_vol_total,ask_vol_total\n1,oops,1,1\n")
        rc = run_cli("ingest", "--ticks", ticks, "--out", tmp_path / "o.csv")
        assert rc != 0
        assert "line 2" in capsys.readouterr().err


class TestStagedCommands:
    """Exercise the documented file interfaces between stages."""

    def test_stage_chain(self, spec_path, tmp_path):
        series_csv = tmp_path / "series.csv"
        assert run_cli(
            "gen", "--spec", spec_path, "--out", series_csv, "--duration", 21600, "--seed", 2
        ) == 0

        banks_dir = tmp_path / "banks"
        assert run_cli(
            "build-banks", "--series", series_csv, "--out-dir", banks_dir,
            "--windows", "30,60,120", "--k", "10", "--m", "4", "--seed", "2",
        ) == 0
        assert sorted(os.listdir(banks_dir)) == ["bank_120.json", "bank_30.json", "bank_60.json"]

        fit_dir = tmp_path / "fitted"
        assert run_cli(
            "fit", "--series", series_csv, "--banks-dir", banks_dir,
            "--out-dir", fit_dir, "--c-grid", "1,2",
        ) == 0
        model = json.loads((fit_dir / "model.json").read_text())
        assert model["kernel"]["variant"] == "exp_similarity"
        assert {"w0", "w1", "w2", "w3", "w4", "used_ridge"} <= set(model["weights"])

        bt_dir = tmp_path / "bt"
        assert run_cli(
            "backtest", "--series", series_csv, "--model", fit_dir / "model.json",
            "--threshold", "0.1", "--out-dir", bt_dir,
        ) == 0
        assert (bt_dir / "trades.csv").exists()
        assert (bt_dir / "summary.json").exists()

        sweep_csv = tmp_path / "sweep.csv"
        assert run_cli(
            "sweep", "--series", series_csv, "--model", fit_dir / "model.json",
            "--thresholds", "0.05,0.1,0.2", "--out", sweep_csv,
        ) == 0
        lines = sweep_csv.read_text().strip().splitlines()
        assert len(lines) == 4

        rep_dir = tmp_path / "rep"
        assert run_cli(
            "report", "--series", series_csv, "--model", fit_dir / "model.json",
            "--out-dir", rep_dir,
        ) == 0
        for name in ("summary.json", "sweep.csv", "equity_curve.csv", "cluster_centers.csv", "trades.csv"):
            assert (rep_dir / name).exists()

    @pytest.mark.parametrize("windows", ["30,60", "30,60,90,120"])
    def test_any_bank_count_chain(self, spec_path, tmp_path, windows):
        series_csv = tmp_path / "series.csv"
        run_cli("gen", "--spec", spec_path, "--out", series_csv, "--duration", 21600)
        banks_dir = tmp_path / "banks"
        assert run_cli(
            "build-banks", "--series", series_csv, "--out-dir", banks_dir,
            "--windows", windows, "--k", "8", "--m", "3",
        ) == 0
        fit_dir = tmp_path / "fitted"
        assert run_cli(
            "fit", "--series", series_csv, "--banks-dir", banks_dir,
            "--out-dir", fit_dir, "--c-grid", "1,2",
        ) == 0
        count = len(windows.split(","))
        weights = json.loads((fit_dir / "model.json").read_text())["weights"]
        assert sorted(weights) == sorted([f"w{i}" for i in range(count + 2)] + ["used_ridge"])
        assert run_cli(
            "report", "--series", series_csv, "--model", fit_dir / "model.json",
            "--out-dir", tmp_path / "rep",
        ) == 0

    def test_malformed_model_fails_with_diagnostic(self, spec_path, tmp_path, capsys):
        series_csv, fit_dir = fit_small_model(spec_path, tmp_path)
        model = json.loads((fit_dir / "model.json").read_text())
        del model["kernel"]
        (fit_dir / "model.json").write_text(json.dumps(model))
        capsys.readouterr()
        model_args = ("--series", series_csv, "--model", fit_dir / "model.json")
        for args in (
            ("report", *model_args, "--out-dir", tmp_path / "rep"),
            ("backtest", *model_args, "--threshold", 0.1, "--out-dir", tmp_path / "bt"),
            ("sweep", *model_args, "--thresholds", "0.1,0.2", "--out", tmp_path / "sweep.csv"),
        ):
            rc = run_cli(*args)
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert "model.json: model JSON needs a dict 'kernel'" in err

    def test_weight_count_mismatch_fails_with_diagnostic(self, spec_path, tmp_path, capsys):
        series_csv, fit_dir = fit_small_model(spec_path, tmp_path)
        model = json.loads((fit_dir / "model.json").read_text())
        model["banks"] = model["banks"][:2]
        (fit_dir / "model.json").write_text(json.dumps(model))
        capsys.readouterr()
        rc = run_cli(
            "report", "--series", series_csv, "--model", fit_dir / "model.json",
            "--out-dir", tmp_path / "rep",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "2 banks need weights w0..w3" in err

    def test_binary_bank_format(self, spec_path, tmp_path):
        series_csv = tmp_path / "series.csv"
        run_cli("gen", "--spec", spec_path, "--out", series_csv, "--duration", 21600)
        banks_dir = tmp_path / "banks"
        assert run_cli(
            "build-banks", "--series", series_csv, "--out-dir", banks_dir,
            "--windows", "30,60,120", "--k", "8", "--m", "3", "--bank-format", "binary",
        ) == 0
        assert sorted(os.listdir(banks_dir)) == ["bank_120.bin", "bank_30.bin", "bank_60.bin"]
        fit_dir = tmp_path / "fitted"
        assert run_cli(
            "fit", "--series", series_csv, "--banks-dir", banks_dir,
            "--out-dir", fit_dir, "--c-grid", "1", "--bank-format", "binary",
        ) == 0
        assert (fit_dir / "bank_120.bin").exists()

    def test_truncated_binary_bank_fails_with_diagnostic(self, spec_path, tmp_path, capsys):
        series_csv = tmp_path / "series.csv"
        run_cli("gen", "--spec", spec_path, "--out", series_csv, "--duration", 21600)
        banks_dir = tmp_path / "banks"
        assert run_cli(
            "build-banks", "--series", series_csv, "--out-dir", banks_dir,
            "--windows", "30,60,120", "--k", "8", "--m", "3", "--bank-format", "binary",
        ) == 0
        bank = banks_dir / "bank_60.bin"
        bank.write_bytes(bank.read_bytes()[:-5])
        capsys.readouterr()
        rc = run_cli(
            "fit", "--series", series_csv, "--banks-dir", banks_dir,
            "--out-dir", tmp_path / "fitted", "--c-grid", "1",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "bank_60.bin" in err

    def test_non_finite_series_fails_with_diagnostic(self, tmp_path, capsys):
        series_csv = tmp_path / "series.csv"
        rows = [f"{10.0 * i},{100.0 + i},0.0" for i in range(400)]
        rows[250] = "2500.0,nan,0.0"
        series_csv.write_text("bucket_time,price,imbalance\n" + "\n".join(rows) + "\n")
        rc = run_cli(
            "build-banks", "--series", series_csv, "--out-dir", tmp_path / "banks",
            "--windows", "30,60,120", "--k", "4", "--m", "2",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "series.csv line 252" in err


class TestPipeline:
    def test_pipeline_bundle_and_summary_keys(self, spec_path, tmp_path):
        out = tmp_path / "run"
        assert run_cli(*small_pipeline_args(spec_path, out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        for key in (
            "total_profit", "num_trades", "avg_investment", "return_pct",
            "sharpe", "sharpe_defined", "threshold", "kernel_c", "used_ridge", "seed",
        ):
            assert key in summary
        for name in (
            "series.csv", "periods.json", "model.json", "trades.csv",
            "sweep.csv", "equity_curve.csv", "cluster_centers.csv", "summary.json",
        ):
            assert (out / name).exists()
        periods = json.loads((out / "periods.json").read_text())
        n = periods["n_buckets"]
        assert periods["train"][0] == 0
        assert periods["train"][1] == periods["fit"][0]
        assert periods["fit"][1] == periods["eval"][0]
        assert periods["eval"][1] == n

    def test_pipeline_deterministic(self, spec_path, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli(*small_pipeline_args(spec_path, out_a)) == 0
        assert run_cli(*small_pipeline_args(spec_path, out_b)) == 0
        names = sorted(os.listdir(out_a))
        assert names == sorted(os.listdir(out_b))
        for name in names:
            pa, pb = out_a / name, out_b / name
            if pa.is_dir():
                assert sorted(os.listdir(pa)) == sorted(os.listdir(pb))
                for inner in os.listdir(pa):
                    assert (pa / inner).read_bytes() == (pb / inner).read_bytes()
            else:
                assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("windows", ["180,360", "60,180,360,720"])
    def test_pipeline_any_bank_count(self, spec_path, tmp_path, windows):
        out = tmp_path / "run"
        args = small_pipeline_args(spec_path, out)
        args[args.index("--windows") + 1] = windows
        assert run_cli(*args) == 0
        model = json.loads((out / "model.json").read_text())
        assert len(model["banks"]) == len(windows.split(","))
        assert len([k for k in model["weights"] if k != "used_ridge"]) == len(model["banks"]) + 2
        assert run_cli(
            "report", "--series", out / "series.csv", "--model", out / "model.json",
            "--out-dir", tmp_path / "rep",
        ) == 0

    def test_report_scores_once_and_backtests_once_per_threshold(
        self, spec_path, tmp_path, monkeypatch
    ):
        import lstrader.regression as regression
        import lstrader.trader as trader

        out = tmp_path / "run"
        assert run_cli(*small_pipeline_args(spec_path, out)) == 0
        calls = {"feature_block": 0, "run_backtest": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(regression, "feature_block")
        counted(trader, "run_backtest")
        # explicit thresholds, then the automatic grid
        for extra in (("--thresholds", "0.05,0.1,0.2"), ()):
            calls.update(feature_block=0, run_backtest=0)
            rep = tmp_path / f"rep{len(extra)}"
            assert run_cli(
                "report", "--series", out / "series.csv", "--model", out / "model.json",
                "--out-dir", rep, *extra,
            ) == 0
            rows = len((rep / "sweep.csv").read_text().strip().splitlines()) - 1
            assert calls == {"feature_block": 1, "run_backtest": rows}

    def test_split_must_sum_to_one(self, spec_path, tmp_path):
        rc = run_cli(*small_pipeline_args(spec_path, tmp_path / "x", extra=("--split", "0.5,0.4,0.2")))
        assert rc != 0

    def test_custom_split_fractions(self, spec_path, tmp_path):
        out = tmp_path / "run"
        assert run_cli(
            *small_pipeline_args(spec_path, out, extra=("--split", "0.5,0.25,0.25"))
        ) == 0
        periods = json.loads((out / "periods.json").read_text())
        n = periods["n_buckets"]
        assert periods["train"][1] == int(0.5 * n)

    def test_explicit_thresholds_respected(self, spec_path, tmp_path):
        out = tmp_path / "run"
        assert run_cli(
            *small_pipeline_args(spec_path, out, extra=("--thresholds", "0.05,0.25"))
        ) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("0.05,")

    def test_paper_literal_variant_summary(self, spec_path, tmp_path):
        out = tmp_path / "run"
        assert run_cli(
            *small_pipeline_args(spec_path, out, extra=("--sharpe-variant", "paper-literal"))
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "sharpe_sqrt" in summary
        assert "sharpe_paper_literal" in summary

    def test_split_invariant_is_an_explicit_error(self, spec_path, tmp_path, monkeypatch, capsys):
        # an explicit check, not an assert: shift the eval points before the
        # eval period and the pipeline must refuse with a diagnostic
        import lstrader.cli as cli

        real = cli.fit_points
        calls = []

        def shifted(series, banks):
            calls.append(len(series))
            ts = real(series, banks)
            return ts - 200 if len(calls) == 2 else ts

        monkeypatch.setattr(cli, "fit_points", shifted)
        assert run_cli(*small_pipeline_args(spec_path, tmp_path / "run")) == 1
        assert len(calls) == 2
        assert "feature windows cross a period boundary" in capsys.readouterr().err

    def test_run_config_validation(self):
        with pytest.raises(ValueError, match="split"):
            RunConfig(spec_path="x.json", split=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="exactly one"):
            RunConfig()
        with pytest.raises(ValueError, match="exactly one"):
            RunConfig(spec_path="a", ticks_path="b")

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_pipeline_from_ticks_rejects_non_finite(self, tmp_path, capsys, bad):
        ticks = tmp_path / "ticks.csv"
        ticks.write_text(f"timestamp,price,bid_vol_total,ask_vol_total\n1,100,1,1\n10,101,{bad},1\n")
        rc = run_cli("pipeline", "--ticks", ticks, "--out", tmp_path / "run")
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: line 3: non-finite bid_vol_total: ")

    def test_pipeline_from_ticks(self, tmp_path, rng):
        # a long enough tick tape for 30/60/120 windows across three periods
        rows = ["timestamp,price,bid_vol_total,ask_vol_total"]
        price = 100.0
        for i in range(1500):
            price += rng.normal(scale=0.2)
            rows.append(f"{10 * i},{price},{rng.uniform(0, 5)},{rng.uniform(0, 5)}")
        ticks = tmp_path / "ticks.csv"
        ticks.write_text("\n".join(rows) + "\n")
        out = tmp_path / "run"
        rc = run_cli(
            "pipeline", "--ticks", ticks, "--out", out,
            "--windows", "30,60,120", "--k", "10", "--m", "4", "--seed", "1",
        )
        assert rc == 0
        assert (out / "summary.json").exists()
