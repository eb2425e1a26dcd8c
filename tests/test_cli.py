import hashlib
import json
import os
import pathlib
import platform
import struct
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import lstrader
from lstrader import latent_source
from lstrader.cli import build_parser, main
from lstrader.evaluator import emit_report, sweep_thresholds
from lstrader.latent_source import demo_spec
from lstrader.market_data import PriceSeries
from lstrader.pattern_bank import PatternBank
from lstrader.regression import PredictorModel

SMALL = dict(duration=28800.0, windows="30,60,120", k="12", m="4")

# A one-day market at the default banks (the benchmark's first train market),
# then a report on its whole series, in one interpreter: argv is spec, out dir.
PIPELINE_THEN_REPORT = """
import sys
from lstrader.cli import main
spec, out = sys.argv[1:]
assert main(["pipeline", "--spec", spec, "--out", out, "--seed", "608030456",
             "--duration", "86400", "--start-price", "5000"]) == 0
sys.exit(main(["report", "--series", out + "/series.csv", "--model", out + "/model.json",
               "--out-dir", out + "/report"]))
"""


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


def lstbank1_bytes(bank):
    """A bank in the LSTBANK1 binary layout older versions wrote, field by field:
    magic, count, window length, a reserved f64, then per pattern a length
    prefix, the vector, the label and the population, all little-endian."""
    out = [b"LSTBANK1", struct.pack("<QQd", len(bank), bank.window_length, 1.0)]
    for i in range(len(bank)):
        out.append(struct.pack("<Q", bank.window_length))
        out.append(bank.vectors[i].astype("<f8").tobytes())
        out.append(struct.pack("<dQ", float(bank.labels[i]), int(bank.populations[i])))
    return b"".join(out)


def old_binary_banks(spec_path, tmp_path):
    """fit_small_model, its banks then rewritten as LSTBANK1 .bin files that
    model.json refers to: (series path, model dir, banks dir)."""
    series_csv, fit_dir = fit_small_model(spec_path, tmp_path)
    banks_dir = tmp_path / "banks"
    for path in sorted(banks_dir.iterdir()):
        path.with_suffix(".bin").write_bytes(lstbank1_bytes(PatternBank.load(path)))
        path.unlink()
    model = json.loads((fit_dir / "model.json").read_text())
    model["banks"] = [ref.replace(".json", ".bin") for ref in model["banks"]]
    (fit_dir / "model.json").write_text(json.dumps(model))
    return series_csv, fit_dir, banks_dir


SERIES_DEFAULTS = dict(duration=259200.0, interval=10.0, start_price=500.0, imbalance_gain=0.0)
MINING_DEFAULTS = dict(windows=(180, 360, 720), k=100, m=20, stride=1, max_iters=100)

# (required flags, every resulting attribute) per subcommand, defaults as literals
PARSED_DEFAULTS = {
    "gen": (["--spec", "s.json", "--out", "o.csv"], dict(
        spec="s.json", out="o.csv", seed=None, placements=None, **SERIES_DEFAULTS)),
    "ingest": (["--ticks", "t.csv", "--out", "o.csv"], dict(
        ticks="t.csv", out="o.csv", interval=10.0)),
    "build-banks": (["--series", "s.csv", "--out-dir", "b"], dict(
        series="s.csv", out_dir="b", seed=0, **MINING_DEFAULTS)),
    "fit": (["--series", "s.csv", "--banks-dir", "b", "--out-dir", "f"], dict(
        series="s.csv", banks_dir="b", out_dir="f", c_grid=(0.5, 1.0, 2.0, 4.0, 8.0))),
    "report": (["--series", "s.csv", "--model", "m.json", "--out-dir", "r"], dict(
        series="s.csv", model="m.json", out_dir="r", thresholds=None, sharpe_variant="sqrt")),
    "pipeline": (["--spec", "s.json", "--out", "run"], dict(
        spec="s.json", ticks=None, out="run", c_grid=(0.5, 1.0, 2.0, 4.0, 8.0), thresholds=None,
        sharpe_variant="sqrt", split=(1 / 3, 1 / 3, 1 / 3), seed=0,
        **SERIES_DEFAULTS, **MINING_DEFAULTS)),
}


class TestArgHandling:
    @pytest.mark.parametrize("command", list(PARSED_DEFAULTS))
    def test_parsed_defaults(self, command):
        required, expected = PARSED_DEFAULTS[command]
        parsed = vars(build_parser().parse_args([command, *required]))
        assert parsed.pop("func").__name__ == "cmd_" + command.replace("-", "_")
        assert parsed == {"command": command, **expected}

    def test_unknown_subcommand_nonzero(self, capsys):
        assert run_cli("frobnicate") != 0

    @pytest.mark.parametrize("command", ["backtest", "sweep"])
    def test_removed_commands_are_usage_errors(self, capsys, command):
        """report does what backtest and sweep did: report --thresholds t, or a list."""
        assert run_cli(command, "--series", "s.csv", "--model", "m.json", "--thresholds", "0.1") == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err

    def test_report_refuses_thresholds_before_reading_input(self, tmp_path, capsys):
        rc = run_cli("report", "--series", tmp_path / "missing.csv", "--model", tmp_path / "m.json",
                     "--thresholds", "0.1,inf", "--out-dir", tmp_path / "rep")
        assert rc == 1
        assert capsys.readouterr().err == "error: thresholds must be finite and > 0\n"
        assert not (tmp_path / "rep").exists()

    def test_unknown_flag_nonzero(self, spec_path):
        assert run_cli("gen", "--spec", spec_path, "--out", "x.csv", "--bogus") != 0

    def test_no_subcommand_nonzero(self):
        assert run_cli() != 0

    def test_missing_input_file_named(self, tmp_path, capsys):
        rc = run_cli("ingest", "--ticks", tmp_path / "nope.csv", "--out", tmp_path / "o.csv")
        assert rc != 0
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("interval", ["0", "-1", "nan", "ten"])
    @pytest.mark.parametrize("command", ["ingest", "gen", "pipeline"])
    def test_bad_interval_is_a_usage_error_naming_it(self, spec_path, tmp_path, capsys, command, interval):
        ticks = tmp_path / "ticks.csv"
        ticks.write_text("timestamp,price,bid_vol_total,ask_vol_total\n1,100,1,1\n")
        source = ("--ticks", ticks) if command == "ingest" else ("--spec", spec_path)
        out = tmp_path / "out"
        assert run_cli(command, *source, "--out", out, "--interval", interval) == 2
        assert f"error: argument --interval: expected a number > 0, got '{interval}'" in (
            capsys.readouterr().err)
        assert not out.exists()


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

    def test_gen_placements_in_a_missing_directory_is_a_write_error(self, spec_path, tmp_path, capsys):
        placements = tmp_path / "nodir" / "p.json"
        rc = run_cli(
            "gen", "--spec", spec_path, "--out", tmp_path / "series.csv", "--duration", 7200,
            "--placements", placements,
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: failed writing {placements}: ")
        assert "missing input file" not in err
        assert not (tmp_path / "series.csv").exists()  # a failed gen leaves nothing behind

    @pytest.mark.parametrize("command", ["gen", "pipeline"])
    def test_negative_seed_is_a_usage_error_naming_it(self, spec_path, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert run_cli(command, "--spec", spec_path, "--out", out, "--seed", -1) == 2
        assert "error: argument --seed: expected a non-negative integer, got '-1'" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("duration", ["inf", "nan"])
    def test_gen_refuses_non_finite_duration(self, spec_path, tmp_path, capsys, duration):
        out = tmp_path / "series.csv"
        assert run_cli("gen", "--spec", spec_path, "--out", out, "--duration", duration) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: duration must be finite")
        assert not out.exists()

    def test_gen_refuses_more_than_max_buckets_before_allocating(
        self, spec_path, tmp_path, capsys, monkeypatch
    ):
        def no_allocation(*args, **kwargs):
            raise AssertionError("generate_price_series allocated the series")

        monkeypatch.setattr(latent_source, "MAX_BUCKETS", 100)
        monkeypatch.setattr(latent_source.np, "empty", no_allocation)
        out = tmp_path / "series.csv"
        assert run_cli("gen", "--spec", spec_path, "--out", out, "--duration", 7200) == 1
        assert capsys.readouterr().err == (
            "error: duration 7200.0 s needs more than 100 buckets of 10.0 s\n"
        )
        assert not out.exists()


class TestBadInputFiles:
    """A bad series or spec file exits 1 with an error naming the file, no traceback."""

    def test_report_names_bad_series_token(self, tmp_path, capsys):
        series = tmp_path / "bad.csv"
        series.write_text("bucket_time,price,imbalance\n0.0,100.0,0.0\n10.0,abc,0.0\n")
        rc = run_cli("report", "--series", series, "--model", tmp_path / "model.json",
                     "--out-dir", tmp_path / "rep")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{series}: line 3: non-numeric price: 'abc'" in err

    @pytest.mark.parametrize(
        "text, message",
        [('{"sources": [[1.0,', "spec.json: malformed JSON at line 1 column 19"),
         ("{}", "spec.json: spec JSON needs a list 'sources'")],
        ids=["truncated", "empty_object"],
    )
    @pytest.mark.parametrize("command", ["gen", "pipeline"])
    def test_bad_spec_names_file(self, tmp_path, capsys, command, text, message):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        out = tmp_path / ("series.csv" if command == "gen" else "run")
        rc = run_cli(command, "--spec", spec, "--out", out)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mutate, message",
        [(lambda d: d["mix"].__setitem__(0, None), "spec.json: mix must be finite"),
         (lambda d: d.update(noise_sigma=float("nan")), "spec.json: noise_sigma must be finite"),
         (lambda d: d.update(seed=-1), "spec.json: seed must be >= 0")],
        ids=["mix_null", "noise_nan", "seed_negative"],
    )
    @pytest.mark.parametrize("command", ["gen", "pipeline"])
    def test_non_finite_spec_names_file(self, tmp_path, capsys, command, mutate, message):
        data = demo_spec().to_json_dict()
        mutate(data)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(data))  # NaN is written as the literal json.load accepts
        out = tmp_path / ("series.csv" if command == "gen" else "run")
        rc = run_cli(command, "--spec", spec, "--out", out, "--duration", 3600)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()  # the run directory is made once the input has loaded

    @pytest.mark.parametrize("command", ["ingest", "report"])
    def test_header_csv_refuses_names_line_1(self, tmp_path, capsys, command):
        """A header field past csv's field limit exits 1 with the line, no traceback."""
        bad = tmp_path / "bad.csv"
        bad.write_text(f"timestamp,{'x' * 131073}\n1.0,100.0\n")
        if command == "ingest":
            rc = run_cli("ingest", "--ticks", bad, "--out", tmp_path / "o.csv")
        else:
            rc = run_cli("report", "--series", bad, "--model", tmp_path / "model.json",
                         "--out-dir", tmp_path / "rep")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line 1: field larger than field limit")
        assert "Traceback" not in err

    @pytest.mark.parametrize("reader", ["spec", "ticks", "series", "model", "bank"])
    def test_non_utf8_input_names_file(self, spec_path, tmp_path, capsys, reader):
        """A byte that is not UTF-8 exits 1 with the file named, for every reader."""
        out = tmp_path / "out"
        if reader in ("model", "bank"):
            series_csv, fit_dir = fit_small_model(spec_path, tmp_path)
            bad = fit_dir / "model.json" if reader == "model" else tmp_path / "banks" / "bank_60.json"
            args = ("report", "--series", series_csv, "--model", fit_dir / "model.json", "--out-dir", out)
        else:
            bad = tmp_path / f"{reader}.txt"
            args = {
                "spec": ("gen", "--spec", bad, "--out", out),
                "ticks": ("ingest", "--ticks", bad, "--out", out),
                "series": ("report", "--series", bad, "--model", tmp_path / "model.json", "--out-dir", out),
            }[reader]
        bad.write_bytes(b"\xff")
        capsys.readouterr()
        assert run_cli(*args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{bad.name}: not UTF-8 text" in err
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("command", ["ingest", "pipeline"])
    @pytest.mark.parametrize("text", ["timestamp,price,bid_vol_total,ask_vol_total\n", ""],
                             ids=["header_only", "empty"])
    def test_no_ticks_fails_naming_the_file(self, tmp_path, capsys, command, text):
        ticks = tmp_path / "ticks.csv"
        ticks.write_text(text)
        out = tmp_path / "out"
        assert run_cli(command, "--ticks", ticks, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {ticks}: no ticks after the header\n"
        assert not out.exists()

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
        assert capsys.readouterr().err.startswith(f"error: {ticks}: line 3: non-finite ")

    def test_ingest_malformed_row_fails(self, tmp_path, capsys):
        ticks = tmp_path / "bad.csv"
        ticks.write_text("timestamp,price,bid_vol_total,ask_vol_total\n1,oops,1,1\n")
        rc = run_cli("ingest", "--ticks", ticks, "--out", tmp_path / "o.csv")
        assert rc != 0
        assert f"{ticks}: line 2" in capsys.readouterr().err

    def test_ingest_bad_token_names_file_and_line(self, tmp_path, capsys):
        ticks = tmp_path / "ticks.csv"
        ticks.write_text("timestamp,price,bid_vol_total,ask_vol_total\n1,100,1,1\n2,abc,1,1\n")
        out = tmp_path / "o.csv"
        assert run_cli("ingest", "--ticks", ticks, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {ticks}: line 3: non-numeric price: 'abc'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows, interval",
        [("1,100,1,1\n2,101,1,1\n", "inf"), ("1e308,100,1,1\n1.7e308,101,1,1\n", "1e308")],
        ids=["inf_interval", "overflowing_bucket_time"],
    )
    def test_ingest_refuses_non_finite_bucket_times(self, tmp_path, capsys, rows, interval):
        """A grid whose bucket times are not all finite is refused before anything
        is written: build-banks would refuse the series file it made."""
        ticks = tmp_path / "ticks.csv"
        ticks.write_text("timestamp,price,bid_vol_total,ask_vol_total\n" + rows)
        out = tmp_path / "o.csv"
        assert run_cli("ingest", "--ticks", ticks, "--out", out, "--interval", interval) == 1
        assert capsys.readouterr().err.startswith("error: bucket times must be finite: ")
        assert not out.exists()


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
            "report", "--series", series_csv, "--model", fit_dir / "model.json",
            "--thresholds", "0.1", "--out-dir", bt_dir,
        ) == 0
        assert (bt_dir / "trades.csv").exists()
        assert json.loads((bt_dir / "summary.json").read_text())["threshold"] == 0.1

        sweep_dir = tmp_path / "sweep"
        assert run_cli(
            "report", "--series", series_csv, "--model", fit_dir / "model.json",
            "--thresholds", "0.05,0.1,0.2", "--out-dir", sweep_dir,
        ) == 0
        lines = (sweep_dir / "sweep.csv").read_text().strip().splitlines()
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
        rc = run_cli(
            "report", "--series", series_csv, "--model", fit_dir / "model.json",
            "--out-dir", tmp_path / "rep",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "model.json: model JSON needs a dict 'kernel'" in err

    @pytest.mark.parametrize(
        "target, text, message",
        [
            ("model.json", '{"kernel": ', "model.json: malformed JSON at line 1 column 12"),
            ("bank_60.json", '{"window_length": 60}', "bank_60.json: bank JSON needs a list 'patterns'"),
            ("bank_60.json", '{"window_length": 60, "kernel_c": 1.0, "patterns": [{"vector": [0.0]}]}',
             "bank_60.json: bank JSON pattern 0 needs a 'label'"),
            ("bank_120.json", '{"patterns": [\n  {"vector": ', "bank_120.json: malformed JSON at line 2 column 14"),
            ("model.json", json.dumps({"kernel": {"variant": "exp_similarity", "c": 1.0}, "banks": [5],
                                       "weights": {"w0": 0.0, "w1": 1.0, "w2": 0.0, "used_ridge": False}}),
             "model.json: model JSON needs a list of path strings 'banks'"),
        ],
        ids=["truncated_model", "bank_without_patterns", "bank_pattern_without_label", "truncated_bank",
             "model_bank_not_str"],
    )
    def test_malformed_json_fails_naming_file(self, spec_path, tmp_path, capsys, target, text, message):
        series_csv, fit_dir = fit_small_model(spec_path, tmp_path)
        # model.json refers to the banks fit read, in build-banks' --out-dir
        (fit_dir / target if target == "model.json" else tmp_path / "banks" / target).write_text(text)
        capsys.readouterr()
        rc = run_cli(
            "report", "--series", series_csv, "--model", fit_dir / "model.json",
            "--out-dir", tmp_path / "rep",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert "Traceback" not in err

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

    def test_old_binary_bank_fails_naming_file(self, spec_path, tmp_path, capsys):
        """A model.json that refers to an LSTBANK1 bank, a form that no longer
        loads, exits 1 naming the file, with no traceback."""
        series_csv, fit_dir, banks_dir = old_binary_banks(spec_path, tmp_path)
        capsys.readouterr()
        rc = run_cli(
            "report", "--series", series_csv, "--model", fit_dir / "model.json",
            "--out-dir", tmp_path / "rep",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "bank_30.bin: " in err
        assert "Traceback" not in err

    def test_fit_finds_no_bank_among_old_binary_files(self, spec_path, tmp_path, capsys):
        series_csv, _, banks_dir = old_binary_banks(spec_path, tmp_path)
        assert sorted(os.listdir(banks_dir)) == ["bank_120.bin", "bank_30.bin", "bank_60.bin"]
        capsys.readouterr()
        rc = run_cli(
            "fit", "--series", series_csv, "--banks-dir", banks_dir,
            "--out-dir", tmp_path / "refit", "--c-grid", "1",
        )
        assert rc == 1
        assert capsys.readouterr().err == f"error: missing input file: no bank_*.json files in {banks_dir}\n"

    @pytest.mark.parametrize("value", ["0.1,inf", "inf"], ids=["report", "one"])
    def test_non_finite_threshold_fails_before_anything_is_written(self, spec_path, tmp_path, capsys, value):
        """An infinite threshold is refused: a summary.json holding it would
        not be strict JSON, and no |dp| exceeds it."""
        series_csv, fit_dir = fit_small_model(spec_path, tmp_path)
        out = tmp_path / "out"
        args = ("--series", series_csv, "--model", fit_dir / "model.json", "--out-dir", out)
        assert run_cli("report", *args, "--thresholds", value) == 1
        assert capsys.readouterr().err == "error: thresholds must be finite and > 0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "mutate, message",
        [(lambda refs: refs[::-1], "bank window lengths must be strictly increasing"),
         (lambda refs: [refs[0], refs[0], refs[2]], "bank window lengths must be strictly increasing"),
         (lambda refs: [refs[0], refs[1], os.path.dirname(refs[2])],
          f"bank path {os.path.join('fitted', '..', 'banks')} is a directory")],
        ids=["swapped", "duplicated", "directory"],
    )
    def test_bank_refs_fault_names_the_model(self, spec_path, tmp_path, capsys, monkeypatch, mutate, message):
        """A fault in what model.json refers to, not in a bank file, names model.json."""
        series_csv, fit_dir = fit_small_model(spec_path, tmp_path)
        model = json.loads((fit_dir / "model.json").read_text())
        model["banks"] = mutate(model["banks"])
        (fit_dir / "model.json").write_text(json.dumps(model))
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        rc = run_cli("report", "--series", series_csv, "--model", "fitted/model.json", "--out-dir", "rep")
        assert rc == 1
        assert capsys.readouterr().err == f"error: fitted/model.json: {message}\n"
        assert not (tmp_path / "rep").exists()

    def test_report_writes_the_library_sweep_and_ledger(self, spec_path, tmp_path):
        """report --thresholds L writes the sweep and ledger that the library's
        emit_report gives for L and the peak-profit row, byte for byte."""
        series_csv, fit_dir = fit_small_model(spec_path, tmp_path)
        rep = tmp_path / "rep"
        assert run_cli(
            "report", "--series", series_csv, "--model", fit_dir / "model.json",
            "--thresholds", "0.1,0.2", "--out-dir", rep,
        ) == 0
        series = PriceSeries.from_csv(series_csv)
        model = PredictorModel.load_json(fit_dir / "model.json")
        dp_stream = model.dp_stream(series)
        rows = sweep_thresholds(series, dp_stream, [0.1, 0.2])
        best = max(rows, key=lambda row: row.total_profit)
        assert rows[0].trades != rows[1].trades and rows[0].total_profit != rows[1].total_profit
        emit_report(best, rows, model.banks, tmp_path / "lib", series=series)
        for name in ("sweep.csv", "trades.csv"):
            assert (rep / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()

    def test_series_crossing_zero_reports(self, spec_path, tmp_path):
        """Series prices are any finite value: the default synthetic walk can
        cross zero. The report stays strict JSON, and return_pct is 0.0 when
        the average entry price is not positive."""
        series_csv, fit_dir = fit_small_model(spec_path, tmp_path)
        series = PriceSeries.from_csv(series_csv)
        shifted = tmp_path / "shifted.csv"
        # most buckets below zero, so the average entry price is too
        replace(series, prices=series.prices - np.quantile(series.prices, 0.9)).to_csv(shifted)
        rep = tmp_path / "rep"
        model = fit_dir / "model.json"
        assert run_cli("report", "--series", shifted, "--model", model, "--out-dir", rep) == 0

        def refuse(token):
            raise ValueError(f"not strict JSON: {token}")

        summary = json.loads((rep / "summary.json").read_text(), parse_constant=refuse)
        assert summary["num_trades"] > 0
        assert summary["avg_investment"] <= 0
        assert summary["return_pct"] == 0.0

    def test_series_too_short_names_the_series(self, spec_path, tmp_path, capsys):
        series_csv, fit_dir = fit_small_model(spec_path, tmp_path)
        short = tmp_path / "short.csv"
        short.write_text("".join(series_csv.read_text().splitlines(keepends=True)[:30]))
        capsys.readouterr()
        model = fit_dir / "model.json"
        rc = run_cli("report", "--series", short, "--model", model, "--out-dir", tmp_path / "rep")
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {short}: series has 29 buckets, need more than 121 for any fit/evaluation point\n"
        )
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("build-banks", ["--windows", "30,60"], "need at least 61 to build a bank of window length 60"),
        ("fit", ["--banks-dir", "banks"], "need more than 121 for any fit/evaluation point"),
    ], ids=["build-banks", "fit"])
    def test_stage_series_too_short_names_the_series(
        self, spec_path, tmp_path, capsys, command, flags, message
    ):
        series_csv, _ = fit_small_model(spec_path, tmp_path)
        short = tmp_path / "short.csv"
        short.write_text("".join(series_csv.read_text().splitlines(keepends=True)[:30]))
        flags = [tmp_path / flag if flag == "banks" else flag for flag in flags]
        capsys.readouterr()
        assert run_cli(command, "--series", short, "--out-dir", tmp_path / "out", *flags) == 1
        assert capsys.readouterr().err == f"error: {short}: series has 29 buckets, {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("build-banks", ["--k", "0"], "k and m must be >= 1, got k=0, m=20"),
        ("fit", ["--c-grid", "0", "--banks-dir", "banks"], "c grid values must be finite and > 0"),
    ], ids=["build-banks", "fit"])
    def test_bad_flag_does_not_name_the_series(
        self, spec_path, tmp_path, capsys, command, flags, message
    ):
        series_csv, _ = fit_small_model(spec_path, tmp_path)
        flags = [tmp_path / flag if flag == "banks" else flag for flag in flags]
        capsys.readouterr()
        assert run_cli(command, "--series", series_csv, "--out-dir", tmp_path / "out", *flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_report_refuses_a_gaussian_model(self, spec_path, tmp_path, capsys):
        """Series are scored under exp_similarity alone, so a model file of
        another kernel is refused, naming the model file."""
        series_csv, fit_dir = fit_small_model(spec_path, tmp_path)
        model_path = fit_dir / "model.json"
        model = json.loads(model_path.read_text())
        model["kernel"]["variant"] = "gaussian_l2"
        model_path.write_text(json.dumps(model))
        capsys.readouterr()
        rc = run_cli("report", "--series", series_csv, "--model", model_path, "--out-dir", tmp_path / "rep")
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {model_path}: series are scored under exp_similarity only, got 'gaussian_l2'\n"
        )
        assert not (tmp_path / "rep").exists()

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
        assert f"{series_csv}: line 252" in err


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
            "series.csv", "periods.json", "manifest.json", "model.json", "trades.csv",
            "sweep.csv", "equity_curve.csv", "cluster_centers.csv", "summary.json",
        ):
            assert (out / name).exists()
        # each bank once, under banks/, and only the model holds c
        assert not [name for name in os.listdir(out) if name.startswith("bank_")]
        banks = sorted(os.listdir(out / "banks"))
        assert banks == ["bank_120.json", "bank_30.json", "bank_60.json"]
        refs = json.loads((out / "model.json").read_text())["banks"]
        assert refs == ["banks/bank_30.json", "banks/bank_60.json", "banks/bank_120.json"]
        assert all((out / ref).is_file() for ref in refs)
        for name in banks:
            assert "kernel_c" not in json.loads((out / "banks" / name).read_text())
        periods = json.loads((out / "periods.json").read_text())
        n = periods["n_buckets"]
        assert periods["train"][0] == 0
        assert periods["train"][1] == periods["fit"][0]
        assert periods["fit"][1] == periods["eval"][0]
        assert periods["eval"][1] == n

    def test_pipeline_json_files_share_one_format(self, spec_path, tmp_path):
        """Every JSON file a pipeline writes is indented by 2, with sorted keys
        and a closing newline."""
        out = tmp_path / "run"
        assert run_cli(*small_pipeline_args(spec_path, out)) == 0
        paths = [out / "periods.json", out / "manifest.json", out / "model.json", out / "summary.json"]
        paths += sorted((out / "banks").glob("*.json"))
        assert len(paths) == 7
        for path in paths:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name

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

    def test_bundles_are_identical_at_one_and_two_blas_threads(self, tmp_path):
        """A one-day pipeline and a report on its run directory write the same
        bytes in every file under OPENBLAS_NUM_THREADS=1 and =2, set in the
        child only: no product or sum that reaches a bundle rounds by thread count."""
        spec = tmp_path / "spec.json"
        demo_spec().save_json(spec)
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(lstrader.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        bundles = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            done = subprocess.run(
                [sys.executable, "-c", PIPELINE_THEN_REPORT, str(spec), str(out)],
                capture_output=True, text=True, env={**env, "OPENBLAS_NUM_THREADS": threads}, timeout=600,
            )
            assert done.returncode == 0, done.stderr
            files = sorted(path for path in out.rglob("*") if path.is_file())
            bundles.append({path.relative_to(out).as_posix(): path.read_bytes() for path in files})
        assert "report/summary.json" in bundles[0]
        assert bundles[0].keys() == bundles[1].keys()
        assert [name for name in bundles[0] if bundles[0][name] != bundles[1][name]] == []

    def test_manifest_is_the_same_wherever_the_run_is_written(self, spec_path, tmp_path):
        """manifest.json holds the config, the seed, the versions and what
        calibration decided, no --out, and the spec by base name and SHA-256,
        so runs into two directories, reading the spec from two, write the
        same bytes."""
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        copy = elsewhere / "spec.json"
        copy.write_bytes(pathlib.Path(spec_path).read_bytes())
        texts = []
        for name, spec in (("a", spec_path), ("b", copy)):
            assert run_cli(*small_pipeline_args(spec, tmp_path / name, seed=3)) == 0
            texts.append((tmp_path / name / "manifest.json").read_bytes())
        assert texts[0] == texts[1]
        manifest = json.loads(texts[0])
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        expected = vars(build_parser().parse_args(small_pipeline_args(spec_path, "run", seed=3)))
        del expected["func"], expected["out"]
        expected["spec"] = {
            "name": "spec.json", "sha256": hashlib.sha256(copy.read_bytes()).hexdigest()
        }
        assert manifest["args"] == json.loads(json.dumps(expected))
        assert manifest["seed"] == 3
        assert manifest["versions"] == {
            "lstrader": lstrader.__version__, "numpy": np.__version__,
            "python": platform.python_version(),
        }
        assert manifest["blas"]["name"]
        assert "blas_threads" not in manifest  # no bundle bit depends on the BLAS thread count
        grid = [c for c, _ in manifest["c_grid_mse"]]
        assert grid == [0.5, 1.0, 2.0, 4.0, 8.0]
        assert min(manifest["c_grid_mse"], key=lambda pair: pair[1])[0] == summary["kernel_c"]
        assert manifest["used_ridge"] == summary["used_ridge"]

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

    @staticmethod
    def _period_split(n, train, fit):
        """A --split whose periods of an n-bucket series hold train, fit and the
        rest of the buckets (each fraction half a bucket above its floor)."""
        return f"{(train + 0.5) / n!r},{(fit + 0.5) / n!r},{(n - train - fit - 1) / n!r}"

    @pytest.mark.parametrize(
        "train, fit, message",
        [(120, 1380, "train period has 120 buckets, need at least 121"),
         (1500, 125, "fit period has 125 buckets, need at least 126"),
         (1500, 1260, "eval period has 121 buckets, need at least 122")],
        ids=["train", "fit", "eval"],
    )
    def test_short_period_fails_before_anything_is_written(
        self, spec_path, tmp_path, capsys, train, fit, message
    ):
        """One bucket short of what the longest window (120) needs: a labeled
        window to train on, MIN_FIT_SAMPLES fit points, one eval point."""
        out = tmp_path / "run"
        args = small_pipeline_args(spec_path, out, extra=("--split", self._period_split(2881, train, fit)))
        assert run_cli(*args) == 1
        assert capsys.readouterr().err == f"error: {message} for windows of length 120\n"
        assert not out.exists()

    def test_shortest_periods_run_through(self, spec_path, tmp_path, capsys):
        """Periods of exactly the buckets the check asks for are enough to run."""
        out = tmp_path / "run"
        args = small_pipeline_args(spec_path, out, extra=("--split", self._period_split(369, 121, 126)))
        args[args.index("--duration") + 1] = "3680"
        assert run_cli(*args) == 0
        assert "periods: train=(0, 121) fit=(121, 247) eval=(247, 369)" in capsys.readouterr().out

    def test_split_and_source_validation(self, spec_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(*small_pipeline_args(spec_path, out, extra=("--split", "0.5,0.5,0.5"))) == 1
        assert "error: split fractions sum to 1.5" in capsys.readouterr().err
        # argparse's required, mutually exclusive source group: usage error, exit 2
        assert run_cli("pipeline", "--out", out) == 2
        assert run_cli("pipeline", "--spec", spec_path, "--ticks", "t.csv", "--out", out) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "split, message",
        [("nan,0.5,0.5", "split needs three positive fractions"),
         ("0.5,inf,0.5", "split fractions sum to inf, expected 1"),
         ("0.001,0.001,0.998", "series of 721 buckets cannot be split into three periods")],
        ids=["nan", "inf", "short_series"],
    )
    def test_bad_split_fails_before_anything_is_written(
        self, spec_path, tmp_path, capsys, split, message
    ):
        out = tmp_path / "run"
        args = small_pipeline_args(spec_path, out, extra=("--split", split))
        args[args.index("--duration") + 1] = "7200"
        assert run_cli(*args) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [(("--k", "0"), "k and m must be >= 1, got k=0, m=4"),
         (("--k", "-3"), "k and m must be >= 1, got k=-3, m=4"),
         (("--m", "0"), "k and m must be >= 1, got k=12, m=0"),
         (("--c-grid", "1,inf"), "c grid values must be finite and > 0"),
         (("--c-grid", "nan"), "c grid values must be finite and > 0"),
         (("--windows", "0,60"), "window lengths must be >= 1, got 0"),
         (("--windows", "60,30"), "window lengths must be strictly increasing"),
         (("--stride", "0"), "stride must be >= 1"),
         (("--max-iters", "0"), "max_iters must be >= 1"),
         (("--thresholds", "0.2,0.1"), "thresholds must be strictly increasing"),
         (("--thresholds", "0.1,inf"), "thresholds must be finite and > 0"),
         (("--thresholds", "0,0.1"), "thresholds must be finite and > 0")],
        ids=["k_0", "k_negative", "m_0", "c_grid_inf", "c_grid_nan", "windows_0",
             "windows_decreasing", "stride_0", "max_iters_0", "thresholds_decreasing",
             "thresholds_inf", "thresholds_0"],
    )
    def test_bad_mining_or_grid_flag_fails_with_diagnostic(
        self, spec_path, tmp_path, capsys, flags, message
    ):
        # the last flag given wins over the small run's own
        out = tmp_path / "run"
        assert run_cli(*small_pipeline_args(spec_path, out, extra=flags)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--windows", "--c-grid", "--thresholds", "--split"])
    def test_empty_list_flag_is_a_usage_error_naming_it(self, spec_path, tmp_path, capsys, flag):
        out = tmp_path / "run"
        assert run_cli(*small_pipeline_args(spec_path, out, extra=(flag, ","))) == 2
        assert f"error: argument {flag}: expected at least one value, got ','" in capsys.readouterr().err
        assert not out.exists()

    def test_pipeline_stdout_lines(self, spec_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(*small_pipeline_args(spec_path, out)) == 0
        periods = json.loads((out / "periods.json").read_text())
        summary = json.loads((out / "summary.json").read_text())
        train, fit, ev = (tuple(periods[name]) for name in ("train", "fit", "eval"))
        assert capsys.readouterr().out.splitlines() == [
            f"periods: train={train} fit={fit} eval={ev}",
            f"calibrated c={summary['kernel_c']}, weights ridge_fallback={summary['used_ridge']}",
            f"eval: threshold={summary['threshold']} profit={summary['total_profit']} "
            f"trades={summary['num_trades']} sharpe={summary['sharpe']}",
        ]

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_pipeline_from_ticks_rejects_non_finite(self, tmp_path, capsys, bad):
        ticks = tmp_path / "ticks.csv"
        ticks.write_text(f"timestamp,price,bid_vol_total,ask_vol_total\n1,100,1,1\n10,101,{bad},1\n")
        rc = run_cli("pipeline", "--ticks", ticks, "--out", tmp_path / "run")
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {ticks}: line 3: non-finite bid_vol_total: ")

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
        manifest = json.loads((out / "manifest.json").read_text())
        digest = hashlib.sha256(ticks.read_bytes()).hexdigest()
        assert manifest["args"]["ticks"] == {"name": "ticks.csv", "sha256": digest}
        assert manifest["args"]["spec"] is None
