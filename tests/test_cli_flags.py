"""Number flags of the synthetic series: a value the generator cannot use is
an argparse usage error that names the flag, and nothing is written."""

import pytest

from lstrader.cli import main
from lstrader.latent_source import demo_spec
from lstrader.market_data import PriceSeries

RULES = {"--start-price": "a finite number > 0", "--imbalance-gain": "a finite number"}


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    demo_spec(seed=5).save_json(path)
    return str(path)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--start-price", "-1"),
        ("--start-price", "0"),
        ("--start-price", "nan"),
        ("--start-price", "inf"),
        ("--start-price", "cheap"),
        ("--imbalance-gain", "nan"),
        ("--imbalance-gain", "inf"),
        ("--imbalance-gain", "steep"),
    ],
)
@pytest.mark.parametrize("command", ["gen", "pipeline"])
def test_bad_series_number_is_a_usage_error_naming_it(
    spec_path, tmp_path, capsys, command, flag, value
):
    out = tmp_path / "out"
    assert main([command, "--spec", spec_path, "--out", str(out), flag, value]) == 2
    assert f"error: argument {flag}: expected {RULES[flag]}, got '{value}'" in capsys.readouterr().err
    assert not out.exists()


def test_small_and_negative_values_pass(spec_path, tmp_path):
    out = tmp_path / "g.csv"
    argv = ["gen", "--spec", spec_path, "--out", str(out), "--duration", "7200",
            "--start-price", "1e-3", "--imbalance-gain", "-2"]
    assert main(argv) == 0
    series = PriceSeries.from_csv(out)
    assert series.prices[0] == 1e-3
    assert series.imbalances.any()
