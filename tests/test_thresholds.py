"""The automatic threshold grid against np.quantile, and the report path
without numpy.ma.

cli._auto_thresholds applies np.quantile's linear rule to one np.sort of
|dp|: np.quantile itself calls np.unique, which imports numpy.ma into every
report. The grid must stay the one np.quantile gives, bit for bit, or
bundles would change.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lstrader
from lstrader.cli import AUTO_THRESHOLD_QUANTILES, _auto_thresholds, _quantile
from lstrader.latent_source import demo_spec
from lstrader.market_data import PriceSeries
from lstrader.regression import PredictorModel


def quantile_thresholds(dp):
    """The grid as np.quantile gives it, the reference _auto_thresholds must match."""
    magnitude = np.abs(dp)
    values = [float(np.quantile(magnitude, q)) for q in AUTO_THRESHOLD_QUANTILES]
    grid = sorted({v for v in values if v > 0})
    if not grid:
        peak = float(magnitude.max())
        grid = [peak / 2 if peak > 0 else 1e-6]
    return tuple(grid)


def assert_same_grid(dp):
    magnitude = np.abs(dp)
    ordered = np.sort(magnitude)
    for q in AUTO_THRESHOLD_QUANTILES:
        expected = float(np.quantile(magnitude, q))
        assert _quantile(ordered, q).hex() == expected.hex(), q
    assert [v.hex() for v in _auto_thresholds(dp)] == [v.hex() for v in quantile_thresholds(dp)]


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 0.25, -0.25, 1.0]), st.floats(-1e3, 1e3)),
    min_size=1, max_size=300,
))
def test_grid_matches_np_quantile(dp):
    assert_same_grid(np.array(dp))


CHILD = """
import sys
from lstrader.cli import main
rc = main(sys.argv[1:])
print("numpy.ma" in sys.modules)
sys.exit(rc)
"""


def lstrader_imports_numpy_ma(*argv) -> bool:
    """Whether `lstrader argv` in a fresh interpreter imports numpy.ma; it must exit 0."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(lstrader.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1] == "True"


@pytest.fixture(scope="module")
def seed7_demo(tmp_path_factory):
    """The seed-7 demo run of scripts/run_pipeline_demo.py, made by a fresh
    interpreter: (out dir, whether it imported numpy.ma)."""
    out = tmp_path_factory.mktemp("demo")
    spec = out / "spec.json"
    demo_spec(noise_sigma=0.0).save_json(spec)
    imported = lstrader_imports_numpy_ma(
        "pipeline", "--spec", spec, "--out", out, "--seed", "7",
        "--duration", "259200.0", "--start-price", "5000.0",
    )
    return out, imported


def test_grid_matches_np_quantile_on_the_seed7_demo(seed7_demo):
    out, _ = seed7_demo
    lo, hi = json.loads((out / "periods.json").read_text())["eval"]
    series = PriceSeries.from_csv(out / "series.csv").slice(lo, hi)
    _, dp = PredictorModel.load_json(out / "model.json").dp_stream(series)
    assert_same_grid(dp)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["threshold"] in _auto_thresholds(dp)


def test_pipeline_does_not_import_numpy_ma(seed7_demo):
    assert not seed7_demo[1]


def test_report_does_not_import_numpy_ma(seed7_demo, tmp_path):
    out, _ = seed7_demo
    assert not lstrader_imports_numpy_ma(
        "report", "--series", out / "series.csv", "--model", out / "model.json",
        "--out-dir", tmp_path / "report",
    )
