"""One benchmark child process: prepare inputs, or run one workload instance.

Usage: python3 perfbench/child.py JOB.json

The job file names the workload, the instance and where to write the
result JSON. A run child times its own set-up (``import lstrader.cli`` plus
loading the inputs through the public loaders), then the CLI command, reads
its peak RSS, and only then imports the benchmark's helpers to replay live
decisions and check the outputs, so none of that inflates the measured
numbers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _import_lstrader(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import lstrader.cli as cli

    expected = os.path.join(os.path.realpath(root), "src", "lstrader")
    if os.path.dirname(os.path.realpath(cli.__file__)) != expected:
        raise RuntimeError(f"imported lstrader from {cli.__file__}, expected {expected}")
    return cli


def prep(job: dict) -> dict:
    _import_lstrader(job["root"])
    import inputs
    import numpy as np

    work, size, workload = job["work"], job["size"], job["workload"]
    if workload == "train":
        made = inputs.prepare_train(work, size)
    elif workload == "evaluate":
        made = inputs.prepare_evaluate(work, size, job["model_seed"], job["series_seed"])
    else:
        made = inputs.prepare_ingest(work, size, job["series_seed"])
    return {"inputs": made, "meta": _runtime_meta(np)}


def _runtime_meta(np) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "thread_env": {
            k: os.environ[k]
            for k in ("LST_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run(job: dict) -> dict:
    workload, inst, out = job["workload"], job["instance"], job["out"]
    t0 = time.perf_counter()
    cli = _import_lstrader(job["root"])
    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    if workload == "train":
        from lstrader.latent_source import LatentSourceSpec

        LatentSourceSpec.load_json(inst["spec"])
        argv = inst["argv"]
    elif workload == "evaluate":
        from lstrader.market_data import PriceSeries
        from lstrader.regression import PredictorModel

        model = PredictorModel.load_json(inst["model"])
        series = PriceSeries.from_csv(inst["series"])
        argv = ["report", "--series", inst["series"], "--model", inst["model"], "--out-dir", out]
    else:
        argv = ["ingest", "--ticks", inst["ticks"], "--out", out]
    t1 = time.perf_counter()

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t2 = time.perf_counter()
        rc = cli.main(argv)
        t3 = time.perf_counter()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": t1 - t0, "run_s": t3 - t2, "peak_rss_mb": peak_mb, "rc": rc, "failures": []}
    if tracer is not None:
        tracer.uninstall()
        summary = tracer.summary()
        result["layers"] = spans.layer_metrics(summary)
        result["self_s"] = {name: entry["self_s"] for name, entry in summary["spans"].items()}
        result["absent"] = summary["absent"]
    if rc != 0:
        result["failures"].append(f"exit code {rc}: {err.getvalue().strip()}")
        return result

    import oracles

    if workload == "train":
        result["failures"] += oracles.check_train_bundle(out)
    elif workload == "evaluate":
        result["failures"] += oracles.check_report_bundle(out)
        # one replay per instance and run; later runs are checked by digest
        if job["first_run"] and not job["trace"] and not result["failures"]:
            _replay(result, model, inst["model"], series, out, inst["decisions"])
    else:
        result["failures"] += oracles.check_ingest(out, inst["ref"], interval=10.0)
    if workload != "ingest" and not result["failures"]:
        summary_json = oracles.read_summary(out)
        result["profit"] = summary_json["total_profit"]
        result["sharpe"] = summary_json["sharpe"]
    result["digest"] = oracles.tree_digest(out)
    return result


def _replay(result: dict, model, model_path: str, series, out: str, decisions: int) -> None:
    """Closed-loop live decisions on the last buckets, one caller, no pacing:
    score the newest bucket alone, then step the trader. Then check that
    every batch dp is finite, each replayed dp against the batch dp at the
    same t, and a sample of both against the naive oracle."""
    import numpy as np

    import oracles
    from lstrader import trader

    threshold = oracles.read_summary(out)["threshold"]
    first = max(bank.window_length for bank in model.banks)
    ts_all = np.arange(first, len(series) - 1)
    ts = ts_all[-decisions:]
    prices = series.prices
    position = trader.Position(0)
    replay_dp = np.empty(len(ts))
    decide_us, dp_us, step_us = [], [], []
    errors = []
    clock = time.perf_counter
    for i, t in enumerate(ts.tolist()):
        a = clock()
        try:
            _, dp = model.dp_stream(series, ts=np.array([t]))
            b = clock()
            value = float(dp[0])
            position, _trade = trader.step(position, value, threshold, float(prices[t]), time=t)
            c = clock()
        except Exception as exc:  # noqa: BLE001 - one failed decision is counted, not fatal
            replay_dp[i] = np.nan
            errors.append(f"decision at t={t} raised {exc!r}")
            continue
        replay_dp[i] = value
        decide_us.append((c - a) * 1e6)
        dp_us.append((b - a) * 1e6)
        step_us.append((c - b) * 1e6)

    batch = np.empty(len(ts_all))
    for lo in range(0, len(ts_all), 4096):
        _, batch[lo : lo + 4096] = model.dp_stream(series, ts=ts_all[lo : lo + 4096])
    if not np.isfinite(batch).all():
        result["failures"].append(f"{int((~np.isfinite(batch)).sum())} batch dp values are not finite")
    tail = batch[-len(ts):]
    bad = ~(np.abs(replay_dp - tail) <= oracles.DP_TOLERANCE * np.maximum(1.0, np.abs(tail)))
    if bad.any():
        errors.append(f"{int(bad.sum())} replayed dp are not finite or differ from the batch dp")

    naive = oracles.NaiveModel(model_path)
    offset = len(ts_all) - len(ts)
    picks = set(np.linspace(0, len(ts_all) - 1, 16).astype(int).tolist())
    picks |= set((offset + np.linspace(0, len(ts) - 1, 16).astype(int)).tolist())
    for i in sorted(picks):
        want = naive.dp(prices, series.imbalances, int(ts_all[i]))
        got = [batch[i]] + ([replay_dp[i - offset]] if i >= offset else [])
        if not all(oracles.close(g, want) for g in got):
            result["failures"].append(f"dp at t={int(ts_all[i])}: {got} vs naive oracle {want}")
            break
    result.update(decide_us=decide_us, dp_stream_1row_us=dp_us, step_us=step_us,
                  decisions=len(ts), decisions_failed=int(bad.sum()), decision_errors=errors[:5])


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    try:
        result = prep(job) if job["kind"] == "prep" else run(job)
    except Exception:  # noqa: BLE001 - reported to the parent, which counts the failure
        result = {"failures": [traceback.format_exc(limit=8)]}
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
