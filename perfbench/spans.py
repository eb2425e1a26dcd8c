"""Span recorder for the traced benchmark run.

Wraps public functions of the lstrader layers from outside the package:
each wrapper records a span (name, start, end, parent, thread) and a few
counters taken from the call's arguments and result. Nothing inside the
library is changed on disk; the wrappers are installed on the attribute the
caller looks up (``lstrader.cli.build_banks`` rather than
``lstrader.pattern_bank.build_banks``, because cli imported the name) and
removed again before the benchmark's own replay and checks run.

A target that no longer exists (renamed or removed by a later refactor) is
reported as absent; its metrics read 0 and are listed in the run metadata.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time

# (module, attribute path, span name, counter hook name or None)
TARGETS = (
    ("lstrader.cli", "cmd_pipeline", "cli.pipeline", None),
    ("lstrader.cli", "cmd_report", "cli.report", None),
    ("lstrader.cli", "cmd_ingest", "cli.ingest", None),
    ("lstrader.cli", "generate_price_series", "latent_source.generate", None),
    ("lstrader.cli", "parse_ticks", "market_data.parse_ticks", "ticks"),
    ("lstrader.cli", "coarsen", "market_data.coarsen", "buckets"),
    ("lstrader.market_data", "PriceSeries.to_csv", "market_data.series_to_csv", None),
    ("lstrader.market_data", "PriceSeries.from_csv", "market_data.series_from_csv", None),
    ("lstrader.cli", "build_banks", "pattern_bank.build_banks", None),
    ("lstrader.pattern_bank", "extract_windows", "pattern_bank.extract_windows", "windows"),
    ("lstrader.pattern_bank", "kmeans", "pattern_bank.kmeans", "kmeans"),
    ("lstrader.pattern_bank", "select_effective", "pattern_bank.select", None),
    ("lstrader.pattern_bank", "PatternBank.save_json", "pattern_bank.bank_save", None),
    ("lstrader.pattern_bank", "PatternBank.save_binary", "pattern_bank.bank_save", None),
    ("lstrader.pattern_bank", "PatternBank.load", "pattern_bank.bank_load", None),
    ("lstrader.cli", "calibrate_c", "regression.calibrate_c", None),
    ("lstrader.regression", "feature_block", "regression.feature_block", "feature_block"),
    ("lstrader.trader", "run_backtest", "trader.run_backtest", "run_backtest"),
    ("lstrader.evaluator", "sweep_thresholds", "evaluator.sweep", None),
    ("lstrader.evaluator", "emit_report", "evaluator.emit_report", "report_bytes"),
)

COMMAND_SPANS = ("cli.pipeline", "cli.report", "cli.ingest")


class _Span:
    __slots__ = ("name", "key", "start", "end", "parent", "children")

    def __init__(self, name, key, start, parent):
        self.name = name
        self.key = key
        self.start = start
        self.end = None
        self.parent = parent
        self.children = []


def _covered(span: _Span) -> float:
    """Length of the union of the child intervals, clipped to the span."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in span.children if c.end is not None
    )
    covered = 0.0
    cur_start = cur_end = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_end is None or lo > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = lo, hi
        else:
            cur_end = max(cur_end, hi)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


class Tracer:
    """Installs the wrappers, keeps spans in memory, summarizes them."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._local = threading.local()
        self._main_stack: list[_Span] = []
        self._main_ident = threading.get_ident()
        self._lock = threading.Lock()
        self._restore = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[_Span]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, key):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A pool thread's first span was caused by whatever the main
            # thread is blocked in (sweep_thresholds runs backtests this way).
            parent = self._main_stack[-1] if self._main_stack else None
        span = _Span(name, key, time.perf_counter(), parent)
        stack.append(span)
        with self._lock:
            self.spans.append(span)
            if parent is not None:
                parent.children.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, name, hook):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = None
            if hook == "windows":
                key = _bound(signature, args, kwargs, "window")
            span = tracer._open(name, key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                _HOOKS[hook](tracer, span, signature, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr_path, name, hook in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = attr_path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr_path}")
                continue
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(raw.__func__, name, hook))
            elif isinstance(raw, staticmethod):
                replacement = staticmethod(self._wrap(raw.__func__, name, hook))
            elif callable(raw):
                replacement = self._wrap(raw, name, hook)
            else:
                self.absent.append(f"{module_name}.{attr_path}")
                continue
            setattr(owner, attr, replacement)
            self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- summary ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds; plus keyed
        totals (per window length) and the counters."""
        by_name: dict[str, dict] = {}
        keyed: dict[str, float] = {}
        for span in self.spans:
            if span.end is None:
                continue
            duration = span.end - span.start
            entry = by_name.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - _covered(span)
            if span.key is not None:
                label = f"{span.name}_s.{span.key}"
                keyed[label] = keyed.get(label, 0.0) + duration
        return {"spans": by_name, "keyed": keyed, "counters": dict(self.counters), "absent": list(self.absent)}


def _bound(signature, args, kwargs, param):
    try:
        return signature.bind(*args, **kwargs).arguments.get(param)
    except TypeError:
        return None


def _hook_ticks(tracer, span, signature, args, kwargs, result):
    tracer.count("market_data.ticks", len(result))


def _hook_buckets(tracer, span, signature, args, kwargs, result):
    tracer.count("market_data.buckets", len(result))


def _hook_windows(tracer, span, signature, args, kwargs, result):
    if span.key is not None:
        tracer.count(f"pattern_bank.windows.{span.key}", len(result))


def _hook_kmeans(tracer, span, signature, args, kwargs, result):
    centroids = getattr(result, "centroids", None)
    history = getattr(result, "objective_history", None)
    if centroids is None or history is None:
        return
    span.key = int(centroids.shape[1])
    tracer.count(f"pattern_bank.kmeans_iters.{span.key}", len(history) - 1)


def _hook_feature_block(tracer, span, signature, args, kwargs, result):
    banks = _bound(signature, args, kwargs, "banks")
    ts = _bound(signature, args, kwargs, "ts")
    tracer.count("regression.feature_block_calls", 1)
    if ts is not None:
        tracer.count("regression.points_scored", len(ts))
        if banks is not None:
            tracer.count("regression.sim_evals", len(ts) * sum(len(b) for b in banks))


def _hook_run_backtest(tracer, span, signature, args, kwargs, result):
    series = _bound(signature, args, kwargs, "series")
    tracer.count("trader.run_backtest_calls", 1)
    if series is not None:
        tracer.count("trader.buckets", len(series))
    tracer.count("trader.trades", getattr(result, "num_trades", 0))


def _hook_report_bytes(tracer, span, signature, args, kwargs, result):
    if isinstance(result, dict):
        tracer.count("evaluator.report_bytes", sum(os.path.getsize(p) for p in result.values()))


_HOOKS = {
    "ticks": _hook_ticks,
    "buckets": _hook_buckets,
    "windows": _hook_windows,
    "kmeans": _hook_kmeans,
    "feature_block": _hook_feature_block,
    "run_backtest": _hook_run_backtest,
    "report_bytes": _hook_report_bytes,
}


def layer_metrics(summary: dict) -> dict[str, float]:
    """Map one child's span summary onto the per-layer metric names."""
    spans = summary["spans"]
    counters = summary["counters"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    out = {
        "pattern_bank.build_banks_s": total("pattern_bank.build_banks"),
        "pattern_bank.select_s": total("pattern_bank.select"),
        "pattern_bank.bank_save_s": total("pattern_bank.bank_save"),
        "pattern_bank.bank_load_s": total("pattern_bank.bank_load"),
        "regression.calibrate_c_s": total("regression.calibrate_c"),
        "regression.feature_block_s": total("regression.feature_block"),
        "regression.feature_block_calls": counters.get("regression.feature_block_calls", 0),
        "regression.points_scored": counters.get("regression.points_scored", 0),
        "trader.run_backtest_s": total("trader.run_backtest"),
        "trader.run_backtest_calls": counters.get("trader.run_backtest_calls", 0),
        "trader.trades": counters.get("trader.trades", 0),
        "evaluator.sweep_s": total("evaluator.sweep"),
        "evaluator.emit_report_s": total("evaluator.emit_report"),
        "evaluator.report_bytes": counters.get("evaluator.report_bytes", 0),
        "market_data.parse_ticks_s": total("market_data.parse_ticks"),
        "market_data.coarsen_s": total("market_data.coarsen"),
        "market_data.series_to_csv_s": total("market_data.series_to_csv"),
        "market_data.series_from_csv_s": total("market_data.series_from_csv"),
        "market_data.ticks": counters.get("market_data.ticks", 0),
        "market_data.buckets": counters.get("market_data.buckets", 0),
        "latent_source.generate_s": total("latent_source.generate"),
        "cli.pipeline_s": total("cli.pipeline"),
        "cli.report_s": total("cli.report"),
        "cli.ingest_s": total("cli.ingest"),
        "cli.self_s": sum(spans.get(n, {}).get("self_s", 0.0) for n in COMMAND_SPANS),
    }
    for m in (180, 360, 720):
        out[f"pattern_bank.extract_windows_s.{m}"] = summary["keyed"].get(
            f"pattern_bank.extract_windows_s.{m}", 0.0
        )
        out[f"pattern_bank.kmeans_s.{m}"] = summary["keyed"].get(f"pattern_bank.kmeans_s.{m}", 0.0)
        out[f"pattern_bank.kmeans_iters.{m}"] = counters.get(f"pattern_bank.kmeans_iters.{m}", 0)
        out[f"pattern_bank.windows.{m}"] = counters.get(f"pattern_bank.windows.{m}", 0)
    busy = out["regression.feature_block_s"]
    out["regression.sim_evals_per_s"] = counters.get("regression.sim_evals", 0) / busy if busy else 0.0
    busy = out["trader.run_backtest_s"]
    out["trader.buckets_per_s"] = counters.get("trader.buckets", 0) / busy if busy else 0.0
    busy = out["market_data.parse_ticks_s"]
    out["market_data.ticks_per_s"] = out["market_data.ticks"] / busy if busy else 0.0
    return out
