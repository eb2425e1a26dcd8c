"""Output checks for the benchmark, written independently of the library.

Everything here reads the files the CLI wrote (or the generator's own
reference arrays) and recomputes what it can with plain numpy, so a wrong
answer from a faster layer is caught even when the layer's own tests miss
it.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import json
import math
import os

import numpy as np

TRAIN_BUNDLE = (
    "series.csv",
    "periods.json",
    "model.json",
    "summary.json",
    "sweep.csv",
    "equity_curve.csv",
    "cluster_centers.csv",
    "trades.csv",
)
REPORT_BUNDLE = ("summary.json", "sweep.csv", "equity_curve.csv", "cluster_centers.csv", "trades.csv")
LEDGER_TOLERANCE = 1e-9
DP_TOLERANCE = 1e-9


def tree_digest(path: str) -> str:
    """sha256 over every file below path: relative name, then contents."""
    digest = hashlib.sha256()
    if os.path.isfile(path):
        with open(path, "rb") as fh:
            digest.update(fh.read())
        return digest.hexdigest()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            digest.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                digest.update(fh.read())
            digest.update(b"\0")
    return digest.hexdigest()


def missing_files(out_dir: str, names) -> list[str]:
    return [n for n in names if not os.path.isfile(os.path.join(out_dir, n)) or
            os.path.getsize(os.path.join(out_dir, n)) == 0]


def read_summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)


def ledger_error(out_dir: str, total_profit: float) -> float:
    """|sum of round-trip profits in trades.csv - total_profit|."""
    with open(os.path.join(out_dir, "trades.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    profits = [float(r["round_trip_profit"]) for r in rows if r["round_trip_profit"] != ""]
    return abs(math.fsum(profits) - total_profit)


def check_train_bundle(out_dir: str) -> list[str]:
    failures = []
    missing = missing_files(out_dir, TRAIN_BUNDLE)
    if missing:
        return [f"bundle incomplete: missing {missing}"]
    with open(os.path.join(out_dir, "model.json"), encoding="utf-8") as fh:
        refs = json.load(fh)["banks"]
    absent = [r for r in refs if not os.path.isfile(os.path.join(out_dir, r))]
    if absent or not os.listdir(os.path.join(out_dir, "banks")):
        failures.append(f"bundle incomplete: bank files {absent or 'banks/'} missing")
    summary = read_summary(out_dir)
    err = ledger_error(out_dir, summary["total_profit"])
    if err > LEDGER_TOLERANCE:
        failures.append(f"ledger round trips differ from total_profit by {err}")
    return failures


def check_planted_profit(profits: dict[str, float]) -> tuple[list[str], list[str]]:
    """Profit over all the run's markets must be > 0 on the planted zero-noise data.

    ``profits`` maps each distinct market to its ``total_profit``. One
    market's held-out period is a third of a day, in which the chosen
    threshold may make a single round trip; such a market can lose by
    chance (about one in a hundred seeds). The check is therefore on the
    sum over the markets, which covers more held-out data than the 3-day
    demo's single period. Returns (failures, notes on losing markets).
    """
    notes = [f"{label}: profit {p} is not > 0 (counted in the total)"
             for label, p in sorted(profits.items()) if not p > 0]
    total = math.fsum(profits.values())
    if profits and not total > 0:
        return [f"profit {total} summed over {len(profits)} markets is not > 0 "
                "on planted zero-noise data"], notes
    return [], notes


def check_report_bundle(out_dir: str) -> list[str]:
    missing = missing_files(out_dir, REPORT_BUNDLE)
    if missing:
        return [f"report bundle incomplete: missing {missing}"]
    summary = read_summary(out_dir)
    err = ledger_error(out_dir, summary["total_profit"])
    if err > LEDGER_TOLERANCE:
        return [f"ledger round trips differ from total_profit by {err}"]
    return []


# -- kernel regression oracle ------------------------------------------------


class NaiveModel:
    """model.json and its JSON bank files, read without the library."""

    def __init__(self, model_path: str):
        with open(model_path, encoding="utf-8") as fh:
            data = json.load(fh)
        self.variant = data["kernel"]["variant"]
        self.c = float(data["kernel"]["c"])
        weights = data["weights"]
        if isinstance(weights.get("w"), list):
            self.weights = np.array(weights["w"], dtype=np.float64)
        else:
            names = sorted((k for k in weights if k[0] == "w" and k[1:].isdigit()), key=lambda k: int(k[1:]))
            self.weights = np.array([float(weights[k]) for k in names])
        base = os.path.dirname(model_path)
        self.banks = []
        for ref in data["banks"]:
            with open(os.path.join(base, ref), encoding="utf-8") as fh:
                bank = json.load(fh)
            vectors = np.array([p["vector"] for p in bank["patterns"]], dtype=np.float64)
            labels = np.array([p["label"] for p in bank["patterns"]], dtype=np.float64)
            self.banks.append((int(bank["window_length"]), vectors, labels))

    def dp(self, prices: np.ndarray, imbalances: np.ndarray, t: int) -> float:
        """Normalize each trailing window, correlate with the bank, softmax
        with c, average the labels, apply the affine combiner."""
        features = []
        for m, vectors, labels in self.banks:
            window = prices[t - m + 1 : t + 1]
            dev = window - window.mean()
            std = math.sqrt(float(dev @ dev) / m)
            z = np.zeros(m) if window.max() == window.min() or std == 0 else dev / std
            if self.variant == "exp_similarity":
                log_w = self.c * np.clip(vectors @ z / m, -1.0, 1.0)
            else:
                log_w = -0.25 * ((vectors - z) ** 2).sum(axis=1)
            w = np.exp(log_w - log_w.max())
            features.append(float(w @ labels / w.sum()))
        features.append(float(imbalances[t]))
        return float(self.weights[0] + self.weights[1:] @ np.array(features))


def close(a: float, b: float, tol: float = DP_TOLERANCE) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# -- coarsening reference ----------------------------------------------------


def read_series_csv(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [(float(t), float(p), float(r)) for t, p, r in reader]
    return np.array(rows)


def check_ingest(out_csv: str, ref_path: str, interval: float, samples: int = 256) -> list[str]:
    """Bucket count and a sample of buckets against a naive coarsening:
    the last tick of a bucket wins, an empty bucket carries the previous
    bucket forward."""
    ref = np.load(ref_path)
    ts, price, bid, ask = ref["ts"], ref["price"], ref["bid_sum"], ref["ask_sum"]
    out = read_series_csv(out_csv)
    first = math.ceil(float(ts[0]) / interval)
    last = math.ceil(float(ts[-1]) / interval)
    failures = []
    if len(out) != last - first + 1:
        failures.append(f"bucket count {len(out)} != ceil(last/10)-ceil(first/10)+1 = {last - first + 1}")
        return failures
    tick_bucket = [math.ceil(float(t) / interval) for t in ts]
    rng = np.random.default_rng(len(out))
    picks = sorted(set(rng.integers(0, len(out), size=samples).tolist()) | {0, len(out) - 1})
    for i in picks:
        j = bisect.bisect_right(tick_bucket, first + i) - 1  # last tick at or before bucket i
        total = bid[j] + ask[j]
        want_r = 0.0 if total == 0 else (bid[j] - ask[j]) / total
        got_t, got_p, got_r = out[i]
        if got_t != (first + i) * interval or got_p != price[j] or abs(got_r - want_r) > 1e-12:
            failures.append(
                f"bucket {i}: got ({got_t}, {got_p}, {got_r}), want ({(first + i) * interval}, {price[j]}, {want_r})"
            )
            break
    return failures
