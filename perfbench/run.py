#!/usr/bin/env python3
"""lstrader benchmark: seeded inputs, one fresh child per workload instance.

    python3 perfbench/run.py --workload {train,evaluate,ingest,all} --seed N \\
        [--seconds S] [--trace 0|1] [--size full|tiny]

Run from anywhere; the package is imported from ``src/`` of the checkout
this file sits in. A preparation child generates the inputs once per run in
a scratch directory under the checkout (removed on exit), so generation is
never timed. Each workload instance then runs in a fresh child process, one
child at a time: set-up, the CLI command, then the output checks.

``--trace 0`` repeats rounds over the instances for about ``--seconds`` and
prints the end-to-end metrics as medians over those children. ``--trace 1``
runs one untraced round, one traced round and a traced repeat of the first
instance, and prints the per-layer metrics. Every run prints a metric table
(name, value, unit, sample count) and, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from metrics import COUNTS, END_TO_END, PER_LAYER, WINDOWS
from oracles import check_planted_profit

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
TIME_LIMIT_S = 170.0  # a run must end within 180 s, clean-up included
WORKLOADS = ("train", "evaluate", "ingest")

SIZES = {
    "full": {
        "train_duration": 86400.0,
        "train_instances": 8,
        "eval_duration": 604800.0,
        "decisions": 5000,
        "ingest_duration": 86400.0,
        "ingest_levels": 60,
        "tick_rate": 2.0,
    },
    "tiny": {
        "train_duration": 28800.0,
        "train_instances": 1,
        "eval_duration": 86400.0,
        "decisions": 200,
        "ingest_duration": 3600.0,
        "ingest_levels": 60,
        "tick_rate": 2.0,
    },
}


class Clock:
    """Hard deadline for the whole workload run, and the measuring window."""

    def __init__(self):
        self.deadline = time.perf_counter() + TIME_LIMIT_S
        self.measure_start = time.perf_counter()

    def measured(self) -> float:
        return time.perf_counter() - self.measure_start

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()


def run_child(job: dict, work: str, clock: Clock) -> dict:
    """Run one child to completion, or kill it at the deadline; returns its result."""
    fd, job_path = tempfile.mkstemp(prefix="job-", suffix=".json", dir=work)
    job["result"] = job_path[: -len(".json")] + ".result.json"
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    timeout = clock.remaining()
    if timeout < 1.0:
        return {"failures": ["not started: out of time"]}
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), job_path],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"failures": [f"killed at the {TIME_LIMIT_S:.0f} s deadline"]}
    except BaseException:  # interrupted: never leave the child running
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0 or not os.path.exists(job["result"]):
        return {"failures": [f"child exited {proc.returncode}: {stderr.strip()[-2000:]}"]}
    with open(job["result"], encoding="utf-8") as fh:
        return json.load(fh)


def derive_seeds(seed: int, size: dict) -> dict:
    """Per-instance seeds; the program only ever sees the generated inputs."""
    rng = random.Random(f"lstrader-bench:{seed}")
    return {
        "train": [rng.randrange(2**31) for _ in range(size["train_instances"])],
        "eval_series": rng.randrange(2**31),
        "ticks": rng.randrange(2**31),
    }


def prepare(workload: str, seed: int, size: dict, work: str, clock: Clock):
    from inputs import pipeline_argv

    seeds = derive_seeds(seed, size)
    job = {
        "kind": "prep", "root": ROOT, "work": work, "workload": workload, "size": size,
        "model_seed": seeds["train"][0],
        "series_seed": seeds["eval_series"] if workload == "evaluate" else seeds["ticks"],
    }
    made = run_child(job, work, clock)
    if made.get("failures"):
        raise RuntimeError("input preparation failed:\n" + "\n".join(made["failures"]))
    inputs = made["inputs"]
    if workload == "train":
        instances = [
            {"label": f"pipeline-{s}", "spec": inputs["spec"],
             "argv": pipeline_argv(inputs["spec"], "{out}", s, size["train_duration"])}
            for s in seeds["train"]
        ]
    elif workload == "evaluate":
        instances = [{"label": "report", "model": inputs["model"], "series": inputs["series"],
                      "decisions": size["decisions"]}]
    else:
        instances = [{"label": "ingest", "ticks": inputs["ticks"], "ref": inputs["ref"]}]
    sizes = {k: v for k, v in inputs.items() if not isinstance(v, str)}  # drop scratch paths
    meta = {"workload": workload, "seed": seed, "seeds": seeds, "input_sizes": sizes,
            "commit": _commit(), **made["meta"]}
    return instances, meta


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_loop_ms() -> float:
    """Best of three runs of a fixed pure-Python loop: a gauge of how fast
    the host was around the measurement, recorded next to the results."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i
        best = min(best, time.perf_counter() - start)
    return round(best * 1000, 3)


def measure(workload: str, seed: int, seconds: float, trace: bool, size: dict) -> dict:
    clock = Clock()
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_DIR)
    children = []

    def launch(inst: dict, traced: bool, role: str) -> None:
        out = os.path.join(work, f"out-{len(children)}" + (".csv" if workload == "ingest" else ""))
        inst = dict(inst)
        if "argv" in inst:
            inst["argv"] = [out if a == "{out}" else a for a in inst["argv"]]
        first = all(c["label"] != inst["label"] for c in children)
        job = {"kind": "run", "root": ROOT, "work": work, "workload": workload,
               "instance": inst, "out": out, "trace": traced, "first_run": first}
        result = run_child(job, work, clock)
        result.update(label=inst["label"], role=role)
        children.append(result)
        if os.path.isdir(out):
            shutil.rmtree(out)
        elif os.path.exists(out):
            os.remove(out)

    try:
        instances, meta = prepare(workload, seed, size, work, clock)
        gauge_before = host_loop_ms()
        clock.measure_start = time.perf_counter()
        if trace:
            for inst in instances:
                launch(inst, False, "timed")
            for inst in instances:
                launch(inst, True, "traced")
            launch(instances[0], True, "repeat")
        else:
            rounds = 0
            while True:  # another round only if it should end within the measuring window
                for inst in instances:
                    launch(inst, False, "timed")
                rounds += 1
                per_round = clock.measured() / rounds
                if clock.measured() + per_round > min(seconds, clock.remaining() - per_round):
                    break
            if rounds == 1:  # the determinism checks need a second run of one instance
                launch(instances[0], False, "repeat")
        meta["wall_s"] = round(clock.measured(), 3)
        meta["host_loop_ms"] = [gauge_before, host_loop_ms()]
        return summarize(trace, children, meta)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass  # another run is using it


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))]


def _consistency_failures(children: list[dict]) -> list[str]:
    """Every run of one instance must give the same bytes and the same counts."""
    notes = []
    groups: dict[str, list[dict]] = {}
    for child in children:
        if "digest" in child:
            groups.setdefault(child["label"], []).append(child)
    for label, group in groups.items():
        if len({c["digest"] for c in group}) > 1:
            notes.append(f"{label}: output digest differs between runs of one seed")
        traced = [c["layers"] for c in group if "layers" in c]
        for name in COUNTS:
            values = {layers.get(name) for layers in traced}
            if len(values) > 1:
                notes.append(f"{label}: count {name} differs between runs of one seed: {sorted(values)}")
    return notes


def summarize(trace: bool, children: list[dict], meta: dict) -> dict:
    attempted = failed = 0
    notes = []
    for child in children:
        attempted += 1 + child.get("decisions", 0)
        failed += bool(child.get("failures")) + child.get("decisions_failed", 0)
        notes += [f"{child['role']} {child['label']}: {f[:1500]}" for f in child.get("failures", [])]
        notes += [f"{child['label']}: {e}" for e in child.get("decision_errors", [])]
    consistency = _consistency_failures(children)
    profit_notes = []
    if meta["workload"] == "train":
        by_market = {c["label"]: c["profit"] for c in children if "profit" in c}
        profit_failures, profit_notes = check_planted_profit(by_market)
        consistency += profit_failures
    failed += len(consistency)
    notes += consistency

    ok = [c for c in children if not c.get("failures") and "run_s" in c]
    timed = [c for c in ok if c["role"] == "timed"]
    traced = [c for c in ok if c["role"] == "traced"]
    samples = {name: [c[name] for c in timed] for name in END_TO_END}
    decide = [v for c in timed for v in c.get("decide_us", [])]
    profits = [c["profit"] for c in timed if "profit" in c]
    sharpes = [c["sharpe"] for c in timed if c.get("sharpe") is not None]
    error_rate = failed / attempted if attempted else 1.0

    lines = [
        f"# workload {meta['workload']}  seed {meta['seed']}  trace {int(trace)}  children {len(children)}"
        f" ({len(timed)} timed, {len(traced)} traced, {len(children) - len(ok)} failed)",
        "# meta " + json.dumps(meta, sort_keys=True),
        "# metric                                          value  unit      samples",
    ]
    for name, unit in END_TO_END.items():
        lines.append(_row(name, _median(samples[name]), unit, len(samples[name])))
    if decide:
        lines.append(_row("decide_us.p50", _percentile(decide, 0.50), "us", len(decide)))
        lines.append(_row("decide_us.p99", _percentile(decide, 0.99), "us", len(decide)))
    if profits:
        lines.append(_row("profit", _median(profits), "price", len(profits)))
    if sharpes:
        lines.append(_row("sharpe", _median(sharpes), "ratio", len(sharpes)))
    lines.append(_row("error_rate", error_rate, "fraction", attempted))
    for name in END_TO_END:
        lines.append(f"# samples {name}: " + " ".join(f"{v:.4f}" for v in samples[name]))

    if trace:
        layers = _layer_values(traced, timed)
        layers.update({
            "decide_us.p50": _percentile(decide, 0.50),
            "decide_us.p99": _percentile(decide, 0.99),
            "profit": _median(profits),
            "sharpe": _median(sharpes),
            "error_rate": error_rate,
            "trace.overhead_s": _median([c["run_s"] for c in traced]) - _median(samples["run_s"]),
        })
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER.items()}
        lines.append("# per-layer (medians over traced children; latencies from untraced ones):")
        lines += [_row(name, m["value"], m["unit"], len(traced)) for name, m in metrics.items()]
        lines += _self_time_lines(traced)
    else:
        metrics = {name: {"value": _median(samples[name]), "unit": unit} for name, unit in END_TO_END.items()}

    lines += [f"# note {n}" for n in profit_notes]
    lines += [f"# FAILED {n}" for n in notes]
    result = {"correct": failed == 0 and bool(timed), "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return {"result": result, "lines": lines, "measured": bool(timed)}


def _layer_values(traced: list[dict], timed: list[dict]) -> dict[str, float]:
    samples: dict[str, list[float]] = {}
    for child in traced:
        for name, value in child["layers"].items():
            samples.setdefault(name, []).append(value)
    values = {name: _median(v) for name, v in samples.items()}
    values["regression.dp_stream_1row_us"] = _percentile(
        [v for c in timed for v in c.get("dp_stream_1row_us", [])], 0.5)
    values["trader.step_us"] = _percentile([v for c in timed for v in c.get("step_us", [])], 0.5)
    return values


def _self_time_lines(traced: list[dict]) -> list[str]:
    if not traced:
        return []
    mean: dict[str, float] = {}
    for child in traced:
        for name, value in child["self_s"].items():
            mean[name] = mean.get(name, 0.0) + value / len(traced)
    lines = ["# self time per span, mean over traced children (s):"]
    lines += [f"#   {name:<34} {value:10.4f}" for name, value in sorted(mean.items(), key=lambda kv: -kv[1])]
    pipeline = sum(c["layers"]["cli.pipeline_s"] for c in traced)
    if pipeline:
        kmeans = sum(c["layers"][f"pattern_bank.kmeans_s.{m}"] for c in traced for m in WINDOWS)
        lines.append(f"# k-means share of cli.pipeline_s: {kmeans / pipeline:.3f}")
    absent = sorted({a for c in traced for a in c.get("absent", [])})
    if absent:
        lines.append(f"# absent targets (renamed or removed; their metrics read 0): {', '.join(absent)}")
    return lines


def _row(name: str, value: float, unit: str, count: int) -> str:
    return f"{name:<36} {value!r:>24}  {unit:<9} n={count}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the clean-up on termination

    if not os.path.isfile(os.path.join(ROOT, "src", "lstrader", "cli.py")):
        print(f"error: no lstrader sources under {ROOT}/src", file=sys.stderr)
        return 2
    status = 0
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            report = measure(name, args.seed, args.seconds, bool(args.trace), SIZES[args.size])
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(report["lines"]))
        if not report["measured"]:
            print(f"error: {name}: no child completed a measurement", file=sys.stderr)
            status = 1
            continue
        print(json.dumps(report["result"]), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
