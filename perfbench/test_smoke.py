"""Smoke test for the benchmark runner at tiny input sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs untraced and traced; the test checks that the result
line has the agreed shape, that every metric in BENCHMARK.json is printed
by name, and that the runner refuses to run without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 2

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def run_bench(workload, trace, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_printed(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, "\n".join(line for line in lines if "FAILED" in line)
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    table = {line.split()[0] for line in lines[:-1] if line and not line.startswith("#")}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert metric["name"] in table
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not os.path.exists(os.path.join(ROOT, ".perfbench_work"))


def test_metric_lists_match_the_runner():
    sys.path.insert(0, HERE)
    from metrics import END_TO_END, HIGHER_IS_BETTER, PER_LAYER

    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER
    for metric in BENCHMARK["per_layer"]:
        assert (metric["better"] == "higher") == (metric["name"] in HIGHER_IS_BETTER)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("train", 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_and_pool_threads():
    sys.path.insert(0, HERE)
    from concurrent.futures import ThreadPoolExecutor

    import spans

    tracer = spans.Tracer()
    leaf = tracer._wrap(lambda: sum(range(20000)), "leaf", None)

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return [f.result() for f in [pool.submit(leaf) for _ in range(4)]]

    tracer._wrap(outer, "outer", None)()
    by_name = {s.name: s for s in tracer.spans}
    assert all(s.parent is by_name["outer"] for s in tracer.spans if s.name == "leaf")
    summary = tracer.summary()["spans"]
    assert summary["leaf"]["calls"] == 4
    assert 0 <= summary["outer"]["self_s"] <= summary["outer"]["total_s"]

    parent = spans._Span("p", None, 0.0, None)
    parent.end = 10.0
    for lo, hi in ((1.0, 3.0), (2.0, 5.0), (7.0, 8.0), (9.5, 12.0)):
        child = spans._Span("c", None, lo, parent)
        child.end = hi
        parent.children.append(child)
    assert spans._covered(parent) == 4.0 + 1.0 + 0.5


def test_missing_target_is_reported_absent(monkeypatch):
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spans

    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("lstrader.cli", "no_such_fn", "x", None),))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["lstrader.cli.no_such_fn"]
        metrics = spans.layer_metrics(tracer.summary())
        assert metrics["cli.pipeline_s"] == 0.0
    finally:
        tracer.uninstall()


def test_planted_profit_is_checked_over_the_markets():
    sys.path.insert(0, HERE)
    from oracles import check_planted_profit

    failures, notes = check_planted_profit({"a": 300.0, "b": -77.0})
    assert failures == [] and len(notes) == 1 and "b:" in notes[0]
    failures, _ = check_planted_profit({"a": 50.0, "b": -77.0})
    assert len(failures) == 1
