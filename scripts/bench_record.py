#!/usr/bin/env python3
"""Append perfbench results to the committed benchmark trajectory.

    python3 perfbench/run.py --workload evaluate --seed 3 > run.txt
    python3 scripts/bench_record.py run.txt --label "parent" [--bench BENCH_perfbench.json]

Each workload section of a ``perfbench/run.py`` output ends in one JSON
line (``correct``, ``attempted``, ``failed``, ``metrics``); its ``# meta``
line holds the commit, the seed and the host facts. Every such section
becomes one entry of the JSON list in the bench file, one entry per line,
in the order recorded. ``commit`` is the checkout's HEAD when the run
started, so a run of uncommitted work says so in ``--label``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = ("nproc", "python", "numpy", "blas", "blas_threads", "thread_env", "host_loop_ms")


def entries(lines: list[str], label: str) -> list[dict]:
    """One entry per workload section: a ``# meta`` line, then its result line."""
    found, meta, trace = [], None, None
    for line in lines:
        if line.startswith("# workload "):
            trace = int(line.split("trace ")[1].split()[0])
        elif line.startswith("# meta "):
            meta = json.loads(line[len("# meta "):])
        elif line.startswith("{") and meta is not None:
            found.append({
                "label": label,
                "workload": meta["workload"],
                "commit": meta["commit"],
                "seed": meta["seed"],
                "trace": trace,
                "host": {key: meta.get(key) for key in HOST_KEYS},
                "input_sizes": meta.get("input_sizes"),
                "wall_s": meta.get("wall_s"),
                "result": json.loads(line),
            })
            meta = None
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("output", help="a saved perfbench/run.py output ('-' for stdin)")
    parser.add_argument("--label", required=True, help="what was measured, e.g. parent or change")
    parser.add_argument("--bench", default=os.path.join(ROOT, "BENCH_perfbench.json"))
    args = parser.parse_args(argv)

    if args.output == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.output, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    new = entries(lines, args.label)
    if not new:
        print(f"error: no '# meta' line followed by a result line in {args.output}", file=sys.stderr)
        return 1
    old = []
    if os.path.exists(args.bench):
        with open(args.bench, encoding="utf-8") as fh:
            old = json.load(fh)
    with open(args.bench, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in old + new) + "\n]\n")
    print(f"appended {len(new)} entries to {args.bench} ({len(old) + len(new)} in all)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
