"""Check that every committed benchmark summary has the fields it must give.

Usage, from the repository root:

    python scripts/check_bench.py [BENCH_x.json ...]

Without arguments it checks every ``BENCH_*.json`` at the repository root.
A summary must give, per workload, the seeds of its paired runs and, per
metric, the parent's and the change's median with quartiles; and the traced
per-layer metrics of both sides.  Prints one line per problem and exits 1 if
there is any.
"""

from __future__ import annotations

import glob
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATS = ("median", "q1", "q3")


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def problems(data) -> list:
    """What ``data`` (one parsed summary) lacks; empty when complete."""
    if not isinstance(data, dict):
        return ["top level is not an object"]
    out = []
    workloads = data.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        out.append("workloads: missing or empty")
        workloads = {}
    for name, entry in workloads.items():
        where = f"workloads.{name}"
        if not isinstance(entry, dict):
            out.append(f"{where}: not an object")
            continue
        seeds = entry.get("seeds")
        if not isinstance(seeds, list) or not seeds or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in seeds
        ):
            out.append(f"{where}.seeds: missing or not a list of integers")
        metrics = entry.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            out.append(f"{where}.metrics: missing or empty")
            continue
        for metric, sides in metrics.items():
            for side in ("parent", "change"):
                stats = sides.get(side) if isinstance(sides, dict) else None
                if not isinstance(stats, dict) or not all(_number(stats.get(k)) for k in STATS):
                    out.append(f"{where}.metrics.{metric}.{side}: needs numeric {', '.join(STATS)}")
    traced = data.get("traced")
    if not isinstance(traced, dict):
        return out + ["traced: missing"]
    if not isinstance(traced.get("workload"), str) or not isinstance(traced.get("seed"), int):
        out.append("traced: needs workload and seed")
    for side in ("parent", "change"):
        layer = traced.get(side)
        if not isinstance(layer, dict) or not layer or not all(map(_number, layer.values())):
            out.append(f"traced.{side}: needs the per-layer metrics as numbers")
    return out


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:]) or sorted(
        glob.glob(os.path.join(ROOT, "BENCH_*.json"))
    )
    failed = False
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                found = problems(json.load(fh))
        except (OSError, ValueError) as exc:
            found = [f"unreadable: {exc}"]
        for line in found:
            print(f"{os.path.basename(path)}: {line}")
        failed |= bool(found)
    print(f"checked {len(paths)} benchmark summaries" + (", some incomplete" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
