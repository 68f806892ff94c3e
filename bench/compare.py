#!/usr/bin/env python3
"""Compare two benchmark result files: the parent commit's and a change's.

    python3 bench/compare.py PARENT.json CHANGE.json

A result file is what bench/suite.py --out writes, or one run record of
.bench_out/.  For every workload and end-to-end metric it prints the median
and quartiles of the runs on each side, the change in the median, and a
verdict against the bound in BENCHMARK.json:

  regression  the change's median is worse than the parent's by more than the bound
  unresolved  the parent's own quartile spread is wider than the bound, and not
              every run of the change reads better than every run of the parent
  unchanged   neither

Beside each row are the per-layer metrics in seconds that moved most
between the two sides' traced runs, for attributing the change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOP_LAYERS = 3


def load_runs(path: Path) -> list[dict]:
    data = json.loads(path.read_text())
    return data["runs"] if "runs" in data else [data]


def end_to_end_values(runs, workload: str, metric: str) -> list[float]:
    values = []
    for run in runs:
        if run.get("workload") != workload or run.get("trace") != 0 or not run.get("correct"):
            continue
        if metric == "passed_frac":
            values.append(1 - run["failed_frac"])
        else:
            values.append(run["end_to_end"][metric]["median"])
    return values


def layer_medians(runs, workload: str) -> dict[str, float]:
    traced = [run["per_layer"] for run in runs
              if run.get("workload") == workload and run.get("trace") == 1 and run.get("correct")]
    if not traced:
        return {}
    return {name: statistics.median(layers[name] for layers in traced) for name in traced[0]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    p_q1, p_med, p_q3 = quartiles(parent)
    worse = (statistics.median(change) - p_med) / p_med
    if better == "higher":
        worse = -worse
    if (p_q3 - p_q1) / p_med > bound:
        if better == "lower":
            all_better = max(change) < min(parent)
        else:
            all_better = min(change) > max(parent)
        return "unchanged" if all_better else "unresolved"
    return "regression" if worse > bound else "unchanged"


def layer_deltas(parent: dict, change: dict, units: dict) -> str:
    moved = [(change[name] - parent[name], name) for name in parent
             if name in change and units.get(name) == "s"]
    moved.sort(key=lambda item: -abs(item[0]))
    return "  ".join(f"{name} {delta:+.3f}s" for delta, name in moved[:TOP_LAYERS])


def compare(parent_runs, change_runs, spec) -> list[str]:
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    lines = [f"{'workload':<16}{'metric':<14}{'parent median [q1, q3]':>34}"
             f"{'change median [q1, q3]':>34}{'delta':>9}  {'verdict':<11} layers moved most"]
    for workload in (w["name"] for w in spec["workloads"]):
        layers = layer_deltas(layer_medians(parent_runs, workload),
                              layer_medians(change_runs, workload), units)
        for metric in spec["end_to_end"]:
            parent = end_to_end_values(parent_runs, workload, metric["name"])
            change = end_to_end_values(change_runs, workload, metric["name"])
            if not parent or not change:
                lines.append(f"{workload:<16}{metric['name']:<14}  missing runs on "
                             f"{'parent' if not parent else 'change'} side")
                continue
            word = verdict(parent, change, metric["better"], metric["bound"])
            cells = []
            for values in (parent, change):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            delta = statistics.median(change) / statistics.median(parent) - 1
            lines.append(f"{workload:<16}{metric['name']:<14}{cells[0]:>34}{cells[1]:>34}"
                         f"{delta:>+9.2%}  {word:<11} {layers}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = compare(load_runs(args.parent), load_runs(args.change), spec)
    print("\n".join(lines))
    return 1 if any(" regression " in line for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
