#!/usr/bin/env python3
"""Run the benchmark over several seeds per workload and write one result file.

    python3 bench/suite.py [--workload NAME ...] [--runs 10] [--first-seed 1]
                           [--no-trace] [--out FILE]

Each run is the command of BENCHMARK.json with --seed first-seed,
first-seed+1, ...; one traced run per workload follows unless --no-trace.
The runs go one after another.  For every workload and end-to-end metric
the table gives the median of the runs and their spread, the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, beside a third of the metric's bound, the spread a steady
benchmark stays below.  --out collects every run record without its
per-invocation samples, for compare.py.
Exit status 1 when any run failed its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    record_file = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    record_file.unlink(missing_ok=True)
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    line = json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout.strip() else {}
    record = json.loads(record_file.read_text()) if record_file.exists() else {}
    record.update(exit=done.returncode, result=line)
    return record


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    records, ok = [], True
    for workload in args.workload or names:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        for seed in seeds:
            records.append(run_once(spec, workload, seed, 0))
            ok &= records[-1]["exit"] == 0
            print(f"{workload} seed {seed}: exit {records[-1]['exit']}", file=sys.stderr)
        if not args.no_trace:
            records.append(run_once(spec, workload, args.first_seed, 1))
            ok &= records[-1]["exit"] == 0

        print(f"\n{workload}  ({args.runs} runs, seeds {seeds.start}..{seeds.stop - 1})")
        print(f"  {'metric':<14}{'median':>14}{'spread':>9}{'bound/3':>9}")
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in records
                      if r.get("workload") == workload and r.get("trace") == 0
                      and r["result"].get("correct")]
            if not values:
                continue
            s = spread(values)
            flag = "" if s < metric["bound"] / 3 or metric["name"] == "setup_s" else "  unsteady"
            print(f"  {metric['name']:<14}{statistics.median(values):>14.6g}"
                  f"{s:>9.4f}{metric['bound'] / 3:>9.4f}{flag}")
    if args.out:
        for record in records:
            record.pop("invocations", None)
        args.out.write_text(json.dumps({"benchmark": spec, "runs": records}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
