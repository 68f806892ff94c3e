#!/usr/bin/env python3
"""Benchmark of the ruehrkit verifier: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it runs the program from src/.  Every
invocation is `ruehrkit verify ... --format json` through ruehrkit.cli.main
in a fresh interpreter (bench/child.py), because a user pays for import and
for any in-process cache on every invocation.  Invocations run one at a
time; the only threads are those of the workload's own --jobs, and the
only other processes the speed meters described below.

--trace 0 runs rounds of two set-up-only invocations and one timed
invocation for S seconds, spends what is left of S on more set-up-only
invocations, and prints the end-to-end metrics.  --trace 1 runs
rounds of one untraced and one traced invocation for S seconds, then times
the fixed-size probes, and prints the per-layer metrics.

End-to-end times are in reference seconds.  A virtual CPU of the shared host
this was tuned on runs at one of two speeds, the slower about 1.8 times
slower, switching every few seconds to tens of seconds as other tenants come
and go, so raw times of one run spread by 25% and more.  A meter process
(bench/meter.py) therefore shares every CPU of a timed invocation and counts
how fast the CPU ran meanwhile; each time is scaled to a CPU on which the
meter does REFERENCE_LOOPS_PER_S loops per second, about this host's fast
speed.  Meter and invocation split the CPU evenly, so the invocation's own
wall time is half the elapsed time.  Set-up time is the CPU time the
invocation spent before its first check, which start-up spends almost all
computing; CPU shares over such short spans are too uneven to halve.  The
record keeps the raw figures.  Traced invocations and the probes are metered
the same way, so per-layer times are in reference seconds too.

Every invocation passes the correctness gate or the run fails: exit code 0,
as many reports as harness.build_suites expands the arguments into, every
`equal` true, and one SHA-256 of the report stream (elapsed_ms removed) for
all invocations of the run, traced or not.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
The full record (environment, every sample, digests) is written to
.bench_out/<workload>-seed<N>-trace<T>.json.  Exit status: 0 when the gate
held, 1 when it did not, 2 when the program or the arguments are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

import probes  # noqa: E402
import tracer  # noqa: E402

SETUP_PER_ROUND = 2
CHILD_TIMEOUT_S = 150
REFERENCE_LOOPS_PER_S = 1000.0
METERED_SLOWDOWN = 2


@dataclass(frozen=True)
class Workload:
    name: str
    verify_argv: tuple
    jobs: int = 1

    def argv(self, seed: int) -> list:
        return [*self.verify_argv, "--jobs", str(self.jobs),
                "--format", "json", "--seed", str(seed)]


# Why each workload exists is in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("poly-algebra", ("verify", "polynomials", "--max-n", "20")),
    Workload("sum-vs-integral", ("verify", "comtet", "--max-n", "60", "--trials", "2000")),
    Workload("verify-all", ("verify", "all"), jobs=2),
)}

END_TO_END = {"wall_s": "s", "checks_per_s": "1/s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "passed_frac": "frac"}


def per_layer_names() -> list[str]:
    return [*tracer.layer_metric_names(), "cli.render_s", "cli.output_bytes",
            "trace_overhead_frac", *probes.PROBE_NAMES]


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_us") or name.startswith("harness.check_us.p"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Meters:
    """One meter.py process per CPU, running for a whole run.

    sample() returns {cpu: (loops, meter CPU seconds)}; two samples around an
    invocation give the speed each CPU ran at meanwhile.
    """

    def __init__(self, cpus):
        self.procs = {}
        try:
            for cpu in cpus:
                self.procs[cpu] = subprocess.Popen(
                    [sys.executable, str(BENCH_DIR / "meter.py"), str(cpu)],
                    stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
            for proc in self.procs.values():
                if proc.stdout.readline().strip() != "ready":
                    raise RuntimeError("speed meter did not start")
        except BaseException:
            self.close()
            raise

    def sample(self) -> dict:
        for proc in self.procs.values():
            proc.send_signal(signal.SIGUSR1)
        out = {}
        for cpu, proc in self.procs.items():
            fields = proc.stdout.readline().split()
            if len(fields) != 2:
                raise RuntimeError(f"speed meter on CPU {cpu} stopped")
            out[cpu] = (int(fields[0]), float(fields[1]))
        return out

    def close(self) -> None:
        for proc in self.procs.values():
            proc.terminate()
        for proc in self.procs.values():
            proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def invoke(mode: str, verify_argv: list, fault=None, cpus=None, meters=None,
           spans=None) -> dict:
    """Start one fresh interpreter on `cpus`; return its record with spawn time and exit.

    With meters, the record also gets `speed`: the mean over the meters on
    `cpus` of loops per meter CPU second while it ran, over the reference.
    """
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode]
    if fault:
        cmd += ["--fault", fault]
    if spans:
        cmd += ["--spans", str(spans)]
    cmd += ["--", *verify_argv]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    pin = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    before = meters.sample() if meters else None
    spawn = now()
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, check=False, preexec_fn=pin)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "spawn": spawn, "exit": None, "error": "timeout"}
    record = {"mode": mode, "spawn": spawn, "exit": done.returncode}
    if meters:
        after = meters.sample()
        rates = [(after[c][0] - before[c][0]) / (after[c][1] - before[c][1]) for c in cpus]
        record["meter_loops_per_s"] = rates
        record["speed"] = statistics.mean(rates) / REFERENCE_LOOPS_PER_S
    lines = done.stdout.decode(errors="replace").strip().splitlines()
    try:
        record.update(json.loads(lines[-1]))
    except (IndexError, ValueError):
        record["error"] = f"no result (exit {done.returncode})"
    return record


def summary(values: list) -> dict:
    """Median, quartiles, the highest percentile with ten samples beyond it, n."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(ordered, n=4)
    for pct in (99.9, 99, 98, 95, 90, 75, 50):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            out[f"p{pct:g}"] = ordered[rank - 1]
            break
    return out


class Gate:
    """Counts checks attempted and failed over the invocations of one run."""

    def __init__(self, expected: int):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = None

    def check(self, record: dict) -> None:
        self.attempted += self.expected
        label = f"{record['mode']} invocation"
        if "error" in record or record.get("exit") != 0:
            self.problems.append(f"{label}: {record.get('error', 'exit')} {record.get('exit')}")
            self.failed += self.expected
            return
        failed = record["failed"] + max(self.expected - record["reports"], 0)
        problem = None
        if record["rc"] != 0:
            problem = f"verify exited {record['rc']}"
        elif record["reports"] != self.expected:
            problem = f"{record['reports']} reports for {self.expected} checks"
        elif self.digest is not None and record["digest"] != self.digest:
            problem = "report digest differs between invocations"
        elif record.get("restored") is False:
            problem = "tracer left a wrapped function bound"
        self.digest = self.digest or record["digest"]
        if problem:
            self.problems.append(f"{label}: {problem}")
            failed = self.expected
        self.failed += failed

    def setup_only(self, record: dict) -> None:
        if "run_start" not in record:
            self.problems.append(f"set-up invocation: {record.get('error', 'no mark')}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def read_loadavg() -> list:
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return []


def environment(seed: int, version) -> dict:
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "ruehrkit_version": version, "git_commit": commit, "seed": seed}


def own_wall(r: dict) -> float:
    """Reference seconds from interpreter start to the last report written."""
    return (r["end"] - r["spawn"]) / METERED_SLOWDOWN * r["speed"]


def layer_value(r: dict, name: str) -> float:
    """One per-layer metric of a traced invocation, times in reference units."""
    value = r["layers"][name]
    if unit_of(name) not in ("s", "us"):
        return value
    if name.startswith("harness.check_us."):
        return value * r["speed"]
    return value / METERED_SLOWDOWN * r["speed"]


def end_to_end(setups: list, timed: list) -> dict:
    """Summaries of the end-to-end samples, times scaled to reference seconds."""
    walls = [own_wall(r) for r in timed]
    samples = {
        "wall_s": walls,
        "checks_per_s": [r["reports"] / wall for r, wall in zip(timed, walls)],
        "setup_s": [r["setup_cpu_s"] * r["speed"] for r in setups + timed],
        "cpu_s": [r["cpu_s"] * r["speed"] for r in timed],
        "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in timed],
        "raw_wall_s": [r["end"] - r["spawn"] for r in timed],
        "speed": [r["speed"] for r in timed],
    }
    return {name: summary(values) for name, values in samples.items()}


def repeat_until(deadline: float, gate: Gate, one_round) -> None:
    """Run rounds while the gate holds and another round of the last one's length fits."""
    while True:
        started = now()
        one_round()
        finished = now()
        if not gate.correct or finished + (finished - started) > deadline:
            return


def measure(workload: Workload, seed: int, seconds: float, trace: bool, fault=None) -> dict:
    """One run of the benchmark; returns the full record."""
    started_utc = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    loadavg_start = read_loadavg()
    argv = workload.argv(seed)
    warmup = invoke("expect", argv, fault)
    if "expected" not in warmup:
        raise RuntimeError(f"cannot load the program: {warmup.get('error')}")
    gate = Gate(warmup["expected"])
    record = {"workload": workload.name, "seed": seed, "trace": int(trace),
              "seconds": seconds, "argv": argv, "expected_checks": gate.expected,
              "environment": environment(seed, warmup.get("version")),
              "started_utc": started_utc, "loadavg_start": loadavg_start}
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"{workload.name}-seed{seed}-spans.tsv"
    cpus = sorted(os.sched_getaffinity(0))[-workload.jobs:]
    invocations = []

    with Meters(cpus) as meters:
        def one_round():
            if not trace:
                for _ in range(SETUP_PER_ROUND):
                    invocations.append(invoke("setup", argv, fault, cpus, meters))
                    gate.setup_only(invocations[-1])
            invocations.append(invoke("run", argv, fault, cpus, meters))
            gate.check(invocations[-1])
            if trace:
                invocations.append(invoke("trace", argv, fault, cpus, meters, spans))
                gate.check(invocations[-1])
        deadline = now() + seconds
        repeat_until(deadline, gate, one_round)
        if trace:
            probe = invoke("probes", [], fault, cpus[:1], meters)
            invocations.append(probe)
        else:
            # what is left of the run, up to a round, goes to more set-up samples
            def setup_round():
                invocations.append(invoke("setup", argv, fault, cpus, meters))
                gate.setup_only(invocations[-1])
            repeat_until(deadline, gate, setup_round)

    if not trace and gate.correct:
        record["end_to_end"] = end_to_end([r for r in invocations if r["mode"] == "setup"],
                                          [r for r in invocations if r["mode"] == "run"])
    if trace:
        gate.attempted += len(probes.PROBE_NAMES)
        failed_probes = probe.get("failed_probes", probes.PROBE_NAMES)
        if failed_probes:
            gate.failed += len(failed_probes)
            gate.problems.append(f"probes failed their check: {', '.join(failed_probes)}")
        if gate.correct:
            traced = [r for r in invocations if r["mode"] == "trace"]
            untraced = [r for r in invocations if r["mode"] == "run"]
            layers = {name: statistics.median(layer_value(r, name) for r in traced)
                      for name in traced[0]["layers"]}
            layers["trace_overhead_frac"] = (statistics.median(map(own_wall, traced))
                                             / statistics.median(map(own_wall, untraced)) - 1)
            layers.update({name: us * probe["speed"] for name, us in probe["probes"].items()})
            record["per_layer"] = layers
            record["spans_file"] = spans.name
        for r in invocations:
            r.pop("layers", None)
    record["invocations"] = invocations

    record["digest"] = gate.digest
    record["attempted"], record["failed"] = gate.attempted, gate.failed
    record["failed_frac"] = gate.failed / gate.attempted
    record["problems"] = gate.problems
    record["correct"] = gate.correct
    record["loadavg_end"] = read_loadavg()
    return record


def result_line(record: dict) -> dict:
    """The contract's last line: end-to-end or per-layer metrics by name."""
    metrics = {}
    if record["correct"]:
        if record["trace"]:
            names = per_layer_names()
            values = {name: record["per_layer"][name] for name in names}
        else:
            names = list(END_TO_END)
            values = {name: record["end_to_end"][name]["median"]
                      for name in names if name != "passed_frac"}
            values["passed_frac"] = 1 - record["failed_frac"]
        metrics = {name: {"value": values[name], "unit": unit_of(name)} for name in names}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None, fault=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ruehrkit" / "cli.py").is_file():
        print(f"bench: no ruehrkit sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        record = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), fault)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    for problem in record["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps(result_line(record)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    # so that a terminated run still stops its meters and children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
