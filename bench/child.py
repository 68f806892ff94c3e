"""One ruehrkit invocation in a fresh interpreter; bench/run.py starts it.

    python3 bench/child.py MODE [--fault NAME] [--spans FILE] -- VERIFY_ARGV...

MODE is one of:

  expect  import the CLI, which compiles its .pyc files, and count the checks
          harness.build_suites expands VERIFY_ARGV into
  setup   run the CLI up to the first check, then stop
  run     run the CLI, its stdout going to a hashing sink
  trace   as run, with every public function of the six layers traced
  probes  time the fixed-size probes of bench/probes.py

--fault injects a known defect (see FAULTS) so the benchmark's own tests can
show that its correctness gate catches it.  Timestamps are CLOCK_MONOTONIC,
the clock the parent reads before it starts this interpreter.  The last
line on stdout is one JSON object.
"""

import argparse
import hashlib
import json
import re
import resource
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


REPORT_TAIL = re.compile(r', "equal": (true|false), "elapsed_ms": \d+\}$')


class HashSink:
    """Text stream that keeps no output: it hashes and counts JSON reports.

    The digest covers each report line with elapsed_ms removed, so equal
    results give equal digests.  A line that is not a report counts as failed.
    """

    def __init__(self):
        self.sha = hashlib.sha256()
        self.chars = 0
        self.reports = 0
        self.failed = 0
        self._partial = ""

    def write(self, text: str) -> int:
        self.chars += len(text)
        lines = (self._partial + text).split("\n")
        self._partial = lines.pop()
        for line in lines:
            self._line(line)
        return len(text)

    def flush(self) -> None:
        pass

    def _line(self, line: str) -> None:
        match = REPORT_TAIL.search(line)
        if match is None:
            self.failed += 1
            self.sha.update(line.encode() + b"\n")
            return
        self.reports += 1
        if match.group(1) != "true":
            self.failed += 1
        self.sha.update(f'{line[:match.start()]}, "equal": {match.group(1)}}}\n'.encode())

    def close(self) -> None:
        if self._partial:
            self._line(self._partial)
            self._partial = ""


def _off_by_one_poly_mul(poly_mul):
    from fractions import Fraction

    def poly_mul_plus_one(a, b):
        product = poly_mul(a, b)
        return [product[0] + 1] + product[1:] if product else [Fraction(1)]
    return poly_mul_plus_one


def inject(fault: str) -> list:
    """Rebind one function across the package to a defective version."""
    from fractions import Fraction

    import tracer
    from ruehrkit import exact_math, identities

    if fault == "comtet1":
        # the corruption acceptance criterion 8 applies
        return tracer.rebind({identities.comtet1_sides: lambda n, k, a, b: identities.SidePair(
            lhs=Fraction(0), rhs=Fraction(1), equal=False)})
    if fault == "poly_mul":
        return tracer.rebind({exact_math.poly_mul: _off_by_one_poly_mul(exact_math.poly_mul)})
    raise ValueError(f"unknown fault {fault!r}")


FAULTS = ("comtet1", "poly_mul")


class _StopBeforeChecks(Exception):
    pass


def run_cli(argv: list, setup_only: bool = False) -> dict:
    """Run ruehrkit.cli.main(argv) with stdout going to a HashSink."""
    from ruehrkit import cli, harness

    marks = {}
    run_instances = harness.run_instances

    def marked_run_instances(instances, jobs=1):
        marks["run_start"] = now()
        marks["setup_cpu_s"] = time.process_time()
        if setup_only:
            raise _StopBeforeChecks
        reports = run_instances(instances, jobs=jobs)
        marks["run_end"] = now()
        return reports

    sink, stdout = HashSink(), sys.stdout
    harness.run_instances = marked_run_instances
    sys.stdout = sink
    try:
        rc = cli.main(argv)
        marks["end"] = now()
    except _StopBeforeChecks:
        rc = None
    finally:
        sys.stdout = stdout
        harness.run_instances = run_instances
    sink.close()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"rc": rc, **marks, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss, "reports": sink.reports,
            "failed": sink.failed, "digest": sink.sha.hexdigest(), "bytes": sink.chars}


def expected_checks(argv: list) -> dict:
    import ruehrkit
    from ruehrkit import cli, harness

    args = cli.build_parser().parse_args(argv)
    names = harness.SUITE_ORDER if args.suite == "all" else (args.suite,)
    instances = harness.build_suites(names, args.seed, max_n=args.max_n, trials=args.trials)
    return {"expected": len(instances), "version": ruehrkit.__version__}


def traced_run(argv: list, spans_path) -> dict:
    import tracer

    import ruehrkit.cli  # noqa: F401  (loads every layer before wrapping)
    before = tracer.function_bindings()
    trace = tracer.Tracer()
    trace.install()
    try:
        record = run_cli(argv)
    finally:
        trace.uninstall()
    record["restored"] = tracer.function_bindings() == before
    layers = trace.metrics()
    layers["cli.render_s"] = record["end"] - record["run_end"] if "end" in record else 0.0
    layers["cli.output_bytes"] = record["bytes"]
    record["layers"] = layers
    record["spans"] = trace.span_count()
    if spans_path:
        trace.write_spans(spans_path)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("expect", "setup", "run", "trace", "probes"))
    parser.add_argument("--fault", choices=FAULTS, default=None)
    parser.add_argument("--spans", default=None)
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    verify_argv = argv[split + 1:]

    if args.fault:
        inject(args.fault)
    if args.mode == "expect":
        record = expected_checks(verify_argv)
    elif args.mode == "probes":
        import probes
        timings, failed = probes.run_probes()
        record = {"probes": timings, "failed_probes": failed}
    elif args.mode == "trace":
        record = traced_run(verify_argv, args.spans)
    else:
        record = run_cli(verify_argv, setup_only=args.mode == "setup")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
