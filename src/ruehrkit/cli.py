"""Command-line entry point.

Three subcommands:

  verify <suite>   run an identity suite and stream one report per check
  tailsum          print exact large-deviation tail sums and their k-th roots
  orbit            print the orbit of a value under a divide-or-affine map

verify exits 0 when every check passed, 1 when any failed or when the run
checked nothing, and 2 on usage errors (a negative --max-n or --trials is
one).  orbit exits 1 when the map leaves the positive integers.  The fuzz
seed is --seed, 42 when it is not given.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import collatz_bound, harness

DEFAULT_SEED = 42

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational such as 1/4, got {text!r}") from None


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruehrkit",
        description="Exact-arithmetic cross-verification of binomial-sum, "
                    "integral, beta-distribution and orbit-map identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run an identity suite")
    verify.add_argument("suite", choices=harness.SUITE_ORDER + ("all",))
    verify.add_argument("--max-n", type=_non_negative_int, default=None,
                        help="upper parameter bound (suite-specific default)")
    verify.add_argument("--trials", type=_non_negative_int, default=None,
                        help="fuzzed instances for randomized suites")
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"fuzz seed (default: {DEFAULT_SEED})")
    verify.add_argument("--format", choices=("json", "csv", "text"), default="text")
    verify.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; checks always run serially")
    verify.set_defaults(run=cmd_verify)

    tailsum = sub.add_parser("tailsum", help="exact tail sums and k-th roots")
    tailsum.add_argument("--d", type=int, required=True)
    tailsum.add_argument("--eps", type=_rational, required=True,
                         help="rational margin, e.g. 1/4")
    tailsum.add_argument("--k-list", type=_int_list, required=True,
                         help="comma-separated k values, e.g. 50,100,200")
    tailsum.set_defaults(run=cmd_tailsum)

    orbit = sub.add_parser("orbit", help="orbit of a value under the map")
    orbit.add_argument("--value", type=int, required=True)
    orbit.add_argument("--preset", choices=("classical",), default=None)
    orbit.add_argument("--mult", type=int, default=None)
    orbit.add_argument("--div", type=int, default=None)
    orbit.add_argument("--residues", type=_int_list, default=None,
                       help="comma-separated complete residue system, e.g. 0,-1")
    orbit.add_argument("--max-steps", type=int, default=10_000)
    orbit.set_defaults(run=cmd_orbit)
    return parser


def cmd_verify(args, stdout, stderr) -> int:
    names = harness.SUITE_ORDER if args.suite == "all" else (args.suite,)
    instances = harness.build_suites(names, args.seed, max_n=args.max_n, trials=args.trials)
    reports = harness.run_instances(instances)

    # one write per report line: print would make two (the line, then "\n")
    if args.format == "csv":
        import csv  # only this format needs it; kept off the start-up path
        writer = csv.writer(stdout, lineterminator="\n")
        writer.writerow(harness.CheckReport._fields)
        emit = lambda report: writer.writerow(harness.report_to_csv_row(report))  # noqa: E731
    else:
        render = harness.report_to_json if args.format == "json" else harness.report_to_text
        emit = lambda report: stdout.write(render(report) + "\n")  # noqa: E731
    count = failed = 0
    for report in reports:  # each report is written, then dropped
        emit(report)
        count += 1
        failed += not report.equal
    if args.format == "text":
        stdout.write(f"{count} checks, {failed} failed\n")
    if not count:
        print("ruehrkit verify: no checks to run; raise --max-n or --trials", file=stderr)
    return EXIT_OK if count and not failed else EXIT_CHECK_FAILED


def cmd_tailsum(args, stdout, stderr) -> int:
    try:
        masses = [collatz_bound.tail_sum(collatz_bound.TailSumQuery(k=k, d=args.d, eps=args.eps))
                  for k in args.k_list]
    except ValueError as exc:
        print(f"ruehrkit tailsum: {exc}", file=stderr)
        return EXIT_USAGE
    print(f"d={args.d} eps={args.eps}", file=stdout)
    roots = [collatz_bound.kth_root(mass, k) for k, mass in zip(args.k_list, masses)]
    for k, mass, root in zip(args.k_list, masses, roots):
        print(f"k={k} tail_sum={mass} kth_root={root:.12g}",
              file=stdout)
    print(f"max kth_root: {max(roots):.12g}", file=stdout)
    return EXIT_OK


def cmd_orbit(args, stdout, stderr) -> int:
    custom = (args.mult, args.div, args.residues)
    try:
        if args.preset == "classical":
            if any(v is not None for v in custom):
                raise ValueError("--preset cannot be combined with --mult/--div/--residues")
            cfg = collatz_bound.CLASSICAL
        elif all(v is not None for v in custom):
            cfg = collatz_bound.GenCollatzConfig(mult=args.mult, div=args.div,
                                                 residues=args.residues)
        else:
            raise ValueError("need --preset classical or all of --mult, --div, --residues")
        if args.value < 1:
            raise ValueError(f"--value must be >= 1, got {args.value}")
        result = collatz_bound.orbit(args.value, cfg, args.max_steps)
    except ValueError as exc:
        print(f"ruehrkit orbit: {exc}", file=stderr)
        return EXIT_USAGE
    residues_text = ",".join(str(r) for r in cfg.residues)
    print(f"start={args.value} mult={cfg.mult} div={cfg.div} residues={residues_text}",
          file=stdout)
    print("steps: " + " ".join(str(v) for v in result.steps), file=stdout)
    if result.terminated == "cycle-found":
        cycle_text = " ".join(str(v) for v in result.cycle)
        print(f"cycle found after {len(result.steps) - 1} steps; cycle: {cycle_text}",
              file=stdout)
    elif result.terminated == "left-positive-integers":
        print(f"left the positive integers at step {len(result.steps) - 1}: "
              f"value {result.steps[-1]}", file=stdout)
        return EXIT_CHECK_FAILED
    else:
        print(f"max steps reached after {len(result.steps) - 1} steps", file=stdout)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args, sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
