"""Command-line entry point.

Three subcommands:

  verify <suite>   run an identity suite and stream one report per check
  tailsum          print exact large-deviation tail sums and their k-th roots
  orbit            print the orbit of a value under a divide-or-affine map

verify exits 0 when every check passed, 1 when any failed or when the run
checked nothing, and 2 on usage errors (a negative --max-n or --trials is
one).  orbit exits 1 when the map leaves the positive integers.  The fuzz
seed comes from --seed, else the RUEHRKIT_SEED environment variable, else
42.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys

from . import collatz_bound, harness
from .exact_math import format_rational, parse_rational

SEED_ENV_VAR = "RUEHRKIT_SEED"
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
    verify.add_argument("--seed", type=int, default=None,
                        help=f"fuzz seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    verify.add_argument("--format", choices=("json", "csv", "text"), default="text")
    verify.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; checks always run serially")

    tailsum = sub.add_parser("tailsum", help="exact tail sums and k-th roots")
    tailsum.add_argument("--d", type=int, required=True)
    tailsum.add_argument("--eps", type=str, required=True,
                         help="rational margin, e.g. 1/4")
    tailsum.add_argument("--k-list", type=str, required=True,
                         help="comma-separated k values, e.g. 50,100,200")

    orbit = sub.add_parser("orbit", help="orbit of a value under the map")
    orbit.add_argument("--value", type=int, required=True)
    orbit.add_argument("--preset", choices=("classical",), default=None)
    orbit.add_argument("--mult", type=int, default=None)
    orbit.add_argument("--div", type=int, default=None)
    orbit.add_argument("--residues", type=str, default=None,
                       help="comma-separated complete residue system, e.g. 0,-1")
    orbit.add_argument("--max-steps", type=int, default=10_000)
    return parser


def _resolve_seed(flag_value, stderr) -> int:
    if flag_value is not None:
        return flag_value
    env_value = os.environ.get(SEED_ENV_VAR)
    if env_value is None:
        return DEFAULT_SEED
    try:
        return int(env_value)
    except ValueError:
        print(f"ruehrkit: invalid {SEED_ENV_VAR}={env_value!r}", file=stderr)
        raise


def cmd_verify(args, stdout, stderr) -> int:
    try:
        seed = _resolve_seed(args.seed, stderr)
    except ValueError:
        return EXIT_USAGE
    names = harness.SUITE_ORDER if args.suite == "all" else (args.suite,)
    instances = harness.build_suites(names, seed, max_n=args.max_n, trials=args.trials)
    reports = harness.run_instances(instances)
    if not reports:
        print("ruehrkit verify: no checks to run; raise --max-n or --trials", file=stderr)

    if args.format == "json":
        for report in reports:
            print(harness.report_to_json(report), file=stdout)
    elif args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(harness.CSV_COLUMNS)
        for report in reports:
            writer.writerow(harness.report_to_csv_row(report))
        stdout.write(buffer.getvalue())
    else:
        for report in reports:
            print(harness.report_to_text(report), file=stdout)
        failed = sum(1 for report in reports if not report.equal)
        print(f"{len(reports)} checks, {failed} failed", file=stdout)

    passed = bool(reports) and all(report.equal for report in reports)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_tailsum(args, stdout, stderr) -> int:
    try:
        eps = parse_rational(args.eps)
        k_values = [int(tok) for tok in args.k_list.split(",") if tok.strip()]
        if not k_values:
            raise ValueError("empty --k-list")
        masses = [collatz_bound.tail_sum(collatz_bound.TailSumQuery(k=k, d=args.d, eps=eps))
                  for k in k_values]
    except (ValueError, ZeroDivisionError) as exc:
        print(f"ruehrkit tailsum: {exc}", file=stderr)
        return EXIT_USAGE
    print(f"d={args.d} eps={format_rational(eps)}", file=stdout)
    roots = [collatz_bound.kth_root(mass, k) for k, mass in zip(k_values, masses)]
    for k, mass, root in zip(k_values, masses, roots):
        print(f"k={k} tail_sum={format_rational(mass)} kth_root={root:.12g}",
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
            residues = tuple(int(tok) for tok in args.residues.split(","))
            cfg = collatz_bound.GenCollatzConfig(mult=args.mult, div=args.div,
                                                 residues=residues)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    stdout, stderr = sys.stdout, sys.stderr
    if args.command == "verify":
        return cmd_verify(args, stdout, stderr)
    if args.command == "tailsum":
        return cmd_tailsum(args, stdout, stderr)
    if args.command == "orbit":
        return cmd_orbit(args, stdout, stderr)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
