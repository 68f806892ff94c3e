import __future__
import csv
import hashlib
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from conftest import rational_text, strip_elapsed

import ruehrkit.identities
from ruehrkit import beta_dist, cli, collatz_bound, exact_math, harness
from ruehrkit.harness import (
    CheckInstance,
    CheckReport,
    FuzzSource,
    LCG_INCREMENT,
    LCG_MULTIPLIER,
    MASK64,
    build_suites,
    fuzz_int,
    fuzz_probability,
    fuzz_rational,
    report_to_json,
    run_instances,
    serialize_value,
)
from ruehrkit.identities import SidePair, compare_sides


def test_lcg_recurrence_and_golden_first_word():
    src = FuzzSource(42)
    expected = (LCG_MULTIPLIER * 42 + LCG_INCREMENT) & MASK64
    assert src.next_word() == expected == 10481999410520546993
    assert src.next_word() == (LCG_MULTIPLIER * expected + LCG_INCREMENT) & MASK64


def test_fuzz_rational_golden_sequence():
    'pinned so every build fuzzes the identical parameter stream'
    src = FuzzSource(42)
    draws = [fuzz_rational(src, 9, 9) for _ in range(6)]
    assert draws == [F(1), F(3, 5), F(1, 3), F(3, 7), F(-1, 2), F(-4, 7)]


def test_fuzz_rational_consumes_exactly_two_steps():
    a = FuzzSource(99)
    b = FuzzSource(99)
    fuzz_rational(a, 9, 9)
    b.next_word()
    b.next_word()
    assert a.state == b.state


def test_fuzz_rational_bounds_and_nonzero():
    src = FuzzSource(5)
    for _ in range(300):
        q = fuzz_rational(src, 9, 7)
        assert q != 0
        assert abs(q.numerator) <= 9
        assert 1 <= q.denominator <= 7
    for seed in range(30):
        assert fuzz_rational(FuzzSource(seed), 1, 1) in (F(1), F(-1))
    with pytest.raises(ValueError):
        fuzz_rational(src, 0, 5)


def test_fuzz_probability_ranges():
    src = FuzzSource(3)
    for _ in range(200):
        assert 0 <= fuzz_probability(src, 9) <= 1
        assert 0 < fuzz_probability(src, 9, lo_open=True) <= 1
        assert 0 <= fuzz_probability(src, 9, hi_open=True) < 1
        p = fuzz_probability(src, 9, lo_open=True, hi_open=True)
        assert 0 < p < 1
    with pytest.raises(ValueError):
        fuzz_probability(src, 1, lo_open=True, hi_open=True)


def test_fuzz_int_bounds():
    src = FuzzSource(8)
    seen = {fuzz_int(src, -2, 2) for _ in range(200)}
    assert seen == {-2, -1, 0, 1, 2}
    with pytest.raises(ValueError):
        fuzz_int(src, 3, 2)


def test_serialize_value_formats():
    assert serialize_value(F(26, 35)) == "26/35"
    assert serialize_value(7) == "7"
    assert serialize_value((1, 2, 3)) == '["1", "2", "3"]'
    assert serialize_value([F(4), F(-3)]) == '["4", "-3"]'


def _json_dumps_reference(report):
    'the renderer the string join replaced'
    return json.dumps({"check_name": report.check_name,
                       "params": {key: report.params[key] for key in sorted(report.params)},
                       "lhs": report.lhs, "rhs": report.rhs, "equal": report.equal,
                       "elapsed_ms": report.elapsed_ms})


def test_report_to_json_is_byte_identical_to_json_dumps():
    'quotes, backslashes, control and non-ASCII characters escape exactly as json.dumps does'
    def raising(*args):
        raise ValueError('bad "quote" in \\path\\ \t tab, caf\u00e9 \u65e5\u672c \U0001d53c \x7f')
    instances = [CheckInstance("demo", {"n": "1", "a": "-3/4", "\u00e9": 'q"\\'},
                               compare_sides, (2, 2)),
                 CheckInstance("demo", {}, compare_sides, (F(1, 3), 2)),
                 CheckInstance("broken \u00fc", {"z": "0", "b": "\u2028\x01"}, raising, ())]
    reports = list(run_instances(instances))
    error = next(report for report in reports if report.lhs == "error: ValueError")
    assert '"quote"' in error.rhs and "\u00e9" in error.rhs
    assert '\\"quote\\"' in report_to_json(error) and "\\u00e9" in report_to_json(error)
    # an rhs equal to the lhs reuses the lhs's escaped text; a different one is escaped apart
    sides = ['caf\u00e9 "q" \\ \u65e5', 'caf\u00e9 "q" \\ \u65e6', "7/3"]
    reports += [CheckReport("demo", {"n": "3"}, lhs, rhs, equal, 0)
                for lhs in sides for rhs in sides for equal in (True, False)]
    for report in reports:
        assert report_to_json(report) == _json_dumps_reference(report)
    for report in run_instances(build_suites(harness.SUITE_ORDER, 7, max_n=3, trials=3)):
        assert report_to_json(report) == _json_dumps_reference(report)


def test_report_json_field_names_and_order():
    instance = CheckInstance("demo", {"n": "1"}, compare_sides, (2, 2))
    report, = run_instances([instance])
    payload = json.loads(report_to_json(report),
                         object_pairs_hook=lambda pairs: pairs)
    keys = [key for key, _ in payload]
    assert keys == ["check_name", "params", "lhs", "rhs", "equal", "elapsed_ms"]
    as_dict = dict(payload)
    assert as_dict["check_name"] == "demo"
    assert as_dict["params"] == [("n", "1")]
    assert as_dict["equal"] is True
    assert isinstance(as_dict["elapsed_ms"], int)


def test_run_instances_sorts_by_name_then_generation_order():
    instances = [
        CheckInstance("zeta", {"i": "0"}, compare_sides, (0, 0)),
        CheckInstance("alpha", {"i": "1"}, compare_sides, (1, 1)),
        CheckInstance("alpha", {"i": "0"}, compare_sides, (0, 0)),
    ]
    for jobs in (1, 4):
        reports = run_instances(instances, jobs=jobs)
        assert [(r.check_name, r.params["i"]) for r in reports] == \
            [("alpha", "1"), ("alpha", "0"), ("zeta", "0")]


def test_run_instances_runs_every_check_on_the_calling_thread():
    threads = []

    def checker(i):
        threads.append(threading.get_ident())
        return compare_sides(i, i)
    instances = [CheckInstance("demo", {"i": str(i)}, checker, (i,)) for i in range(8)]
    reports = list(run_instances(instances, jobs=4))
    assert len(reports) == 8
    assert threads == [threading.get_ident()] * 8


def test_build_suites_deterministic_for_seed():
    one = build_suites(("comtet",), seed=42, trials=8)
    two = build_suites(("comtet",), seed=42, trials=8)
    assert [inst.params for inst in one] == [inst.params for inst in two]
    assert ([(i.check_name, i.params, i.checker, i.args) for i in one]
            == [(i.check_name, i.params, i.checker, i.args) for i in two])
    other = build_suites(("comtet",), seed=43, trials=8)
    assert [inst.params for inst in one] != [inst.params for inst in other]


def test_records_build_by_keyword_and_instances_compare_by_fields():
    pair = SidePair(lhs=F(1, 2), rhs=[1, 2], equal=False)
    assert (pair.lhs, pair.rhs, pair.equal) == (F(1, 2), [1, 2], False)
    report = CheckReport(check_name="c", params={"n": "1"}, lhs="1", rhs="1",
                         equal=True, elapsed_ms=0)
    assert (report.check_name, report.params, report.lhs, report.rhs, report.equal,
            report.elapsed_ms) == ("c", {"n": "1"}, "1", "1", True, 0)
    inst = CheckInstance("c", {"n": "1"}, compare_sides, (1, 1))
    assert (inst.check_name, inst.params, inst.checker, inst.args) == (
        "c", {"n": "1"}, compare_sides, (1, 1))


def test_build_suites_returns_a_list_whose_reassigned_runs_make_the_reports():
    'bench/ takes the len of build_suites and reassigns each instance.run to trace it'
    instances = build_suites(harness.SUITE_ORDER, 7, max_n=2, trials=2)
    assert type(instances) is list
    assert all(type(inst) is CheckInstance for inst in instances)
    calls = []

    def counting(run):
        def counted():
            calls.append(1)
            lhs, rhs, equal = run()
            return "traced " + lhs, rhs, equal
        return counted
    for inst in instances:
        inst.run = counting(inst.run)
    reports = list(run_instances(instances))
    assert len(calls) == len(reports) == len(instances) > 0
    assert all(report.lhs.startswith("traced ") and report.equal for report in reports)


def test_cli_start_up_imports_no_dataclasses_inspect_or_csv():
    'a fresh interpreter running a json verify must not pay for these imports'
    # -S keeps site-packages .pth hooks, which may import them, out of the measure
    script = ("import sys\n"
              "import ruehrkit.cli\n"
              "code = ruehrkit.cli.main(['verify', 'polynomials', '--max-n', '2',"
              " '--format', 'json'])\n"
              "loaded = [m for m in ('dataclasses', 'inspect', 'csv') if m in sys.modules]\n"
              "sys.stderr.write(repr((code, loaded)))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ruehrkit.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.stderr == "(0, [])"
    assert len(done.stdout.splitlines()) > 0


def _run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_moments_single_trivial_report(capsys):
    code, out, _ = _run_cli(capsys, ["verify", "moments", "--max-n", "0", "--format", "json"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 1
    assert records[0]["check_name"] == "kimura_ruehr_moments"
    assert records[0]["lhs"] == "2"
    assert records[0]["rhs"] == "2"
    assert records[0]["equal"] is True


def test_cli_ruehr_six_reports(capsys):
    code, out, _ = _run_cli(capsys, ["verify", "ruehr", "--max-n", "5", "--format", "json"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 6
    assert all(r["equal"] for r in records)


def test_cli_jobs_do_not_change_output(capsys):
    base = ["verify", "polynomials", "--max-n", "5", "--seed", "7", "--format", "json"]
    _, serial, _ = _run_cli(capsys, base)
    _, threaded, _ = _run_cli(capsys, base + ["--jobs", "4"])
    assert strip_elapsed(serial) == strip_elapsed(threaded)


def test_cli_without_seed_fuzzes_with_seed_42(capsys):
    _, without, _ = _run_cli(capsys, ["verify", "comtet", "--trials", "5", "--format", "json"])
    _, with_42, _ = _run_cli(capsys, ["verify", "comtet", "--trials", "5",
                                      "--seed", "42", "--format", "json"])
    assert strip_elapsed(without) == strip_elapsed(with_42)


def test_cli_csv_format(capsys):
    code, out, _ = _run_cli(capsys, ["verify", "ruehr", "--max-n", "2", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["check_name", "params", "lhs", "rhs", "equal", "elapsed_ms"]
    assert len(rows) == 4
    for row in rows[1:]:
        assert row[0] == "ruehr_chain"
        assert row[4] == "true"
        int(row[5])


def test_cli_text_format_summary(capsys):
    code, out, _ = _run_cli(capsys, ["verify", "moments", "--max-n", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "4 checks, 0 failed"
    assert all(line.startswith("[ok  ]") for line in lines[:-1])


def test_cli_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(ValueError, match="unknown suite 'nonsense'"):
        build_suites(("nonsense",), 1)


def test_cli_rejects_bad_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "ruehr", "--max-n", "many"])
    assert exc.value.code == 2


def test_cli_fault_injection_flips_exit_code(capsys, monkeypatch):
    'a deliberately corrupted checker must surface as exit 1, not a crash'
    monkeypatch.setattr(ruehrkit.identities, "comtet1_sides",
                        lambda n, k, a, b: SidePair(lhs=F(0), rhs=F(1), equal=False))
    code, out, _ = _run_cli(capsys, ["verify", "comtet", "--trials", "3",
                                     "--seed", "42", "--format", "json"])
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 3
    assert not any(r["equal"] for r in records)


def test_cli_raising_checker_becomes_failed_report(capsys, monkeypatch):
    'an exception inside one check is a failed report and exit 1, not a traceback'
    def broken(n, k, a, b):
        raise ZeroDivisionError("injected")
    monkeypatch.setattr(ruehrkit.identities, "comtet1_sides", broken)
    code, out, _ = _run_cli(capsys, ["verify", "comtet", "--trials", "3",
                                     "--seed", "42", "--format", "json"])
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 3
    for record in records:
        assert record["equal"] is False
        assert "ZeroDivisionError" in record["lhs"]


@pytest.mark.parametrize("argv", [
    ["verify", "orbit", "--max-n", "0"],
    ["verify", "comtet", "--trials", "0"],
])
def test_cli_run_that_checks_nothing_fails(capsys, argv):
    code, out, err = _run_cli(capsys, argv)
    assert code == 1
    assert "no checks" in err
    assert out == "0 checks, 0 failed\n"


@pytest.mark.parametrize("flag, value", [("--max-n", "-1"), ("--trials", "-3")])
def test_cli_negative_bound_is_usage_error(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "ruehr", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and ">= 0" in err


def _mutant(module, name, old, new):
    'module.name compiled from its own source with the one occurrence of old replaced by new'
    source = inspect.getsource(getattr(module, name))
    count = source.count(old)
    assert count == 1, f"{module.__name__}.{name} holds {old!r} {count} times, not once"
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), f"<mutant of {module.__name__}.{name}>", "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
    return namespace[name]


def test_cli_corrupted_one_minus_x_step_splits_the_bernstein_checks(capsys, monkeypatch,
                                                                    fresh_memos):
    'the comtet2, corollary2 and f/g chain builders multiply by 1-x in one place, and no check hides it'
    # acc[1] -= acc[0] left out: the x coefficient keeps its old value
    monkeypatch.setattr(ruehrkit.identities, "_times_one_minus_x",
                        _mutant(ruehrkit.identities, "_times_one_minus_x",
                                "len(acc) - 1, 0, -1", "len(acc) - 1, 1, -1"))
    for suite, split in (("polynomials", {"comtet2", "comtet3", "recurrence_f", "recurrence_g"}),
                         ("corollaries", {"corollary2", "ruehr_specialization"})):
        code, out, _ = _run_cli(capsys, ["verify", suite, "--max-n", "6", "--format", "json"])
        assert code == 1
        reports = [json.loads(line) for line in out.splitlines()]
        assert {r["check_name"] for r in reports
                if not r["equal"] and r["lhs"] != r["rhs"]} == split, suite


def _rebind_everywhere(monkeypatch, module, name, replacement):
    'point module.name, and every ruehrkit module global bound to it, at replacement'
    original = getattr(module, name)
    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("ruehrkit") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


_VERIFY_ALL = ["verify", "all", "--format", "json"]
_VERIFY_POLYNOMIALS = ["verify", "polynomials", "--max-n", "8", "--format", "json"]
# every check name of verify all with an integral side
_INTEGRAL_CHECKS = ("beta_complement", "beta_cross", "binom_tail", "comtet1", "corollary1",
                    "kimura_ruehr_moments", "negbinom_cdf", "negbinom_tail", "partial_sum",
                    "tailsum_comtet1", "tailsum_integral")
# Each fault is one text edit of a package function, (module, function, old text, new text),
# and the checks that see it split: exactly these report lhs != rhs under the row's argv.
_OFF_BY_ONE_FAULTS = {
    # poly_eval's integer Horner sum skips the leading coefficient; the chain's polynomial
    # values go through it, and no integral does
    "horner_kernel": (exact_math, "poly_eval", "reversed(p)", "reversed(p[:-1])",
                      _VERIFY_ALL, ("ruehr_chain", "ruehr_specialization")),
    # the antiderivative divides the coefficient of x^j by j + 2 instead of j + 1: every
    # equality with an integral side, since the comtet1, kimura and beta integrals all go
    # through the one primitive (partial_sum is comtet1 at a = 1, b = d - 1;
    # tailsum_comtet1 sets two faulted integrals against each other)
    "beta_integral_antiderivative_divisor": (exact_math, "_unreduced_beta_integral",
                                             "_factors(z, z + m + 1)",
                                             "_factors(z + 1, z + m + 2)",
                                             _VERIFY_ALL, _INTEGRAL_CHECKS),
    # the walk steps by (c0 + 1) V instead of c0 V, so each power of c0 is off: every
    # equality with an integral side, the beta integrals over [0, 1] included
    "beta_integral_c0_power": (exact_math, "_unreduced_beta_integral", "c0 * v", "(c0 + 1) * v",
                               _VERIFY_ALL, _INTEGRAL_CHECKS),
    # the walk steps by c0 instead of c0 V, V the bounds' common denominator: only the
    # integrals over a rational bound see it; the comtet1 integrals, whose bounds are
    # integers after t = u/q, and beta_cross, over [0, 1], are blind to it
    "beta_integral_bound_denominator": (exact_math, "_unreduced_beta_integral", "c0 * v", "c0",
                                        _VERIFY_ALL, ("beta_complement", "binom_tail",
                                                      "corollary1", "kimura_ruehr_moments",
                                                      "negbinom_cdf", "negbinom_tail")),
    # the antiderivative is evaluated at 0 instead of the lower bound: every check whose
    # integral has a lower bound other than 0 on one side only; the comtet1 integrals over
    # [0, H - L], with k < n - k - 1, are blind to it
    "beta_integral_lower_bound": (exact_math, "_unreduced_beta_integral",
                                  "u_lo ** (z + 1) * acc_lo", "0",
                                  _VERIFY_ALL, ("comtet1", "partial_sum",
                                                "tailsum_comtet1", "tailsum_integral",
                                                "corollary1", "kimura_ruehr_moments")),
    # the partial binomial sum stops one term early; partial_sum is comtet1 at a = 1,
    # b = d - 1, the binomial tail is the comtet1 sum with k = n - a (beta_dist and
    # collatz_bound bind the same function, and _rebind_everywhere rebinds it there),
    # and both tails of tail_sum are comtet1 sums
    "comtet1_lhs_all": (ruehrkit.identities, "_comtet1_lhs", "    den =", "    k -= 1\n    den =",
                        _VERIFY_ALL, ("comtet1", "partial_sum", "binom_tail",
                                      "tailsum_integral")),
    # every negative binomial window, the CDF and the tail, stops one term early
    "negbinom_cdf_lhs": (beta_dist, "_negbinom_mass", "    u, v =", "    hi -= 1\n    u, v =",
                         _VERIFY_ALL, ("negbinom_cdf", "negbinom_tail")),
    # with p = u/v, u^r is floor-divided by (v - u)^lo where it should be multiplied: right
    # where lo = 0 (every CDF window) or v - u = 1, so only the tail windows off p = 1/2 see it
    "negbinom_mass_off_p_half": (beta_dist, "_negbinom_mass",
                                 "u ** r * (v - u)", "u ** r // (v - u)",
                                 _VERIFY_ALL, ("negbinom_tail",)),
    # the direct A_n(3) sum comes out one too large
    "ruehr_sums_direct": (ruehrkit.identities, "ruehr_sums_direct",
                          "direct(n, index)", "direct(n, index) + (index == 0)",
                          _VERIFY_ALL, ("ruehr_chain",)),
    # x^z (c0 + c1 x)^m is integrated with the exponent m one too high; the moment
    # equality still holds for x^(2n) (3 - 2x)^(n+1), so kimura_ruehr_moments is blind to it
    # (range(m + 1, -1, -1) would be another fault, one that kimura_ruehr_moments sees)
    "beta_integral_exponent_m": (exact_math, "_unreduced_beta_integral",
                                 "    v =", "    m += 1\n    v =",
                                 _VERIFY_ALL, ("beta_complement", "beta_cross", "binom_tail",
                                               "comtet1", "corollary1", "negbinom_cdf",
                                               "negbinom_tail", "partial_sum",
                                               "tailsum_comtet1", "tailsum_integral")),
    # p(x + 1) is composed as p(x + 2)
    "poly_compose": (exact_math, "poly_compose", "q0 * out", "(q0 + 1) * out",
                     _VERIFY_ALL, ("alzer_shift",)),
    # the tail mass is one 1/d^k short; the inequality checks cannot see it
    "tail_sum": (collatz_bound, "tail_sum", "(total, d ** k)", "(total - 1, d ** k)",
                 _VERIFY_ALL, ("tailsum_integral",)),
    # each row entry divides by i + 2 instead of i + 1; family_polynomial takes B and D
    # from the row, and neither ruehr_sums_direct nor families A and C, which alzer_shift
    # and corollary2 set against B and D, use it
    "binomial_row": (exact_math, "binomial_row", "// (i + 1)", "// (i + 2)",
                     _VERIFY_ALL, ("ruehr_chain", "alzer_shift", "corollary2")),
    # the integral's walk from C(m, m) = 1 divides each step by one more; the comtet1
    # sum walks its binomials the other way, from C(n, k) by _walked_sum
    "beta_integral_walk_step": (exact_math, "_unreduced_beta_integral",
                                "(m - i + 1)", "(m - i + 2)", _VERIFY_ALL, _INTEGRAL_CHECKS),
    # each step of the far-end walk divides by one more; it carries every term-by-term
    # sum side: comtet1 (and partial_sum, binom_tail), tail_sum, the negative binomial
    # windows and the chain sums (ruehr_chain, ruehr_specialization, corollary1)
    "walked_sum_step": (exact_math, "_walked_sum", "(p * u) // q", "(p * u) // (q + 1)",
                        _VERIFY_ALL, ("comtet1", "partial_sum", "binom_tail", "tailsum_integral",
                                      "negbinom_cdf", "negbinom_tail", "ruehr_chain",
                                      "ruehr_specialization", "corollary1")),
    # each Horner step multiplies by v + 1 instead of v: every walked sum, the walks with
    # v = 1 included (the chain sums, and tail_sum's lower tail at d = 2, which eta_bound
    # bounds)
    "walked_sum_horner": (exact_math, "_walked_sum", "total * v", "total * (v + 1)",
                          _VERIFY_ALL, ("comtet1", "partial_sum", "binom_tail",
                                        "tailsum_integral", "negbinom_cdf", "negbinom_tail",
                                        "ruehr_chain", "ruehr_specialization", "corollary1",
                                        "eta_bound")),
    # x^k p is shifted one place too far; in this suite only the x of g's chain step
    # g(m, N) = x g(m+1, N-1) + ... goes through it, so f and g part
    "poly_shift": (exact_math, "poly_shift", "[0] * k", "[0] * (k + 1)",
                   _VERIFY_POLYNOMIALS, ("comtet3",)),
    # the top coefficient of a sum, before zeros are stripped, comes out one too large: the
    # recurrence rhs and each f/g chain step add through it, and the f and g chains step
    # differently; alzer_shift does not see it, since poly_compose shifts without poly_add
    "poly_add": (exact_math, "poly_add", "    return", "    out[-1] += 1\n    return",
                 _VERIFY_POLYNOMIALS, ("comtet3", "recurrence_f", "recurrence_g")),
    # the Horner sum runs in (c1 + 1) U instead of c1 U, so each power of c1 is off: every
    # equality with an integral side
    "beta_integral_c1_power": (exact_math, "_unreduced_beta_integral",
                               "    v =", "    c1 += 1\n    v =", _VERIFY_ALL, _INTEGRAL_CHECKS),
    # every math.comb value comes out one too large: the term-by-term sums start from one
    # (the chain sums and the comtet1 and negative binomial walks), the comtet1 integral's
    # scale (n-k) C(n, k) takes one, and the comtet2 terms and f/g chain steps one each;
    # alzer_shift and corollary2 take their coefficients from family_polynomial's walks
    "binomial": (exact_math, "binomial", "comb(n, k)\n", "comb(n, k) + 1\n",
                 _VERIFY_ALL, ("binom_tail", "comtet1", "comtet2", "comtet3", "corollary1",
                               "negbinom_cdf", "negbinom_tail", "partial_sum",
                               "recurrence_f", "recurrence_g", "ruehr_chain",
                               "ruehr_specialization", "tailsum_comtet1", "tailsum_integral")),
    # the top coefficient of a product comes out one too large: only the f/g recurrence
    # checks multiply polynomials, by 1 - x on their own
    "poly_mul": (exact_math, "poly_mul", "ca * cb", "ca * cb + (k == len(out) - 1)",
                 _VERIFY_POLYNOMIALS, ("recurrence_f", "recurrence_g")),
    # the complete beta function comes out one too large: every regularized_beta side, and
    # beta_cross, which sets it against its integral
    "beta_exact": (beta_dist, "beta_exact", "return Fraction(", "return 1 + Fraction(",
                   _VERIFY_ALL, ("beta_complement", "beta_cross", "binom_tail", "negbinom_cdf",
                                 "negbinom_tail")),
    # the affine branch of the map comes out one too large, so 1 -> 3 -> 6 -> 3
    "g_step": (collatz_bound, "g_step", "r) // cfg.div", "r) // cfg.div + 1",
               _VERIFY_ALL, ("orbit_cycle",)),
}


def _inject(monkeypatch, fault):
    'rebind the faulted function of the row everywhere to its mutant; the row\'s argv and checks'
    module, name, old, new, argv, check_names = _OFF_BY_ONE_FAULTS[fault]
    _rebind_everywhere(monkeypatch, module, name, _mutant(module, name, old, new))
    return argv, check_names


@pytest.mark.parametrize("fault", sorted(_OFF_BY_ONE_FAULTS))
def test_cli_off_by_one_in_a_summation_or_integration_layer_fails(capsys, monkeypatch,
                                                                  fresh_memos, fault):
    'one single-site fault makes verify exit 1, and exactly the named checks fail with lhs != rhs'
    argv, check_names = _inject(monkeypatch, fault)
    code, out, _ = _run_cli(capsys, argv)
    assert code == 1
    # sides that disagree show the fault on one route only; for ruehr_chain,
    # four equal but wrong values on both paths would fail with lhs == rhs
    reports = [json.loads(line) for line in out.splitlines()]
    split = {r["check_name"] for r in reports if not r["equal"] and r["lhs"] != r["rhs"]}
    assert split == set(check_names)


def _integrates_the_shorter_factor(params):
    'comtet1_integral expands (H - w)^k over [0, H - L] when k < e = n - k - 1'
    k, n = int(params["k"]), int(params["n"])
    return k < n - k - 1


def test_sum_vs_integral_argv_takes_both_comtet1_integral_branches(monkeypatch):
    'at seed 42, 1006 of the 2000 comtet1 integrals run from 0 and the other 994 from L = bq'
    integral, lows = ruehrkit.identities._unreduced_beta_integral, []
    monkeypatch.setattr(ruehrkit.identities, "_unreduced_beta_integral",
                        lambda c0, c1, m, z, lo, hi: lows.append(lo) or integral(c0, c1, m, z,
                                                                                 lo, hi))
    reports = list(run_instances(build_suites(["comtet"], 42, 60, 2000)))
    assert all(report.equal for report in reports)
    shorter = sum(_integrates_the_shorter_factor(report.params) for report in reports)
    assert (lows.count(0), len(lows) - lows.count(0)) == (shorter, 2000 - shorter) == (1006, 994)


def test_lower_bound_fault_splits_only_the_comtet1_integrals_over_l_h(capsys, monkeypatch,
                                                                      fresh_memos):
    'an antiderivative taken at 0 for lo is right over [0, H - L]: that branch is blind to it'
    _inject(monkeypatch, "beta_integral_lower_bound")
    code, out, _ = _run_cli(capsys, ["verify", "comtet", "--max-n", "60", "--trials", "2000",
                                     "--seed", "42", "--format", "json"])
    assert code == 1
    reports = [json.loads(line) for line in out.splitlines()]
    split = [r for r in reports if r["lhs"] != r["rhs"]]
    assert not any(_integrates_the_shorter_factor(r["params"]) for r in split)
    assert len(split) == 992
    assert sum(_integrates_the_shorter_factor(r["params"]) for r in reports) == 1006


@pytest.mark.parametrize("argv", [["verify", "all", "--seed", "42"],
                                  ["verify", "polynomials", "--max-n", "8"]])
def test_every_check_name_has_a_report_with_a_nonzero_side(capsys, fresh_memos, argv):
    'a check whose sides are always 0 or [] compares nothing: each name needs one other side'
    code, out, _ = _run_cli(capsys, argv + ["--format", "json"])
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    vacuous = {r["check_name"] for r in reports} - {
        r["check_name"] for r in reports if {r["lhs"], r["rhs"]} - {"0", "[]"}}
    assert vacuous == set()


def test_harness_decides_equality_when_compare_sides_trusts_every_pair(capsys, monkeypatch,
                                                                      fresh_memos):
    'a compare_sides that calls every pair equal must not hide a wrong exponent in the integrand'
    _rebind_everywhere(monkeypatch, ruehrkit.identities, "compare_sides",
                       _mutant(ruehrkit.identities, "compare_sides", "lhs == rhs)", "True)"))
    _inject(monkeypatch, "beta_integral_exponent_m")
    code, out, _ = _run_cli(capsys, ["verify", "all", "--seed", "42", "--format", "json"])
    assert code == 1
    reports = [json.loads(line) for line in out.splitlines()]
    trusted = [r for r in reports if r["equal"] and r["lhs"] != r["rhs"]
               and r["check_name"] not in harness._INEQUALITIES]
    assert trusted == []
    failed = {r["check_name"] for r in reports if not r["equal"]}
    assert {"comtet1", "corollary1", "beta_cross", "binom_tail", "negbinom_cdf",
            "partial_sum", "tailsum_integral"} <= failed


def _package_state_sizes():
    'currsize of each lru wrapper and len of each dict, list and set bound to a non-dunder global'
    return {(name, key): value.cache_info().currsize if hasattr(value, "cache_info") else len(value)
            for name, module in list(sys.modules.items()) if name.startswith("ruehrkit")
            for key, value in vars(module).items() if not key.startswith("__")
            and (hasattr(value, "cache_info") or isinstance(value, (dict, list, set)))}


def test_fresh_memos_clears_every_memo_of_the_package(capsys, monkeypatch, request):
    'fresh_memos puts back to its fresh-import size every global that two runs grow from there'
    for name in [name for name in sys.modules if name.startswith("ruehrkit")]:
        monkeypatch.delitem(sys.modules, name)
    fresh_cli = importlib.import_module("ruehrkit.cli")
    before = _package_state_sizes()
    for argv in (["verify", "polynomials", "--max-n", "6"], ["verify", "all", "--seed", "42"]):
        fresh_cli.main(argv + ["--format", "json"])
    capsys.readouterr()
    after = _package_state_sizes()
    grown = {key for key, size in after.items() if size > before.get(key, 0)}
    assert {("ruehrkit.identities", "_fg_chain"), ("ruehrkit.exact_math", "_antiderivative_factors"),
            ("ruehrkit.harness", "_rational")} <= grown
    request.getfixturevalue("fresh_memos")
    cleared = _package_state_sizes()
    assert {key: cleared[key] for key in grown if cleared[key] != before.get(key, 0)} == {}


def test_tailsum_integral_matches_tail_sum():
    'eps = 1/4 or 1/2 puts indices exactly on the boundary c +- eps k, which must stay out'
    for k in range(1, 30):
        for d in (2, 3, 4):
            for eps in (F(1, 9), F(1, 4), F(1, 3), F(1, 2), F(8, 9)):
                pair = harness._tailsum_integral_sides(k, d, eps)
                assert pair.equal, (k, d, eps, pair)


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(ruehrkit.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "ruehrkit", "verify", "ruehr", "--max-n", "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "2 checks, 0 failed"


def test_readme_library_examples_give_their_comments():
    'each line of the README python block runs, and each expression\'s repr is its # comment'
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, checked = {}, 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if comment:
            assert repr(eval(code, namespace)) == comment.strip(), line
            checked += 1
        elif code.strip():
            exec(code, namespace)
    assert checked == 5


# The reports of each benchmark argv, one row per check name: (report count, sha256 of
# that name's JSON rows with elapsed_ms dropped, joined by "\n").  Reports come out grouped
# by check name in sorted order, so the rows joined in that order hash as the whole stream,
# and a broken pin names the check that moved.  A deliberate change pastes the rows the
# failing test prints and lists each moved row's old and new digest in CHANGES.md.
PINNED_ROWS = {
    "all --seed 42": {
        'alzer_shift': (22, '33e1e2482e5158f6b24de99509543b67f073dadd3c92b251189f66883b7cec7e'),
        'beta_complement': (20, '20c079bc52ba769f2d8b505aade3c60f589e761035b397699e3e605c01c9bdd7'),
        'beta_cross': (64, 'fef7c690668ee7b8e8ca84191363e5d2a084d46eb69f1b263c3c1297a77ab1c1'),
        'binom_tail': (20, '6985460a865dde05ae396495b52488d02872eacb954b248e3988141fa7501782'),
        'comtet1': (25, 'e30715fb3c16c511a5f8fe7de826eeaf16a0d05469d54a62202c03137d31c019'),
        'comtet2': (55, '534af67f23f765746d8a12aad6e9a7fe1365b5699927e87e56294c4c48ae87d0'),
        'comtet3': (110, '6c47a5df116179414aeb1a5c4c9ffb41716f711cd4b77ca2868acc052a9af38b'),
        'corollary1': (32, '6683030c7a06907a73a5bcdcdd2fe9ef2def32febd8e95c0088736d4bed93675'),
        'corollary2': (32, 'e4a523853a448c7f8f348a343f144e0c57563b834b055a3fb812bcd930566bb3'),
        'eta_bound': (4, 'd0fc955dbbaefd8ed1cc0380d7ace92066cadf4c83b2e520d64d5d638afa0c06'),
        'kimura_ruehr_moments': (21, 'f3e1564770a16b3ec198043bf9da2b5b47aeb775cea635512ca604c57ace9a23'),
        'negbinom_cdf': (20, '1bc6b3b4530d2f11988b38a8d788cbba27713dee9aa6df85042ac8de5c677e61'),
        'negbinom_tail': (9, '1586a00d72c804190c8e8a846e49e8ba8e7dc9d859cd1e099631e1f349dd5446'),
        'orbit_cycle': (1, 'f5918aa834129041436db4d4837f6a837d9854171300d0d1f7c487fc88fe9190'),
        'partial_sum': (20, 'a81e7a0813c93eec80eaac51669d699d0af83f59505efb6a6ecceaa1274c4f27'),
        'recurrence_f': (100, 'd042f80da899eab088a9e45aa7db322b083c1ed44f6d6ac1e09aca6362f49538'),
        'recurrence_g': (100, 'ccec32bab9358a4d0f857c76ee56f4c845c3c52b00adca4c631de15cb1d7db1f'),
        'ruehr_chain': (21, 'e11dd535c60da7be96032e36c821fd98c3325cfbd7c6738818f085bc49204a76'),
        'ruehr_specialization': (32, 'cc5ae0e7235a7b02007db6629804e7fc1c28525b55ea381a7113644e30917cea'),
        'tailsum_comtet1': (20, 'e0b354e862dc8dbb045f712075e38d6338bf24ed7257583475763cc44a258da1'),
        'tailsum_integral': (10, 'adcc6aa6c68aed15b1106f89977f33406de075e0983b8ac3abf0565419a9a39f'),
        'tailsum_monotone': (10, 'fe96e3bb713dfbf54656a1a4ae5e18249cf01da1d3adf88b0ec0582cb9ed3f33'),
    },
    "comtet --max-n 60 --trials 2000 --seed 42": {
        'comtet1': (2000, 'd16c065735e7a8d361cde1ad8b75b9f144ad9520cd58e2d92c662ed2802e5fe9'),
    },
    "polynomials --max-n 20 --seed 42": {
        'alzer_shift': (42, '3dbadd465b7780235466e075353e4df0cc2b16bef3864740a179e83abe798d97'),
        'comtet2': (210, '562f159b32f47afb7e1d263042a961a0938b601d4639758e933e1c3f0599b84f'),
        'comtet3': (420, '042f589a7279b9d12c3783b7b0a1bd509edbaa6972b7a6a73a92697e1e05f728'),
        'recurrence_f': (400, '7e6be37e57fb31472ac772cc376543c3a661540cb54e2924187ad8ddebbe0055'),
        'recurrence_g': (400, '6e972da9fad013e0964ef9bddd44798ddd53a909987c66753c833cd0db2959ff'),
    },
}


def _rows(json_lines):
    'the per-check-name table of a JSON report stream: {check_name: (count, sha256)}'
    groups = {}
    for line in strip_elapsed(json_lines):
        groups.setdefault(json.loads(line)["check_name"], []).append(line)
    return {name: (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest())
            for name, lines in groups.items()}


def _row_diff(pinned, rows):
    'the moved, appeared and vanished check names, then the recomputed rows to paste'
    def row(name, table):
        return f"{table[name][0]} {table[name][1][:12]}"
    return "\n".join(
        [f"moved {name}: {row(name, pinned)} -> {row(name, rows)}"
         for name in sorted(pinned.keys() & rows.keys()) if pinned[name] != rows[name]]
        + [f"appeared {name}: {row(name, rows)}" for name in sorted(rows.keys() - pinned.keys())]
        + [f"vanished {name}: {row(name, pinned)}" for name in sorted(pinned.keys() - rows.keys())]
        + ["rows:"] + [f"        {name!r}: {rows[name]!r}," for name in sorted(rows)])


def _assert_pinned_rows(capsys, argv):
    'each check name of argv keeps its PINNED_ROWS row, and the names come out sorted'
    code, out, _ = _run_cli(capsys, ["verify", *argv.split(), "--format", "json"])
    rows = _rows(out)
    assert rows == PINNED_ROWS[argv], _row_diff(PINNED_ROWS[argv], rows)
    assert code == 0
    names = [json.loads(line)["check_name"] for line in out.splitlines()]
    assert names == sorted(names)


def test_cli_verify_all_seed_42_reports_pinned(capsys, fresh_memos):
    'the full default run, elapsed_ms removed, is pinned report for report'
    _assert_pinned_rows(capsys, "all --seed 42")


def test_cli_verify_comtet_large_run_reports_pinned(capsys, fresh_memos):
    'the sum-vs-integral run of the benchmark, elapsed_ms removed, is pinned report for report'
    _assert_pinned_rows(capsys, "comtet --max-n 60 --trials 2000 --seed 42")


def test_cli_verify_polynomials_max_n_20_reports_pinned(capsys, fresh_memos):
    'the poly-algebra run of the benchmark, elapsed_ms removed, is pinned report for report'
    _assert_pinned_rows(capsys, "polynomials --max-n 20 --seed 42")


def test_row_diff_names_the_moved_appeared_and_vanished_check_names():
    'an edited lhs and a changed count move their names; a renamed name vanishes and appears'
    def stream(*rows):
        return "\n".join(json.dumps({"check_name": name, "lhs": lhs, "elapsed_ms": 1.5})
                         for name, lhs in rows)
    pinned = _rows(stream(("a", "1"), ("b", "2"), ("c", "3"), ("d", "4")))
    rows = _rows(stream(("a", "9"), ("b", "2"), ("b", "2"), ("d", "4"), ("e", "3")))
    lines = _row_diff(pinned, rows).splitlines()
    assert [line.split(":")[0] for line in lines[:5]] == [
        "moved a", "moved b", "appeared e", "vanished c", "rows"]
    assert lines[1].endswith(f"-> 2 {rows['b'][1][:12]}")
    assert eval("{" + "".join(lines[5:]) + "}") == rows


def test_check_param_texts_are_their_num_den_texts():
    'instances keep params as values; str makes each report text num/den or num at seed 42'
    instances = build_suites(harness.SUITE_ORDER, 42)
    assert len(instances) == sum(count for count, _ in PINNED_ROWS["all --seed 42"].values())
    assert any(not isinstance(value, str) for inst in instances for value in inst.params.values())
    by_name = sorted(instances, key=lambda inst: inst.check_name)
    for inst, report in zip(by_name, run_instances(instances), strict=True):
        assert report.check_name == inst.check_name
        assert report.params == {key: value if isinstance(value, str) else rational_text(value)
                                 for key, value in inst.params.items()}


class _WriteOnlySink:
    'the part of a text stream bench/child.py\'s HashSink offers: write and flush'

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt, render, summary", [
    ("json", report_to_json, False),
    ("text", harness.report_to_text, True),
])
def test_cli_writes_one_line_per_report_with_the_bytes_of_print(monkeypatch, fmt, render,
                                                                summary):
    'one write per report line to a sink that has only write and flush, as print would write'
    reports = list(run_instances(build_suites(harness.SUITE_ORDER, 42)))
    monkeypatch.setattr(harness, "run_instances", lambda instances, jobs=1: iter(reports))
    sink = _WriteOnlySink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert cli.main(["verify", "all", "--seed", "42", "--format", fmt]) == 0
    expected = io.StringIO()
    for report in reports:
        print(render(report), file=expected)
    if summary:
        print(f"{len(reports)} checks, 0 failed", file=expected)
    assert "".join(sink.writes) == expected.getvalue()
    assert len(sink.writes) == len(reports) + summary
    assert all(text.count("\n") == 1 and text.endswith("\n") for text in sink.writes)


@pytest.mark.parametrize("fmt, header", [("json", 0), ("text", 0), ("csv", 1)])
def test_cli_writes_each_report_before_the_next_check_runs(monkeypatch, fmt, header):
    'check i sees the header and the lines of reports 0..i-1 written, and no more'
    sink = _WriteOnlySink()
    seen = []

    def checker(i):
        seen.append(len(sink.writes))
        return compare_sides(i, i)
    instances = [CheckInstance("demo", {"i": i}, checker, (i,)) for i in range(5)]
    monkeypatch.setattr(harness, "build_suites", lambda *args, **kwargs: instances)
    monkeypatch.setattr(sys, "stdout", sink)
    assert cli.main(["verify", "all", "--format", fmt]) == 0
    assert seen == [header + i for i in range(5)]
    assert len(sink.writes) == header + 5 + (fmt == "text")


def test_cli_keeps_no_report_after_writing_it(monkeypatch):
    'peak traced memory of 2000 checks with 10 KB sides stays far below what their reports take'
    def checker(i):
        return compare_sides(f"{i:010d}" * 1000, f"{i:010d}" * 1000)
    instances = [CheckInstance("demo", {"i": str(i)}, checker, (i,)) for i in range(2000)]
    monkeypatch.setattr(harness, "build_suites", lambda *args, **kwargs: instances)

    class CountingSink:
        chars = 0

        def write(self, text):
            self.chars += len(text)
            return len(text)
    sink = CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert cli.main(["verify", "all", "--format", "json"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = 2000 * 2 * 10_000  # the lhs and rhs texts alone, had the reports been kept
    assert sink.chars > kept
    assert peak < kept // 10, peak


def test_ruehr_specialization_builds_only_the_corollary2_lhs(monkeypatch):
    'one link of the chain each: A_n(3) at 2/3 against B_n(2), C_n(-3) at 4/3 against D_n(-4)'
    instances = [instance for instance in build_suites(["corollaries"], 42, 7, 0)
                 if instance.check_name == "ruehr_specialization"]
    assert {instance.args[1:] for instance in instances} == {("first", F(2, 3), 3, 1),
                                                            ("second", F(4, 3), 9, 2)}

    def forbidden(n, variant):
        raise AssertionError("the specialization built the corollary2 rhs")
    monkeypatch.setattr(ruehrkit.identities, "corollary2_rhs", forbidden)
    assert len(instances) == 16
    assert all(instance.checker(*instance.args).equal for instance in instances)


def test_corollary2_lhs_returns_a_fresh_list_and_its_specialization_holds():
    truth = ruehrkit.identities.corollary2_lhs(4, "second")
    first = ruehrkit.identities.corollary2_lhs(4, "second")
    first[0] += 1
    first.append(7)
    assert ruehrkit.identities.corollary2_lhs(4, "second") == truth
    assert harness._ruehr_specialization_sides(4, "second", F(4, 3), 9, 2).equal


def test_cli_report_values_round_trip(capsys):
    _, out, _ = _run_cli(capsys, ["verify", "all", "--seed", "42", "--max-n", "4",
                                  "--trials", "4", "--format", "json"])
    for line in out.splitlines():
        record = json.loads(line)
        for side in (record["lhs"], record["rhs"]):
            values = json.loads(side) if side.startswith("[") else [side]
            assert all(rational_text(F(value)) == value for value in values), side


def test_cli_tailsum_subcommand(capsys):
    code, out, _ = _run_cli(capsys, ["tailsum", "--d", "2", "--eps", "1/4",
                                     "--k-list", "4,8"])
    assert code == 0
    assert "k=4 tail_sum=1/8" in out
    assert "k=8 tail_sum=9/128" in out
    assert "max kth_root:" in out


def test_cli_tailsum_prints_the_root_of_a_mass_below_the_float_range(capsys):
    'the k = 8000 mass is about 3e-457, below the float range; its root is 0.876880918318'
    code, out, _ = _run_cli(capsys, ["tailsum", "--d", "2", "--eps", "1/4",
                                     "--k-list", "8000"])
    assert code == 0
    assert "kth_root=0.876880918318\n" in out


def test_cli_tailsum_computes_each_tail_sum_once(capsys, monkeypatch):
    calls = []
    tail_sum = collatz_bound.tail_sum

    def counting(query):
        calls.append(query.k)
        return tail_sum(query)
    monkeypatch.setattr(collatz_bound, "tail_sum", counting)
    code, out, _ = _run_cli(capsys, ["tailsum", "--d", "2", "--eps", "1/4",
                                     "--k-list", "4,8,16"])
    assert code == 0
    assert "k=8 tail_sum=9/128" in out
    assert calls == [4, 8, 16]


def test_cli_tailsum_bad_eps_is_usage_error(capsys):
    code, _, err = _run_cli(capsys, ["tailsum", "--d", "2", "--eps", "5/4",
                                     "--k-list", "4"])
    assert code == 2
    assert "eps" in err
    for flag, text in (("--eps", "1/0"), ("--eps", "x"), ("--k-list", "5,x"), ("--k-list", ",")):
        argv = {"--d": "2", "--eps": "1/4", "--k-list": "4", flag: text}
        with pytest.raises(SystemExit) as exc:
            cli.main(["tailsum", *[token for pair in argv.items() for token in pair]])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err and repr(text) in err, err


def test_cli_orbit_subcommand_preset(capsys):
    code, out, _ = _run_cli(capsys, ["orbit", "--value", "7", "--preset", "classical"])
    assert code == 0
    assert "steps: 7 11 17 26 13 20 10 5 8 4 2 1 2" in out
    assert "cycle found" in out
    code, out, _ = _run_cli(capsys, ["orbit", "--value", "27", "--preset", "classical",
                                     "--max-steps", "5"])
    assert code == 0
    assert out.splitlines()[1:] == ["steps: 27 41 62 31 47 71", "max steps reached after 5 steps"]


def test_cli_orbit_subcommand_custom_config(capsys):
    code, out, _ = _run_cli(capsys, ["orbit", "--value", "7", "--mult", "3",
                                     "--div", "2", "--residues", "0,-1"])
    assert code == 0
    assert "cycle found" in out


def test_cli_orbit_bad_residues_is_usage_error(capsys):
    'a --residues text that is not comma-separated integers exits 2 naming the flag and text'
    for text in ("0,x", ","):
        with pytest.raises(SystemExit) as exc:
            cli.main(["orbit", "--value", "7", "--mult", "3", "--div", "2", "--residues", text])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --residues: " in err and repr(text) in err, err


@pytest.mark.parametrize("argv, message", [
    (["--value", "7"], "need --preset classical or all of --mult, --div, --residues"),
    (["--value", "7", "--preset", "classical", "--mult", "3"],
     "--preset cannot be combined with --mult/--div/--residues"),
    (["--value", "0", "--preset", "classical"], "--value must be >= 1, got 0"),
], ids=["no-config", "preset-plus-custom", "nonpositive-value"])
def test_cli_orbit_usage_error_exits_2_with_its_message(capsys, argv, message):
    code, out, err = _run_cli(capsys, ["orbit", *argv])
    assert (code, out, err) == (2, "", f"ruehrkit orbit: {message}\n")


def test_cli_orbit_that_leaves_the_positive_integers_fails(capsys):
    code, out, err = _run_cli(capsys, ["orbit", "--value", "3", "--mult", "1", "--div", "2",
                                       "--residues", "0,1"])
    assert code == 1
    assert err == ""
    assert out.splitlines()[1:] == ["steps: 3 1 0",
                                    "left the positive integers at step 2: value 0"]


def test_cli_orbit_config_whose_residues_miss_a_class_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(collatz_bound, "CLASSICAL",
                        collatz_bound.CLASSICAL._replace(residues=(0, 2)))
    code, out, err = _run_cli(capsys, ["orbit", "--value", "3", "--preset", "classical"])
    assert (code, out) == (2, "")
    assert err == "ruehrkit orbit: no residue in (0, 2) matches 9 modulo 2\n"
