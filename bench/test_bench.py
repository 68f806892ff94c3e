"""Self-tests of the benchmark: its correctness gate, tracer, contract and compare mode.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import child  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY = run.Workload("tiny", ("verify", "all", "--max-n", "3", "--trials", "3"), jobs=2)
TINY_ARGV = TINY.argv(7)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "SETUP_PER_ROUND", 1)
    return ["--workload", "tiny", "--seed", "7", "--seconds", "0.1"]


def _last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _record(trace: int) -> dict:
    return json.loads((run.OUT_DIR / f"tiny-seed7-trace{trace}.json").read_text())


@pytest.mark.parametrize("fault", child.FAULTS)
def test_injected_fault_fails_the_run(tiny, capsys, fault):
    assert run.main([*tiny, "--trace", "0"], fault=fault) != 0
    line = _last_line(capsys)
    assert line["correct"] is False and line["failed"] > 0
    assert _record(0)["failed_frac"] > 0


def test_clean_run_passes_with_every_end_to_end_metric(tiny, capsys):
    assert run.main([*tiny, "--trace", "0"]) == 0
    line = _last_line(capsys)
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert _record(0)["failed_frac"] == 0


def test_traced_run_covers_six_layers_with_the_untraced_digest(tiny, capsys):
    assert run.main([*tiny, "--trace", "1"]) == 0
    line = _last_line(capsys)
    assert list(line["metrics"]) == run.per_layer_names()
    for layer in tracer.LAYERS:
        assert any(value["value"] > 0 for name, value in line["metrics"].items()
                   if name.startswith(layer + ".")), layer
    record = _record(1)
    invocations = [r for r in record["invocations"] if r["mode"] != "probes"]
    assert {r["digest"] for r in invocations} == {record["digest"]}
    assert all(r["restored"] for r in invocations if r["mode"] == "trace")


def test_tracer_keeps_output_and_restores_every_binding():
    import ruehrkit.cli  # noqa: F401

    before = tracer.function_bindings()
    plain = child.run_cli(TINY_ARGV)
    traced = child.traced_run(TINY_ARGV, None)
    assert tracer.function_bindings() == before
    assert traced["restored"] is True
    assert traced["digest"] == plain["digest"]
    assert traced["reports"] == plain["reports"] > 0 and traced["failed"] == 0
    assert traced["layers"]["exact_math.poly_mul.calls"] > 0
    assert traced["layers"]["harness.check_us.n"] == plain["reports"]


def test_rebind_reaches_imported_names_and_restores_them():
    from ruehrkit import exact_math, harness, identities

    original = exact_math.poly_mul
    undo = tracer.rebind({original: len})
    try:
        assert exact_math.poly_mul is identities.poly_mul is harness.poly_mul is len
    finally:
        tracer.restore(undo)
    assert exact_math.poly_mul is identities.poly_mul is harness.poly_mul is original


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, run.unit_of(name)) for name in run.per_layer_names()]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and len(spec["per_layer"]) <= 128
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "trajectory"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify-all",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def _runs(workload, walls, trace_layers=None):
    runs = [{"workload": workload, "trace": 0, "correct": True, "failed_frac": 0.0,
             "end_to_end": {m: {"median": w} for m in run.END_TO_END}} for w in walls]
    if trace_layers:
        runs.append({"workload": workload, "trace": 1, "correct": True,
                     "per_layer": trace_layers})
    return runs


def test_compare_verdicts():
    assert compare.verdict([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29], "lower", 0.1) == "regression"
    assert compare.verdict([1.0, 1.01, 0.99, 1.0], [1.02, 1.0, 1.01], "lower", 0.1) == "unchanged"
    assert compare.verdict([1.0, 2.0, 1.5, 0.5], [1.6, 1.7, 1.5], "lower", 0.1) == "unresolved"
    assert compare.verdict([1.0, 2.0, 1.5, 0.7], [0.5, 0.6], "lower", 0.1) == "unchanged"
    assert compare.verdict([100, 101, 99], [70, 71], "higher", 0.1) == "regression"


def test_compare_rows_carry_layer_deltas():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = {"exact_math.poly_mul.self_s": 3.0, "exact_math.poly_add.self_s": 1.0}
    faster = dict(layers, **{"exact_math.poly_mul.self_s": 1.0})
    lines = compare.compare(_runs("poly-algebra", [8.0, 8.1, 7.9], layers),
                            _runs("poly-algebra", [6.0, 6.1, 5.9], faster), spec)
    row = next(line for line in lines if line.startswith("poly-algebra    wall_s"))
    assert "unchanged" in row and "exact_math.poly_mul.self_s -2.000s" in row
