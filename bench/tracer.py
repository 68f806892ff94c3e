"""Outside-in tracing of the six ruehrkit layers.

Tracer.install() wraps every public function of the layer modules and
points every module global of the ruehrkit package that holds one of them
at its wrapper.  That covers each module's own globals and every name bound
by ``from .exact_math import ...``, so intra-module calls and cross-module
calls are both seen.  uninstall() puts every original back.

Every wrapped call is a span: (function, check index, parent span, start,
end).  Spans stay in memory and are written out at the end.  The check
index is the check's generation index in harness.build_suites, so the spans
of one check share it; set-up spans carry -1.  Self time is a span's
duration minus that of its child spans, kept on a per-thread stack because
the harness may run checks on worker threads.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

PACKAGE = "ruehrkit"
LAYERS = ("exact_math", "identities", "beta_dist", "collatz_bound", "harness", "cli")

# Which per-layer metrics are reported.  Each list names the functions whose
# time should move end-to-end results on some workload; see BENCHMARK.json.
EXACT_MATH_FUNCTIONS = ("binomial", "poly_normalize", "poly_add", "poly_scale",
                        "poly_mul", "poly_pow", "linear_power", "poly_shift",
                        "poly_compose", "poly_eval", "poly_definite_integral",
                        "format_rational")
IDENTITIES_FUNCTIONS = ("proof_helper", "comtet1_sides", "comtet2_sides",
                        "comtet3_sides", "corollary1_sides", "corollary2_sides",
                        "family_polynomial", "ruehr_sums_direct",
                        "ruehr_polynomial_values", "kimura_ruehr_moments")
DISTRIBUTION_FUNCTIONS = (("beta_dist", "binom_tail_sides"),
                          ("beta_dist", "negbinom_cdf_sides"),
                          ("beta_dist", "regularized_beta"),
                          ("beta_dist", "negbinom_tail_partial"),
                          ("collatz_bound", "partial_sum_sides"),
                          ("collatz_bound", "tail_sum"),
                          ("collatz_bound", "orbit"))
CHECK_NAMES = ("alzer_shift", "beta_complement", "beta_cross", "binom_tail",
               "comtet1", "comtet2", "comtet3", "corollary1", "corollary2",
               "eta_bound", "fg_base", "kimura_ruehr_moments", "negbinom_cdf",
               "negbinom_tail_gap", "orbit_cycle", "partial_sum", "recurrence_f",
               "recurrence_g", "ruehr_chain", "ruehr_specialization",
               "tailsum_comtet1", "tailsum_monotone", "telescoping")

# Work counters kept beside the call counts: coefficient products a schoolbook
# poly_mul performs, and coefficients poly_eval walks through.
EXTRA_COUNTS = {
    "exact_math.poly_mul": ("coeff_products", lambda a, b: len(a) * len(b)),
    "exact_math.poly_eval": ("coeffs", lambda p, x: len(p)),
}

CHECK_PREFIX = "harness.check."


def layer_metric_names() -> list[str]:
    """Names of the metrics Tracer.metrics() returns, in a fixed order."""
    names = []
    for fn in EXACT_MATH_FUNCTIONS:
        names += [f"exact_math.{fn}.calls", f"exact_math.{fn}.self_s"]
    names += [f"{key}.{counter}" for key, (counter, _) in EXTRA_COUNTS.items()]
    names.append("exact_math.self_s")
    for fn in IDENTITIES_FUNCTIONS:
        names += [f"identities.{fn}.{stat}" for stat in ("calls", "total_s", "self_s")]
    for module, fn in DISTRIBUTION_FUNCTIONS:
        names += [f"{module}.{fn}.calls", f"{module}.{fn}.total_s"]
    names += ["harness.build_suites.total_s", "harness.run_instances.total_s",
              "harness.checks.total_s", "harness.check_us.p50",
              "harness.check_us.p98", "harness.check_us.n",
              "harness.serialize_value.self_s"]
    names += [f"{CHECK_PREFIX}{name}.total_s" for name in CHECK_NAMES]
    return names


def package_modules() -> list:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def public_functions(module) -> dict:
    return {name: value for name, value in vars(module).items()
            if inspect.isfunction(value) and not name.startswith("_")
            and value.__module__ == module.__name__}


def rebind(replacements: dict) -> list:
    """Point every package global that holds a key of `replacements` at its value.

    Keys are matched by identity.  Returns the undo list for restore().
    """
    by_id = {id(old): (old, new) for old, new in replacements.items()}
    undo = []
    for module in package_modules():
        namespace = vars(module)
        for name, value in list(namespace.items()):
            entry = by_id.get(id(value))
            if entry is not None and entry[0] is value:
                undo.append((namespace, name, value))
                namespace[name] = entry[1]
    return undo


def restore(undo: list) -> None:
    for namespace, name, value in reversed(undo):
        namespace[name] = value


def function_bindings() -> dict:
    """(module, name) -> id of every function-valued package global."""
    return {(module.__name__, name): id(value)
            for module in package_modules()
            for name, value in vars(module).items() if inspect.isfunction(value)}


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when it is empty)."""
    if not sorted_values:
        return 0.0
    rank = -(-pct * len(sorted_values) // 100)
    return sorted_values[max(int(rank), 1) - 1]


class _ThreadState:
    __slots__ = ("stack", "spans", "stats", "check", "check_cpu")

    def __init__(self):
        self.stack = []       # open spans: [span index, child seconds]
        self.spans = []       # (key index, check, parent span, start, end)
        self.stats = {}       # key index -> [calls, total s, self s, extra count]
        self.check = -1
        self.check_cpu = []   # thread CPU seconds of each check


class Tracer:
    clock = staticmethod(time.perf_counter)

    def __init__(self):
        self.keys: list[str] = []
        self._key_index: dict[str, int] = {}
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._undo: list = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def _key(self, key: str) -> int:
        if key not in self._key_index:
            self._key_index[key] = len(self.keys)
            self.keys.append(key)
        return self._key_index[key]

    def _span(self, key: str, fn):
        index = self._key(key)
        extra = EXTRA_COUNTS.get(key, (None, None))[1]
        state_of = self._state
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = [len(state.spans), 0.0]
            state.spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                state.spans[frame[0]] = (index, state.check,
                                         -1 if parent is None else parent[0], start, end)
                stats = state.stats.get(index)
                if stats is None:
                    stats = state.stats[index] = [0, 0.0, 0.0, 0]
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if extra is not None:
                    stats[3] += extra(*args, **kwargs)

        traced.bench_traced = True
        return traced

    def _check(self, generation_index: int, name: str, run):
        traced = self._span(CHECK_PREFIX + name, run)
        state_of = self._state

        def run_check():
            state = state_of()
            previous, state.check = state.check, generation_index
            started = time.thread_time()
            try:
                return traced()
            finally:
                state.check_cpu.append(time.thread_time() - started)
                state.check = previous
        return run_check

    def _building(self, build_suites):
        def build_traced_suites(*args, **kwargs):
            instances = build_suites(*args, **kwargs)
            for generation_index, instance in enumerate(instances):
                instance.run = self._check(generation_index, instance.check_name, instance.run)
            return instances
        return functools.wraps(build_suites)(build_traced_suites)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in public_functions(module).items():
                target = self._building(fn) if (layer, name) == ("harness", "build_suites") else fn
                replacements[fn] = self._span(f"{layer}.{name}", target)
        self._undo = rebind(replacements)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def merged_stats(self) -> dict[str, list]:
        merged: dict[str, list] = {}
        for state in self._states:
            for index, stats in state.stats.items():
                total = merged.setdefault(self.keys[index], [0, 0.0, 0.0, 0])
                for i, value in enumerate(stats):
                    total[i] += value
        return merged

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics named by layer_metric_names().

        Times are wall seconds of spans, except harness.check_us.*: the
        thread CPU microseconds of each check, which neither another process
        sharing the CPU nor waiting for the interpreter lock stretches.
        """
        merged = self.merged_stats()

        def stat(key, i):
            return merged.get(key, [0, 0.0, 0.0, 0])[i]

        out = {}
        for fn in EXACT_MATH_FUNCTIONS:
            out[f"exact_math.{fn}.calls"] = stat(f"exact_math.{fn}", 0)
            out[f"exact_math.{fn}.self_s"] = stat(f"exact_math.{fn}", 2)
        for key, (counter, _) in EXTRA_COUNTS.items():
            out[f"{key}.{counter}"] = stat(key, 3)
        out["exact_math.self_s"] = sum(stats[2] for key, stats in merged.items()
                                       if key.startswith("exact_math."))
        for fn in IDENTITIES_FUNCTIONS:
            for i, suffix in enumerate(("calls", "total_s", "self_s")):
                out[f"identities.{fn}.{suffix}"] = stat(f"identities.{fn}", i)
        for module, fn in DISTRIBUTION_FUNCTIONS:
            out[f"{module}.{fn}.calls"] = stat(f"{module}.{fn}", 0)
            out[f"{module}.{fn}.total_s"] = stat(f"{module}.{fn}", 1)

        check_us = sorted(seconds * 1e6 for state in self._states for seconds in state.check_cpu)
        out["harness.build_suites.total_s"] = stat("harness.build_suites", 1)
        out["harness.run_instances.total_s"] = stat("harness.run_instances", 1)
        out["harness.checks.total_s"] = sum(stats[1] for key, stats in merged.items()
                                            if key.startswith(CHECK_PREFIX))
        out["harness.check_us.p50"] = percentile(check_us, 50)
        out["harness.check_us.p98"] = percentile(check_us, 98)
        out["harness.check_us.n"] = len(check_us)
        out["harness.serialize_value.self_s"] = stat("harness.serialize_value", 2)
        for name in CHECK_NAMES:
            out[f"{CHECK_PREFIX}{name}.total_s"] = stat(CHECK_PREFIX + name, 1)
        return out

    def span_count(self) -> int:
        return sum(len(state.spans) for state in self._states)

    def write_spans(self, path) -> None:
        """Write every span as a tab-separated line, one thread after another."""
        with open(path, "w", encoding="ascii") as out:
            out.write("thread\tspan\tparent\tcheck\tname\tstart_s\tend_s\n")
            for thread, state in enumerate(self._states):
                for span_index, span in enumerate(state.spans):
                    if span is None:
                        continue
                    key, check, parent, start, end = span
                    out.write(f"{thread}\t{span_index}\t{parent}\t{check}\t"
                              f"{self.keys[key]}\t{start:.9f}\t{end:.9f}\n")
