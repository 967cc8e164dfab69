"""Layer spans for the traced benchmark run, recorded from outside the package.

install() wraps every public function of the toruslab layer modules, in
every toruslab module namespace that binds it, plus DirectionVector.dot.
Each call becomes a span (id, parent id, job id, name, start, end). Spans
of one job are kept in memory and folded into per-group self times when
the job ends; a span's self time is its duration minus its child spans.
Counts come from the call arguments and results, so they repeat exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "jsonio", "linearization", "currents", "spectral",
          "torus_flow", "curves", "sampling")

# Functions whose self time is reported under a named group. Anything else
# public falls into "<layer>.other", which keeps it out of its callers'
# self time without being reported.
_GROUPS = {
    "cli": ("main", "run", "build_parser", "config_from_args"),
    "linearization.linearize": ("linearize", "build_battery", "canonical_modes",
                                "mode_label"),
    "linearization.equivariance": ("check_equivariance",),
    "linearization.generator": ("generator",),
    "linearization.probe": ("injectivity_probe",),
    "linearization.albanese": ("albanese",),
    "currents.evaluate": ("evaluate", "evaluate_family", "phase_average"),
    "currents.twisted": ("evaluate_twisted", "twist", "boundary", "project_pi_x",
                         "is_loop_current"),
    "spectral.solve": ("solve_cohomological", "solve_for_form",
                       "contract_with_flow", "lie_derivative"),
    "torus_flow.sweep": ("find_resonances", "certify_diophantine"),
    "torus_flow.dot": ("DirectionVector.dot",),
    "curves.find": ("find_retraced_arc",),
    "curves.excise": ("maximal_excision", "simple_excision"),
    "curves.boundary_check": ("boundary_multiset", "boundaries_equal"),
}


@functools.cache
def group_of(name: str) -> str:
    """Reporting group of a span name such as "currents.evaluate"."""
    layer, func = name.split(".", 1)
    if layer == "jsonio":
        load = func.startswith(("load_", "read_")) or func.endswith("_from_json")
        return "jsonio.load" if load else "jsonio.emit"
    if layer == "sampling":
        return "sampling.path"
    for group, funcs in _GROUPS.items():
        if group.split(".")[0] == layer and func in funcs:
            return group
    return f"{layer}.other"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_linearize(c, args, kwargs, result):
    c["linearization.linearize_calls"] += 1
    c["linearization.forms"] += len(result.battery)


def _count_evaluate(c, args, kwargs, result):
    curve = _arg(args, kwargs, 0, "T").source
    eta = _arg(args, kwargs, 1, "eta")
    modes = sum(len(comp.modes) for comp in eta.components)
    c["currents.evaluate_calls"] += 1
    c["currents.segment_modes"] += curve.n_segments * modes


def _count_solve(c, args, kwargs, result):
    f = _arg(args, kwargs, 0, "f")
    c["spectral.solve_calls"] += 1
    c["spectral.modes_solved"] += sum(1 for n in f.modes if any(n))


def _count_sweep(c, args, kwargs, result, radius_index):
    alpha = _arg(args, kwargs, 0, "alpha")
    radius = int(_arg(args, kwargs, radius_index, "radius"))
    c["torus_flow.sweep_calls"] += 1
    c["torus_flow.points"] += ((2 * radius + 1) ** alpha.d - 1) // 2


def _count_find(c, args, kwargs, result):
    c["curves.find_calls"] += 1
    c["curves.find_hits"] += result is not None


def _segments(family) -> int:
    return sum(curve.n_segments for curve in family)


def _count_excision(c, args, kwargs, result):
    c["curves.segments_in"] += _segments(_arg(args, kwargs, 0, "family"))
    c["curves.segments_out"] += _segments(result)


def _count_read(c, args, kwargs, result):
    c["jsonio.bytes_in"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _counter(key):
    def count(c, args, kwargs, result):
        c[key] += 1
    return count


_COUNTS = {
    "cli.main": _counter("cli.jobs"),
    "jsonio.read_json": _count_read,
    "linearization.linearize": _count_linearize,
    "linearization.generator": _counter("linearization.generator_calls"),
    "currents.evaluate": _count_evaluate,
    "currents.evaluate_twisted": _counter("currents.twisted_calls"),
    "spectral.solve_cohomological": _count_solve,
    "torus_flow.find_resonances": functools.partial(_count_sweep, radius_index=1),
    "torus_flow.certify_diophantine": functools.partial(_count_sweep, radius_index=2),
    "torus_flow.DirectionVector.dot": _counter("torus_flow.dot_calls"),
    "curves.find_retraced_arc": _count_find,
    "curves.simple_excision": _counter("curves.arcs_removed"),
    "curves.maximal_excision": _count_excision,
    "sampling.random_path": _counter("sampling.path_calls"),
}

# Spans whose inclusive time feeds a per-unit rate.
_INCLUSIVE = ("linearization.linearize", "currents.evaluate",
              "spectral.solve_cohomological", "torus_flow.find_resonances",
              "torus_flow.certify_diophantine")


class Tracer:
    """Span recorder; aggregates are totals over every finished job."""

    def __init__(self):
        self.job = 0
        self._next = 1
        self._stack: list[int] = []
        self._spans: list[tuple] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()     # reporting group -> spans
        self.children: Counter = Counter()  # (parent name, child name) -> calls

    def wrap(self, fn, name: str):
        count = _COUNTS.get(name)
        stack = self._stack
        spans = self._spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.job, name, start, end))
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def begin_job(self, job_id: int) -> None:
        self.job = job_id

    def end_job(self) -> None:
        """Fold the finished job's spans into the totals and drop them."""
        names = {sid: name for sid, _, _, name, _, _ in self._spans}
        child_time: defaultdict[int, float] = defaultdict(float)
        for sid, parent, _, name, start, end in self._spans:
            child_time[parent] += end - start
            if parent:
                self.children[(names[parent], name)] += 1
        for sid, parent, _, name, start, end in self._spans:
            duration = end - start
            group = group_of(name)
            self.calls[group] += 1
            self.self_s[group] += duration - child_time[sid]
            if name in _INCLUSIVE:
                self.inclusive_s[name] += duration
        self._spans.clear()


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


def install(tracer: Tracer):
    """Wrap the layer functions for tracer; returns a function that undoes it."""
    package = importlib.import_module("toruslab")
    modules = [package] + [importlib.import_module(f"toruslab.{m}") for m in LAYERS]
    undo = []
    for layer, module in zip(LAYERS, modules[1:]):
        for name, fn in list(_public_functions(module)):
            wrapper = tracer.wrap(fn, f"{layer}.{name}")
            for namespace in modules:
                for attr, value in list(vars(namespace).items()):
                    if value is fn:
                        setattr(namespace, attr, wrapper)
                        undo.append((namespace, attr, fn))
    vector = modules[1 + LAYERS.index("torus_flow")].DirectionVector
    undo.append((vector, "dot", vector.dot))
    vector.dot = tracer.wrap(vector.dot, "torus_flow.DirectionVector.dot")

    def uninstall():
        for namespace, attr, original in reversed(undo):
            setattr(namespace, attr, original)

    return uninstall


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}; times are self times."""
    c, s, inc = tracer.counts, tracer.self_s, tracer.inclusive_s
    sweep_incl = inc["torus_flow.find_resonances"] + inc["torus_flow.certify_diophantine"]
    evaluate_in_twisted = tracer.children[("currents.evaluate_twisted", "currents.evaluate")]
    m = {
        "cli.jobs": (c["cli.jobs"], "count"),
        "jsonio.load_s": (s["jsonio.load"], "s"),
        "jsonio.emit_s": (s["jsonio.emit"], "s"),
        "jsonio.bytes_in": (c["jsonio.bytes_in"], "B"),
        "jsonio.bytes_out": (c["jsonio.bytes_out"], "B"),
        "linearization.linearize_calls": (c["linearization.linearize_calls"], "count"),
        "linearization.linearize_s": (s["linearization.linearize"], "s"),
        "linearization.forms": (c["linearization.forms"], "count"),
        "linearization.us_per_form": (
            1e6 * _ratio(inc["linearization.linearize"], c["linearization.forms"]), "us"),
        "linearization.equivariance_s": (s["linearization.equivariance"], "s"),
        "linearization.generator_calls": (c["linearization.generator_calls"], "count"),
        "linearization.generator_s": (s["linearization.generator"], "s"),
        "linearization.probe_s": (s["linearization.probe"], "s"),
        "linearization.albanese_s": (s["linearization.albanese"], "s"),
        "currents.evaluate_calls": (c["currents.evaluate_calls"], "count"),
        "currents.evaluate_s": (s["currents.evaluate"], "s"),
        "currents.segment_modes": (c["currents.segment_modes"], "count"),
        "currents.ns_per_segment_mode": (
            1e9 * _ratio(inc["currents.evaluate"], c["currents.segment_modes"]), "ns"),
        "currents.twisted_calls": (c["currents.twisted_calls"], "count"),
        "currents.twisted_s": (s["currents.twisted"], "s"),
        "currents.evaluate_per_twisted": (
            _ratio(evaluate_in_twisted, c["currents.twisted_calls"]), "ratio"),
        "spectral.solve_calls": (c["spectral.solve_calls"], "count"),
        "spectral.solve_s": (s["spectral.solve"], "s"),
        "spectral.modes_solved": (c["spectral.modes_solved"], "count"),
        "spectral.us_per_mode": (
            1e6 * _ratio(inc["spectral.solve_cohomological"], c["spectral.modes_solved"]),
            "us"),
        "torus_flow.sweep_calls": (c["torus_flow.sweep_calls"], "count"),
        "torus_flow.sweeps_per_job": (
            _ratio(c["torus_flow.sweep_calls"], c["cli.jobs"]), "ratio"),
        "torus_flow.sweep_s": (s["torus_flow.sweep"], "s"),
        "torus_flow.ns_per_point": (
            1e9 * _ratio(sweep_incl, c["torus_flow.points"]), "ns"),
        "torus_flow.dot_calls": (c["torus_flow.dot_calls"], "count"),
        "torus_flow.dot_s": (s["torus_flow.dot"], "s"),
        "curves.find_calls": (c["curves.find_calls"], "count"),
        "curves.find_s": (s["curves.find"], "s"),
        "curves.find_hit_ratio": (
            _ratio(c["curves.find_hits"], c["curves.find_calls"]), "ratio"),
        "curves.arcs_removed": (c["curves.arcs_removed"], "count"),
        "curves.excise_s": (s["curves.excise"], "s"),
        "curves.segments_in": (c["curves.segments_in"], "count"),
        "curves.segments_out": (c["curves.segments_out"], "count"),
        "curves.boundary_check_s": (s["curves.boundary_check"], "s"),
        "sampling.path_calls": (c["sampling.path_calls"], "count"),
        "sampling.path_s": (s["sampling.path"], "s"),
    }
    return m
