"""Per-layer tracing of the breather package from outside.

The tracer replaces public functions with timing wrappers at the places
where their callers look them up (``breather.series.solve_fd`` is the
name ``build_series`` calls, ``breather.resolvent.solve_fd`` the one
``fd_convergence_study`` calls) and restores them afterwards; nothing
under ``src/`` changes.  Each target belongs to a group (one per-layer
metric family) and a layer (the module the group is named after).

A call opens a span (name, start, end, parent) when its group differs
from the group of the innermost open span; calls nested inside the same
group are only counted and timed, which keeps the span list small when,
say, ``g_window`` runs inside ``simplex_transform``.  A group's self time
is its span time minus the time of its child spans.

A target missing from the package (renamed or removed by a later change)
is reported as unmeasured, and every metric that needs it reads None.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    """Spans, counters and per-group self times of one traced pass."""

    def __init__(self):
        self.names = []          # span names, indexed by name id
        self._name_ids = {}
        # Spans as parallel arrays (not containers the garbage collector
        # scans): name id, start, end, parent index (-1 for none).
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self._child = array("d")     # child-span time per span
        self._stack = []             # (span index, group) of open calls
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)     # inclusive time per target
        self.self_s = defaultdict(float)      # per group
        self.counts = defaultdict(float)      # extra counters
        self.maxima = {}
        self.keys = defaultdict(set)          # distinct chi tuples
        self.unmeasured = []
        self._restore = []
        self.t0 = None

    # -- recording -----------------------------------------------------
    def _name_id(self, name):
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, fn, name, group, observe=None):
        tracer = self
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            stack = tracer._stack
            nested = bool(stack) and stack[-1][1] == group
            if nested:
                stack.append(stack[-1])
                idx = -1
            else:
                idx = len(tracer.span_name)
                parent = stack[-1][0] if stack else -1
                tracer.span_name.append(name_id)
                tracer.span_parent.append(parent)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
                tracer._child.append(0.0)
                stack.append((idx, group))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                tracer.calls[name] += 1
                tracer.total_s[name] += dur
                if idx >= 0:
                    tracer.span_start[idx] = start - tracer.t0
                    tracer.span_end[idx] = end - tracer.t0
                    tracer.self_s[group] += dur - tracer._child[idx]
                    parent = tracer.span_parent[idx]
                    if parent >= 0:
                        tracer._child[parent] += dur
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def note_max(self, key, value):
        if value is not None and value > self.maxima.get(key, -np.inf):
            self.maxima[key] = value

    # -- installation --------------------------------------------------
    def install(self, targets):
        """Patch every (module, attribute path, group, observe) target."""
        self.t0 = time.perf_counter()
        for module_name, path, group, observe in targets:
            label = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.unmeasured.append(label)
                continue
            setattr(owner, attr, self.wrap(original, label, group, observe))
            self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @property
    def span_count(self):
        return len(self.span_name)

    def dump(self):
        """Spans (name, start, end, parent; -1 = top level) and aggregates
        as a JSON-ready dict."""
        return {
            "names": self.names,
            "spans": [list(s) for s in zip(
                (self.names[i] for i in self.span_name), self.span_start,
                self.span_end, self.span_parent)],
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "unmeasured": self.unmeasured,
        }


# ----------------------------------------------------------------------
# What is wrapped, and how the counters are fed
# ----------------------------------------------------------------------

def _chi_key(args):
    return tuple(sorted((complex(w) for w in args[1:]),
                        key=lambda w: (w.real, w.imag)))


def _observe_chi(order):
    def observe(tracer, args, kwargs, result):
        tracer.keys[(order, id(args[0]))].add(_chi_key(args))
    return observe


def _observe_nodes(tracer, args, kwargs, result):
    tracer.counts["g_window_nodes"] += int(np.size(args[0]))


def _observe_h(tracer, args, kwargs, result):
    if result.is_zero:
        tracer.counts["zero_sources"] += 1


def _observe_spsolve(tracer, args, kwargs, result):
    tracer.counts["unknowns"] += int(np.size(args[1]))


def _observe_residual(tracer, args, kwargs, result):
    gf = result[0] if isinstance(result, tuple) else result
    tracer.note_max("residual", getattr(gf, "residual", None))


def _observe_points(tracer, args, kwargs, result):
    tracer.counts["logderiv_points"] += int(np.size(args[2]))


def _observe_file(position):
    """Count the file whose path is argument `position` of the call."""
    def observe(tracer, args, kwargs, result):
        tracer.counts["artifact_files"] += 1
        tracer.counts["artifact_bytes"] += os.path.getsize(args[position])
    return observe


# (module where the caller looks the name up, attribute path, group, observe)
TARGETS = [
    ("breather.series", "ft_chi2_truncated", "susceptibility.chi", None),
    ("breather.series", "ft_chi3_truncated", "susceptibility.chi", None),
    ("breather.susceptibility",
     "NonlinearSusceptibility._scalar_chi2_truncated", "susceptibility.chi",
     _observe_chi(2)),
    ("breather.susceptibility",
     "NonlinearSusceptibility._scalar_chi3_truncated", "susceptibility.chi",
     _observe_chi(3)),
    ("breather.susceptibility", "g_window", "expalg", _observe_nodes),
    ("breather.susceptibility", "triangle_transform", "expalg", None),
    ("breather.susceptibility", "simplex_transform", "expalg", None),
    ("breather._expalg", "g_window", "expalg", _observe_nodes),
    ("breather.series", "assemble_h", "series.assemble_h", _observe_h),
    ("breather.cli", "build_series", "series.build", None),
    ("breather.series", "build_series", "series.build", None),
    ("breather.cli", "synthesize", "series.synthesize", None),
    ("breather.series", "solve_fd", "resolvent.solve_fd", _observe_residual),
    ("breather.resolvent", "solve_fd", "resolvent.solve_fd",
     _observe_residual),
    ("breather.series", "solve_analytic", "resolvent.solve_analytic", None),
    ("breather.resolvent", "spsolve", "resolvent.spsolve", _observe_spsolve),
    ("breather.pencil", "dispersion_logderiv", "pencil.logderiv",
     _observe_points),
    ("breather.cli", "winding_count", "pencil.winding", None),
    ("breather.pencil", "winding_count", "pencil.winding", None),
    ("breather.checks", "winding_count_function", "pencil.winding", None),
    ("breather.cli", "delta0_search", "pencil.delta0", None),
    ("breather.cli", "newton_eigenvalue", "pencil.newton", None),
    ("breather.config", "newton_eigenvalue", "pencil.newton", None),
    ("breather.cli", "check_B", "checks.assumptions", None),
    ("breather.cli", "check_A6_cone", "checks.cone", None),
    ("breather.cli", "gamma_bound_sweep", "checks.sweep", None),
    ("breather.cli", "drude_truncation_demo", "checks.drude", None),
    ("breather.cli", "_write_csv", "cli.write", _observe_file(0)),
    ("breather.cli", "_write_json", "cli.write", _observe_file(0)),
    ("breather._svg", "LinePlot.write", "cli.write", _observe_file(1)),
    ("breather.config", "RunConfig.context", "config.context", None),
]


def _targets_of(group):
    return [f"{m}.{p}" for m, p, g, _ in TARGETS if g == group]


def _sum(tr, labels, table):
    if any(label in tr.unmeasured for label in labels):
        return None
    return float(sum(table.get(label, 0) for label in labels))


def _ratio(a, b):
    if a is None or b is None:
        return None
    return a / b if b else 0.0


CHI2 = ["breather.susceptibility.NonlinearSusceptibility._scalar_chi2_truncated"]
CHI3 = ["breather.susceptibility.NonlinearSusceptibility._scalar_chi3_truncated"]
G_WINDOW = ["breather.susceptibility.g_window", "breather._expalg.g_window"]


def layer_metrics(tr):
    """Per-layer metric values of one traced pass (None = unmeasured)."""

    def calls(labels):
        return _sum(tr, labels, tr.calls)

    def seconds(group):
        return _sum(tr, _targets_of(group), tr.total_s)

    def self_seconds(group):
        if calls(_targets_of(group)) is None:
            return None
        return tr.self_s.get(group, 0.0)

    def counter(labels, key):
        return None if calls(labels) is None else tr.counts.get(key, 0.0)

    def distinct(order, labels):
        if calls(labels) is None:
            return None
        return float(sum(len(v) for (o, _), v in tr.keys.items()
                         if o == order))

    chi2_calls, chi3_calls = calls(CHI2), calls(CHI3)
    chi2_evals, chi3_evals = distinct(2, CHI2), distinct(3, CHI3)
    hit = None
    if None not in (chi2_calls, chi3_calls, chi2_evals, chi3_evals):
        total = chi2_calls + chi3_calls
        hit = (total - chi2_evals - chi3_evals) / total if total else 0.0
    fd = _targets_of("resolvent.solve_fd")
    an = _targets_of("resolvent.solve_analytic")
    sp = _targets_of("resolvent.spsolve")
    ld = _targets_of("pencil.logderiv")
    ah = _targets_of("series.assemble_h")
    writes = _targets_of("cli.write")
    gw_calls = calls(G_WINDOW)
    gw_nodes = counter(G_WINDOW, "g_window_nodes")
    ld_calls = calls(ld)
    ld_points = counter(ld, "logderiv_points")
    return {
        "susceptibility.chi2_calls": chi2_calls,
        "susceptibility.chi3_calls": chi3_calls,
        "susceptibility.chi2_evals": chi2_evals,
        "susceptibility.chi3_evals": chi3_evals,
        "susceptibility.cache_hit_ratio": hit,
        "susceptibility.chi_self_s": self_seconds("susceptibility.chi"),
        "expalg.g_window_calls": gw_calls,
        "expalg.g_window_nodes": gw_nodes,
        "expalg.nodes_per_call": _ratio(gw_nodes, gw_calls),
        "expalg.self_s": self_seconds("expalg"),
        "series.assemble_h_calls": calls(ah),
        "series.zero_sources": counter(ah, "zero_sources"),
        "series.assemble_h_self_s": self_seconds("series.assemble_h"),
        "series.build_s": seconds("series.build"),
        "series.synthesize_s": seconds("series.synthesize"),
        "resolvent.solve_fd_calls": calls(fd),
        "resolvent.solve_fd_s": seconds("resolvent.solve_fd"),
        "resolvent.spsolve_s": seconds("resolvent.spsolve"),
        "resolvent.unknowns": counter(sp, "unknowns"),
        "resolvent.solve_analytic_calls": calls(an),
        "resolvent.solve_analytic_s": seconds("resolvent.solve_analytic"),
        "resolvent.max_residual":
            None if calls(fd) is None else tr.maxima.get("residual", 0.0),
        "pencil.logderiv_calls": ld_calls,
        "pencil.logderiv_points": ld_points,
        "pencil.points_per_call": _ratio(ld_points, ld_calls),
        "pencil.logderiv_s": seconds("pencil.logderiv"),
        "pencil.winding_calls": calls(_targets_of("pencil.winding")),
        "pencil.winding_s": seconds("pencil.winding"),
        "pencil.delta0_s": seconds("pencil.delta0"),
        "pencil.newton_s": seconds("pencil.newton"),
        "checks.assumptions_s": seconds("checks.assumptions"),
        "checks.cone_s": seconds("checks.cone"),
        "checks.sweep_s": seconds("checks.sweep"),
        "checks.drude_s": seconds("checks.drude"),
        "cli.artifact_files": counter(writes, "artifact_files"),
        "cli.artifact_bytes": counter(writes, "artifact_bytes"),
        "cli.write_s": seconds("cli.write"),
        "config.context_s": seconds("config.context"),
    }
