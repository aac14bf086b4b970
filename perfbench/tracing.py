"""Spans around ruledgeo's layers, installed from outside the library.

`install` wraps the public functions of each ruledgeo module (and the
class methods the other layers call through) and rebinds every module
namespace that holds the original, because `analysis` and `families`
import names such as `point_invariants` with `from .invariants import ...`.

A span is (layer, start, end, parent span, request id). The first
MAX_SPANS spans are kept in memory while the run lasts and written out
when it ends. A layer's self time is its span's duration minus the
durations of its direct children, accumulated as spans close, so
per-layer totals need no stored spans.
Wrappers record only while a request is open; set-up and checking run
through the wrappers untraced.
"""

import functools
import inspect
import json
import time

ROOT = "request"
# Spans kept for spans.jsonl. Later spans still count in the per-layer
# totals but are not kept; the file's header line says how many were
# dropped. One verify request alone opens about 590 000 spans.
MAX_SPANS = 100_000

# (layer, module, attribute): the functions and methods wrapped per layer
TARGETS = (
    ("surface.from_invariants", "ruledgeo.surface", "surface_from_invariants"),
    ("surface.invariant_profile", "ruledgeo.surface", "InvariantTriple.k"),
    ("surface.invariant_profile", "ruledgeo.surface", "InvariantTriple.delta"),
    ("surface.invariant_profile", "ruledgeo.surface", "InvariantTriple.lam"),
    ("surface.invariant_profile", "ruledgeo.surface", "InvariantTriple.sigma"),
    ("surface.invariant_profile", "ruledgeo.surface", "InvariantTriple.k_jet"),
    ("surface.invariant_profile", "ruledgeo.surface", "InvariantTriple.delta_jet"),
    ("surface.invariant_profile", "ruledgeo.surface", "InvariantTriple.lam_jet"),
    ("surface.standardize", "ruledgeo.surface", "standardize"),
    ("surface.curve_eval", "ruledgeo.surface", "CurveR3.eval"),
    ("surface.gauge_check", "ruledgeo.surface", "StandardRuledSurface.__init__"),
    ("surface.load_spec", "ruledgeo.surface", "load_spec"),
    ("parser.parse", "ruledgeo.parser", "parse_expression"),
    ("invariants.point", "ruledgeo.invariants", "point_invariants"),
    ("invariants.curvatures", "ruledgeo.invariants", "curvatures_from_invariants"),
    ("families.trace", "ruledgeo.families", "trace_curve"),
    ("families.direction_field", "ruledgeo.families", "direction_field"),
    ("analysis.fit", "ruledgeo.analysis", "fit_power_law"),
    ("analysis.classify", "ruledgeo.analysis", "classify"),
    ("cli.run", "ruledgeo.cli", "run"),
)


class Tracer:
    """In-memory span recorder with per-layer call counts and self times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layers = []        # layer name per id
        self._ids = {}
        self.calls = []
        self.self_s = []
        self.total_s = []
        self.counters = {}
        self.spans = []         # (layer id, start, end, parent index, request)
        self.dropped = 0
        self.request = None     # id of the open request, None between requests
        self._stack = []        # open spans: [layer id, start, child time, index]

    def layer_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.layers)
            self.layers.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return self._ids[name]

    def open(self, lid):
        index = -1
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            self.spans.append(None)
        self._stack.append([lid, self.clock(), 0.0, index])

    def close(self):
        end = self.clock()
        lid, start, child, index = self._stack.pop()
        duration = end - start
        self.calls[lid] += 1
        self.total_s[lid] += duration
        self.self_s[lid] += duration - child
        parent = -1
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        if index >= 0:
            self.spans[index] = (lid, start, end, parent, self.request)
        else:
            self.dropped += 1

    def begin_request(self, request_id):
        self.request = request_id
        self.open(self.layer_id(ROOT))

    def end_request(self):
        self.close()
        self.request = None

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def totals(self):
        """{layer: (calls, self seconds, total seconds)}."""
        return {name: (self.calls[i], self.self_s[i], self.total_s[i])
                for i, name in enumerate(self.layers)}

    def write(self, path):
        """Write the kept spans as JSON lines, after a header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["layer", "start", "end", "parent", "request"],
                                 "kept": len(self.spans), "dropped": self.dropped}) + "\n")
            for lid, start, end, parent, req in self.spans:
                fh.write(json.dumps([self.layers[lid], start, end, parent, req]) + "\n")


def wrap(tracer, lid, fn, after=None):
    """Traced version of fn; `after(tracer, arguments, result)` adds counts."""
    signature = inspect.signature(fn) if after else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.request is None:
            return fn(*args, **kwargs)
        tracer.open(lid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            after(tracer, bound.arguments, result)
        return result

    return traced


def _count_steps(tracer, args, result):
    tracer.count("surface.from_invariants.steps", int(args["n_steps"]))


def _count_trace(tracer, args, result):
    tracer.count("families.trace.steps_requested", int(args["steps"]))
    tracer.count("families.trace.steps_done", len(result.points) - 1)


AFTER = {
    "surface_from_invariants": _count_steps,
    "trace_curve": _count_trace,
}


def install(tracer, modules):
    """Wrap every target; `modules` maps module names to loaded modules.

    Rebinds each wrapped function in every ruledgeo module that holds it
    and replaces methods on their classes.
    """
    for layer, module_name, attr in TARGETS:
        lid = tracer.layer_id(layer)
        module = modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, wrap(tracer, lid, cls.__dict__[meth]))
            continue
        original = getattr(module, attr)
        traced = wrap(tracer, lid, original, AFTER.get(attr))
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, traced)


# per-layer metrics ----------------------------------------------------------------

# layers reported with per-round calls and self time
LAYER_METRICS = (
    "surface.from_invariants", "surface.invariant_profile", "surface.standardize",
    "surface.curve_eval", "surface.gauge_check", "surface.load_spec", "parser.parse",
    "invariants.point", "invariants.curvatures", "families.trace",
    "families.direction_field", "analysis.fit", "analysis.classify",
)
PER_CALL_US = ("surface.curve_eval", "invariants.point")


def layer_metrics(totals, counters, rounds):
    """Per-round calls and self seconds per layer, plus derived ratios.

    Every round holds the same multiset of requests except for which
    invalid spec a build round holds, so per-round counts repeat between
    runs of the same program, on build up to the invalid specs' share.
    """
    out = {}
    for name in LAYER_METRICS:
        calls, self_s, _ = totals.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls / rounds, "count")
        out[f"{name}.self_s"] = (self_s / rounds, "s")
        if name in PER_CALL_US:
            out[f"{name}.us_per_call"] = (1e6 * self_s / calls if calls else 0.0, "us")
    out["cli.run.self_s"] = (totals.get("cli.run", (0, 0.0, 0.0))[1] / rounds, "s")
    out["surface.from_invariants.steps"] = (
        counters.get("surface.from_invariants.steps", 0) / rounds, "count")
    requested = counters.get("families.trace.steps_requested", 0)
    done = counters.get("families.trace.steps_done", 0)
    out["families.trace.steps_done_frac"] = (done / requested if requested else 0.0, "ratio")
    _, root_self, root_total = totals.get(ROOT, (0, 0.0, 0.0))
    # share of traced request time that falls inside some layer's self time
    out["trace.accounted_frac"] = (1.0 - root_self / root_total if root_total else 0.0, "ratio")
    return out


def import_breakdown(stderr_text, stop_line):
    """Self import time per top-level package from `-X importtime` output.

    Only lines before `stop_line` count, so imports made later by requests
    are left out.
    """
    totals = {"numpy": 0.0, "scipy": 0.0, "ruledgeo": 0.0}
    for line in stderr_text.splitlines():
        if line == stop_line:
            break
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us = float(parts[0])
        except ValueError:
            continue  # the header line
        package = parts[2].strip().split(".")[0]
        if package in totals:
            totals[package] += self_us * 1e-6
    return {f"setup.import.{name}_s": (value, "s") for name, value in totals.items()}
