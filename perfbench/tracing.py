"""Spans and counters around eccplane's public functions, installed from
outside the package.

``Tracer.install`` finds every public function defined in an eccplane
module and rebinds it, in every eccplane namespace that binds it (the
package itself, ``cli``'s ``from .geom import ...`` names, ``dirplan``'s
``delta_chi``, ``render``'s ``verify_plan``), to a wrapper.  Calls from
inside a module go through its globals, so they are seen too.  A wrapper
does nothing but forward while the tracer is inactive, which it is
outside the timed part of each op.

Hot predicates are only counted.  Every other call records a span (name,
start, end, parent, op id); a span's self time is its duration minus the
time covered by its child spans.  Names that a later version of the
package no longer defines are simply not found, and the metrics built on
them are reported as absent.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("geom", "ecc", "deg2", "reconstruct", "dirplan", "gen", "render", "cli")

# Called per point or per line pair: counted, no span.
COUNT_ONLY = frozenset(
    {
        "geom.orientation",
        "geom.height",
        "geom.quadrant",
        "geom.parse_scalar",
        "geom.format_scalar",
        "ecc.vertex_heights",
        "ecc.witness_heights",
        "dirplan.witness_line",
        "dirplan.line_intersection",
        "render.level_line",
    }
)

# Spans kept for the span file; aggregates are exact past this.
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.found: set[str] = set()
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.under: defaultdict = defaultdict(float)  # (parent, name) -> total s
        self.counts: Counter = Counter()
        self.broken: set[str] = set()  # counters whose source changed shape
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []  # [name, span index, child seconds]
        self._depth: Counter = Counter()
        self._restore: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        modules = []
        for short in MODULES:
            try:
                modules.append(importlib.import_module(f"{package.__name__}.{short}"))
            except ImportError:
                continue
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                key = f"{short}.{name}"
                self.found.add(key)
                wrappers[id(fn)] = (
                    self._counter(key, fn) if key in COUNT_ONLY else self._span(key, fn)
                )
        for ns in [package] + modules:
            for attr, obj in list(vars(ns).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._restore):
            setattr(ns, attr, obj)
        self._restore.clear()

    def _counter(self, key, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            if self.active:
                calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, key, fn):
        hook = HOOKS.get(key)

        def spanned(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1] if stack else None
            self.calls[key] += 1
            self._depth[key] += 1
            frame = [key, len(self.spans) + self.dropped, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self._depth[key] -= 1
                dur = t1 - t0
                self.self_s[key] += dur - frame[2]
                pname = parent[0] if parent else None
                self.under[pname, key] += dur
                if parent is not None:
                    parent[2] += dur
                if len(self.spans) < SPAN_CAP:
                    self.spans.append(
                        (key, t0, t1, parent[1] if parent else None, self.op)
                    )
                else:
                    self.dropped += 1
            if hook is not None:
                try:
                    hook(self, result)
                except (AttributeError, TypeError):
                    self.broken.add(key)
            return result

        return spanned

    def inside(self, key: str) -> bool:
        return self._depth[key] > 0


# Counters read off return values (and the call stack) at layer boundaries.
def _violations(t, result):
    t.counts["geom.violations"] += len(result)


def _breakpoints(t, result):
    t.counts["ecc.breakpoints"] += len(result.breakpoints)


def _delta_chi(t, result):
    if t.inside("dirplan.select_3n_directions"):
        t.counts["dirplan.candidates"] += 1


def _generated(t, result):
    t.counts["gen.vertices"] += len(result.vertices)


def _matched(t, result):
    t.counts["reconstruct.heights_matched"] += len(result)


def _plan(t, result):
    t.counts["dirplan.accepted"] += 3 * len(result.triples)


def _arrangement(t, result):
    if t.inside("dirplan.verify_plan"):
        k = len(result)
        t.counts["dirplan.arrangement_lines"] += k
        t.counts["dirplan.verify_pairs"] += k * (k - 1) // 2


def _verified(t, result):
    t.counts["dirplan.triple_points"] += len(result.triple_points)


def _svg(t, result):
    t.counts["render.svg_bytes"] += len(result)


def _main(t, result):
    if result != 0:
        t.counts["cli.refusals"] += 1


HOOKS = {
    "geom.validate_general_position": _violations,
    "geom.validate_planarity": _violations,
    "ecc.compute_ecc": _breakpoints,
    "ecc.delta_chi": _delta_chi,
    "gen.generate": _generated,
    "reconstruct.match_heights": _matched,
    "dirplan.select_3n_directions": _plan,
    "dirplan.all_witness_lines": _arrangement,
    "dirplan.verify_plan": _verified,
    "render.render_svg": _svg,
    "cli.main": _main,
}


# ---------------------------------------------------------------------------
# Per-layer metrics: (name, unit, functions it needs, value)
# ---------------------------------------------------------------------------


def _calls(fn):
    return (f"{fn}.calls", "count", (fn,), lambda t: t.calls[fn])


def _self(fn):
    return (f"{fn}.self_s", "s", (fn,), lambda t: t.self_s[fn])


def _count(name, fn):
    return (name, "count", (fn,), lambda t: t.counts[name])


def _layer(mod):
    return (
        f"{mod}.self_s",
        "s",
        (),
        lambda t: sum(v for k, v in t.self_s.items() if k.startswith(mod + ".")),
    )


def _ratio(t):
    c = t.counts["dirplan.candidates"]
    return t.counts["dirplan.accepted"] / c if c else 0.0


LAYER_METRICS = [
    _calls("cli.main"), _self("cli.main"), _count("cli.refusals", "cli.main"),
    _self("geom.parse_graph"),
    _calls("geom.validate_general_position"), _self("geom.validate_general_position"),
    _calls("geom.validate_planarity"), _self("geom.validate_planarity"),
    _calls("geom.orientation"),
    ("geom.violations", "count",
     ("geom.validate_general_position", "geom.validate_planarity"),
     lambda t: t.counts["geom.violations"]),
    _self("geom.format_graph"),
    _calls("gen.generate"), _self("gen.generate"), _count("gen.vertices", "gen.generate"),
    _calls("ecc.compute_ecc"), _self("ecc.compute_ecc"),
    _count("ecc.breakpoints", "ecc.compute_ecc"),
    _self("ecc.parse_ecc"), _self("ecc.format_ecc"),
    _calls("ecc.delta_chi"), _self("ecc.delta_chi"),
    _calls("ecc.witnessed_vertices"), _self("ecc.witnessed_vertices"),
    _calls("ecc.vertex_heights"),
    _calls("deg2.classify_deg2"), _calls("deg2.witness_arcs"),
    _self("reconstruct.reconstruct_from_graph"),
    _calls("reconstruct.reconstruct_vertices"), _self("reconstruct.reconstruct_vertices"),
    _self("reconstruct.match_heights"),
    _count("reconstruct.heights_matched", "reconstruct.match_heights"),
    _self("reconstruct.select_third_direction"), _self("reconstruct.cardinal_witness_lines"),
    _calls("dirplan.select_3n_directions"), _self("dirplan.select_3n_directions"),
    ("dirplan.candidates", "count", ("dirplan.select_3n_directions", "ecc.delta_chi"),
     lambda t: t.counts["dirplan.candidates"]),
    _count("dirplan.accepted", "dirplan.select_3n_directions"),
    ("dirplan.accept_ratio", "1", ("dirplan.select_3n_directions", "ecc.delta_chi"), _ratio),
    _calls("dirplan.verify_plan"), _self("dirplan.verify_plan"),
    _calls("dirplan.direction_witness_lines"), _self("dirplan.direction_witness_lines"),
    ("dirplan.arrangement_lines", "count", ("dirplan.verify_plan", "dirplan.all_witness_lines"),
     lambda t: t.counts["dirplan.arrangement_lines"]),
    ("dirplan.verify_pairs", "count", ("dirplan.verify_plan", "dirplan.all_witness_lines"),
     lambda t: t.counts["dirplan.verify_pairs"]),
    _count("dirplan.triple_points", "dirplan.verify_plan"),
    _calls("render.render_svg"), _self("render.render_svg"),
    ("render.verify_plan.total_s", "s", ("render.render_svg", "dirplan.verify_plan"),
     lambda t: t.under["render.render_svg", "dirplan.verify_plan"]),
    _count("render.svg_bytes", "render.render_svg"),
] + [_layer(mod) for mod in MODULES]


def layer_metrics(t: Tracer) -> tuple[dict, list[str]]:
    """Metric values, and the names whose source functions are gone."""
    out, absent = {}, []
    for name, unit, needs, value in LAYER_METRICS:
        if any(fn not in t.found or fn in t.broken for fn in needs):
            absent.append(name)
            continue
        out[name] = {"value": value(t), "unit": unit}
    return out, absent
