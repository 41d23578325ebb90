"""In-process span tracing around the public functions of each thuelex layer.

``install`` wraps every public module-level function of the layer modules and
rebinds each name that refers to one of them, including names another module
imported directly (``colorings`` imports ``find_repetitive_path`` and
``gen_nonrepetitive`` by name).  Nothing under ``src/`` is edited; the
original bindings come back when the returned ``restore`` is called.

Each call becomes one span: layer, function, parent span, job id, start and
end, plus the counts recorded at the same boundary.  Callables handed into a
layer (the ``enumerate`` visitor) are traced as spans of the calling layer, so
their time is not charged to the layer that calls them back.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

LAYERS = ("cli", "graphs", "sequences", "colorings", "verifier", "solver")

# self time of these functions, by per-layer metric
_CATEGORY = {
    ("sequences", "gen_nonrepetitive"): "sequences.gen_s",
    ("sequences", "search_constrained"): "sequences.gen_s",
    ("sequences", "find_repetition"): "sequences.check_s",
    ("sequences", "is_palindrome_free"): "sequences.check_s",
    ("sequences", "enumerate_bounded_nonrep"): "sequences.enumerate_s",
    ("sequences", "gap_profile"): "sequences.analysis_s",
    ("sequences", "find_valley"): "sequences.analysis_s",
    ("sequences", "classify_valley_pattern"): "sequences.analysis_s",
}
_PATH_SEARCHES = ("find_repetitive_path", "find_tuple_repetitive_path")

PER_LAYER = (
    ("cli.startup_s", "s"),
    ("cli.self_s", "s"),
    ("graphs.build_s", "s"),
    ("graphs.vertices_built", "count"),
    ("graphs.edges_built", "count"),
    ("sequences.self_s", "s"),
    ("sequences.gen_s", "s"),
    ("sequences.letters_generated", "count"),
    ("sequences.check_s", "s"),
    ("sequences.letters_checked", "count"),
    ("sequences.enumerate_s", "s"),
    ("sequences.words_enumerated", "count"),
    ("sequences.analysis_s", "s"),
    ("colorings.construct_s", "s"),
    ("colorings.vertices_colored", "count"),
    ("verifier.self_s", "s"),
    ("verifier.bounded_s", "s"),
    ("verifier.exact_s", "s"),
    ("verifier.calls", "count"),
    ("verifier.witnesses", "count"),
    ("solver.search_s", "s"),
    ("solver.nodes", "count"),
    ("solver.nodes_per_s", "1/s"),
    ("solver.calls", "count"),
    ("solver.exact_share", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


class Span:
    __slots__ = ("layer", "name", "parent", "job", "start", "end", "counts")

    def __init__(self, layer, name, parent, job):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.job = job
        self.start = self.end = 0.0
        self.counts = None


class Tracer:
    """Holds every span in memory; ``job`` tags the spans of the current job."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.job = None

    def wrap(self, layer: str, fn):
        spans, stack, name = self.spans, self._open, fn.__name__
        tracer = self

        def traced(*args, **kwargs):
            if any(inspect.isfunction(a) for a in args):
                caller = spans[stack[-1]].layer if stack else layer
                args = tuple(
                    tracer.wrap(caller, a) if inspect.isfunction(a) else a for a in args
                )
            span = Span(layer, name, stack[-1] if stack else -1, tracer.job)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            span.counts = _counts(span, spans, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer):
    """Route every public layer function through ``tracer``; returns a
    function that restores the original bindings."""
    modules = {layer: importlib.import_module(f"thuelex.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and not name.startswith("_")
                and obj.__module__ == mod.__name__
            ):
                wrappers[obj] = tracer.wrap(layer, obj)
    patched = []
    for mod in [importlib.import_module("thuelex"), *modules.values()]:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])

    def restore():
        for mod, name, obj in patched:
            setattr(mod, name, obj)

    return restore


def _graph_of(result):
    """The graph a graphs-layer call hands out, if any."""
    if isinstance(result, tuple) and result:
        result = result[0]
    view = getattr(result, "view", result)
    return view if hasattr(view, "adj") and hasattr(view, "n") else None


def _counts(span: Span, spans: list[Span], args, result) -> dict | None:
    layer, name = span.layer, span.name
    parent_layer = spans[span.parent].layer if span.parent >= 0 else None
    if layer == "graphs" and parent_layer != "graphs":
        g = _graph_of(result)
        if g is not None:
            return {"graphs.vertices_built": g.n, "graphs.edges_built": g.m}
    elif layer == "sequences":
        if _CATEGORY.get((layer, name)) == "sequences.gen_s" and result is not None:
            return {"sequences.letters_generated": len(result)}
        if name == "find_repetition":
            return {"sequences.letters_checked": len(args[0])}
        if name == "enumerate_bounded_nonrep":
            return {"sequences.words_enumerated": result}
    elif layer == "colorings" and name.startswith(("color_", "c7_")):
        cells = result.sets if hasattr(result, "sets") else result.colors
        return {"colorings.vertices_colored": len(cells)}
    elif layer == "verifier" and name in _PATH_SEARCHES:
        g, bound = args[0], args[2]
        return {
            "verifier.calls": 1,
            "verifier.witnesses": int(result is not None),
            "exact": int(bound >= g.n - g.n % 2),
        }
    elif layer == "solver" and parent_layer != "solver" and hasattr(result, "nodes_explored"):
        return {
            "solver.calls": 1,
            "solver.nodes": result.nodes_explored,
            "solver.exact": int(result.status == "exact"),
            "solver.call_s": span.end - span.start,
        }
    return None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.  Spans
    come from one thread, so children never overlap one another."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, without the start-up, wall and
    overhead figures that the caller measures."""
    m = dict.fromkeys(
        (name for name, _ in PER_LAYER if not name.startswith(("trace.", "cli.startup"))),
        0.0,
    )
    m.update({"solver.exact": 0, "solver.call_s": 0.0})
    for s, own in zip(spans, self_times(spans)):
        m[f"{s.layer}.self_s"] = m.get(f"{s.layer}.self_s", 0.0) + own
        counts = s.counts or {}
        cat = _CATEGORY.get((s.layer, s.name))
        if "exact" in counts:
            cat = "verifier.exact_s" if counts["exact"] else "verifier.bounded_s"
        if cat:
            m[cat] += own
        for key, value in counts.items():
            if key != "exact":
                m[key] += value
    m["graphs.build_s"] = m.pop("graphs.self_s", 0.0)
    m["colorings.construct_s"] = m.pop("colorings.self_s", 0.0)
    m["solver.search_s"] = m.pop("solver.self_s", 0.0)
    calls, call_s, exact = m["solver.calls"], m.pop("solver.call_s"), m.pop("solver.exact")
    m["solver.nodes_per_s"] = m["solver.nodes"] / call_s if call_s else 0.0
    m["solver.exact_share"] = exact / calls if calls else 0.0
    return m
