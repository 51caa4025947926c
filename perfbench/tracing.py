"""Span tracing of the anisodiff layers, installed from outside the package.

A wrapper is set on the module attribute each caller looks up: for example
``_trajectory`` resolves ``anisodiff.diffusion.variant_weights``, so that is
the attribute replaced, not ``anisodiff.diffusivity.variant_weights``.  No
source file is edited, and :meth:`Tracer.uninstall` restores every attribute.
A site whose attribute no longer exists is skipped; its metrics then read 0.

Spans are kept in memory as ``[name, start, end, parent, extra]`` and
written out by the caller when the run ends.  A span's layer is the part of
its name before the first dot; the benchmark's own root spans (``setup``,
``solve``) belong to the ``harness`` layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "data",
    "graph",
    "diffusivity",
    "laplacian",
    "diffusion",
    "baselines",
    "evaluation",
    "cli",
)

# grid_search spans are named by method; the table is the benchmark's own so
# it does not depend on how the package spells its variant tables
METHOD_OF = {
    ("isotropic", "linear"): "I",
    ("plain", "linear"): "A_lin",
    ("plain", "nonlinear"): "A_nlin",
    ("smooth", "nonlinear"): "A_S",
}


def _grid_search_name(args, kwargs):
    grid = kwargs.get("grid", args[0] if args else None)
    key = (getattr(grid, "variant", None), getattr(grid, "mode", None))
    return "evaluation.grid_search." + METHOD_OF.get(key, "other")


def _snapshot_counts(args, kwargs, result):
    steps = kwargs.get("steps", args[3] if len(args) > 3 else ())
    requested = len(set(int(t) for t in steps))
    return {"cells": requested, "diverged": requested - len(result)}


# (module, attribute, span name or name function, result hook)
FUNCTION_SITES = (
    ("anisodiff.data", "pairwise_distances", "data.distance_matrix", None),
    ("anisodiff.data", "read_features", "data.load", None),
    ("anisodiff.data", "read_labels", "data.load", None),
    ("anisodiff.graph", "build_knn_graph", "graph.build", None),
    ("anisodiff.evaluation", "build_knn_graph", "graph.build", None),
    ("anisodiff.graph", "knn_neighborhoods", "graph.knn", None),
    ("anisodiff.graph", "auto_sigma_x", "graph.sigma_x", None),
    ("anisodiff.graph", "gaussian_weights", "graph.weights", None),
    ("anisodiff.diffusion", "variant_weights", "diffusivity.variant", None),
    ("anisodiff.diffusivity", "plain_weights", "diffusivity.plain", None),
    ("anisodiff.diffusivity", "smooth_weights", "diffusivity.smooth", None),
    ("anisodiff.diffusivity", "local_match_weights", "diffusivity.local_match", None),
    ("anisodiff.diffusion", "edge_sqnorms", "diffusivity.sqnorms", None),
    ("anisodiff.diffusivity", "edge_sqnorms", "diffusivity.sqnorms", None),
    ("anisodiff.diffusion", "warm_start", "diffusion.warm_start", None),
    ("anisodiff.diffusion", "run_diffusion", "diffusion.run", None),
    ("anisodiff.evaluation", "run_diffusion", "diffusion.run", None),
    ("anisodiff.evaluation", "snapshots_at", "diffusion.snapshots", _snapshot_counts),
    ("anisodiff.evaluation", "grid_search", _grid_search_name, None),
    ("anisodiff.evaluation", "benchmark", "evaluation.benchmark", None),
    ("anisodiff.evaluation", "grf_harmonic", "baselines.grf", None),
    ("anisodiff.cli", "main", "cli.main", None),
)

# lazily computed Graph structures, timed on their first (computing) access
PROPERTY_SITES = (
    ("upper", "graph.upper"),
    ("knn_positions", "graph.knn_positions"),
    ("mutual_structure", "graph.mutual_structure"),
    ("match_structure", "graph.match_structure"),
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order (open: {popped})")

    def _discard(self, idx: int) -> None:
        # only the innermost, most recent span with no children
        if idx != len(self.spans) - 1:
            raise RuntimeError("can only discard the last span")
        self.spans.pop()
        self._stack.pop()

    def _wrap(self, fn, name, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                tracer.spans[idx][4] = hook(args, kwargs, result)
            return result

        return traced

    def _wrap_trajectory(self, fn):
        """Time each step of the diffusion generator as its own span.

        The first item (t = 0) covers the warm start and the initial weight
        field; every later item is one Euler step.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            name = "diffusion.init"
            while True:
                idx = tracer.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer._discard(idx)
                    return
                except BaseException:
                    tracer.close(idx)
                    raise
                tracer.close(idx)
                yield item
                name = "diffusion.step"

        return traced

    def _wrap_class(self, cls, prefix):
        tracer = self

        class Traced(cls):
            def __init__(self, *args, **kwargs):
                idx = tracer.open(prefix + ".build")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer.close(idx)

            def __call__(self, *args, **kwargs):
                idx = tracer.open(prefix + ".apply")
                try:
                    return super().__call__(*args, **kwargs)
                finally:
                    tracer.close(idx)

        Traced.__name__ = Traced.__qualname__ = cls.__name__
        return Traced

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, hook in FUNCTION_SITES:
            module = importlib.import_module(module_name)
            if attr in vars(module):
                self._patch(module, attr, self._wrap(getattr(module, attr), name, hook))
        diffusion = importlib.import_module("anisodiff.diffusion")
        if "_trajectory" in vars(diffusion):
            self._patch(diffusion, "_trajectory", self._wrap_trajectory(diffusion._trajectory))
        if "LaplacianOperator" in vars(diffusion):
            self._patch(
                diffusion,
                "LaplacianOperator",
                self._wrap_class(diffusion.LaplacianOperator, "laplacian"),
            )
        graph_cls = importlib.import_module("anisodiff.graph").Graph
        for attr, name in PROPERTY_SITES:
            prop = graph_cls.__dict__.get(attr)
            if isinstance(prop, functools.cached_property):
                new = functools.cached_property(self._wrap(prop.func, name))
                new.__set_name__(graph_cls, attr)
                self._patch(graph_cls, attr, new)
            elif isinstance(prop, property):
                self._patch(graph_cls, attr, property(self._wrap(prop.fget, name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def to_json(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "extra": x}
            for n, s, e, p, x in self.spans
        ]


# ---------------------------------------------------------------------------
# per-layer metrics derived from the spans

# p90 is reported only from at least this many calls (ten beyond it); a run
# with fewer calls reports 0 for that p90
P90_MIN_CALLS = 100

class SpanTree:
    """Durations, self times, children and roots of a recorded span list."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.duration = np.array([s[2] - s[1] for s in spans])
        self.children = [[] for _ in range(n)]
        self.by_name = defaultdict(list)
        self.root = np.empty(n, dtype=np.int64)
        for i, s in enumerate(spans):
            self.by_name[s[0]].append(i)
            if s[3] >= 0:
                self.children[s[3]].append(i)
            self.root[i] = i if s[3] < 0 else self.root[s[3]]
        self.self_time = self.duration - np.array(
            [sum(self.duration[c] for c in kids) for kids in self.children]
        )

    def layer(self, i) -> str:
        head = self.spans[i][0].split(".", 1)[0]
        return head if head in LAYERS else "harness"

    def indices(self, name, roots=None, parent=None):
        return [
            i
            for i in self.by_name.get(name, ())
            if (roots is None or self.root[i] in roots)
            and (parent is None or self.name_of(self.spans[i][3]) == parent)
        ]

    def name_of(self, i):
        return self.spans[i][0] if i >= 0 else None

    def child_time(self, i, names) -> float:
        return sum(self.duration[c] for c in self.children[i] if self.spans[c][0] in names)

    def has_ancestor(self, i, name) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _p90(values) -> float:
    return float(np.percentile(values, 90)) if len(values) >= P90_MIN_CALLS else 0.0


def iteration_counts(tree: SpanTree, root: int) -> dict:
    """Work counts inside one traced solve iteration; they must repeat exactly."""
    roots = {root}
    steps = tree.indices("diffusion.step", roots)
    builds = [i for i in tree.indices("laplacian.build", roots) if tree.has_ancestor(i, "diffusion.step")]
    snaps = [tree.spans[i][4] for i in tree.indices("diffusion.snapshots", roots)]
    graph_builds = [i for i in tree.indices("graph.build", roots) if tree.has_ancestor(i, "evaluation.benchmark")]
    return {
        "diffusion.steps": len(steps),
        "laplacian.builds": len(builds),
        "evaluation.cells": sum(s["cells"] for s in snaps),
        "evaluation.diverged_cells": sum(s["diverged"] for s in snaps),
        "evaluation.graph_builds": len(graph_builds),
    }


def per_layer_metrics(tree: SpanTree, setup_roots, solve_roots, untraced_times, counts) -> dict:
    """Every per-layer metric, from the spans and the run's work counts.

    Per-call timings are medians over every call of the run (set-up and
    solve); ``counts`` are the structure counts plus one solve iteration's
    :func:`iteration_counts`; shares are a layer's self time as a percentage
    of the total time of the set-up or solve root spans.
    """
    setup_roots, solve_roots = set(setup_roots), set(solve_roots)
    dur, own = tree.duration, tree.self_time

    def calls(name, use_self=False, **kw):
        return (own if use_self else dur)[tree.indices(name, **kw)]

    weights = [
        tree.child_time(b, ("graph.sigma_x", "graph.weights")) for b in tree.indices("graph.build")
    ]
    steps = calls("diffusion.step")
    m = {
        "data.distance_matrix_s": _median(calls("data.distance_matrix")),
        "data.load_s": _median(calls("data.load")),
        "graph.knn_s": _median(calls("graph.knn")),
        "graph.weights_s": _median(weights),
        "graph.knn_positions_s": _median(calls("graph.knn_positions")),
        "graph.mutual_structure_s": _median(calls("graph.mutual_structure", use_self=True)),
        "graph.match_structure_s": _median(calls("graph.match_structure", use_self=True)),
        "diffusion.step_s": _median(steps),
        "diffusion.step_p90_s": _p90(steps),
        "diffusion.step_self_s": _median(calls("diffusion.step", use_self=True)),
        "diffusion.warm_start_s": _median(calls("diffusion.warm_start")),
        "baselines.grf_s": _median(calls("baselines.grf")),
        "evaluation.column_s": _median(calls("diffusion.snapshots")),
        "evaluation.rerun_s": _median(calls("diffusion.run", parent="evaluation.benchmark")),
    }
    for short in ("local_match", "smooth", "plain", "sqnorms"):
        values = calls("diffusivity." + short)
        m[f"diffusivity.{short}_s"] = _median(values)
        m[f"diffusivity.{short}_p90_s"] = _p90(values)
    for short in ("build", "apply"):
        values = calls("laplacian." + short)
        m[f"laplacian.{short}_s"] = _median(values)
        m[f"laplacian.{short}_p90_s"] = _p90(values)
    for method in ("I", "A_lin", "A_nlin", "A_S"):
        m[f"evaluation.grid_search_s.{method}"] = _median(calls("evaluation.grid_search." + method))
    cli_self = [
        dur[i] - tree.child_time(i, ("evaluation.benchmark",)) for i in tree.indices("cli.main")
    ]
    m["cli.self_s"] = _median(cli_self)

    m.update(counts)
    steps_per_iteration = counts["diffusion.steps"]
    m["laplacian.builds_per_step"] = (
        counts["laplacian.builds"] / steps_per_iteration if steps_per_iteration else 0.0
    )

    for phase, roots in (("setup", setup_roots), ("solve", solve_roots)):
        total = sum(dur[r] for r in roots)
        by_layer = defaultdict(float)
        for i in range(len(tree.spans)):
            if tree.root[i] in roots:
                by_layer[tree.layer(i)] += own[i]
        for layer in ("harness",) + LAYERS:
            m[f"share.{phase}.{layer}"] = 100.0 * by_layer[layer] / total if total else 0.0

    traced = _median([dur[r] for r in solve_roots])
    untraced = _median(untraced_times)
    m["trace.solve_s"] = traced
    m["trace.untraced_solve_s"] = untraced
    m["trace.overhead_s"] = traced - untraced
    m["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced if untraced else 0.0
    m["trace.samples"] = len(solve_roots)
    return m
