"""Layer tracing for the benchmark, installed from outside the library.

Every public module-level function of the eight layer modules (plus the
``RunContext`` cache methods and every registered check) is replaced by a
wrapper at each binding site: the defining module and every module that
bound the name with ``from ... import``.  A wrapper records a span only at a
layer boundary, i.e. when its caller is in another layer; a call from inside
the same layer runs the original function directly, so the internal calls of
``measure_space`` (``union`` -> ``boolean_combine``) are not counted twice.

A span is ``(id, parent_id, name, start, end)``.  Spans are kept in memory up
to ``span_cap`` and written out by the caller after the operation; the
counters and self times below are accumulated from every span, kept or not.
Self time is a span's duration minus the time of the spans it caused; the
wrapper's own bookkeeping is charged to neither, so parents are not billed
for tracing cost.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import sys
from time import perf_counter

LAYERS = ("measure_space", "vertex_universe", "graph_build", "graph_metrics",
          "isomorphism", "harness", "checks", "cli")
SUITES = ("measure_core", "comaximal", "zero_divisor", "annihilator",
          "weakly_zd", "quotient", "iso")
RUNCONTEXT_METHODS = ("graph", "graph_metrics", "space", "interval_classes")
PROFILE_FUNCTIONS = ("triangle_profile", "complementation_profile", "partiteness",
                     "comaximal_triangle_zero_sets", "zero_divisor_triangle_zero_sets",
                     "annihilator_common_neighbor_zero_set")
ENUMERATORS = ("enumerate_zclasses", "enumerate_functions", "sample_interval_classes")
ROOT = "bench.op"


class Tracer:
    """Span recorder and per-function counters for one traced operation."""

    def __init__(self, span_cap: int = 100_000):
        self.span_cap = span_cap
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.names: list[str] = []
        self.stats: dict[str, list] = {}      # name -> [calls, self_s]
        self.counts = {"vertices_enumerated": 0, "pair_tests": 0, "edges": 0,
                       "nodes_explored": 0, "cache_misses": 0,
                       "entries_pass": 0, "entries_skipped": 0, "entries_fail": 0}
        # frame: [layer, child_s, span_id, name]
        self.stack: list[list] = [["bench", 0.0, 0, ROOT]]
        self._ids = itertools.count(1)
        self.dropped = 0

    def wrap(self, fn, layer: str, name: str, hook=None):
        """Return ``fn`` wrapped so that boundary calls record a span."""
        stack, spans, cap = self.stack, self.spans, self.span_cap
        ids = self._ids
        stat = self.stats.setdefault(name, [0, 0.0])
        name_id = len(self.names)
        self.names.append(name)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] is layer:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            frame = [layer, 0.0, next(ids), name]
            stack.append(frame)
            t1 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                parent[1] += perf_counter() - t0
                raise
            t2 = perf_counter()
            stack.pop()
            stat[0] += 1
            stat[1] += t2 - t1 - frame[1]
            if len(spans) < cap:
                spans.append((frame[2], parent[2], name_id, t1, t2))
            else:
                tracer.dropped += 1
            if hook is not None:
                hook(result, parent)
            parent[1] += perf_counter() - t0
            return result

        return wrapper

    # -- hooks: derive counts from results, outside the measured span -------

    def _on_build(self, g, parent):
        v = g.n_vertices
        self.counts["pair_tests"] += v * (v - 1) // 2
        self.counts["edges"] += g.n_edges()
        if parent[3] == "harness.RunContext.graph":
            self.counts["cache_misses"] += 1

    def _on_enumerate(self, result, parent):
        self.counts["vertices_enumerated"] += len(result)

    def _on_iso(self, verdict, parent):
        self.counts["nodes_explored"] += verdict.nodes_explored

    def _on_suite(self, report, parent):
        for status, n in report.counts().items():
            self.counts["entries_" + status] += n

    def install(self) -> None:
        """Wrap every layer's public functions at all binding sites."""
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "mrfgraph" or name.startswith("mrfgraph.")}
        hooks = {("graph_build", "build_graph"): self._on_build,
                 ("isomorphism", "are_isomorphic"): self._on_iso,
                 ("harness", "run_suite"): self._on_suite}
        hooks.update({("vertex_universe", f): self._on_enumerate for f in ENUMERATORS})
        replacements = {}
        for layer in LAYERS:
            mod = pkg["mrfgraph." + layer]
            for fname, fn in vars(mod).items():
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                replacements[fn] = self.wrap(fn, layer, f"{layer}.{fname}",
                                             hooks.get((layer, fname)))
        for mod in pkg.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replacements:
                    setattr(mod, attr, replacements[value])
        harness = pkg["mrfgraph.harness"]
        for method in RUNCONTEXT_METHODS:
            fn = getattr(harness.RunContext, method)
            setattr(harness.RunContext, method,
                    self.wrap(fn, "harness", f"harness.RunContext.{method}"))
        for cid, check in list(harness.REGISTRY.items()):
            harness.REGISTRY[cid] = dataclasses.replace(
                check, fn=self.wrap(check.fn, "checks", f"checks.{check.suite}:{cid}"))

    # -- aggregation ---------------------------------------------------------

    def _sum(self, names) -> tuple[int, float]:
        calls, self_s = 0, 0.0
        for name in names:
            c, s = self.stats.get(name, (0, 0.0))
            calls += c
            self_s += s
        return calls, self_s

    def _layer(self, prefix: str) -> tuple[int, float]:
        return self._sum(n for n in self.stats if n.startswith(prefix))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times of everything traced so far."""
        c = self.counts
        set_ops, set_ops_s = self._layer("measure_space.")
        requests = self.stats.get("harness.RunContext.graph", (0, 0.0))[0]
        out = {
            "measure_space.set_ops": set_ops,
            "measure_space.set_ops_s": set_ops_s,
            "vertex_universe.vertices_enumerated": c["vertices_enumerated"],
            "vertex_universe.enumerate_s": self._layer("vertex_universe.")[1],
            "graph_build.builds": self.stats["graph_build.build_graph"][0],
            "graph_build.build_s": self.stats["graph_build.build_graph"][1],
            "graph_build.pair_tests": c["pair_tests"],
            "graph_build.edges": c["edges"],
            "graph_build.oracle_calls": self.stats["graph_build.oracle_adjacent"][0],
            "graph_build.oracle_s": self.stats["graph_build.oracle_adjacent"][1],
            "graph_build.self_s": self._layer("graph_build.")[1],
            "graph_metrics.metrics_calls": self.stats["graph_metrics.metrics"][0],
            "graph_metrics.metrics_s": self.stats["graph_metrics.metrics"][1],
            "graph_metrics.cycle_rank_calls": self.stats["graph_metrics.cycle_rank"][0],
            "graph_metrics.cycle_rank_s": self.stats["graph_metrics.cycle_rank"][1],
            "graph_metrics.profile_s": self._sum(
                "graph_metrics." + f for f in PROFILE_FUNCTIONS)[1],
            "graph_metrics.np_s": self.stats["graph_metrics.np_metrics"][1],
            "graph_metrics.self_s": self._layer("graph_metrics.")[1],
            "isomorphism.searches": self.stats["isomorphism.are_isomorphic"][0],
            "isomorphism.iso_s": self._layer("isomorphism.")[1],
            "isomorphism.nodes_explored": c["nodes_explored"],
            "harness.graph_requests": requests,
            "harness.graph_cache_hit_ratio":
                (requests - c["cache_misses"]) / requests if requests else 0.0,
            "harness.render_s": self.stats["harness.render_report"][1],
            "harness.entries_pass": c["entries_pass"],
            "harness.entries_skipped": c["entries_skipped"],
            "harness.entries_fail": c["entries_fail"],
            "harness.self_s": self._layer("harness.")[1],
        }
        for suite in SUITES:
            out[f"checks.{suite}_s"] = self._layer(f"checks.{suite}:")[1]
        out["checks.self_s"] = self._layer("checks.")[1]
        out["cli.self_s"] = self._layer("cli.")[1]
        return out

    def span_records(self) -> list[list]:
        """Kept spans as ``[id, parent_id, name, start, end]`` rows."""
        names = self.names
        return [[sid, pid, names[nid], start, end]
                for sid, pid, nid, start, end in self.spans]
