"""The benchmark's tracer names library functions by string; each name must
still exist, or ``perfbench/run.py --trace 1`` breaks only at benchmark time.

The tracer source is parsed, not imported or changed."""

import ast
import importlib
import inspect
import pathlib

from mrfgraph.harness import RunContext

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tree():
    return ast.parse(TRACING.read_text())


def _tuple_constant(tree, name):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING.name}")


def _stats_keys(tree):
    """String keys of every ``self.stats[...]`` and ``self.stats.get(...)``."""
    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_stats(node.value):
            key = node.slice
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and _is_stats(node.func.value) and node.args):
            key = node.args[0]
        else:
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.add(key.value)
    return keys


def _is_stats(node):
    return isinstance(node, ast.Attribute) and node.attr == "stats"


def _public_function(layer, name):
    mod = importlib.import_module(f"mrfgraph.{layer}")
    fn = vars(mod).get(name)
    return (not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == mod.__name__)


def test_runcontext_methods_exist():
    for method in _tuple_constant(_tree(), "RUNCONTEXT_METHODS"):
        assert inspect.isfunction(getattr(RunContext, method, None)), method


def test_enumerators_are_public_functions():
    for name in _tuple_constant(_tree(), "ENUMERATORS"):
        assert _public_function("vertex_universe", name), name


def test_stats_keys_name_library_functions():
    keys = _stats_keys(_tree())
    assert {"graph_build.build_graph", "graph_build.oracle_adjacent", "graph_metrics.metrics",
            "graph_metrics.cycle_rank", "graph_metrics.np_metrics",
            "isomorphism.are_isomorphic", "harness.render_report"} <= keys
    for key in keys:
        layer, _, name = key.partition(".")
        if name.startswith("RunContext."):
            assert inspect.isfunction(getattr(RunContext, name.split(".")[1], None)), key
        else:
            assert _public_function(layer, name), key


def test_profile_functions_are_public_functions():
    names = _tuple_constant(_tree(), "PROFILE_FUNCTIONS")
    # recorded as stale in ROADMAP item 1: the tracer still names it, the
    # library no longer has it; once the tracer drops the name, drop this
    stale = "zero_divisor_triangle_zero_sets"
    assert stale in names and stale not in vars(importlib.import_module("mrfgraph.graph_metrics"))
    for name in names:
        if name != stale:
            assert _public_function("graph_metrics", name), name
