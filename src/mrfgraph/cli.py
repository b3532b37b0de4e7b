"""Command-line interface.

Subcommands:
  build    construct one graph and print it (dot or json)
  metrics  exact invariants and optimization parameters of one graph
  iso      isomorphism verdict between two graphs
  verify   run the atomic-backend verification suites
  sample   run the sampled interval-backend suites

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

from .graph_build import KIND_BY_NAME, GraphKind, build_graph, export_graph
from .graph_metrics import (SOLVER_BOUND, SOLVERS, BoundExceededError, metrics, np_metrics,
                            partiteness, triangle_profile)
from .harness import SUITES, SuiteConfig, make_weights, render_report, run_suite
from .isomorphism import ISO_BUDGET, are_isomorphic
from .measure_space import ATOMIC, INTERVAL, AtomicSpace, IntervalSpace
from .vertex_universe import sample_interval_classes


def _atom_range(text: str) -> tuple[int, int]:
    """argparse type: an atom count ``n`` or a range ``lo..hi``."""
    lo, sep, hi = text.partition("..")
    try:
        return int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {text!r}") from None


def _int_at_least(lo: int):
    """argparse type: an integer no smaller than ``lo``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value
    return parse


def _parameter_names(text: str) -> str:
    """argparse type: comma-separated names of exact parameters."""
    for name in filter(None, (w.strip() for w in text.split(","))):
        if name not in SOLVERS:
            raise argparse.ArgumentTypeError(
                f"unknown parameter {name!r} (known: {','.join(SOLVERS)})")
    return text


def _build_from_args(args, kind: GraphKind):
    if args.backend == INTERVAL:
        sample = sample_interval_classes(args.seed, args.samples)
        return build_graph(IntervalSpace(), kind, sample=sample)
    space = AtomicSpace(make_weights(args.atoms, args.weights, args.seed))
    return build_graph(space, kind, args.mode, alphabet=args.alphabet)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jsonable(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def cmd_build(args) -> int:
    g = _build_from_args(args, KIND_BY_NAME[args.kind])
    if g.n_vertices == 0:
        sys.stderr.write("note: empty graph (no vertices satisfy the kind's constraints)\n")
    _emit(export_graph(g, args.format), args.out)
    return 0


def cmd_metrics(args) -> int:
    g = _build_from_args(args, KIND_BY_NAME[args.kind])
    if g.n_vertices == 0:
        _emit(json.dumps({"graph": g.name(), "empty": True}, indent=2) + "\n", args.out)
        return 0
    summary = metrics(g)
    shape = partiteness(g)
    triangles = triangle_profile(g)
    doc = {
        "graph": g.name(),
        "vertices": g.n_vertices,
        "edges": g.n_edges(),
        "connected": summary.connected,
        "diameter": _jsonable(summary.diameter),
        "girth": _jsonable(summary.girth),
        "eccentricity_histogram": summary.eccentricity_json(),
        "triangulated": triangles.is_triangulated,
        "hypertriangulated": triangles.is_hypertriangulated,
        "bipartite": shape.is_bipartite,
        "complete_bipartite": shape.is_complete_bipartite,
        "complete_multipartite_parts": (
            [len(p) for p in shape.multipartite_parts]
            if shape.multipartite_parts is not None else None),
    }
    if args.which:
        names = tuple(w.strip() for w in args.which.split(",") if w.strip())
        values = np_metrics(g, names, clique_bound=args.clique_bound,
                            chromatic_bound=args.chromatic_bound,
                            dominating_bound=args.dominating_bound)
        doc["parameters"] = {}
        for name, (value, wit) in values.items():
            if name == "chromatic":
                witness = {g.vertex_label(i): color for i, color in enumerate(wit)}
            else:
                witness = [g.vertex_label(i) for i in wit]
            doc["parameters"][name] = {"value": _jsonable(value), "witness": witness}
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_iso(args) -> int:
    left = _build_from_args(args, KIND_BY_NAME[args.left])
    right = _build_from_args(args, KIND_BY_NAME[args.right])
    verdict = are_isomorphic(left, right, budget=args.budget)
    doc = {
        "left": left.name(),
        "right": right.name(),
        "outcome": verdict.outcome,
        "nodes_explored": verdict.nodes_explored,
    }
    if verdict.mapping is not None:
        doc["mapping"] = {left.vertex_label(i): right.vertex_label(j)
                          for i, j in enumerate(verdict.mapping)}
    if verdict.certificate is not None:
        doc["certificate"] = verdict.certificate
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _config_from_args(args, backend: str) -> SuiteConfig:
    base: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                base = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            sys.stderr.write(f"cannot read config {args.config}: {exc}\n")
            raise SystemExit(2)
        if not isinstance(base, dict):
            sys.stderr.write(f"invalid configuration: {args.config} holds "
                             f"{type(base).__name__}, not a JSON object\n")
            raise SystemExit(2)
    # Each suite flag's dest is the SuiteConfig field it overrides; the atom
    # range and the two name lists are parsed here.
    overrides = {f.name: getattr(args, f.name, None) for f in fields(SuiteConfig)}
    overrides["atoms_min"], overrides["atoms_max"] = args.atoms or (None, None)
    overrides["backend"] = backend
    for name, text in (("suites", args.suite if args.suite != "all" else None),
                       ("kinds", args.kinds)):
        overrides[name] = tuple(s.strip() for s in text.split(",")) if text is not None else None
    merged = dict(base)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    try:
        if isinstance(merged.get("kinds"), list | tuple):  # --kind's names, weakly-zd too
            merged["kinds"] = [KIND_BY_NAME[k].value if isinstance(k, str) and k in KIND_BY_NAME
                               else k for k in merged["kinds"]]
        return SuiteConfig.from_dict(merged)
    except (ValueError, TypeError) as exc:
        sys.stderr.write(f"invalid configuration: {exc}\n")
        raise SystemExit(2)


def cmd_verify(args, backend: str = ATOMIC) -> int:
    config = _config_from_args(args, backend)
    report = run_suite(config)
    _emit(render_report(report), args.out)
    return 1 if report.failed else 0


def cmd_sample(args) -> int:
    if args.atoms is None:
        args.atoms = (2, 2)  # atom range is irrelevant on the interval backend
    return cmd_verify(args, backend=INTERVAL)


def _add_graph_selectors(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", choices=[ATOMIC, INTERVAL], default=ATOMIC)
    p.add_argument("--atoms", type=_int_at_least(1), default=3, help="atom count (atomic backend)")
    p.add_argument("--mode", choices=["quotient", "expanded"], default="quotient")
    p.add_argument("--alphabet", type=_int_at_least(2), default=3,
                   help="symbols per atom in expanded mode")
    p.add_argument("--weights", choices=["unit", "random-positive"], default="unit")
    p.add_argument("--samples", type=_int_at_least(1), default=100,
                   help="sampled classes (interval backend)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", help="write output to a file instead of stdout")


def _add_bounds(p: argparse.ArgumentParser, parse=_int_at_least(0), default=SOLVER_BOUND) -> None:
    for name in ("clique", "chromatic", "dominating"):
        p.add_argument(f"--{name}-bound", type=parse, default=default, dest=f"{name}_bound")


def _add_suite_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", default="all",
                   help=f"comma-separated subset of {','.join(SUITES)} or 'all'")
    p.add_argument("--atoms", type=_atom_range, default=None, help="atom range, e.g. 3 or 2..5")
    p.add_argument("--alphabet", type=int, default=None)
    p.add_argument("--weights", choices=["unit", "random-positive"], default=None)
    p.add_argument("--kinds", default=None,
                   help="comma-separated graph kinds whose suites run; the measure_core, "
                        "quotient and iso checks still build every kind")
    p.add_argument("--samples", type=_int_at_least(1), default=None, dest="sample_count",
                   metavar="SAMPLES")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-cycle-len", type=int, default=None, dest="max_cycle_len")
    p.add_argument("--budget", type=int, default=None, dest="iso_budget", metavar="BUDGET",
                   help="isomorphism search node budget")
    p.add_argument("--format", choices=["json", "text"], default=None, dest="output")
    p.add_argument("--only", default=None, help="run a single check id")
    p.add_argument("--config", default=None, help="JSON config file (flags override it)")
    p.add_argument("--out", help="write the report to a file")
    _add_bounds(p, int, None)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrfgraph",
        description="Exact graphs and invariants of rings of measurable functions "
                    "over finitely representable measure spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct one graph")
    _add_graph_selectors(p_build)
    p_build.add_argument("--kind", required=True, choices=sorted(KIND_BY_NAME))
    p_build.add_argument("--format", choices=["dot", "json"], default="json")
    p_build.set_defaults(fn=cmd_build)

    p_metrics = sub.add_parser("metrics", help="invariants of one graph")
    _add_graph_selectors(p_metrics)
    _add_bounds(p_metrics)
    p_metrics.add_argument("--kind", required=True, choices=sorted(KIND_BY_NAME))
    p_metrics.add_argument("--which", type=_parameter_names, default=None,
                           help=f"comma-separated: {','.join(SOLVERS)}")
    p_metrics.set_defaults(fn=cmd_metrics)

    p_iso = sub.add_parser("iso", help="isomorphism verdict between two graphs")
    _add_graph_selectors(p_iso)
    p_iso.add_argument("--left", required=True, choices=sorted(KIND_BY_NAME))
    p_iso.add_argument("--right", required=True, choices=sorted(KIND_BY_NAME))
    p_iso.add_argument("--budget", type=_int_at_least(0), default=ISO_BUDGET)
    p_iso.set_defaults(fn=cmd_iso, mode="expanded")

    p_verify = sub.add_parser("verify", help="run the verification suites (atomic backend)")
    _add_suite_flags(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_sample = sub.add_parser("sample", help="run the sampled interval-backend suites")
    _add_suite_flags(p_sample)
    p_sample.set_defaults(fn=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except (BoundExceededError, OSError) as exc:
        sys.stderr.write(f"mrfgraph: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
