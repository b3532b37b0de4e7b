#!/usr/bin/env python3
"""Exploratory probe: are the zero-divisor and comaximal graphs isomorphic
over a non-atomic measure?

On the unit interval the answer is yes via the complement map on classes.
Whether this extends to every non-atomic measure space is open; this script
only gathers sampled evidence.  It builds complement-closed sampled quotient
subgraphs at increasing sizes, applies the complement map, and also lets the
generic backtracking checker confirm each verdict independently.  Nothing
here is an acceptance check.

Usage: python scripts/explore_nonatomic_iso.py [--sizes 10,25,50] [--seed 7]
"""

import argparse

from mrfgraph.graph_build import GraphKind, build_graph
from mrfgraph.isomorphism import are_isomorphic, complement_iso
from mrfgraph.measure_space import IntervalSpace, complement
from mrfgraph.vertex_universe import ZClass, sample_interval_classes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="10,25,50")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    space = IntervalSpace()
    for size in (int(s) for s in args.sizes.split(",")):
        # build_graph drops repeated zero sets, keeping first appearances
        sample = [ZClass(z) for zc in sample_interval_classes(args.seed, size)
                  for z in (zc.zero_set, complement(space, zc.zero_set))]
        g1 = build_graph(space, GraphKind.ZERO_DIVISOR, sample=sample)
        g2 = build_graph(space, GraphKind.COMAXIMAL, sample=sample)
        verdict = complement_iso(g1, g2)
        explicit = verdict.is_isomorphic and verdict.nodes_explored == 0
        generic = are_isomorphic(g1, g2, budget=500_000)
        print(f"sample size {size:3d} -> {g1.n_vertices:3d} classes: "
              f"complement map {'verified' if explicit else 'FAILED'}, "
              f"generic search says {generic.outcome} "
              f"({generic.nodes_explored} nodes)")
        print("  note: sampled subgraphs only; this is evidence, not a proof")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
