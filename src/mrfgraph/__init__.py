"""Exact graphs on rings of measurable functions over finitely
representable measure spaces: construction, invariants, certified
isomorphisms, and an executable verification harness."""

from .graph_build import Graph, GraphKind, adjacent, build_graph, export_graph, oracle_adjacent
from .graph_metrics import (
    complementation_profile,
    cycle_rank,
    metrics,
    np_metrics,
    partiteness,
    triangle_profile,
)
from .harness import Report, ReportEntry, SuiteConfig, run_suite
from .isomorphism import IsoVerdict, are_isomorphic, complement_iso
from .measure_space import (
    AtomicSpace,
    IntervalSpace,
    MeasurableSet,
    atom_set,
    complement,
    interval_set,
    is_atom,
    is_null,
    measure,
    null_equal,
    parse_set,
    split_at_measure,
    split_nonatom,
    unit_space,
)
from .vertex_universe import (
    ExpandedFunction,
    ZClass,
    ann_leq,
    class_size,
    enumerate_functions,
    enumerate_zclasses,
    sample_interval_class,
)

__version__ = "0.1.0"
