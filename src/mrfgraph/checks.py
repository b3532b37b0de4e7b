"""Executable checks behind the verification suites.

Each check replays one structural fact about the graphs at desk scale:
closed-form adjacency against definition-level oracles, metric formulas
against breadth-first search, parameter identities against exact solvers,
and constructive witnesses on the sampled interval backend.  Each check
declares its domain in its ``register`` call and returns one
:class:`~mrfgraph.harness.Outcome` per instance; the harness walks the
domain and labels the report entries.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .graph_build import GraphKind, adjacent, oracle_adjacent, weakly_adjacent_all
from .graph_metrics import (
    BoundExceededError,
    annihilator_common_neighbor_zero_set,
    comaximal_triangle_zero_sets,
    complementation_profile,
    cycle_rank,
    np_metrics,
    partiteness,
    triangle_profile,
)
from .harness import INTERVAL, Outcome, RunContext, register
from .isomorphism import NOT_ISOMORPHIC, are_isomorphic, canonical_complement_iso, class_size_iso, verify_mapping
from .measure_space import (
    atom_set,
    complement,
    difference,
    intersect,
    is_atom,
    is_null,
    is_subset,
    measure,
    null_equal,
    split_at_measure,
    split_nonatom,
    union,
)
from .vertex_universe import (
    ZClass,
    ann_eq,
    ann_leq,
    class_size,
    enumerate_functions,
    enumerate_zclasses,
    format_zclass,
    sample_interval_class,
    zclass,
)

INF = math.inf

KINDS = (GraphKind.ZERO_DIVISOR, GraphKind.COMAXIMAL,
         GraphKind.ANNIHILATOR, GraphKind.WEAKLY_ZD)

NEEDS_K3 = "needs alphabet >= 3"


def _fmt(x) -> str:
    if x is INF:
        return "inf"
    return str(x)


# ---------------------------------------------------------------------------
# expected-value formulas (the closed forms the computations are checked
# against; each one is a nullity/atom predicate on zero sets)
# ---------------------------------------------------------------------------

def expected_comaximal_distance(space, zu, zv) -> int:
    if is_null(space, intersect(space, zu, zv)):
        return 1
    cozu, cozv = complement(space, zu), complement(space, zv)
    if not is_null(space, intersect(space, cozu, cozv)):
        return 2
    return 3


def expected_comaximal_cycle(space, zu, zv) -> int:
    """Valid when the space is not a union of two atoms (n >= 3)."""
    zeros_null = is_null(space, intersect(space, zu, zv))
    cozs_null = is_null(space, intersect(space, complement(space, zu), complement(space, zv)))
    if zeros_null and not cozs_null:
        return 3
    if zeros_null == cozs_null:
        return 4
    return 6


def orthogonal_comaximal(space, zu, zv) -> bool:
    return (is_null(space, intersect(space, zu, zv))
            and is_null(space, intersect(space, complement(space, zu), complement(space, zv))))


def orthogonal_annihilator(space, zu, zv) -> bool:
    return (orthogonal_comaximal(space, zu, zv)
            and (is_atom(space, zu) or is_atom(space, zv)))


def _indicator_index(g, zero_set) -> int:
    """First vertex whose zero set equals the given one."""
    for i, zs in enumerate(g.zero_sets):
        if zs == zero_set:
            return i
    raise LookupError(f"no vertex with zero set {zero_set}")


def _oracle_check(ctx: RunContext, n: int, k: int, kind: GraphKind) -> Outcome:
    if n == 1:
        space = ctx.space(1)
        g_q = ctx.graph(1, kind, "quotient")
        g_e = ctx.graph(1, kind, "expanded", alphabet=k)
        ok = g_q.n_vertices == 0 and g_e.n_vertices == 0 and space.n_atoms == 1
        return Outcome("empty vertex set", f"{g_q.n_vertices} quotient / "
                       f"{g_e.n_vertices} expanded vertices", ok,
                       note="single-atom space has no zero-divisors", instance="n=1")
    if n > ctx.config.oracle_atoms_max:
        raise BoundExceededError(f"oracle bound is {ctx.config.oracle_atoms_max} atoms")
    space = ctx.space(n)
    g = ctx.graph(n, kind, "expanded", alphabet=k)
    mismatches = []
    total = 0
    for i in range(g.n_vertices):
        for j in range(i + 1, g.n_vertices):
            total += 1
            closed = g.is_edge(i, j)
            brute = oracle_adjacent(kind, space, k, g.vertices[i], g.vertices[j])
            if closed != brute:
                mismatches.append((g.vertex_label(i), g.vertex_label(j), closed, brute))
    return Outcome(f"{total}/{total} pairs agree", f"{total - len(mismatches)}/{total} pairs agree",
                   not mismatches, witness=mismatches[:5] or None)


# ---------------------------------------------------------------------------
# measure_core suite
# ---------------------------------------------------------------------------

@register("measure_core.zero_divisor_existence", "measure_core", n_min=1, label="n={n}")
def check_zero_divisor_existence(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    classes = enumerate_zclasses(space)
    expected = 0 if n == 1 else 2 ** n - 2
    valid = all(
        not is_null(space, zc.zero_set)
        and not is_null(space, complement(space, zc.zero_set))
        for zc in classes
    )
    note = "single-atom space: zero-divisors exist only when the space splits" if n == 1 else ""
    return Outcome(f"{expected} classes", f"{len(classes)} classes",
                   len(classes) == expected and valid, note=note)


@register("measure_core.atom_dichotomy", "measure_core", n_min=1, label="n={n}")
def check_atom_dichotomy(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    bad = 0
    total = 0
    for a in range(n):
        atom = atom_set([a])
        for mask in range(1 << n):
            b = atom_set(i for i in range(n) if mask >> i & 1)
            total += 1
            if not (is_null(space, intersect(space, atom, b))
                    or is_null(space, difference(space, atom, b))):
                bad += 1
    return Outcome("every (atom, set) pair splits trivially", f"{bad} violations of {total}",
                   bad == 0)


@register("measure_core.two_atom_partition", "measure_core", n_max=2, label="n={n}")
def check_two_atom_partition(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    first, second = atom_set([0]), atom_set([1])
    ok = all(
        null_equal(space, zc.zero_set, first) or null_equal(space, zc.zero_set, second)
        for zc in enumerate_zclasses(space)
    )
    return Outcome("every class matches one of the two atoms",
                   "all classes matched" if ok else "stray class found", ok)


@register("measure_core.ann_preorder", "measure_core", label="n={n}")
def check_ann_preorder(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    zsets = [zc.zero_set for zc in enumerate_zclasses(space)]
    ok = all(ann_leq(space, z, z) for z in zsets)
    for x in zsets:
        for y in zsets:
            if ann_eq(space, x, y) != null_equal(space, x, y):
                ok = False
            for z in zsets:
                if ann_leq(space, x, y) and ann_leq(space, y, z) and not ann_leq(space, x, z):
                    ok = False
    return Outcome("reflexive + transitive containment; equality iff null-equal zero sets",
                   "laws hold" if ok else "law violated", ok)


@register("measure_core.weight_independence", "measure_core", label="n={n}")
def check_weight_independence(ctx: RunContext, n: int, k: int):
    ok = True
    modes = [("quotient", None)]
    if n <= max(4, ctx.config.oracle_atoms_max):
        modes.append(("expanded", k))
    for kind in KINDS:
        for mode, alpha in modes:
            unit = ctx.graph(n, kind, mode, alphabet=alpha, policy="unit")
            rand = ctx.graph(n, kind, mode, alphabet=alpha, policy="random-positive")
            if unit.adj != rand.adj or unit.zero_sets != rand.zero_sets:
                ok = False
    return Outcome("identical graphs under unit and random positive weights",
                   "identical" if ok else "graphs differ", ok)


@register("measure_core.split_prefix_exact", "measure_core", backend=INTERVAL)
def check_split_prefix_exact(ctx: RunContext):
    space = ctx.interval_space
    cases = 2 * ctx.config.sample_count
    rng = random.Random(f"split:{ctx.config.seed}")
    bad = 0
    for i in range(cases):
        zc = sample_interval_class(f"{ctx.config.seed}:split:{i}", i % 3 + 1)
        candidate = zc.zero_set if i % 2 == 0 else complement(space, zc.zero_set)
        total = measure(space, candidate)
        r = total * Fraction(rng.randrange(0, 101), 100)
        part = split_at_measure(space, candidate, r)
        if measure(space, part) != r or not is_subset(space, part, candidate):
            bad += 1
    return Outcome("every prefix subset has the exact target measure", f"{bad} failures",
                   bad == 0, instance=f"{cases} random (set, target) cases")


@register("measure_core.sampled_no_atoms", "measure_core", backend=INTERVAL)
def check_sampled_no_atoms(ctx: RunContext):
    space = ctx.interval_space
    bad = 0
    checked = 0
    for zc in ctx.interval_classes():
        for candidate in (zc.zero_set, complement(space, zc.zero_set)):
            checked += 1
            if is_atom(space, candidate):
                bad += 1
                continue
            left, right = split_nonatom(space, candidate)
            if (is_null(space, left) or is_null(space, right)
                    or union(space, left, right) != candidate
                    or not is_null(space, intersect(space, left, right))):
                bad += 1
    return Outcome("no atoms; every set splits into two positive-measure parts",
                   f"{bad} failures", bad == 0,
                   instance=f"{checked} sampled positive-measure sets")


# ---------------------------------------------------------------------------
# comaximal suite
# ---------------------------------------------------------------------------

@register("comaximal.adjacency_oracle", "comaximal", kind="comaximal", n_min=1)
def check_comaximal_oracle(ctx: RunContext, n: int, k: int):
    return _oracle_check(ctx, n, k, GraphKind.COMAXIMAL)


@register("comaximal.unit_witness", "comaximal", kind="comaximal", oracle_capped=True)
def check_comaximal_unit_witness(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    g = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
    bad = 0
    for i in range(g.n_vertices):
        for j in range(i + 1, g.n_vertices):
            values = tuple(a * a + b * b for a, b in
                           zip(g.vertices[i].values, g.vertices[j].values))
            unit = is_null(space, atom_set(p for p, v in enumerate(values) if v == 0))
            if unit != g.is_edge(i, j):
                bad += 1
    return Outcome("sum of squares is a unit up to null sets exactly on edges",
                   f"{bad} mismatches", bad == 0)


@register("comaximal.distance_formula", "comaximal", kind="comaximal", per_mode=True)
def check_comaximal_distance(ctx: RunContext, n: int, mode: str, k: int | None):
    space = ctx.space(n)
    g = ctx.graph(n, GraphKind.COMAXIMAL, mode, alphabet=k)
    summary = ctx.graph_metrics(g)
    bad = 0
    total = 0
    for i in range(g.n_vertices):
        for j in range(i + 1, g.n_vertices):
            total += 1
            want = expected_comaximal_distance(space, g.zero_sets[i], g.zero_sets[j])
            if summary.distances[i][j] != want:
                bad += 1
    return Outcome(f"{total} pairwise distances follow the three-case rule",
                   f"{bad} mismatches", bad == 0)


@register("comaximal.eccentricity_formula", "comaximal", kind="comaximal",
          needs_k3="eccentricity formula needs classes of size >= 2 (alphabet >= 3)")
def check_comaximal_eccentricity(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    g = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
    summary = ctx.graph_metrics(g)
    bad = sum(
        1 for i in range(g.n_vertices)
        if summary.eccentricity[i] != (2 if is_atom(space, g.zero_sets[i]) else 3)
    )
    return Outcome("eccentricity 2 exactly at atomic zero sets, else 3",
                   f"{bad} mismatches", bad == 0)


@register("comaximal.diameter_girth", "comaximal", kind="comaximal", needs_k3=NEEDS_K3)
def check_comaximal_diameter_girth(ctx: RunContext, n: int, k: int):
    g = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
    summary = ctx.graph_metrics(g)
    want = (2, 4) if n == 2 else (3, 3)
    got = (summary.diameter, summary.girth)
    return Outcome(f"(diameter, girth) = {want}", f"({_fmt(got[0])}, {_fmt(got[1])})",
                   got == want)


@register("comaximal.triangle_vertex_rule", "comaximal", kind="comaximal", per_mode=True)
def check_comaximal_triangle_vertices(ctx: RunContext, n: int, mode: str, k: int | None):
    space = ctx.space(n)
    g = ctx.graph(n, GraphKind.COMAXIMAL, mode, alphabet=k)
    profile = triangle_profile(g)
    bad = sum(
        1 for i in range(g.n_vertices)
        if profile.vertex_flags[i] != (not is_atom(space, complement(space, g.zero_sets[i])))
    )
    return Outcome("on a triangle iff the cozero set is not an atom",
                   f"{bad} mismatches", bad == 0)


@register("comaximal.hypertriangulated_never", "comaximal", kind="comaximal", per_mode=True)
def check_comaximal_never_hypertriangulated(ctx: RunContext, n: int, mode: str,
                                            k: int | None):
    space = ctx.space(n)
    g = ctx.graph(n, GraphKind.COMAXIMAL, mode, alphabet=k)
    profile = triangle_profile(g)
    ok = not profile.is_hypertriangulated
    witness = None
    for i in range(g.n_vertices):
        j = _indicator_index(g, complement(space, g.zero_sets[i]))
        in_triangle = bool(g.adj[i] & g.adj[j])
        if not g.is_edge(i, j) or in_triangle:
            ok = False
            break
        witness = (g.vertex_label(i), g.vertex_label(j))
    return Outcome("every vertex has an incident edge on no triangle",
                   "confirmed" if ok else "violated", ok, witness=witness)


@register("comaximal.not_triangulated_atomic", "comaximal", kind="comaximal")
def check_comaximal_not_triangulated(ctx: RunContext, n: int, k: int):
    g = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
    profile = triangle_profile(g)
    return Outcome("not triangulated while the space has atoms",
                   "not triangulated" if not profile.is_triangulated else "triangulated",
                   not profile.is_triangulated)


@register("comaximal.complemented_unique", "comaximal", kind="comaximal", per_mode=True)
def check_comaximal_complemented(ctx: RunContext, n: int, mode: str, k: int | None):
    space = ctx.space(n)
    g = ctx.graph(n, GraphKind.COMAXIMAL, mode, alphabet=k)
    profile = complementation_profile(g)
    ok = profile.is_complemented and profile.is_uniquely_complemented
    pairs = set(profile.orthogonal_pairs)
    for i in range(g.n_vertices):
        j = _indicator_index(g, complement(space, g.zero_sets[i]))
        if (min(i, j), max(i, j)) not in pairs:
            ok = False
    return Outcome("uniquely complemented; complement class is an orthogonal partner",
                   "confirmed" if ok else "violated", ok)


@register("comaximal.orthogonality_rule", "comaximal", kind="comaximal")
def check_comaximal_orthogonality(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    g = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
    pairs = set(complementation_profile(g).orthogonal_pairs)
    bad = 0
    for i in range(g.n_vertices):
        for j in range(i + 1, g.n_vertices):
            want = orthogonal_comaximal(space, g.zero_sets[i], g.zero_sets[j])
            if ((i, j) in pairs) != want:
                bad += 1
    return Outcome("orthogonal iff zero sets and cozero sets are both almost disjoint",
                   f"{bad} mismatches", bad == 0)


@register("comaximal.cycle_rank_cases", "comaximal", kind="comaximal", n_min=3, n_max=4,
          needs_k3=NEEDS_K3)
def check_comaximal_cycle_rank(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    g = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
    bad = 0
    total = 0
    for i in range(g.n_vertices):
        for j in range(i + 1, g.n_vertices):
            total += 1
            want = expected_comaximal_cycle(space, g.zero_sets[i], g.zero_sets[j])
            if cycle_rank(g, i, j, ctx.config.max_cycle_len) != want:
                bad += 1
    return Outcome(f"{total} smallest-cycle ranks in {{3,4,6}} per the four-case rule",
                   f"{bad} mismatches", bad == 0)


@register("comaximal.class_stability", "comaximal", kind="comaximal")
def check_comaximal_class_stability(ctx: RunContext, n: int, k: int):
    g = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
    groups: dict = {}
    for i, zs in enumerate(g.zero_sets):
        groups.setdefault(zs, []).append(i)
    classes = list(groups.values())
    ok = all(not g.is_edge(i, j) for members in classes
             for i in members for j in members if i < j)
    for a in range(len(classes)):
        for b in range(a + 1, len(classes)):
            flags = {g.is_edge(i, j) for i in classes[a] for j in classes[b]}
            if len(flags) != 1:
                ok = False
    return Outcome("classes are stable sets; class pairs fully joined or fully apart",
                   "confirmed" if ok else "violated", ok)


@register("comaximal.complete_bipartite_rule", "comaximal", kind="comaximal", per_mode=True)
def check_comaximal_complete_bipartite(ctx: RunContext, n: int, mode: str, k: int | None):
    g = ctx.graph(n, GraphKind.COMAXIMAL, mode, alphabet=k)
    shape = partiteness(g)
    want = n == 2
    return Outcome(f"complete bipartite: {want}", str(shape.is_complete_bipartite),
                   shape.is_complete_bipartite == want)


@register("comaximal.neighborhood_rule", "comaximal", kind="comaximal")
def check_comaximal_neighborhoods(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    g = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
    bad = 0
    for i in range(g.n_vertices):
        for j in range(i + 1, g.n_vertices):
            same = g.adj[i] == g.adj[j]
            want = null_equal(space, g.zero_sets[i], g.zero_sets[j])
            if same != want:
                bad += 1
    return Outcome("equal neighborhoods exactly within one class",
                   f"{bad} mismatches", bad == 0)


@register("comaximal.sampled_triangulated", "comaximal", backend=INTERVAL, kind="comaximal")
def check_comaximal_sampled_triangulated(ctx: RunContext):
    space = ctx.interval_space
    bad = 0
    classes = ctx.interval_classes()
    witness = None
    for zc in classes:
        za, zb = comaximal_triangle_zero_sets(space, zc.zero_set)
        try:
            zclass(space, za), zclass(space, zb)
        except ValueError:
            bad += 1
            continue
        if not (adjacent(GraphKind.COMAXIMAL, space, zc.zero_set, za)
                and adjacent(GraphKind.COMAXIMAL, space, zc.zero_set, zb)
                and adjacent(GraphKind.COMAXIMAL, space, za, zb)):
            bad += 1
        elif witness is None:
            witness = [format_zclass(zc), "Z=" + str(za), "Z=" + str(zb)]
    return Outcome("every sampled vertex sits on a constructed triangle",
                   f"{bad} failures", bad == 0, witness=witness,
                   instance=f"{len(classes)} sampled vertices")


@register("comaximal.sampled_not_hypertriangulated", "comaximal", backend=INTERVAL, kind="comaximal")
def check_comaximal_sampled_not_hyper(ctx: RunContext):
    space = ctx.interval_space
    bad = 0
    classes = ctx.interval_classes()
    for zc in classes:
        partner = complement(space, zc.zero_set)
        edge = adjacent(GraphKind.COMAXIMAL, space, zc.zero_set, partner)
        cozs_meet = not is_null(space, intersect(space,
                                                 complement(space, zc.zero_set),
                                                 complement(space, partner)))
        if not edge or cozs_meet:
            bad += 1
    return Outcome("the edge to the complement class lies on no triangle",
                   f"{bad} failures", bad == 0, instance=f"{len(classes)} sampled vertices")


# ---------------------------------------------------------------------------
# zero_divisor suite
# ---------------------------------------------------------------------------

@register("zero_divisor.adjacency_oracle", "zero_divisor", kind="zero_divisor", n_min=1)
def check_zero_divisor_oracle(ctx: RunContext, n: int, k: int):
    return _oracle_check(ctx, n, k, GraphKind.ZERO_DIVISOR)


@register("zero_divisor.complete_bipartite_rule", "zero_divisor", kind="zero_divisor",
          per_mode=True)
def check_zero_divisor_complete_bipartite(ctx: RunContext, n: int, mode: str, k: int | None):
    g = ctx.graph(n, GraphKind.ZERO_DIVISOR, mode, alphabet=k)
    shape = partiteness(g)
    want = n == 2
    return Outcome(f"complete bipartite: {want}", str(shape.is_complete_bipartite),
                   shape.is_complete_bipartite == want)


@register("zero_divisor.triangle_vertex_rule", "zero_divisor", kind="zero_divisor")
def check_zero_divisor_triangles(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    g = ctx.graph(n, GraphKind.ZERO_DIVISOR, "expanded", alphabet=k)
    profile = triangle_profile(g)
    bad = sum(
        1 for i in range(g.n_vertices)
        if profile.vertex_flags[i] != (not is_atom(space, g.zero_sets[i]))
    )
    return Outcome("on a triangle iff the zero set is not an atom",
                   f"{bad} mismatches", bad == 0)


@register("zero_divisor.eccentricity_formula", "zero_divisor", kind="zero_divisor",
          needs_k3=NEEDS_K3)
def check_zero_divisor_eccentricity(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    g = ctx.graph(n, GraphKind.ZERO_DIVISOR, "expanded", alphabet=k)
    summary = ctx.graph_metrics(g)
    bad = sum(
        1 for i in range(g.n_vertices)
        if summary.eccentricity[i]
        != (2 if is_atom(space, complement(space, g.zero_sets[i])) else 3)
    )
    return Outcome("eccentricity 2 exactly at atomic cozero sets, else 3",
                   f"{bad} mismatches", bad == 0)


@register("zero_divisor.equality_rule_two_atoms", "zero_divisor", kind="zero_divisor")
def check_zero_divisor_equality(ctx: RunContext, n: int, k: int):
    gz = ctx.graph(n, GraphKind.ZERO_DIVISOR, "expanded", alphabet=k)
    gc = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
    ga = ctx.graph(n, GraphKind.ANNIHILATOR, "expanded", alphabet=k)
    equal = gz.adj == gc.adj == ga.adj
    want = n == 2
    return Outcome(f"all three graphs coincide: {want}", str(equal), equal == want)


# ---------------------------------------------------------------------------
# annihilator suite
# ---------------------------------------------------------------------------

@register("annihilator.adjacency_oracle", "annihilator", kind="annihilator", n_min=1)
def check_annihilator_oracle(ctx: RunContext, n: int, k: int):
    return _oracle_check(ctx, n, k, GraphKind.ANNIHILATOR)


@register("annihilator.eccentricity_two", "annihilator", kind="annihilator",
          needs_k3=NEEDS_K3)
def check_annihilator_eccentricity(ctx: RunContext, n: int, k: int):
    g = ctx.graph(n, GraphKind.ANNIHILATOR, "expanded", alphabet=k)
    summary = ctx.graph_metrics(g)
    ok = all(e == 2 for e in summary.eccentricity) and summary.diameter == 2
    return Outcome(
        "every eccentricity 2; diameter 2",
        f"ecc histogram {summary.eccentricity_histogram()}, diameter {_fmt(summary.diameter)}",
        ok)


@register("annihilator.domination_two", "annihilator", kind="annihilator", needs_k3=NEEDS_K3)
def check_annihilator_domination(ctx: RunContext, n: int, k: int):
    g = ctx.graph(n, GraphKind.ANNIHILATOR, "expanded", alphabet=k)
    values = np_metrics(g, ("dominating", "total_dominating"),
                        dominating_bound=ctx.config.dominating_bound)
    dt, dt_wit = values["dominating"]
    dtt, _ = values["total_dominating"]
    return Outcome("dominating number 2 and total dominating number 2",
                   f"dt={_fmt(dt)} dt_t={_fmt(dtt)}", dt == 2 and dtt == 2,
                   witness=[g.vertex_label(i) for i in dt_wit])


@register("annihilator.subgraph_rule", "annihilator", kind="annihilator")
def check_annihilator_subgraphs(ctx: RunContext, n: int, k: int):
    gz = ctx.graph(n, GraphKind.ZERO_DIVISOR, "expanded", alphabet=k)
    gc = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
    ga = ctx.graph(n, GraphKind.ANNIHILATOR, "expanded", alphabet=k)
    contained = all(gz.adj[i] & ~ga.adj[i] == 0 for i in range(gz.n_vertices)) and \
        all(gc.adj[i] & ~ga.adj[i] == 0 for i in range(gc.n_vertices))
    ok = contained
    witness = None
    if n == 2:
        ok = ok and gz.adj == ga.adj and gc.adj == ga.adj
    else:
        first = atom_set([1])
        rest = atom_set(range(2, n))
        f1 = _indicator_index(ga, rest)
        f2 = _indicator_index(ga, first)
        g1 = _indicator_index(ga, complement(ctx.space(n), first))
        g2 = _indicator_index(ga, complement(ctx.space(n), rest))
        strict_comaximal = ga.is_edge(f1, f2) and gc.is_edge(f1, f2) and not gz.is_edge(f1, f2)
        strict_zero = ga.is_edge(g1, g2) and gz.is_edge(g1, g2) and not gc.is_edge(g1, g2)
        ok = ok and strict_comaximal and strict_zero
        witness = {
            "joined_in_annihilator_not_zero_divisor": [ga.vertex_label(f1), ga.vertex_label(f2)],
            "joined_in_annihilator_not_comaximal": [ga.vertex_label(g1), ga.vertex_label(g2)],
        }
    return Outcome("both graphs contained; equality exactly at two atoms",
                   "confirmed" if ok else "violated", ok, witness=witness)


@register("annihilator.complete_bipartite_rule", "annihilator", kind="annihilator")
def check_annihilator_complete_bipartite(ctx: RunContext, n: int, k: int):
    g = ctx.graph(n, GraphKind.ANNIHILATOR, "expanded", alphabet=k)
    shape = partiteness(g)
    want = n == 2
    return Outcome(f"complete bipartite: {want}", str(shape.is_complete_bipartite),
                   shape.is_complete_bipartite == want)


@register("annihilator.complemented_rule", "annihilator", kind="annihilator", per_mode=True)
def check_annihilator_complemented(ctx: RunContext, n: int, mode: str, k: int | None):
    g = ctx.graph(n, GraphKind.ANNIHILATOR, mode, alphabet=k)
    profile = complementation_profile(g)
    want = n in (2, 3)
    ok = profile.is_complemented == want
    if profile.is_complemented:
        ok = ok and profile.is_uniquely_complemented
    return Outcome(
        f"complemented: {want}; unique whenever complemented",
        f"complemented={profile.is_complemented} unique={profile.is_uniquely_complemented}",
        ok)


@register("annihilator.orthogonal_complement_rule", "annihilator", kind="annihilator")
def check_annihilator_orthogonal_complements(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    g = ctx.graph(n, GraphKind.ANNIHILATOR, "expanded", alphabet=k)
    profile = complementation_profile(g)
    bad = sum(
        1 for i in range(g.n_vertices)
        if profile.has_complement[i] != (
            is_atom(space, g.zero_sets[i])
            or is_atom(space, complement(space, g.zero_sets[i])))
    )
    return Outcome("orthogonal partner exists iff zero set or cozero set is an atom",
                   f"{bad} mismatches", bad == 0)


@register("annihilator.orthogonality_rule", "annihilator", kind="annihilator")
def check_annihilator_orthogonality(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    g = ctx.graph(n, GraphKind.ANNIHILATOR, "expanded", alphabet=k)
    pairs = set(complementation_profile(g).orthogonal_pairs)
    bad = 0
    for i in range(g.n_vertices):
        for j in range(i + 1, g.n_vertices):
            want = orthogonal_annihilator(space, g.zero_sets[i], g.zero_sets[j])
            if ((i, j) in pairs) != want:
                bad += 1
    return Outcome("orthogonal iff disjoint zero sets, disjoint cozero sets, one side atomic",
                   f"{bad} mismatches", bad == 0)


@register("annihilator.cycle_rank_cases", "annihilator", kind="annihilator",
          oracle_capped=True, needs_k3=NEEDS_K3)
def check_annihilator_cycle_rank(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    g = ctx.graph(n, GraphKind.ANNIHILATOR, "expanded", alphabet=k)
    bad = 0
    total = 0
    for i in range(g.n_vertices):
        for j in range(i + 1, g.n_vertices):
            total += 1
            orth = orthogonal_annihilator(space, g.zero_sets[i], g.zero_sets[j])
            want = 3 if g.is_edge(i, j) and not orth else 4
            if cycle_rank(g, i, j, ctx.config.max_cycle_len) != want:
                bad += 1
    return Outcome(f"{total} ranks: 3 on non-orthogonal edges, else 4",
                   f"{bad} mismatches", bad == 0)


@register("annihilator.girth_rule", "annihilator", kind="annihilator")
def check_annihilator_girth(ctx: RunContext, n: int, k: int):
    summary = ctx.graph_metrics(ctx.graph(n, GraphKind.ANNIHILATOR, "expanded", alphabet=k))
    want = 4 if n == 2 else 3
    return Outcome(f"girth {want}", _fmt(summary.girth), summary.girth == want)


@register("annihilator.edge_triangle_rule", "annihilator", kind="annihilator")
def check_annihilator_edge_triangles(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    g = ctx.graph(n, GraphKind.ANNIHILATOR, "expanded", alphabet=k)
    profile = triangle_profile(g)
    bad = sum(
        1 for (i, j), flag in profile.edge_flags
        if flag == orthogonal_annihilator(space, g.zero_sets[i], g.zero_sets[j])
    )
    ok = bad == 0 and not profile.is_hypertriangulated
    return Outcome("edge on a triangle iff not orthogonal; not hypertriangulated over atoms",
                   f"{bad} mismatches, hypertriangulated={profile.is_hypertriangulated}", ok)


@register("annihilator.iso_comaximal_rule", "annihilator", kind="annihilator",
          oracle_capped=True, needs_k3=NEEDS_K3)
def check_annihilator_iso(ctx: RunContext, n: int, k: int):
    ga = ctx.graph(n, GraphKind.ANNIHILATOR, "expanded", alphabet=k)
    gc = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
    verdict = are_isomorphic(ga, gc, budget=ctx.config.iso_budget)
    want = n == 2
    ok = verdict.is_isomorphic == want
    if n == 3 and verdict.outcome == NOT_ISOMORPHIC:
        ok = ok and verdict.certificate["kind"] == "eccentricity-class-count"
    return Outcome(
        f"isomorphic to the comaximal graph: {want}",
        f"{verdict.outcome} ({verdict.certificate['kind'] if verdict.certificate else 'mapping'})",
        ok, witness=verdict.certificate)


@register("annihilator.sampled_hypertriangulated", "annihilator", backend=INTERVAL, kind="annihilator")
def check_annihilator_sampled_hyper(ctx: RunContext):
    space = ctx.interval_space
    classes = ctx.interval_classes()
    target = ctx.config.sample_count
    bad = 0
    found = 0
    witness = None
    for a in range(len(classes)):
        for b in range(a + 1, len(classes)):
            if found >= target:
                break
            zu, zv = classes[a].zero_set, classes[b].zero_set
            if not adjacent(GraphKind.ANNIHILATOR, space, zu, zv):
                continue
            found += 1
            zh = annihilator_common_neighbor_zero_set(space, zu, zv)
            if zh is None:
                bad += 1
                continue
            try:
                zclass(space, zh)
            except ValueError:
                bad += 1
                continue
            if not (adjacent(GraphKind.ANNIHILATOR, space, zu, zh)
                    and adjacent(GraphKind.ANNIHILATOR, space, zv, zh)):
                bad += 1
            elif witness is None:
                witness = ["Z=" + str(zu), "Z=" + str(zv), "Z=" + str(zh)]
        if found >= target:
            break
    ok = bad == 0 and found >= target
    return Outcome(f"{target} sampled edges each on a constructed triangle",
                   f"{found} edges, {bad} failures", ok, witness=witness,
                   instance=f"{found} sampled edges")


# ---------------------------------------------------------------------------
# weakly_zd suite
# ---------------------------------------------------------------------------

@register("weakly_zd.adjacency_oracle", "weakly_zd", kind="weakly_zd", n_min=1)
def check_weakly_oracle(ctx: RunContext, n: int, k: int):
    return _oracle_check(ctx, n, k, GraphKind.WEAKLY_ZD)


@register("weakly_zd.trichotomy_oracle", "weakly_zd", kind="weakly_zd", oracle_capped=True,
          label="n={n} k={k} over all zero-divisors")
def check_weakly_trichotomy(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    divisors = enumerate_functions(space, k)
    bad = 0
    total = 0
    for i, f in enumerate(divisors):
        for j in range(i, len(divisors)):
            g = divisors[j]
            total += 1
            brute = oracle_adjacent(GraphKind.WEAKLY_ZD, space, k, f, g)
            want = weakly_adjacent_all(space, f.zero_set(), g.zero_set(),
                                       same_vertex=(i == j))
            if brute != want:
                bad += 1
    return Outcome(f"{total} pairs (self-pairs included) follow the three-case rule",
                   f"{bad} mismatches", bad == 0)


@register("weakly_zd.self_adjacency_rule", "weakly_zd", kind="weakly_zd", oracle_capped=True,
          label="n={n} k={k}")
def check_weakly_self_adjacency(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    bad = 0
    for f in enumerate_functions(space, k):
        brute = oracle_adjacent(GraphKind.WEAKLY_ZD, space, k, f, f)
        if brute != (not is_atom(space, f.zero_set())):
            bad += 1
    return Outcome("self-adjacent iff the zero set is not an atom", f"{bad} mismatches",
                   bad == 0)


@register("weakly_zd.complete_multipartite_rule", "weakly_zd", kind="weakly_zd",
          label="n={n} k={k}")
def check_weakly_multipartite(ctx: RunContext, n: int, k: int):
    g = ctx.graph(n, GraphKind.WEAKLY_ZD, "expanded", alphabet=k)
    shape = partiteness(g)
    size = (k - 1) ** (n - 1)
    ok = (shape.multipartite_parts is not None
          and len(shape.multipartite_parts) == n
          and all(len(p) == size for p in shape.multipartite_parts))
    gq = ctx.graph(n, GraphKind.WEAKLY_ZD, "quotient")
    shape_q = partiteness(gq)
    ok = ok and shape_q.multipartite_parts is not None \
        and len(shape_q.multipartite_parts) == gq.n_vertices == n
    return Outcome(
        f"complete {n}-partite with parts of size {size}; quotient complete on {n} classes",
        "confirmed" if ok else "violated", ok)


@register("weakly_zd.bipartite_rule", "weakly_zd", kind="weakly_zd")
def check_weakly_bipartite(ctx: RunContext, n: int, k: int):
    g = ctx.graph(n, GraphKind.WEAKLY_ZD, "expanded", alphabet=k)
    shape = partiteness(g)
    want = n == 2
    return Outcome(f"bipartite: {want}", str(shape.is_bipartite), shape.is_bipartite == want)


@register("weakly_zd.three_atom_properties", "weakly_zd", kind="weakly_zd", n_min=3)
def check_weakly_three_atoms(ctx: RunContext, n: int, k: int):
    g = ctx.graph(n, GraphKind.WEAKLY_ZD, "expanded", alphabet=k)
    summary = ctx.graph_metrics(g)
    profile = triangle_profile(g)
    comp = complementation_profile(g)
    ok = (profile.is_triangulated and profile.is_hypertriangulated
          and summary.girth == 3 and not comp.orthogonal_pairs
          and not comp.is_complemented)
    return Outcome(
        "triangulated, hypertriangulated, girth 3, no orthogonal pairs, not complemented",
        "confirmed" if ok else "violated", ok)


@register("weakly_zd.parameters", "weakly_zd", kind="weakly_zd", needs_k3=NEEDS_K3,
          label="n={n} k={k}")
def check_weakly_parameters(ctx: RunContext, n: int, k: int):
    g = ctx.graph(n, GraphKind.WEAKLY_ZD, "expanded", alphabet=k)
    gq = ctx.graph(n, GraphKind.WEAKLY_ZD, "quotient")
    values = np_metrics(g, ("clique", "chromatic", "dominating"),
                        clique_bound=ctx.config.clique_bound,
                        chromatic_bound=ctx.config.chromatic_bound,
                        dominating_bound=ctx.config.dominating_bound)
    values_q = np_metrics(gq, ("clique", "chromatic", "dominating"),
                          clique_bound=ctx.config.clique_bound,
                          chromatic_bound=ctx.config.chromatic_bound,
                          dominating_bound=ctx.config.dominating_bound)
    cl, _ = values["clique"]
    ch, _ = values["chromatic"]
    dt, _ = values["dominating"]
    ok = cl == ch == n and dt == 2
    ok = ok and values_q["clique"][0] == values_q["chromatic"][0] == n \
        and values_q["dominating"][0] == 1
    return Outcome(
        f"expanded: clique=chromatic={n}, dominating 2; quotient complete: dominating 1",
        f"clique={cl} chromatic={ch} dominating={dt}", ok,
        note="quotient dominating number recorded separately: single-member classes")


@register("weakly_zd.interval_empty", "weakly_zd", backend=INTERVAL, kind="weakly_zd")
def check_weakly_interval_empty(ctx: RunContext):
    from .graph_build import build_graph

    g = build_graph(ctx.interval_space, GraphKind.WEAKLY_ZD, sample=ctx.interval_classes())
    return Outcome("empty vertex set (no atomic zero sets exist)", f"{g.n_vertices} vertices",
                   g.n_vertices == 0, instance=f"{len(ctx.interval_classes())} sampled classes")


# ---------------------------------------------------------------------------
# quotient suite
# ---------------------------------------------------------------------------

@register("quotient.complement_isomorphism", "quotient", label="n={n} quotient")
def check_quotient_complement_iso(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    verdict = canonical_complement_iso(space)
    mapping = verdict.mapping
    involution = all(mapping[mapping[i]] == i for i in range(len(mapping)))
    g1 = ctx.graph(n, GraphKind.ZERO_DIVISOR, "quotient")
    g2 = ctx.graph(n, GraphKind.COMAXIMAL, "quotient")
    ok = verdict.is_isomorphic and involution and verify_mapping(g1, g2, mapping)
    return Outcome("complement map is a verified isomorphism and an involution",
                   "confirmed" if ok else "violated", ok)


@register("quotient.k2_rule", "quotient", label="n={n} quotient")
def check_quotient_k2(ctx: RunContext, n: int, k: int):
    g = ctx.graph(n, GraphKind.COMAXIMAL, "quotient")
    is_k2 = g.n_vertices == 2 and g.n_edges() == 1
    want = n == 2
    return Outcome(f"two mutually joined classes: {want}", str(is_k2), is_k2 == want)


@register("quotient.clique_chromatic_transfer", "quotient", oracle_capped=True,
          label="n={n} k={k}", skip_label="n={n}")
def check_quotient_clique_chromatic(ctx: RunContext, n: int, k: int):
    gq = ctx.graph(n, GraphKind.COMAXIMAL, "quotient")
    ge = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
    vq = np_metrics(gq, ("clique", "chromatic"),
                    clique_bound=ctx.config.clique_bound,
                    chromatic_bound=ctx.config.chromatic_bound)
    ve = np_metrics(ge, ("clique", "chromatic"),
                    clique_bound=ctx.config.clique_bound,
                    chromatic_bound=ctx.config.chromatic_bound)
    ok = vq["clique"][0] == ve["clique"][0] and vq["chromatic"][0] == ve["chromatic"][0]
    return Outcome("clique and chromatic numbers transfer to the quotient",
                   f"quotient ({vq['clique'][0]}, {vq['chromatic'][0]}) vs "
                   f"expanded ({ve['clique'][0]}, {ve['chromatic'][0]})", ok)


@register("quotient.domination_transfer", "quotient", oracle_capped=True,
          label="n={n} k={k}", skip_label="n={n}")
def check_quotient_domination(ctx: RunContext, n: int, k: int):
    gq = ctx.graph(n, GraphKind.COMAXIMAL, "quotient")
    ge = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
    vq = np_metrics(gq, ("dominating", "total_dominating"),
                    dominating_bound=ctx.config.dominating_bound)
    ve = np_metrics(ge, ("dominating", "total_dominating"),
                    dominating_bound=ctx.config.dominating_bound)
    ok = vq["dominating"][0] <= ve["dominating"][0] \
        and vq["total_dominating"][0] == ve["total_dominating"][0]
    return Outcome("quotient dominating number bounded by expanded; total equal",
                   f"dt {vq['dominating'][0]} <= {ve['dominating'][0]}; "
                   f"dt_t {vq['total_dominating'][0]} == {ve['total_dominating'][0]}", ok)


@register("quotient.counting_parameters", "quotient", label="n={n} quotient",
          skip_label="n={n}")
def check_quotient_counting_parameters(ctx: RunContext, n: int, k: int):
    gq = ctx.graph(n, GraphKind.COMAXIMAL, "quotient")
    values = np_metrics(gq, ("clique", "chromatic"),
                        clique_bound=ctx.config.clique_bound,
                        chromatic_bound=ctx.config.chromatic_bound)
    cl, ch = values["clique"][0], values["chromatic"][0]
    return Outcome(f"clique = chromatic = {n}", f"clique={cl} chromatic={ch}",
                   cl == n and ch == n)


@register("quotient.weak_perfectness", "quotient", oracle_capped=True,
          label="n={n} k={k}", skip_label="n={n}")
def check_quotient_weak_perfectness(ctx: RunContext, n: int, k: int):
    ok = True
    for mode, alpha in (("quotient", None), ("expanded", k)):
        g = ctx.graph(n, GraphKind.COMAXIMAL, mode, alphabet=alpha)
        values = np_metrics(g, ("clique", "chromatic"),
                            clique_bound=ctx.config.clique_bound,
                            chromatic_bound=ctx.config.chromatic_bound)
        if values["clique"][0] != values["chromatic"][0]:
            ok = False
    return Outcome("clique number equals chromatic number in both modes",
                   "equal" if ok else "differ", ok)


@register("quotient.class_partition", "quotient", label="n={n} k={k}")
def check_quotient_class_partition(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    functions = enumerate_functions(space, k)
    by_class: dict = {}
    for f in functions:
        by_class.setdefault(f.zero_set(), []).append(f)
    classes = enumerate_zclasses(space)
    ok = set(by_class) == {zc.zero_set for zc in classes}
    for zc in classes:
        if len(by_class.get(zc.zero_set, [])) != class_size(space, zc, k):
            ok = False
    total = k ** n - (k - 1) ** n - 1
    ok = ok and len(functions) == total
    return Outcome(f"functions partition into {len(classes)} classes, sizes (k-1)^|cozero|, "
                   f"total {total}",
                   "confirmed" if ok else "violated", ok)


# ---------------------------------------------------------------------------
# iso suite
# ---------------------------------------------------------------------------

@register("iso.expanded_complement_dichotomy", "iso", alphabets=(2,))
def check_iso_dichotomy(ctx: RunContext, n: int, k: int):
    if n > ctx.config.oracle_atoms_max and k > 2:
        raise BoundExceededError(f"expanded graphs beyond {ctx.config.oracle_atoms_max} atoms")
    space = ctx.space(n)
    verdict = class_size_iso(space, k, budget=ctx.config.iso_budget)
    want = k == 2 or n == 2
    ok = verdict.is_isomorphic == want
    if verdict.is_isomorphic:
        g1 = ctx.graph(n, GraphKind.ZERO_DIVISOR, "expanded", alphabet=k)
        g2 = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
        ok = ok and verify_mapping(g1, g2, verdict.mapping)
    elif verdict.certificate is not None and verdict.certificate["kind"] == "eccentricity-class-count":
        left = ctx.graph_metrics(
            ctx.graph(n, GraphKind.ZERO_DIVISOR, "expanded", alphabet=k)).eccentricity_histogram()
        right = ctx.graph_metrics(
            ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)).eccentricity_histogram()
        recount = {str(key): value for key, value in sorted(left.items())}
        recount_r = {str(key): value for key, value in sorted(right.items())}
        ok = ok and verdict.certificate["left"] == recount \
            and verdict.certificate["right"] == recount_r
    return Outcome(f"isomorphic: {want}", verdict.outcome, ok, witness=verdict.certificate)


@register("iso.self_identity", "iso", n_max=3, oracle_capped=True)
def check_iso_self_identity(ctx: RunContext, n: int, k: int):
    g = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
    verdict = are_isomorphic(g, g, budget=ctx.config.iso_budget)
    return Outcome("isomorphic to itself", verdict.outcome, verdict.is_isomorphic)


@register("iso.sampled_complement_probe", "iso", backend=INTERVAL)
def check_iso_sampled_probe(ctx: RunContext):
    from .graph_build import build_graph

    space = ctx.interval_space
    base = ctx.interval_classes()[: max(10, ctx.config.sample_count // 4)]
    closed: list[ZClass] = []
    seen = set()
    for zc in base:
        for zs in (zc.zero_set, complement(space, zc.zero_set)):
            if zs not in seen:
                seen.add(zs)
                closed.append(ZClass(zs))
    g1 = build_graph(space, GraphKind.ZERO_DIVISOR, sample=closed)
    g2 = build_graph(space, GraphKind.COMAXIMAL, sample=closed)
    index = {zs: i for i, zs in enumerate(g2.zero_sets)}
    mapping = tuple(index[complement(space, zs)] for zs in g1.zero_sets)
    ok = verify_mapping(g1, g2, mapping)
    return Outcome("complement map is an isomorphism of the sampled subgraphs",
                   "verified" if ok else "failed", ok,
                   note="sampled evidence only; the exhaustive statement is out of reach",
                   instance=f"{len(closed)} complement-closed sampled classes")
