"""Executable checks behind the verification suites.

Each check replays one structural fact about the graphs at desk scale:
closed-form adjacency against definition-level oracles, metric formulas
against breadth-first search, parameter identities against exact solvers,
and constructive witnesses on the sampled interval backend.  Each check
declares its domain in its ``register`` call and returns one
:class:`~mrfgraph.harness.Outcome` per instance; the harness walks the
domain and labels the report entries.  A rule that compares one reading of
a graph with a closed form on zero sets is a row (``_mismatch_row``,
``_value_row``) that states only what it compares.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import islice

from .graph_build import (
    GraphKind,
    _members,
    adjacent,
    build_graph,
    check_oracle_bounds,
    oracle_mismatches,
    oracle_row,
    weakly_adjacent_all,
    zero_set_classes,
)
from .graph_metrics import (
    BoundExceededError,
    annihilator_common_neighbor_zero_set,
    comaximal_triangle_zero_sets,
    cycle_rank,
    metrics,
    np_metrics,
    partiteness,
    triangle_profile,
)
from .harness import INTERVAL, Outcome, RunContext, make_weights, register
from .isomorphism import INCONCLUSIVE, NOT_ISOMORPHIC, are_isomorphic, complement_iso, verify_mapping
from .measure_space import (
    ATOMIC,
    AtomicSpace,
    MeasurableSet,
    atom_set,
    complement,
    covers,
    is_atom,
    is_disjoint,
    is_null,
    is_subset,
    measure,
    null_equal,
    split_at_measure,
    split_nonatom,
    union,
)
from .vertex_universe import UNIT_INTERVAL, ZClass, ann_leq, class_size, enumerate_zclasses, zclass

NEEDS_K3 = "needs alphabet >= 3"


# ---------------------------------------------------------------------------
# expected-value formulas on atom masks (``full`` is X; ``z``, ``a``, ``b``
# zero sets): weights are positive, so a set is null iff its mask is 0
# ---------------------------------------------------------------------------

def expected_comaximal_distance(full: int, a: int, b: int) -> int:
    return 1 if not a & b else 2 if full & ~(a | b) else 3


def expected_comaximal_cycle(full: int, a: int, b: int) -> int:
    """Valid when the space is not a union of two atoms (n >= 3)."""
    meet, cozero_meet = bool(a & b), bool(full & ~(a | b))
    return 4 if meet == cozero_meet else 3 if cozero_meet else 6


def orthogonal_comaximal(full: int, a: int, b: int) -> bool:
    return not a & b and a | b == full


def orthogonal_annihilator(full: int, a: int, b: int) -> bool:
    return orthogonal_comaximal(full, a, b) and 1 in (a.bit_count(), b.bit_count())


def expected_annihilator_cycle(full: int, a: int, b: int) -> int:
    """Valid when the graph has a triangle (alphabet >= 3)."""
    return 3 if a & ~b and b & ~a and not orthogonal_annihilator(full, a, b) else 4


def _cell_pairs(g):
    """One representative vertex pair (i, j), i < j, per unordered pair of
    cells of the common refinement of zero-set and twin classes, their
    zero-set masks a and b, and the number of vertex pairs it stands for:
    the first members of two cells A and B stand for |A|·|B| pairs, the
    first two of one cell for C(|A|, 2).  Atomic graphs only."""
    cells = zero_set_classes((z.mask, t) for z, t in zip(g.zero_sets, g.twins.of))
    for x, ((a, _), cell) in enumerate(zip(cells.zero_sets, cells.members)):
        if len(cell) > 1:
            yield cell[0], cell[1], a, a, len(cell) * (len(cell) - 1) // 2
        for (b, _), other in zip(cells.zero_sets[x + 1:], cells.members[x + 1:]):
            yield cell[0], other[0], a, b, len(cell) * len(other)


def _pair_mismatches(g, want, got) -> int:
    """Vertex pairs i < j where ``got(i, j)`` differs from ``want(full, a, b)``
    on their zero sets, compared once per cell pair (``_cell_pairs``).  This
    counts every vertex pair only because ``want`` is symmetric and ``got``
    is invariant under swapping false twins (an automorphism), so both are
    constant on a cell pair; every ``got`` in use is: distance, the
    class-level orthogonality flag, row equality, ``cycle_rank`` and edge
    flags.  A ``got`` that reads vertex indices in any other way would be
    compared on the representatives only."""
    full = (1 << g.space.n_atoms) - 1
    return sum(w for i, j, a, b, w in _cell_pairs(g) if got(i, j) != want(full, a, b))


def _vertex_mismatches(g, want, got) -> int:
    """Vertices i where ``got[i]`` differs from ``want(full, z)`` on their
    zero set, evaluating ``want`` once per zero-set class."""
    full = (1 << g.space.n_atoms) - 1
    expected = [want(full, z.mask) for z in g.classes.zero_sets]
    return sum(1 for i, c in enumerate(g.classes.of) if got[i] != expected[c])


def _row_graph(ctx: RunContext, check_id: str, n: int, mode_k: tuple):
    """The graph of the kind the id's suite names: a per-mode row's own
    ``(mode, k)``, any other row's expanded graph at ``(k,)``."""
    mode, k = mode_k if len(mode_k) == 2 else ("expanded", *mode_k)
    return ctx.graph(n, GraphKind(check_id.partition(".")[0]), mode, alphabet=k)


def _mismatch_row(check_id: str, compare, expected: str, want, got, **domain) -> None:
    """Register a rule read per vertex (``compare=_vertex_mismatches``) or
    per vertex pair (``_pair_mismatches``): ``got(ctx, g)`` is the graph's
    side, ``want(full, z)`` or ``want(full, a, b)`` the closed form on atom
    masks.  ``expected`` may name ``{total}``, the vertex-pair count."""
    def check(ctx: RunContext, n: int, *mode_k) -> Outcome:
        g = _row_graph(ctx, check_id, n, mode_k)
        bad = compare(g, want, got(ctx, g))
        return Outcome(expected.format(total=g.n_vertices * (g.n_vertices - 1) // 2),
                       f"{bad} mismatches", bad == 0)
    register(check_id, **domain)(check)


def _value_row(check_id: str, expected: str, want, got, **domain) -> None:
    """Register a rule comparing one invariant ``got(g)`` of the graph with
    ``want(n)``; ``expected`` formats ``want(n)``."""
    def check(ctx: RunContext, n: int, *mode_k) -> Outcome:
        value = got(_row_graph(ctx, check_id, n, mode_k))
        return Outcome(expected.format(want(n)), value, value == want(n))
    register(check_id, **domain)(check)


def _cycle_ranks(ctx: RunContext, g, need: int):
    """Smallest-cycle ranks within the run's cap, which must reach ``need``,
    the largest rank the rule predicts: a lower cap skips the instance."""
    cap = ctx.config.max_cycle_len
    if cap < need:
        raise BoundExceededError(f"the rule needs cycle ranks up to {need}; max_cycle_len is {cap}")
    return partial(cycle_rank, g, max_len=cap)


def _solve(ctx: RunContext, g, *which: str) -> dict:
    """Exact parameters of ``g`` within the run's solver bounds."""
    c = ctx.config
    return np_metrics(g, which, clique_bound=c.clique_bound,
                      chromatic_bound=c.chromatic_bound, dominating_bound=c.dominating_bound)


def _iso_verdict(ctx: RunContext, search, g1, g2):
    """``search(g1, g2)`` within the run's node budget; an inconclusive
    verdict is neither answer, so it skips the instance."""
    verdict = search(g1, g2, budget=ctx.config.iso_budget)
    if verdict.outcome == INCONCLUSIVE:
        raise BoundExceededError(f"isomorphism search inconclusive within budget "
                                 f"{ctx.config.iso_budget} nodes")
    return verdict


def _first_member(g, zero_set) -> int:
    """First vertex of the class with the given zero set."""
    return g.classes.members[g.classes.index[zero_set]][0]


def _complement_firsts(g) -> list[int]:
    """Per zero-set class, the first vertex of its complement's class."""
    return [_first_member(g, complement(g.space, z)) for z in g.classes.zero_sets]


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
    check_oracle_bounds(space, k)
    g = ctx.graph(n, kind, "expanded", alphabet=k)
    mismatches = [(g.vertex_label(i), g.vertex_label(j), g.is_edge(i, j), not g.is_edge(i, j))
                  for i, j in oracle_mismatches(kind, space, k, g.vertices, g.adj)]
    total = g.n_vertices * (g.n_vertices - 1) // 2
    return Outcome(f"{total}/{total} pairs agree", f"{total - len(mismatches)}/{total} pairs agree",
                   not mismatches, witness=mismatches[:5] or None)


# ---------------------------------------------------------------------------
# measure_core suite
# ---------------------------------------------------------------------------

@register("measure_core.zero_divisor_existence", n_min=1, label="n={n}")
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


@register("measure_core.atom_dichotomy", n_min=1, label="n={n}")
def check_atom_dichotomy(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    bad = 0
    total = 0
    for a in range(n):
        atom = atom_set([a])
        for mask in range(1 << n):
            b = MeasurableSet(ATOMIC, mask=mask)
            total += 1
            if not (is_disjoint(space, atom, b) or is_subset(space, atom, b)):
                bad += 1
    return Outcome("every (atom, set) pair splits trivially", f"{bad} violations of {total}",
                   bad == 0)


@register("measure_core.two_atom_partition", n_max=2, label="n={n}")
def check_two_atom_partition(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    first, second = atom_set([0]), atom_set([1])
    ok = all(
        null_equal(space, zc.zero_set, first) or null_equal(space, zc.zero_set, second)
        for zc in enumerate_zclasses(space)
    )
    return Outcome("every class matches one of the two atoms",
                   "all classes matched" if ok else "stray class found", ok)


@register("measure_core.ann_preorder", label="n={n}")
def check_ann_preorder(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    zsets = [zc.zero_set for zc in enumerate_zclasses(space)]
    # up[a]: bit b set when ann(zsets[a]) <= ann(zsets[b]); the laws are
    # tested row by row, each row against the rows it reaches
    up = [sum(1 << b for b, y in enumerate(zsets) if ann_leq(space, x, y)) for x in zsets]
    ok = all(row >> a & 1
             and all(null_equal(space, x, y) == bool(row >> b & up[b] >> a & 1)
                     for b, y in enumerate(zsets))
             and not any(up[b] & ~row for b in _members(row))
             for a, (x, row) in enumerate(zip(zsets, up)))
    return Outcome("reflexive + transitive containment; equality iff null-equal zero sets",
                   "laws hold" if ok else "law violated", ok)


def _same_graph(g, h) -> bool:
    return g.adj == h.adj and g.zero_sets == h.zero_sets


@register("measure_core.weight_independence", label="n={n}")
def check_weight_independence(ctx: RunContext, n: int, k: int):
    # each of the run's graphs against one built here under the other policy,
    # never cached: a comparison graph is dropped before the next is built.
    # A graph over the vertex guard is over it under both policies; the note
    # names it.
    other = "random-positive" if ctx.config.weights == "unit" else "unit"
    space = AtomicSpace(make_weights(n, other, ctx.config.seed))
    ok, over = True, []
    for kind in GraphKind:
        for mode, alpha in (("quotient", None), ("expanded", k)):
            try:
                g = ctx.graph(n, kind, mode, alphabet=alpha)
            except BoundExceededError as exc:
                over.append((f"{kind.value}_{mode}_n{n}" + (f"_k{alpha}" if alpha else ""), exc))
                continue
            ok = _same_graph(g, build_graph(space, kind, mode, alphabet=alpha)) and ok
    if len(over) == 2 * len(GraphKind):
        raise over[0][1]
    return Outcome("identical graphs under unit and random positive weights",
                   "identical" if ok else "graphs differ", ok,
                   note="; ".join(f"{name} not compared: {exc}" for name, exc in over))


@register("measure_core.split_prefix_exact", backend=INTERVAL)
def check_split_prefix_exact(ctx: RunContext):
    space = UNIT_INTERVAL
    classes = ctx.interval_classes()
    cases = 2 * len(classes)
    rng = random.Random(f"split:{ctx.config.seed}")
    bad = 0
    for zc in classes:
        for candidate in (zc.zero_set, complement(space, zc.zero_set)):
            r = measure(space, candidate) * Fraction(rng.randrange(0, 101), 100)
            part = split_at_measure(space, candidate, r)
            if measure(space, part) != r or not is_subset(space, part, candidate):
                bad += 1
    return Outcome("every prefix subset has the exact target measure", f"{bad} failures",
                   bad == 0, instance=f"{cases} random (set, target) cases")


@register("measure_core.sampled_no_atoms", backend=INTERVAL)
def check_sampled_no_atoms(ctx: RunContext):
    space = UNIT_INTERVAL
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
                    or not is_disjoint(space, left, right)):
                bad += 1
    return Outcome("no atoms; every set splits into two positive-measure parts",
                   f"{bad} failures", bad == 0,
                   instance=f"{checked} sampled positive-measure sets")


# ---------------------------------------------------------------------------
# comaximal suite
# ---------------------------------------------------------------------------

register("comaximal.adjacency_oracle", n_min=1)(partial(_oracle_check, kind=GraphKind.COMAXIMAL))


@register("comaximal.unit_witness", oracle_capped=True)
def check_comaximal_unit_witness(ctx: RunContext, n: int, k: int):
    g = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
    # the oracle's comaximal rows, whose sum-of-squares test is this witness;
    # they read only the a.e. memo, never the k^n candidates, so this check
    # keeps running past the oracle's alphabet bound
    bad = len(oracle_mismatches(GraphKind.COMAXIMAL, ctx.space(n), k, g.vertices, g.adj))
    return Outcome("sum of squares is a unit up to null sets exactly on edges",
                   f"{bad} mismatches", bad == 0)


_mismatch_row("comaximal.distance_formula", _pair_mismatches,
              "{total} pairwise distances follow the three-case rule",
              expected_comaximal_distance, lambda ctx, g: metrics(g).distance,
              per_mode=True)


_mismatch_row("comaximal.eccentricity_formula", _vertex_mismatches,
              "eccentricity 2 exactly at atomic zero sets, else 3",
              lambda full, z: 2 if z.bit_count() == 1 else 3,
              lambda ctx, g: metrics(g).eccentricity,
              needs_k3="eccentricity formula needs classes of size >= 2 (alphabet >= 3)")


_value_row("comaximal.diameter_girth", "(diameter, girth) = {}",
           lambda n: (2, 4) if n == 2 else (3, 3),
           lambda g: (metrics(g).diameter, metrics(g).girth),
           needs_k3=NEEDS_K3)


_mismatch_row("comaximal.triangle_vertex_rule", _vertex_mismatches,
              "on a triangle iff the cozero set is not an atom",
              lambda full, z: (full ^ z).bit_count() != 1,
              lambda ctx, g: triangle_profile(g).vertex_flags, per_mode=True)


@register("comaximal.hypertriangulated_never", per_mode=True)
def check_comaximal_never_hypertriangulated(ctx: RunContext, n: int, mode: str,
                                            k: int | None):
    g = ctx.graph(n, GraphKind.COMAXIMAL, mode, alphabet=k)
    profile = triangle_profile(g)
    ok = not profile.is_hypertriangulated
    witness = None
    partner, of = _complement_firsts(g), g.classes.of
    for i in range(g.n_vertices):
        j = partner[of[i]]
        in_triangle = bool(g.adj[i] & g.adj[j])
        if not g.is_edge(i, j) or in_triangle:
            ok = False
            break
        witness = (g.vertex_label(i), g.vertex_label(j))
    return Outcome("every vertex has an incident edge on no triangle",
                   "confirmed" if ok else "violated", ok, witness=witness)


@register("comaximal.not_triangulated_atomic")
def check_comaximal_not_triangulated(ctx: RunContext, n: int, k: int):
    g = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
    profile = triangle_profile(g)
    return Outcome("not triangulated while the space has atoms",
                   "not triangulated" if not profile.is_triangulated else "triangulated",
                   not profile.is_triangulated)


@register("comaximal.complemented_unique", per_mode=True)
def check_comaximal_complemented(ctx: RunContext, n: int, mode: str, k: int | None):
    g = ctx.graph(n, GraphKind.COMAXIMAL, mode, alphabet=k)
    profile = triangle_profile(g)
    partner, of = _complement_firsts(g), g.classes.of
    ok = (profile.is_complemented and profile.is_uniquely_complemented
          and all(profile.is_orthogonal(i, partner[of[i]]) for i in range(g.n_vertices)))
    return Outcome("uniquely complemented; complement class is an orthogonal partner",
                   "confirmed" if ok else "violated", ok)


_mismatch_row("comaximal.orthogonality_rule", _pair_mismatches,
              "orthogonal iff zero sets and cozero sets are both almost disjoint",
              orthogonal_comaximal, lambda ctx, g: triangle_profile(g).is_orthogonal)


_mismatch_row("comaximal.cycle_rank_cases", _pair_mismatches,
              "{total} smallest-cycle ranks in {{3,4,6}} per the four-case rule",
              expected_comaximal_cycle, partial(_cycle_ranks, need=6),
              n_min=3, n_max=4, needs_k3=NEEDS_K3)


@register("comaximal.class_stability")
def check_comaximal_class_stability(ctx: RunContext, n: int, k: int):
    g = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
    # each class inside one twin class: no row holds its own bit, so equal
    # rows make a class stable and every class pair fully joined or apart
    ok = len(set(zip(g.classes.of, g.twins.of))) == len(g.classes.members)
    return Outcome("classes are stable sets; class pairs fully joined or fully apart",
                   "confirmed" if ok else "violated", ok)


_value_row("comaximal.complete_bipartite_rule", "complete bipartite: {}",
           lambda n: n == 2, lambda g: partiteness(g).is_complete_bipartite, per_mode=True)


_mismatch_row("comaximal.neighborhood_rule", _pair_mismatches,
              "equal neighborhoods exactly within one class",
              lambda full, a, b: a == b, lambda ctx, g: lambda i, j: g.adj[i] == g.adj[j])


@register("comaximal.sampled_triangulated", backend=INTERVAL)
def check_comaximal_sampled_triangulated(ctx: RunContext):
    space = UNIT_INTERVAL
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
            witness = [zc.label, "Z=" + str(za), "Z=" + str(zb)]
    return Outcome("every sampled vertex sits on a constructed triangle",
                   f"{bad} failures", bad == 0, witness=witness,
                   instance=f"{len(classes)} sampled vertices")


@register("comaximal.sampled_not_hypertriangulated", backend=INTERVAL)
def check_comaximal_sampled_not_hyper(ctx: RunContext):
    space = UNIT_INTERVAL
    bad = 0
    classes = ctx.interval_classes()
    for zc in classes:
        partner = complement(space, zc.zero_set)
        edge = adjacent(GraphKind.COMAXIMAL, space, zc.zero_set, partner)
        if not edge or not covers(space, zc.zero_set, partner):
            bad += 1
    return Outcome("the edge to the complement class lies on no triangle",
                   f"{bad} failures", bad == 0, instance=f"{len(classes)} sampled vertices")


# ---------------------------------------------------------------------------
# zero_divisor suite
# ---------------------------------------------------------------------------

register("zero_divisor.adjacency_oracle", n_min=1)(
    partial(_oracle_check, kind=GraphKind.ZERO_DIVISOR))


_value_row("zero_divisor.complete_bipartite_rule", "complete bipartite: {}",
           lambda n: n == 2, lambda g: partiteness(g).is_complete_bipartite, per_mode=True)


_mismatch_row("zero_divisor.triangle_vertex_rule", _vertex_mismatches,
              "on a triangle iff the zero set is not an atom",
              lambda full, z: z.bit_count() != 1,
              lambda ctx, g: triangle_profile(g).vertex_flags)


_mismatch_row("zero_divisor.eccentricity_formula", _vertex_mismatches,
              "eccentricity 2 exactly at atomic cozero sets, else 3",
              lambda full, z: 2 if (full ^ z).bit_count() == 1 else 3,
              lambda ctx, g: metrics(g).eccentricity, needs_k3=NEEDS_K3)


@register("zero_divisor.equality_rule_two_atoms")
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

register("annihilator.adjacency_oracle", n_min=1)(
    partial(_oracle_check, kind=GraphKind.ANNIHILATOR))


@register("annihilator.eccentricity_two", needs_k3=NEEDS_K3)
def check_annihilator_eccentricity(ctx: RunContext, n: int, k: int):
    g = ctx.graph(n, GraphKind.ANNIHILATOR, "expanded", alphabet=k)
    summary = metrics(g)
    ok = all(e == 2 for e in summary.eccentricity) and summary.diameter == 2
    return Outcome(
        "every eccentricity 2; diameter 2",
        f"ecc histogram {summary.eccentricity_histogram()}, diameter {summary.diameter}",
        ok)


@register("annihilator.domination_two", needs_k3=NEEDS_K3)
def check_annihilator_domination(ctx: RunContext, n: int, k: int):
    g = ctx.graph(n, GraphKind.ANNIHILATOR, "expanded", alphabet=k)
    values = _solve(ctx, g, "dominating", "total_dominating")
    dt, dt_wit = values["dominating"]
    dtt, _ = values["total_dominating"]
    return Outcome("dominating number 2 and total dominating number 2",
                   f"dt={dt} dt_t={dtt}", dt == 2 and dtt == 2,
                   witness=[g.vertex_label(i) for i in dt_wit])


@register("annihilator.subgraph_rule")
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
        f1 = _first_member(ga, rest)
        f2 = _first_member(ga, first)
        g1 = _first_member(ga, complement(ctx.space(n), first))
        g2 = _first_member(ga, complement(ctx.space(n), rest))
        strict_comaximal = ga.is_edge(f1, f2) and gc.is_edge(f1, f2) and not gz.is_edge(f1, f2)
        strict_zero = ga.is_edge(g1, g2) and gz.is_edge(g1, g2) and not gc.is_edge(g1, g2)
        ok = ok and strict_comaximal and strict_zero
        witness = {
            "joined_in_annihilator_not_zero_divisor": [ga.vertex_label(f1), ga.vertex_label(f2)],
            "joined_in_annihilator_not_comaximal": [ga.vertex_label(g1), ga.vertex_label(g2)],
        }
    return Outcome("both graphs contained; equality exactly at two atoms",
                   "confirmed" if ok else "violated", ok, witness=witness)


_value_row("annihilator.complete_bipartite_rule", "complete bipartite: {}",
           lambda n: n == 2, lambda g: partiteness(g).is_complete_bipartite)


@register("annihilator.complemented_rule", per_mode=True)
def check_annihilator_complemented(ctx: RunContext, n: int, mode: str, k: int | None):
    g = ctx.graph(n, GraphKind.ANNIHILATOR, mode, alphabet=k)
    profile = triangle_profile(g)
    want = n in (2, 3)
    ok = profile.is_complemented == want
    if profile.is_complemented:
        ok = ok and profile.is_uniquely_complemented
    return Outcome(
        f"complemented: {want}; unique whenever complemented",
        f"complemented={profile.is_complemented} unique={profile.is_uniquely_complemented}",
        ok)


_mismatch_row("annihilator.orthogonal_complement_rule", _vertex_mismatches,
              "orthogonal partner exists iff zero set or cozero set is an atom",
              lambda full, z: 1 in (z.bit_count(), (full ^ z).bit_count()),
              lambda ctx, g: triangle_profile(g).has_complement)


_mismatch_row("annihilator.orthogonality_rule", _pair_mismatches,
              "orthogonal iff disjoint zero sets, disjoint cozero sets, one side atomic",
              orthogonal_annihilator, lambda ctx, g: triangle_profile(g).is_orthogonal)


_mismatch_row("annihilator.cycle_rank_cases", _pair_mismatches,
              "{total} ranks: 3 on non-orthogonal edges, else 4",
              expected_annihilator_cycle, partial(_cycle_ranks, need=4), oracle_capped=True, needs_k3=NEEDS_K3)


_value_row("annihilator.girth_rule", "girth {}", lambda n: 4 if n == 2 else 3,
           lambda g: metrics(g).girth, needs_k3=NEEDS_K3)


@register("annihilator.edge_triangle_rule")
def check_annihilator_edge_triangles(ctx: RunContext, n: int, k: int):
    g = ctx.graph(n, GraphKind.ANNIHILATOR, "expanded", alphabet=k)
    profile = triangle_profile(g)
    full = (1 << g.space.n_atoms) - 1
    bad = sum(w for i, j, a, b, w in _cell_pairs(g) if g.is_edge(i, j) and profile.edge_flag(i, j)
              == orthogonal_annihilator(full, a, b))
    ok = bad == 0 and not profile.is_hypertriangulated
    return Outcome("edge on a triangle iff not orthogonal; not hypertriangulated over atoms",
                   f"{bad} mismatches, hypertriangulated={profile.is_hypertriangulated}", ok)


@register("annihilator.iso_comaximal_rule", oracle_capped=True, needs_k3=NEEDS_K3)
def check_annihilator_iso(ctx: RunContext, n: int, k: int):
    ga = ctx.graph(n, GraphKind.ANNIHILATOR, "expanded", alphabet=k)
    gc = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
    verdict = _iso_verdict(ctx, are_isomorphic, ga, gc)
    want = n == 2
    ok = verdict.is_isomorphic == want
    if n == 3 and verdict.outcome == NOT_ISOMORPHIC:
        ok = ok and verdict.certificate["kind"] == "eccentricity-class-count"
    return Outcome(
        f"isomorphic to the comaximal graph: {want}",
        f"{verdict.outcome} ({verdict.certificate['kind'] if verdict.certificate else 'mapping'})",
        ok, witness=verdict.certificate)


@register("annihilator.sampled_hypertriangulated", backend=INTERVAL)
def check_annihilator_sampled_hyper(ctx: RunContext):
    """The first ``sample_count`` annihilator edges among the sampled classes,
    in pair order, each on a constructed triangle.  s classes hold at most
    s(s-1)/2 edges: a sample with fewer edges has every one tested, and a
    sample with none is skipped."""
    space = UNIT_INTERVAL
    zsets = [zc.zero_set for zc in ctx.interval_classes()]
    edges = ((zu, zv) for a, zu in enumerate(zsets) for zv in zsets[a + 1:]
             if adjacent(GraphKind.ANNIHILATOR, space, zu, zv))
    found = bad = 0
    witness = None
    for zu, zv in islice(edges, ctx.config.sample_count):
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
    if not found:
        raise BoundExceededError("a single sampled class has no class pairs" if len(zsets) < 2
                                 else f"no pair of the {len(zsets)} sampled classes is an edge")
    return Outcome(f"{found} sampled edges each on a constructed triangle",
                   f"{found} edges, {bad} failures", bad == 0, witness=witness,
                   instance=f"{found} sampled edges")


# ---------------------------------------------------------------------------
# weakly_zd suite
# ---------------------------------------------------------------------------

register("weakly_zd.adjacency_oracle", n_min=1)(partial(_oracle_check, kind=GraphKind.WEAKLY_ZD))


@register("weakly_zd.trichotomy_oracle", oracle_capped=True,
          label="n={n} k={k} over all zero-divisors")
def check_weakly_trichotomy(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    check_oracle_bounds(space, k)
    g = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)  # every zero-divisor
    zsets, members = g.classes.zero_sets, g.classes.masks
    # the closed side once per zero-set pair: the vertex mask of the classes
    # adjacent to each class, and the self-pair of each class on the diagonal
    reach = [sum(members[d] for d, zv in enumerate(zsets) if weakly_adjacent_all(space, zu, zv))
             for zu in zsets]
    self_adjacent = [weakly_adjacent_all(space, z, z, same_vertex=True) for z in zsets]
    closed = [reach[c] & ~(1 << i) | self_adjacent[c] << i for i, c in enumerate(g.classes.of)]
    bad = len(oracle_mismatches(GraphKind.WEAKLY_ZD, space, k, g.vertices, closed, start=0))
    total = g.n_vertices * (g.n_vertices + 1) // 2
    return Outcome(f"{total} pairs (self-pairs included) follow the three-case rule",
                   f"{bad} mismatches", bad == 0)


@register("weakly_zd.self_adjacency_rule", oracle_capped=True, label="n={n} k={k}")
def check_weakly_self_adjacency(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    check_oracle_bounds(space, k)
    g = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)  # every zero-divisor
    brute = [oracle_row(GraphKind.WEAKLY_ZD, space, k, f, (f,)) == 1 for f in g.vertices]
    bad = _vertex_mismatches(g, lambda full, z: z.bit_count() != 1, brute)
    return Outcome("self-adjacent iff the zero set is not an atom", f"{bad} mismatches",
                   bad == 0)


@register("weakly_zd.complete_multipartite_rule", label="n={n} k={k}")
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


_value_row("weakly_zd.bipartite_rule", "bipartite: {}", lambda n: n == 2,
           lambda g: partiteness(g).is_bipartite)


@register("weakly_zd.three_atom_properties", n_min=3)
def check_weakly_three_atoms(ctx: RunContext, n: int, k: int):
    g = ctx.graph(n, GraphKind.WEAKLY_ZD, "expanded", alphabet=k)
    profile = triangle_profile(g)
    ok = (profile.is_triangulated and profile.is_hypertriangulated
          and metrics(g).girth == 3 and not any(profile.has_complement)
          and not profile.is_complemented)
    return Outcome(
        "triangulated, hypertriangulated, girth 3, no orthogonal pairs, not complemented",
        "confirmed" if ok else "violated", ok)


@register("weakly_zd.parameters", needs_k3=NEEDS_K3, label="n={n} k={k}")
def check_weakly_parameters(ctx: RunContext, n: int, k: int):
    g = ctx.graph(n, GraphKind.WEAKLY_ZD, "expanded", alphabet=k)
    gq = ctx.graph(n, GraphKind.WEAKLY_ZD, "quotient")
    values = _solve(ctx, g, "clique", "chromatic", "dominating")
    values_q = _solve(ctx, gq, "clique", "chromatic", "dominating")
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


@register("weakly_zd.interval_empty", backend=INTERVAL)
def check_weakly_interval_empty(ctx: RunContext):
    g = build_graph(UNIT_INTERVAL, GraphKind.WEAKLY_ZD, sample=ctx.interval_classes())
    return Outcome("empty vertex set (no atomic zero sets exist)", f"{g.n_vertices} vertices",
                   g.n_vertices == 0, instance=f"{len(ctx.interval_classes())} sampled classes")


# ---------------------------------------------------------------------------
# quotient suite
# ---------------------------------------------------------------------------

@register("quotient.complement_isomorphism", label="n={n} quotient")
def check_quotient_complement_iso(ctx: RunContext, n: int, k: int):
    g1 = ctx.graph(n, GraphKind.ZERO_DIVISOR, "quotient")
    g2 = ctx.graph(n, GraphKind.COMAXIMAL, "quotient")
    verdict = _iso_verdict(ctx, complement_iso, g1, g2)
    mapping = verdict.mapping
    ok = (verdict.is_isomorphic and verify_mapping(g1, g2, mapping)
          and all(mapping[mapping[i]] == i for i in range(len(mapping))))
    return Outcome("complement map is a verified isomorphism and an involution",
                   "confirmed" if ok else "violated", ok)


@register("quotient.k2_rule", label="n={n} quotient")
def check_quotient_k2(ctx: RunContext, n: int, k: int):
    g = ctx.graph(n, GraphKind.COMAXIMAL, "quotient")
    is_k2 = g.n_vertices == 2 and g.n_edges() == 1
    want = n == 2
    return Outcome(f"two mutually joined classes: {want}", str(is_k2), is_k2 == want)


@register("quotient.clique_chromatic_transfer", oracle_capped=True,
          label="n={n} k={k}", skip_label="n={n}")
def check_quotient_clique_chromatic(ctx: RunContext, n: int, k: int):
    gq = ctx.graph(n, GraphKind.COMAXIMAL, "quotient")
    ge = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
    vq = _solve(ctx, gq, "clique", "chromatic")
    ve = _solve(ctx, ge, "clique", "chromatic")
    ok = vq["clique"][0] == ve["clique"][0] and vq["chromatic"][0] == ve["chromatic"][0]
    return Outcome("clique and chromatic numbers transfer to the quotient",
                   f"quotient ({vq['clique'][0]}, {vq['chromatic'][0]}) vs "
                   f"expanded ({ve['clique'][0]}, {ve['chromatic'][0]})", ok)


@register("quotient.domination_transfer", oracle_capped=True,
          label="n={n} k={k}", skip_label="n={n}")
def check_quotient_domination(ctx: RunContext, n: int, k: int):
    gq = ctx.graph(n, GraphKind.COMAXIMAL, "quotient")
    ge = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
    vq = _solve(ctx, gq, "dominating", "total_dominating")
    ve = _solve(ctx, ge, "dominating", "total_dominating")
    ok = vq["dominating"][0] <= ve["dominating"][0] \
        and vq["total_dominating"][0] == ve["total_dominating"][0]
    return Outcome("quotient dominating number bounded by expanded; total equal",
                   f"dt {vq['dominating'][0]} <= {ve['dominating'][0]}; "
                   f"dt_t {vq['total_dominating'][0]} == {ve['total_dominating'][0]}", ok)


@register("quotient.counting_parameters", label="n={n} quotient", skip_label="n={n}")
def check_quotient_counting_parameters(ctx: RunContext, n: int, k: int):
    gq = ctx.graph(n, GraphKind.COMAXIMAL, "quotient")
    values = _solve(ctx, gq, "clique", "chromatic")
    cl, ch = values["clique"][0], values["chromatic"][0]
    return Outcome(f"clique = chromatic = {n}", f"clique={cl} chromatic={ch}",
                   cl == n and ch == n)


@register("quotient.weak_perfectness", oracle_capped=True, label="n={n} k={k}", skip_label="n={n}")
def check_quotient_weak_perfectness(ctx: RunContext, n: int, k: int):
    ok = True
    for mode, alpha in (("quotient", None), ("expanded", k)):
        g = ctx.graph(n, GraphKind.COMAXIMAL, mode, alphabet=alpha)
        values = _solve(ctx, g, "clique", "chromatic")
        if values["clique"][0] != values["chromatic"][0]:
            ok = False
    return Outcome("clique number equals chromatic number in both modes",
                   "equal" if ok else "differ", ok)


@register("quotient.class_partition", label="n={n} k={k}")
def check_quotient_class_partition(ctx: RunContext, n: int, k: int):
    space = ctx.space(n)
    functions = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k).vertices
    by_class: dict = {}
    for f in functions:
        by_class.setdefault(f.zero_set, []).append(f)
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

@register("iso.expanded_complement_dichotomy", alphabets=(2,))
def check_iso_dichotomy(ctx: RunContext, n: int, k: int):
    if n > ctx.config.oracle_atoms_max and k > 2:
        raise BoundExceededError(f"expanded graphs beyond {ctx.config.oracle_atoms_max} atoms")
    g1 = ctx.graph(n, GraphKind.ZERO_DIVISOR, "expanded", alphabet=k)
    g2 = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
    verdict = _iso_verdict(ctx, complement_iso, g1, g2)
    want = k == 2 or n == 2
    ok = verdict.is_isomorphic == want
    if verdict.is_isomorphic:
        ok = ok and verify_mapping(g1, g2, verdict.mapping)
    elif verdict.certificate is not None and verdict.certificate["kind"] == "eccentricity-class-count":
        recount = [metrics(g).eccentricity_json() for g in (g1, g2)]
        ok = ok and [verdict.certificate["left"], verdict.certificate["right"]] == recount
    return Outcome(f"isomorphic: {want}", verdict.outcome, ok, witness=verdict.certificate)


@register("iso.self_identity", n_max=3, oracle_capped=True)
def check_iso_self_identity(ctx: RunContext, n: int, k: int):
    g = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
    verdict = _iso_verdict(ctx, are_isomorphic, g, g)
    return Outcome("isomorphic to itself", verdict.outcome, verdict.is_isomorphic)


@register("iso.sampled_complement_probe", backend=INTERVAL)
def check_iso_sampled_probe(ctx: RunContext):
    space = UNIT_INTERVAL
    base = ctx.interval_classes()[: max(10, ctx.config.sample_count // 4)]
    closed = [ZClass(z) for zc in base for z in (zc.zero_set, complement(space, zc.zero_set))]
    g1 = build_graph(space, GraphKind.ZERO_DIVISOR, sample=closed)
    g2 = build_graph(space, GraphKind.COMAXIMAL, sample=closed)
    verdict = _iso_verdict(ctx, complement_iso, g1, g2)
    ok = verdict.is_isomorphic and verdict.nodes_explored == 0  # the complement map itself
    return Outcome("complement map is an isomorphism of the sampled subgraphs",
                   "verified" if ok else "failed", ok,
                   note="sampled evidence only; the exhaustive statement is out of reach",
                   instance=f"{g1.n_vertices} complement-closed sampled classes")
