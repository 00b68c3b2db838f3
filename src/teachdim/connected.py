"""Connected vertex sets as concepts: opponents, the boundary-based
characterization of when the VC-dimension exceeds the max-leaf number,
and the three constructive teachers."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .concepts import ConceptClass, version_space_mask
from .dimensions import check_chain, rtd_value, vcd
from .errors import BudgetExceededError, PreferenceCycleError, TeacherPreconditionError
from .graphs import (
    DEFAULT_ENUM_BUDGET,
    Graph,
    Tree,
    bfs_tree_edges,
    bits,
    closed_neighborhood_mask,
    component_mask,
    connected_set_masks,
    is_connected,
    mask_of,
    max_open_neighborhood,
    open_neighborhood_mask,
    set_of,
)
from .teaching import PBTeacher, PreferenceRelation, lex_refine, subset_preferences

if TYPE_CHECKING:
    from .context import GraphContext

#: Default cap on reachability expansion steps in the witness search.
DEFAULT_PATH_BUDGET = 10 ** 7


def build_con_class(g: Graph, include_empty: bool, *,
                    budget: int = DEFAULT_ENUM_BUDGET) -> ConceptClass:
    """All nonempty connected vertex sets, plus the empty set on request.

    Both conventions are legitimate: counting arguments exclude the empty
    set while the teacher constructions rely on it, so the policy is an
    explicit argument everywhere.
    """
    if g.n == 0:
        raise ValueError("connected-set class of an empty graph is undefined")
    masks = list(connected_set_masks(g, budget=budget))
    if include_empty:
        masks.append(0)
    return ConceptClass.from_masks(g.n, masks)


@dataclass(frozen=True)
class OpponentSet:
    """The maximal opponents of a nonempty connected set X: the components
    left over after deleting X's closed neighborhood.  Each one's boundary
    lies in X's: a vertex next to a component Y is in N[X], and not in X,
    or Y would meet N[X]."""

    x: frozenset[int]
    opponents: tuple[frozenset[int], ...]


def maximal_opponents(g: Graph, x) -> OpponentSet:
    xmask = x if isinstance(x, int) else mask_of(x)
    if xmask == 0:
        raise ValueError("X must be nonempty")
    if not is_connected(g, xmask):
        raise ValueError("X must be connected")
    outside = g.full_mask & ~closed_neighborhood_mask(g, xmask)
    opps = []
    remaining = outside
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        comp = component_mask(g, start, outside)
        opps.append(set_of(comp))
        remaining &= ~comp
    return OpponentSet(set_of(xmask), tuple(opps))


def leaf_tree_condition(ctx: GraphContext, *, budget: int = DEFAULT_PATH_BUDGET
                        ) -> tuple[Tree, int] | None:
    """Search for a tree with the maximum leaf count whose leaves stay
    pairwise connectable away from the tree's other leaves and one
    interior vertex.

    Equivalent pair form: a vertex set S of size ell(G)+1 qualifies iff
    every pair of S-vertices is joined by a path avoiding the rest of S.
    Subsets are scanned lexicographically; the witness tree is assembled
    from deterministic shortest paths to the smallest member, which then
    acts as the interior vertex.  Returns None when no subset qualifies;
    raises BudgetExceededError when the reachability work hits ``budget``.
    """
    g = ctx.g
    if g.n == 0:
        raise ValueError("empty graph")
    if not is_connected(g, g.full_mask):
        raise ValueError("graph must be connected")
    ell = ctx.ell
    steps = 0
    full = g.full_mask

    def reachable(a: int, b: int, allowed: int) -> bool:
        nonlocal steps
        seen = 1 << a
        frontier = seen
        target = 1 << b
        while frontier:
            steps += 1
            if steps > budget:
                raise BudgetExceededError("leaf-tree witness search", budget)
            grow = 0
            for v in bits(frontier):
                grow |= g.adj[v]
            frontier = grow & allowed & ~seen
            if frontier & target:
                return True
            seen |= frontier
        return False

    for combo in itertools.combinations(range(g.n), ell + 1):
        smask = mask_of(combo)
        ok = True
        for ai in range(len(combo)):
            for bi in range(ai + 1, len(combo)):
                a, b = combo[ai], combo[bi]
                allowed = (full & ~smask) | (1 << a) | (1 << b)
                if not reachable(a, b, allowed):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return _witness_tree(g, combo), combo[0]
    return None


def _witness_tree(g: Graph, combo) -> Tree:
    """Union of deterministic shortest paths from each other member to the
    smallest member, then a BFS tree of that union."""
    u = combo[0]
    smask = mask_of(combo)
    full = g.full_mask
    if len(combo) == 1:
        return Tree(g.n, frozenset(combo), frozenset())
    union_vertices = 0
    union_edges: set[tuple[int, int]] = set()
    for v in combo[1:]:
        allowed = (full & ~smask) | (1 << u) | (1 << v)
        path = _shortest_path(g, v, u, allowed)
        union_vertices |= mask_of(path)
        for a, b in zip(path, path[1:]):
            union_edges.add((min(a, b), max(a, b)))
    seen, edges = bfs_tree_edges(g, u, union_vertices, allowed_edges=union_edges)
    assert seen == union_vertices
    tree = Tree(g.n, set_of(union_vertices), frozenset(edges))
    # the other members are exactly the leaves, except on a single edge
    # where the designated vertex is unavoidably degree-1 as well
    leaves = tree.leaves()
    assert frozenset(combo[1:]) <= leaves <= frozenset(combo), \
        "stray leaf in witness tree"
    return tree


def _shortest_path(g: Graph, a: int, b: int, allowed: int) -> list[int]:
    parent = {a: -1}
    frontier = [a]
    while frontier:
        nxt = []
        for v in frontier:
            for u in bits(g.adj[v] & allowed):
                if u not in parent:
                    parent[u] = v
                    if u == b:
                        path = [b]
                        while parent[path[-1]] != -1:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    nxt.append(u)
        frontier = sorted(nxt)
    raise RuntimeError("no path despite earlier reachability check")


# ---------------------------------------------------------------------------
# Teachers
# ---------------------------------------------------------------------------

def _subtree_leaves_mask(g: Graph, xmask: int) -> int:
    """Leaves of the subtree spanned by X in a tree graph; a singleton is
    its own leaf."""
    if xmask.bit_count() == 1:
        return xmask
    leaves = 0
    for v in bits(xmask):
        if (g.adj[v] & xmask).bit_count() == 1:
            leaves |= 1 << v
    return leaves


def con_tree_teacher(ctx: GraphContext) -> PBTeacher:
    """On a tree, teach a connected set by the leaves of its spanned
    subtree as positive examples, under smaller-sets-first preferences.
    The empty concept is in the class and needs no examples."""
    g = ctx.g
    if g.n == 0 or not is_connected(g, g.full_mask) or g.m != g.n - 1:
        raise ValueError("con_tree_teacher requires a tree")
    cc = ctx.con(True)
    sets = tuple(
        set_of(_subtree_leaves_mask(g, c)) if c else frozenset()
        for c in cc.concepts
    )
    return PBTeacher(cc, sets, subset_preferences(cc))


def con_superset_teacher(ctx: GraphContext) -> PBTeacher:
    """Teach a connected set by one member (smallest index) as positive and
    its whole open neighborhood as negatives, under larger-sets-first
    preferences.

    The empty concept cannot be taught that way; it gets every vertex as
    a negative example, which pins it exactly.  Its oversized teaching
    set is deliberate and excluded from the order bound checks.
    """
    g, cc = ctx.g, ctx.con(True)
    sets = []
    for c in cc.concepts:
        if c == 0:
            sets.append(frozenset(range(g.n)))
            continue
        low = (c & -c).bit_length() - 1
        sets.append(set_of(open_neighborhood_mask(g, c) | (1 << low)))
    return PBTeacher(cc, tuple(sets), ctx.con_pref)


def con_vcd_matching_teacher(ctx: GraphContext) -> PBTeacher:
    """The order-ell teacher that exists when the VC-dimension does not
    exceed the max-leaf number.

    Sets with a full-size boundary are taught by their boundary as pure
    negatives; their only rivals in the version space are their maximal
    opponents, whose boundaries are strictly smaller, so refining the
    larger-sets-first preference by boundary size settles every contest.
    Smaller-boundary sets get one positive member on top.
    """
    g, ell, cc = ctx.g, ctx.ell, ctx.con(True)
    value, witness = ctx.vcd(cc)
    if value != ell:
        raise TeacherPreconditionError(
            f"VC-dimension {value} exceeds max-leaf number {ell} "
            f"(shattered witness {sorted(witness)}); the order-{ell} "
            "construction does not apply"
        )
    boundary = {c: open_neighborhood_mask(g, c) if c else 0 for c in cc.concepts}
    sets = []
    for c in cc.concepts:
        if c == 0:
            sets.append(frozenset(range(g.n)))
            continue
        nb = boundary[c]
        if nb.bit_count() == ell:
            sets.append(set_of(nb))
        else:
            low = (c & -c).bit_length() - 1
            sets.append(set_of(nb | (1 << low)))
    return PBTeacher(cc, tuple(sets), _matching_preference(ctx, boundary))


def _matching_preference(ctx: GraphContext, boundary) -> PreferenceRelation:
    """Larger-sets-first refined by boundary size on incomparable pairs.

    The global refinement can cycle (boundary size is not monotone under
    inclusion), in which case only the pairs the verifier actually needs
    are kept: each pure-negatively taught set over everything its sample
    leaves in the version space.  Even those needed pairs can be
    contradictory: two disjoint full-boundary sets may each survive the
    other's sample, e.g. the second and fifth vertices of a six-vertex
    path, and then no preference relation whatsoever makes the stated
    teaching sets work; such graphs are refused.
    """
    g, ell, cc = ctx.g, ctx.ell, ctx.con(True)
    full_boundary = [
        i for i, c in enumerate(cc.concepts)
        if c and boundary[c].bit_count() == ell
    ]
    for ai, i in enumerate(full_boundary):
        ci = cc.concepts[i]
        for j in full_boundary[ai + 1:]:
            cj = cc.concepts[j]
            if ci & boundary[cj] == 0 and cj & boundary[ci] == 0 \
                    and ci & cj == 0:
                raise TeacherPreconditionError(
                    "pure-negative teaching sets are jointly infeasible: "
                    f"{g.vertex_names(ci)} and {g.vertex_names(cj)} each "
                    "survive the other's sample"
                )
    base = ctx.con_pref
    keys = [boundary[c].bit_count() for c in cc.concepts]
    try:
        return lex_refine(base, keys)
    except PreferenceCycleError:
        pass
    direct = list(base.below)
    for i in full_boundary:
        vs = version_space_mask(cc, 0, boundary[cc.concepts[i]])
        direct[i] |= vs & ~(1 << i)
    try:
        return PreferenceRelation.from_direct(direct)
    except PreferenceCycleError as exc:
        raise TeacherPreconditionError(
            f"required preference pairs are cyclic: {exc}"
        ) from exc


def con_triple(g: Graph, include_empty: bool = False, *,
               budget: int = DEFAULT_ENUM_BUDGET) -> tuple[int, int, int]:
    """(max-leaf number, peeling dimension, VC-dimension) of the
    connected-set class under the chosen empty-set policy.

    Validates ell <= RTD <= VCD <= ell+1 with exactly one strict step.
    """
    cc = build_con_class(g, include_empty, budget=budget)
    ell = max_open_neighborhood(g, cc.concepts)
    r = rtd_value(cc, budget=budget)
    v, _ = vcd(cc)
    check_chain(ell, r, v, "connected-set")
    return ell, r, v
