"""Connected vertex sets as concepts: opponents, the boundary-based
characterization of when the VC-dimension exceeds the max-leaf number,
and the three constructive teachers."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .concepts import ConceptClass, version_space_mask
from .context import GraphContext
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
    is_connected,
    mask_of,
)
from .teaching import PBTeacher, PreferenceRelation, subset_preferences

#: Default cap on reachability expansion steps in the witness search.
DEFAULT_PATH_BUDGET = 10 ** 7


def build_con_class(g: Graph, include_empty: bool, *,
                    budget: int = DEFAULT_ENUM_BUDGET) -> ConceptClass:
    """All nonempty connected vertex sets, plus the empty set on request.

    Both conventions are legitimate: counting arguments exclude the empty
    set while the teacher constructions rely on it, so the policy is an
    explicit argument everywhere.
    """
    return GraphContext(g, budget).con(include_empty)


@dataclass(frozen=True)
class OpponentSet:
    """The maximal opponents of a nonempty connected set X: the components
    left over after deleting X's closed neighborhood.  Each one's boundary
    lies in X's: a vertex next to a component Y is in N[X], and not in X,
    or Y would meet N[X].  X and the opponents are vertex masks."""

    x: int
    opponents: tuple[int, ...]


def maximal_opponents(g: Graph, x) -> OpponentSet:
    """The maximal opponents of X, a nonempty connected vertex set (a
    mask or an iterable of vertices); raises ValueError for any other X."""
    xmask = x if isinstance(x, int) else mask_of(x)
    if xmask == 0:
        raise ValueError("X must be nonempty")
    if not is_connected(g, xmask):
        raise ValueError("X must be connected")
    xopen = closed_neighborhood_mask(g, xmask) & ~xmask
    return OpponentSet(xmask, _opponent_masks(g, xmask, xopen))


def _opponent_masks(g: Graph, xmask: int, xopen: int) -> tuple[int, ...]:
    """The maximal opponents of a set the caller knows is a nonempty
    connected set, such as a key of GraphContext.boundaries, given its
    boundary ``xopen``: the components outside N[X] = X | N(X)."""
    outside = g.full_mask & ~(xmask | xopen)
    opps = []
    remaining = outside
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        comp = component_mask(g, start, outside)
        opps.append(comp)
        remaining &= ~comp
    return tuple(opps)


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
            return _witness_tree(g, smask), combo[0]
    return None


def _witness_tree(g: Graph, smask: int) -> Tree:
    """Union of deterministic shortest paths from each other member of S
    to its smallest member u, then a BFS tree of that union."""
    u = (smask & -smask).bit_length() - 1
    others = smask ^ 1 << u
    full = g.full_mask
    union_vertices = 1 << u
    union_edges: set[tuple[int, int]] = set()
    for v in bits(others):
        allowed = (full & ~smask) | (1 << u) | (1 << v)
        path = _shortest_path(g, v, u, allowed)
        union_vertices |= mask_of(path)
        for a, b in zip(path, path[1:]):
            union_edges.add((min(a, b), max(a, b)))
    seen, edges = bfs_tree_edges(g, u, union_vertices, allowed_edges=union_edges)
    assert seen == union_vertices
    tree = Tree(g.n, union_vertices, frozenset(edges))
    # the other members are exactly the leaves, except on a single edge
    # where the designated vertex is unavoidably degree-1 as well
    leaves = tree.leaves()
    assert not others & ~leaves and not leaves & ~smask, "stray leaf in witness tree"
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
    masks = tuple(_subtree_leaves_mask(g, c) if c else 0 for c in cc.concepts)
    return PBTeacher(cc, masks, subset_preferences(cc))


def con_superset_teacher(ctx: GraphContext) -> PBTeacher:
    """Teach a connected set by one member (smallest index) as positive and
    its whole open neighborhood as negatives, under larger-sets-first
    preferences.

    The empty concept cannot be taught that way; it gets every vertex as
    a negative example, which pins it exactly.  Its oversized teaching
    set is deliberate and excluded from the order bound checks.
    """
    g, cc, boundary = ctx.g, ctx.con(True), ctx.boundaries
    masks = [boundary[c] | (c & -c) if c else g.full_mask for c in cc.concepts]
    return PBTeacher(cc, tuple(masks), ctx.con_pref)


def con_vcd_matching_teacher(ctx: GraphContext) -> PBTeacher:
    """The order-ell teacher that exists when the VC-dimension does not
    exceed the max-leaf number.

    Sets with a full-size boundary are taught by their boundary as pure
    negatives; their only rivals in the version space are their maximal
    opponents, whose boundaries are strictly smaller, so adding "preferred
    over every set its sample leaves" to the larger-sets-first preference
    settles every contest.  Smaller-boundary sets get one positive member
    on top.
    """
    g, ell, cc = ctx.g, ctx.ell, ctx.con(True)
    value, witness = ctx.vcd(cc)
    if value != ell:
        raise TeacherPreconditionError(
            f"VC-dimension {value} exceeds max-leaf number {ell} "
            f"(shattered witness {sorted(witness)}); the order-{ell} "
            "construction does not apply"
        )
    boundary = ctx.boundaries
    masks = []
    for c in cc.concepts:
        if c == 0:
            masks.append(g.full_mask)
            continue
        nb = boundary[c]
        masks.append(nb if nb.bit_count() == ell else nb | (c & -c))
    return PBTeacher(cc, tuple(masks), _matching_preference(ctx))


def _matching_preference(ctx: GraphContext) -> PreferenceRelation:
    """Larger-sets-first plus the pairs the verifier needs: each
    pure-negatively taught (full-boundary) set over everything its sample
    leaves in the version space, closed by ``from_direct``.

    Those pairs can be contradictory: two disjoint full-boundary sets may
    each survive the other's sample, e.g. the second and fifth vertices
    of a six-vertex path, and then no preference relation whatsoever
    makes the stated teaching sets work; such graphs are refused.
    """
    g, ell, cc, boundary = ctx.g, ctx.ell, ctx.con(True), ctx.boundaries
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
    direct = list(ctx.con_pref.below)
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
    ctx = GraphContext(g, budget)
    cc, ell = ctx.con(include_empty), ctx.ell
    r = rtd_value(cc, budget=budget)
    v, _ = vcd(cc)
    check_chain(ell, r, v, "connected-set")
    return ell, r, v
