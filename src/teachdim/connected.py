"""Connected vertex sets as concepts: opponents, the boundary-based
characterization of when the VC-dimension exceeds the max-leaf number,
and the three constructive teachers."""

from __future__ import annotations

import itertools

from .concepts import ConceptClass, version_space_mask
from .context import GraphContext
from .dimensions import check_chain, rtd_value, vcd
from .errors import BudgetExceededError, TeacherPreconditionError
from .graphs import (
    DEFAULT_ENUM_BUDGET,
    Graph,
    Tree,
    _reach,
    bfs_tree_edges,
    bits,
    closed_neighborhood_mask,
    components,
    is_connected,
    mask_of,
)
from .teaching import PBTeacher, PreferenceRelation, subset_preferences


def build_con_class(g: Graph, include_empty: bool, *,
                    budget: int = DEFAULT_ENUM_BUDGET) -> ConceptClass:
    """All nonempty connected vertex sets, plus the empty set on request.

    Both conventions are legitimate: counting arguments exclude the empty
    set while the teacher constructions rely on it, so the policy is an
    explicit argument everywhere.
    """
    return GraphContext(g, budget).con(include_empty)


def maximal_opponents(g: Graph, x) -> tuple[int, ...]:
    """The maximal opponents of X, a nonempty connected vertex set (a
    mask or an iterable of vertices), as masks: the components left over
    after deleting X's closed neighborhood.  Each one's boundary lies in
    X's: a vertex next to a component Y is in N[X], and not in X, or Y
    would meet N[X].  Raises ValueError for any other X."""
    xmask = x if isinstance(x, int) else mask_of(x)
    if xmask == 0:
        raise ValueError("X must be nonempty")
    if not is_connected(g, xmask):
        raise ValueError("X must be connected")
    return components(g, g.full_mask & ~closed_neighborhood_mask(g, xmask))


def leaf_tree_condition(ctx: GraphContext) -> tuple[Tree, int] | None:
    """Search for a tree with the maximum leaf count whose leaves stay
    pairwise connectable away from the tree's other leaves and one
    interior vertex.

    Equivalent pair form: a vertex set S of size ell(G)+1 qualifies iff
    every pair of S-vertices is joined by a path avoiding the rest of S.
    Subsets are scanned lexicographically.  For each member a in turn,
    the region R_a that a reaches through vertices outside S must touch
    every later member; R_a is a connected set, so its boundary is read
    from ``ctx.boundaries``.  The witness tree is built from the region
    of the smallest member, which then acts as the interior vertex.
    Returns None when no subset qualifies; each candidate subset costs
    one unit of ``ctx.budget``, and BudgetExceededError is raised when
    they pass it.
    """
    g = ctx.g
    if g.n == 0:
        raise ValueError("empty graph")
    if not is_connected(g, g.full_mask):
        raise ValueError("graph must be connected")
    adj, boundary, budget = g.adj, ctx.boundaries, ctx.budget
    for count, combo in enumerate(
            itertools.combinations(range(g.n), ctx.ell + 1), 1):
        if count > budget:
            raise BudgetExceededError("leaf-tree witness search", budget)
        smask = mask_of(combo)
        outside = g.full_mask & ~smask
        later = smask
        for a in combo:
            later ^= 1 << a
            if later & ~boundary[_reach(adj, 1 << a, outside | 1 << a)]:
                break
        else:
            return _witness_tree(g, smask), combo[0]
    return None


def _witness_tree(g: Graph, smask: int) -> Tree:
    """The BFS tree of the smallest member u's region outside S, each
    other member hung on its lowest neighbor there, pruned to the
    subtree that spans S."""
    u = (smask & -smask).bit_length() - 1
    others = smask ^ 1 << u
    region, edges = bfs_tree_edges(g, u, (g.full_mask & ~smask) | 1 << u)
    # edges come in the order their far ends were reached
    parent = {}
    for a, b in edges:
        if a == u or a in parent:
            parent[b] = a
        else:
            parent[a] = b
    kept, tree_edges = 1 << u, set()
    for v in bits(others):
        near = g.adj[v] & region
        parent[v] = (near & -near).bit_length() - 1
        while not kept >> v & 1:
            kept |= 1 << v
            w = parent[v]
            tree_edges.add((min(v, w), max(v, w)))
            v = w
    tree = Tree(g.n, kept, frozenset(tree_edges))
    # the other members are exactly the leaves, except on a single edge
    # where the designated vertex is unavoidably degree-1 as well
    leaves = tree.leaves()
    assert not others & ~leaves and not leaves & ~smask, "stray leaf in witness tree"
    return tree


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
    leaves in the version space, transitively closed.

    Those pairs can be contradictory: two disjoint full-boundary sets may
    each survive the other's sample, e.g. the second and fifth vertices
    of a six-vertex path, and then no preference relation whatsoever
    makes the stated teaching sets work; such graphs are refused.

    A pure-negative version space holds every subset of its members, so
    a full-boundary set's row is its version space, and each row below
    it that is not full-boundary is already inside it.  Once the
    refusal above has passed, every full-boundary set Y in the row of a
    full-boundary set X is a proper subset of X: were Y not inside X,
    then Y, connected and missing N(X), could not meet X either, so X
    would miss N(Y) and the pair would have been refused.  Concepts
    are sorted by mask, so Y comes before X, and the pass below, in
    index order, has carried into Y's row all it takes in before it
    carries that row into every proper superset of Y, X among them.
    That pass alone closes the relation.
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
    below = list(ctx.con_pref.below)
    for i in full_boundary:
        vs = version_space_mask(cc, 0, boundary[cc.concepts[i]])
        below[i] = vs & ~(1 << i)
    for i in full_boundary:
        # the proper supersets of the set
        for j in bits(version_space_mask(cc, cc.concepts[i]) ^ 1 << i):
            below[j] |= below[i]
    return PreferenceRelation(len(cc), tuple(below))


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
