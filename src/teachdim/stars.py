"""Star-shaped concepts: a center vertex together with any subset of its
neighbors.  Exact dimension formulas hinge on how maximum-degree
vertices share closed neighborhoods."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .concepts import ConceptClass, version_space_mask
from .dimensions import check_chain, rtd_value, vcd
from .errors import BudgetExceededError, TeacherPreconditionError
from .graphs import DEFAULT_ENUM_BUDGET, Graph, bits
from .teaching import PBTeacher, PreferenceRelation

if TYPE_CHECKING:
    from .context import GraphContext


def build_star_class(g: Graph, *, budget: int = DEFAULT_ENUM_BUDGET) -> ConceptClass:
    """All sets {x} union X with X inside the open neighborhood of x,
    deduplicated over the choice of center."""
    if g.n == 0:
        raise ValueError("star class of an empty graph is undefined")
    work = sum(1 << row.bit_count() for row in g.adj)
    if work > budget:
        raise BudgetExceededError("star-class enumeration", budget)
    masks = set()
    for x in range(g.n):
        xbit = 1 << x
        nbrs = g.adj[x]
        sub = nbrs
        while True:
            masks.add(sub | xbit)
            if sub == 0:
                break
            sub = (sub - 1) & nbrs
    return ConceptClass.from_masks(g.n, masks)


@dataclass(frozen=True)
class VmaxGroup:
    """One equivalence class of maximum-degree vertices sharing a closed
    neighborhood, with that neighborhood split into members and fringe,
    each a vertex mask."""

    members: int
    closed: int
    fringe: int


@dataclass(frozen=True)
class VmaxPartition:
    delta: int
    groups: tuple[VmaxGroup, ...]


def vmax_partition(g: Graph) -> VmaxPartition:
    """Group the maximum-degree vertices by equal closed neighborhood.

    Construction validates the structural facts the dimension formulas
    rely on: every shared closed neighborhood has Delta+1 vertices, each
    group is a clique, and the fringe-containment condition holds for
    members and fails inside the fringe.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    delta = g.max_degree()
    by_closed: dict[int, int] = {}
    for v in range(g.n):
        if g.degree(v) == delta:
            key = g.closed_mask(v)
            by_closed[key] = by_closed.get(key, 0) | (1 << v)
    groups = []
    for closed, members in sorted(by_closed.items(), key=lambda kv: kv[1] & -kv[1]):
        fringe = closed & ~members
        if closed.bit_count() != delta + 1:
            raise RuntimeError("shared closed neighborhood of wrong size")
        for v in bits(members):
            if members & ~g.closed_mask(v):
                raise RuntimeError("group members do not form a clique")
            if fringe & ~g.closed_mask(v):
                raise RuntimeError("fringe containment fails for a member")
        for v in bits(fringe):
            if fringe & ~g.closed_mask(v) == 0:
                raise RuntimeError("fringe containment holds inside the fringe")
        groups.append(VmaxGroup(members, closed, fringe))
    return VmaxPartition(delta, tuple(groups))


def star_vcd_characterization(g: Graph) -> tuple[int, tuple[int, int] | None]:
    """Predict the star class's VC-dimension without building the class.

    Returns Delta+1 with a witness (group index, external vertex) when
    some vertex outside a shared closed neighborhood covers that group's
    fringe; otherwise Delta with no witness.
    """
    return _fringe_cover(g, vmax_partition(g))


def _fringe_cover(g: Graph, part: VmaxPartition) -> tuple[int, tuple[int, int] | None]:
    for i, grp in enumerate(part.groups):
        for v in range(g.n):
            if grp.closed >> v & 1:
                continue
            if grp.fringe & ~g.closed_mask(v) == 0:
                return part.delta + 1, (i, v)
    return part.delta, None


def star_subset_teacher(ctx: GraphContext) -> PBTeacher:
    """Teach every star by all of its members as positive examples, under
    smaller-sets-first preferences.  Valid for every graph."""
    cc = ctx.star
    return PBTeacher(cc, cc.concepts, ctx.star_pref)


def star_special_teacher(ctx: GraphContext) -> PBTeacher:
    """The order-Delta teacher that exists when no external vertex covers
    any group's fringe.

    Concepts containing some group's fringe ("special") are taught by the
    fringe as positives plus the missing group members as negatives;
    everything else by its members as positives.  Non-special concepts
    are preferred over special ones; within a group's special concepts,
    more members means more preferred; non-special concepts carry
    smaller-sets-first preferences.

    One-fringe lemma: a special concept contains exactly one group's
    fringe.  Let it be a star with center x that contains the fringe of
    group G.  Were x outside G's closed neighborhood, N[x] would cover
    G's fringe, which the precondition rules out.  So x lies in G's
    closed neighborhood and is adjacent to every member; N[x] then holds
    the members and the fringe, the Delta+1 vertices of G's closed
    neighborhood, so x has degree Delta with that closed neighborhood
    and is a member of G.  Members of distinct groups differ, so no
    other group's fringe fits in N[x].  The order is therefore closed
    as built: a special concept's row holds its own group's special
    concepts with fewer members, whose rows hold fewer still, and a
    non-special concept's row holds the special concepts and its proper
    supersets, whose rows lie inside it.
    """
    part = ctx.part
    value, witness = ctx.fringe_cover
    if value != part.delta:
        raise TeacherPreconditionError(
            "an external vertex covers a fringe; the order-Delta construction "
            f"does not apply (witness {witness})"
        )
    cc = ctx.star
    masks, below = list(cc.concepts), list(ctx.star_pref.below)
    special = 0
    for grp in part.groups:
        found = version_space_mask(cc, grp.fringe)
        if found & special:
            raise RuntimeError("special concept contains two groups' fringes")
        special |= found
        # the group's special concepts by member count
        by_count: dict[int, int] = {}
        for i in bits(found):
            c = cc.concepts[i]
            if c & ~grp.closed or not c & grp.members:
                raise RuntimeError("special concept is not fringe plus members")
            masks[i] = grp.fringe | (grp.members & ~c)
            k = (c & grp.members).bit_count()
            by_count[k] = by_count.get(k, 0) | 1 << i
        fewer = 0
        for k in sorted(by_count):
            for i in bits(by_count[k]):
                below[i] = fewer
            fewer |= by_count[k]
    for i in bits(cc.all_indices_mask & ~special):
        below[i] |= special
    return PBTeacher(cc, tuple(masks), PreferenceRelation(len(cc), tuple(below)))


def star_triple(g: Graph, *, budget: int = DEFAULT_ENUM_BUDGET) -> tuple[int, int, int]:
    """(max degree, peeling dimension, VC-dimension) of the star class.

    The chain Delta <= RTD <= VCD <= Delta+1 with exactly one strict step
    is validated before returning.
    """
    cc = build_star_class(g, budget=budget)
    delta = g.max_degree()
    r = rtd_value(cc, budget=budget)
    v, _ = vcd(cc)
    check_chain(delta, r, v, "star")
    return delta, r, v

