"""Star-shaped concepts: a center vertex together with any subset of its
neighbors.  Exact dimension formulas hinge on how maximum-degree
vertices share closed neighborhoods."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .concepts import ConceptClass
from .dimensions import check_chain, rtd_value, vcd
from .errors import BudgetExceededError, TeacherPreconditionError
from .graphs import (
    DEFAULT_ENUM_BUDGET,
    Graph,
    bits,
    mask_of,
    set_of,
)
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
    neighborhood, with that neighborhood split into members and fringe."""

    members: frozenset[int]
    closed: frozenset[int]
    fringe: frozenset[int]


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
        groups.append(VmaxGroup(set_of(members), set_of(closed), set_of(fringe)))
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
        closed = mask_of(grp.closed)
        fringe = mask_of(grp.fringe)
        for v in range(g.n):
            if closed >> v & 1:
                continue
            if fringe & ~g.closed_mask(v) == 0:
                return part.delta + 1, (i, v)
    return part.delta, None


def star_subset_teacher(ctx: GraphContext) -> PBTeacher:
    """Teach every star by all of its members as positive examples, under
    smaller-sets-first preferences.  Valid for every graph."""
    cc = ctx.star
    return PBTeacher(cc, tuple(set_of(c) for c in cc.concepts), ctx.star_pref)


def star_special_teacher(ctx: GraphContext) -> PBTeacher:
    """The order-Delta teacher that exists when no external vertex covers
    any group's fringe.

    Concepts containing some group's fringe ("special") are taught by the
    fringe as positives plus the missing group members as negatives;
    everything else by its members as positives.  Non-special concepts
    are preferred over special ones; within a group's special concepts,
    more members means more preferred; non-special concepts carry
    smaller-sets-first preferences.
    """
    part = ctx.part
    value, witness = _fringe_cover(ctx.g, part)
    if value != part.delta:
        raise TeacherPreconditionError(
            "an external vertex covers a fringe; the order-Delta construction "
            f"does not apply (witness {witness})"
        )
    cc = ctx.star
    group_masks = [
        (mask_of(grp.members), mask_of(grp.closed), mask_of(grp.fringe))
        for grp in part.groups
    ]

    special = 0
    # group -> member count -> the group's special concepts with that count
    by_count: list[dict[int, int]] = [{} for _ in group_masks]
    special_scopes: list[tuple[int, ...]] = []
    sets: list[frozenset[int]] = []
    for i, c in enumerate(cc.concepts):
        scopes = tuple(
            gi for gi, (members, closed, fringe) in enumerate(group_masks)
            if c & fringe == fringe
        )
        special_scopes.append(scopes)
        if scopes:
            members, closed, fringe = group_masks[scopes[0]]
            if c & ~closed or not c & members:
                raise RuntimeError("special concept is not fringe plus members")
            sets.append(set_of(fringe | (members & ~c)))
            special |= 1 << i
            for gi in scopes:
                k = (c & group_masks[gi][0]).bit_count()
                by_count[gi][k] = by_count[gi].get(k, 0) | 1 << i
        else:
            sets.append(set_of(c))

    supersets = ctx.star_pref.below
    direct = []
    for i, scopes in enumerate(special_scopes):
        if not scopes:
            direct.append(special | supersets[i])
            continue
        mask = 0
        for gi in scopes:
            k = (cc.concepts[i] & group_masks[gi][0]).bit_count()
            for count, concepts in by_count[gi].items():
                if count < k:
                    mask |= concepts
        direct.append(mask)
    return PBTeacher(cc, tuple(sets), PreferenceRelation.from_direct(direct))


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

