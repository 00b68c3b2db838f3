"""One graph's shared parts, each built on first use and then kept: the
star class; the boundary N(X) of every connected set X, from one walk
that also gives both connected-set classes and ell(G); the vmax
partition and the star VC-dimension it predicts; the containment orders
the teachers use; and the VC-dimension, peeling certificate and verified
plan teacher of each class.  The checks, the teachers and the CLI read
them from one context, so a graph's parts are built once however many
of them run."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

from .concepts import ConceptClass
from .dimensions import RtdCertificate, rtd, vcd
from .graphs import DEFAULT_ENUM_BUDGET, Graph, connected_set_boundaries
from .stars import VmaxPartition, _fringe_cover, build_star_class, vmax_partition
from .teaching import (
    PBTeacher,
    PreferenceRelation,
    plan_to_teacher,
    subset_preferences,
    superset_preferences,
    verify_pb_teacher,
)


@dataclass(frozen=True)
class GraphContext:
    """The parts of graph ``g``; ``budget`` bounds every enumeration and
    teaching-set search they need and the leaf-tree witness search that
    reads them, each raising BudgetExceededError when it hits it."""

    g: Graph
    budget: int = DEFAULT_ENUM_BUDGET
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def star(self) -> ConceptClass:
        return build_star_class(self.g, budget=self.budget)

    @cached_property
    def boundaries(self) -> Mapping[int, int]:
        """N(X) keyed by X, for every nonempty connected set X in
        enumeration order: one walk gives ell, both connected-set classes,
        the opponents and the boundary teachers' samples.  Shared by every
        reader, so a read-only view."""
        if self.g.n == 0:
            raise ValueError("connected-set class of an empty graph is undefined")
        return MappingProxyType(
            dict(connected_set_boundaries(self.g, budget=self.budget)))

    @cached_property
    def _nonempty_con(self) -> ConceptClass:
        return ConceptClass.from_masks(self.g.n, self.boundaries)

    @cached_property
    def _con_with_empty(self) -> ConceptClass:
        return ConceptClass.from_masks(self.g.n, [0, *self.boundaries])

    def con(self, include_empty: bool) -> ConceptClass:
        """The connected-set class under the given empty-set policy; both
        come from one enumeration."""
        return self._con_with_empty if include_empty else self._nonempty_con

    @cached_property
    def ell(self) -> int:
        """ell(G), the largest boundary of a connected set."""
        return max(map(int.bit_count, self.boundaries.values()))

    @cached_property
    def part(self) -> VmaxPartition:
        return vmax_partition(self.g)

    @cached_property
    def fringe_cover(self) -> tuple[int, tuple[int, int] | None]:
        """The star class's VC-dimension predicted from ``part``, with its
        witness (see star_vcd_characterization)."""
        return _fringe_cover(self.g, self.part)

    @cached_property
    def star_pref(self) -> PreferenceRelation:
        """Smaller-sets-first over the star class."""
        return subset_preferences(self.star)

    @cached_property
    def con_pref(self) -> PreferenceRelation:
        """Larger-sets-first over the connected-set class with the empty set."""
        return superset_preferences(self._con_with_empty)

    def vcd(self, cc: ConceptClass) -> tuple[int, frozenset[int]]:
        return self._once("vcd", cc, vcd)

    def rtd(self, cc: ConceptClass) -> RtdCertificate:
        return self._once("rtd", cc, lambda c: rtd(c, budget=self.budget))

    def plan(self, cc: ConceptClass
             ) -> tuple[PBTeacher, tuple[bool, tuple[int, int] | None]]:
        """The teacher of cc's peeling plan and its ``verify_pb_teacher``
        result: eq6 and the plan-teacher check both read them.  Raises
        where ``plan_to_teacher`` raises, and keeps nothing then."""
        def build(c):
            teacher = plan_to_teacher(self.rtd(c), c)
            return teacher, verify_pb_teacher(c, teacher)
        return self._once("plan", cc, build)

    def _once(self, name: str, cc: ConceptClass, compute):
        """compute(cc), kept by the class's identity; the entry holds
        the class, so its id is not reused while kept."""
        key = name, id(cc)
        if key not in self._memo:
            self._memo[key] = cc, compute(cc)
        return self._memo[key][1]
