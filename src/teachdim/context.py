"""One graph's shared parts, each built on first use and then kept: the
star and connected-set classes, ell(G), the vmax partition, the
containment orders the teachers use, and the VC-dimension and peeling
certificate of each class.  The checks, the teachers and the CLI read
them from one context, so a graph's parts are built once however many
of them run."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .concepts import ConceptClass
from .connected import build_con_class
from .dimensions import RtdCertificate, rtd, vcd
from .graphs import DEFAULT_ENUM_BUDGET, Graph, max_open_neighborhood
from .stars import VmaxPartition, build_star_class, vmax_partition
from .teaching import PreferenceRelation, subset_preferences, superset_preferences


@dataclass(frozen=True)
class GraphContext:
    """The parts of graph ``g``; ``budget`` bounds every enumeration and
    teaching-set search they need, and raises BudgetExceededError when
    hit."""

    g: Graph
    budget: int = DEFAULT_ENUM_BUDGET
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def star(self) -> ConceptClass:
        return build_star_class(self.g, budget=self.budget)

    @cached_property
    def _nonempty_con(self) -> ConceptClass:
        return build_con_class(self.g, False, budget=self.budget)

    @cached_property
    def _con_with_empty(self) -> ConceptClass:
        # the empty concept sorts first
        return ConceptClass(self.g.n, (0,) + self._nonempty_con.concepts)

    def con(self, include_empty: bool) -> ConceptClass:
        """The connected-set class under the given empty-set policy; both
        come from one enumeration."""
        return self._con_with_empty if include_empty else self._nonempty_con

    @cached_property
    def ell(self) -> int:
        """ell(G), read from the connected-set class."""
        return max_open_neighborhood(self.g, self._nonempty_con.concepts)

    @cached_property
    def part(self) -> VmaxPartition:
        return vmax_partition(self.g)

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

    def _once(self, name: str, cc: ConceptClass, compute):
        """compute(cc), kept by the class's identity; the entry holds
        the class, so its id is not reused while kept."""
        key = name, id(cc)
        if key not in self._memo:
            self._memo[key] = cc, compute(cc)
        return self._memo[key][1]
