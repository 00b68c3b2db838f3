"""Preference relations and preference-based teachers.

A preference relation is a strict partial order on concept indices,
stored transitively closed as per-concept "below" bitmasks, which makes
the verifier's "unique most preferred concept in the version space"
check a single mask expression per concept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .concepts import ConceptClass, Sample, sample_of, version_space_mask
from .dimensions import RtdCertificate
from .errors import PreferenceCycleError
from .graphs import bits, mask_of, set_of


@dataclass(frozen=True)
class PreferenceRelation:
    """Strict partial order; below[i] = concepts strictly less preferred
    than i, transitively closed."""

    size: int
    below: tuple[int, ...]

    def __post_init__(self):
        if len(self.below) != self.size:
            raise ValueError("below length does not match size")
        full = (1 << self.size) - 1
        for i, mask in enumerate(self.below):
            if mask & ~full or mask < 0:
                raise ValueError("below mask out of range")
            if mask >> i & 1:
                raise PreferenceCycleError(f"concept {i} below itself")
        # transitivity (and with irreflexivity, antisymmetry) must hold:
        # below[j] lies inside below[i] for every j in below[i].  Checked
        # once per distinct mask against each group of concepts sharing a
        # below mask that meets it: at most |mask| steps, and one per
        # earlier level for a plan teacher's masks.
        members: dict[int, int] = {}
        for i, mask in enumerate(self.below):
            members[mask] = members.get(mask, 0) | 1 << i
        for mask in members:
            rest = mask
            while rest:
                other = self.below[(rest & -rest).bit_length() - 1]
                if other & ~mask:
                    raise ValueError("below masks are not transitively closed")
                rest &= ~members[other]

    @classmethod
    def empty(cls, size: int) -> "PreferenceRelation":
        return cls(size, (0,) * size)

    @classmethod
    def from_pairs(cls, size: int, pairs) -> "PreferenceRelation":
        """Build from (preferred, less_preferred) index pairs and close
        transitively; raises PreferenceCycleError on any cycle."""
        direct = [0] * size
        for hi, lo in pairs:
            if not (0 <= hi < size and 0 <= lo < size):
                raise ValueError("pair index out of range")
            if hi == lo:
                raise PreferenceCycleError(f"concept {hi} preferred over itself")
            direct[hi] |= 1 << lo
        order = _topological_order(size, direct)
        below = [0] * size
        for i in reversed(order):
            mask = direct[i]
            for j in bits(direct[i]):
                mask |= below[j]
            below[i] = mask
        return cls(size, tuple(below))

    def is_preferred(self, i: int, j: int) -> bool:
        """True iff j is strictly less preferred than i."""
        return bool(self.below[i] >> j & 1)

    def incomparable(self, i: int, j: int) -> bool:
        return i != j and not self.is_preferred(i, j) and not self.is_preferred(j, i)

    def pair_count(self) -> int:
        return sum(mask.bit_count() for mask in self.below)

    def maximal_in(self, index_mask: int) -> tuple[int, ...]:
        """Indices in the mask not less preferred than any other member."""
        idxs = list(bits(index_mask))
        out = []
        for i in idxs:
            if not any(self.below[k] >> i & 1 for k in idxs if k != i):
                out.append(i)
        return tuple(out)

    @cached_property
    def depths(self) -> tuple[int, ...]:
        """Longest chain strictly below each concept (preference level)."""
        memo: dict[int, int] = {}

        def depth(i: int) -> int:
            if i in memo:
                return memo[i]
            d = 0
            for j in bits(self.below[i]):
                d = max(d, depth(j) + 1)
            memo[i] = d
            return d

        return tuple(depth(i) for i in range(self.size))


def _topological_order(size: int, direct: list[int]) -> list[int]:
    state = [0] * size  # 0 unseen, 1 on stack, 2 done
    order: list[int] = []

    for root in range(size):
        if state[root]:
            continue
        stack = [(root, iter(bits(direct[root])))]
        state[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for u in it:
                if state[u] == 1:
                    raise PreferenceCycleError("preference pairs contain a cycle")
                if state[u] == 0:
                    state[u] = 1
                    stack.append((u, iter(bits(direct[u]))))
                    advanced = True
                    break
            if not advanced:
                state[v] = 2
                order.append(v)
                stack.pop()
    order.reverse()
    return order


def subset_preferences(cc: ConceptClass) -> PreferenceRelation:
    """Strictly smaller concepts are preferred over their proper supersets."""
    m = len(cc)
    below = [0] * m
    for i, ci in enumerate(cc.concepts):
        for j, cj in enumerate(cc.concepts):
            if i != j and ci & cj == ci:  # ci proper subset of cj
                below[i] |= 1 << j
    return PreferenceRelation(m, tuple(below))


def superset_preferences(cc: ConceptClass) -> PreferenceRelation:
    """Strictly larger concepts are preferred over their proper subsets."""
    m = len(cc)
    below = [0] * m
    for i, ci in enumerate(cc.concepts):
        for j, cj in enumerate(cc.concepts):
            if i != j and cj & ci == cj:  # cj proper subset of ci
                below[i] |= 1 << j
    return PreferenceRelation(m, tuple(below))


def lex_refine(pref: PreferenceRelation, keys, *,
               prefer_larger: bool = True) -> PreferenceRelation:
    """Refine a preference by an integer key on incomparable pairs.

    Adds (i preferred over j) for every pref-incomparable pair whose keys
    differ, then recloses; raises PreferenceCycleError if the combination
    is no longer a strict partial order.
    """
    keys = list(keys)
    if len(keys) != pref.size:
        raise ValueError("one key per concept required")
    pairs = []
    for i in range(pref.size):
        for j in bits(pref.below[i]):
            pairs.append((i, j))
    for i in range(pref.size):
        for j in range(i + 1, pref.size):
            if not pref.incomparable(i, j) or keys[i] == keys[j]:
                continue
            hi, lo = (i, j) if (keys[i] > keys[j]) == prefer_larger else (j, i)
            pairs.append((hi, lo))
    return PreferenceRelation.from_pairs(pref.size, pairs)


# ---------------------------------------------------------------------------
# Teachers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PBTeacher:
    """A teaching-set map together with the preference it relies on."""

    concept_class: ConceptClass
    teaching_sets: tuple[frozenset[int], ...]
    preference: PreferenceRelation

    def __post_init__(self):
        if len(self.teaching_sets) != len(self.concept_class):
            raise ValueError("one teaching set per concept required")
        if self.preference.size != len(self.concept_class):
            raise ValueError("preference size does not match class size")
        d = self.concept_class.domain_size
        for ts in self.teaching_sets:
            for x in ts:
                if not 0 <= x < d:
                    raise ValueError(f"instance {x} outside the domain")

    @property
    def order(self) -> int:
        """Largest teaching-set size over all concepts."""
        return max((len(ts) for ts in self.teaching_sets), default=0)

    def order_over(self, indices) -> int:
        return max((len(self.teaching_sets[i]) for i in indices), default=0)

    def sample_for(self, i: int) -> Sample:
        return sample_of(self.concept_class.concepts[i], self.teaching_sets[i])


def verify_pb_teacher(cc: ConceptClass, teacher: PBTeacher
                      ) -> tuple[bool, tuple[int, int] | None]:
    """Check that every concept is the unique most preferred member of the
    version space its sample induces.

    Returns (True, None) or (False, (concept, offender)) for the
    lexicographically first violation.
    """
    if teacher.concept_class != cc:
        raise ValueError("teacher was built for a different class")
    below = teacher.preference.below
    for i in range(len(cc)):
        vs = version_space_mask(cc, teacher.sample_for(i))
        assert vs >> i & 1, "a concept is always consistent with its own sample"
        bad = vs & ~below[i] & ~(1 << i)
        if bad:
            return False, (i, (bad & -bad).bit_length() - 1)
    return True, None


def verify_smgk_teacher(cc: ConceptClass, teaching_sets) -> bool:
    """Classic teacher check: each sample must pin down its concept alone."""
    sets = tuple(frozenset(ts) for ts in teaching_sets)
    teacher = PBTeacher(cc, sets, PreferenceRelation.empty(len(cc)))
    ok, _ = verify_pb_teacher(cc, teacher)
    return ok


def plan_to_teacher(cert: RtdCertificate, cc: ConceptClass) -> PBTeacher:
    """Turn a peeling certificate into a preference-based teacher.

    Later-peeled concepts are preferred over earlier-peeled ones: a
    concept's teaching set only separates it from its own and later
    levels, so everything it leaves alive in the version space must rank
    strictly below it.  Teaching sets are the certificate's witnesses,
    each checked to teach its concept against its residual class.
    """
    if cert.size != len(cc):
        raise ValueError("certificate does not match class size")
    below = [0] * len(cc)
    sets: list[frozenset[int]] = [frozenset()] * len(cc)
    peeled = 0
    for level, _ in cert.levels:
        active = cc.all_indices_mask & ~peeled
        for i in level:
            witness = cert.witnesses[i]
            c = cc.concepts[i]
            sample = Sample(c & witness, witness & ~c)
            if version_space_mask(cc, sample) & active != 1 << i:
                raise ValueError(f"certificate witness does not teach concept {i} "
                                 "against its residual class")
            sets[i] = set_of(witness)
            below[i] = peeled
        peeled |= mask_of(level)
    return PBTeacher(cc, tuple(sets), PreferenceRelation(len(cc), tuple(below)))


def format_teacher(teacher: PBTeacher) -> str:
    """One line per concept: bit pattern, labeled teaching set, preference
    level (longest chain below the concept)."""
    from .concepts import format_concept

    cc = teacher.concept_class
    depths = teacher.preference.depths
    lines = []
    for i in range(len(cc)):
        s = teacher.sample_for(i)
        toks = [f"{x}{'+' if lab else '-'}" for x, lab in s.pairs()]
        body = " ".join(toks) if toks else "(empty)"
        lines.append(
            f"{format_concept(cc.concepts[i], cc.domain_size)}\t{body}\tlevel={depths[i]}"
        )
    return "\n".join(lines) + "\n"
