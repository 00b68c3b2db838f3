"""Preference relations and preference-based teachers.

A preference relation is a strict partial order on concept indices,
stored transitively closed as per-concept "below" bitmasks, which makes
the verifier's "unique most preferred concept in the version space"
check a single mask expression per concept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .concepts import ConceptClass, agreeing, format_concept
from .dimensions import RtdCertificate
from .errors import PreferenceCycleError
from .graphs import bits, mask_of, set_of


@dataclass(frozen=True)
class PreferenceRelation:
    """Strict partial order; below[i] = concepts strictly less preferred
    than i.

    ``below`` must already be transitively closed: the constructor checks
    only its length, its range and irreflexivity.  The library's builders
    close their orders by construction; masks from anywhere else go
    through ``from_direct``, which closes them by Warshall's algorithm
    and rejects cycles.
    """

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

    @classmethod
    def from_direct(cls, direct) -> "PreferenceRelation":
        """Close one direct "below" mask per concept transitively, by
        Warshall's algorithm: for each concept k in turn, every row that
        holds k takes in row k.  Exactly the concepts on a cycle, a
        self-loop included, end up below themselves, and then it raises
        PreferenceCycleError."""
        below = list(direct)
        size = len(below)
        for mask in below:
            if mask < 0 or mask >> size:
                raise ValueError("below mask out of range")
        for k in range(size):
            bit, row = 1 << k, below[k]
            below = [m | row if m & bit else m for m in below]
        if any(m >> i & 1 for i, m in enumerate(below)):
            raise PreferenceCycleError("preference pairs contain a cycle")
        return cls(size, tuple(below))

    def is_preferred(self, i: int, j: int) -> bool:
        """True iff j is strictly less preferred than i."""
        return bool(self.below[i] >> j & 1)

    def pair_count(self) -> int:
        return sum(mask.bit_count() for mask in self.below)

    @cached_property
    def depths(self) -> tuple[int, ...]:
        """Longest chain strictly below each concept (preference level).

        Filled in order of increasing |below[i]|: in a closed irreflexive
        relation, j in below[i] implies below[j] is a proper subset of
        below[i], so every depth[j] it needs is already known.
        """
        depth = [0] * self.size
        for i in sorted(range(self.size), key=lambda i: self.below[i].bit_count()):
            depth[i] = max((depth[j] + 1 for j in bits(self.below[i])), default=0)
        return tuple(depth)


def subset_preferences(cc: ConceptClass) -> PreferenceRelation:
    """Strictly smaller concepts are preferred over their proper supersets."""
    return _containment(cc, 0)


def superset_preferences(cc: ConceptClass) -> PreferenceRelation:
    """Strictly larger concepts are preferred over their proper subsets."""
    return _containment(cc, (1 << cc.domain_size) - 1)


def _containment(cc: ConceptClass, flip: int) -> PreferenceRelation:
    """below[i] = the other concepts that agree with concept i on the
    instances of c_i XOR flip: with flip 0 those that hold every instance
    of c_i, its proper supersets; with flip the full domain those that
    lack every instance outside c_i, its proper subsets.  Containment is
    transitive, so the rows are closed as read."""
    tables, everything = cc.sample_tables, cc.all_indices_mask
    return PreferenceRelation(len(cc), tuple(
        agreeing(tables, c, c ^ flip, everything ^ 1 << i)
        for i, c in enumerate(cc.concepts)))


def lex_refine(pref: PreferenceRelation, keys) -> PreferenceRelation:
    """Refine a preference by an integer key on incomparable pairs.

    Adds (i preferred over j) for every pref-incomparable pair with
    keys[i] > keys[j], then recloses; raises PreferenceCycleError if the
    combination is no longer a strict partial order.  No teacher uses it:
    the boundary-size refinement it once served cycles on nearly every
    graph, so the matching teacher builds only the pairs it needs.
    """
    keys = list(keys)
    if len(keys) != pref.size:
        raise ValueError("one key per concept required")
    above = [0] * pref.size
    for i, mask in enumerate(pref.below):
        while mask:
            low = mask & -mask
            above[low.bit_length() - 1] |= 1 << i
            mask ^= low
    by_key: dict[int, int] = {}
    for i, key in enumerate(keys):
        by_key[key] = by_key.get(key, 0) | 1 << i
    lower: dict[int, int] = {}
    seen = 0
    for key in sorted(by_key):
        lower[key] = seen
        seen |= by_key[key]
    return PreferenceRelation.from_direct(
        pref.below[i] | (lower[keys[i]] & ~above[i]) for i in range(pref.size))


# ---------------------------------------------------------------------------
# Teachers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PBTeacher:
    """A teaching-set map together with the preference it relies on:
    teaching_masks[i] is concept i's teaching set as an instance mask."""

    concept_class: ConceptClass
    teaching_masks: tuple[int, ...]
    preference: PreferenceRelation

    def __post_init__(self):
        if len(self.teaching_masks) != len(self.concept_class):
            raise ValueError("one teaching set per concept required")
        if self.preference.size != len(self.concept_class):
            raise ValueError("preference size does not match class size")
        d, masks = self.concept_class.domain_size, self.teaching_masks
        if masks and (min(masks) < 0 or max(masks) >> d):
            # the loop names the first offending mask's lowest outsider
            for ts in masks:
                # a negative mask holds every instance from some point on
                outside = ts >> d << d
                if outside:
                    raise ValueError(f"instance {(outside & -outside).bit_length() - 1} "
                                     "outside the domain")

    @cached_property
    def teaching_sets(self) -> tuple[frozenset[int], ...]:
        """The teaching sets as frozensets of instances, built on first read."""
        return tuple(set_of(ts) for ts in self.teaching_masks)

    @property
    def order(self) -> int:
        """Largest teaching-set size over all concepts."""
        return max((ts.bit_count() for ts in self.teaching_masks), default=0)

    def order_over(self, indices) -> int:
        return max((self.teaching_masks[i].bit_count() for i in indices), default=0)


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
    tables, everything = cc.sample_tables, cc.all_indices_mask
    for i, (c, shown) in enumerate(zip(cc.concepts, teacher.teaching_masks)):
        # the version space of the sample outside below[i], which never
        # holds i: the masks were range-checked when the teacher was built
        vs = agreeing(tables, c, shown, everything ^ below[i])
        if vs != 1 << i:
            assert vs >> i & 1, "a concept is always consistent with its own sample"
            bad = vs & ~(1 << i)
            return False, (i, (bad & -bad).bit_length() - 1)
    return True, None


def plan_to_teacher(cert: RtdCertificate, cc: ConceptClass) -> PBTeacher:
    """Turn a peeling certificate into a preference-based teacher.

    Later-peeled concepts are preferred over earlier-peeled ones: a
    concept's teaching set only separates it from its own and later
    levels, so everything it leaves alive in the version space must rank
    strictly below it.  Teaching sets are the certificate's witnesses,
    taken unchecked.  With below[i] the earlier levels, the verifier's
    "nothing outside below[i] but i survives i's sample" says exactly
    that the witness leaves only i among the concepts still active at
    i's level, so ``verify_pb_teacher`` is the one check of the
    witnesses, and a witness that does not teach is a failed
    verification, not an exception here; the library's readers of the
    teacher (the plan-teacher check, ``teach``'s maximality line) verify
    it.  ``PBTeacher`` rejects a witness with instances outside the
    domain.
    """
    if cert.size != len(cc):
        raise ValueError("certificate does not match class size")
    below = [0] * len(cc)
    peeled = 0
    for level, _ in cert.levels:
        for i in level:
            below[i] = peeled
        peeled |= mask_of(level)
    return PBTeacher(cc, cert.witnesses, PreferenceRelation(len(cc), tuple(below)))


def format_sample(concept: int, shown: int, name) -> str:
    """The instances of mask ``shown`` labeled by ``concept``, in
    increasing order, each as name(x) followed by + or -; "(empty)" when
    nothing is shown."""
    toks = [f"{name(x)}{'+' if concept >> x & 1 else '-'}" for x in bits(shown)]
    return " ".join(toks) if toks else "(empty)"


def format_teacher(teacher: PBTeacher) -> str:
    """One line per concept: bit pattern, labeled teaching set, preference
    level (longest chain below the concept)."""
    cc = teacher.concept_class
    depths = teacher.preference.depths
    lines = []
    for c, shown, depth in zip(cc.concepts, teacher.teaching_masks, depths):
        lines.append(f"{format_concept(c, cc.domain_size)}\t"
                     f"{format_sample(c, shown, str)}\tlevel={depth}")
    return "\n".join(lines) + "\n"
