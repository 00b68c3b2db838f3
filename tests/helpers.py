"""Shared test machinery: the graph, tree, class, sample and teacher
helpers that only tests use (neighborhoods as sets, open neighborhoods
as masks, ell as the largest
open neighborhood over given sets, neighborhood spanning trees, text
writers, the (pos, neg) sample type, powersets, unions and restrictions,
version spaces, the classic teacher check), the class corpora of the
teaching-set kernel's tests, exhaustive graph/tree
enumeration, the vectorized all-graphs max-leaf
sweeps used by the acceptance suite and the max-leaf oracle's
differential test, the pair-list preference closure that mask-built
preferences are checked against, the direct masks that the star
special and matching teachers' closed orders are checked against, the
recursive spanning-tree
enumerator that the pruned max-leaf oracle is checked against on
graphs too large for the sweeps, the oracle's search without its
degree cap, relabeling with label-free check
results for the invariance tests, the shared-parts graph corpus of the
teacher and closure tests, the plain connected-set walk that the
boundary walk is checked against, the plain teaching-set walk that the
forced search is checked against, the peeling loop that rescans every
count at every level, which rtd's per-count candidate lists are checked
against, the certifier that checks RTD, TD
and VCD answers from both sides without the kernels, false peeling
certificates for the eq6 and mutant tests, the teacher verifier and the class and
teacher validators one element at a time, which the library's
whole-sequence versions are checked against, and the benchmark's
workload definitions, loaded read-only."""

from __future__ import annotations

import dataclasses
import heapq
import functools
import importlib.util
import itertools
import operator
import random
import re
import sys
from pathlib import Path

import numpy as np

from teachdim.concepts import ConceptClass, agreeing, format_concept, version_space_mask
from teachdim.connected import build_con_class
import teachdim.dimensions as dimensions
from teachdim.dimensions import RtdCertificate
from teachdim.errors import (
    BudgetExceededError,
    PreferenceCycleError,
    TeacherPreconditionError,
)
from teachdim.families import complete_graph, cycle_graph, fig2, path_graph, random_graph
from teachdim.graphs import (
    DEFAULT_ENUM_BUDGET,
    Graph,
    Tree,
    _as_mask,
    bfs_tree_edges,
    bits,
    closed_neighborhood_mask,
    component_mask,
    components,
    graph_from_edges,
    is_connected,
    mask_of,
    set_of,
    spanned_subgraph,
)
from teachdim.stars import build_star_class
from teachdim.teaching import PBTeacher, PreferenceRelation, verify_pb_teacher


# ---------------------------------------------------------------------------
# Graphs and trees
# ---------------------------------------------------------------------------

def closed_neighborhood(g: Graph, x) -> frozenset[int]:
    """N(X) = union over x in X of (neighbors of x plus x itself)."""
    return set_of(closed_neighborhood_mask(g, _as_mask(g, x)))


def open_neighborhood_mask(g: Graph, xmask: int) -> int:
    """N(X) minus X for the vertex set X given as a mask."""
    return closed_neighborhood_mask(g, xmask) & ~xmask


def open_neighborhood(g: Graph, x) -> frozenset[int]:
    """N(X) minus X: the vertices outside X adjacent to some member."""
    return set_of(open_neighborhood_mask(g, _as_mask(g, x)))


def max_open_neighborhood(g: Graph, masks) -> int:
    """The largest |N(X) minus X| over the vertex sets X in ``masks``; the
    empty set, like an empty iterable, gives 0.

    Over the nonempty connected sets this is ell(G).  The library reads
    ell from the boundaries of connected_set_boundaries; this form is the
    independent check of it.
    """
    return max((open_neighborhood_mask(g, x).bit_count() for x in masks),
               default=0)


def tree_degree(t: Tree, v: int) -> int:
    return sum(1 for u, w in t.edges if v in (u, w))


def interior(t: Tree) -> int:
    return t.vertices & ~t.leaves()


def leaf_count(t: Tree) -> int:
    return t.leaves().bit_count()


def is_subgraph_of(t: Tree, g: Graph) -> bool:
    if t.n != g.n:
        return False
    return all(g.adj[u] >> v & 1 for u, v in t.edges)


def neighborhood_spanning_tree(g: Graph, x) -> Tree:
    """Spanning tree of the subgraph spanned by N(X) in which every vertex
    of the open neighborhood of X is a leaf.

    Built by taking a BFS spanning tree of the subgraph spanned by X
    (rooted at the smallest index) and then hanging each outside neighbor
    off its smallest-index contact in X.
    """
    xmask = _as_mask(g, x)
    if xmask == 0:
        raise ValueError("X must be nonempty")
    if not is_connected(g, xmask):
        raise ValueError("X must be connected")
    root = (xmask & -xmask).bit_length() - 1
    seen, edges = bfs_tree_edges(g, root, xmask)
    assert seen == xmask
    closed = closed_neighborhood_mask(g, xmask)
    for y in bits(closed & ~xmask):
        contact = (g.adj[y] & xmask)
        v = (contact & -contact).bit_length() - 1
        edges.append((min(v, y), max(v, y)))
    return Tree(g.n, closed, frozenset(edges))


def extend_to_spanning_tree(g: Graph, t: Tree) -> Tree:
    """Grow t into a spanning tree of its component without losing leaves.

    Edges are added greedily (smallest tree vertex, then smallest new
    vertex).  When t already has the maximum possible number of leaves,
    the result is t plus paths hanging off t's leaves; the test suite
    asserts that property.
    """
    if not is_subgraph_of(t, g):
        raise ValueError("tree is not a subgraph of the graph")
    tmask = t.vertices
    start = (tmask & -tmask).bit_length() - 1
    comp = component_mask(g, start, g.full_mask)
    if tmask & ~comp:
        raise ValueError("tree does not lie in one component of the graph")
    edges = set(t.edges)
    while tmask != comp:
        added = False
        for v in bits(tmask):
            out = g.adj[v] & comp & ~tmask
            if out:
                u = (out & -out).bit_length() - 1
                edges.add((min(u, v), max(u, v)))
                tmask |= 1 << u
                added = True
                break
        assert added
    return Tree(g.n, comp, frozenset(edges))


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def write_graph(g: Graph, path) -> None:
    Path(path).write_text(format_graph(g))


# ---------------------------------------------------------------------------
# Samples, classes and teachers
# ---------------------------------------------------------------------------

MAX_POWERSET_DOMAIN = 16


@dataclasses.dataclass(frozen=True)
class Sample:
    """A set of labeled instances: pos/neg are disjoint bitmasks."""

    pos: int = 0
    neg: int = 0

    def __post_init__(self):
        if self.pos < 0 or self.neg < 0:
            raise ValueError("sample masks must be nonnegative")
        if self.pos & self.neg:
            raise ValueError("contradictory sample: instance labeled both + and -")

    def pairs(self) -> tuple[tuple[int, bool], ...]:
        out = [(x, True) for x in bits(self.pos)] + [(x, False) for x in bits(self.neg)]
        return tuple(sorted(out))


def sample_of(concept: int, shown: int) -> Sample:
    """The sample a teacher presents: the instances of mask ``shown``
    labeled by ``concept``."""
    return Sample(concept & shown, shown & ~concept)


def sample_from_pairs(pairs) -> Sample:
    """Build from (instance, label) pairs; label is a bool or '+'/'-'."""
    pos = neg = 0
    for x, label in pairs:
        if label in (True, "+"):
            b = True
        elif label in (False, "-"):
            b = False
        else:
            raise ValueError(f"bad label {label!r}")
        bit = 1 << x
        if (pos | neg) & bit:
            if bool(pos & bit) != b:
                raise ValueError(f"contradictory labels for instance {x}")
            continue
        if b:
            pos |= bit
        else:
            neg |= bit
    return Sample(pos, neg)


def sample_union(s: Sample, other: Sample) -> Sample:
    return Sample(s.pos | other.pos, s.neg | other.neg)


def sample_size(s: Sample) -> int:
    return (s.pos | s.neg).bit_count()


def concept_set(cc: ConceptClass, i: int) -> frozenset[int]:
    return set_of(cc.concepts[i])


def powerset_class(domain_size: int) -> ConceptClass:
    """All subsets of the domain, as a class."""
    if domain_size > MAX_POWERSET_DOMAIN:
        raise ValueError(f"powerset domain capped at {MAX_POWERSET_DOMAIN}")
    if domain_size < 0:
        raise ValueError("domain size must be nonnegative")
    return ConceptClass(domain_size, tuple(range(1 << domain_size)))


def is_consistent(concept: int, s: Sample) -> bool:
    """True iff the concept reproduces every label of the sample."""
    return (concept & s.pos) == s.pos and (concept & s.neg) == 0


def version_space(cc: ConceptClass, s: Sample) -> tuple[int, ...]:
    """Indices of all concepts consistent with the sample, ascending."""
    return tuple(bits(version_space_mask(cc, s.pos, s.neg)))


def disjoint_union(classes) -> ConceptClass:
    """Union of classes over concatenated (disjoint) domains.

    Each concept keeps label - outside its origin block.  If several
    blocks contain the all-negative concept, one copy survives: a class
    is a set of concepts.
    """
    classes = list(classes)
    offsets = []
    total = 0
    for cc in classes:
        offsets.append(total)
        total += cc.domain_size
    masks = set()
    for cc, off in zip(classes, offsets):
        for c in cc.concepts:
            masks.add(c << off)
    return ConceptClass.from_masks(total, masks)


def restrict(cc: ConceptClass, instances) -> ConceptClass:
    """Project every concept onto the instance set and deduplicate.

    The surviving instances are reindexed in increasing original order.
    """
    smask = instances if isinstance(instances, int) else mask_of(instances)
    if smask >> cc.domain_size:
        raise ValueError("instance set outside the domain")
    kept = tuple(bits(smask))
    masks = set()
    for c in cc.concepts:
        m = 0
        for new_i, old_i in enumerate(kept):
            if c >> old_i & 1:
                m |= 1 << new_i
        masks.add(m)
    return ConceptClass.from_masks(len(kept), masks)


def edgeless_class() -> ConceptClass:
    """The even-weight subsets of 5 instances: no two concepts differ in
    exactly one instance, so every forced set is empty."""
    return ConceptClass.from_masks(
        5, [c for c in range(32) if c.bit_count() % 2 == 0])


def engine_corpus() -> list[ConceptClass]:
    """Powersets, cycle stars, path connected sets, random classes,
    random star classes and a class without one-inclusion edges."""
    rng = random.Random(31)
    classes = [powerset_class(d) for d in range(5)]
    classes += [build_star_class(cycle_graph(n)) for n in range(3, 8)]
    classes += [build_con_class(path_graph(n), True) for n in range(2, 7)]
    for trial in range(30):
        d = rng.randint(1, 6)
        size = rng.randint(1, min(25, 1 << d))
        classes.append(ConceptClass.from_masks(
            d, rng.sample(range(1 << d), size)))
    for i in range(10):
        g = random_graph(8, 0.5, seed=3, index=i)
        classes.append(build_star_class(g))
    classes.append(edgeless_class())
    return classes


def wide_sparse_classes(seed: int, count: int) -> list[ConceptClass]:
    """``count`` seeded random classes of 40-120 concepts over 12-16
    instances, built as clusters of one-flip neighbours: few
    one-inclusion edges, so most teaching-set searches walk."""
    rng = random.Random(seed)
    classes = []
    for _ in range(count):
        d, size = rng.randint(12, 16), rng.randint(40, 120)
        masks = set()
        while len(masks) < size:
            c = rng.getrandbits(d)
            for x in [None] + rng.sample(range(d), rng.randint(0, 4)):
                if len(masks) < size:
                    masks.add(c if x is None else c ^ 1 << x)
        classes.append(ConceptClass.from_masks(d, masks))
    return classes


def format_class(cc: ConceptClass) -> str:
    lines = [f"{len(cc.concepts)} {cc.domain_size}"]
    lines.extend(format_concept(c, cc.domain_size) for c in cc.concepts)
    return "\n".join(lines) + "\n"


def write_class(cc: ConceptClass, path) -> None:
    Path(path).write_text(format_class(cc))


def empty_preference(size: int) -> PreferenceRelation:
    return PreferenceRelation(size, (0,) * size)


def verify_smgk_teacher(cc: ConceptClass, teaching_masks) -> bool:
    """Classic teacher check: each sample, given by its instance mask,
    must pin down its concept alone."""
    teacher = PBTeacher(cc, tuple(teaching_masks), empty_preference(len(cc)))
    ok, _ = verify_pb_teacher(cc, teacher)
    return ok


def reference_verify_pb_teacher(cc: ConceptClass, teacher: PBTeacher):
    """``verify_pb_teacher`` by its definition: the version space of each
    concept's sample over the whole class, then its first member that
    is neither the concept nor below it."""
    if teacher.concept_class != cc:
        raise ValueError("teacher was built for a different class")
    below = teacher.preference.below
    tables, everything = cc.sample_tables, cc.all_indices_mask
    for i, (c, shown) in enumerate(zip(cc.concepts, teacher.teaching_masks)):
        vs = agreeing(tables, c, shown, everything)
        assert vs >> i & 1, "a concept is always consistent with its own sample"
        bad = vs & ~below[i] & ~(1 << i)
        if bad:
            return False, (i, (bad & -bad).bit_length() - 1)
    return True, None


def reference_class_check(domain_size: int, concepts) -> None:
    """``ConceptClass``'s validation of its concepts, one concept at a
    time: raises its ValueError for the first fault in concept order."""
    full = (1 << domain_size) - 1
    prev = -1
    for c in concepts:
        if c & ~full or c < 0:
            raise ValueError("concept wider than the domain")
        if c <= prev:
            raise ValueError("concepts must be strictly increasing (deduplicated)")
        prev = c


def reference_mask_check(domain_size: int, masks) -> None:
    """``PBTeacher``'s validation of its teaching masks, one mask at a
    time: raises its ValueError naming the lowest instance outside the
    domain of the first mask that has one."""
    for ts in masks:
        outside = ts >> domain_size << domain_size
        if outside:
            raise ValueError(f"instance {(outside & -outside).bit_length() - 1} "
                             "outside the domain")


# ---------------------------------------------------------------------------
# The certifier
# ---------------------------------------------------------------------------


def certify(cc: ConceptClass, cert, tds, vc) -> list[str]:
    """Check the peeling certificate ``cert``, the ``td_of`` answers
    ``tds`` (size, witness mask) of every concept and the ``vcd`` answer
    ``vc`` (value, witness set) of ``cc`` exhaustively, by code that
    shares nothing with the library's kernels.  Returns the failures
    found; an empty list certifies.

    Each answer is checked from both sides, and one size suffices each
    time, since a superset of a teaching set also teaches and every
    subset of a shattered set is shattered:

    * RTD: every level's witnesses have the level's size and teach their
      concepts against the concepts still active there.  At A*, the
      active set at the first level whose value is ``cert.rtd``, no set
      one smaller teaches any member, so TD_min(A*) = rtd; as RTD is the
      largest TD_min over subclasses, RTD >= rtd.
    * TD: concept i's witness has k instances and teaches i against the
      class; no (k-1)-set does.
    * VCD: the witness has v instances and is shattered; no (v+1)-set is.
    """
    concepts, d = cc.concepts, cc.domain_size
    problems = []

    def teaches(s, c, members):
        """Whether labeling the instances of s by c leaves c alone among
        the members."""
        return list(map(s.__and__, members)).count(c & s) == 1

    def hit(masks, k):
        """Whether at most k instances meet every mask in ``masks``; each
        branch adds an instance of a smallest mask not met yet, as one
        must."""
        if not masks:
            return True
        if k <= 1:
            return k == 1 and functools.reduce(operator.and_, masks) != 0
        low = min(masks, key=int.bit_count)
        while low:
            bit = low & -low
            if hit(list(itertools.filterfalse(bit.__and__, masks)), k - 1):
                return True
            low ^= bit
        return False

    def taught_by_fewer(c, members, k):
        """Whether fewer than k instances teach c among ``members``, a
        set: whether they meet c's difference from every other member.
        The instances that tell c from a member one flip away are forced."""
        forced = sum(1 << x for x in range(d) if c ^ 1 << x in members)
        if forced.bit_count() >= k:
            return False
        rest = list(itertools.filterfalse(forced.__and__, map(c.__xor__, members)))
        rest.remove(0)  # c's own
        return hit(rest, k - 1 - forced.bit_count())

    def shattered(s):
        return len({c & s for c in concepts}) == 1 << s.bit_count()

    if cert.rtd != max(value for _, value in cert.levels):
        problems.append(f"rtd {cert.rtd} is not the largest level value")
    active = set(range(len(concepts)))
    a_star = None
    for level, value in cert.levels:
        members = [concepts[j] for j in sorted(active)]
        if a_star is None and value == cert.rtd:
            a_star = set(members)
        for i in level:
            w = cert.witnesses[i]
            if w.bit_count() != value or not teaches(w, concepts[i], members):
                problems.append(f"level witness {w:#x} of concept {i} does not "
                                f"teach it with {value} instances")
        active -= level
    if a_star and any(taught_by_fewer(c, a_star, cert.rtd) for c in a_star):
        problems.append(f"fewer than rtd {cert.rtd} instances teach a member of A*")

    everyone = set(concepts)
    for i, (k, w) in enumerate(tds):
        if w.bit_count() != k or not teaches(w, concepts[i], concepts):
            problems.append(f"td witness {w:#x} of concept {i} does "
                            f"not teach it with {k} instances")
        if taught_by_fewer(concepts[i], everyone, k):
            problems.append(f"fewer than td {k} instances teach concept {i}")

    v, witness = vc
    if len(witness) != v or not shattered(sum(1 << x for x in witness)):
        problems.append(f"vcd witness {sorted(witness)} of size {v} is not shattered")
    for combo in itertools.combinations(range(d), v + 1):
        if shattered(sum(1 << x for x in combo)):
            problems.append(f"{sorted(combo)} is shattered, past vcd {v}")
            break
    return problems


def lowest_instance_certificate(cert: RtdCertificate) -> RtdCertificate:
    """``cert`` with each witness replaced by the lowest instances of its
    level's size: it passes the certificate's own checks, but its
    witnesses mostly do not teach."""
    witnesses = list(cert.witnesses)
    for level, value in cert.levels:
        for i in level:
            witnesses[i] = (1 << value) - 1
    return dataclasses.replace(cert, witnesses=tuple(witnesses))


def understated_certificate(cert: RtdCertificate) -> RtdCertificate:
    """``cert`` claiming one too few: each level of value rtd drops to
    rtd - 1 and its witnesses lose their highest instance."""
    r = cert.rtd
    witnesses = list(cert.witnesses)
    levels = []
    for level, value in cert.levels:
        if value == r:
            for i in level:
                witnesses[i] ^= 1 << witnesses[i].bit_length() - 1
            value = r - 1
        levels.append((level, value))
    return RtdCertificate(cert.size, tuple(levels), r - 1, tuple(witnesses))


def overstated_certificate(cert: RtdCertificate, domain_size: int
                           ) -> RtdCertificate:
    """``cert`` claiming one too many: each level of value rtd rises to
    rtd + 1 and its witnesses gain their lowest unused instance, so they
    still teach.  When a top-level witness already holds every instance,
    ``cert`` comes back as it is."""
    r, full = cert.rtd, (1 << domain_size) - 1
    witnesses = list(cert.witnesses)
    levels = []
    for level, value in cert.levels:
        if value == r:
            for i in level:
                unused = full & ~witnesses[i]
                if not unused:
                    return cert
                witnesses[i] |= unused & -unused
            value = r + 1
        levels.append((level, value))
    return RtdCertificate(cert.size, tuple(levels), r + 1, tuple(witnesses))


# ---------------------------------------------------------------------------
# Teaching sets, preference closure and spanning trees by reference
# algorithms
# ---------------------------------------------------------------------------

def plain_teaching_sets(cc: ConceptClass, active: int, targets: int):
    """Yield (k, {i: D}) for increasing k: the targets whose smallest
    teaching sets against the active concepts have k instances, each
    with its smallest-valued such mask D, from a plain walk over every
    k-set of the domain that ignores the one-inclusion graph.  The
    reference that the forced search of ``dimensions._teaching_sets_at``
    is checked against."""
    if active & (active - 1) == 0:
        yield 0, {active.bit_length() - 1: 0}
        return
    for k in range(1, cc.domain_size + 1):
        found = _plain_unique_traces(cc, active, targets, k)
        if found:
            yield k, found
            for i in found:
                targets ^= 1 << i
            if not targets:
                return
    raise AssertionError("teaching-set search passed the domain size")


def _indices(size: list[int], s: int) -> list[int]:
    """The indices i with size[i] == s, in increasing order."""
    found, i = [], -1
    for _ in range(size.count(s)):
        i = size.index(s, i + 1)
        found.append(i)
    return found


def rescanning_teaching_sets(cc: ConceptClass, active: int, work, forced,
                             size: list[int]):
    """Yield (k, {i: D}) for increasing k, as
    ``dimensions._teaching_sets_at`` settles the targets against the
    active concepts, each k's candidates found by rescanning every
    count: the direct checks are the indices with size[i] == k and the
    walkers the unsettled ones below k, both in increasing order.

    ``forced`` and ``size`` are as ``_teaching_sets_at`` reads them, with
    domain_size + 1 in ``size`` for every concept that is not a target;
    a target found at k is given that count once its level is yielded.
    The reference that rtd's per-count candidate lists are checked
    against."""
    if active & (active - 1) == 0:
        # a lone concept needs no examples
        yield 0, {active.bit_length() - 1: 0}
        return
    gone = cc.domain_size + 1
    start = min(size)
    walkers = [] if start else _indices(size, 0)
    for k in range(start or 1, gone):
        due = _indices(size, k)
        found = dimensions._teaching_sets_at(
            cc, active, k, due + walkers, forced, size, work,
            len(size) - size.count(gone))
        if found:
            yield k, found
            for i in found:
                size[i] = gone
            if min(size) == gone:
                return
        walkers = sorted(i for i in walkers + due if size[i] < gone)
    raise AssertionError("teaching-set search passed the domain size")


def rescanning_rtd(cc: ConceptClass, *, budget: int = DEFAULT_ENUM_BUDGET):
    """(certificate, walk nodes) of the peeling recursion, each level the
    first of ``rescanning_teaching_sets`` against the concepts still
    active; F_i and |F_i| are kept across levels by one update per
    one-inclusion edge, as rtd keeps them.  Raises rtd's refusal, whose
    ``work`` holds the walk nodes."""
    active = cc.all_indices_mask
    levels = []
    witnesses = [0] * len(cc)
    forced = list(cc.neighbour_masks)
    size = [f.bit_count() for f in forced]
    gone = cc.domain_size + 1
    work = dimensions._Work("teaching-set search (rtd)", budget)
    while active:
        low, found = next(rescanning_teaching_sets(cc, active, work, forced,
                                                   size))
        levels.append((frozenset(found), low))
        for i, witness in found.items():
            witnesses[i] = witness
            active ^= 1 << i
            size[i] = gone
            c, f = cc.concepts[i], forced[i]
            while f:
                flip = f & -f
                j = cc.index[c ^ flip]
                forced[j] ^= flip
                size[j] -= 1
                f ^= flip
    value = max(v for _, v in levels)
    return (RtdCertificate(len(cc), tuple(levels), value, tuple(witnesses)),
            work.done)


def _plain_unique_traces(cc: ConceptClass, active: int, targets: int,
                         k: int) -> dict[int, int]:
    """{i: D} for every target i that some k-instance set D teaches
    against the active concepts, D the smallest-valued such mask.

    Walks the k-sets in increasing mask order by choosing the largest
    instance first (colex order, which is integer order), splitting each
    block of the partition of ``active`` by the chosen instance's column
    and dropping blocks that hold no unfound target.  The last instance
    only has to cut a target off on its own, so its level runs inside
    the loop of the level above it (k = 1 is one flat scan).  Stops once
    every target has a set.

    Precondition: k >= 1 and no target has a teaching set of fewer than
    k instances against ``active``.  Only then may an instance that
    splits no block be skipped: a k-set through it that isolated a
    target would isolate it without that instance too."""
    cols = cc.instance_columns
    found: dict[int, int] = {}
    left = targets

    if k == 1:
        for x in range(cc.domain_size):
            inner = active & cols[x]
            rest = active ^ inner
            for b in (inner, rest) if inner and rest else ():
                if b & (b - 1) == 0 and b & left:
                    found[b.bit_length() - 1] = 1 << x
                    left ^= b
            if not left:
                break
        return found

    def walk(blocks: list[int], top: int, depth: int, dmask: int) -> bool:
        nonlocal left
        for x in range(depth - 1, top):
            col = cols[x]
            parts = []
            split = False
            for b in blocks:
                inner = b & col
                if inner and inner != b:
                    split = True
                    if inner & left:
                        parts.append(inner)
                    inner ^= b
                    if inner & left:
                        parts.append(inner)
                elif b & left:
                    parts.append(b)
            if not split or not parts:
                continue
            if depth > 2:
                if walk(parts, x, depth - 1, dmask | 1 << x):
                    return True
                continue
            # last level: instance y < x completes the set
            for y in range(x):
                col = cols[y]
                for b in parts:
                    inner = b & col
                    if not inner or inner == b:
                        continue
                    if inner & (inner - 1) == 0 and inner & left:
                        found[inner.bit_length() - 1] = dmask | 1 << x | 1 << y
                        left ^= inner
                    inner ^= b
                    if inner & (inner - 1) == 0 and inner & left:
                        found[inner.bit_length() - 1] = dmask | 1 << x | 1 << y
                        left ^= inner
                if not left:
                    return True
        return False

    walk([active], cc.domain_size, k, 0)
    return found


def pair_closure(size: int, pairs) -> tuple[int, ...]:
    """Below masks of the transitive closure of (preferred, less
    preferred) index pairs, by iterating to a fixpoint; raises
    PreferenceCycleError when some concept ends up below itself."""
    below = [0] * size
    for hi, lo in pairs:
        below[hi] |= 1 << lo
    changed = True
    while changed:
        changed = False
        for i in range(size):
            mask = below[i]
            for j in bits(below[i]):
                mask |= below[j]
            if mask != below[i]:
                below[i] = mask
                changed = True
    if any(below[i] >> i & 1 for i in range(size)):
        raise PreferenceCycleError("pairs contain a cycle")
    return tuple(below)


def direct_special_teacher(ctx):
    """The star special teacher's teaching masks and direct "below"
    masks as built before its order was closed by construction: each
    concept is matched against every group's fringe, and a special row
    holds the lower member counts of every group whose fringe it
    contains.  Raises the teacher's precondition refusal."""
    part = ctx.part
    value, witness = ctx.fringe_cover
    if value != part.delta:
        raise TeacherPreconditionError(
            "an external vertex covers a fringe; the order-Delta construction "
            f"does not apply (witness {witness})"
        )
    cc, groups = ctx.star, part.groups
    special = 0
    by_count: list[dict[int, int]] = [{} for _ in groups]
    scopes_of, masks = [], []
    for i, c in enumerate(cc.concepts):
        scopes = tuple(gi for gi, grp in enumerate(groups)
                       if c & grp.fringe == grp.fringe)
        scopes_of.append(scopes)
        if scopes:
            grp = groups[scopes[0]]
            masks.append(grp.fringe | (grp.members & ~c))
            special |= 1 << i
            for gi in scopes:
                k = (c & groups[gi].members).bit_count()
                by_count[gi][k] = by_count[gi].get(k, 0) | 1 << i
        else:
            masks.append(c)
    supersets = ctx.star_pref.below
    direct = []
    for i, scopes in enumerate(scopes_of):
        if not scopes:
            direct.append(special | supersets[i])
            continue
        mask = 0
        for gi in scopes:
            k = (cc.concepts[i] & groups[gi].members).bit_count()
            for count, concepts in by_count[gi].items():
                if count < k:
                    mask |= concepts
        direct.append(mask)
    return masks, direct


def direct_matching_preference(ctx):
    """The matching teacher's direct "below" masks as built before its
    order was closed by construction: larger-sets-first, and each
    full-boundary set over its whole version space.  Raises the
    teacher's refusals for its precondition and for jointly infeasible
    pure-negative samples."""
    g, ell, cc, boundary = ctx.g, ctx.ell, ctx.con(True), ctx.boundaries
    value, witness = ctx.vcd(cc)
    if value != ell:
        raise TeacherPreconditionError(
            f"VC-dimension {value} exceeds max-leaf number {ell} "
            f"(shattered witness {sorted(witness)}); the order-{ell} "
            "construction does not apply"
        )
    full_boundary = [i for i, c in enumerate(cc.concepts)
                     if c and boundary[c].bit_count() == ell]
    for ai, i in enumerate(full_boundary):
        ci = cc.concepts[i]
        for j in full_boundary[ai + 1:]:
            cj = cc.concepts[j]
            if ci & boundary[cj] == 0 and cj & boundary[ci] == 0 and ci & cj == 0:
                raise TeacherPreconditionError(
                    "pure-negative teaching sets are jointly infeasible: "
                    f"{g.vertex_names(ci)} and {g.vertex_names(cj)} each "
                    "survive the other's sample"
                )
    direct = list(ctx.con_pref.below)
    for i in full_boundary:
        vs = version_space_mask(cc, 0, boundary[cc.concepts[i]])
        direct[i] |= vs & ~(1 << i)
    return direct


def closed_direct_matching_preference(ctx) -> tuple[int, ...]:
    """``direct_matching_preference`` closed by ``from_direct``.  A cycle
    raises PreferenceCycleError: the matching teacher has no refusal for
    one, since its pairs cannot cycle once they are feasible (see
    ``_matching_preference``)."""
    return PreferenceRelation.from_direct(direct_matching_preference(ctx)).below


def reference_spanning_trees(g):
    """Spanning trees of a connected graph as edge tuples, by recursive
    edge inclusion/exclusion over g.edges() (include first) with a
    union-find cycle test."""
    if g.n == 1:
        yield ()
        return
    edge_list = g.edges()
    need = g.n - 1

    def find(parent, v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def rec(idx, chosen, parent):
        if len(chosen) == need:
            yield tuple(chosen)
            return
        if len(edge_list) - idx < need - len(chosen):
            return
        u, v = edge_list[idx]
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            child = parent.copy()
            child[max(ru, rv)] = min(ru, rv)
            chosen.append((u, v))
            yield from rec(idx + 1, chosen, child)
            chosen.pop()
        yield from rec(idx + 1, chosen, parent)

    yield from rec(0, [], list(range(g.n)))


def uncapped_max_leaf_number(g: Graph) -> int:
    """graphs.max_leaf_number_exhaustive without its degree cap: the same
    branch and bound, whose walk stops early only once the best tree
    reaches n - 1 leaves and otherwise exhausts every branch."""
    best = 0
    for comp in components(g):
        if comp.bit_count() < 2:
            continue
        sub, _ = spanned_subgraph(g, comp)
        n = sub.n
        root = max(range(n), key=lambda v: sub.adj[v].bit_count())
        touched = inner = 0
        for u, v in bfs_tree_edges(sub, root, sub.full_mask)[1]:
            ends = 1 << u | 1 << v
            inner |= touched & ends
            touched |= ends
        best = max(best, n - inner.bit_count())
        edge_list = sub.edges()
        m = len(edge_list)
        need = n - 1
        stack = [(0, 0, list(range(n)), 0, 0)]
        while stack and best < n - 1:
            idx, depth, comp_of, touched, inner = stack.pop()
            bound = n - inner.bit_count()
            while bound > best and depth < need and m - idx >= need - depth:
                u, v = edge_list[idx]
                idx += 1
                cu, cv = comp_of[u], comp_of[v]
                if cu != cv:
                    stack.append((idx, depth, comp_of, touched, inner))
                    lo, hi = (cu, cv) if cu < cv else (cv, cu)
                    comp_of = [lo if c == hi else c for c in comp_of]
                    ends = 1 << u | 1 << v
                    inner |= touched & ends
                    touched |= ends
                    depth += 1
                    bound = n - inner.bit_count()
            if depth == need and bound > best:
                best = bound
    return best


def graph_of_edge_mask(n: int, mask: int):
    """The labeled graph on n vertices whose edges are the pairs (u, v),
    u < v in lexicographic order, selected by ``mask``: the encoding of
    the vectorized sweeps' graph index."""
    pairs = list(itertools.combinations(range(n), 2))
    return graph_from_edges(
        n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def relabel(g, perm):
    """The same graph with vertex v renamed perm[v]."""
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


VERTEX_LIST = re.compile(r"\[[\d, ]*\]")


def label_free(check) -> list:
    """``[name, status, detail]`` of one check result with what depends on
    vertex labels taken out: a vertex list becomes its length, and the
    numbers in the reason for an ``na`` (which name vertices) become
    ``#``.  Chain triples, Sauer counts, orders and the like stay."""
    if check.status == "na":
        detail = re.sub(r"\d+", "#", check.detail)
    else:
        detail = VERTEX_LIST.sub(
            lambda m: "<%d vertices>" % len(re.findall(r"\d+", m.group())),
            check.detail)
    return [check.name, check.status, detail]


def all_graphs(n: int):
    """Every labeled graph on n vertices, one per edge subset."""
    for mask in range(1 << (n * (n - 1) // 2)):
        yield graph_of_edge_mask(n, mask)


def connected_graphs(n: int):
    for g in all_graphs(n):
        if n == 1 or is_connected(g, g.full_mask):
            yield g


def prufer_trees(n: int):
    """All labeled trees on n vertices, as edge lists."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        deg = [1] * n
        for x in seq:
            deg[x] += 1
        heap = [i for i in range(n) if deg[i] == 1]
        heapq.heapify(heap)
        edges = []
        for x in seq:
            leaf = heapq.heappop(heap)
            edges.append((min(leaf, x), max(leaf, x)))
            deg[x] -= 1
            if deg[x] == 1:
                heapq.heappush(heap, x)
        u, v = heapq.heappop(heap), heapq.heappop(heap)
        edges.append((min(u, v), max(u, v)))
        yield edges


def labeled_trees(n: int):
    for edges in prufer_trees(n):
        yield graph_from_edges(n, edges)


def plain_connected_set_masks(g: Graph, *, budget: int = DEFAULT_ENUM_BUDGET):
    """Every nonempty connected vertex set of g once, as a mask, by the
    pivot include/exclude walk without boundaries: the reference that
    ``graphs.connected_set_boundaries`` is checked against for its sets,
    their order and its budget refusal."""
    count = 0
    for v in bits(g.full_mask):
        higher = g.full_mask & ~((1 << (v + 1)) - 1)
        count += 1
        if count > budget:
            raise BudgetExceededError("connected-set enumeration", budget)
        yield 1 << v
        # stack entries: (set so far, extension candidates, banned vertices)
        stack = [(1 << v, g.adj[v] & higher, 0)]
        while stack:
            mask, cand, banned = stack.pop()
            if not cand:
                continue
            u = (cand & -cand).bit_length() - 1
            ubit = 1 << u
            stack.append((mask, cand ^ ubit, banned | ubit))
            newmask = mask | ubit
            count += 1
            if count > budget:
                raise BudgetExceededError("connected-set enumeration", budget)
            yield newmask
            new_cand = ((cand ^ ubit) | (g.adj[u] & higher & ~banned)) & ~newmask
            stack.append((newmask, new_cand, banned))


def shared_parts_corpus():
    """Families, a forest, and 30 seeded random graphs with 5-8 vertices."""
    yield from (fig2(), path_graph(1), path_graph(3), path_graph(5),
                cycle_graph(5), complete_graph(4))
    yield graph_from_edges(6, [(0, 1), (1, 2), (3, 4)])
    for i in range(30):
        yield random_graph(5 + i % 4, (0.3, 0.5, 0.7)[i % 3], 404, i)


# ---------------------------------------------------------------------------
# Vectorized sweep over every labeled graph on n vertices
# ---------------------------------------------------------------------------

def _edge_index(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    return pairs, {e: i for i, e in enumerate(pairs)}


def bulk_max_leaf_by_neighborhoods(n: int, chunk_bits: int = 18) -> np.ndarray:
    """ell(G) for every graph G on n vertices (encoded as an edge bitmask),
    computed from the open neighborhoods of connected sets.

    Connectivity of each vertex subset is propagated across all graphs at
    once: X is connected iff for some non-cut member v, X minus v is
    connected and v touches it.
    """
    pairs, eidx = _edge_index(n)
    num_graphs = 1 << len(pairs)
    out = np.zeros(num_graphs, dtype=np.uint8)
    pc = np.array([m.bit_count() for m in range(1 << n)], dtype=np.uint8)
    chunk = min(num_graphs, 1 << chunk_bits)
    subsets_by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for m in range(1, 1 << n):
        subsets_by_size[m.bit_count()].append(m)
    for start in range(0, num_graphs, chunk):
        gids = np.arange(start, start + chunk, dtype=np.uint32)
        adjrow = [np.zeros(chunk, dtype=np.uint8) for _ in range(n)]
        for (u, v), i in eidx.items():
            bit = ((gids >> np.uint32(i)) & np.uint32(1)).astype(np.uint8)
            adjrow[u] |= bit << np.uint8(v)
            adjrow[v] |= bit << np.uint8(u)
        ell = np.zeros(chunk, dtype=np.uint8)
        conn: dict[int, np.ndarray] = {}
        for size in range(1, n + 1):
            for x in subsets_by_size[size]:
                if size == 1:
                    cx = np.ones(chunk, dtype=bool)
                else:
                    cx = np.zeros(chunk, dtype=bool)
                    rest = x
                    while rest:
                        vbit = rest & -rest
                        rest ^= vbit
                        v = vbit.bit_length() - 1
                        prev = x ^ vbit
                        cx |= conn[prev] & (
                            (adjrow[v] & np.uint8(prev)) != 0)
                conn[x] = cx
                nb = np.zeros(chunk, dtype=np.uint8)
                m = x
                while m:
                    vbit = m & -m
                    m ^= vbit
                    nb |= adjrow[vbit.bit_length() - 1]
                open_nb = nb & np.uint8(((1 << n) - 1) ^ x)
                ell = np.maximum(ell, np.where(cx, pc[open_nb], 0))
            if size >= 2:
                for x in subsets_by_size[size - 1]:
                    del conn[x]
        out[start:start + chunk] = ell
    return out


def bulk_max_leaf_by_spanning_trees(n: int) -> np.ndarray:
    """Max leaves over all spanning trees, for every graph on n vertices at
    once: seed every labeled tree's edge mask with its degree-1 count, then
    propagate maxima to edge supersets.  Disconnected graphs stay at 0."""
    pairs, eidx = _edge_index(n)
    num_graphs = 1 << len(pairs)
    best = np.zeros(num_graphs, dtype=np.uint8)
    if n == 1:
        return best
    masks = []
    counts = []
    for edges in prufer_trees(n):
        deg = [0] * n
        m = 0
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
            m |= 1 << eidx[(u, v)]
        masks.append(m)
        counts.append(sum(1 for d in deg if d == 1))
    np.maximum.at(best, np.array(masks, dtype=np.int64),
                  np.array(counts, dtype=np.uint8))
    for b in range(len(pairs)):
        view = best.reshape(-1, 2, 1 << b)
        np.maximum(view[:, 1, :], view[:, 0, :], out=view[:, 1, :])
    return best


def bulk_connected_mask(n: int) -> np.ndarray:
    """Boolean array over all graphs on n vertices: is the graph connected?"""
    if n == 1:
        return np.ones(1, dtype=bool)
    return bulk_max_leaf_by_spanning_trees(n) > 0


def perfbench_workloads():
    """``perfbench/workloads.py`` as a module, imported from its file
    without putting ``perfbench/`` on the import path."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        # registered before it runs: its dataclasses look their module up
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]
