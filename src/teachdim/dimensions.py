"""Exact dimension computations: VCD, teaching dimensions, recursive
peeling, and Sauer-Shelah certificates.

Every search refines one partition.  ``cc.instance_columns[x]`` is the
bitmask of concept indices whose concept contains instance x, and
``cc.absent_columns[x]`` that of those that lack it; splitting each
block of a partition of concept indices by the columns of the instances
in D partitions the concepts by their trace on D.  Hence:

* D teaches concept c against the active concepts A exactly when c's
  block in the partition of A by trace on D is {c} (Goldman & Kearns);
* D is shattered exactly when the partition of the class by trace on D
  has 2^|D| blocks, i.e. every instance of D split every block.

Peeling (Zilles, Lange, Holte & Zinkevich) removes, level by level, the
active concepts with the smallest teaching sets: a level is everything
that has a unique trace at the first size k where anything does.

Most levels are settled without a search by the one-inclusion graph
(Haussler, Littlestone & Warmuth; Doliwa, Fan, Simon & Zilles), whose
edges join concepts that differ in exactly one instance.  Let F_i(A) be
the instances x for which concept i with x flipped is active.  A sample
without x cannot tell i from that neighbour, so every teaching set of i
against A contains F_i(A): TD(i, A) >= |F_i(A)|, and at k = |F_i(A)| the
only k-set that can teach i is F_i(A) itself.  The search for i
therefore starts at k = |F_i(A)| with one direct check of F_i(A).  Past
it, i is walked alone over what F_i(A) leaves open: against V_i, the
active concepts that agree with i on F_i(A), at size k - |F_i(A)|, a hit
E giving the witness F_i(A) | E (_teaching_sets_at says why that is
still the smallest-valued k-set).  The direct check reads V_i from the
class's sample tables (see concepts), one AND per block of four
instances that F_i(A) touches.  ``cc.neighbour_masks`` holds F_i of the
whole class; peeling keeps it current by clearing, as each concept
leaves, the bit of its flip instance in each neighbour, one update per
edge.  It keeps |F_i| beside it as a list of counts: a departing
concept's count becomes domain_size + 1, which no forced set reaches,
and each neighbour that loses its flip bit counts one less in that same
loop and joins the candidate list of its new count.  A level counts k up
from the smallest count; at each k it checks directly the entries of
list k that still count k, sorted into index order, and walks the
concepts below k, those it kept from the lists it has passed.  A count
only falls, so a concept joins each list at most once: the lists cost
one entry per concept and per edge over a whole peeling, not a scan of
every count at every level.  rtd's level loop and td_of's pass over the
whole class settle each k with one routine (_teaching_sets_at), and
both give each witness as an instance mask.  TD_min
asks whether any concept of a (sub)class has a teaching set of at most
k, and has its own walk over the whole partition (_isolates, behind
td_min_at_most); td_min and rtd_subclass_lower_bound count k up until
it says yes.

Teaching-set sizes run up to the domain size: at k = d the whole domain
tells every concept apart, and a concept forced to all d instances is
settled by its direct check.  What bounds a search is its work, counted
in walk nodes against a budget (``budget=``, default
DEFAULT_ENUM_BUDGET); a search that runs out refuses with
BudgetExceededError and says how far it got.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .concepts import ConceptClass, agreeing
from .errors import BudgetExceededError
from .graphs import DEFAULT_ENUM_BUDGET


# ---------------------------------------------------------------------------
# VC-dimension
# ---------------------------------------------------------------------------

def vcd(cc: ConceptClass) -> tuple[int, frozenset[int]]:
    """Exact VC-dimension with the lexicographically smallest maximum
    shattered set as witness.

    Depth-first over instance sets in lexicographic order, extending a
    shattered set only by an instance that splits every block of its
    partition.  Shattering is closed under subsets, so a failed
    extension prunes every set containing it, and the walk visits each
    shattered set once (at most |C| of them, by Pajor's lemma).
    """
    m = len(cc)
    if m == 0:
        raise ValueError("VC-dimension of an empty class is undefined")
    d = cc.domain_size
    cols = cc.instance_columns
    limit = min(d, m.bit_length() - 1)
    best: list[int] = []

    def walk(blocks: list[int], start: int, chosen: list[int]) -> bool:
        nonlocal best
        if len(chosen) > len(best):
            best = chosen
            if len(best) == limit:
                return True
        for x in range(start, d):
            if len(chosen) + d - x <= len(best):
                break
            col = cols[x]
            parts = []
            for b in blocks:
                inner = b & col
                if not inner or inner == b:
                    break
                parts += (inner, b ^ inner)
            else:
                if walk(parts, x + 1, chosen + [x]):
                    return True
        return False

    walk([cc.all_indices_mask], 0, [])
    # the nested walk refers to itself; break that cycle here
    del walk
    return len(best), frozenset(best)


# ---------------------------------------------------------------------------
# Teaching sets
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class _Work:
    """The limits of one teaching-set search and the work it has done.

    ``done`` counts walk nodes: one per ``walk`` call of
    _smallest_teaching_mask and one per k = 1 scan (the walk's last
    level, run inside the loop of the level above it, is part of that
    level's node), and one per ``walk`` call of _isolates.  One _Work
    serves a whole search: every level of rtd, the whole td_of pass, or
    every k that td_min and rtd_subclass_lower_bound try.  The search
    refuses once ``done`` passes ``budget``.  ``stage`` names the search
    in a refusal."""

    stage: str = "teaching-set search"
    budget: int = DEFAULT_ENUM_BUDGET
    done: int = 0

    def refusal(self, k: int, left: int):
        """The BudgetExceededError of a search at size k with ``left``
        concepts still without a teaching set."""
        return BudgetExceededError(self.stage, self.budget, k, left, self.done)


def _smallest_teaching_mask(cc: ConceptClass, active: int, i: int, k: int,
                            work: _Work) -> int:
    """The smallest-valued k-instance mask that teaches concept i against
    the active concepts, or 0 if none does.

    Walks the k-sets in increasing mask order by choosing the largest
    instance first (colex order, which is integer order).  Its state is
    one block: the active concepts that agree with i on the instances
    chosen so far, narrowed by each instance's agreeing column (its
    instance column if i holds the instance, its absent column if not).
    The last instance only has to cut i off on its own, so its level
    runs inside the loop of the level above it (k = 1 is one flat scan).
    Returns 0 once the walk nodes pass ``work``'s budget (the caller
    then refuses).

    Precondition: k >= 1, i is active, and i has no teaching set of
    fewer than k instances against ``active``.  Only then may an
    instance that leaves the block as it is be skipped: a k-set through
    it that taught i would teach it without that instance too.  For the
    same reason the block is not {i} before the last level.
    """
    c, target = cc.concepts[i], 1 << i
    cols, absent, d = cc.instance_columns, cc.absent_columns, cc.domain_size

    if k == 1:
        work.done += 1
        if work.done > work.budget:
            return 0
        for x in range(d):
            if active & (cols[x] if c >> x & 1 else absent[x]) == target:
                return 1 << x
        return 0
    agree = [cols[x] if c >> x & 1 else absent[x] for x in range(d)]

    allowance = work.budget - work.done
    nodes = 0

    def walk(block: int, top: int, depth: int, dmask: int) -> int:
        nonlocal nodes
        nodes += 1
        if nodes > allowance:
            return -1
        for x in range(depth - 1, top):
            part = block & agree[x]
            if part == block:
                continue
            if depth > 2:
                hit = walk(part, x, depth - 1, dmask | 1 << x)
                if hit:
                    return hit
                continue
            # last level: instance y < x completes the set
            for y in range(x):
                if part & agree[y] == target:
                    return dmask | 1 << x | 1 << y
        return 0

    hit = walk(active, d, k, 0)
    # the nested walk refers to itself; break that cycle here
    del walk
    work.done += nodes
    return max(hit, 0)


def _teaching_sets_at(cc: ConceptClass, active: int, k: int, targets,
                      forced, size: list[int], work: _Work, left: int
                      ) -> dict[int, int]:
    """{i: D} for each of ``targets`` whose smallest teaching set against
    the active concepts has k instances, D its smallest-valued such
    mask.  Raises BudgetExceededError at k, with ``left`` (the concepts
    without a teaching set when k began) less those found at k, once the
    walk nodes pass ``work.budget``.

    ``forced`` holds one mask per concept index: forced[i] is
    F_i(active), the instances whose flip of concept i is active, and
    size[i] is |F_i|.  Every teaching set of i contains F_i, so a target
    with |F_i| = k is checked by F_i alone (the only k-set that can
    teach it), and a target with |F_i| < k is walked on its own: against
    V_i, the active concepts that agree with i on F_i (the AND the
    direct check computes), at size k - |F_i|.  A hit E gives the
    witness F_i | E:

    * the k-sets that teach i are exactly F_i | E for the
      (k - |F_i|)-sets E that teach i against V_i, since F_i tells i
      from every active concept outside V_i;
    * the instances of F_i leave V_i as it is, so the walk never picks
      them;
    * the caller has checked i at every k' from |F_i| up to k - 1
      (rtd and td_of count k up and keep every target they have not
      settled), and i has no teaching set below |F_i|, so no E smaller
      than k - |F_i| teaches it, which is the walk's precondition;
    * E and F_i are disjoint, so F_i | E sorts in integer order exactly
      as E does, and the walk's smallest-valued E gives the
      smallest-valued k-set.

    The targets must be active, with |F_i| <= k, and not alone in
    ``active``; both callers list the direct checks first, then the
    walkers, each in increasing index order."""
    tables, concepts = cc.sample_tables, cc.concepts
    found = {}
    for i in targets:
        f = forced[i]
        vs = agreeing(tables, concepts[i], f, active)
        open_k = k - size[i]
        if not open_k:
            if vs == 1 << i:
                found[i] = f
            continue
        hit = _smallest_teaching_mask(cc, vs, i, open_k, work)
        if hit:
            found[i] = f | hit
        if work.done > work.budget:
            raise work.refusal(k, left - len(found))
    return found


def _by_count(size: list[int], d: int) -> list[list[int]]:
    """by_count[s] = the indices i with size[i] == s, for s from 0 to d,
    each list in increasing order."""
    by_count = [[] for _ in range(d + 1)]
    for i, s in enumerate(size):
        by_count[s].append(i)
    return by_count


def td_of(cc: ConceptClass, i: int, *, budget: int = DEFAULT_ENUM_BUDGET
          ) -> tuple[int, int]:
    """Minimum teaching set distinguishing concept i from the whole class.

    Returns (size, witness); the witness is the smallest-valued feasible
    instance mask at that size.  A singleton class needs no examples.
    Rows come from one pass over all concepts, since callers read every
    row of one class; the pass is cached on the class per budget.  A
    pass that refuses keeps the rows it found before the refusal, which
    still answer; every other row raises a fresh copy of that refusal.
    """
    if not 0 <= i < len(cc):
        raise ValueError(f"concept index {i} out of range")
    if budget not in cc.td_passes:
        rows, refusal = {}, None
        work = _Work("teaching-set search (td_of)", budget)
        try:
            _td_pass(cc, rows, work)
        except BudgetExceededError as exc:
            # its traceback holds this frame, and so cc: kept without it
            refusal = exc.with_traceback(None)
        cc.td_passes[budget] = rows, refusal
    rows, refusal = cc.td_passes[budget]
    if i not in rows:
        # raising the kept refusal would give it a traceback again
        raise BudgetExceededError(refusal.what, refusal.limit, refusal.k,
                                  refusal.left, refusal.work)
    return rows[i]


def _td_pass(cc: ConceptClass, rows: dict, work: _Work) -> None:
    """Fill rows[i] = (k, witness) for every concept i, counting k up
    against the whole class: at each k the concepts with |F_i| = k are
    checked directly and every unsettled one with |F_i| < k is walked.
    A refusal leaves the rows found before it."""
    m = len(cc)
    if m == 1:
        # a lone concept needs no examples
        rows[0] = 0, 0
        return
    forced = cc.neighbour_masks
    size = [f.bit_count() for f in forced]
    by_count = _by_count(size, cc.domain_size)
    everyone = cc.all_indices_mask
    # count 0 is walked from k = 1
    walkers = by_count[0]
    for k in range(1, cc.domain_size + 1):
        due = by_count[k]
        found = _teaching_sets_at(cc, everyone, k, due + walkers, forced,
                                  size, work, m - len(rows))
        for j, witness in found.items():
            rows[j] = k, witness
        if len(rows) == m:
            return
        walkers = sorted(j for j in walkers + due if j not in found)
    # at k = d the whole domain teaches every concept of a deduplicated class
    raise AssertionError("teaching-set search passed the domain size")


def td_min(cc: ConceptClass, *, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """TD_min: the smallest teaching-set size of any concept of the class.

    The smallest k that td_min_at_most's walk accepts, counted up from
    min_i |F_i| (every teaching set of i contains F_i, so nothing smaller
    can teach).  One budget covers every k tried."""
    if len(cc) == 0:
        raise ValueError("empty class")
    work = _Work("teaching-set search (td_min)", budget)
    k = min(f.bit_count() for f in cc.neighbour_masks)
    while not _isolates(cc, cc.all_indices_mask, k, work):
        k += 1
    return k


def td_max(cc: ConceptClass, *, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    if len(cc) == 0:
        raise ValueError("empty class")
    return max(td_of(cc, i, budget=budget)[0] for i in range(len(cc)))


# ---------------------------------------------------------------------------
# Recursive peeling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RtdCertificate:
    """Record of the peeling recursion: levels partition the class, each
    level lists the concepts that were easiest to teach at that point
    together with their teaching-set size; rtd is the maximum.
    witnesses[i] is the instance mask that teaches concept i against the
    concepts still active at its level: the smallest-valued such mask of
    the level's size."""

    size: int
    levels: tuple[tuple[frozenset[int], int], ...]
    rtd: int
    witnesses: tuple[int, ...]

    def __post_init__(self):
        seen: set[int] = set()
        for level, value in self.levels:
            if seen & level:
                raise ValueError("certificate levels overlap")
            seen |= level
            if value < 0:
                raise ValueError("negative level value")
        if seen != set(range(self.size)):
            raise ValueError("certificate levels do not partition the class")
        if self.rtd != max(value for _, value in self.levels):
            raise ValueError("rtd does not match level values")
        if len(self.witnesses) != self.size:
            raise ValueError("one witness per concept required")
        for level, value in self.levels:
            for i in level:
                w = self.witnesses[i]
                if w < 0 or w.bit_count() != value:
                    raise ValueError(f"witness of concept {i} does not have "
                                     f"its level's size {value}")


def rtd(cc: ConceptClass, *, budget: int = DEFAULT_ENUM_BUDGET) -> RtdCertificate:
    """The peeling recursion: remove every active concept with the
    smallest teaching set against the active class as one level, recurse;
    the dimension is the largest level value.  Refuses when the walk
    nodes of all levels together pass ``budget``.  Each level reads its
    candidates from by_count, the per-count lists of the module
    docstring."""
    m = len(cc)
    if m == 0:
        raise ValueError("empty class")
    active = cc.all_indices_mask
    levels = []
    witnesses = [0] * m
    forced = list(cc.neighbour_masks)
    size = [f.bit_count() for f in forced]
    gone = cc.domain_size + 1
    by_count = _by_count(size, cc.domain_size)
    concepts, index = cc.concepts, cc.index
    work = _Work("teaching-set search (rtd)", budget)
    left = m
    while left > 1:
        walkers = []
        for k in range(gone):
            due = by_count[k]
            if due:
                due = [i for i in due if size[i] == k]
                due.sort()
                by_count[k] = due
            if not k:
                # count 0 is walked from k = 1
                walkers = due
                continue
            if not (due or walkers):
                continue
            found = _teaching_sets_at(cc, active, k, due + walkers, forced,
                                      size, work, left)
            if found:
                break
            walkers = sorted(walkers + due)
        else:
            # at k = d the whole domain teaches every concept of a
            # deduplicated class
            raise AssertionError("teaching-set search passed the domain size")
        levels.append((frozenset(found), k))
        left -= len(found)
        for i, witness in found.items():
            witnesses[i] = witness
            active ^= 1 << i
            size[i] = gone
            c, f = concepts[i], forced[i]
            # i leaves: each neighbour c ^ flip loses flip from its forced
            # set and one from its count, and joins its new count's list
            while f:
                flip = f & -f
                j = index[c ^ flip]
                forced[j] ^= flip
                s = size[j] - 1
                size[j] = s
                by_count[s].append(j)
                f ^= flip
    if left:
        # a lone concept needs no examples
        levels.append((frozenset({active.bit_length() - 1}), 0))
    value = max(v for _, v in levels)
    return RtdCertificate(m, tuple(levels), value, tuple(witnesses))


def rtd_value(cc: ConceptClass, *, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """Value of the peeling recursion, as used by the exhaustive sweeps."""
    return rtd(cc, budget=budget).rtd


def rtd_subclass_lower_bound(cc: ConceptClass, subclass, *,
                             budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """TD_min of the subclass viewed as a class over the same domain;
    every such value lower-bounds the full class's peeling dimension.
    ``subclass`` is an iterable of concept indices or their mask.  The
    smallest k from 0 up that td_min_at_most's walk accepts; one budget
    covers every k tried."""
    m = len(cc)
    if isinstance(subclass, int):
        sub = subclass
        if sub < 0 or sub >> m:
            raise ValueError(f"concept index mask {sub:#x} out of range")
    else:
        sub = 0
        for i in subclass:
            if not 0 <= i < m:
                raise ValueError(f"concept index {i} out of range")
            sub |= 1 << i
    if not sub:
        raise ValueError("subclass must be nonempty")
    work = _Work("teaching-set search (subclass TD_min)", budget)
    k = 0
    while not _isolates(cc, sub, k, work):
        k += 1
    return k


def td_min_at_most(cc: ConceptClass, sub: int, k: int, *,
                   budget: int = DEFAULT_ENUM_BUDGET) -> bool:
    """Whether TD_min of the subclass ``sub`` (an index mask) is at most
    k: whether some set of at most k instances tells some concept of
    ``sub`` apart from the rest of ``sub``.  Refuses with
    BudgetExceededError once the walk passes ``budget`` nodes (see
    _isolates)."""
    if sub <= 0 or sub >> len(cc):
        raise ValueError(f"concept index mask {sub:#x} out of range")
    return _isolates(cc, sub, k,
                     _Work("teaching-set search (subclass TD_min)", budget))


def _isolates(cc: ConceptClass, sub: int, k: int, work: _Work) -> bool:
    """Whether some set of at most k instances tells some concept of the
    nonempty subclass ``sub`` apart from the rest of ``sub``.

    One depth-first walk over instance sets in increasing order, at most
    k deep, that shares no code with the teaching-set kernel.  A node
    holds the partition of ``sub`` by trace on its instances and extends
    by each later instance that splits some block; an instance that
    splits no block is skipped.  The walk returns true at the first
    singleton block.

    It is exact.  Let D be a teaching set of at most k instances that is
    minimal under inclusion, with instances x_1 < ... < x_j.  If some x_i
    split no block of the partition by x_1, ..., x_{i-1}, that partition
    would stay as it is with x_i added, so D - {x_i} would split ``sub``
    as D does and teach the same concept, against minimality.  So every
    x_i splits, the walk reaches the node x_1, ..., x_j, and the concept
    D teaches is a singleton block there.  A minimal D may have fewer
    than k instances, so every split is tested for a singleton, not only
    those of the last level.

    Each node counts one in ``work``; a walk that passes its budget
    refuses with BudgetExceededError at k, with every concept of ``sub``
    counted as left.
    """
    if sub & (sub - 1) == 0:
        # a lone concept needs no examples
        return k >= 0
    cols, d = cc.instance_columns, cc.domain_size

    def walk(blocks: list[int], start: int, depth: int) -> bool:
        work.done += 1
        if work.done > work.budget:
            raise work.refusal(k, sub.bit_count())
        for x in range(start, d):
            col = cols[x]
            parts = []
            for b in blocks:
                inner = b & col
                if inner and inner != b:
                    outer = b ^ inner
                    if not inner & (inner - 1) or not outer & (outer - 1):
                        return True
                    parts += (inner, outer)
                else:
                    parts.append(b)
            if depth > 1 and len(parts) > len(blocks) \
                    and walk(parts, x + 1, depth - 1):
                return True
        return False

    try:
        return k > 0 and walk([sub], 0, k)
    finally:
        # the nested walk refers to itself; break that cycle here
        del walk


def check_chain(lo: int, mid: int, hi: int, kind: str) -> int:
    """Validate lo <= mid <= hi <= lo+1 with exactly one strict step and
    return the position of the strict step (0, 1 or 2)."""
    if not (lo <= mid <= hi <= lo + 1):
        raise RuntimeError(f"{kind} chain violated: {lo} <= {mid} <= {hi} <= {lo}+1")
    strict = [lo < mid, mid < hi, hi < lo + 1]
    if sum(strict) != 1:
        raise RuntimeError(f"{kind} chain must have exactly one strict step")
    return strict.index(True)


# ---------------------------------------------------------------------------
# Sauer-Shelah
# ---------------------------------------------------------------------------

def sauer_bound(domain_size: int, d: int) -> int:
    """Sum of binomial(domain_size, i) for i = 0..d."""
    if domain_size < 0 or d < 0:
        raise ValueError("arguments must be nonnegative")
    return sum(comb(domain_size, i) for i in range(d + 1))


def sauer_rtd_implication(cc: ConceptClass) -> int | None:
    """Largest d+1 such that |C| exceeds the Sauer bound at d, which
    forces the peeling dimension above d.  None when no d qualifies."""
    m = len(cc)
    best = None
    for d in range(cc.domain_size + 1):
        if m > sauer_bound(cc.domain_size, d):
            best = d + 1
        else:
            break
    return best
