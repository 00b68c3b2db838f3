"""Concept classes over a finite index domain.

A concept is an int bitmask over instances 0..domain_size-1 (bit set
means label +).  A ConceptClass stores its concepts deduplicated and in
increasing bitmask order; all index-valued results refer to that
canonical order, which keeps every downstream output reproducible.

A class caches, per instance x, its instance column (the concepts that
contain x, as a mask over concept indices) and its absent column (those
that lack x), so no search negates a column.  From them it builds its
sample tables, one per block of four instances 4b..4b+3: a block's
table holds, for each of the 3^4 = 81 ways to label a sample inside the
block, the concepts that agree with it.  ``CHUNK_KEY[s << 4 | l]`` is
the entry for the block's sample s labeled by l (both 4-bit masks
shifted down by 4b; bits of l outside s do not count), so a version
space is one AND per block the sample touches (``agreeing``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .errors import ClassFormatError
from .graphs import mask_of

MAX_SHATTER_SET = 20

# _BIT_DIGITS[x][v] is the digit "1" when byte v has bit x, else "0"
_BIT_DIGITS = tuple(bytes(48 + (v >> x & 1) for v in range(256)) for x in range(8))

# digit x of CHUNK_KEY[s << 4 | l] in base 3: 0 if s lacks x, 1 if l
# labels x -, 2 if +, the order of the entries of sample_tables
CHUNK_KEY = tuple(sum((1 + (l >> x & 1)) * 3 ** x for x in range(4) if s >> x & 1)
                  for s in range(16) for l in range(16))


@dataclass(frozen=True)
class ConceptClass:
    """Deduplicated concepts in increasing bitmask order."""

    domain_size: int
    concepts: tuple[int, ...]
    # ``dimensions.td_of``'s passes over this class, keyed by budget: each
    # is (rows found, the refusal that ended the pass or None)
    td_passes: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        if self.domain_size < 0:
            raise ValueError("domain size must be nonnegative")
        cs = self.concepts
        if cs and (cs[0] < 0 or cs[-1] >> self.domain_size
                   or not all(map(operator.lt, cs, cs[1:]))):
            # the loop names the first fault in concept order
            full = (1 << self.domain_size) - 1
            prev = -1
            for c in cs:
                if c & ~full or c < 0:
                    raise ValueError("concept wider than the domain")
                if c <= prev:
                    raise ValueError("concepts must be strictly increasing (deduplicated)")
                prev = c

    @classmethod
    def from_masks(cls, domain_size: int, masks) -> "ConceptClass":
        return cls(domain_size, tuple(sorted(set(masks))))

    def __len__(self) -> int:
        return len(self.concepts)

    def index_of(self, concept) -> int:
        mask = concept if isinstance(concept, int) else mask_of(concept)
        try:
            return self.index[mask]
        except KeyError:
            raise KeyError(f"concept {mask:#x} not in class") from None

    @cached_property
    def index(self) -> dict[int, int]:
        """index[c] = the position of concept c in ``concepts``; shared by
        every reader, so read it and never change it."""
        return {c: j for j, c in enumerate(self.concepts)}

    @cached_property
    def instance_columns(self) -> tuple[int, ...]:
        """columns[i] = bitmask over concept indices whose concept contains i."""
        if not self.concepts:
            return (0,) * self.domain_size
        cols = []
        for b in range(0, self.domain_size, 8):
            # one byte per concept, the last one first, so that each
            # translation spells the column of one instance in binary
            row = bytes([c >> b & 255 for c in reversed(self.concepts)])
            cols += [int(row.translate(_BIT_DIGITS[x]), 2)
                     for x in range(min(8, self.domain_size - b))]
        return tuple(cols)

    @cached_property
    def absent_columns(self) -> tuple[int, ...]:
        """absent[i] = bitmask over concept indices whose concept lacks i."""
        everything = self.all_indices_mask
        return tuple(everything ^ col for col in self.instance_columns)

    @cached_property
    def sample_tables(self) -> tuple[tuple[int, ...], ...]:
        """tables[b][CHUNK_KEY[s << 4 | l]] = the concepts that agree with
        labels l on the sample s of instances 4b..4b+3 (module docstring)."""
        cols, absent, d = self.instance_columns, self.absent_columns, self.domain_size
        # the 9 labelings of each pair of instances x, x + 1 (3 for a last
        # lone instance), then a block's 81 as the products of two pairs'
        pairs = []
        for x in range(0, d, 2):
            a, c = absent[x], cols[x]
            t = [self.all_indices_mask, a, c]
            if x + 1 < d:
                a1, c1 = absent[x + 1], cols[x + 1]
                t += [a1, a & a1, c & a1, c1, a & c1, c & c1]
            pairs.append(t)
        pairs.append([self.all_indices_mask])
        return tuple(tuple(lo + [v & w for w in hi[1:] for v in lo])
                     for lo, hi in zip(pairs[::2], pairs[1::2]))

    @cached_property
    def neighbour_masks(self) -> tuple[int, ...]:
        """masks[j] = bitmask over instances x whose flip of concept j is
        also in the class: concept j's edges in the one-inclusion graph.

        Each concept c looks up its flip c ^ x for every instance x and
        sets x in its own mask only, so each edge is found from both
        endpoints."""
        index = self.index
        flips = [1 << x for x in range(self.domain_size)]
        masks = []
        for c in self.concepts:
            f = 0
            for b in flips:
                if c ^ b in index:
                    f |= b
            masks.append(f)
        return tuple(masks)

    @property
    def all_indices_mask(self) -> int:
        return (1 << len(self.concepts)) - 1


def version_space_mask(cc: ConceptClass, pos: int, neg: int = 0) -> int:
    """Concepts that contain every instance of ``pos`` and none of ``neg``,
    as a bitmask over concept indices."""
    if (pos | neg) >> cc.domain_size:
        raise ValueError("sample mentions instances outside the domain")
    if pos & neg:
        # no concept both contains and lacks an instance
        return 0
    return agreeing(cc.sample_tables, pos, pos | neg, cc.all_indices_mask)


def agreeing(tables, concept: int, shown: int, within: int) -> int:
    """The concepts of index mask ``within`` that agree with ``concept`` on
    the instances of ``shown``, read from a class's ``sample_tables``;
    ``shown`` must lie inside the domain."""
    for t in tables:
        s = shown & 15
        if s:
            within &= t[CHUNK_KEY[s << 4 | concept & 15]]
        shown >>= 4
        if not shown:
            break
        concept >>= 4
    return within


def is_shattered(cc: ConceptClass, instances) -> bool:
    """True iff every labeling of the instance set is realized by the class."""
    smask = instances if isinstance(instances, int) else mask_of(instances)
    if smask >> cc.domain_size:
        raise ValueError("instance set outside the domain")
    k = smask.bit_count()
    if k > MAX_SHATTER_SET:
        raise ValueError(f"shattering test capped at {MAX_SHATTER_SET} instances")
    target = 1 << k
    if len(cc.concepts) < target:
        return False
    traces = set()
    for c in cc.concepts:
        traces.add(c & smask)
        if len(traces) == target:
            return True
    return False


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def parse_class(text: str) -> ConceptClass:
    """Header "m d", then m rows of d characters from {0,1}; row character i
    is the concept's label on instance i."""
    rows = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not rows:
        raise ClassFormatError("empty class file")
    head = rows[0].split()
    if len(head) != 2:
        raise ClassFormatError(f"bad header line: {rows[0]!r}")
    try:
        m, d = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ClassFormatError(f"bad header line: {rows[0]!r}") from exc
    if m == 0:
        raise ClassFormatError("class file has no concepts")
    if len(rows) - 1 != m:
        raise ClassFormatError(f"expected {m} concept rows, found {len(rows) - 1}")
    masks = []
    for ln in rows[1:]:
        if len(ln) != d or set(ln) - {"0", "1"}:
            raise ClassFormatError(f"bad concept row: {ln!r}")
        masks.append(sum(1 << i for i, ch in enumerate(ln) if ch == "1"))
    if len(set(masks)) != len(masks):
        raise ClassFormatError("duplicate concepts in class file")
    return ConceptClass.from_masks(d, masks)


def format_concept(concept: int, domain_size: int) -> str:
    return "".join("1" if concept >> i & 1 else "0" for i in range(domain_size))


def read_class(path) -> ConceptClass:
    return parse_class(Path(path).read_text())
