"""Seeded inputs, ops and output checks for the three benchmark workloads.

Every workload is a sequence of rounds; round ``r`` of a workload is a
list of ops drawn from ``(seed, r)`` alone, so the same seed always
yields the same ops in the same order.  An op's ``run`` makes only
library calls and is what the benchmark times; ``check`` compares the
output with the values recorded in ``expected/`` and with invariants
the paper proves, and is never timed.

The library is reached through module attributes (``dimensions.rtd``,
not a bound name) so that the traced run, which rebinds those
attributes, also sees the calls made here.
"""

from __future__ import annotations

import gzip
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

import teachdim.checks as checks
import teachdim.concepts as concepts
import teachdim.connected as connected
import teachdim.dimensions as dimensions
import teachdim.families as families
import teachdim.graphs as graphs
import teachdim.stars as stars
import teachdim.teaching as teaching
from teachdim.errors import BudgetExceededError

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

OK, REFUSED, FAILED = "ok", "refused", "failed"


class Mismatch(Exception):
    """An op's output disagrees with its recorded value or an invariant."""


def rng_for(*keys) -> random.Random:
    return random.Random(":".join(str(k) for k in keys))


def vertex_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def relabel(g, perm):
    """The same graph with vertex v renamed perm[v]."""
    return graphs.graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def permute_mask(mask: int, perm) -> int:
    return sum(1 << perm[b] for b in graphs.bits(mask))


def random_perm(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def check_chain(kind: str, lo: int, mid: int, hi: int) -> None:
    """lo <= RTD <= VCD <= lo+1 with exactly one strict step."""
    if not lo <= mid <= hi <= lo + 1 or [lo < mid, mid < hi, hi < lo + 1].count(True) != 1:
        raise Mismatch(f"{kind} chain broken: ({lo}, {mid}, {hi})")


def expect_equal(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


@dataclass(frozen=True)
class Op:
    """One timed unit of work: ``key`` names the recorded expectation,
    ``perm`` the relabeling applied to the recorded graph."""

    key: object
    label: str
    graph: object
    perm: tuple[int, ...] = ()


class Workload:
    name = ""
    #: Per-op time limit in seconds; a failed or refused op is charged it.
    limit_s = 0.0
    #: Rounds the traced run executes, independent of the run length.
    trace_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self._expected = None

    @property
    def expected(self):
        if self._expected is None:
            self._expected = self.load_expected()
        return self._expected

    def refused_at_record(self, op: Op) -> bool:
        """True where the recorded commit refused this op itself."""
        return False

    def verdict(self, op: Op, out, exc) -> tuple[str, str]:
        """(outcome, reason) for one executed op."""
        if isinstance(exc, BudgetExceededError):
            if self.refused_at_record(op):
                return REFUSED, f"refused: {exc}"
            return FAILED, f"refused: {exc}"
        if exc is not None:
            return FAILED, f"raised {type(exc).__name__}: {exc}"
        try:
            self.check(op, out)
        except Mismatch as mismatch:
            return FAILED, f"wrong output: {mismatch}"
        return OK, ""


# ---------------------------------------------------------------------------
# sweep: thousands of tiny classes, per-call overhead dominates
# ---------------------------------------------------------------------------

class Sweep(Workload):
    """Connected labeled graphs with 5 or 6 vertices, drawn uniformly
    from all of them by rejection, as they occur in the n <= 6 sweep
    (728 with 5 vertices against 26,704 with 6, so about 97 % of the ops
    have 6); each op computes the star triple and both connected-set
    triples, the core of ``teachdim triples`` and of that sweep."""

    name = "sweep"
    limit_s = 0.1
    trace_rounds = 10
    SIZES = (5, 6)
    ROUND_OPS = 500

    def round(self, r: int) -> list[Op]:
        rng = rng_for(self.seed, self.name, r)
        spaces = [(n, vertex_pairs(n)) for n in self.SIZES]
        total = sum(1 << len(pairs) for _, pairs in spaces)
        ops = []
        while len(ops) < self.ROUND_OPS:
            mask = rng.randrange(total)
            for n, pairs in spaces:
                if mask < 1 << len(pairs):
                    break
                mask -= 1 << len(pairs)
            g = graphs.graph_from_edges(
                n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            if graphs.is_connected(g, g.full_mask):
                ops.append(Op((n, mask), f"n={n} edges={mask:#x}", g))
        return ops

    def run(self, op: Op):
        g = op.graph
        return (stars.star_triple(g), connected.con_triple(g, True),
                connected.con_triple(g, False))

    def summary(self, op: Op, out) -> str:
        return " ".join(",".join(map(str, t)) for t in out)

    def load_expected(self):
        with gzip.open(EXPECTED_DIR / "sweep.json.gz", "rt") as f:
            return json.load(f)

    def check(self, op: Op, out) -> None:
        n, mask = op.key
        row = self.expected[str(n)]
        want = row[9 * mask:9 * mask + 9]
        expect_equal("triples", "".join(str(x) for t in out for x in t), want)
        (delta, r, v), con_with, con_without = out
        check_chain("star", delta, r, v)
        check_chain("connected-set (with empty)", *con_with)
        check_chain("connected-set (without empty)", *con_without)
        expect_equal("star vcd vs characterization", v,
                     stars.star_vcd_characterization(op.graph)[0])


# ---------------------------------------------------------------------------
# verify: many mid-size teaching-set searches and teacher constructions
# ---------------------------------------------------------------------------

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
            lambda m: "<%d vertices>" % len(re.findall(r"\d+", m.group())), check.detail)
    return [check.name, check.status, detail]


class Verify(Workload):
    """``check_graph`` for both kinds on a fixed pool of
    ``random_graph(n, p, POOL_SEED, i)``; the seed relabels every graph
    afresh in each round.  Keeping the pool fixed keeps the heavy-tailed
    cost mix the same across seeds, so runs with different seeds agree."""

    name = "verify"
    limit_s = 10.0
    POOL_SEED = 2025
    POOL = tuple((n, p, i) for n in (6, 7, 8) for p in (0.3, 0.5, 0.7)
                 for i in range(2))
    KINDS = ("star", "con")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.base = [families.random_graph(n, p, self.POOL_SEED, i)
                     for n, p, i in self.POOL]

    def round(self, r: int) -> list[Op]:
        ops = []
        for idx, g in enumerate(self.base):
            perm = random_perm(rng_for(self.seed, self.name, r, idx), g.n)
            g2 = relabel(g, perm)
            ops.extend(Op((idx, kind), f"{self.POOL[idx]} {kind}", g2, tuple(perm))
                       for kind in self.KINDS)
        return ops

    def run(self, op: Op):
        return checks.check_graph(op.graph, op.key[1])

    def summary(self, op: Op, out) -> str:
        return "\n".join(f"{c.name}\t{c.status}\t{c.detail}" for c in out)

    def load_expected(self):
        return json.loads((EXPECTED_DIR / "verify.json").read_text())

    def check(self, op: Op, out) -> None:
        idx, kind = op.key
        failing = [c.name for c in out if c.status == "fail"]
        if failing:
            raise Mismatch(f"checks report fail: {failing}")
        expect_equal("check results", [label_free(c) for c in out],
                     self.expected[f"{idx}:{kind}"])


# ---------------------------------------------------------------------------
# peel: few huge classes crossing every engine hand-over
# ---------------------------------------------------------------------------

PEEL_INPUTS = (
    ("random_graph(10,.4,5) con+empty", lambda: families.random_graph(10, 0.4, 5), "con", True),
    ("random_graph(11,.35,3) con", lambda: families.random_graph(11, 0.35, 3), "con", False),
    ("complete_graph(10) star", lambda: families.complete_graph(10), "star", False),
    ("random_graph(14,.25,1) star", lambda: families.random_graph(14, 0.25, 1), "star", False),
    ("random_graph(16,.15,1) star", lambda: families.random_graph(16, 0.15, 1), "star", False),
    ("cycle_graph(13) con", lambda: families.cycle_graph(13), "con", False),
    ("path_graph(12) con+empty", lambda: families.path_graph(12), "con", True),
)


@dataclass
class PeelOutput:
    cc: object
    vcd: int
    witness: frozenset
    cert: object
    tds: list
    teacher: object
    teacher_ok: bool


def build_class(g, kind: str, include_empty: bool):
    if kind == "star":
        return stars.build_star_class(g)
    return connected.build_con_class(g, include_empty)


def peel_levels(cert, size: int) -> list[int]:
    level_of = [0] * size
    for k, (level, _) in enumerate(cert.levels):
        for i in level:
            level_of[i] = k
    return level_of


class Peel(Workload):
    """One op per class: the ``dims`` report (vcd, the rtd certificate,
    td_of of every concept), then ``plan_to_teacher`` and
    ``verify_pb_teacher``.  The seed relabels each fixed graph; every
    recorded value is invariant under relabeling."""

    name = "peel"
    limit_s = 60.0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.base = [make() for _, make, _, _ in PEEL_INPUTS]

    def round(self, r: int) -> list[Op]:
        ops = []
        for idx, g in enumerate(self.base):
            perm = random_perm(rng_for(self.seed, self.name, r, idx), g.n)
            ops.append(Op(idx, PEEL_INPUTS[idx][0], relabel(g, perm), tuple(perm)))
        return ops

    def run(self, op: Op) -> PeelOutput:
        _, _, kind, include_empty = PEEL_INPUTS[op.key]
        cc = build_class(op.graph, kind, include_empty)
        v, witness = dimensions.vcd(cc)
        cert = dimensions.rtd(cc)
        tds = [dimensions.td_of(cc, i)[0] for i in range(len(cc))]
        teacher = teaching.plan_to_teacher(cert, cc)
        ok, _ = teaching.verify_pb_teacher(cc, teacher)
        return PeelOutput(cc, v, witness, cert, tds, teacher, ok)

    def summary(self, op: Op, out: PeelOutput) -> str:
        levels = peel_levels(out.cert, len(out.cc))
        rows = [f"{c} {levels[i]} {out.tds[i]} {sorted(out.teacher.teaching_sets[i])}"
                for i, c in enumerate(out.cc.concepts)]
        return "\n".join([f"vcd {out.vcd} {sorted(out.witness)} rtd {out.cert.rtd}"] + rows)

    def load_expected(self):
        return json.loads((EXPECTED_DIR / "peel.json").read_text())

    def refused_at_record(self, op: Op) -> bool:
        return self.expected[op.key]["refused_at_record"]

    def check(self, op: Op, out: PeelOutput) -> None:
        label, _, kind, _ = PEEL_INPUTS[op.key]
        want = self.expected[op.key]
        expect_equal(f"{label} vcd", out.vcd, want["vcd"])
        expect_equal(f"{label} rtd", out.cert.rtd, want["rtd"])
        expect_equal(f"{label} level values",
                     [value for _, value in out.cert.levels], want["level_values"])
        levels = peel_levels(out.cert, len(out.cc))
        got = sorted(zip(out.cc.concepts, levels, out.tds))
        recorded = sorted((permute_mask(c, op.perm), level, td)
                          for c, level, td in want["concepts"])
        if got != recorded:
            raise Mismatch(f"{label}: concept levels or teaching dimensions differ")
        if len(out.witness) != out.vcd or not concepts.is_shattered(out.cc, out.witness):
            raise Mismatch(f"{label}: vcd witness {sorted(out.witness)} is not shattered")
        if not out.teacher_ok:
            raise Mismatch(f"{label}: plan teacher does not verify")
        expect_equal(f"{label} plan teacher order", out.teacher.order, out.cert.rtd)
        g = op.graph
        if kind == "star":
            check_chain("star", g.max_degree(), out.cert.rtd, out.vcd)
            expect_equal("star vcd vs characterization", out.vcd,
                         stars.star_vcd_characterization(g)[0])
        else:
            check_chain("connected-set", graphs.max_leaf_number(g), out.cert.rtd, out.vcd)


WORKLOADS = {w.name: w for w in (Sweep, Verify, Peel)}
