"""Named graph families and reproducible random graphs.

Path indices follow the length convention: ``path(k)`` has k edges and
k+1 vertices.  Cycles have as many vertices as edges, so no ambiguity
arises there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graphs import MAX_VERTICES, Graph, graph_from_edges, read_graph

FAMILY_NAMES = ("complete", "path", "cycle", "fig1-left", "fig1-right", "fig2",
                "random", "file")


def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(length: int) -> Graph:
    """Path with ``length`` edges (length + 1 vertices)."""
    if length < 1:
        raise ValueError("path length must be at least 1")
    n = length + 1
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n - 1)] + [(0, n - 1)])


def fig1_left() -> Graph:
    """Four-cycle on a, b, c, d in circular order."""
    return graph_from_edges(
        4, [(0, 1), (1, 2), (2, 3), (0, 3)], names=("a", "b", "c", "d")
    )


def fig1_right() -> Graph:
    """Five vertices a, b, c, d, v: a clique-ish core where a and b share
    their closed neighborhood, plus v adjacent to c and d.

    Its star triple (Δ, RTD, VCD) is (3, 4, 4): the 24 star concepts
    include the sixteen {c or d} ∪ (any subset of {a, b, v}), whose
    minimum teaching dimension of 4 forces RTD >= 4."""
    a, b, c, d, v = range(5)
    return graph_from_edges(
        5,
        [(a, b), (b, c), (b, d), (a, c), (a, d), (c, v), (d, v)],
        names=("a", "b", "c", "d", "v"),
    )


def fig2() -> Graph:
    """Complete binary tree of height 2 (root a) plus the four edges that
    join {d,e} completely with {f,g}."""
    a, b, c, d, e, f, g = range(7)
    return graph_from_edges(
        7,
        [(a, b), (a, c), (b, d), (b, e), (c, f), (c, g),
         (d, f), (d, g), (e, f), (e, g)],
        names=("a", "b", "c", "d", "e", "f", "g"),
    )


def random_graph(n: int, p: float, seed: int, index: int = 0) -> Graph:
    """Independent-edge random graph; Mersenne Twister seeded with
    (seed, index) so a sequence of draws is reproducible."""
    if not 0.0 < p < 1.0:
        raise ValueError("edge probability must lie strictly between 0 and 1")
    rng = random.Random(f"{seed}:{index}")
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return graph_from_edges(n, edges)


@dataclass(frozen=True)
class FamilySpec:
    """A request for a run of graphs from one family."""

    family: str
    lo: int = 0
    hi: int = 0
    p: float | None = None
    seed: int | None = None
    path: str | None = None

    def __post_init__(self):
        if self.family not in FAMILY_NAMES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family in ("complete", "path", "cycle", "random"):
            if self.lo > self.hi:
                raise ValueError("empty size range")
            cap = MAX_VERTICES - 1 if self.family == "path" else MAX_VERTICES
            if self.lo < 1 or self.hi > cap:
                raise ValueError(f"size range outside 1..{cap}")
        if self.family == "random":
            if self.p is None or not 0.0 < self.p < 1.0:
                raise ValueError("random family requires p in (0,1)")
            if self.seed is None:
                raise ValueError("random family requires a seed")
        if self.family == "file" and self.path is None:
            raise ValueError("file family requires a path")

    def graphs(self) -> list[tuple[str, Graph]]:
        fam = self.family
        if fam == "complete":
            return [(f"K_{n}", complete_graph(n)) for n in range(self.lo, self.hi + 1)]
        if fam == "path":
            return [(f"P_{n}", path_graph(n)) for n in range(self.lo, self.hi + 1)]
        if fam == "cycle":
            return [(f"C_{n}", cycle_graph(n)) for n in range(self.lo, self.hi + 1)]
        if fam == "fig1-left":
            return [("fig1-left", fig1_left())]
        if fam == "fig1-right":
            return [("fig1-right", fig1_right())]
        if fam == "fig2":
            return [("fig2", fig2())]
        if fam == "random":
            out = []
            for i, n in enumerate(range(self.lo, self.hi + 1)):
                name = f"G(n={n},p={self.p},seed={self.seed})"
                out.append((name, random_graph(n, self.p, self.seed, index=i)))
            return out
        # file
        return [(f"file:{self.path}", read_graph(self.path))]
