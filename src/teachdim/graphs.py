"""Undirected graphs on index vertices, with bit-vector adjacency.

Vertices are the integers 0..n-1 and every vertex set is a Python int
bitmask: the public functions return masks, and those that take a vertex
set also accept any iterable of vertices.  All structures are immutable
after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import BudgetExceededError, GraphFormatError

#: Hard cap on vertex count.  Induced concept classes grow exponentially,
#: so anything beyond desk scale is rejected at construction time.
MAX_VERTICES = 24

#: Default budget of the exhaustive searches before BudgetExceededError:
#: the connected vertex sets an enumeration visits, the star sets the star
#: class enumerates, the walk nodes of a teaching-set search, and the
#: candidate sets of the leaf-tree witness search.
DEFAULT_ENUM_BUDGET = 1 << 22

#: The spanning-tree max-leaf oracle is only meant as a small-scale
#: cross-check; it refuses components larger than this.
MAX_SPANNING_TREE_VERTICES = 8


def bits(mask: int):
    """Iterate over the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: ``adj[v]`` is the neighbor bitmask of v."""

    n: int
    adj: tuple[int, ...]
    names: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if self.n > MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} exceeds cap {MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = self.full_mask
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency row {v} mentions vertices >= {self.n}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            for u in bits(row):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at edge {{{u},{v}}}")
        if self.names is not None and len(self.names) != self.n:
            raise ValueError("names length does not match vertex count")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v
        )

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        return max((row.bit_count() for row in self.adj), default=0)

    def closed_mask(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def vertex_name(self, v: int) -> str:
        return self.names[v] if self.names is not None else str(v)

    def vertex_names(self, mask_or_set) -> str:
        vs = mask_or_set if isinstance(mask_or_set, int) else mask_of(mask_or_set)
        return "{" + ",".join(self.vertex_name(v) for v in bits(vs)) + "}"

    def _check_vertex(self, v: int):
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")

    def _check_mask(self, mask: int):
        if mask & ~self.full_mask or mask < 0:
            raise ValueError("vertex set out of range")


def graph_from_edges(n: int, edges, names=None) -> Graph:
    """Build a Graph from an iterable of (u, v) pairs; duplicates rejected."""
    adj = [0] * n
    seen = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {{{u},{v}}} out of range for n={n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge {{{u},{v}}}")
        seen.add(key)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj), tuple(names) if names is not None else None)


# ---------------------------------------------------------------------------
# Neighborhoods and basic structure
# ---------------------------------------------------------------------------

def closed_neighborhood_mask(g: Graph, xmask: int) -> int:
    adj = g.adj
    m = rest = xmask
    while rest:
        low = rest & -rest
        m |= adj[low.bit_length() - 1]
        rest ^= low
    return m


def _as_mask(g: Graph, x) -> int:
    if isinstance(x, int):
        mask = x
    else:
        mask = 0
        for v in x:
            g._check_vertex(v)
            mask |= 1 << v
    g._check_mask(mask)
    return mask


def spanned_subgraph(g: Graph, x) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph spanned by X, reindexed to 0..|X|-1.

    Returns the subgraph together with the retained-index map: entry i of
    the map is the original index of new vertex i.
    """
    xmask = _as_mask(g, x)
    kept = tuple(bits(xmask))
    pos = {v: i for i, v in enumerate(kept)}
    adj = [0] * len(kept)
    for v in kept:
        for u in bits(g.adj[v] & xmask):
            adj[pos[v]] |= 1 << pos[u]
    names = tuple(g.vertex_name(v) for v in kept) if g.names is not None else None
    return Graph(len(kept), tuple(adj), names), kept


def component_mask(g: Graph, start: int, within: int) -> int:
    """The vertices reachable from ``start`` inside ``within``, as a mask."""
    return _reach(g.adj, 1 << start, within)


def _reach(adj, seed: int, within: int) -> int:
    """The vertices reachable from the vertices of mask ``seed`` inside
    ``within``, over the adjacency masks ``adj``."""
    comp = frontier = seed
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = grow & within & ~comp
        comp |= frontier
    return comp


def components(g: Graph, within=None) -> tuple[int, ...]:
    """The components of the subgraph that ``within`` spans (all of g by
    default) as masks, ordered by smallest contained index."""
    remaining = g.full_mask if within is None else _as_mask(g, within)
    out = []
    while remaining:
        comp = _reach(g.adj, remaining & -remaining, remaining)
        out.append(comp)
        remaining &= ~comp
    return tuple(out)


def is_connected(g: Graph, x) -> bool:
    """True iff the nonempty set X spans a connected subgraph of g."""
    xmask = _as_mask(g, x)
    if xmask == 0:
        raise ValueError("is_connected is undefined for the empty set")
    start = (xmask & -xmask).bit_length() - 1
    return component_mask(g, start, xmask) == xmask


# ---------------------------------------------------------------------------
# Connected-set enumeration
# ---------------------------------------------------------------------------

def connected_set_boundaries(g: Graph, *, budget: int = DEFAULT_ENUM_BUDGET):
    """Yield (X, N(X)) for every nonempty connected vertex set X of g
    exactly once, both as masks; N(X) is X's open neighborhood in g.

    Classic pivot include/exclude growth: sets are partitioned by their
    minimum vertex, so no visited-set is needed.  Each stack entry carries
    its set's closed neighborhood, so N[X + u] = N[X] | adj[u] costs one
    OR.  Raises BudgetExceededError after yielding ``budget`` sets.
    """
    adj = g.adj
    full = g.full_mask
    count = 0
    for v in bits(full):
        higher = full & ~((1 << (v + 1)) - 1)
        count += 1
        if count > budget:
            raise BudgetExceededError("connected-set enumeration", budget)
        yield 1 << v, adj[v]
        # stack entries: (set so far, its closed neighborhood, extension
        # candidates, banned vertices); a set is yielded exactly once, at
        # the include step that creates it
        stack = [(1 << v, adj[v] | 1 << v, adj[v] & higher, 0)]
        while stack:
            mask, closed, cand, banned = stack.pop()
            if not cand:
                continue
            u = (cand & -cand).bit_length() - 1
            ubit = 1 << u
            # branch 1: never include u
            stack.append((mask, closed, cand ^ ubit, banned | ubit))
            # branch 2: include u, extend candidates by u's fresh neighbors
            newmask = mask | ubit
            newclosed = closed | adj[u]
            count += 1
            if count > budget:
                raise BudgetExceededError("connected-set enumeration", budget)
            yield newmask, newclosed & ~newmask
            new_cand = ((cand ^ ubit) | (adj[u] & higher & ~banned)) & ~newmask
            stack.append((newmask, newclosed, new_cand, banned))


def connected_set_masks(g: Graph, *, budget: int = DEFAULT_ENUM_BUDGET):
    """Yield every nonempty connected vertex set of g exactly once, as a
    mask: the sets of connected_set_boundaries, in its order and under
    its budget."""
    for x, _ in connected_set_boundaries(g, budget=budget):
        yield x


def max_leaf_number(g: Graph, *, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """The graph parameter ell(G): per component, the largest open
    neighborhood of a nonempty connected set; maximized over components.

    A single-vertex component contributes 0.
    """
    if g.n == 0:
        raise ValueError("max_leaf_number requires a nonempty graph")
    return max(nb.bit_count()
               for _, nb in connected_set_boundaries(g, budget=budget))


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tree:
    """A tree spanning a designated vertex subset of an ambient graph:
    ``vertices`` is a mask, ``edges`` a set of (min, max) pairs."""

    n: int
    vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        vmask = self.vertices
        if vmask < 0 or vmask >> self.n:
            raise ValueError("tree vertices out of ambient range")
        if not vmask:
            raise ValueError("a tree must have at least one vertex")
        if len(self.edges) != vmask.bit_count() - 1:
            raise ValueError("edge count must equal vertex count - 1")
        adj = [0] * self.n
        for u, v in self.edges:
            if u >= v:
                raise ValueError("tree edges must be stored as (min, max) pairs")
            if u < 0 or not (vmask >> u & 1 and vmask >> v & 1):
                raise ValueError("tree edge endpoint outside vertex set")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        if _reach(adj, vmask & -vmask, vmask) != vmask:
            raise ValueError("tree is not connected over its vertex set")

    def leaves(self) -> int:
        """Degree-1 vertices as a mask; for a single-vertex tree, that
        vertex itself."""
        if self.vertices.bit_count() == 1:
            return self.vertices
        once = twice = 0
        for u, v in self.edges:
            ends = 1 << u | 1 << v
            twice |= once & ends
            once |= ends
        return once & ~twice


def bfs_tree_edges(g: Graph, root: int, within: int):
    """Deterministic BFS tree inside ``within``; neighbors visited
    ascending.  Returns the vertices reached, as a mask, and the tree
    edges as (min, max) pairs in the order their far ends were reached."""
    seen = 1 << root
    order = [root]
    edges = []
    qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        for u in bits(g.adj[v] & within & ~seen):
            seen |= 1 << u
            order.append(u)
            edges.append((min(u, v), max(u, v)))
    return seen, edges


def max_leaf_number_exhaustive(g: Graph) -> int:
    """Oracle twin of max_leaf_number: per component, max over all spanning
    trees of the number of degree-1 vertices.

    Branch and bound over g.edges(): each edge is first taken (when it
    joins two trees of the forest so far), then left out.  Degrees only
    grow along a branch and a spanning tree of n >= 2 vertices has no
    vertex of degree 0, so every tree a branch completes has at most
    n - inner leaves, inner being its vertices of degree >= 2.  A branch
    is cut once that is no more than the best tree found, so the cut
    loses no better tree.  The best starts at a real tree, the BFS tree
    from a vertex of largest degree.  A component's walk stops once the
    best reaches cap = n - ceil((n - 2) / (D - 1)), D the component's
    largest degree: a spanning tree's degree sum is 2(n - 1), its L
    leaves give L of it and each of its n - L inner vertices at most D,
    so no tree of n >= 3 vertices has more than cap leaves (the BFS tree
    of n = 2 already has its 2).  The cap reads only degrees, so the
    oracle stays independent of max_leaf_number.  Refuses components
    with more than MAX_SPANNING_TREE_VERTICES vertices.

    On a lone edge this gives 2 where max_leaf_number gives 1: the tree's
    interior is empty. The two agree on every other connected graph with
    up to 7 vertices (checked exhaustively)."""
    if g.n == 0:
        raise ValueError("empty graph")
    best = 0
    for comp in components(g):
        if comp.bit_count() > MAX_SPANNING_TREE_VERTICES:
            raise ValueError("spanning-tree oracle capped at "
                             f"{MAX_SPANNING_TREE_VERTICES} vertices per component")
        if comp.bit_count() < 2:
            continue
        sub, _ = spanned_subgraph(g, comp)
        n = sub.n
        root = max(range(n), key=lambda v: sub.adj[v].bit_count())
        delta = sub.adj[root].bit_count()
        # n - ceil((n - 2) / (delta - 1)), the leaf cap above
        cap = n + (2 - n) // (delta - 1) if n > 2 else 2
        touched = inner = 0
        for u, v in bfs_tree_edges(sub, root, sub.full_mask)[1]:
            ends = 1 << u | 1 << v
            inner |= touched & ends
            touched |= ends
        best = max(best, n - inner.bit_count())
        edge_list = sub.edges()
        m = len(edge_list)
        need = n - 1
        # (next edge, edges taken, component label of each vertex,
        #  vertices of degree >= 1, vertices of degree >= 2)
        stack = [(0, 0, list(range(n)), 0, 0)]
        while stack and best < cap:
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


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    """Parse the text format: header "n m", then m lines "u v" with
    0 <= u < v < n.  Lines starting with '#' are comments."""
    lines = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    if not rows:
        raise GraphFormatError("empty graph file")
    head = rows[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"bad header line: {rows[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"bad header line: {rows[0]!r}") from exc
    if n < 0 or m < 0:
        raise GraphFormatError("negative counts in header")
    if n == 0:
        raise GraphFormatError("graph file has no vertices")
    if len(rows) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"bad edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"bad edge line: {ln!r}") from exc
        if not 0 <= u < v < n:
            raise GraphFormatError(f"edge {u} {v} violates 0 <= u < v < n={n}")
        edges.append((u, v))
    try:
        return graph_from_edges(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def read_graph(path) -> Graph:
    return parse_graph(Path(path).read_text())
