"""Shared test machinery: the graph, tree, class, sample and teacher
helpers that only tests use (neighborhoods as sets, neighborhood
spanning trees, text writers, powersets, unions and restrictions,
version spaces, the classic teacher check), exhaustive graph/tree
enumeration, the vectorized all-graphs max-leaf sweeps used by the
acceptance suite and the max-leaf oracle's differential test, the
pair-list preference closure that mask-built preferences are checked
against, the recursive spanning-tree enumerator that the pruned
max-leaf oracle is checked against on graphs too large for the sweeps,
relabeling with label-free check results for the invariance tests,
the certifier that checks RTD, TD and VCD answers from both sides
without the kernels, and the benchmark's workload definitions, loaded
read-only."""

from __future__ import annotations

import heapq
import functools
import importlib.util
import itertools
import operator
import re
import sys
from pathlib import Path

import numpy as np

from teachdim.concepts import ConceptClass, Sample, format_concept, version_space_mask
from teachdim.errors import PreferenceCycleError
from teachdim.graphs import (
    Graph,
    Tree,
    _as_mask,
    bfs_tree_edges,
    bits,
    closed_neighborhood_mask,
    component_mask,
    graph_from_edges,
    is_connected,
    mask_of,
    open_neighborhood_mask,
    set_of,
)
from teachdim.teaching import PBTeacher, PreferenceRelation, verify_pb_teacher


# ---------------------------------------------------------------------------
# Graphs and trees
# ---------------------------------------------------------------------------

def closed_neighborhood(g: Graph, x) -> frozenset[int]:
    """N(X) = union over x in X of (neighbors of x plus x itself)."""
    return set_of(closed_neighborhood_mask(g, _as_mask(g, x)))


def open_neighborhood(g: Graph, x) -> frozenset[int]:
    """N(X) minus X: the vertices outside X adjacent to some member."""
    return set_of(open_neighborhood_mask(g, _as_mask(g, x)))


def tree_degree(t: Tree, v: int) -> int:
    return sum(1 for u, w in t.edges if v in (u, w))


def interior(t: Tree) -> frozenset[int]:
    return t.vertices - t.leaves()


def leaf_count(t: Tree) -> int:
    return len(t.leaves())


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
    return Tree(g.n, set_of(closed), frozenset(edges))


def extend_to_spanning_tree(g: Graph, t: Tree) -> Tree:
    """Grow t into a spanning tree of its component without losing leaves.

    Edges are added greedily (smallest tree vertex, then smallest new
    vertex).  When t already has the maximum possible number of leaves,
    the result is t plus paths hanging off t's leaves; the test suite
    asserts that property.
    """
    if not is_subgraph_of(t, g):
        raise ValueError("tree is not a subgraph of the graph")
    tmask = mask_of(t.vertices)
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
    return Tree(g.n, set_of(comp), frozenset(edges))


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


def format_class(cc: ConceptClass) -> str:
    lines = [f"{len(cc.concepts)} {cc.domain_size}"]
    lines.extend(format_concept(c, cc.domain_size) for c in cc.concepts)
    return "\n".join(lines) + "\n"


def write_class(cc: ConceptClass, path) -> None:
    Path(path).write_text(format_class(cc))


def empty_preference(size: int) -> PreferenceRelation:
    return PreferenceRelation(size, (0,) * size)


def verify_smgk_teacher(cc: ConceptClass, teaching_sets) -> bool:
    """Classic teacher check: each sample must pin down its concept alone."""
    sets = tuple(frozenset(ts) for ts in teaching_sets)
    teacher = PBTeacher(cc, sets, empty_preference(len(cc)))
    ok, _ = verify_pb_teacher(cc, teacher)
    return ok


# ---------------------------------------------------------------------------
# The certifier
# ---------------------------------------------------------------------------


def certify(cc: ConceptClass, cert, tds, vc) -> list[str]:
    """Check the peeling certificate ``cert``, the ``td_of`` answers
    ``tds`` (size, witness set) of every concept and the ``vcd`` answer
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
    for i, (k, witness) in enumerate(tds):
        w = sum(1 << x for x in witness)
        if len(witness) != k or not teaches(w, concepts[i], concepts):
            problems.append(f"td witness {sorted(witness)} of concept {i} does "
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


# ---------------------------------------------------------------------------
# Preference closure and spanning trees by reference algorithms
# ---------------------------------------------------------------------------


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
