import math
import random

import pytest

from helpers import (
    all_graphs,
    bulk_max_leaf_by_spanning_trees,
    closed_neighborhood,
    connected_graphs,
    extend_to_spanning_tree,
    format_graph,
    graph_of_edge_mask,
    interior,
    is_subgraph_of,
    labeled_trees,
    leaf_count,
    max_open_neighborhood,
    neighborhood_spanning_tree,
    open_neighborhood,
    reference_spanning_trees,
    tree_degree,
    uncapped_max_leaf_number,
)
from teachdim.context import GraphContext
from teachdim.errors import BudgetExceededError, GraphFormatError
from teachdim.families import (
    complete_graph,
    cycle_graph,
    fig1_right,
    fig2,
    path_graph,
    random_graph,
)
from teachdim.graphs import (
    Graph,
    Tree,
    bits,
    components,
    connected_set_masks,
    graph_from_edges,
    is_connected,
    max_leaf_number,
    max_leaf_number_exhaustive,
    parse_graph,
    set_of,
    spanned_subgraph,
)


def letters(g, s):
    return sorted(g.vertex_name(v) for v in s)


class TestConstruction:
    def test_symmetry_and_loops_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            graph_from_edges(3, [(0, 0)])
        with pytest.raises(ValueError, match="symmetric"):
            Graph(2, (2, 0))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            graph_from_edges(3, [(0, 1), (1, 0)])

    def test_vertex_cap(self):
        with pytest.raises(ValueError, match="cap"):
            graph_from_edges(25, [])

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError):
            graph_from_edges(3, [(0, 3)])


class TestNeighborhoods:
    def test_cycle_singleton(self):
        g = cycle_graph(4)
        assert open_neighborhood(g, {0}) == {1, 3}

    def test_fig2_pair(self):
        g = fig2()
        assert letters(g, open_neighborhood(g, {0, 1})) == ["c", "d", "e"]

    def test_whole_vertex_set_has_empty_boundary(self):
        for g in (cycle_graph(5), fig2(), complete_graph(4)):
            assert open_neighborhood(g, range(g.n)) == frozenset()

    def test_closed_neighborhood_fig1_right(self):
        g = fig1_right()
        assert letters(g, closed_neighborhood(g, {0})) == ["a", "b", "c", "d"]

    def test_closed_neighborhood_isolated_and_complete(self):
        g = graph_from_edges(3, [(0, 1)])
        assert closed_neighborhood(g, {2}) == {2}
        assert closed_neighborhood(complete_graph(5), {0}) == set(range(5))

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            open_neighborhood(cycle_graph(4), {7})

    def test_open_neighborhood_never_equals_closed(self):
        # exhaustive on all graphs up to 5 vertices, then random larger ones
        for n in range(1, 6):
            for g in all_graphs(n):
                for x in range(n):
                    for y in range(n):
                        assert open_neighborhood(g, {x}) != closed_neighborhood(g, {y})
        for i in range(25):
            g = random_graph(24, 0.3, seed=5, index=i)
            for x in range(0, 24, 5):
                for y in range(0, 24, 5):
                    assert open_neighborhood(g, {x}) != closed_neighborhood(g, {y})


class TestStructure:
    def test_spanned_subgraph_reindexes(self):
        g = fig2()
        sub, kept = spanned_subgraph(g, {1, 3, 5})  # b, d, f
        assert kept == (1, 3, 5)
        assert sub.n == 3
        assert sub.edges() == ((0, 1), (1, 2))  # b-d, d-f

    def test_components_ordering(self):
        g = graph_from_edges(6, [(3, 4), (0, 5)])
        assert components(g) == (0b100001, 0b10, 0b100, 0b11000)  # {0,5} {1} {2} {3,4}

    def test_components_inside_a_set(self):
        g = cycle_graph(6)
        # deleting 0 and 3 leaves the paths 1-2 and 4-5
        assert components(g, 0b110110) == (0b110, 0b110000)
        assert components(g, {1, 2, 4, 5}) == (0b110, 0b110000)
        assert components(g, 0) == ()
        with pytest.raises(ValueError):
            components(g, 1 << 6)

    def test_is_connected(self):
        g = cycle_graph(5)
        assert is_connected(g, {0, 1, 2})
        assert not is_connected(g, {0, 2})
        with pytest.raises(ValueError):
            is_connected(g, frozenset())

    def test_connected_set_counts(self):
        assert sum(1 for _ in connected_set_masks(cycle_graph(4))) == 13
        assert sum(1 for _ in connected_set_masks(path_graph(3))) == 10
        assert sum(1 for _ in connected_set_masks(complete_graph(4))) == 15

    def test_connected_sets_unique(self):
        for g in (fig2(), cycle_graph(6), complete_graph(5)):
            masks = list(connected_set_masks(g))
            assert len(masks) == len(set(masks))
            assert all(is_connected(g, m) for m in masks)

    def test_budget_error(self):
        with pytest.raises(BudgetExceededError):
            list(connected_set_masks(complete_graph(6), budget=10))


class TestMaxLeafNumber:
    def test_paths(self):
        for n in range(2, 9):
            assert max_leaf_number(path_graph(n)) == 2

    def test_complete(self):
        for n in range(3, 9):
            assert max_leaf_number(complete_graph(n)) == n - 1

    def test_fig2(self):
        assert max_leaf_number(fig2()) == 4

    def test_degenerate_small(self):
        assert max_leaf_number(complete_graph(1)) == 0
        # single edge: the largest open neighborhood of a connected set is 1
        assert max_leaf_number(complete_graph(2)) == 1

    def test_multi_component_takes_max(self):
        g = graph_from_edges(7, [(0, 1), (2, 3), (2, 4), (2, 5), (2, 6)])
        assert max_leaf_number(g) == 4

    def test_is_the_contexts_ell(self, random200, family_graphs):
        """The sweep reads ell from GraphContext; max_leaf_number gives
        the same value from its own walk."""
        for name, g in random200 + family_graphs:
            assert max_leaf_number(g) == GraphContext(g).ell, name

    def test_oracle_agreement_small(self):
        """The pruned spanning-tree oracle against every spanning tree: all
        connected graphs with 2..6 vertices and seeded 7-vertex graphs
        against the vectorized sweep over labeled trees, sparse 8-vertex
        graphs against the recursive enumerator, disconnected graphs
        against the maximum over their components. Off K_2, the library's
        connected-set form of ell must agree on every small graph."""
        assert max_leaf_number_exhaustive(complete_graph(1)) == 0
        assert max_leaf_number(complete_graph(1)) == 0
        # single-edge graphs are the documented divergence from
        # max_leaf_number: two degree-1 vertices but no interior vertex
        assert max_leaf_number_exhaustive(complete_graph(2)) == 2
        for n in range(2, 7):
            bulk = bulk_max_leaf_by_spanning_trees(n)
            for gid in map(int, bulk.nonzero()[0]):
                g = graph_of_edge_mask(n, gid)
                assert max_leaf_number_exhaustive(g) == bulk[gid]
                if n != 2:
                    assert max_leaf_number(g) == bulk[gid]

        bulk = bulk_max_leaf_by_spanning_trees(7)
        rng = random.Random(29)
        checked = 0
        while checked < 2000:
            gid = rng.getrandbits(21)
            if bulk[gid]:  # connected
                g = graph_of_edge_mask(7, gid)
                assert max_leaf_number_exhaustive(g) == bulk[gid]
                checked += 1

        def by_trees(g):
            best = 0
            for edges in reference_spanning_trees(g):
                deg = [0] * g.n
                for u, v in edges:
                    deg[u] += 1
                    deg[v] += 1
                best = max(best, deg.count(1))
            return best

        index = 0
        for _ in range(6):
            while True:
                g = random_graph(8, 0.35, 31, index=index)
                index += 1
                if is_connected(g, g.full_mask):
                    break
            assert max_leaf_number_exhaustive(g) == by_trees(g)

        for i in range(40):
            g = random_graph(8, 0.2, 37, index=i)
            want = max(
                (by_trees(spanned_subgraph(g, c)[0]) if c.bit_count() > 1 else 0)
                for c in components(g))
            assert max_leaf_number_exhaustive(g) == want

    def test_oracle_size_cap(self):
        with pytest.raises(ValueError, match="capped"):
            max_leaf_number_exhaustive(complete_graph(9))
        # the cap is per component
        g = graph_from_edges(9, complete_graph(8).edges())
        assert max_leaf_number_exhaustive(g) == 7

    def test_capped_oracle_matches_the_uncapped_search(self):
        """The degree cap only stops a walk early: on the benchmark's
        verify pool, dense random graphs, disconnected graphs whose
        components have different largest degrees (one also in the
        other order, so that an earlier component's best already meets
        a later one's cap), K_2, the star K_{1,7}, paths and cycles, the
        oracle gives the value of the search without the cap."""

        def union(*parts):
            edges, offset = [], 0
            for part in parts:
                edges += [(u + offset, v + offset) for u, v in part.edges()]
                offset += part.n
            return graph_from_edges(offset, edges)

        star7 = graph_from_edges(8, [(0, v) for v in range(1, 8)])
        star5 = graph_from_edges(6, [(0, v) for v in range(1, 6)])
        named = {
            "K_2": (complete_graph(2), 2),
            "K_1,7": (star7, 7),
            **{f"P_{k}": (path_graph(k), 2) for k in range(2, 8)},
            **{f"C_{n}": (cycle_graph(n), 2) for n in range(3, 9)},
        }
        for label, (g, want) in named.items():
            assert max_leaf_number_exhaustive(g) == want, label
            assert uncapped_max_leaf_number(g) == want, label

        graphs = [random_graph(n, p, 2025, i) for n in (6, 7, 8)
                  for p in (0.3, 0.5, 0.7) for i in range(2)]
        graphs += [random_graph(8, p, s, i) for p in (0.5, 0.7, 0.9)
                   for s in (1, 2) for i in range(4)]
        graphs += [
            union(star5, cycle_graph(6)),
            union(cycle_graph(6), star5),
            union(path_graph(3), star5, complete_graph(1)),
            union(complete_graph(4), path_graph(2), complete_graph(2)),
            union(fig2(), cycle_graph(5)),
            union(cycle_graph(5), random_graph(8, 0.5, 3)),
        ]
        graphs += [random_graph(8, 0.2, 37, index=i) for i in range(10)]
        assert any(not is_connected(g, g.full_mask) for g in graphs)
        for g in graphs:
            assert max_leaf_number_exhaustive(g) == uncapped_max_leaf_number(g)

    def test_leaf_cap_bounds_every_small_connected_graph(self):
        """No spanning tree of a connected graph with n >= 3 vertices and
        largest degree D has more than n - ceil((n - 2) / (D - 1))
        leaves.  Below n - 1, where the uncapped walk could not stop
        early, graphs of every size from 4 on reach that cap, so the
        oracle's early stop is taken on them."""
        for n in range(3, 7):
            bulk = bulk_max_leaf_by_spanning_trees(n)
            reached = below = 0
            for gid in map(int, bulk.nonzero()[0]):
                g = graph_of_edge_mask(n, gid)
                cap = n - math.ceil((n - 2) / (g.max_degree() - 1))
                assert bulk[gid] <= cap, (n, gid)
                reached += bulk[gid] == cap
                below += bulk[gid] == cap < n - 1
            assert reached
            assert below or n == 3


class TestMaxOpenNeighborhood:
    def test_empty_sets_give_zero(self):
        g = fig2()
        assert max_open_neighborhood(g, []) == 0
        assert max_open_neighborhood(g, [0]) == 0
        assert max_open_neighborhood(complete_graph(1), [1]) == 0

    def test_matches_open_neighborhood_on_any_sets(self):
        rng = random.Random(5)
        for i in range(20):
            g = random_graph(9, 0.4, seed=8, index=i)
            sets = [rng.getrandbits(9) for _ in range(12)]
            want = max(len(open_neighborhood(g, set_of(x))) for x in sets)
            assert max_open_neighborhood(g, sets) == want
            assert max_open_neighborhood(g, iter(sets)) == want

    def test_read_from_the_class_on_every_small_graph(self, sweep6):
        """On every connected graph with at most 6 vertices, ell read from
        the connected-set class, with and without the empty set, equals
        the context's ell (the sweep compares the two per graph)."""
        assert sweep6["count"] == 27476
        assert sweep6["ell_from_class"] == []


class TestNeighborhoodSpanningTree:
    def test_cycle_star(self):
        g = cycle_graph(4)
        t = neighborhood_spanning_tree(g, {0})
        assert t.vertices == 0b1011  # {0,1,3}
        assert t.leaves() == 0b1010  # {1,3}

    def test_fig2_example(self):
        g = fig2()
        t = neighborhood_spanning_tree(g, {1, 3})  # {b,d}
        assert letters(g, bits(t.vertices)) == ["a", "b", "d", "e", "f", "g"]
        assert letters(g, bits(t.leaves())) == ["a", "e", "f", "g"]

    def test_boundary_vertices_are_leaves_random(self):
        rng = random.Random(99)
        done = 0
        while done < 200:
            n = rng.randint(2, 9)
            g = random_graph(n, rng.choice((0.3, 0.5, 0.7)), seed=17, index=done)
            sets = list(connected_set_masks(g))
            xmask = rng.choice(sets)
            t = neighborhood_spanning_tree(g, xmask)
            boundary = open_neighborhood(g, xmask)
            assert set_of(t.vertices) == closed_neighborhood(g, xmask)
            # oracle: every boundary vertex has degree exactly 1 in the tree
            for y in boundary:
                assert tree_degree(t, y) == 1
            assert is_subgraph_of(t, g)
            done += 1

    def test_requires_connected(self):
        with pytest.raises(ValueError):
            neighborhood_spanning_tree(cycle_graph(5), {0, 2})


class TestExtendToSpanningTree:
    def test_not_subgraph_rejected(self):
        g = path_graph(4)
        t = Tree(5, 0b101, frozenset({(0, 2)}))
        with pytest.raises(ValueError, match="subgraph"):
            extend_to_spanning_tree(g, t)

    def test_never_loses_leaves(self):
        rng = random.Random(4242)
        for i in range(150):
            n = rng.randint(3, 9)
            g = random_graph(n, rng.choice((0.4, 0.6)), seed=23, index=i)
            comp = max(components(g), key=int.bit_count)
            if comp.bit_count() < 2:
                continue
            sub_sets = [m for m in connected_set_masks(g) if not m & ~comp]
            xmask = rng.choice(sub_sets)
            t0 = neighborhood_spanning_tree(g, xmask)
            t1 = extend_to_spanning_tree(g, t0)
            assert t1.vertices == comp
            assert t0.edges <= t1.edges
            assert leaf_count(t1) >= leaf_count(t0)

    def test_max_leaf_tree_extends_by_leaf_paths(self):
        # when the seed tree already attains the graph's max leaf count,
        # nothing may attach to its interior vertices
        for g in (fig2(), cycle_graph(6), complete_graph(5)):
            ell = max_leaf_number(g)
            for xmask in connected_set_masks(g):
                t = neighborhood_spanning_tree(g, xmask)
                if leaf_count(t) != ell:
                    continue
                t1 = extend_to_spanning_tree(g, t)
                assert leaf_count(t1) >= ell
                for v in bits(interior(t)):
                    assert tree_degree(t1, v) == tree_degree(t, v)


class TestTextFormat:
    def test_round_trip(self):
        g = fig2()
        assert parse_graph(format_graph(g)) == Graph(g.n, g.adj)

    def test_comments_allowed(self):
        g = parse_graph("# a triangle\n3 3\n0 1\n# middle comment\n0 2\n1 2\n")
        assert g.m == 3

    @pytest.mark.parametrize("text", [
        "",
        "3\n",
        "0 0\n",               # no vertices
        "3 2\n0 1\n",           # missing edge line
        "3 1\n1 0\n",           # u >= v
        "3 1\n0 3\n",           # out of range
        "3 2\n0 1\n0 1\n",      # duplicate
        "3 1\n0 x\n",
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(GraphFormatError):
            parse_graph(text)

    def test_tree_leaf_conventions(self):
        single = Tree(3, 0b10, frozenset())
        assert single.leaves() == 0b10
        edge = Tree(2, 0b11, frozenset({(0, 1)}))
        assert edge.leaves() == 0b11

    @pytest.mark.parametrize("n, vertices, edges, message", [
        (2, 0b101, {(0, 2)}, "out of ambient range"),
        (3, 0, set(), "at least one vertex"),
        (3, 0b111, {(0, 1)}, "edge count"),
        (3, 0b11, {(1, 0)}, r"\(min, max\) pairs"),
        (4, 0b11, {(0, 3)}, "endpoint outside vertex set"),
        (4, 0b1111, {(0, 1), (0, 2), (1, 2)}, "not connected"),
    ], ids=["range", "empty", "edge-count", "edge-order", "endpoint",
            "disconnected"])
    def test_tree_checks(self, n, vertices, edges, message):
        with pytest.raises(ValueError, match=message):
            Tree(n, vertices, frozenset(edges))

    def test_labeled_tree_counts(self):
        assert sum(1 for _ in labeled_trees(5)) == 125
        assert sum(1 for _ in labeled_trees(6)) == 1296
