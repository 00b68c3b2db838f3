import itertools
import re

import pytest

from helpers import concept_set, connected_graphs, pair_closure
from teachdim.concepts import is_shattered
from teachdim.context import GraphContext
from teachdim.dimensions import rtd_subclass_lower_bound, vcd
from teachdim.errors import BudgetExceededError, TeacherPreconditionError
from teachdim.families import (
    complete_graph,
    cycle_graph,
    fig1_right,
    path_graph,
    random_graph,
)
from teachdim.graphs import graph_from_edges, mask_of
from teachdim.stars import (
    build_star_class,
    star_special_teacher,
    star_subset_teacher,
    star_triple,
    star_vcd_characterization,
    vmax_partition,
)
from teachdim.teaching import verify_pb_teacher


class TestBuildStarClass:
    def test_complete_graphs(self):
        for n in range(2, 7):
            cc = build_star_class(complete_graph(n))
            assert len(cc) == 2 ** n - 1
            assert 0 not in cc.concepts

    def test_cycle4_exact_concepts(self):
        cc = build_star_class(cycle_graph(4))
        assert len(cc) == 12
        excluded = {0b0000, 0b0101, 0b1010, 0b1111}  # empty, {a,c}, {b,d}, all
        assert set(cc.concepts) == set(range(16)) - excluded

    def test_paths_are_consecutive_runs(self):
        for length in range(2, 7):
            g = path_graph(length)
            cc = build_star_class(g)
            runs = set()
            for width in (1, 2, 3):
                for start in range(g.n - width + 1):
                    runs.add(sum(1 << (start + k) for k in range(width)))
            assert set(cc.concepts) == runs

    def test_edgeless_graph_gives_singletons(self):
        cc = build_star_class(graph_from_edges(4, []))
        assert set(cc.concepts) == {1, 2, 4, 8}

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            build_star_class(complete_graph(24))


class TestVmaxPartition:
    def test_fig1_right_grouping(self):
        part = vmax_partition(fig1_right())
        assert part.delta == 3
        assert part.groups[0].members == {0, 1}  # a, b share {a,b,c,d}
        assert part.groups[0].closed == {0, 1, 2, 3}
        assert part.groups[0].fringe == {2, 3}
        assert [g.members for g in part.groups[1:]] == [{2}, {3}]

    def test_complete_graph_single_group(self):
        part = vmax_partition(complete_graph(5))
        assert len(part.groups) == 1
        assert part.groups[0].members == set(range(5))
        assert part.groups[0].fringe == frozenset()

    def test_cycle5_singleton_groups(self):
        part = vmax_partition(cycle_graph(5))
        assert len(part.groups) == 5
        assert all(len(g.members) == 1 for g in part.groups)

    def test_invariants_hold_on_random_graphs(self):
        for i in range(60):
            g = random_graph(8, 0.5, seed=13, index=i)
            part = vmax_partition(g)  # construction validates
            for grp in part.groups:
                assert len(grp.closed) == part.delta + 1


class TestCharacterization:
    def test_fig1_right(self):
        value, witness = star_vcd_characterization(fig1_right())
        assert value == 4
        assert witness == (0, 4)  # the extra vertex v covers {c,d}

    def test_complete_no_external_vertex(self):
        for n in range(2, 7):
            assert star_vcd_characterization(complete_graph(n)) == (n - 1, None)

    def test_long_cycles(self):
        for n in range(5, 9):
            assert star_vcd_characterization(cycle_graph(n))[0] == 2

    def test_cycle4(self):
        value, witness = star_vcd_characterization(cycle_graph(4))
        assert value == 3 and witness is not None

    def test_matches_brute_force_small(self):
        for n in range(1, 5):
            for g in connected_graphs(n):
                assert star_vcd_characterization(g)[0] == vcd(build_star_class(g))[0]


class TestStarTeachers:
    def test_subset_teacher_sets_are_the_concepts(self):
        g = cycle_graph(5)
        teacher = star_subset_teacher(GraphContext(g))
        cc = teacher.concept_class
        for i in range(len(cc)):
            assert teacher.teaching_sets[i] == concept_set(cc, i)
        ok, cx = verify_pb_teacher(cc, teacher)
        assert ok
        assert teacher.order <= g.max_degree() + 1

    def test_special_teacher_on_complete_graph(self):
        g = complete_graph(4)
        teacher = star_special_teacher(GraphContext(g))
        ok, cx = verify_pb_teacher(teacher.concept_class, teacher)
        assert ok, cx
        assert teacher.order <= 3
        # every concept is special here: taught by its complement as negatives
        cc = teacher.concept_class
        for i, c in enumerate(cc.concepts):
            assert teacher.teaching_sets[i] == frozenset(range(4)) - concept_set(cc, i)

    def test_special_teacher_computes_the_partition_once(self, monkeypatch):
        import teachdim.context as context
        import teachdim.stars as stars

        calls = []
        real = stars.vmax_partition

        def counted(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(stars, "vmax_partition", counted)
        monkeypatch.setattr(context, "vmax_partition", counted)
        for g in (complete_graph(4), path_graph(4), cycle_graph(6), fig1_right()):
            calls.clear()
            try:
                star_special_teacher(GraphContext(g))
            except TeacherPreconditionError:
                pass
            assert len(calls) == 1

    def test_special_teacher_refuses_when_vcd_exceeds_delta(self):
        for g in (fig1_right(), cycle_graph(4)):
            with pytest.raises(TeacherPreconditionError):
                star_special_teacher(GraphContext(g))

    def test_special_teacher_on_paths_and_long_cycles(self):
        for g in (path_graph(4), cycle_graph(6)):
            teacher = star_special_teacher(GraphContext(g))
            ok, cx = verify_pb_teacher(teacher.concept_class, teacher)
            assert ok, cx
            assert teacher.order <= g.max_degree()

    @staticmethod
    def special_pairs(g, cc):
        """Non-special over special concepts; within a shared group, more
        members over fewer; among non-special ones, smaller sets first."""
        groups = [(mask_of(grp.members), mask_of(grp.fringe))
                  for grp in vmax_partition(g).groups]
        scopes = [{gi for gi, (_, fringe) in enumerate(groups) if c & fringe == fringe}
                  for c in cc.concepts]
        pairs = []
        for i, ci in enumerate(cc.concepts):
            for j, cj in enumerate(cc.concepts):
                if i == j:
                    continue
                if not scopes[i] and scopes[j]:
                    pairs.append((i, j))
                elif not scopes[i] and not scopes[j] and ci & cj == ci:
                    pairs.append((i, j))
                elif any((ci & groups[gi][0]).bit_count()
                         > (cj & groups[gi][0]).bit_count()
                         for gi in scopes[i] & scopes[j]):
                    pairs.append((i, j))
        return pairs

    def test_special_teacher_preference_matches_pair_rules(self):
        graphs = [complete_graph(5), path_graph(5), cycle_graph(7)]
        graphs += [random_graph(n, 0.5, seed) for n in (5, 6, 7) for seed in range(4)]
        built = 0
        for g in graphs:
            try:
                teacher = star_special_teacher(GraphContext(g))
            except TeacherPreconditionError:
                continue
            cc = teacher.concept_class
            assert teacher.preference.below == pair_closure(
                len(cc), self.special_pairs(g, cc))
            built += 1
        assert built >= 10


class TestSharedParts:
    """A star teacher built from a context that other teachers and
    checks of the graph already read equals one built from a fresh
    context."""

    def test_star_teachers(self):
        graphs = [cycle_graph(5), complete_graph(4), fig1_right(), path_graph(1)]
        graphs += [random_graph(5 + i % 4, (0.3, 0.5, 0.7)[i % 3], 505, i)
                   for i in range(30)]
        refused = 0
        for g in graphs:
            ctx = GraphContext(g)
            assert star_subset_teacher(ctx) == star_subset_teacher(GraphContext(g))
            assert ctx.part == vmax_partition(g)
            try:
                shared = star_special_teacher(ctx)
            except TeacherPreconditionError as exc:
                refused += 1
                with pytest.raises(TeacherPreconditionError, match=re.escape(str(exc))):
                    star_special_teacher(GraphContext(g))
                continue
            assert shared == star_special_teacher(GraphContext(g))
            assert star_subset_teacher(ctx) == star_subset_teacher(GraphContext(g))
        assert 0 < refused < len(graphs)


class TestTriples:
    def test_reference_triples(self):
        assert star_triple(cycle_graph(4)) == (2, 3, 3)
        for n in range(2, 9):
            assert star_triple(path_graph(n)) == (2, 2, 2)
        for n in range(2, 7):
            assert star_triple(complete_graph(n)) == (n - 1,) * 3
        for n in range(5, 9):
            assert star_triple(cycle_graph(n)) == (2, 2, 2)

    def test_edgeless(self):
        assert star_triple(graph_from_edges(1, [])) == (0, 0, 0)
        assert star_triple(graph_from_edges(4, [])) == (0, 1, 1)

    def test_fig1_right_peeling_is_forced_to_four(self):
        """The five-vertex star example: its class contains the sixteen
        concepts (any subset of {a,b}) + (c or d) + (v or not), and every
        one of them needs a, b, v and one of c, d to be distinguished
        inside that subclass, so TD_min is 4 there and the subclass bound
        forces the peeling dimension to 4, not the printed 3."""
        g = fig1_right()
        cc = build_star_class(g)
        a, b, c, d, v = (1 << i for i in range(5))
        product_block = [
            s | t | e
            for s in (0, a, b, a | b)
            for t in (c, d)
            for e in (0, v)
        ]
        idxs = [cc.index_of(m) for m in product_block]
        assert rtd_subclass_lower_bound(cc, idxs) == 4

        # the same TD_min by brute force, independent of the engine: the
        # smallest label set over the five vertices that leaves only the
        # concept itself consistent inside the block
        def block_td(concept):
            for k in range(g.n + 1):
                for dom in itertools.combinations(range(g.n), k):
                    m = sum(1 << x for x in dom)
                    consistent = [o for o in product_block
                                  if o & m == concept & m]
                    if consistent == [concept]:
                        return k

        assert min(block_td(c) for c in product_block) == 4
        assert star_triple(g) == (3, 4, 4)


class TestShatteringStructure:
    def test_open_neighborhoods_shattered(self):
        for g in (cycle_graph(5), fig1_right(), complete_graph(5)):
            cc = build_star_class(g)
            for x in range(g.n):
                assert is_shattered(cc, g.adj[x])

    def test_shattered_sets_live_in_closed_neighborhoods(self):
        for n in range(1, 6):
            for g in connected_graphs(n):
                cc = build_star_class(g)
                for size in range(1, n + 1):
                    for s in itertools.combinations(range(n), size):
                        if not is_shattered(cc, s):
                            continue
                        smask = sum(1 << x for x in s)
                        assert any(
                            smask & ~g.closed_mask(x) == 0 for x in range(n)
                        )
