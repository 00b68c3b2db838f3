import pytest

from helpers import (
    connected_graphs,
    labeled_trees,
    open_neighborhood,
    pair_closure,
    sample_from_pairs,
    version_space,
)
from teachdim.concepts import Sample
from teachdim.connected import (
    build_con_class,
    con_superset_teacher,
    con_tree_teacher,
    con_triple,
    con_vcd_matching_teacher,
    leaf_tree_condition,
    maximal_opponents,
)
from teachdim.context import GraphContext
from teachdim.dimensions import vcd
from teachdim.errors import (
    BudgetExceededError,
    PreferenceCycleError,
    TeacherPreconditionError,
)
from teachdim.families import complete_graph, cycle_graph, fig2, path_graph, random_graph
from teachdim.graphs import (
    bits,
    graph_from_edges,
    is_connected,
    max_leaf_number,
    open_neighborhood_mask,
    set_of,
)
from teachdim.teaching import lex_refine, superset_preferences, verify_pb_teacher


def names(g, s):
    return sorted(g.vertex_name(v) for v in s)


def refuse_to_measure_ell(monkeypatch):
    """Fail any later enumeration or measurement of ell(G) by a context."""
    import teachdim.context as context

    def refuse(*args, **kwargs):
        raise AssertionError("ell measured again despite a context that has it")

    monkeypatch.setattr(context, "build_con_class", refuse)
    monkeypatch.setattr(context, "max_open_neighborhood", refuse)


class TestBuildConClass:
    def test_cycle4_count(self):
        assert len(build_con_class(cycle_graph(4), False)) == 13
        assert len(build_con_class(cycle_graph(4), True)) == 14

    def test_complete_graphs(self):
        for n in range(2, 6):
            assert len(build_con_class(complete_graph(n), False)) == 2 ** n - 1

    def test_paths_are_intervals(self):
        g = path_graph(3)  # 4 vertices: n(n+1)/2 intervals
        cc = build_con_class(g, False)
        assert len(cc) == 10
        intervals = {
            sum(1 << k for k in range(i, j + 1))
            for i in range(4) for j in range(i, 4)
        }
        assert set(cc.concepts) == intervals

    def test_empty_policy(self):
        cc = build_con_class(path_graph(2), True)
        assert cc.concepts[0] == 0


class TestOpponents:
    def test_fig2_table(self):
        g = fig2()
        rows = {
            (0, 1): (["c", "d", "e"], [["f"], ["g"]]),
            (1, 3): (["a", "e", "f", "g"], [["c"]]),
            (3, 5): (["b", "c", "e", "g"], [["a"]]),
        }
        for pair, (boundary, opponents) in rows.items():
            assert names(g, open_neighborhood(g, pair)) == boundary
            opp = maximal_opponents(g, frozenset(pair))
            assert [names(g, y) for y in opp.opponents] == opponents

    def test_dominating_set_has_no_opponents(self):
        g = complete_graph(5)
        assert maximal_opponents(g, {0}).opponents == ()

    def test_cross_component_opponents_have_empty_boundary(self):
        g = graph_from_edges(5, [(0, 1), (2, 3), (3, 4)])
        opp = maximal_opponents(g, {0, 1})
        assert opp.opponents == ({2, 3, 4},)
        assert open_neighborhood(g, {2, 3, 4}) == frozenset()

    def test_requires_nonempty_connected(self):
        g = cycle_graph(5)
        with pytest.raises(ValueError):
            maximal_opponents(g, frozenset())
        with pytest.raises(ValueError):
            maximal_opponents(g, {0, 2})

    def test_boundary_containment_everywhere_small(self):
        from teachdim.graphs import connected_set_masks

        for n in range(1, 6):
            for g in connected_graphs(n):
                for xmask in connected_set_masks(g):
                    x = set_of(xmask)
                    xb = open_neighborhood(g, x)
                    for y in maximal_opponents(g, x).opponents:
                        assert open_neighborhood(g, y) <= xb


class TestLeafTreeCondition:
    def test_fig2_witness_is_the_binary_tree(self):
        g = fig2()
        tree, u = leaf_tree_condition(GraphContext(g))
        assert g.vertex_name(u) == "a"
        assert names(g, tree.leaves()) == ["d", "e", "f", "g"]
        assert tree.edges == {(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)}

    def test_paths_have_no_witness(self):
        for n in range(2, 8):
            assert leaf_tree_condition(GraphContext(path_graph(n))) is None

    def test_cycle4_witness_exists(self):
        # brute force gives dimension 3 = max-leaf + 1, forcing a witness
        g = cycle_graph(4)
        assert vcd(build_con_class(g, True))[0] == 3 == max_leaf_number(g) + 1
        assert leaf_tree_condition(GraphContext(g)) is not None

    def test_budget_error_is_distinct_from_no_witness(self):
        with pytest.raises(BudgetExceededError):
            leaf_tree_condition(GraphContext(cycle_graph(8)), budget=3)

    def test_single_vertex(self):
        tree, u = leaf_tree_condition(GraphContext(complete_graph(1)))
        assert u == 0 and tree.vertices == {0}

    def test_requires_connected(self):
        with pytest.raises(ValueError):
            leaf_tree_condition(GraphContext(graph_from_edges(3, [(0, 1)])))

    def test_known_ell_is_not_recomputed(self, monkeypatch):
        graphs = [fig2(), cycle_graph(4), path_graph(5), random_graph(7, 0.5, 3)]
        want = [leaf_tree_condition(GraphContext(g)) for g in graphs]
        ctxs = [GraphContext(g) for g in graphs]
        assert [ctx.ell for ctx in ctxs] == [max_leaf_number(g) for g in graphs]
        refuse_to_measure_ell(monkeypatch)
        assert [leaf_tree_condition(ctx) for ctx in ctxs] == want


class TestTreeTeacher:
    def test_teaching_sets_are_subtree_leaves(self):
        g = fig2()  # not a tree
        with pytest.raises(ValueError):
            con_tree_teacher(GraphContext(g))
        t = graph_from_edges(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
        teacher = con_tree_teacher(GraphContext(t))
        cc = teacher.concept_class
        assert teacher.teaching_sets[cc.index_of(frozenset())] == frozenset()
        assert teacher.teaching_sets[cc.index_of({1})] == {1}
        assert teacher.teaching_sets[cc.index_of({1, 2, 3})] == {2, 3}
        assert teacher.teaching_sets[cc.index_of({0, 1, 2, 3, 4, 5})] == {0, 2, 4, 5}
        ok, cx = verify_pb_teacher(cc, teacher)
        assert ok, cx

    def test_valid_on_all_trees_up_to_six(self):
        for n in range(1, 7):
            for g in labeled_trees(n):
                teacher = con_tree_teacher(GraphContext(g))
                ok, cx = verify_pb_teacher(teacher.concept_class, teacher)
                assert ok, (n, g.edges(), cx)
                leaf_count = (sum(1 for v in range(n) if g.degree(v) == 1)
                              if n > 1 else 1)
                assert teacher.order <= leaf_count


class TestSupersetTeacher:
    def test_teaching_set_structure(self):
        g = fig2()
        teacher = con_superset_teacher(GraphContext(g))
        cc = teacher.concept_class
        i = cc.index_of({1, 3})  # {b,d}
        s = teacher.sample_for(i)
        assert set_of(s.pos) == {1}
        assert set_of(s.neg) == {0, 4, 5, 6}  # a, e, f, g
        empty = cc.index_of(frozenset())
        assert teacher.teaching_sets[empty] == frozenset(range(7))

    def test_order_bound_excludes_empty_concept(self):
        g = fig2()
        teacher = con_superset_teacher(GraphContext(g))
        cc = teacher.concept_class
        nonempty = [i for i, c in enumerate(cc.concepts) if c]
        assert teacher.order_over(nonempty) == max_leaf_number(g) + 1
        assert teacher.order == g.n  # the all-negative teaching set

    def test_valid_on_assorted_graphs(self):
        for g in (path_graph(4), cycle_graph(6), complete_graph(5), fig2(),
                  graph_from_edges(6, [(0, 1), (2, 3), (3, 4), (2, 4)])):
            teacher = con_superset_teacher(GraphContext(g))
            ok, cx = verify_pb_teacher(teacher.concept_class, teacher)
            assert ok, cx


class TestMatchingTeacher:
    def test_small_paths_construct(self):
        for n in (2, 3):
            teacher = con_vcd_matching_teacher(GraphContext(path_graph(n)))
            ok, cx = verify_pb_teacher(teacher.concept_class, teacher)
            assert ok, cx
            cc = teacher.concept_class
            nonempty = [i for i, c in enumerate(cc.concepts) if c]
            assert teacher.order_over(nonempty) <= max_leaf_number(path_graph(n))

    def test_two_triangles_construct(self):
        g = graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        teacher = con_vcd_matching_teacher(GraphContext(g))
        ok, cx = verify_pb_teacher(teacher.concept_class, teacher)
        assert ok, cx
        cc = teacher.concept_class
        nonempty = [i for i, c in enumerate(cc.concepts) if c]
        assert teacher.order_over(nonempty) <= max_leaf_number(g)

    def test_known_ell_is_not_recomputed(self, monkeypatch):
        graphs = [path_graph(2), path_graph(3), fig2(),
                  graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])]

        def built(ctx):
            try:
                t = con_vcd_matching_teacher(ctx)
            except TeacherPreconditionError as exc:
                return str(exc)
            return t.teaching_sets, t.preference.below

        want = [built(GraphContext(g)) for g in graphs]
        ctxs = [GraphContext(g) for g in graphs]
        assert [ctx.ell for ctx in ctxs] == [max_leaf_number(g) for g in graphs]
        refuse_to_measure_ell(monkeypatch)
        assert [built(ctx) for ctx in ctxs] == want
        assert any(isinstance(w, str) for w in want)
        assert any(not isinstance(w, str) for w in want)

    def test_refuses_when_vcd_exceeds_max_leaf(self):
        for g in (cycle_graph(4), complete_graph(4), fig2()):
            with pytest.raises(TeacherPreconditionError, match="does not apply"):
                con_vcd_matching_teacher(GraphContext(g))

    def test_refuses_jointly_infeasible_negative_sets(self):
        """Long paths defeat every preference relation: the second and
        second-to-last vertices both have full-size boundaries yet each is
        consistent with the other's pure-negative sample, so neither can
        be preferred over the other."""
        g = path_graph(5)
        with pytest.raises(TeacherPreconditionError, match="jointly infeasible"):
            con_vcd_matching_teacher(GraphContext(g))
        # direct demonstration of the conflict
        cc = build_con_class(g, True)
        s1 = sample_from_pairs([(0, "-"), (2, "-")])    # boundary of {1}
        s4 = sample_from_pairs([(3, "-"), (5, "-")])    # boundary of {4}
        vs1 = {cc.concepts[i] for i in version_space(cc, s1)}
        vs4 = {cc.concepts[i] for i in version_space(cc, s4)}
        assert 1 << 4 in vs1 and 1 << 1 in vs4

    def test_fallback_preference_matches_pair_rules(self):
        """When the boundary-size refinement cycles, the preference is the
        closure of larger-sets-first plus each full-boundary set over its
        version space."""
        fallbacks = 0
        for g in [path_graph(3)] + [random_graph(n, 0.4, s)
                                    for n in (5, 6, 7) for s in range(4)]:
            try:
                teacher = con_vcd_matching_teacher(GraphContext(g))
            except TeacherPreconditionError:
                continue
            cc = teacher.concept_class
            boundary = [open_neighborhood_mask(g, c) if c else 0 for c in cc.concepts]
            base = superset_preferences(cc)
            try:
                lex_refine(base, [b.bit_count() for b in boundary])
                continue
            except PreferenceCycleError:
                pass
            ell = max_leaf_number(g)
            pairs = [(i, j) for i in range(len(cc)) for j in bits(base.below[i])]
            for i, c in enumerate(cc.concepts):
                if c and boundary[i].bit_count() == ell:
                    vs = version_space(cc, Sample(0, boundary[i]))
                    pairs.extend((i, j) for j in vs if j != i)
            assert teacher.preference.below == pair_closure(len(cc), pairs)
            fallbacks += 1
        assert fallbacks >= 8


def shared_parts_corpus():
    yield from (fig2(), path_graph(1), path_graph(3), path_graph(5),
                cycle_graph(5), complete_graph(4))
    yield graph_from_edges(6, [(0, 1), (1, 2), (3, 4)])
    for i in range(30):
        yield random_graph(5 + i % 4, (0.3, 0.5, 0.7)[i % 3], 404, i)


def teacher_or_refusal(build, ctx):
    try:
        return build(ctx)
    except TeacherPreconditionError as exc:
        return str(exc)


class TestSharedParts:
    """A teacher built from a context whose class, VCD, ell and
    containment order other teachers already read equals one built from
    a fresh context."""

    def test_con_teachers(self):
        corpus = list(shared_parts_corpus())
        trees = refused = 0
        for g in corpus:
            ctx = GraphContext(g)
            assert ctx.ell == max_leaf_number(g)
            assert ctx.vcd(ctx.con(True)) == vcd(build_con_class(g, True))
            assert con_superset_teacher(ctx) == con_superset_teacher(GraphContext(g))
            matching = teacher_or_refusal(con_vcd_matching_teacher, ctx)
            assert matching == teacher_or_refusal(con_vcd_matching_teacher,
                                                  GraphContext(g))
            refused += isinstance(matching, str)
            if g.m == g.n - 1 and is_connected(g, g.full_mask):
                trees += 1
                assert con_tree_teacher(ctx) == con_tree_teacher(GraphContext(g))
        assert trees >= 3 and 0 < refused < len(corpus)


class TestConTriple:
    def test_reference_triples(self):
        assert con_triple(fig2()) == (4, 4, 5)
        assert con_triple(cycle_graph(4)) == (2, 3, 3)
        assert con_triple(complete_graph(5)) == (4, 4, 4)
        assert con_triple(complete_graph(2)) == (1, 1, 1)

    def test_empty_policy_variants(self):
        # complete graphs: adding the empty set turns the class into the
        # full powerset, lifting both dimensions by one
        assert con_triple(complete_graph(4), include_empty=True) == (3, 4, 4)
        assert con_triple(cycle_graph(4), include_empty=True) == (2, 3, 3)

    def test_trees_have_flat_triples(self):
        for g in labeled_trees(5):
            ell, r, v = con_triple(g, include_empty=True)
            assert r == v == ell


class TestOpponentStrictness:
    def test_strict_containment_when_dimension_matches(self):
        # wherever the with-empty dimension equals the max-leaf number,
        # full-boundary sets dominate their opponents strictly
        from teachdim.graphs import connected_set_masks, open_neighborhood_mask

        for n in range(2, 6):
            for g in connected_graphs(n):
                ell = max_leaf_number(g)
                if vcd(build_con_class(g, True))[0] != ell:
                    continue
                for xmask in connected_set_masks(g):
                    if open_neighborhood_mask(g, xmask).bit_count() != ell:
                        continue
                    xb = open_neighborhood(g, set_of(xmask))
                    for y in maximal_opponents(g, set_of(xmask)).opponents:
                        yb = open_neighborhood(g, y)
                        assert yb < xb  # proper subset
