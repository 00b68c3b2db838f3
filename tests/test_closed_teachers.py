"""The star special teacher and the connected-set matching teacher build
their preference orders closed, without ``from_direct``.

Each order equals the ``from_direct`` closure of the direct masks the
teachers built before (``helpers.direct_special_teacher`` and
``helpers.direct_matching_preference``), or both refuse alike, on the
family graphs, the seeded random graphs with at most 7 vertices, the
verify benchmark's pool and the teacher digest's graphs.  The star
order rests on the one-fringe lemma in ``star_special_teacher``'s
docstring, checked here on the same graphs; the matching order rests
on the lemma in ``_matching_preference``'s docstring (each
full-boundary set in the version space of another is a proper subset
of it), checked here on the same graphs and on drawn connected graphs.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    closed_direct_matching_preference,
    direct_special_teacher,
    perfbench_workloads,
)
from teacher_digest import digest_graphs
from teachdim.checks import check_graph
from teachdim.connected import con_vcd_matching_teacher
from teachdim.context import GraphContext
from teachdim.errors import TeacherPreconditionError
from teachdim.families import complete_graph, random_graph
from teachdim.graphs import graph_from_edges
from teachdim.stars import VmaxGroup, VmaxPartition, star_special_teacher
from teachdim.teaching import PreferenceRelation, lex_refine, subset_preferences


def verify_pool():
    W = perfbench_workloads()
    return [random_graph(n, p, W.Verify.POOL_SEED, i) for n, p, i in W.Verify.POOL]


@pytest.fixture(scope="module")
def corpus(family_graphs, random200):
    graphs = [g for _, g in family_graphs]
    graphs += [g for _, g in random200 if g.n <= 7]
    graphs += verify_pool()
    graphs += [g for _, g in digest_graphs()]
    return graphs


def outcome(build, ctx):
    try:
        return build(ctx)
    except TeacherPreconditionError as exc:
        return "refused", type(exc).__name__, str(exc)


def test_special_teacher_matches_the_direct_construction(corpus):
    built = 0
    for g in corpus:
        teacher = outcome(star_special_teacher, GraphContext(g))
        want = outcome(direct_special_teacher, GraphContext(g))
        if isinstance(teacher, tuple):
            assert teacher == want, g.edges()
            continue
        masks, direct = want
        assert teacher.teaching_masks == tuple(masks), g.edges()
        assert teacher.preference.below == PreferenceRelation.from_direct(direct).below
        built += 1
    assert 150 < built < len(corpus)


def test_matching_preference_matches_the_direct_construction(corpus):
    built = refused = 0
    for g in corpus:
        teacher = outcome(con_vcd_matching_teacher, GraphContext(g))
        want = outcome(closed_direct_matching_preference, GraphContext(g))
        if isinstance(teacher, tuple):
            assert teacher == want, g.edges()
            refused += "jointly infeasible" in teacher[2]
            continue
        assert teacher.preference.below == want, g.edges()
        built += 1
    assert built > 150 and refused > 10


def test_special_concepts_contain_one_fringe(corpus):
    """Every special concept of every special teacher built holds the
    fringe of exactly one group (the one-fringe lemma)."""
    built = special = 0
    for g in corpus:
        ctx = GraphContext(g)
        try:
            teacher = star_special_teacher(ctx)
        except TeacherPreconditionError:
            continue
        built += 1
        fringes = [grp.fringe for grp in ctx.part.groups]
        for c in teacher.concept_class.concepts:
            held = sum(c & f == f for f in fringes)
            assert held <= 1, (g.edges(), c)
            special += held
    assert built > 150 and special > 3 * built


def fake_partition(ctx, groups):
    """``ctx`` with its vmax partition replaced and the precondition met."""
    part = VmaxPartition(ctx.g.max_degree(), tuple(groups))
    ctx.__dict__["part"] = part
    ctx.__dict__["fringe_cover"] = (part.delta, None)
    return ctx


def test_special_teacher_refuses_a_second_fringe():
    """Should a concept hold two groups' fringes, the builder raises
    instead of ranking it within one of them."""
    ctx = fake_partition(GraphContext(complete_graph(4)),
                         [VmaxGroup(0b1111, 0b1111, 0),
                          VmaxGroup(0b0011, 0b1111, 0b1100)])
    with pytest.raises(RuntimeError, match="two groups' fringes"):
        star_special_teacher(ctx)


def test_special_teacher_refuses_a_concept_outside_its_group():
    ctx = fake_partition(GraphContext(complete_graph(4)),
                         [VmaxGroup(0b0001, 0b0011, 0b0010)])
    with pytest.raises(RuntimeError, match="not fringe plus members"):
        star_special_teacher(ctx)


@st.composite
def connected_graphs(draw, max_n=9):
    """A random spanning tree on at most ``max_n`` vertices (each vertex
    hung on an earlier one) plus any further edges."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for u, v in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            edges.add((u, v))
    return graph_from_edges(n, sorted(edges))


def full_boundary_subsets(g):
    """The (Y, X) pairs of full-boundary sets with Y in the pure-negative
    version space of X, if the matching teacher builds on ``g``; each Y
    must be a proper subset of X, which is all ``_matching_preference``
    needs to close its order in one pass.  None when the teacher refuses."""
    ctx = GraphContext(g)
    if isinstance(outcome(con_vcd_matching_teacher, ctx), tuple):
        return None
    boundary, ell = ctx.boundaries, ctx.ell
    full = [x for x in ctx.con(True).concepts if x and boundary[x].bit_count() == ell]
    pairs = [(y, x) for x in full for y in full if y != x and not y & boundary[x]]
    for y, x in pairs:
        assert not y & ~x, (g.edges(), g.vertex_names(y), g.vertex_names(x))
    return pairs


def test_full_boundary_rows_hold_only_subsets(corpus):
    built = pairs = 0
    for g in corpus:
        found = full_boundary_subsets(g)
        if found is not None:
            built += 1
            pairs += len(found)
    assert built > 150 and pairs > built


@settings(max_examples=150, deadline=None)
@given(connected_graphs())
def test_full_boundary_rows_hold_only_subsets_on_drawn_graphs(g):
    full_boundary_subsets(g)


def test_check_graph_closes_no_class(monkeypatch):
    """``check_graph`` on the verify benchmark's pool builds every
    preference without ``from_direct``; a spy that sees lex_refine's
    call sees none from the checks."""
    calls = []
    real = PreferenceRelation.from_direct.__func__

    def spy(cls, direct):
        direct = list(direct)
        calls.append(len(direct))
        return real(cls, direct)

    monkeypatch.setattr(PreferenceRelation, "from_direct", classmethod(spy))
    built = set()
    for g in verify_pool():
        for kind in ("star", "con"):
            for r in check_graph(g, kind):
                if r.name in ("star-special-teacher", "con-vcd-matching-teacher") \
                        and r.status == "pass":
                    built.add(r.name)
    assert calls == []
    assert built == {"star-special-teacher", "con-vcd-matching-teacher"}
    cc = GraphContext(random_graph(5, 0.5, 1)).star
    lex_refine(subset_preferences(cc), [0] * len(cc))
    assert calls == [len(cc)]
