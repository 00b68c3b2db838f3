"""The star special teacher and the connected-set matching teacher build
their preference orders closed, without ``from_direct``.

Each order equals the ``from_direct`` closure of the direct masks the
teachers built before (``helpers.direct_special_teacher`` and
``helpers.direct_matching_preference``), or both refuse alike, on the
family graphs, the seeded random graphs with at most 7 vertices, the
verify benchmark's pool and the teacher digest's graphs.  The star
order rests on the one-fringe lemma in ``star_special_teacher``'s
docstring, checked here on the same graphs; the matching order rests
on ``connected._close_rows``, checked against the pair-list closure.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (
    closed_direct_matching_preference,
    direct_special_teacher,
    pair_closure,
    perfbench_workloads,
)
from teacher_digest import digest_graphs
from teachdim import connected
from teachdim.checks import check_graph
from teachdim.connected import _close_rows, con_vcd_matching_teacher
from teachdim.context import GraphContext
from teachdim.errors import PreferenceCycleError, TeacherPreconditionError
from teachdim.families import complete_graph, random_graph
from teachdim.graphs import bits
from teachdim.stars import VmaxGroup, VmaxPartition, star_special_teacher
from teachdim.teaching import PreferenceRelation, lex_refine, subset_preferences

CYCLE_TEXT = "required preference pairs are cyclic: preference pairs contain a cycle"


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
def rows_closed_outside(draw):
    """Below rows over at most 12 indices, with a listed set of rows:
    each unlisted row is closed and holds unlisted indices only; each
    listed row holds any indices and the rows of its unlisted ones."""
    size = draw(st.integers(1, 12))
    listed = draw(st.lists(st.integers(0, size - 1), unique=True, min_size=1))
    rank = draw(st.permutations(range(size)))
    unlisted = [i for i in range(size) if i not in listed]
    pairs = [(i, j) for i in unlisted for j in unlisted
             if rank[i] > rank[j] and draw(st.booleans())]
    below = list(pair_closure(size, pairs))
    for i in listed:
        row = draw(st.integers(0, (1 << size) - 1))
        for j in unlisted:
            if row >> j & 1:
                row |= below[j]
        below[i] = row
    return below, sorted(listed)


class TestCloseRows:
    @settings(max_examples=300, deadline=None)
    @given(rows_closed_outside())
    def test_matches_the_pair_list_closure(self, case):
        below, listed = case
        pairs = [(i, j) for i, row in enumerate(below) for j in bits(row)]
        try:
            want = pair_closure(len(below), pairs)
        except PreferenceCycleError:
            with pytest.raises(PreferenceCycleError,
                               match="preference pairs contain a cycle"):
                _close_rows(below, listed)
            return
        _close_rows(below, listed)
        assert tuple(below) == want

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 7])
    def test_cycles_through_listed_rows_are_refused(self, length):
        """A cycle of the listed rows 0..length-1, each below the next,
        with unlisted rows hanging below it."""
        size = length + 3
        below = [1 << (i + 1) % length for i in range(length)]
        below += [0, 0b1 << length, 0b11 << length]
        below[0] |= 0b111 << length
        with pytest.raises(PreferenceCycleError, match="preference pairs contain a cycle"):
            _close_rows(below, list(range(length)))
        pairs = [(i, j) for i in range(size) for j in bits(below[i])]
        with pytest.raises(PreferenceCycleError):
            pair_closure(size, pairs)


class TestCyclicMatchingPairs:
    """No random graph with at most 8 vertices reaches the matching
    teacher's cycle refusal, so these patch in version spaces that make
    the full-boundary sets prefer one another round a cycle."""

    @staticmethod
    def full_boundary(ctx):
        cc = ctx.con(True)
        return [i for i, c in enumerate(cc.concepts)
                if c and ctx.boundaries[c].bit_count() == ctx.ell]

    @pytest.mark.parametrize("length", [2, 3, 4])
    def test_cycle_refusal_is_unchanged(self, monkeypatch, length):
        g = next(g for g in verify_pool()
                 if not isinstance(outcome(con_vcd_matching_teacher, GraphContext(g)),
                                   tuple)
                 and len(self.full_boundary(GraphContext(g))) >= length)
        ctx = GraphContext(g)
        cc, ring = ctx.con(True), self.full_boundary(ctx)[:length]
        extra = {ctx.boundaries[cc.concepts[i]]: 1 << ring[(k + 1) % length]
                 for k, i in enumerate(ring)}
        real = connected.version_space_mask

        def patched(cc, pos, neg=0):
            return real(cc, pos, neg) | extra.get(neg, 0)

        monkeypatch.setattr(connected, "version_space_mask", patched)
        monkeypatch.setattr(helpers, "version_space_mask", patched)
        with pytest.raises(TeacherPreconditionError, match=f"^{re.escape(CYCLE_TEXT)}$"):
            con_vcd_matching_teacher(GraphContext(g))
        with pytest.raises(TeacherPreconditionError, match=f"^{re.escape(CYCLE_TEXT)}$"):
            closed_direct_matching_preference(GraphContext(g))


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
