"""Relabeling invariance: renaming the vertices of a graph changes none
of its triples, class sizes, or check statuses and label-free details."""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import graph_of_edge_mask, label_free, relabel
from teachdim.checks import check_graph
from teachdim.connected import build_con_class, con_triple
from teachdim.stars import build_star_class, star_triple

POLICIES = (False, True)


@st.composite
def graph_and_perm(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    perm = draw(st.permutations(range(n)))
    return graph_of_edge_mask(n, mask), perm


def invariants(g):
    return (star_triple(g),
            [con_triple(g, e) for e in POLICIES],
            len(build_star_class(g)),
            [len(build_con_class(g, e)) for e in POLICIES])


def check_rows(g):
    runs = [check_graph(g, "star")] + [check_graph(g, "con", e) for e in POLICIES]
    return [[label_free(c) for c in run] for run in runs]


@settings(max_examples=150, deadline=None)
@given(graph_and_perm())
def test_triples_and_class_sizes(gp):
    g, perm = gp
    assert invariants(relabel(g, perm)) == invariants(g)


@settings(max_examples=60, deadline=None)
@given(graph_and_perm())
def test_check_statuses_and_label_free_details(gp):
    g, perm = gp
    rows = check_rows(g)
    assert not [c for run in rows for c in run if c[1] == "fail"]
    assert check_rows(relabel(g, perm)) == rows
