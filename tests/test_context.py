"""GraphContext: every part equals a fresh build, and the checks build a
graph's connected-set class once."""

import pytest

from teachdim.checks import check_graph
from teachdim.connected import build_con_class
from teachdim.context import GraphContext
from teachdim.dimensions import rtd, vcd
from teachdim.families import (
    complete_graph,
    cycle_graph,
    fig1_right,
    fig2,
    path_graph,
    random_graph,
)
from teachdim.graphs import graph_from_edges, max_leaf_number
from teachdim.stars import build_star_class, vmax_partition
from teachdim.teaching import subset_preferences, superset_preferences


def corpus():
    yield from (fig2(), fig1_right(), path_graph(1), path_graph(3), path_graph(5),
                cycle_graph(5), complete_graph(4))
    yield graph_from_edges(6, [(0, 1), (1, 2), (3, 4)])
    for seed in (404, 505):
        for i in range(30):
            yield random_graph(5 + i % 4, (0.3, 0.5, 0.7)[i % 3], seed, i)


def test_parts_equal_fresh_builds():
    for g in corpus():
        ctx = GraphContext(g)
        for include_empty in (False, True):
            cc = ctx.con(include_empty)
            assert cc.concepts == build_con_class(g, include_empty).concepts
            assert ctx.con(include_empty) is cc
        assert ctx.star == build_star_class(g)
        assert ctx.ell == max_leaf_number(g)
        assert ctx.part == vmax_partition(g)
        assert ctx.star_pref == subset_preferences(build_star_class(g))
        assert ctx.con_pref == superset_preferences(build_con_class(g, True))
        for cc in (ctx.star, ctx.con(False), ctx.con(True)):
            assert ctx.rtd(cc) == rtd(cc) and ctx.rtd(cc) is ctx.rtd(cc)
            assert ctx.vcd(cc) == vcd(cc) and ctx.vcd(cc) is ctx.vcd(cc)


@pytest.mark.parametrize("include_empty", [False, True])
def test_checks_build_the_connected_sets_once(monkeypatch, include_empty):
    import teachdim.connected as connected
    import teachdim.context as context

    built = []
    real = connected.build_con_class

    def counted(graph, *args, **kwargs):
        built.append(graph)
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(context, "build_con_class", counted)
    monkeypatch.setattr(connected, "build_con_class", counted)
    disconnected = graph_from_edges(6, [(0, 1), (1, 2), (3, 4)])
    for g in (fig2(), path_graph(4), cycle_graph(5), disconnected):
        built.clear()
        check_graph(g, "con", include_empty)
        assert sum(graph is g for graph in built) == 1
    # the disconnected graph's three components get classes of their own
    assert len(built) == 1 + 3
