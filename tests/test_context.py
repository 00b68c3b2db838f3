"""GraphContext: every part equals a fresh build, and the checks build a
graph's connected-set class and its vmax partition once."""

import pytest

from helpers import plain_connected_set_masks
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
from teachdim.stars import build_star_class, star_vcd_characterization, vmax_partition
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
        plain = list(plain_connected_set_masks(g))
        for include_empty in (False, True):
            cc = ctx.con(include_empty)
            assert cc.concepts == build_con_class(g, include_empty).concepts
            assert cc.concepts == tuple(sorted(plain + [0] * include_empty))
            assert ctx.con(include_empty) is cc
        assert ctx.star == build_star_class(g)
        assert ctx.ell == max_leaf_number(g)
        assert ctx.part == vmax_partition(g)
        assert ctx.fringe_cover == star_vcd_characterization(g)
        assert ctx.star_pref == subset_preferences(build_star_class(g))
        assert ctx.con_pref == superset_preferences(build_con_class(g, True))
        for cc in (ctx.star, ctx.con(False), ctx.con(True)):
            assert ctx.rtd(cc) == rtd(cc) and ctx.rtd(cc) is ctx.rtd(cc)
            assert ctx.vcd(cc) == vcd(cc) and ctx.vcd(cc) is ctx.vcd(cc)


def test_boundary_table_refuses_writes():
    """Every reader shares one table, so a write would change what the
    others read; the table is a read-only view."""
    ctx = GraphContext(fig2())
    table = ctx.boundaries
    x = next(iter(table))
    with pytest.raises(TypeError):
        table[x] = 0
    with pytest.raises(TypeError):
        del table[x]
    assert ctx.boundaries is table and list(table) == list(
        plain_connected_set_masks(ctx.g))


@pytest.mark.parametrize("include_empty", [False, True])
def test_checks_build_the_connected_sets_once(monkeypatch, include_empty):
    import teachdim.context as context

    built = []
    real = context.connected_set_boundaries

    def counted(graph, *args, **kwargs):
        built.append(graph)
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(context, "connected_set_boundaries", counted)
    disconnected = graph_from_edges(6, [(0, 1), (1, 2), (3, 4)])
    for g in (fig2(), path_graph(4), cycle_graph(5), disconnected):
        built.clear()
        check_graph(g, "con", include_empty)
        assert sum(graph is g for graph in built) == 1
    # the disconnected graph's three components get classes of their own
    assert len(built) == 1 + 3


def test_star_checks_partition_the_graph_once(monkeypatch):
    """check_star_graph and the special teacher it runs both read the
    fringe-cover prediction from the context's one vmax partition."""
    import teachdim.context as context
    import teachdim.stars as stars

    built = []
    real = stars.vmax_partition

    def counted(graph):
        built.append(graph)
        return real(graph)

    monkeypatch.setattr(context, "vmax_partition", counted)
    monkeypatch.setattr(stars, "vmax_partition", counted)
    for g in (fig2(), fig1_right(), cycle_graph(5), complete_graph(4)):
        built.clear()
        check_graph(g, "star")
        assert built == [g]
