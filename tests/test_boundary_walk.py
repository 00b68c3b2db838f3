"""The connected-set walk that carries each set's boundary: the same sets
in the same order and under the same budget as the plain walk, each with
its open neighborhood, and ell read from it; and a con check that
computes every boundary in that one walk."""

import pytest

from helpers import (
    connected_graphs,
    max_open_neighborhood,
    open_neighborhood_mask,
    plain_connected_set_masks,
    shared_parts_corpus,
)
from teachdim.checks import check_graph
from teachdim.context import GraphContext
from teachdim.errors import BudgetExceededError
from teachdim.families import fig2, random_graph
from teachdim.graphs import (
    components,
    connected_set_boundaries,
    connected_set_masks,
    max_leaf_number,
)


@pytest.fixture(scope="module")
def walk_corpus(family_graphs):
    graphs = [g for _, g in family_graphs]
    for n in range(1, 6):
        graphs.extend(connected_graphs(n))
    graphs.extend(shared_parts_corpus())
    return graphs


def test_walk_matches_the_plain_walk(walk_corpus):
    for g in walk_corpus:
        walk = list(connected_set_boundaries(g))
        sets = [x for x, _ in walk]
        assert sets == list(plain_connected_set_masks(g)), g.edges()
        assert list(connected_set_masks(g)) == sets
        assert all(nb == open_neighborhood_mask(g, x) for x, nb in walk), g.edges()


def test_ell_is_the_largest_boundary_of_the_walk(walk_corpus):
    for g in walk_corpus:
        want = max_open_neighborhood(g, plain_connected_set_masks(g))
        assert max_leaf_number(g) == want, g.edges()
        assert GraphContext(g).ell == want, g.edges()


def refusal(walk):
    """The sets a walk yields before it refuses, and the refusal's stage
    and limit (None if it finishes)."""
    seen = []
    try:
        for x in walk:
            seen.append(x)
    except BudgetExceededError as exc:
        return seen, (exc.what, exc.limit, str(exc))
    return seen, None


def test_every_budget_refuses_like_the_plain_walk():
    g = fig2()
    count = sum(1 for _ in plain_connected_set_masks(g))
    for budget in range(count + 1):
        want = refusal(plain_connected_set_masks(g, budget=budget))
        assert want[1] == (None if budget == count else (
            "connected-set enumeration", budget,
            f"connected-set enumeration: budget of {budget} exceeded"))
        seen, refused = refusal(connected_set_boundaries(g, budget=budget))
        assert ([x for x, _ in seen], refused) == want
        assert refusal(connected_set_masks(g, budget=budget)) == want


@pytest.mark.parametrize("include_empty", [False, True])
@pytest.mark.parametrize("g", [fig2(), random_graph(8, 0.5, 3), random_graph(8, 0.3, 2)],
                         ids=["fig2", "random8", "random8-disconnected"])
def test_con_checks_compute_boundaries_only_in_the_walk(monkeypatch, g, include_empty):
    import teachdim.checks as checks
    import teachdim.connected as connected
    import teachdim.context as context

    def refuse(*args, **kwargs):
        raise AssertionError("a boundary computed outside the walk")

    for module in (checks, connected, context):
        for name in ("open_neighborhood_mask", "closed_neighborhood_mask"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    walked = []
    real = context.connected_set_boundaries

    def counted(graph, **kwargs):
        walked.append(graph)
        return real(graph, **kwargs)

    monkeypatch.setattr(context, "connected_set_boundaries", counted)
    results = check_graph(g, "con", include_empty)
    assert not any(r.failed for r in results)
    # one walk per context: one for g, and one per component's context
    # when g is not connected
    comps = components(g)
    assert walked[0] is g
    assert len(walked) == 1 + (len(comps) if len(comps) > 1 else 0)
    assert len({id(graph) for graph in walked}) == len(walked)
