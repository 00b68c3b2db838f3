"""``check_graph``'s outcome under tight budgets, pinned by one SHA-256.

For each graph of ``LADDER_GRAPHS``, each kind (star, con, con with the
empty set) and each budget of ``LADDER``, it hashes the run's
(name, status, detail) list or its refusal text.  The budget caps every
enumeration and search of a run, so the stage that refuses first names
the order in which the checks do their work: a change that moves work
between checks, or a search ahead of another, moves the digest.  The
graphs are chosen so that the ladder reaches every stage of ``STAGES``:
every stage ``check_graph`` can refuse in but eq6's walk, which no
ladder run was seen to reach.

Run it with ``PYTHONPATH=src python tests/test_budget_ladder.py``; it
prints the digest.
"""

from __future__ import annotations

import hashlib

import pytest

from teachdim.checks import check_graph
from teachdim.errors import BudgetExceededError
from teachdim.families import complete_graph, cycle_graph, fig2, path_graph
from teachdim.graphs import graph_from_edges

# 0 and round(1.15 ** k) for k < 75: 68 budgets from 0 to 31,020
LADDER = sorted({0, *(round(1.15 ** k) for k in range(75))})

STAGES = {
    "connected-set enumeration",
    "star-class enumeration",
    "teaching-set search (rtd)",
    "leaf-tree witness search",
}
# eq6's one walk, "teaching-set search (subclass TD_min)", refused on no
# run of star, con and con with the empty set under all of LADDER on
# C_3-C_9, P_2-P_9, K_2-K_6, fig1-left, fig2 and random_graph(n, p, 7, i)
# for n = 4..8, p in {.3, .5, .7}, i < 3: another stage always refused
# first.  test_dimensions.py's direct td_min_at_most(..., budget=0) test
# pins that refusal.

# recorded when eq6 became one walk at every class size: K_3's con class
# with the empty set, at budget 7, answers where the 2^m subclass loop
# refused
LADDER_DIGEST = "e5bfb3b5ab16b7ad93bccb2ce193992d0c97cbb94399e44c609d5152fa071c74"


def ladder_graphs():
    """fig2; K_3; C_6, which refuses in rtd;
    P_6, a tree whose leaf-tree search outgrows its connected sets;
    a triangle beside a path, for the per-component checks; and C_9,
    above the spanning-tree oracle's cap."""
    return [("fig2", fig2()), ("K_3", complete_graph(3)),
            ("C_6", cycle_graph(6)), ("P_6", path_graph(6)),
            ("K_3+P_4", graph_from_edges(
                7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)])),
            ("C_9", cycle_graph(9))]


def ladder_runs():
    """(graph name, kind, include_empty, budget, outcome) for every run,
    the outcome being the result triples or the refusal's stage and
    text."""
    for name, g in ladder_graphs():
        for kind, include_empty in (("star", False), ("con", False), ("con", True)):
            for budget in LADDER:
                try:
                    outcome = [(r.name, r.status, r.detail) for r in
                               check_graph(g, kind, include_empty, budget=budget)]
                except BudgetExceededError as exc:
                    outcome = ("refused", exc.what, str(exc))
                yield name, kind, include_empty, budget, outcome


def ladder_digest(runs) -> str:
    h = hashlib.sha256()
    for run in runs:
        h.update(repr(run).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def runs():
    return list(ladder_runs())


def test_ladder_reaches_every_refusal_stage(runs):
    refused = {out[1] for *_, out in runs if out[0] == "refused"}
    assert refused == STAGES
    # the top of the ladder lets every run finish
    assert all(out[0] != "refused" for *_, budget, out in runs
               if budget == LADDER[-1])


def test_ladder_digest_is_pinned(runs):
    assert ladder_digest(runs) == LADDER_DIGEST


if __name__ == "__main__":
    print(ladder_digest(ladder_runs()))
