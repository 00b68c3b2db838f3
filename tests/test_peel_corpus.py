"""The benchmark's peel corpus on every Tier-1 run.

``perfbench/workloads.py`` is imported read-only.  One round of its
seven ``Peel`` ops (the ``dims`` report, the plan teacher and its
verification) must answer and match ``perfbench/expected/peel.json``,
including the two classes with a concept of more than 12 instances:
the connected sets of C_13 and of P_12 with the empty set.  The walk
nodes of their teaching-set searches stay within the figures README
gives.
"""

import teachdim.dimensions as dimensions
from helpers import perfbench_workloads

# walk nodes of (rtd, the td_of pass) on round 0 of seed 1, as in README
WALK_NODES = {
    "random_graph(10,.4,5) con+empty": (0, 0),
    "random_graph(11,.35,3) con": (12, 11),
    "complete_graph(10) star": (0, 0),
    "random_graph(14,.25,1) star": (66, 80),
    "random_graph(16,.15,1) star": (24, 24),
    "cycle_graph(13) con": (164, 13),
    "path_graph(12) con+empty": (0, 0),
}


def test_every_peel_op_matches_its_recorded_values():
    W = perfbench_workloads()
    peel = W.Peel(1)
    ops = peel.round(0)
    assert len(ops) == len(W.PEEL_INPUTS) == 7
    for op in ops:
        assert peel.verdict(op, peel.run(op), None) == (W.OK, ""), op.label


def test_walk_nodes_stay_within_the_documented_figures(monkeypatch):
    """Counted in walk nodes, not seconds, so a search that goes back to
    walking whole domains fails on any machine."""
    works = []

    def recorded(*args, **kwargs):
        works.append(real(*args, **kwargs))
        return works[-1]

    real = dimensions._Work
    monkeypatch.setattr(dimensions, "_Work", recorded)
    W = perfbench_workloads()
    peel = W.Peel(1)
    got = {}
    for op in peel.round(0):
        works.clear()
        peel.run(op)
        done = {w.stage: w.done for w in works}
        got[op.label] = (done["teaching-set search (rtd)"],
                         done["teaching-set search (td_of)"])
    assert got.keys() == WALK_NODES.keys()
    over = {label: (nodes, WALK_NODES[label]) for label, nodes in got.items()
            if any(n > bound for n, bound in zip(nodes, WALK_NODES[label]))}
    assert not over
