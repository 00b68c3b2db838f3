"""The benchmark's peel corpus on every Tier-1 run.

``perfbench/workloads.py`` is imported read-only.  One round of its
seven ``Peel`` ops (the ``dims`` report, the plan teacher and its
verification) must answer and match ``perfbench/expected/peel.json``,
including the two classes with a concept of more than 12 instances:
the connected sets of C_13 and of P_12 with the empty set.
"""

from helpers import perfbench_workloads


def test_every_peel_op_matches_its_recorded_values():
    W = perfbench_workloads()
    peel = W.Peel(1)
    ops = peel.round(0)
    assert len(ops) == len(W.PEEL_INPUTS) == 7
    for op in ops:
        assert peel.verdict(op, peel.run(op), None) == (W.OK, ""), op.label
