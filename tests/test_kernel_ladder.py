"""The teaching-set kernel's outcome under a ladder of budgets, pinned by
one SHA-256.

For each class of the corpus and each budget of ``LADDER``, it hashes
what ``rtd`` gives (every level with its value, every witness, and the
walk nodes its search counted) or its refusal text, and what the
``td_of`` pass gives (every row or the refusal it raises, and the walk
nodes of the pass).  A refusal's text says at which k the search
stopped, how many concepts it left and after how many nodes, so a change
that reorders the direct checks and the walks, or counts its nodes
differently, moves the digest even where the answers stay the same.

The corpus is the engine corpus of the dimension tests, the seven
classes of the benchmark's ``peel`` workload (unrelabeled), and seeded
wide sparse classes of 12-16 instances, whose searches walk the most.

Run it with ``PYTHONPATH=src python tests/test_kernel_ladder.py``; it
prints the digest.
"""

from __future__ import annotations

import hashlib

import pytest

import teachdim.dimensions as dimensions
from helpers import engine_corpus, perfbench_workloads, wide_sparse_classes
from teachdim.errors import BudgetExceededError

# 0 and round(1.3 ** k) for k < 32: 31 budgets from 0 to 3,406, above
# the 2,624 walk nodes of the corpus's largest search
LADDER = sorted({0, *(round(1.3 ** k) for k in range(32))})

# recorded before rtd kept |F_i| as a list of counts instead of buckets;
# the rewrite kept it
KERNEL_DIGEST = "ef414a2ca2d374ca1d7041a8801d913094494aff7c3d1dd01cba710d10f8b1e0"


def kernel_corpus():
    """(label, class) for the engine corpus, the peel classes and the wide
    sparse classes."""
    W = perfbench_workloads()
    classes = [(f"engine {n}", cc) for n, cc in enumerate(engine_corpus())]
    classes += [(label, W.build_class(make(), kind, include_empty))
                for label, make, kind, include_empty in W.PEEL_INPUTS]
    classes += [(f"sparse {n}", cc)
                for n, cc in enumerate(wide_sparse_classes(61, 12))]
    return classes


def kernel_runs():
    """(label, budget, rtd outcome, td_of outcome) for every class and
    budget, each outcome ending in the walk nodes its search counted."""
    works = []
    real = dimensions._Work

    def recorded(*args, **kwargs):
        works.append(real(*args, **kwargs))
        return works[-1]

    dimensions._Work = recorded
    try:
        for label, cc in kernel_corpus():
            for budget in LADDER:
                works.clear()
                try:
                    cert = dimensions.rtd(cc, budget=budget)
                    peeled = ([(sorted(level), value) for level, value in cert.levels],
                              cert.witnesses)
                except BudgetExceededError as exc:
                    peeled = ("refused", str(exc))
                rows = []
                for i in range(len(cc)):
                    try:
                        rows.append(dimensions.td_of(cc, i, budget=budget))
                    except BudgetExceededError as exc:
                        rows.append(("refused", str(exc)))
                rtd_work, td_work = works
                yield label, budget, (peeled, rtd_work.done), (rows, td_work.done)
    finally:
        dimensions._Work = real


def kernel_digest(runs) -> str:
    h = hashlib.sha256()
    for run in runs:
        h.update(repr(run).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def runs():
    return list(kernel_runs())


def refused(outcome) -> bool:
    return outcome[0] == "refused"


def test_both_searches_refuse_at_the_bottom_and_finish_at_the_top(runs):
    bottom = [run for run in runs if run[1] == LADDER[0]]
    assert any(refused(peeled) for _, _, (peeled, _), _ in bottom)
    assert any(refused(row) for *_, (rows, _) in bottom for row in rows)
    for _, budget, (peeled, _), (rows, _) in runs:
        if budget == LADDER[-1]:
            assert not refused(peeled) and not any(map(refused, rows))


def test_kernel_digest_is_pinned(runs):
    assert kernel_digest(runs) == KERNEL_DIGEST


if __name__ == "__main__":
    print(kernel_digest(kernel_runs()))
