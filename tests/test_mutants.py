"""Wrong answers injected into one stage make ``check_graph`` fail a check.

Each mutant wraps one answer of ``GraphContext`` for every class the
checks ask it about, and the checks run on 41 graphs (the verify
benchmark's pool, ``random_graph(n, .45, 4242, i)`` for n = 4..8 and
i < 4, C_9, P_8 and K_5) for the star class and the connected-set class
with and without the empty set.  Every mutated run must report at least
one failed check and raise nothing.

- RTD - 1: each level of value rtd claims rtd - 1, and its witnesses
  lose their highest instance (``helpers.understated_certificate``).
  Those witnesses no longer teach, so the plan teacher's verification
  must be among the failed checks.
- VCD - 1: the VC-dimension one lower, its witness without its highest
  instance.

Two mutants wait for the checks that would catch them (ROADMAP items 2
and 5), with their known escapes.  VCD + 1, one instance added to the
witness, passes every check on 8 runs of ROADMAP item 5's measurement:
con classes of disconnected graphs, where no check is independent of
``vcd``.  RTD + 1, one instance added to each top-level witness, is
caught on these graphs but passes every check on the 15 classes of
ROADMAP item 2 with RTD = VCD - 1 and more than 12 concepts.
"""

import pytest

from helpers import perfbench_workloads, understated_certificate
from teachdim.checks import check_graph
from teachdim.context import GraphContext
from teachdim.families import complete_graph, cycle_graph, path_graph, random_graph


def understated_vcd(answer):
    value, witness = answer
    return value - 1, witness - {max(witness)}


MUTANTS = {
    "rtd-1": ("rtd", understated_certificate),
    "vcd-1": ("vcd", understated_vcd),
}

KINDS = {"star": ("star", False), "con": ("con", False), "con-empty": ("con", True)}


def mutant_graphs():
    W = perfbench_workloads()
    graphs = [random_graph(n, p, W.Verify.POOL_SEED, i) for n, p, i in W.Verify.POOL]
    graphs += [random_graph(n, 0.45, 4242, i) for n in range(4, 9) for i in range(4)]
    return graphs + [cycle_graph(9), path_graph(8), complete_graph(5)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mutant", MUTANTS)
def test_every_mutated_run_fails_a_check(monkeypatch, mutant, kind):
    stage, mutate = MUTANTS[mutant]
    real = getattr(GraphContext, stage)
    monkeypatch.setattr(GraphContext, stage, lambda self, cc: mutate(real(self, cc)))
    escapes = []
    for g in mutant_graphs():
        failed = {r.name for r in check_graph(g, *KINDS[kind]) if r.status == "fail"}
        if not failed or mutant == "rtd-1" and f"{KINDS[kind][0]}-plan-teacher" not in failed:
            escapes.append((g.edges(), sorted(failed)))
    assert escapes == []
