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
- RTD + 1: each level of value rtd claims rtd + 1, and its witnesses
  gain their lowest unused instance (``helpers.overstated_certificate``).
  Those witnesses still teach, so the plan teacher verifies, and the
  chain or eq6 must catch it.  eq6 does at every class size: its one
  walk finds a teaching set of rtd instances for the concepts active at
  the last level that claims rtd + 1.  The row adds the 15 classes with
  RTD = VCD - 1 and more than 12 concepts among the star class and both
  connected-set classes of ``random_graph(n, p, 11, i)``, n = 5..8,
  p in {.3, .6, .75}, i < 40 (``DICHOTOMY``).  There the overstated
  value makes RTD = VCD, so the chain still has one strict step, and
  eq6 must be among the failed checks.  On K_5's connected-set class
  with the empty set the top-level witnesses already hold every
  instance, so the mutant leaves the certificate as it is and that run
  is the one expected escape.
- VCD - 1: the VC-dimension one lower, its witness without its highest
  instance.
- Witnesses outside the domain: every witness shifted past the domain
  (``outside_certificate``), which ``PBTeacher`` rejects.  eq6 and the
  plan-teacher check must both fail with "a witness has an instance
  outside the domain", without asking ``GraphContext.plan`` for a
  teacher that cannot be built.

VCD + 1, one instance added to the witness, waits for the checks that
would catch it (ROADMAP item 5): it passes every check on 8 runs of
that item's measurement, con classes of disconnected graphs, where no
check is independent of ``vcd``.
"""

import dataclasses

import pytest

from helpers import (
    overstated_certificate,
    perfbench_workloads,
    understated_certificate,
)
from teachdim.checks import check_graph
from teachdim.context import GraphContext
from teachdim.families import complete_graph, cycle_graph, path_graph, random_graph


def understated_vcd(answer, cc):
    value, witness = answer
    return value - 1, witness - {max(witness)}


def outside_certificate(cert, cc):
    return dataclasses.replace(cert, witnesses=tuple(
        w << cc.domain_size for w in cert.witnesses))


MUTANTS = {
    "rtd-1": ("rtd", lambda cert, cc: understated_certificate(cert)),
    "rtd+1": ("rtd", lambda cert, cc: overstated_certificate(cert, cc.domain_size)),
    "vcd-1": ("vcd", understated_vcd),
    "outside": ("rtd", outside_certificate),
}

OUTSIDE = "a witness has an instance outside the domain"

KINDS = {"star": ("star", False), "con": ("con", False), "con-empty": ("con", True)}

# (n, p, i) of random_graph(n, p, 11, i) whose class of each kind has
# RTD = VCD - 1 and more than 12 concepts: all 15 such classes for
# n = 5..8, p in {.3, .6, .75}, i < 40
DICHOTOMY = {
    "star": [(6, .75, 3), (6, .75, 22), (7, .6, 7), (7, .75, 15),
             (7, .75, 25), (7, .75, 36)],
    "con": [(6, .75, 3), (6, .75, 22), (7, .75, 15), (7, .75, 25),
            (7, .75, 36)],
    "con-empty": [(6, .75, 22), (7, .75, 15), (7, .75, 25), (7, .75, 36)],
}


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
    monkeypatch.setattr(GraphContext, stage,
                        lambda self, cc: mutate(real(self, cc), cc))
    plan_check = f"{KINDS[kind][0]}-plan-teacher"
    if mutant == "outside":
        def no_plan(self, cc):
            raise AssertionError("plan asked for")
        monkeypatch.setattr(GraphContext, "plan", no_plan)
    escapes = []
    for g in mutant_graphs():
        failed = {r.name: r.detail for r in check_graph(g, *KINDS[kind])
                  if r.status == "fail"}
        if not failed or mutant == "rtd-1" and plan_check not in failed \
                or mutant == "outside" and \
                (failed.get(plan_check), failed.get("eq6-subclass-bound")) \
                != (OUTSIDE, OUTSIDE):
            escapes.append((g.edges(), sorted(failed)))
    if (mutant, kind) == ("rtd+1", "con-empty"):
        # the one no-op mutant: K_5's top-level witnesses hold every instance
        k5 = GraphContext(complete_graph(5))
        cert = real(k5, k5.con(True))
        assert overstated_certificate(cert, k5.g.n) is cert
        assert escapes == [(k5.g.edges(), [])]
    else:
        assert escapes == []
    if mutant == "rtd+1":
        missed = []
        for n, p, i in DICHOTOMY[kind]:
            g = random_graph(n, p, 11, i)
            ctx = GraphContext(g)
            cc = ctx.star if kind == "star" else ctx.con(kind == "con-empty")
            assert len(cc) > 12 and real(ctx, cc).rtd == ctx.vcd(cc)[0] - 1
            failed = {r.name for r in check_graph(g, *KINDS[kind])
                      if r.status == "fail"}
            if "eq6-subclass-bound" not in failed:
                missed.append(((n, p, i), sorted(failed)))
        assert missed == []
