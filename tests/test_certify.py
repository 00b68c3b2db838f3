"""Every RTD, TD and VCD answer on the family graphs, the seeded random
graphs, the benchmark's peel classes and a seeded share of the n <= 6
sweep, certified by ``certify`` in helpers.py, which shares no code with
the kernels; and mutated answers, one too low or one too high, that it
rejects."""

from helpers import certify, perfbench_workloads
from teachdim.context import GraphContext
from teachdim.dimensions import RtdCertificate, rtd, td_of, vcd
from teachdim.families import cycle_graph, fig2


def answers(cc):
    return rtd(cc), [td_of(cc, i) for i in range(len(cc))], vcd(cc)


def test_family_and_random_graphs(family_graphs, random200):
    failures = []
    for name, g in family_graphs + random200:
        ctx = GraphContext(g)
        for kind, cc in (("star", ctx.star), ("con+empty", ctx.con(True))):
            problems = certify(cc, *answers(cc))
            if problems:
                failures.append((name, kind, problems[:3]))
    assert not failures


def test_peel_classes():
    W = perfbench_workloads()
    for label, make, kind, include_empty in W.PEEL_INPUTS:
        cc = W.build_class(make(), kind, include_empty)
        assert certify(cc, *answers(cc)) == [], label


def test_seeded_share_of_the_small_graph_sweep(sweep6):
    """The star and both connected-set classes of one graph in about 20
    of the 27,476 connected graphs with at most 6 vertices."""
    assert sweep6["certified"] == 1368
    assert sweep6["certify_failures"] == []


def shifted_mask(w, step):
    """The instance mask ``w`` with its lowest outside instance added
    (step +1) or its lowest instance removed (step -1)."""
    return w ^ (~w & (w + 1) if step > 0 else w & -w)


def shifted_level(cert, step):
    """``cert`` with the value of the first level at the rtd moved by
    ``step``, +1 or -1, and each of its witnesses shifted to match."""
    at = next(k for k, (_, value) in enumerate(cert.levels) if value == cert.rtd)
    level, value = cert.levels[at]
    witnesses = list(cert.witnesses)
    for i in level:
        witnesses[i] = shifted_mask(witnesses[i], step)
    levels = list(cert.levels)
    levels[at] = (level, value + step)
    return RtdCertificate(cert.size, tuple(levels),
                          max(v for _, v in levels), tuple(witnesses))


def shifted(size, witness, step, domain_size):
    """(size + step, the instance set ``witness`` with its lowest outside
    instance added or its lowest instance removed)."""
    if step > 0:
        return size + 1, witness | {min(set(range(domain_size)) - witness)}
    return size - 1, witness - {min(witness)}


def test_mutated_answers_are_rejected():
    """An answer one too low fails the upper side: its witness, one
    instance short, does not do its job.  One too high, with a witness
    one instance longer, fails the lower side: a smaller set does the
    job."""
    for cc in (GraphContext(fig2()).con(True), GraphContext(cycle_graph(5)).star):
        cert, tds, vc = answers(cc)
        assert certify(cc, cert, tds, vc) == []
        d = cc.domain_size
        i = max(range(len(cc)), key=lambda j: (0 < tds[j][0] < d, tds[j][0]))
        for step, rtd_side, td_side, vcd_side in (
                (-1, "level witness", "td witness", "is shattered, past vcd"),
                (1, "fewer than rtd", "fewer than td", "is not shattered")):
            problems = certify(cc, shifted_level(cert, step), tds, vc)
            assert problems and all(p.startswith(rtd_side) for p in problems)
            mutant = list(tds)
            mutant[i] = tds[i][0] + step, shifted_mask(tds[i][1], step)
            problems = certify(cc, cert, mutant, vc)
            assert len(problems) == 1
            assert problems[0].startswith(td_side) and f"concept {i}" in problems[0]
            problems = certify(cc, cert, tds, shifted(*vc, step, d))
            assert len(problems) == 1 and vcd_side in problems[0]
