"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two reference values were corrected after they were shown to be false:

* criterion 1: the five-vertex star example ``fig1-right`` was once pinned
  to (3,3,4). That triple is unattainable. A sixteen-concept product
  subclass has TD_min 4 and so forces the peeling dimension to 4 (see
  test_stars.py for the witness), and a brute force over the 24 concepts
  gives (3,4,4). No connected five-vertex graph at all has a star triple
  of the shape (Δ,Δ,Δ+1); it first occurs at six vertices.
* criterion 12: the neighborhood form of the max-leaf number is 1 on the
  single-edge graph ``K_2``, while the literal max-leaf-spanning-tree count
  is 2. This is the one documented divergence: the two forms coincide on
  every other connected graph with up to 7 vertices. The test pins the
  exact pair on ``K_2`` and equality everywhere else.
"""

from __future__ import annotations

import pytest

from helpers import (
    bulk_connected_mask,
    bulk_max_leaf_by_neighborhoods,
    bulk_max_leaf_by_spanning_trees,
    connected_graphs,
    labeled_trees,
    powerset_class,
)
from teachdim.connected import (
    build_con_class,
    con_superset_teacher,
    con_tree_teacher,
    con_triple,
    con_vcd_matching_teacher,
)
from teachdim.dimensions import (
    rtd,
    rtd_subclass_lower_bound,
    rtd_value,
    sauer_bound,
    sauer_rtd_implication,
    td_min,
    vcd,
)
from teachdim.errors import TeacherPreconditionError
from teachdim.families import (
    complete_graph,
    cycle_graph,
    fig1_right,
    fig2,
    path_graph,
    random_graph,
)
from teachdim.graphs import bits, max_leaf_number
from teachdim.stars import (
    build_star_class,
    star_special_teacher,
    star_subset_teacher,
    star_triple,
    star_vcd_characterization,
)
from teachdim.teaching import plan_to_teacher, verify_pb_teacher


def _report(num: int, desc: str, failures: list, extra: str = ""):
    status = "PASS" if not failures else "FAIL"
    tail = f"  [{extra}]" if extra else ""
    print(f"\nACCEPTANCE {num:02d} [{status}] {desc}{tail}")
    assert not failures, (
        f"criterion {num}: {len(failures)} violation(s); first few: {failures[:6]}"
    )


def _one_strict(lo, mid, hi):
    return lo <= mid <= hi <= lo + 1 and (lo < mid) + (mid < hi) + (hi < lo + 1) == 1


def test_criterion_01_star_triples():
    expected = {}
    for n in range(2, 7):
        expected[f"K_{n}"] = (complete_graph(n), (n - 1, n - 1, n - 1))
    for n in range(2, 9):
        expected[f"P_{n}"] = (path_graph(n), (2, 2, 2))
    expected["C_4"] = (cycle_graph(4), (2, 3, 3))
    for n in range(5, 9):
        expected[f"C_{n}"] = (cycle_graph(n), (2, 2, 2))
    # RTD is 4: the product subclass in test_stars.py::TestTriples
    # ::test_fig1_right_peeling_is_forced_to_four has TD_min 4
    expected["fig1-right"] = (fig1_right(), (3, 4, 4))
    failures = []
    for name, (g, want) in expected.items():
        got = star_triple(g)
        if got != want:
            failures.append((name, "expected", want, "computed", got))
    _report(1, "star triples match the reference values", failures)


def test_criterion_02_con_triples():
    expected = {}
    for n in range(2, 6):
        expected[f"K_{n}"] = (complete_graph(n), (n - 1, n - 1, n - 1))
    for n in range(2, 9):
        expected[f"P_{n}"] = (path_graph(n), (2, 2, 2))
    expected["C_4"] = (cycle_graph(4), (2, 3, 3))
    expected["fig2"] = (fig2(), (4, 4, 5))
    failures = []
    for name, (g, want) in expected.items():
        got = con_triple(g, include_empty=False)
        if got != want:
            failures.append((name, "expected", want, "computed", got))
    _report(2, "connected-set triples match the reference values", failures)


def test_criterion_03_cardinalities():
    failures = []
    if len(build_star_class(cycle_graph(4))) != 12:
        failures.append("star class of C_4")
    if len(build_con_class(cycle_graph(4), False)) != 13:
        failures.append("connected-set class of C_4 without the empty set")
    for n in range(2, 7):
        if len(build_star_class(complete_graph(n))) != 2 ** n - 1:
            failures.append(f"star class of K_{n}")
    _report(3, "class cardinalities are exact", failures)


def test_criterion_04_powerset_dimensions():
    failures = []
    for d in range(5):
        cc = powerset_class(d)
        got = (vcd(cc)[0], rtd(cc).rtd, td_min(cc))
        if got != (d, d, d):
            failures.append((d, got))
    _report(4, "powerset: vcd = rtd = td_min = domain size for 0..4", failures)


def test_criterion_05_star_characterization(sweep6, random200):
    failures = list(sweep6["char_mismatch"])
    for name, g in random200:
        pred, _ = star_vcd_characterization(g)
        brute, _ = vcd(build_star_class(g))
        if pred != brute:
            failures.append((name, pred, brute))
    _report(
        5, "star characterization equals brute-force dimension",
        failures,
        f"{sweep6['count']} exhaustive graphs + {len(random200)} random")


def test_criterion_06_leaf_tree_condition(sweep6):
    failures = list(sweep6["ltc_mismatch"]) + [
        ("budget", key) for key in sweep6["ltc_budget"]
    ]
    _report(
        6, "leaf-tree witness exists iff the dimension exceeds the "
           "max-leaf number", failures,
        f"{sweep6['count']} exhaustive graphs, no budget exhaustion")


def test_criterion_07_inequality_chains(sweep6, random200, family_graphs):
    failures = list(sweep6["star_chain"]) + list(sweep6["con_chain"])
    for name, g in family_graphs:
        try:
            d, r, v = star_triple(g)
        except RuntimeError as exc:
            failures.append((name, "star", str(exc)))
        try:
            e, r2, v2 = con_triple(g, include_empty=False)
        except RuntimeError as exc:
            failures.append((name, "con", str(exc)))
    for name, g in random200:
        cc = build_star_class(g)
        d = g.max_degree()
        r = rtd_value(cc)
        v, _ = vcd(cc)
        if not _one_strict(d, r, v):
            failures.append((name, "star", d, r, v))
    _report(
        7, "parameter <= rtd <= vcd <= parameter+1 with exactly one "
           "strict step", failures,
        "exhaustive n<=6 (both empty-set policies) + families + random")


@pytest.fixture(scope="session")
def teacher_suite(family_graphs):
    """Graphs on which the constructive teachers are exercised."""
    graphs = list(family_graphs)
    for n in range(1, 6):
        graphs.extend(
            (f"conn{n}#{i}", g) for i, g in enumerate(connected_graphs(n)))
    for i in range(60):
        n = 6 + i % 4
        p = (0.3, 0.5, 0.7)[i % 3]
        graphs.append((f"rand(n={n},p={p},i={i})",
                       random_graph(n, p, seed=777, index=i)))
    return graphs


def test_criterion_08_teacher_validity(teacher_suite):
    failures = []
    refusals = {"precondition": 0, "infeasible": 0}

    def check(name, kind, teacher, bound, exclude_empty=False):
        cc = teacher.concept_class
        ok, cx = verify_pb_teacher(cc, teacher)
        if not ok:
            failures.append((name, kind, "counterexample", cx))
            return
        idxs = ([i for i, c in enumerate(cc.concepts) if c]
                if exclude_empty else range(len(cc)))
        order = teacher.order_over(idxs)
        if order > bound:
            failures.append((name, kind, "order", order, ">", bound))

    for name, g in teacher_suite:
        delta = g.max_degree()
        ell = max_leaf_number(g)
        check(name, "star-subset", star_subset_teacher(g), delta + 1)
        try:
            check(name, "star-special", star_special_teacher(g), delta)
        except TeacherPreconditionError:
            pass
        check(name, "con-superset", con_superset_teacher(g), ell + 1,
              exclude_empty=True)
        try:
            check(name, "con-vcd-matching", con_vcd_matching_teacher(g), ell,
                  exclude_empty=True)
        except TeacherPreconditionError as exc:
            refusals["infeasible" if "infeasible" in str(exc)
                     else "precondition"] += 1
    tree_count = 0
    for n in range(1, 8):
        for g in labeled_trees(n):
            tree_count += 1
            leaf_count = (sum(1 for x in range(n) if g.degree(x) == 1)
                          if n > 1 else 1)
            check(f"tree{n}#{tree_count}", "con-tree", con_tree_teacher(g),
                  leaf_count)
    _report(
        8, "all constructive teachers verify within their order bounds",
        failures,
        f"{tree_count} trees; matching-teacher refusals: "
        f"{refusals['precondition']} precondition, "
        f"{refusals['infeasible']} jointly-infeasible")


@pytest.fixture(scope="session")
def plan_suite(family_graphs):
    """Classes whose peeling certificates are turned into teachers."""
    classes = [(f"powerset({d})", powerset_class(d)) for d in range(5)]
    for name, g in family_graphs:
        classes.append((f"star({name})", build_star_class(g)))
        classes.append((f"con({name})", build_con_class(g, True)))
    for n in range(1, 5):
        for i, g in enumerate(connected_graphs(n)):
            classes.append((f"star(conn{n}#{i})", build_star_class(g)))
            classes.append((f"con(conn{n}#{i})", build_con_class(g, True)))
    for n in range(1, 7):
        for i, g in enumerate(labeled_trees(n)):
            classes.append((f"con(tree{n}#{i})", build_con_class(g, True)))
    return classes


def test_criterion_09_plan_teachers_and_order_lower_bound(
        plan_suite, teacher_suite):
    failures = []
    for name, cc in plan_suite:
        cert = rtd(cc)
        teacher = plan_to_teacher(cert, cc)
        ok, cx = verify_pb_teacher(cc, teacher)
        if not ok:
            failures.append((name, "plan invalid", cx))
        elif teacher.order != cert.rtd:
            failures.append((name, "order", teacher.order, "!= rtd", cert.rtd))
    for name, g in teacher_suite:
        star_cc = build_star_class(g)
        star_rtd = rtd_value(star_cc)
        for kind, build in (("star-subset", star_subset_teacher),
                            ("star-special", star_special_teacher)):
            try:
                teacher = build(g)
            except TeacherPreconditionError:
                continue
            if teacher.order < star_rtd:
                failures.append((name, kind, teacher.order, "<", star_rtd))
        con_cc = build_con_class(g, True)
        con_rtd = rtd_value(con_cc)
        for kind, build in (("con-superset", con_superset_teacher),
                            ("con-vcd-matching", con_vcd_matching_teacher)):
            try:
                teacher = build(g)
            except TeacherPreconditionError:
                continue
            if teacher.order < con_rtd:
                failures.append((name, kind, teacher.order, "<", con_rtd))
    _report(
        9, "peeling teachers have order exactly rtd; every valid teacher "
           "has order at least rtd", failures)


def test_criterion_10_sauer(family_graphs, random200):
    failures = []
    classes = [(f"powerset({d})", powerset_class(d)) for d in range(5)]
    for name, g in family_graphs:
        classes.append((f"star({name})", build_star_class(g)))
        classes.append((f"con({name})", build_con_class(g, False)))
        classes.append((f"con+e({name})", build_con_class(g, True)))
    for name, g in random200[:60]:
        classes.append((f"star({name})", build_star_class(g)))
    for name, cc in classes:
        v, _ = vcd(cc)
        r = rtd_value(cc)
        if len(cc) > sauer_bound(cc.domain_size, v):
            failures.append((name, "vcd bound"))
        if len(cc) > sauer_bound(cc.domain_size, r):
            failures.append((name, "rtd bound"))
    star4 = build_star_class(cycle_graph(4))
    con4 = build_con_class(cycle_graph(4), False)
    if not (len(star4) == 12 > 11 and sauer_rtd_implication(star4) == 3):
        failures.append("star C_4 implication")
    if not (len(con4) == 13 > 11 and sauer_rtd_implication(con4) == 3):
        failures.append("con C_4 implication")
    _report(10, "class sizes respect the binomial-sum bound at vcd and rtd; "
                "the four-cycle classes force rtd >= 3", failures)


def test_criterion_11_subclass_maximum(family_graphs):
    classes = [(f"powerset({d})", powerset_class(d)) for d in range(4)]
    for name, g in family_graphs:
        for label, cc in ((f"star({name})", build_star_class(g)),
                          (f"con({name})", build_con_class(g, False)),
                          (f"con+e({name})", build_con_class(g, True))):
            if len(cc) <= 12:
                classes.append((label, cc))
    failures = []
    checked = 0
    for name, cc in classes:
        checked += 1
        value = rtd(cc).rtd
        best = max(
            rtd_subclass_lower_bound(cc, list(bits(sub)))
            for sub in range(1, 1 << len(cc))
        )
        if best != value:
            failures.append((name, "max subclass TD_min", best, "rtd", value))
    _report(11, "rtd equals the maximum subclass TD_min on every class with "
                "at most 12 concepts", failures, f"{checked} classes")


def test_criterion_12_max_leaf_oracle_equivalence():
    import numpy as np

    failures = []
    total = 0
    for n in range(1, 8):
        primary = bulk_max_leaf_by_neighborhoods(n)
        oracle = bulk_max_leaf_by_spanning_trees(n)
        connected = bulk_connected_mask(n)
        total += int(connected.sum())
        diverge = connected & (primary != oracle)
        if n == 2:
            # the documented divergence: edge mask 1 is K_2, whose spanning
            # tree has two degree-1 vertices but an empty interior, so no
            # connected set has both in its open neighborhood (for n >= 3 a
            # spanning tree's leaves lie in the open neighborhood of its
            # nonempty connected interior)
            k2 = (int(primary[1]), int(oracle[1]))
            if k2 != (1, 2):
                failures.append((2, 1, "K_2 expected", (1, 2), "got", k2))
            diverge[1] = False
        for gid in np.nonzero(diverge)[0]:
            failures.append(
                (n, int(gid), "neighborhood", int(primary[gid]),
                 "spanning-tree", int(oracle[gid])))
    _report(12, "neighborhood max-leaf number equals exhaustive "
                "spanning-tree max-leaf number on all connected graphs "
                "with up to 7 vertices, except the documented (1, 2) on "
                "K_2", failures, f"{total} graphs")
