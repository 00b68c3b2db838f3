"""Named per-graph property checks, shared by the verify command and the
test suite.  Each check returns CheckResult(name, status, detail) with
status "pass", "fail" or "na"."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .concepts import ConceptClass, is_shattered
from .connected import (
    con_superset_teacher,
    con_tree_teacher,
    con_vcd_matching_teacher,
    leaf_tree_condition,
    maximal_opponents,
)
from .context import GraphContext
from .dimensions import (
    check_chain,
    rtd_subclass_lower_bound,
    sauer_bound,
    sauer_rtd_implication,
)
from .errors import TeacherPreconditionError
from .graphs import (
    DEFAULT_ENUM_BUDGET,
    Graph,
    components,
    connected_set_masks,
    is_connected,
    mask_of,
    max_leaf_number_exhaustive,
    open_neighborhood_mask,
    set_of,
    spanned_subgraph,
    MAX_SPANNING_TREE_VERTICES,
)
from .stars import star_special_teacher, star_subset_teacher, star_vcd_characterization
from .teaching import plan_to_teacher, verify_pb_teacher

EQ6_FULL_LIMIT = 12
EQ6_SAMPLES = 100
EQ6_SEED = 7


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass / fail / na
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _result(name, ok, detail=""):
    return CheckResult(name, "pass" if ok else "fail", detail)


def _chain_result(name, lo, mid, hi):
    try:
        strict = check_chain(lo, mid, hi, name)
    except RuntimeError as exc:
        return CheckResult(name, "fail", str(exc))
    return CheckResult(name, "pass", f"({lo},{mid},{hi}) strict at {strict}")


@lru_cache(maxsize=256)
def _eq6_samples(m: int) -> tuple[int, ...]:
    """The sampled subclasses of an m-concept class as index masks, in
    draw order: EQ6_SAMPLES times a size from ``randint(1, m)`` and then
    that many indices from ``sample(range(m), size)``, all from one
    ``random.Random(EQ6_SEED)``.  They depend on m alone, so each size
    is drawn once per process."""
    rng = random.Random(EQ6_SEED)
    out = []
    for _ in range(EQ6_SAMPLES):
        size = rng.randint(1, m)
        out.append(mask_of(rng.sample(range(m), size)))
    return tuple(out)


def _eq6_check(cc: ConceptClass, rtd_value_: int, *,
               budget: int = DEFAULT_ENUM_BUDGET) -> CheckResult:
    """Subclass TD_min never exceeds the class's peeling dimension; for
    small classes the maximum over all subclasses must reach it exactly."""
    m = len(cc)
    if m <= EQ6_FULL_LIMIT:
        best = 0
        for sub in range(1, 1 << m):
            tdm = rtd_subclass_lower_bound(cc, sub, budget=budget)
            if tdm > best:
                best = tdm
            if tdm > rtd_value_:
                return CheckResult(
                    "eq6-subclass-bound", "fail",
                    f"subclass {sub:#x} has TD_min {tdm} > rtd {rtd_value_}")
        return _result("eq6-subclass-bound", best == rtd_value_,
                       f"max subclass TD_min {best} == rtd {rtd_value_} (full)")
    for sub in _eq6_samples(m):
        tdm = rtd_subclass_lower_bound(cc, sub, budget=budget)
        if tdm > rtd_value_:
            return CheckResult(
                "eq6-subclass-bound", "fail",
                f"sampled subclass has TD_min {tdm} > rtd {rtd_value_}")
    return CheckResult("eq6-subclass-bound", "pass",
                       f"{EQ6_SAMPLES} sampled subclasses (seed {EQ6_SEED})")


def _sauer_checks(cc: ConceptClass, vcd_value: int, rtd_value_: int):
    m, d = len(cc), cc.domain_size
    yield _result("sauer-vcd", m <= sauer_bound(d, vcd_value),
                  f"|C|={m} <= {sauer_bound(d, vcd_value)}")
    yield _result("sauer-rtd", m <= sauer_bound(d, rtd_value_),
                  f"|C|={m} <= {sauer_bound(d, rtd_value_)}")
    imp = sauer_rtd_implication(cc)
    if imp is None:
        yield CheckResult("sauer-rtd-implication", "na", "no d qualifies")
    else:
        yield _result("sauer-rtd-implication", rtd_value_ >= imp,
                      f"rtd {rtd_value_} >= forced {imp}")


def _teacher_result(name, cc, teacher, order_bound=None, exclude_empty=False):
    ok, cx = verify_pb_teacher(cc, teacher)
    if not ok:
        i, j = cx
        return CheckResult(name, "fail", f"concept {i} not preferred over {j}")
    if order_bound is not None:
        if exclude_empty:
            idxs = [i for i, c in enumerate(cc.concepts) if c]
            order = teacher.order_over(idxs)
        else:
            order = teacher.order
        if order > order_bound:
            return CheckResult(name, "fail",
                               f"order {order} exceeds bound {order_bound}")
        return CheckResult(name, "pass", f"order {order} <= {order_bound}")
    return CheckResult(name, "pass")


def check_star_graph(ctx: GraphContext) -> list[CheckResult]:
    out = []
    g, cc = ctx.g, ctx.star
    delta = g.max_degree()
    rt = ctx.rtd(cc)
    v, witness = ctx.vcd(cc)
    out.append(_chain_result("star-chain", delta, rt.rtd, v))

    predicted, _ = star_vcd_characterization(g)
    out.append(_result("star-char-vs-brute", predicted == v,
                       f"predicted {predicted}, brute {v}"))

    shattered_ok = all(
        is_shattered(cc, g.adj[x]) for x in range(g.n)
    )
    out.append(_result("star-open-neighborhoods-shattered", shattered_ok))
    covered = any(witness <= (set_of(g.closed_mask(x))) for x in range(g.n))
    out.append(_result("star-witness-in-closed-neighborhood", covered,
                       f"witness {sorted(witness)}"))

    out.extend(_sauer_checks(cc, v, rt.rtd))
    out.append(_eq6_check(cc, rt.rtd, budget=ctx.budget))

    out.append(_teacher_result(
        "star-subset-teacher", cc, star_subset_teacher(ctx), delta + 1))
    try:
        out.append(_teacher_result(
            "star-special-teacher", cc, star_special_teacher(ctx), delta))
    except TeacherPreconditionError as exc:
        out.append(CheckResult("star-special-teacher", "na", str(exc)))

    plan = plan_to_teacher(rt, cc)
    res = _teacher_result("star-plan-teacher", cc, plan)
    if res.status == "pass" and plan.order != rt.rtd:
        res = CheckResult("star-plan-teacher", "fail",
                          f"order {plan.order} != rtd {rt.rtd}")
    out.append(res)
    return out


def check_con_graph(ctx: GraphContext, include_empty: bool = False
                    ) -> list[CheckResult]:
    out = []
    g, cc, ell = ctx.g, ctx.con(include_empty), ctx.ell
    rt = ctx.rtd(cc)
    v = ctx.vcd(cc)[0]
    out.append(_chain_result(
        f"con-chain(empty={'yes' if include_empty else 'no'})", ell, rt.rtd, v))

    cc_other = ctx.con(not include_empty)
    other = (ctx.rtd(cc_other).rtd, ctx.vcd(cc_other)[0])
    cc_full = ctx.con(True)
    rt_full, v_full = ctx.rtd(cc_full), ctx.vcd(cc_full)[0]
    out.append(CheckResult(
        "con-empty-policy", "pass",
        f"(rtd,vcd) this policy ({rt.rtd},{v}), other policy {other}"))

    comps = components(g)
    if g.n <= MAX_SPANNING_TREE_VERTICES:
        oracle = max_leaf_number_exhaustive(g)
        # the two forms diverge exactly when every component has at most
        # two vertices and at least one edge exists: a lone edge has two
        # degree-1 vertices but no interior vertex, so its neighborhood
        # value is 1 while its spanning tree counts 2 leaves
        if g.m >= 1 and all(len(c) <= 2 for c in comps):
            out.append(_result(
                "ell-oracle", (ell, oracle) == (1, 2),
                f"documented single-edge divergence: neighborhood {ell}, "
                f"spanning-tree {oracle}"))
        else:
            out.append(_result("ell-oracle", ell == oracle,
                               f"neighborhood {ell}, spanning-tree {oracle}"))

    # one pass over the connected sets serves both opponent checks
    comp_of = {x: mask_of(c) for c in comps for x in c}
    opp_fail = {}  # set -> detail of its last failing opponent
    strict_ok = True
    for xmask in cc_full.concepts[1:]:
        xcomp = comp_of[(xmask & -xmask).bit_length() - 1]
        xopen = open_neighborhood_mask(g, xmask)
        full = v_full == ell and xopen.bit_count() == ell
        for y in maximal_opponents(g, xmask).opponents:
            ymask = mask_of(y)
            yopen = open_neighborhood_mask(g, ymask)
            if yopen & ~xopen:
                opp_fail[xmask] = (f"boundary of {sorted(y)} escapes "
                                   f"X={sorted(set_of(xmask))}")
            if ymask & ~xcomp and yopen:
                opp_fail[xmask] = f"cross-component opponent {sorted(y)} has a boundary"
            if full and (yopen & ~xopen or yopen == xopen):
                strict_ok = False
    detail = ""
    if opp_fail:
        # name the failure that enumeration order meets last
        detail = opp_fail[[x for x in connected_set_masks(g, budget=ctx.budget)
                           if x in opp_fail][-1]]
    out.append(_result("con-opponent-boundaries", not opp_fail, detail))

    if g.n and is_connected(g, g.full_mask):
        wit = leaf_tree_condition(ctx)
        expected = v_full == ell + 1
        out.append(_result(
            "con-leaf-tree-vs-vcd", (wit is not None) == expected,
            f"witness {'found' if wit else 'none'}, vcd(with empty) {v_full}, ell {ell}"))
    else:
        comp_vals = []
        for comp in comps:
            sub = GraphContext(spanned_subgraph(g, comp)[0], ctx.budget)
            sub_cc = sub.con(True)
            comp_vals.append((sub.rtd(sub_cc).rtd, sub.vcd(sub_cc)[0]))
        max_r = max(r for r, _ in comp_vals)
        max_v = max(w for _, w in comp_vals)
        out.append(_result(
            "con-components-vcd", v_full == max_v,
            f"union {v_full}, components max {max_v}"))
        out.append(_result(
            "con-components-rtd", max_r <= rt_full.rtd <= max_r + 1,
            f"{max_r} <= {rt_full.rtd} <= {max_r + 1}"))

    if v_full == ell:
        out.append(_result("con-opponent-strictness", strict_ok))

    out.extend(_sauer_checks(cc, v, rt.rtd))
    out.append(_eq6_check(cc, rt.rtd, budget=ctx.budget))

    out.append(_teacher_result(
        "con-superset-teacher", cc_full, con_superset_teacher(ctx),
        ell + 1, exclude_empty=True))
    if g.n and is_connected(g, g.full_mask) and g.m == g.n - 1:
        leaf_count = (sum(1 for x in range(g.n) if g.degree(x) == 1)
                      if g.n > 1 else 1)
        out.append(_teacher_result(
            "con-tree-teacher", cc_full, con_tree_teacher(ctx), leaf_count))
    try:
        out.append(_teacher_result(
            "con-vcd-matching-teacher", cc_full, con_vcd_matching_teacher(ctx),
            ell, exclude_empty=True))
    except TeacherPreconditionError as exc:
        out.append(CheckResult("con-vcd-matching-teacher", "na", str(exc)))

    plan = plan_to_teacher(rt, cc)
    res = _teacher_result("con-plan-teacher", cc, plan)
    if res.status == "pass" and plan.order != rt.rtd:
        res = CheckResult("con-plan-teacher", "fail",
                          f"order {plan.order} != rtd {rt.rtd}")
    out.append(res)
    return out


def check_graph(g: Graph, kind: str, include_empty: bool = False, *,
                budget: int = DEFAULT_ENUM_BUDGET):
    """Run every check of one kind; ``budget`` caps each enumeration and
    teaching-set search and raises BudgetExceededError when hit."""
    if kind == "star":
        return check_star_graph(GraphContext(g, budget))
    if kind == "con":
        return check_con_graph(GraphContext(g, budget), include_empty)
    raise ValueError(f"unknown kind {kind!r}")
