"""Named per-graph property checks, shared by the verify command and the
test suite.  Each kind's checks are one generator that yields each
CheckResult(name, status, detail), status "pass", "fail" or "na", in
output order and runs each check as it is yielded, so a budget refusal
comes from the same stage however the results are read."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, partial

from .concepts import ConceptClass, is_shattered, version_space_mask
from .connected import (
    con_superset_teacher,
    con_tree_teacher,
    con_vcd_matching_teacher,
    leaf_tree_condition,
)
from .context import GraphContext
from .dimensions import (
    RtdCertificate,
    check_chain,
    rtd_subclass_lower_bound,
    sauer_bound,
    sauer_rtd_implication,
    td_min_at_most,
)
from .errors import TeacherPreconditionError
from .graphs import (
    DEFAULT_ENUM_BUDGET,
    Graph,
    bits,
    components,
    mask_of,
    max_leaf_number_exhaustive,
    set_of,
    spanned_subgraph,
    MAX_SPANNING_TREE_VERTICES,
)
from .stars import star_special_teacher, star_subset_teacher
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


EQ6_SAMPLED_PASS = CheckResult(
    "eq6-subclass-bound", "pass",
    f"{EQ6_SAMPLES} sampled subclasses (seed {EQ6_SEED})")


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


def _eq6_check(cc: ConceptClass, rt: RtdCertificate, *,
               budget: int = DEFAULT_ENUM_BUDGET, plan=None) -> CheckResult:
    """Subclass TD_min never exceeds the class's peeling dimension
    rt.rtd; for small classes the maximum over all subclasses must reach
    it exactly.

    A class of at most EQ6_FULL_LIMIT concepts has the exact TD_min of
    every subclass computed.  A larger class reads the plan teacher's
    verification first: ``plan()`` gives the teacher and its
    ``verify_pb_teacher`` result (check_graph passes GraphContext.plan,
    which the plan-teacher check reads too; by default both are built
    here from rt).  When it passes, the check returns the sampled
    branch's pass without drawing a sample, so a valid certificate draws
    nothing: take any sample S, L* the first level that meets it and i
    its lowest member in L*.  S lies in A_{L*}, the concepts still active
    at L*, and the verification says that i's witness, labelled as i
    labels it, leaves only i of A_{L*}, so only i of S: that is the
    sample loop's own test for a settled sample, which it would pass on
    every sample.  The witness has its level's size, at most rtd, so
    TD_min(S) <= rtd for every subclass S, and RTD = max over S of
    TD_min(S) (Doliwa, Fan, Simon & Zilles, JMLR 2014) is at most rtd.
    When the verification fails, or a witness has an instance outside
    the domain (``PBTeacher`` rejects such a plan), the sample loop
    ``_eq6_sampled`` decides."""
    m, r = len(cc), rt.rtd
    if rt.size != m:
        raise ValueError("certificate does not match class size")
    if m <= EQ6_FULL_LIMIT:
        best = 0
        for sub in range(1, 1 << m):
            tdm = rtd_subclass_lower_bound(cc, sub, budget=budget)
            if tdm > best:
                best = tdm
            if tdm > r:
                return CheckResult(
                    "eq6-subclass-bound", "fail",
                    f"subclass {sub:#x} has TD_min {tdm} > rtd {r}")
        return _result("eq6-subclass-bound", best == r,
                       f"max subclass TD_min {best} == rtd {r} (full)")
    if not max(rt.witnesses) >> cc.domain_size:
        ok, _ = plan()[1] if plan else verify_pb_teacher(cc, plan_to_teacher(rt, cc))
        if ok:
            return EQ6_SAMPLED_PASS
    return _eq6_sampled(cc, rt, budget=budget)


def _eq6_sampled(cc: ConceptClass, rt: RtdCertificate, *,
                 budget: int = DEFAULT_ENUM_BUDGET) -> CheckResult:
    """"TD_min <= rtd" asked of each sampled subclass of a class of more
    than EQ6_FULL_LIMIT concepts, with the certificate tried first: with
    L* the first level that meets the sample and i the sample's lowest
    member in L*, the sample passes if the witness of i, labelled as i
    labels it, leaves only i of the sample.  The witness has its level's
    size, at most rtd (the certificate checks both), so such a pass
    proves TD_min <= rtd.  Each first-peeled member's witness version
    space is computed once per check and ANDed with every sample it
    serves.  A sample its witness does not settle is decided exactly by
    one td_min_at_most walk, the only code that can fail a sample; the
    exact TD_min is computed only for a sample that fails, for the
    detail."""
    m, r = len(cc), rt.rtd
    level_masks = [mask_of(level) for level, _ in rt.levels]
    spaces = {}  # first-peeled member -> its witness's version space
    for sub in _eq6_samples(m):
        # the levels partition the class, so one of them meets sub
        for level in level_masks:
            if level & sub:
                break
        low = level & sub
        low &= -low
        i = low.bit_length() - 1
        space = spaces.get(i)
        if space is None:
            c, w = cc.concepts[i], rt.witnesses[i]
            # a witness with an instance outside the domain teaches
            # nothing: its empty space settles no sample
            space = spaces[i] = 0 if w >> cc.domain_size else \
                version_space_mask(cc, c & w, w & ~c)
        if space & sub != low and \
                not td_min_at_most(cc, sub, r, budget=budget):
            tdm = rtd_subclass_lower_bound(cc, sub, budget=budget)
            return CheckResult(
                "eq6-subclass-bound", "fail",
                f"sampled subclass has TD_min {tdm} > rtd {r}")
    return EQ6_SAMPLED_PASS


def _class_checks(ctx, cc, rt, v):
    """Sauer's bounds and eq6, the checks every class gets."""
    m, d, r = len(cc), cc.domain_size, rt.rtd
    for name, dim in (("sauer-vcd", v), ("sauer-rtd", r)):
        bound = sauer_bound(d, dim)
        yield _result(name, m <= bound, f"|C|={m} <= {bound}")
    imp = sauer_rtd_implication(cc)
    if imp is None:
        yield CheckResult("sauer-rtd-implication", "na", "no d qualifies")
    else:
        yield _result("sauer-rtd-implication", r >= imp,
                      f"rtd {r} >= forced {imp}")
    yield _eq6_check(cc, rt, budget=ctx.budget, plan=partial(ctx.plan, cc))


def _not_preferred(name, cx):
    i, j = cx
    return CheckResult(name, "fail", f"concept {i} not preferred over {j}")


def _teacher_result(name, cc, teacher, order_bound=None, exclude_empty=False):
    ok, cx = verify_pb_teacher(cc, teacher)
    if not ok:
        return _not_preferred(name, cx)
    if order_bound is None:
        return CheckResult(name, "pass")
    order = (teacher.order_over(i for i, c in enumerate(cc.concepts) if c)
             if exclude_empty else teacher.order)
    if order > order_bound:
        return CheckResult(name, "fail", f"order {order} exceeds bound {order_bound}")
    return CheckResult(name, "pass", f"order {order} <= {order_bound}")


def _optional_teacher(name, cc, build, ctx, **bound):
    """The teacher check of ``build(ctx)``, or SKIP with the reason when
    the graph is outside the teacher's precondition."""
    try:
        teacher = build(ctx)
    except TeacherPreconditionError as exc:
        return CheckResult(name, "na", str(exc))
    return _teacher_result(name, cc, teacher, **bound)


def _plan_result(kind, ctx, cc, rt):
    """The peeling plan's teacher verifies, and its order is rtd."""
    name = f"{kind}-plan-teacher"
    plan, (ok, cx) = ctx.plan(cc)
    if not ok:
        return _not_preferred(name, cx)
    if plan.order != rt.rtd:
        return CheckResult(name, "fail", f"order {plan.order} != rtd {rt.rtd}")
    return CheckResult(name, "pass")


def _star_checks(ctx: GraphContext):
    g, cc = ctx.g, ctx.star
    delta = g.max_degree()
    rt = ctx.rtd(cc)
    v, witness = ctx.vcd(cc)
    yield _chain_result("star-chain", delta, rt.rtd, v)

    predicted, _ = ctx.fringe_cover
    yield _result("star-char-vs-brute", predicted == v,
                  f"predicted {predicted}, brute {v}")
    yield _result("star-open-neighborhoods-shattered",
                  all(is_shattered(cc, g.adj[x]) for x in range(g.n)))
    wmask = mask_of(witness)
    yield _result("star-witness-in-closed-neighborhood",
                  any(not wmask & ~g.closed_mask(x) for x in range(g.n)),
                  f"witness {sorted(witness)}")

    yield from _class_checks(ctx, cc, rt, v)
    yield _teacher_result(
        "star-subset-teacher", cc, star_subset_teacher(ctx), delta + 1)
    yield _optional_teacher("star-special-teacher", cc, star_special_teacher,
                            ctx, order_bound=delta)
    yield _plan_result("star", ctx, cc, rt)


def check_star_graph(ctx: GraphContext) -> list[CheckResult]:
    return list(_star_checks(ctx))


def _con_checks(ctx: GraphContext, include_empty: bool):
    g, cc, ell = ctx.g, ctx.con(include_empty), ctx.ell
    rt = ctx.rtd(cc)
    v = ctx.vcd(cc)[0]
    yield _chain_result(
        f"con-chain(empty={'yes' if include_empty else 'no'})", ell, rt.rtd, v)

    cc_other = ctx.con(not include_empty)
    other = (ctx.rtd(cc_other).rtd, ctx.vcd(cc_other)[0])
    cc_full = ctx.con(True)
    rt_full, v_full = ctx.rtd(cc_full), ctx.vcd(cc_full)[0]
    yield CheckResult(
        "con-empty-policy", "pass",
        f"(rtd,vcd) this policy ({rt.rtd},{v}), other policy {other}")

    comps = components(g)
    connected = len(comps) == 1
    # the oracle's cap bounds each component, not the graph
    largest = max(map(int.bit_count, comps))
    if largest <= MAX_SPANNING_TREE_VERTICES:
        oracle = max_leaf_number_exhaustive(g)
        # the two forms diverge exactly when every component has at most
        # two vertices and at least one edge exists: a lone edge has two
        # degree-1 vertices but no interior vertex, so its neighborhood
        # value is 1 while its spanning tree counts 2 leaves
        lone = g.m >= 1 and largest <= 2
        yield _result("ell-oracle", (ell, oracle) == (1, 2) if lone else ell == oracle,
                      ("documented single-edge divergence: " if lone else "")
                      + f"neighborhood {ell}, spanning-tree {oracle}")
    else:
        yield CheckResult(
            "ell-oracle", "na",
            f"spanning-tree oracle capped at {MAX_SPANNING_TREE_VERTICES} "
            f"vertices, largest component has {largest}")

    # one pass over the connected sets, in enumeration order, serves both
    # opponent checks; every opponent is a connected set, so its boundary
    # is in the table too; the opponents of X are the components of
    # V - N[X], read once per distinct remainder
    comp_of = {x: c for c in comps for x in bits(c)}
    boundary = ctx.boundaries
    opponents = {}
    detail = ""  # the last failure in enumeration order
    strict_ok = True
    for xmask, xopen in boundary.items():
        xcomp = comp_of[(xmask & -xmask).bit_length() - 1]
        full = v_full == ell and xopen.bit_count() == ell
        rest = g.full_mask & ~(xmask | xopen)
        ys = opponents.get(rest)
        if ys is None:
            ys = opponents[rest] = components(g, rest)
        for ymask in ys:
            yopen = boundary[ymask]
            if yopen & ~xopen:
                detail = (f"boundary of {sorted(set_of(ymask))} escapes "
                          f"X={sorted(set_of(xmask))}")
            if ymask & ~xcomp and yopen:
                detail = (f"cross-component opponent "
                          f"{sorted(set_of(ymask))} has a boundary")
            if full and (yopen & ~xopen or yopen == xopen):
                strict_ok = False
    yield _result("con-opponent-boundaries", not detail, detail)

    if connected:
        wit = leaf_tree_condition(ctx)
        yield _result(
            "con-leaf-tree-vs-vcd", (wit is not None) == (v_full == ell + 1),
            f"witness {'found' if wit else 'none'}, vcd(with empty) {v_full}, ell {ell}")
    else:
        max_r = max_v = 0
        for comp in comps:
            sub = GraphContext(spanned_subgraph(g, comp)[0], ctx.budget)
            sub_cc = sub.con(True)
            max_r = max(max_r, sub.rtd(sub_cc).rtd)
            max_v = max(max_v, sub.vcd(sub_cc)[0])
        yield _result("con-components-vcd", v_full == max_v,
                      f"union {v_full}, components max {max_v}")
        yield _result("con-components-rtd", max_r <= rt_full.rtd <= max_r + 1,
                      f"{max_r} <= {rt_full.rtd} <= {max_r + 1}")

    if v_full == ell:
        yield _result("con-opponent-strictness", strict_ok)

    yield from _class_checks(ctx, cc, rt, v)
    yield _teacher_result("con-superset-teacher", cc_full,
                          con_superset_teacher(ctx), ell + 1, exclude_empty=True)
    if connected and g.m == g.n - 1:
        leaf_count = sum(g.degree(x) == 1 for x in range(g.n)) if g.n > 1 else 1
        yield _teacher_result(
            "con-tree-teacher", cc_full, con_tree_teacher(ctx), leaf_count)
    yield _optional_teacher("con-vcd-matching-teacher", cc_full,
                            con_vcd_matching_teacher, ctx, order_bound=ell,
                            exclude_empty=True)
    yield _plan_result("con", ctx, cc, rt)


def check_con_graph(ctx: GraphContext, include_empty: bool = False
                    ) -> list[CheckResult]:
    return list(_con_checks(ctx, include_empty))


def check_graph(g: Graph, kind: str, include_empty: bool = False, *,
                budget: int = DEFAULT_ENUM_BUDGET):
    """Run every check of one kind; ``budget`` caps each enumeration and
    teaching-set search and raises BudgetExceededError when hit."""
    if kind == "star":
        return check_star_graph(GraphContext(g, budget))
    if kind == "con":
        return check_con_graph(GraphContext(g, budget), include_empty)
    raise ValueError(f"unknown kind {kind!r}")
