"""Command-line front end: triple tables, dimension reports, teacher
explanations and per-graph verification runs.

Identical inputs (including seeds) produce byte-identical output; every
table header echoes the parameters that generated it.  ``--budget``
(or the env var TEACHDIM_BUDGET) overrides the default budget of every
enumeration and of the teaching-set searches' work; ``dims --class-file``
rejects ``--budget``, so it takes TEACHDIM_BUDGET or the default.

Exit codes: 0 success; 1 a check or a teacher's maximality failed; 2
bad input, reported in one line on stderr: bad flags or sizes, an
unreadable or empty graph or class file, an unknown vertex or concept,
more than one graph for teach/dims, dims without --kind, dims with --class-file
together with any graph or class flag (--family, --graph-file, --n,
--p, --seed, --budget, --kind or --include-empty), --family (other
than file) together with --graph-file, or an unavailable teacher; 3 a budget
was exceeded, reported in one line on stderr (a teaching-set search says
how far it got); 141 stdout was closed before all output was
written (as a shell reports a process ended by SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import graphs as G
from .checks import check_graph
from .concepts import format_concept, read_class, version_space_mask
from .connected import (
    con_superset_teacher,
    con_tree_teacher,
    con_triple,
    con_vcd_matching_teacher,
)
from .context import GraphContext
from .dimensions import rtd, sauer_bound, sauer_rtd_implication, td_of, vcd
from .errors import BudgetExceededError, TeacherPreconditionError
from .families import FAMILY_NAMES, FamilySpec
from .stars import star_special_teacher, star_subset_teacher, star_triple
from .teaching import format_teacher, plan_to_teacher


#: Exit code for a closed stdout: 128 + SIGPIPE.
EXIT_BROKEN_PIPE = 141


class InputError(Exception):
    """Input the command cannot answer for; ``main`` prints the message
    as one line on stderr and exits 2."""


def _star_plan_teacher(ctx):
    return plan_to_teacher(ctx.rtd(ctx.star), ctx.star)


def _con_plan_teacher(ctx):
    cc = ctx.con(True)
    return plan_to_teacher(ctx.rtd(cc), cc)


TEACHERS = {
    "star-subset": (star_subset_teacher, "star"),
    "star-special": (star_special_teacher, "star"),
    "star-plan": (_star_plan_teacher, "star"),
    "con-tree": (con_tree_teacher, "con"),
    "con-superset": (con_superset_teacher, "con"),
    "con-vcd-matching": (con_vcd_matching_teacher, "con"),
    "con-plan": (_con_plan_teacher, "con"),
}


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        return int(lo), int(hi if sep else lo)
    except ValueError:
        raise InputError(f"--n wants a size or a range A..B, not {text!r}") from None


def _family_graphs(args):
    """The named graphs the family flags select; a graph file that cannot
    be read is named in the error."""
    lo, hi = _parse_range(args.n) if args.n else (0, 0)
    try:
        return FamilySpec(args.family, lo, hi, p=args.p, seed=args.seed,
                          path=args.graph_file).graphs()
    except (OSError, ValueError) as exc:
        where = f"cannot read {args.graph_file}: " if args.graph_file else ""
        raise InputError(f"{where}{exc}") from exc


def _budget(args) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get("TEACHDIM_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"TEACHDIM_BUDGET is not an integer: {env!r}") from None
    return G.DEFAULT_ENUM_BUDGET


def _params_line(args, fields) -> str:
    parts = [f"{k}={getattr(args, k)}" for k in fields if getattr(args, k) is not None]
    return " ".join(parts)


def _triple_row(name, g, kind, include_empty, budget):
    if kind == "star":
        param, r, v = star_triple(g, budget=budget)
    else:
        param, r, v = con_triple(g, include_empty, budget=budget)
    strict = ["param<RTD", "RTD<VCD", "VCD<param+1"][
        [param < r, r < v, v < param + 1].index(True)
    ]
    return {"name": name, "n": g.n, "m": g.m, "param": param,
            "rtd": r, "vcd": v, "strict": strict}


def cmd_triples(args) -> int:
    budget = _budget(args)
    rows = [_triple_row(name, g, args.kind, args.include_empty, budget)
            for name, g in _family_graphs(args)]
    header = _params_line(args, ("family", "n", "p", "seed", "kind",
                                 "include_empty", "budget"))
    if args.format == "json":
        print(json.dumps({"params": header, "rows": rows}, indent=2))
    else:
        param_col = "delta" if args.kind == "star" else "ell"
        print(f"# triples {header}")
        print(f"name\tn\tm\t{param_col}\trtd\tvcd\tstrict")
        for r in rows:
            print(f"{r['name']}\t{r['n']}\t{r['m']}\t{r['param']}\t"
                  f"{r['rtd']}\t{r['vcd']}\t{r['strict']}")
    return 0


def cmd_verify(args) -> int:
    budget = _budget(args)
    reports = [(name, check_graph(g, args.kind, args.include_empty, budget=budget))
               for name, g in _family_graphs(args)]
    failed = 0
    header = _params_line(args, ("family", "n", "p", "seed", "kind",
                                 "include_empty"))
    if args.format == "json":
        payload = {
            "params": header,
            "graphs": [
                {"name": name,
                 "checks": [{"check": r.name, "status": r.status,
                             "detail": r.detail} for r in checks]}
                for name, checks in reports
            ],
        }
        failed = sum(1 for _, checks in reports for r in checks if r.failed)
        print(json.dumps(payload, indent=2))
    else:
        print(f"# verify {header}")
        for name, checks in reports:
            for r in checks:
                mark = {"pass": "PASS", "fail": "FAIL", "na": "SKIP"}[r.status]
                line = f"{mark}\t{name}\t{r.name}"
                if r.detail:
                    line += f"\t{r.detail}"
                print(line)
                if r.failed:
                    failed += 1
    return 1 if failed else 0


def _load_graph_for(args):
    graphs = _family_graphs(args)
    if len(graphs) != 1:
        raise InputError("teach/dims need exactly one graph; narrow --n")
    return graphs[0][1]


def _parse_concept(g, text: str) -> frozenset[int]:
    """Comma-separated vertex names or indices; a name wins over an equal index."""
    names = {g.vertex_name(v): v for v in range(g.n)}
    names.update((str(v), v) for v in range(g.n) if str(v) not in names)
    out = set()
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok not in names:
            raise InputError(f"{tok!r} is not a vertex of the graph")
        out.add(names[tok])
    return frozenset(out)


def cmd_teach(args) -> int:
    g = _load_graph_for(args)
    builder, kind = TEACHERS[args.teacher]
    try:
        teacher = builder(GraphContext(g, _budget(args)))
    except (TeacherPreconditionError, ValueError) as exc:
        raise InputError(f"teacher {args.teacher} unavailable: {exc}") from exc
    cc = teacher.concept_class
    concept = _parse_concept(g, args.concept)
    try:
        idx = cc.index_of(concept)
    except KeyError:
        raise InputError(
            f"{sorted(concept)} is not a concept of the {kind} class") from None
    sample = teacher.sample_for(idx)
    vs = version_space_mask(cc, sample.pos, sample.neg)
    print(f"graph: n={g.n} m={g.m}; teacher: {args.teacher}")
    print(f"concept: {g.vertex_names(cc.concepts[idx])} (index {idx})")
    toks = [f"{g.vertex_name(x)}{'+' if lab else '-'}" for x, lab in sample.pairs()]
    print(f"teaching set: {' '.join(toks) if toks else '(empty)'}")
    print("version space:")
    depths = teacher.preference.depths
    for i in G.bits(vs):
        rel = "target" if i == idx else (
            "less preferred" if teacher.preference.is_preferred(idx, i)
            else "NOT less preferred")
        print(f"  {g.vertex_names(cc.concepts[i])}\tlevel={depths[i]}\t{rel}")
    ok = not vs & ~teacher.preference.below[idx] & ~(1 << idx)
    print("maximality: " + (
        "the concept is the unique most preferred element of its version space"
        if ok else "VIOLATED"))
    if args.explain:
        print("full teacher dump:")
        print(format_teacher(teacher), end="")
    return 0 if ok else 1


def cmd_dims(args) -> int:
    budget = _budget(args)
    if args.class_file:
        ignored = [flag for flag, given in (
            ("--graph-file", args.graph_file),
            ("--family", args.family and not args.graph_file),
            ("--kind", args.kind),
            ("--n", args.n),
            ("--p", args.p is not None),
            ("--seed", args.seed is not None),
            ("--include-empty", args.include_empty is not None),
            ("--budget", args.budget is not None)) if given]
        if ignored:
            raise InputError(f"--class-file conflicts with {', '.join(ignored)}; "
                             "give the class file alone")
        try:
            cc = read_class(args.class_file)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read {args.class_file}: {exc}") from exc
        source = f"class file {args.class_file}"
    else:
        if args.kind is None:
            raise InputError("dims needs --kind when loading a graph")
        g = _load_graph_for(args)
        include_empty = bool(args.include_empty)  # not given: false
        ctx = GraphContext(g, budget)
        cc = ctx.star if args.kind == "star" else ctx.con(include_empty)
        source = f"{args.kind} class ({'with' if include_empty else 'without'} empty)"
    v, witness = vcd(cc)
    cert = rtd(cc, budget=budget)
    tds = [td_of(cc, i, budget=budget)[0] for i in range(len(cc))]
    imp = sauer_rtd_implication(cc)
    if args.format == "json":
        print(json.dumps({
            "source": source,
            "size": len(cc),
            "domain": cc.domain_size,
            "vcd": v,
            "vcd_witness": sorted(witness),
            "rtd": cert.rtd,
            "levels": [{"td": val, "concepts": sorted(lv)}
                       for lv, val in cert.levels],
            "td_min": min(tds),
            "td_max": max(tds),
            "sauer_at_vcd": sauer_bound(cc.domain_size, v),
            "sauer_at_rtd": sauer_bound(cc.domain_size, cert.rtd),
            "sauer_rtd_implication": imp,
        }, indent=2))
        return 0
    print(f"# dims {source}")
    print(f"concepts: {len(cc)} over domain {cc.domain_size}")
    print(f"vcd: {v} witness {sorted(witness)}")
    print(f"rtd: {cert.rtd}")
    for k, (lv, val) in enumerate(cert.levels):
        pats = " ".join(format_concept(cc.concepts[i], cc.domain_size)
                        for i in sorted(lv))
        print(f"  level {k}: td={val} {pats}")
    print(f"td_min: {min(tds)}  td_max: {max(tds)}")
    print(f"sauer bound at vcd: {sauer_bound(cc.domain_size, v)}; "
          f"at rtd: {sauer_bound(cc.domain_size, cert.rtd)}")
    print(f"sauer rtd implication: {imp if imp is not None else 'none'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="teachdim",
        description="Exact teaching and VC dimensions of graph-induced "
                    "concept classes (stars and connected sets).")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_graph_flags(p):
        p.add_argument("--family", choices=FAMILY_NAMES, default=None)
        p.add_argument("--n", help="size or inclusive range A..B")
        p.add_argument("--p", type=float, help="edge probability (random family)")
        p.add_argument("--seed", type=int, help="PRNG seed (random family)")
        p.add_argument("--graph-file", help="graph in text format")
        p.add_argument("--budget", type=int, default=None,
                       help="budget of every enumeration and of the "
                            "teaching-set searches' work")

    def add_class_flags(p, kind_required=True):
        p.add_argument("--kind", choices=("star", "con"), required=kind_required)
        p.add_argument("--include-empty", choices=("true", "false"),
                       default="false",
                       help="empty-set policy for connected-set classes")
        p.add_argument("--format", choices=("tsv", "json"), default="tsv")

    for name, func, help_text in (
            ("triples", cmd_triples, "parameter/RTD/VCD table"),
            ("verify", cmd_verify, "run per-graph property checks")):
        p = sub.add_parser(name, help=help_text)
        add_graph_flags(p)
        add_class_flags(p)
        p.set_defaults(func=func)

    p_teach = sub.add_parser("teach", help="explain one teaching set")
    add_graph_flags(p_teach)
    p_teach.add_argument("--teacher", choices=sorted(TEACHERS), required=True)
    p_teach.add_argument("--concept", required=True,
                         help="comma-separated vertex names or indices")
    p_teach.add_argument("--explain", action="store_true",
                         help="dump the whole teacher")
    p_teach.set_defaults(func=cmd_teach)

    p_dims = sub.add_parser("dims", help="dimension report for one class")
    add_graph_flags(p_dims)
    add_class_flags(p_dims, kind_required=False)
    p_dims.add_argument("--class-file", help="concept class in text format")
    # None tells "not given" apart, to refuse it next to --class-file
    p_dims.set_defaults(func=cmd_dims, include_empty=None)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "family", None) is None and not getattr(args, "graph_file", None) \
            and not getattr(args, "class_file", None):
        ap.error("--family, --graph-file or --class-file is required")
    if getattr(args, "include_empty", None) is not None:
        args.include_empty = args.include_empty == "true"
    try:
        if getattr(args, "graph_file", None):
            if args.family not in (None, "file"):
                raise InputError(f"--family {args.family} conflicts with "
                                 "--graph-file; give one of them")
            args.family = "file"
        code = args.func(args)
        sys.stdout.flush()
    except InputError as exc:
        print(exc, file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader went away; send what is still buffered to devnull so
        # the interpreter's final flush does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
