import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import teachdim
from helpers import (
    eq6_brute_force,
    last_top_active,
    lowest_instance_certificate,
    overstated_certificate,
    perfbench_workloads,
    powerset_class,
    understated_certificate,
    write_class,
    write_graph,
)
from teachdim.checks import CheckResult, check_graph
from teachdim.cli import EXIT_BROKEN_PIPE, main
from teachdim.families import FamilySpec, cycle_graph, fig2, path_graph, random_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFamilySpec:
    def test_range_graphs(self):
        spec = FamilySpec("path", 2, 4)
        assert [name for name, _ in spec.graphs()] == ["P_2", "P_3", "P_4"]
        assert [g.n for _, g in spec.graphs()] == [3, 4, 5]

    def test_random_requires_seed_and_p(self):
        with pytest.raises(ValueError):
            FamilySpec("random", 4, 6, p=0.5)
        with pytest.raises(ValueError):
            FamilySpec("random", 4, 6, seed=1, p=1.5)

    def test_random_reproducible(self):
        a = FamilySpec("random", 5, 7, p=0.4, seed=9).graphs()
        b = FamilySpec("random", 5, 7, p=0.4, seed=9).graphs()
        assert [g for _, g in a] == [g for _, g in b]

    def test_size_caps(self):
        with pytest.raises(ValueError):
            FamilySpec("complete", 1, 30)
        with pytest.raises(ValueError):
            FamilySpec("nonsense", 1, 2)


class TestTriples:
    def test_cycle4_star_row(self, capsys):
        code, out, _ = run_cli(capsys, "triples", "--family", "cycle",
                               "--n", "4", "--kind", "star")
        assert code == 0
        row = out.strip().split("\n")[-1].split("\t")
        assert row == ["C_4", "4", "4", "2", "3", "3", "param<RTD"]

    def test_fig2_con_row(self, capsys):
        code, out, _ = run_cli(capsys, "triples", "--family", "fig2",
                               "--kind", "con")
        assert "fig2\t7\t10\t4\t4\t5\tRTD<VCD" in out

    def test_path_rows_json(self, capsys):
        code, out, _ = run_cli(capsys, "triples", "--family", "path",
                               "--n", "2..5", "--kind", "con",
                               "--format", "json")
        payload = json.loads(out)
        assert [r["param"] for r in payload["rows"]] == [2, 2, 2, 2]
        assert all(r["rtd"] == r["vcd"] == 2 for r in payload["rows"])

    def test_deterministic_output(self, capsys):
        args = ("triples", "--family", "random", "--n", "5..7",
                "--p", "0.5", "--seed", "42", "--kind", "star")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_cycles_past_the_size_cap(self, capsys):
        # C_13 onwards hold a concept whose teaching set exceeds the cap,
        # but no peeling level does
        code, out, _ = run_cli(capsys, "triples", "--family", "cycle",
                               "--n", "3..16", "--kind", "con")
        assert code == 0
        assert "C_16\t16\t16\t2\t3\t3\tparam<RTD" in out

    def test_seed_echoed_in_header(self, capsys):
        _, out, _ = run_cli(capsys, "triples", "--family", "random",
                            "--n", "5", "--p", "0.3", "--seed", "7",
                            "--kind", "star")
        assert "seed=7" in out.split("\n")[0]


class TestVerifyCommand:
    def test_verify_fig2_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "fig2",
                               "--kind", "con")
        assert code == 0
        assert "FAIL" not in out
        assert "con-leaf-tree-vs-vcd" in out

    def test_verify_reports_the_oracle_cap_as_skip(self, capsys):
        """Above MAX_SPANNING_TREE_VERTICES the ell-oracle check is
        reported as not applicable, with its reason, not left out."""
        from teachdim.graphs import MAX_SPANNING_TREE_VERTICES as cap

        res = {r.name: r for r in check_graph(cycle_graph(cap + 1), "con")}
        assert res["ell-oracle"] == CheckResult(
            "ell-oracle", "na",
            f"spanning-tree oracle capped at {cap} vertices, "
            f"largest component has {cap + 1}")
        for n, mark in ((cap, "PASS"), (cap + 1, "SKIP")):
            code, out, _ = run_cli(capsys, "verify", "--family", "cycle",
                                   "--n", str(n), "--kind", "con")
            assert code == 0
            lines = [ln for ln in out.splitlines() if "\tell-oracle\t" in ln]
            assert len(lines) == 1 and lines[0].startswith(f"{mark}\tC_{n}\t")

    def test_oracle_cap_reads_the_largest_component(self):
        """The cap bounds each component, not the whole graph: two
        disjoint 5-cycles are checked, a 9-cycle beside a vertex is not."""
        from teachdim.graphs import graph_from_edges

        c5 = [(i, (i + 1) % 5) for i in range(5)]
        twice = graph_from_edges(10, c5 + [(u + 5, v + 5) for u, v in c5])
        res = {r.name: r for r in check_graph(twice, "con")}
        assert res["ell-oracle"] == CheckResult(
            "ell-oracle", "pass", "neighborhood 2, spanning-tree 2")
        c9 = graph_from_edges(10, [(i, (i + 1) % 9) for i in range(9)])
        res = {r.name: r for r in check_graph(c9, "con")}
        assert res["ell-oracle"] == CheckResult(
            "ell-oracle", "na",
            "spanning-tree oracle capped at 8 vertices, largest component has 9")

    def test_verify_k2_pins_the_divergence(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "complete",
                               "--n", "2", "--kind", "con")
        assert code == 0
        assert "documented single-edge divergence" in out

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_verify_exits_nonzero_on_violation(self, capsys, monkeypatch, fmt):
        import teachdim.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "check_graph",
            lambda g, kind, include_empty=False, budget=None: [
                CheckResult("passed", "pass"),
                CheckResult("forced", "fail", "injected")])
        code, out, _ = run_cli(capsys, "verify", "--family", "fig2",
                               "--kind", "con", "--format", fmt)
        assert code == 1
        if fmt == "tsv":
            assert "FAIL\tfig2\tforced\tinjected" in out
        else:
            assert json.loads(out)["graphs"][0]["checks"][1] == {
                "check": "forced", "status": "fail", "detail": "injected"}

    def test_budget_flag(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--family", "fig2",
                                 "--kind", "con", "--budget", "5")
        assert code == 3
        assert "budget exceeded" in err and "PASS" not in out

    def test_budget_bounds_the_leaf_tree_search(self, capsys):
        """The leaf-tree witness search runs under --budget like every
        other search: 60 covers the 45 connected sets of an 8-edge path
        but not its 84 candidate sets."""
        code, out, err = run_cli(capsys, "verify", "--family", "path",
                                 "--n", "8", "--kind", "con", "--budget", "60")
        assert (code, out) == (3, "")
        assert err == ("budget exceeded: leaf-tree witness search: "
                       "budget of 60 exceeded\n")

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("TEACHDIM_BUDGET", "5")
        code, _, err = run_cli(capsys, "verify", "--family", "fig2",
                               "--kind", "star")
        assert code == 3
        assert "budget exceeded" in err

    def test_verify_star_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "cycle",
                               "--n", "5", "--kind", "star",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        names = {c["check"] for c in payload["graphs"][0]["checks"]}
        assert "star-char-vs-brute" in names
        assert all(c["status"] != "fail"
                   for c in payload["graphs"][0]["checks"])


class TestTeachCommand:
    def test_explains_superset_teaching_set(self, capsys):
        code, out, _ = run_cli(capsys, "teach", "--family", "fig2",
                               "--teacher", "con-superset",
                               "--concept", "b,d")
        assert code == 0
        assert "teaching set: a- b+ e- f- g-" in out
        assert "unique most preferred" in out

    def test_precondition_failure_is_loud(self, capsys):
        code, _, err = run_cli(capsys, "teach", "--family", "fig2",
                               "--teacher", "con-vcd-matching",
                               "--concept", "a")
        assert code == 2
        assert "unavailable" in err

    def test_unknown_concept(self, capsys):
        code, _, err = run_cli(capsys, "teach", "--family", "cycle",
                               "--n", "4", "--teacher", "star-subset",
                               "--concept", "0,2")
        assert code == 2
        assert "not a concept" in err

    @pytest.mark.parametrize("teacher", ["con-plan", "con-superset"])
    def test_budget_flag(self, capsys, teacher):
        code, out, err = run_cli(capsys, "teach", "--family", "fig2",
                                 "--teacher", teacher, "--concept", "b,d",
                                 "--budget", "5")
        assert code == 3
        assert "budget exceeded" in err and out == ""

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("TEACHDIM_BUDGET", "5")
        code, _, err = run_cli(capsys, "teach", "--family", "fig2",
                               "--teacher", "star-plan", "--concept", "b,d")
        assert code == 3
        assert "budget exceeded" in err

    def test_explain_dump(self, capsys):
        code, out, _ = run_cli(capsys, "teach", "--family", "path", "--n", "2",
                               "--teacher", "con-tree", "--concept", "0,1",
                               "--explain")
        assert code == 0
        assert "full teacher dump:" in out
        assert "level=" in out

    def test_empty_teaching_set(self, capsys):
        argv = ("teach", "--family", "complete", "--n", "1",
                "--teacher", "star-special", "--concept", "0")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "teaching set: (empty)\n" in out
        code, out, _ = run_cli(capsys, *argv, "--explain")
        assert code == 0
        assert out.endswith("full teacher dump:\n1\t(empty)\tlevel=0\n")


class TestDimsCommand:
    def test_star_cycle4(self, capsys):
        code, out, _ = run_cli(capsys, "dims", "--family", "cycle", "--n", "4",
                               "--kind", "star", "--format", "json")
        payload = json.loads(out)
        assert payload["vcd"] == payload["rtd"] == 3
        assert payload["size"] == 12
        assert payload["sauer_rtd_implication"] == 3

    def test_class_file_input(self, capsys, tmp_path):
        path = tmp_path / "class.txt"
        write_class(powerset_class(3), path)
        code, out, _ = run_cli(capsys, "dims", "--class-file", str(path))
        assert code == 0
        assert "vcd: 3" in out and "rtd: 3" in out

    def test_wide_class_file(self, capsys, tmp_path):
        # all two-element subsets of 40 instances: wider than 32 bits
        rows = ["".join("1" if x in pair else "0" for x in range(40))
                for pair in itertools.combinations(range(40), 2)]
        path = tmp_path / "pairs.txt"
        path.write_text(f"{len(rows)} 40\n" + "\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "dims", "--class-file", str(path))
        assert code == 0
        assert "concepts: 780 over domain 40" in out
        assert "vcd: 2 witness [0, 1]" in out and "rtd: 2" in out

    def test_graph_file_input(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        write_graph(cycle_graph(4), path)
        code, out, _ = run_cli(capsys, "dims", "--graph-file", str(path),
                               "--kind", "con")
        assert code == 0
        assert "concepts: 13 over domain 4" in out

    def test_budget_flag(self, capsys):
        code, _, err = run_cli(capsys, "dims", "--family", "complete",
                               "--n", "6", "--kind", "con", "--budget", "5")
        assert code == 3
        assert "budget exceeded" in err

    @pytest.mark.parametrize("argv", [
        *(("--family", "cycle", "--n", str(n)) for n in range(13, 17)),
        ("--family", "path", "--n", "12", "--include-empty", "true")],
        ids=["C_13", "C_14", "C_15", "C_16", "P_12-empty"])
    def test_teaching_sets_past_twelve_instances(self, capsys, argv):
        # the whole vertex set of a cycle, and the empty set next to the 13
        # singletons of P_12, need every vertex
        code, out, err = run_cli(capsys, "dims", *argv, "--kind", "con",
                                 "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["td_max"] == payload["domain"] >= 13

    def test_teaching_set_refusal_says_how_far_it_got(self, capsys, monkeypatch,
                                                      tmp_path):
        # --budget also caps the enumeration, which needs 1,061 sets here
        # while the searches need 12 walk nodes or fewer, so the search
        # budget comes from TEACHDIM_BUDGET on a class file
        from teachdim.connected import build_con_class
        from teachdim.families import random_graph

        path = tmp_path / "class.txt"
        write_class(build_con_class(random_graph(11, 0.35, 3), False), path)
        monkeypatch.setenv("TEACHDIM_BUDGET", "10")
        code, out, err = run_cli(capsys, "dims", "--class-file", str(path))
        assert (code, out) == (3, "")
        assert err == ("budget exceeded: teaching-set search (rtd): budget of "
                       "10 exceeded at k=5, with 1036 concepts still without "
                       "a teaching set, after 11 walk nodes\n")

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("TEACHDIM_BUDGET", "5")
        code, _, err = run_cli(capsys, "dims", "--family", "complete",
                               "--n", "6", "--kind", "con")
        assert code == 3


class TestBadInput:
    """Input the CLI cannot answer for ends in one line on stderr and exit
    2, never in a traceback or in the exit code of a failed check."""

    @staticmethod
    def assert_refused(capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("teach", "--family", "fig2", "--teacher", "con-plan", "--concept", "zz"),
        ("teach", "--family", "cycle", "--n", "4", "--teacher", "star-subset",
         "--concept", "-1"),
        ("teach", "--family", "cycle", "--n", "3..4", "--teacher", "con-plan",
         "--concept", "0"),
        ("dims", "--family", "cycle", "--n", "3..4", "--kind", "star"),
        ("dims", "--family", "cycle", "--n", "4"),
        ("triples", "--family", "cycle", "--n", "2", "--kind", "con"),
        ("triples", "--family", "cycle", "--n", "x", "--kind", "con"),
        ("triples", "--family", "cycle", "--n", "3..", "--kind", "con"),
        ("verify", "--family", "random", "--n", "5", "--kind", "con"),
        ("dims", "--family", "path", "--n", "3", "--kind", "con", "--budget", "-1"),
    ], ids=("unknown-vertex", "negative-index", "teach-two-graphs",
            "dims-two-graphs", "dims-without-kind", "cycle-too-small",
            "size-not-a-number", "open-range", "random-without-p",
            "negative-budget"))
    def test_bad_flags(self, capsys, argv):
        self.assert_refused(capsys, *argv)

    @pytest.mark.parametrize("content", [None, "3 2\n0 1\nx y\n", "0 0\n"],
                             ids=("missing", "malformed", "no-vertices"))
    def test_bad_graph_file(self, capsys, tmp_path, content):
        path = tmp_path / "graph.txt"
        if content is not None:
            path.write_text(content)
        self.assert_refused(capsys, "dims", "--graph-file", str(path), "--kind", "con")
        self.assert_refused(capsys, "triples", "--graph-file", str(path),
                            "--kind", "star")
        self.assert_refused(capsys, "teach", "--graph-file", str(path),
                            "--teacher", "con-plan", "--concept", "0")

    @pytest.mark.parametrize("content", [None, ""], ids=("missing", "empty"))
    @pytest.mark.parametrize("argv", [
        ("dims", "--kind", "con"),
        ("triples", "--kind", "star"),
        ("verify", "--kind", "con"),
        ("teach", "--teacher", "con-plan", "--concept", "0"),
    ], ids=("dims", "triples", "verify", "teach"))
    def test_unreadable_graph_file_is_named(self, capsys, tmp_path, argv, content):
        path = tmp_path / "graph.txt"
        if content is not None:
            path.write_text(content)
        code, out, err = run_cli(capsys, argv[0], "--graph-file", str(path), *argv[1:])
        assert (code, out) == (2, "")
        assert err.startswith(f"cannot read {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("content", [None, "3 2\n01\n10\n", "0 3\n"],
                             ids=("missing", "malformed", "no-concepts"))
    def test_bad_class_file(self, capsys, tmp_path, content):
        path = tmp_path / "class.txt"
        if content is not None:
            path.write_text(content)
        self.assert_refused(capsys, "dims", "--class-file", str(path))

    @pytest.mark.parametrize("flags", [
        ("--family", "fig2", "--kind", "con"),
        ("--family", "fig2"),
        ("--kind", "star"),
        ("--graph-file", "GRAPH"),
        ("--n", "5"),
        ("--p", "0.5"),
        ("--seed", "3"),
        ("--include-empty", "true"),
        ("--include-empty", "false"),
        ("--budget", "1"),
    ], ids=("family-and-kind", "family", "kind", "graph-file", "n", "p",
            "seed", "include-empty-true", "include-empty-false", "budget"))
    def test_class_file_with_graph_flags(self, capsys, tmp_path, flags):
        path = tmp_path / "class.txt"
        write_class(powerset_class(1), path)
        graph = tmp_path / "k2.txt"
        graph.write_text("2 1\n0 1\n")
        flags = [str(graph) if f == "GRAPH" else f for f in flags]
        self.assert_refused(capsys, "dims", "--class-file", str(path), *flags)

    @pytest.mark.parametrize("command", ["triples", "dims"])
    def test_family_with_graph_file(self, capsys, tmp_path, command):
        path = tmp_path / "k2.txt"
        path.write_text("2 1\n0 1\n")
        self.assert_refused(capsys, command, "--family", "fig2",
                            "--graph-file", str(path), "--kind", "con")
        # naming the file family is not a conflict
        alone = run_cli(capsys, command, "--graph-file", str(path), "--kind", "con")
        named = run_cli(capsys, command, "--family", "file",
                        "--graph-file", str(path), "--kind", "con")
        assert alone == named and alone[0] == 0

    def test_bad_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("TEACHDIM_BUDGET", "lots")
        self.assert_refused(capsys, "dims", "--family", "fig2", "--kind", "con")

    def test_negative_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("TEACHDIM_BUDGET", "-3")
        self.assert_refused(capsys, "triples", "--family", "cycle", "--n", "4",
                            "--kind", "star")
        # 0 is a budget: the enumeration refuses with exit 3
        monkeypatch.setenv("TEACHDIM_BUDGET", "0")
        code, _, err = run_cli(capsys, "triples", "--family", "cycle", "--n", "4",
                               "--kind", "star")
        assert code == 3 and err.startswith("budget exceeded: ")

    @pytest.mark.parametrize("argv", [
        ("teach", "--family", "fig2", "--teacher", "con-plan", "--concept", "b",
         "--format", "json"),
        ("teach", "--family", "fig2", "--teacher", "con-plan", "--concept", "b",
         "--parallel"),
        ("dims", "--family", "fig2", "--kind", "con", "--parallel"),
        ("triples", "--family", "fig2", "--kind", "con", "--parallel"),
        ("verify", "--family", "fig2", "--kind", "con", "--parallel"),
    ], ids=("teach-format", "teach-parallel", "dims-parallel",
            "triples-parallel", "verify-parallel"))
    def test_flags_a_command_does_not_read_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestChecksDirect:
    def test_star_checks_pass_on_path(self):
        results = check_graph(path_graph(4), "star")
        assert not any(r.failed for r in results)

    def test_con_checks_pass_on_fig2(self):
        results = check_graph(fig2(), "con")
        assert not any(r.failed for r in results)
        assert any(r.name == "ell-oracle" and r.status == "pass"
                   for r in results)

    @pytest.mark.parametrize("include_empty", [False, True])
    def test_con_checks_measure_each_class_once(self, monkeypatch, include_empty):
        import teachdim.context as context
        from teachdim.graphs import graph_from_edges

        seen = []
        for name in ("rtd", "vcd"):
            real = getattr(context, name)

            def counted(cc, *args, _real=real, _name=name, **kwargs):
                seen.append((_name, cc.concepts))
                return _real(cc, *args, **kwargs)

            monkeypatch.setattr(context, name, counted)
        # components of different shapes, so no two of their classes agree
        for g in (fig2(), graph_from_edges(6, [(0, 1), (1, 2), (3, 4)])):
            seen.clear()
            results = check_graph(g, "con", include_empty=include_empty)
            assert not any(r.failed for r in results)
            assert len(seen) == len(set(seen))

    def test_con_checks_compute_ell_once(self, monkeypatch):
        """ell is read once, from the one walk over the nonempty connected
        sets that the checks make under either policy."""
        import teachdim.context as context
        from teachdim.connected import build_con_class
        from teachdim.graphs import max_leaf_number

        calls = []
        real = context.connected_set_boundaries

        def counted(g, **kwargs):
            walk = tuple(real(g, **kwargs))
            calls.append(walk)
            return iter(walk)

        monkeypatch.setattr(context, "connected_set_boundaries", counted)
        for g in (fig2(), path_graph(3)):
            for include_empty in (False, True):
                calls.clear()
                res = {r.name: r for r in check_graph(g, "con", include_empty)}
                assert len(calls) == 1
                assert sorted(x for x, _ in calls[0]) == \
                    list(build_con_class(g, False).concepts)
                ell = max(nb.bit_count() for _, nb in calls[0])
                assert ell == max_leaf_number(g)
                assert f"neighborhood {ell}," in res["ell-oracle"].detail

    def test_eq6_matches_the_brute_force_reference(self, family_graphs):
        """On every class of at most EQ6_FULL_LIMIT concepts of the family
        graphs and random_graph(n, p, 11, i), n = 3..8, p in {.3, .6, .75},
        i < 40, eq6 gives exactly the CheckResult of the reference that
        computes the TD_min of every subclass, under the real certificate.
        Under one claiming one too many or one too few it fails wherever
        the reference fails."""
        from collections import Counter

        import teachdim.checks as checks
        from teachdim.context import GraphContext

        graphs = [random_graph(n, p, 11, i) for n in range(3, 9)
                  for p in (0.3, 0.6, 0.75) for i in range(40)]
        graphs += [g for _, g in family_graphs]
        classes = {}
        for g in graphs:
            ctx = GraphContext(g)
            for cc in (ctx.star, ctx.con(False), ctx.con(True)):
                if len(cc) <= checks.EQ6_FULL_LIMIT:
                    # a class that several graphs share is checked once
                    classes.setdefault((cc.domain_size, cc.concepts),
                                       (cc, ctx.rtd(cc)))
        verdicts = Counter()
        for cc, rt in classes.values():
            assert checks._eq6_check(cc, rt) == eq6_brute_force(cc, rt.rtd)
            wrong = [overstated_certificate(rt, cc.domain_size)]
            if rt.rtd:
                wrong.append(understated_certificate(rt))
            for cert in wrong:
                want = eq6_brute_force(cc, cert.rtd).status
                got = checks._eq6_check(cc, cert).status
                assert want == "pass" or got == "fail", cc
                verdicts[cert.rtd - rt.rtd, got] += 1
        assert len(classes) >= 170
        assert verdicts[1, "fail"] >= 150 and verdicts[-1, "fail"] >= 150

    def test_eq6_upper_side_names_the_witness_that_does_not_teach(
            self, family_graphs):
        """With witnesses that are the lowest instances of their level's
        size, eq6 fails wherever the plan teacher does not verify, naming
        the verifier's counterexample pair.  Witnesses outside the domain
        fail it before any plan teacher is asked for.  GraphContext's
        plan teacher gives the verdict of the one eq6 builds itself."""
        import dataclasses
        from functools import partial

        import teachdim.checks as checks
        from teachdim.context import GraphContext
        from teachdim.teaching import plan_to_teacher, verify_pb_teacher

        def no_plan():
            raise AssertionError("plan asked for")

        outside_fails = CheckResult(
            "eq6-subclass-bound", "fail",
            "a witness has an instance outside the domain")
        failed = 0
        for _, g in family_graphs:
            ctx = GraphContext(g)
            for cc in (ctx.star, ctx.con(False), ctx.con(True)):
                rt = ctx.rtd(cc)
                assert checks._eq6_check(cc, rt, plan=partial(ctx.plan, cc)) \
                    == checks._eq6_check(cc, rt)
                lowest = lowest_instance_certificate(rt)
                ok, cx = verify_pb_teacher(cc, plan_to_teacher(lowest, cc))
                if not ok:
                    failed += 1
                    assert checks._eq6_check(cc, lowest) == CheckResult(
                        "eq6-subclass-bound", "fail",
                        f"concept {cx[0]} not preferred over {cx[1]}")
                if rt.rtd:
                    outside = dataclasses.replace(rt, witnesses=tuple(
                        w << cc.domain_size for w in rt.witnesses))
                    assert checks._eq6_check(cc, outside, plan=no_plan) \
                        == outside_fails
        assert failed >= 40

    def test_eq6_lower_side_gives_the_exact_td_min(self, monkeypatch):
        """Under a certificate claiming one too many, fig2's star class
        fails eq6 after one walk, at k = rtd, over the concepts active at
        the last level that claims rtd + 1; the detail gives their exact
        TD_min, rtd, from one rtd_subclass_lower_bound call.  A
        certificate of another class size raises."""
        import teachdim.checks as checks
        from teachdim.connected import build_con_class
        from teachdim.dimensions import rtd
        from teachdim.stars import build_star_class

        walks, exact = [], []
        real_walk = checks.td_min_at_most
        real_exact = checks.rtd_subclass_lower_bound

        def walk(cc, sub, k, **kw):
            walks.append((sub, k))
            return real_walk(cc, sub, k, **kw)

        def lower(cc, subclass, **kw):
            exact.append(subclass)
            return real_exact(cc, subclass, **kw)

        monkeypatch.setattr(checks, "td_min_at_most", walk)
        monkeypatch.setattr(checks, "rtd_subclass_lower_bound", lower)
        big = build_star_class(fig2())
        rt = rtd(big)
        r = rt.rtd
        over = overstated_certificate(rt, big.domain_size)
        assert over.rtd == r + 1 and len(big) > checks.EQ6_FULL_LIMIT
        active = last_top_active(over)
        assert checks._eq6_check(big, over) == CheckResult(
            "eq6-subclass-bound", "fail",
            f"subclass {active:#x} has TD_min {r} < rtd {r + 1}")
        assert walks == [(active, r)] and exact == [active]
        with pytest.raises(ValueError, match="does not match class size"):
            checks._eq6_check(big, rtd(build_con_class(path_graph(3), False)))

    def test_check_graph_draws_nothing_and_reads_each_remainder_once(
            self, monkeypatch, family_graphs):
        """On the benchmark's verify pool and the family graphs, every
        certificate is valid: check_graph makes no random.Random, each
        eq6 runs exactly one td_min_at_most walk, at k = rtd - 1 over the
        concepts active at the last level of value rtd (none when rtd is
        0), and no exact subclass TD_min is computed.  The opponent pass
        asks for the components of each distinct remainder V - N[X]
        once."""
        import random
        from collections import Counter

        import teachdim.checks as checks
        from teachdim.context import GraphContext

        W = perfbench_workloads()
        graphs = [random_graph(n, p, W.Verify.POOL_SEED, i)
                  for n, p, i in W.Verify.POOL]
        graphs += [g for _, g in family_graphs]
        made, walks, exact = [], [], []

        class Counted(random.Random):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        def walk(cc, sub, k, **kw):
            walks.append((cc.concepts, sub, k))
            return real_walk(cc, sub, k, **kw)

        def lower(cc, subclass, **kw):
            exact.append(subclass)
            return real_exact(cc, subclass, **kw)

        within = []

        def components(g, rest=None):
            within.append(rest)
            return real_components(g, rest)

        real_walk = checks.td_min_at_most
        real_exact = checks.rtd_subclass_lower_bound
        real_components = checks.components
        monkeypatch.setattr(random, "Random", Counted)
        monkeypatch.setattr(checks, "td_min_at_most", walk)
        monkeypatch.setattr(checks, "rtd_subclass_lower_bound", lower)
        monkeypatch.setattr(checks, "components", components)
        sizes = Counter()
        for g in graphs:
            ctx = GraphContext(g)
            remainders = {g.full_mask & ~(x | nx)
                          for x, nx in ctx.boundaries.items()}
            for kind, include_empty in (("star", False), ("con", False),
                                        ("con", True)):
                cc = ctx.star if kind == "star" else ctx.con(include_empty)
                rt = ctx.rtd(cc)
                want = [(cc.concepts, last_top_active(rt), rt.rtd - 1)] \
                    if rt.rtd else []
                walks.clear()
                within.clear()
                results = check_graph(g, kind, include_empty)
                assert not any(r.failed for r in results)
                assert walks == want
                sizes[len(cc) > checks.EQ6_FULL_LIMIT] += 1
                read = Counter(rest for rest in within if rest is not None)
                if kind == "con":
                    assert set(read) == remainders
                assert set(read.values()) <= {1}
        assert sizes[True] >= 90 and sizes[False] >= 15
        assert made == exact == []

    def test_the_degree_bound_settles_most_eq6_walks(self, monkeypatch):
        """On the verify benchmark's pool, for star and con, eq6's lower
        side makes 36 td_min_at_most calls, and the one-inclusion degree
        bound answers 26 of them with no walk node below the root: 16 on
        a subclass that is the whole cube on its free instances, 10 by
        counting neighbours.  A change that turns the bound off, or
        weakens it, fails here."""
        import teachdim.checks as checks
        import teachdim.dimensions as dimensions

        calls = []

        def walk(cc, sub, k, **kw):
            calls.append([cc, sub, None])
            return real_walk(cc, sub, k, **kw)

        def bound(cc, sub, k):
            calls[-1][2] = real_bound(cc, sub, k)
            return calls[-1][2]

        real_walk, real_bound = checks.td_min_at_most, dimensions._degrees_above
        monkeypatch.setattr(checks, "td_min_at_most", walk)
        monkeypatch.setattr(dimensions, "_degrees_above", bound)
        W = perfbench_workloads()
        for n, p, i in W.Verify.POOL:
            g = random_graph(n, p, W.Verify.POOL_SEED, i)
            for kind in ("star", "con"):
                assert not any(r.failed for r in check_graph(g, kind))
        settled = [(cc, sub) for cc, sub, said_no in calls if said_no]
        cubes = [sub for cc, sub in settled if sub.bit_count() == 2 ** sum(
            sub & col not in (0, sub) for col in cc.instance_columns)]
        assert (len(calls), len(settled), len(cubes)) == (36, 26, 16)

    def test_opponent_failure_names_the_last_set_in_enumeration_order(
            self, monkeypatch):
        """With bogus opponents injected for several sets, the detail names
        the one that the connected-set enumeration meets last, whatever
        order the checks visit the sets in."""
        import teachdim.checks as checks
        from teachdim.graphs import (
            closed_neighborhood_mask,
            connected_set_masks,
            set_of,
        )

        g = fig2()
        full = g.full_mask
        order = list(connected_set_masks(g))
        closed = {x: closed_neighborhood_mask(g, x) for x in order}
        # the opponents of X are the components outside N[X], so the spy
        # sees N[X] alone: it injects for every X whose N[X] is picked
        big = [x for x in order if x.bit_count() >= 2]
        picks = {closed[big[5]], closed[big[len(big) // 2]], closed[max(big)]}
        # the injected opponent is the lowest vertex of N[X]; it has a
        # neighbor in X that is not in N(X), so its boundary escapes X's,
        # unless X is that vertex alone
        bad = [x for x in order
               if closed[x] in picks and x != closed[x] & -closed[x]]
        last = bad[-1]
        assert last != max(bad)
        real = checks.components

        def spy(graph, within=None):
            res = real(graph, within)
            if within is None or full & ~within not in picks:
                return res
            near = full & ~within
            return res + (near & -near,)

        monkeypatch.setattr(checks, "components", spy)
        for include_empty in (False, True):
            res = {r.name: r for r in check_graph(g, "con", include_empty)}
            low = (closed[last] & -closed[last]).bit_length() - 1
            assert res["con-opponent-boundaries"] == checks.CheckResult(
                "con-opponent-boundaries", "fail",
                f"boundary of {[low]} escapes X={sorted(set_of(last))}")

    def test_con_checks_on_disconnected_graph(self):
        from teachdim.graphs import graph_from_edges

        g = graph_from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        results = check_graph(g, "con", include_empty=True)
        assert not any(r.failed for r in results)
        assert any(r.name == "con-components-vcd" for r in results)


def test_cli_import_leaves_numpy_unloaded():
    # nor concurrent.futures: the CLI starts no worker processes
    src = Path(teachdim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, teachdim.cli; "
            "sys.exit(bool({'numpy', 'concurrent.futures'} & set(sys.modules)))")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_closed_stdout_exits_cleanly():
    src = Path(teachdim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "teachdim.cli", "dims", "--family", "cycle",
         "--n", "5", "--kind", "star"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader is gone before anything is written
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert "Traceback" not in err
