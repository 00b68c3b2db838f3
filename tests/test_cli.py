import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import teachdim
from helpers import (
    lowest_instance_certificate,
    powerset_class,
    understated_certificate,
    write_class,
    write_graph,
)
from teachdim.checks import CheckResult, check_graph
from teachdim.cli import EXIT_BROKEN_PIPE, main
from teachdim.families import FamilySpec, cycle_graph, fig2, path_graph


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

    def test_eq6_passes_the_seeded_subclasses(self, monkeypatch):
        """The full branch asks for the TD_min of every nonempty subclass
        mask in increasing order.  The sampled branch takes the subclasses
        that random.Random(EQ6_SEED) draws, in draw order, as index
        masks; the real certificate settles every one of them, so no walk
        and no exact TD_min is asked for.  With witnesses that mostly do
        not teach, "TD_min <= rtd" is asked at k = rtd of exactly the
        samples whose first-peeled member's witness leaves a rival in the
        sample, in draw order."""
        import random

        import teachdim.checks as checks
        from teachdim.concepts import version_space_mask
        from teachdim.connected import build_con_class
        from teachdim.dimensions import rtd
        from teachdim.graphs import mask_of
        from teachdim.stars import build_star_class

        exact, bounded = [], []
        real_exact = checks.rtd_subclass_lower_bound
        real_bounded = checks.td_min_at_most

        def spy_exact(cc, subclass, **kw):
            exact.append(subclass)
            return real_exact(cc, subclass, **kw)

        def spy_bounded(cc, sub, k, **kw):
            bounded.append((sub, k))
            return real_bounded(cc, sub, k, **kw)

        monkeypatch.setattr(checks, "rtd_subclass_lower_bound", spy_exact)
        monkeypatch.setattr(checks, "td_min_at_most", spy_bounded)
        small = build_con_class(path_graph(3), False)
        assert len(small) <= checks.EQ6_FULL_LIMIT
        assert checks._eq6_check(small, rtd(small)).status == "pass"
        assert exact == list(range(1, 1 << len(small)))
        assert bounded == []

        exact.clear()
        big = build_star_class(fig2())
        m = len(big)
        rt = rtd(big)
        assert m > checks.EQ6_FULL_LIMIT
        assert checks._eq6_check(big, rt).status == "pass"
        assert bounded == exact == []

        rng = random.Random(checks.EQ6_SEED)
        want = []
        for _ in range(checks.EQ6_SAMPLES):
            size = rng.randint(1, m)
            want.append(sum(1 << i for i in rng.sample(range(m), size)))
        scrambled = lowest_instance_certificate(rt)
        unsettled = []
        for sub in want:
            level = next(mask_of(lv) & sub for lv, _ in rt.levels
                         if mask_of(lv) & sub)
            i = (level & -level).bit_length() - 1
            c, w = big.concepts[i], scrambled.witnesses[i]
            if version_space_mask(big, c & w, w & ~c) & sub != 1 << i:
                unsettled.append(sub)
        assert 0 < len(unsettled) < len(want)
        assert checks._eq6_check(big, scrambled).status == "pass"
        assert bounded == [(sub, rt.rtd) for sub in unsettled]
        assert exact == []
        with pytest.raises(ValueError, match="does not match class size"):
            checks._eq6_check(big, rtd(small))

    def test_eq6_table_equals_a_fresh_draw(self):
        import random

        import teachdim.checks as checks

        for m in range(checks.EQ6_FULL_LIMIT + 1, 301):
            rng = random.Random(checks.EQ6_SEED)
            want = []
            for _ in range(checks.EQ6_SAMPLES):
                size = rng.randint(1, m)
                want.append(sum(1 << i for i in rng.sample(range(m), size)))
            assert checks._eq6_samples(m) == tuple(want), m

    def test_eq6_draws_once_per_class_size(self, monkeypatch):
        """A second class of the same size reuses the first one's draws:
        no random.Random is made and nothing is drawn."""
        import random

        import teachdim.checks as checks
        from teachdim.dimensions import rtd
        from teachdim.graphs import graph_from_edges
        from teachdim.stars import build_star_class

        made = []

        class Counted(random.Random):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(random, "Random", Counted)
        checks._eq6_samples.cache_clear()
        g = fig2()
        first = build_star_class(g)
        # g with its vertices renumbered backwards: the same number of
        # concepts, other masks
        second = build_star_class(graph_from_edges(
            g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges()]))
        assert len(first) == len(second) > checks.EQ6_FULL_LIMIT
        assert first != second
        assert checks._eq6_check(first, rtd(first)).status == "pass"
        assert made == [(checks.EQ6_SEED,)]
        made.clear()
        assert checks._eq6_check(second, rtd(second)).status == "pass"
        assert made == []
        assert checks._eq6_samples.cache_info().hits == 1

    def test_eq6_fails_on_the_first_subclass_over_rtd(self, monkeypatch):
        """A walk that rejects the 37th sampled subclass it is asked about
        fails the check there, with the sampled branch's message and the
        exact TD_min that the kernel gives for that subclass alone.  The
        witnesses are the lowest instances of their level's size, so that
        most samples reach the walk."""
        import teachdim.checks as checks
        from teachdim.dimensions import rtd
        from teachdim.stars import build_star_class

        big = build_star_class(fig2())
        rt = lowest_instance_certificate(rtd(big))
        r = rt.rtd
        calls, exact = [], []
        real = checks.td_min_at_most

        def spy(cc, sub, k, **kw):
            calls.append(sub)
            return False if len(calls) == 37 else real(cc, sub, k, **kw)

        def kernel(cc, subclass, **kw):
            exact.append(subclass)
            return r + 1

        monkeypatch.setattr(checks, "td_min_at_most", spy)
        monkeypatch.setattr(checks, "rtd_subclass_lower_bound", kernel)
        res = checks._eq6_check(big, rt)
        assert res == checks.CheckResult(
            "eq6-subclass-bound", "fail",
            f"sampled subclass has TD_min {r + 1} > rtd {r}")
        samples = checks._eq6_samples(len(big))
        assert len(calls) == 37
        assert calls == [sub for sub in samples if sub in calls]
        assert exact == [calls[-1]]
        # only the samples their witnesses leave open are walked, so the
        # 37th walk comes after the 37th draw
        assert samples.index(calls[-1]) > 36

    def test_eq6_sampled_branch_matches_exact_td_min_of_every_sample(
            self, monkeypatch, family_graphs):
        """On every class past EQ6_FULL_LIMIT of the benchmark's verify
        pool and the family graphs, the sampled branch gives the
        CheckResult of a loop that computes the exact TD_min of each
        sample with the kernel: at rtd with the real certificate, and at
        rtd - 1 with a certificate that claims one too few; where it
        fails, it fails at that loop's first failing sample."""
        import teachdim.checks as checks
        from teachdim.context import GraphContext
        from teachdim.dimensions import rtd_subclass_lower_bound
        from teachdim.families import random_graph

        def by_exact_td_min(cc, r):
            for sub in checks._eq6_samples(len(cc)):
                tdm = rtd_subclass_lower_bound(cc, sub)
                if tdm > r:
                    return sub, checks.CheckResult(
                        "eq6-subclass-bound", "fail",
                        f"sampled subclass has TD_min {tdm} > rtd {r}")
            return None, checks.CheckResult(
                "eq6-subclass-bound", "pass",
                f"{checks.EQ6_SAMPLES} sampled subclasses (seed {checks.EQ6_SEED})")

        asked = []

        def spy(cc, subclass, **kw):
            asked.append(subclass)
            return rtd_subclass_lower_bound(cc, subclass, **kw)

        monkeypatch.setattr(checks, "rtd_subclass_lower_bound", spy)
        graphs = [random_graph(n, p, 2025, i) for n in (6, 7, 8)
                  for p in (0.3, 0.5, 0.7) for i in range(2)]
        graphs += [g for _, g in family_graphs]
        classes = failures = 0
        for g in graphs:
            ctx = GraphContext(g)
            for cc in (ctx.star, ctx.con(False), ctx.con(True)):
                if len(cc) <= checks.EQ6_FULL_LIMIT:
                    continue
                classes += 1
                rt = ctx.rtd(cc)
                for cert in (understated_certificate(rt), rt):
                    asked.clear()
                    first, want = by_exact_td_min(cc, cert.rtd)
                    assert checks._eq6_check(cc, cert) == want
                    assert asked == ([] if first is None else [first])
                    failures += first is not None
        # 99 classes, 47 of which have a sample with TD_min = rtd
        assert classes >= 90 and failures >= 40

    def test_eq6_calls_no_walk_on_the_verify_pool(self, monkeypatch):
        """On the benchmark's verify pool, the certificate's witnesses
        settle every sampled subclass: check_graph runs no walk."""
        import teachdim.checks as checks
        from teachdim.families import random_graph

        walks = []
        real = checks.td_min_at_most

        def spy(cc, sub, k, **kw):
            walks.append(sub)
            return real(cc, sub, k, **kw)

        monkeypatch.setattr(checks, "td_min_at_most", spy)
        sampled = 0
        for n in (6, 7, 8):
            for p in (0.3, 0.5, 0.7):
                for i in range(2):
                    g = random_graph(n, p, 2025, i)
                    for kind, include_empty in (("star", False), ("con", False),
                                                ("con", True)):
                        results = check_graph(g, kind, include_empty)
                        assert not any(r.failed for r in results)
                        sampled += any(r.name == "eq6-subclass-bound"
                                       and "sampled" in r.detail for r in results)
        assert sampled >= 40
        assert walks == []

    def test_eq6_computes_each_witness_space_once(self, monkeypatch):
        """On every sampled class of the benchmark's verify pool, the
        sampled branch asks for the version space of exactly the distinct
        first-peeled members' witnesses, each once, and so for fewer than
        one per sample."""
        from collections import Counter

        import teachdim.checks as checks
        from teachdim.context import GraphContext
        from teachdim.families import random_graph
        from teachdim.graphs import mask_of

        calls = []
        real = checks.version_space_mask

        def spy(cc, pos, neg):
            calls.append((pos, neg))
            return real(cc, pos, neg)

        monkeypatch.setattr(checks, "version_space_mask", spy)
        classes = 0
        for n in (6, 7, 8):
            for p in (0.3, 0.5, 0.7):
                for i in range(2):
                    ctx = GraphContext(random_graph(n, p, 2025, i))
                    for cc in (ctx.star, ctx.con(False), ctx.con(True)):
                        if len(cc) <= checks.EQ6_FULL_LIMIT:
                            continue
                        classes += 1
                        rt = ctx.rtd(cc)
                        members = set()
                        for sub in checks._eq6_samples(len(cc)):
                            level = next(mask_of(lv) & sub
                                         for lv, _ in rt.levels
                                         if mask_of(lv) & sub)
                            members.add((level & -level).bit_length() - 1)
                        calls.clear()
                        assert checks._eq6_check(cc, rt).status == "pass"
                        want = Counter()
                        for j in members:
                            c, w = cc.concepts[j], rt.witnesses[j]
                            want[c & w, w & ~c] += 1
                        assert Counter(calls) == want
                        assert len(calls) == len(members) < checks.EQ6_SAMPLES
        assert classes >= 30

    def test_eq6_certificate_agrees_with_the_walk_alone(self, family_graphs):
        """With witnesses that mostly do not teach, or that lie outside
        the domain, at rtd and at a claimed rtd - 1, the sampled branch
        gives exactly the CheckResult of a loop that asks the walk of
        every sample."""
        import dataclasses

        import teachdim.checks as checks
        from teachdim.context import GraphContext
        from teachdim.dimensions import rtd_subclass_lower_bound, td_min_at_most
        from teachdim.families import random_graph

        def by_walk(cc, r):
            for sub in checks._eq6_samples(len(cc)):
                if not td_min_at_most(cc, sub, r):
                    tdm = rtd_subclass_lower_bound(cc, sub)
                    return checks.CheckResult(
                        "eq6-subclass-bound", "fail",
                        f"sampled subclass has TD_min {tdm} > rtd {r}")
            return checks.CheckResult(
                "eq6-subclass-bound", "pass",
                f"{checks.EQ6_SAMPLES} sampled subclasses (seed {checks.EQ6_SEED})")

        graphs = [random_graph(n, p, 2025, i) for n in (6, 7, 8)
                  for p in (0.3, 0.5, 0.7) for i in range(2)]
        graphs += [g for _, g in family_graphs]
        verdicts = []
        for g in graphs:
            ctx = GraphContext(g)
            for cc in (ctx.star, ctx.con(False), ctx.con(True)):
                if len(cc) <= checks.EQ6_FULL_LIMIT:
                    continue
                rt = ctx.rtd(cc)
                for cert in (rt, understated_certificate(rt)):
                    cert = lowest_instance_certificate(cert)
                    outside = dataclasses.replace(cert, witnesses=tuple(
                        w << cc.domain_size for w in cert.witnesses))
                    want = by_walk(cc, cert.rtd)
                    assert checks._eq6_check(cc, cert) == want
                    assert checks._eq6_check(cc, outside) == want
                    verdicts.append(want.status)
        assert "pass" in verdicts and "fail" in verdicts

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
