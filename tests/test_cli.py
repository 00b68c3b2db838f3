import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import teachdim
from helpers import powerset_class, write_class, write_graph
from teachdim.checks import check_graph
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

    def test_verify_k2_pins_the_divergence(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "complete",
                               "--n", "2", "--kind", "con")
        assert code == 0
        assert "documented single-edge divergence" in out

    def test_verify_exits_nonzero_on_violation(self, capsys, monkeypatch):
        import teachdim.cli as cli_mod
        from teachdim.checks import CheckResult

        monkeypatch.setattr(
            cli_mod, "check_graph",
            lambda g, kind, include_empty=False, budget=None: [
                CheckResult("forced", "fail", "injected")])
        code, out, _ = run_cli(capsys, "verify", "--family", "fig2",
                               "--kind", "con")
        assert code == 1
        assert "FAIL\tfig2\tforced" in out

    def test_budget_flag(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--family", "fig2",
                                 "--kind", "con", "--budget", "5")
        assert code == 3
        assert "budget exceeded" in err and "PASS" not in out

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
        # while the searches need fewer than 500 walk nodes, so the search
        # budget comes from TEACHDIM_BUDGET on a class file
        from teachdim.connected import build_con_class
        from teachdim.families import random_graph

        path = tmp_path / "class.txt"
        write_class(build_con_class(random_graph(11, 0.35, 3), False), path)
        monkeypatch.setenv("TEACHDIM_BUDGET", "100")
        code, out, err = run_cli(capsys, "dims", "--class-file", str(path))
        assert (code, out) == (3, "")
        assert err == ("budget exceeded: teaching-set search (rtd): budget of "
                       "100 exceeded at k=5, with 1046 concepts still without "
                       "a teaching set, after 101 walk nodes\n")

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
    ], ids=("unknown-vertex", "negative-index", "teach-two-graphs",
            "dims-two-graphs", "dims-without-kind", "cycle-too-small",
            "size-not-a-number", "open-range", "random-without-p"))
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
        """ell is read once, from the class without the empty set that the
        checks build under either policy."""
        import teachdim.context as context
        from teachdim.connected import build_con_class

        calls = []
        real = context.max_open_neighborhood

        def counted(g, masks):
            masks = tuple(masks)
            calls.append(masks)
            return real(g, masks)

        monkeypatch.setattr(context, "max_open_neighborhood", counted)
        for g in (fig2(), path_graph(3)):
            for include_empty in (False, True):
                calls.clear()
                check_graph(g, "con", include_empty)
                assert calls == [build_con_class(g, False).concepts]

    def test_eq6_passes_the_seeded_subclasses(self, monkeypatch):
        """The full branch asks for every nonempty subclass mask in
        increasing order; the sampled branch asks for exactly the
        subclasses that random.Random(EQ6_SEED) draws, in draw order,
        as index masks."""
        import random

        import teachdim.checks as checks
        from teachdim.connected import build_con_class
        from teachdim.dimensions import rtd
        from teachdim.stars import build_star_class

        seen = []
        real = checks.rtd_subclass_lower_bound

        def spy(cc, subclass, **kw):
            seen.append(subclass)
            return real(cc, subclass, **kw)

        monkeypatch.setattr(checks, "rtd_subclass_lower_bound", spy)
        small = build_con_class(path_graph(3), False)
        assert len(small) <= checks.EQ6_FULL_LIMIT
        assert checks._eq6_check(small, rtd(small).rtd).status == "pass"
        assert seen == list(range(1, 1 << len(small)))

        seen.clear()
        big = build_star_class(fig2())
        m = len(big)
        assert m > checks.EQ6_FULL_LIMIT
        assert checks._eq6_check(big, rtd(big).rtd).status == "pass"
        rng = random.Random(checks.EQ6_SEED)
        want = []
        for _ in range(checks.EQ6_SAMPLES):
            size = rng.randint(1, m)
            want.append(sum(1 << i for i in rng.sample(range(m), size)))
        assert seen == want

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
        assert checks._eq6_check(first, rtd(first).rtd).status == "pass"
        assert made == [(checks.EQ6_SEED,)]
        made.clear()
        assert checks._eq6_check(second, rtd(second).rtd).status == "pass"
        assert made == []
        assert checks._eq6_samples.cache_info().hits == 1

    def test_eq6_fails_on_the_first_subclass_over_rtd(self, monkeypatch):
        """A kernel that reports rtd + 1 on the 37th sampled subclass
        fails the check there, with the sampled branch's message."""
        import teachdim.checks as checks
        from teachdim.dimensions import rtd
        from teachdim.stars import build_star_class

        big = build_star_class(fig2())
        r = rtd(big).rtd
        calls = []
        real = checks.rtd_subclass_lower_bound

        def spy(cc, subclass, **kw):
            calls.append(subclass)
            return r + 1 if len(calls) == 37 else real(cc, subclass, **kw)

        monkeypatch.setattr(checks, "rtd_subclass_lower_bound", spy)
        res = checks._eq6_check(big, r)
        assert res == checks.CheckResult(
            "eq6-subclass-bound", "fail",
            f"sampled subclass has TD_min {r + 1} > rtd {r}")
        assert calls == list(checks._eq6_samples(len(big))[:37])

    def test_opponent_failure_names_the_last_set_in_enumeration_order(
            self, monkeypatch):
        """With bogus opponents injected for several sets, the detail names
        the one that the connected-set enumeration meets last, whatever
        order the checks visit the sets in."""
        import teachdim.checks as checks
        from teachdim.connected import OpponentSet
        from teachdim.graphs import connected_set_masks, set_of

        g = fig2()
        order = [x for x in connected_set_masks(g) if x.bit_count() >= 2]
        last_by_mask = max(order)
        bad = {order[5], order[len(order) // 2], last_by_mask}
        last = [x for x in order if x in bad][-1]
        assert last != last_by_mask
        real = checks.maximal_opponents

        def spy(graph, x):
            res = real(graph, x)
            if x not in bad:
                return res
            # the lowest vertex of X has a neighbor inside X, so its
            # boundary escapes X's
            low = frozenset({(x & -x).bit_length() - 1})
            return OpponentSet(res.x, res.opponents + (low,))

        monkeypatch.setattr(checks, "maximal_opponents", spy)
        for include_empty in (False, True):
            res = {r.name: r for r in check_graph(g, "con", include_empty)}
            low = (last & -last).bit_length() - 1
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
