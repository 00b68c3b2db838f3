import collections
import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    empty_preference,
    pair_closure,
    perfbench_workloads,
    plain_teaching_sets,
    powerset_class,
    sample_of,
    reference_mask_check,
    reference_verify_pb_teacher,
    shared_parts_corpus,
    understated_certificate,
    verify_smgk_teacher,
    version_space,
)
from teacher_digest import digest
from teachdim import checks, context
from teachdim.checks import check_graph
from teachdim.cli import TEACHERS
from teachdim.concepts import ConceptClass
from teachdim.connected import build_con_class, con_superset_teacher
from teachdim.context import GraphContext
from teachdim.dimensions import rtd, td_of
from teachdim.errors import PreferenceCycleError, TeacherPreconditionError
from teachdim.families import cycle_graph, fig2, path_graph, random_graph
from teachdim.graphs import bits, mask_of, set_of
from teachdim.stars import build_star_class
from teachdim.teaching import (
    PBTeacher,
    PreferenceRelation,
    format_teacher,
    lex_refine,
    plan_to_teacher,
    subset_preferences,
    superset_preferences,
    verify_pb_teacher,
)

# what `PYTHONPATH=src python tests/teacher_digest.py` prints; the previous
# pin (309856c5...) differed only in the reason of the `ell-oracle` SKIP
# line, which named the graph's vertex count ("graph has 9") where it now
# names the largest component's; the pin before it (6c87b5a0...) lacked
# only that SKIP line, which C_9's and P_8's con checks report above the
# oracle's 8-vertex cap, and the pin before that (72f88755...) differed
# only in P_2's con-vcd-matching `below`, before that teacher's preference
# became the pair rules' closure
TEACHER_DIGEST = "251d4eff6d1c96fda8d3678fd3df7a46431fee983ba36702d46b3b3fd11612a5"


class TestPreferenceRelation:
    def test_subset_preferences_powerset2(self):
        cc = powerset_class(2)
        pref = subset_preferences(cc)
        empty = cc.index_of(frozenset())
        for j in range(1, 4):
            assert pref.is_preferred(empty, j)
        a, b = cc.index_of({0}), cc.index_of({1})
        assert not pref.is_preferred(a, b) and not pref.is_preferred(b, a)

    def test_antichain_has_empty_relation(self):
        cc = ConceptClass.from_masks(3, [0b011, 0b101, 0b110])
        assert subset_preferences(cc).pair_count() == 0

    def test_chain_closure_has_three_pairs(self):
        cc = ConceptClass.from_masks(2, [0b00, 0b01, 0b11])
        pref = subset_preferences(cc)
        assert pref.pair_count() == 3
        assert pref.is_preferred(0, 2)  # transitivity

    def test_superset_is_reverse(self):
        cc = powerset_class(2)
        sub, sup = subset_preferences(cc), superset_preferences(cc)
        for i in range(4):
            for j in range(4):
                assert sub.is_preferred(i, j) == sup.is_preferred(j, i)

    def test_cycle_rejected(self):
        with pytest.raises(PreferenceCycleError):
            PreferenceRelation.from_direct([0b010, 0b100, 0b001])
        with pytest.raises(PreferenceCycleError):
            PreferenceRelation.from_direct([0b01, 0b00])  # a self-loop
        with pytest.raises(ValueError, match="out of range"):
            PreferenceRelation.from_direct([0b100, 0b00])

    def test_depths(self):
        # most preferred concept has the longest chain strictly below it
        cc = ConceptClass.from_masks(2, [0b00, 0b01, 0b11])
        assert subset_preferences(cc).depths == (2, 1, 0)

    def test_depths_of_a_long_chain(self):
        # deeper than the interpreter's recursion limit
        cc = ConceptClass(1100, tuple((1 << k) - 1 for k in range(1101)))
        pref = subset_preferences(cc)
        assert pref.depths == tuple(range(1100, -1, -1))
        # concept k directly over concept k + 1 only
        direct = [1 << k + 1 for k in range(1100)] + [0]
        assert PreferenceRelation.from_direct(direct).below == pref.below

    @staticmethod
    def acyclic_direct(size, data):
        """Direct masks of an acyclic relation along a drawn order of the
        indices, so edges run both ways in index order; from 4 concepts
        on, the first four in that order form a chain 3 deep."""
        order = data.draw(st.permutations(range(size)))
        direct = [0] * size
        later = 0
        for i in reversed(order):
            direct[i] = data.draw(st.integers(0, (1 << size) - 1)) & later
            later |= 1 << i
        for a, b in zip(order, order[1:4]):
            direct[a] |= 1 << b
        return direct

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=50, deadline=None)
    def test_from_direct_closure_is_transitive(self, size, data):
        pref = PreferenceRelation.from_direct(self.acyclic_direct(size, data))
        assert max(pref.depths) >= min(size - 1, 3)
        for i in range(size):
            for j in range(size):
                if pref.is_preferred(i, j):
                    for k in range(size):
                        if pref.is_preferred(j, k):
                            assert pref.is_preferred(i, k)
                    assert not pref.is_preferred(j, i)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            PreferenceRelation(3, (0, 0b01))

    @pytest.mark.parametrize("mask", [-1, -4, 0b1000, 0b1010])
    def test_mask_out_of_range_rejected(self, mask):
        with pytest.raises(ValueError, match="out of range"):
            PreferenceRelation(3, (0, mask, 0))

    def test_self_loop_rejected(self):
        with pytest.raises(PreferenceCycleError, match="concept 1 below itself"):
            PreferenceRelation(3, (0, 0b011, 0))

    @staticmethod
    def builder_relations(ctx):
        """(builder, relation) for every preference relation the library
        builds on ctx's graph: both containment orders and the plan
        teacher's level order on the star class and both connected-set
        classes, and the star-special and con-vcd-matching teachers'
        relations where they apply."""
        for cc in (ctx.star, ctx.con(False), ctx.con(True)):
            yield "subset", subset_preferences(cc)
            yield "superset", superset_preferences(cc)
            yield "plan", plan_to_teacher(ctx.rtd(cc), cc).preference
        for name in ("star-special", "con-vcd-matching"):
            try:
                yield name, TEACHERS[name][0](ctx).preference
            except TeacherPreconditionError:
                pass

    def test_every_builder_relation_is_closed(self, family_graphs, random200):
        """The constructor does not check transitive closure: every
        builder's ``below`` equals ``helpers.pair_closure`` of its own
        pairs, on the family graphs, the verify benchmark's graph pool,
        the shared-parts corpus and random200's graphs with at most 7
        vertices (its 8- and 9-vertex graphs hold 7.2 M of its 7.8 M
        pairs)."""
        graphs = [g for _, g in family_graphs]
        graphs += [g for _, g in random200 if g.n <= 7]
        graphs += [random_graph(n, p, 2025, i) for n in (6, 7, 8)
                   for p in (0.3, 0.5, 0.7) for i in range(2)]
        graphs += list(shared_parts_corpus())
        built = collections.Counter()
        for g in graphs:
            for name, pref in self.builder_relations(GraphContext(g)):
                pairs = [(i, j) for i in range(pref.size) for j in bits(pref.below[i])]
                assert pref.below == pair_closure(pref.size, pairs), (name, g.edges())
                # a chain three deep, where closure adds a pair
                built[name] += max(pref.depths, default=0) >= 2
        assert min(built.values()) > 0 and len(built) == 5, built

    @pytest.mark.parametrize("kind", ["star", "con"])
    def test_pool_relations_with_one_pair_dropped(self, kind):
        """The subset and superset orders, the peeling plan's preference
        and, for connected sets, the matching teacher's preference of the
        verify benchmark's graph pool, each with one pair dropped, go
        through ``from_direct``: a pair that a third concept lies between
        comes back, and every dropped relation closes as
        ``helpers.pair_closure`` closes it."""
        rng = random.Random(41)
        for n in (6, 7, 8):
            for p in (0.3, 0.5, 0.7):
                for index in (0, 1):
                    g = random_graph(n, p, 2025, index=index)
                    cc = (build_star_class(g) if kind == "star"
                          else build_con_class(g, False))
                    prefs = [subset_preferences(cc), superset_preferences(cc),
                             plan_to_teacher(rtd(cc), cc).preference]
                    if kind == "con":
                        try:
                            prefs.append(TEACHERS["con-vcd-matching"][0](
                                GraphContext(g)).preference)
                        except TeacherPreconditionError:
                            pass
                    for pref in prefs:
                        below = pref.below
                        pairs = [(i, j) for i in range(len(below))
                                 for j in bits(below[i])]
                        between = [(i, j) for i, j in pairs
                                   if any(below[k] >> j & 1 for k in bits(below[i]))]
                        assert between
                        for i, j in rng.sample(between, min(5, len(between))):
                            dropped = list(below)
                            dropped[i] ^= 1 << j
                            assert PreferenceRelation.from_direct(dropped).below == below
                        for i, j in rng.sample(pairs, min(5, len(pairs))):
                            dropped = list(below)
                            dropped[i] ^= 1 << j
                            kept = [pair for pair in pairs if pair != (i, j)]
                            assert (PreferenceRelation.from_direct(dropped).below
                                    == pair_closure(len(below), kept))


class TestLexRefine:
    def test_orders_incomparables_by_key(self):
        cc = ConceptClass.from_masks(2, [0b01, 0b10])
        pref = lex_refine(subset_preferences(cc), [5, 7])
        assert pref.is_preferred(1, 0)

    def test_keeps_existing_pairs(self):
        cc = powerset_class(2)
        pref = lex_refine(subset_preferences(cc), [0, 1, 1, 0])
        assert pref.is_preferred(0, 3)

    def test_equal_keys_stay_incomparable(self):
        cc = ConceptClass.from_masks(2, [0b01, 0b10])
        pref = lex_refine(subset_preferences(cc), [4, 4])
        assert not pref.is_preferred(0, 1) and not pref.is_preferred(1, 0)

    def test_cycle_with_base_detected(self):
        # {0} below {0,1} by superset preference, but the keys pull the
        # incomparable singleton {2} between them the other way around
        cc = ConceptClass.from_masks(3, [0b001, 0b011, 0b100])
        with pytest.raises(PreferenceCycleError):
            lex_refine(superset_preferences(cc), [2, 0, 1])

    def test_key_count_checked(self):
        cc = powerset_class(1)
        with pytest.raises(ValueError):
            lex_refine(subset_preferences(cc), [1])


class TestMasksMatchPairDefinitions:
    """The mask-built preferences against the pair-list definitions they
    replace, closed by ``helpers.pair_closure``."""

    @staticmethod
    def subset_pairs(cc):
        return [(i, j) for i, ci in enumerate(cc.concepts)
                for j, cj in enumerate(cc.concepts) if i != j and ci & cj == ci]

    @staticmethod
    def superset_pairs(cc):
        return [(i, j) for i, ci in enumerate(cc.concepts)
                for j, cj in enumerate(cc.concepts) if i != j and cj & ci == cj]

    @staticmethod
    def lex_pairs(pref, keys):
        pairs = [(i, j) for i in range(pref.size) for j in bits(pref.below[i])]
        for i in range(pref.size):
            for j in range(pref.size):
                if i != j and keys[i] > keys[j] and not pref.is_preferred(i, j) \
                        and not pref.is_preferred(j, i):
                    pairs.append((i, j))
        return pairs

    @staticmethod
    def below_or_cycle(build):
        try:
            return build()
        except PreferenceCycleError:
            return "cycle"

    @given(st.integers(0, 9), st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_classes(self, d, data):
        masks = data.draw(st.sets(st.integers(0, (1 << d) - 1), min_size=1,
                                  max_size=min(24, 1 << d)))
        cc = ConceptClass.from_masks(d, masks)
        m = len(cc)
        sub, sup = subset_preferences(cc), superset_preferences(cc)
        assert sub.below == pair_closure(m, self.subset_pairs(cc))
        assert sup.below == pair_closure(m, self.superset_pairs(cc))
        keys = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
        for base in (sub, sup):
            got = self.below_or_cycle(lambda: lex_refine(base, keys).below)
            want = self.below_or_cycle(
                lambda: pair_closure(m, self.lex_pairs(base, keys)))
            assert got == want

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=300, deadline=None)
    def test_from_direct_on_random_masks(self, size, data):
        if data.draw(st.booleans()):
            direct = [data.draw(st.integers(0, (1 << size) - 1))
                      for _ in range(size)]
        else:
            # acyclic with a chain 3 deep, sometimes with one more edge
            # that may close a cycle
            direct = TestPreferenceRelation.acyclic_direct(size, data)
            if data.draw(st.booleans()):
                direct[data.draw(st.integers(0, size - 1))] |= \
                    1 << data.draw(st.integers(0, size - 1))
        pairs = [(i, j) for i in range(size) for j in bits(direct[i])]
        got = self.below_or_cycle(
            lambda: PreferenceRelation.from_direct(direct).below)
        assert got == self.below_or_cycle(lambda: pair_closure(size, pairs))


class TestVerifier:
    def test_full_domain_sets_always_valid(self):
        for cc in (powerset_class(3), build_star_class(cycle_graph(5))):
            full = (1 << cc.domain_size) - 1
            teacher = PBTeacher(cc, (full,) * len(cc),
                                empty_preference(len(cc)))
            ok, cx = verify_pb_teacher(cc, teacher)
            assert ok and cx is None

    def test_broken_teacher_reports_first_counterexample(self):
        cc = powerset_class(2)
        masks = [0] * len(cc)
        teacher = PBTeacher(cc, tuple(masks), empty_preference(len(cc)))
        ok, cx = verify_pb_teacher(cc, teacher)
        assert not ok
        assert cx == (0, 1)

    def test_superset_teacher_on_path(self):
        g = path_graph(4)
        teacher = con_superset_teacher(GraphContext(g))
        ok, cx = verify_pb_teacher(teacher.concept_class, teacher)
        assert ok, cx

    def test_class_mismatch_rejected(self):
        cc = powerset_class(1)
        other = powerset_class(2)
        teacher = PBTeacher(cc, (0, 0b1), empty_preference(2))
        with pytest.raises(ValueError):
            verify_pb_teacher(other, teacher)

    def test_matches_version_space_reference_on_random_teachers(self):
        """The verifier's mask walk against the version spaces of the
        teachers' Samples, on random and mostly failing teachers: the
        first concept whose version space holds a concept other than
        itself that it is not preferred over, and the first such one."""
        rng = random.Random(13)
        failing = 0
        for _ in range(300):
            d = rng.randint(1, 8)
            cc = ConceptClass.from_masks(
                d, rng.sample(range(1 << d), rng.randint(1, min(40, 1 << d))))
            m = len(cc)
            masks = tuple(rng.getrandbits(d) & rng.getrandbits(d)
                          for _ in range(m))
            pref = rng.choice([
                empty_preference(m), subset_preferences(cc),
                superset_preferences(cc),
                PreferenceRelation.from_direct(
                    rng.getrandbits(m) >> (i + 1) << (i + 1) for i in range(m)),
            ])
            teacher = PBTeacher(cc, masks, pref)
            want = (True, None)
            for i in range(m):
                bad = [j for j in version_space(cc, sample_of(cc.concepts[i], masks[i]))
                       if j != i and not pref.is_preferred(i, j)]
                if bad:
                    want = (False, (i, bad[0]))
                    break
            assert verify_pb_teacher(cc, teacher) == want
            failing += not want[0]
        assert failing > 150

    def test_violation_on_a_high_block(self):
        """Every sample lies on instances 9 and 10, in the third block of
        four, and the labels there differ from those on instance 1: a
        table read from the wrong block, or with unshifted labels, gives
        another answer (or an assertion)."""
        a, b, c = 0b10, 0b10 | 1 << 9, 0b10 | 1 << 10
        cc = ConceptClass.from_masks(12, [a, b, c])
        assert cc.concepts == (a, b, c)
        # a: 9-, 10- -> {a}; b: 10- -> {a, b}, b over a; c: 9- -> {a, c}
        # with nothing below c, the only violation
        teacher = PBTeacher(cc, (1 << 9 | 1 << 10, 1 << 10, 1 << 9),
                            PreferenceRelation(3, (0, 0b001, 0)))
        assert verify_pb_teacher(cc, teacher) == (False, (2, 0))
        fixed = PBTeacher(cc, teacher.teaching_masks,
                          PreferenceRelation(3, (0, 0b001, 0b001)))
        assert verify_pb_teacher(cc, fixed) == (True, None)

    def test_smgk_variant(self):
        cc = powerset_class(2)
        assert verify_smgk_teacher(cc, [0b11] * 4)
        assert not verify_smgk_teacher(cc, [0, 0b11, 0b11, 0b11])

    def test_matches_the_reference_on_check_graph_teachers(
            self, monkeypatch, family_graphs):
        """The verifier reads each version space only outside below[i];
        ``helpers.reference_verify_pb_teacher`` reads it over the whole
        class.  They give the same (ok, counterexample) on every teacher
        ``check_graph`` builds for the star class and the connected-set
        class with and without the empty set, on the verify benchmark's
        graph pool and the family graphs, and on three mutants: each
        teacher with one pair of its preference dropped (one that no
        third concept lies between, closed again by ``from_direct``),
        each with one teaching set losing its lowest instance, and the
        plan teacher of a certificate whose top-level witnesses lose
        their highest instance (the RTD - 1 mutant of test_mutants)."""
        W = perfbench_workloads()
        graphs = [random_graph(n, p, W.Verify.POOL_SEED, i) for n, p, i in W.Verify.POOL]
        graphs += [g for _, g in family_graphs]
        rng = random.Random(32)
        outcomes = collections.Counter()
        mode = "built"

        def compare(label, cc, teacher):
            got = verify_pb_teacher(cc, teacher)
            assert got == reference_verify_pb_teacher(cc, teacher), label
            outcomes[label, got[0]] += 1
            return got

        def checked(cc, teacher):
            got = compare(mode, cc, teacher)
            below = teacher.preference.below
            ranked = [i for i, mask in enumerate(below) if mask]
            if ranked:
                i = rng.choice(ranked)
                covered = 0
                for k in bits(below[i]):
                    covered |= below[k]
                j = rng.choice(list(bits(below[i] & ~covered)))
                dropped = list(below)
                dropped[i] ^= 1 << j
                pref = PreferenceRelation.from_direct(dropped)
                assert not pref.is_preferred(i, j)
                compare("pair dropped", cc, dataclasses.replace(teacher, preference=pref))
            shown = [i for i, ts in enumerate(teacher.teaching_masks) if ts]
            if shown:
                i = rng.choice(shown)
                masks = list(teacher.teaching_masks)
                masks[i] &= masks[i] - 1
                compare("set trimmed", cc,
                        dataclasses.replace(teacher, teaching_masks=tuple(masks)))
            return got

        # the plan teacher is verified where GraphContext.plan builds it
        monkeypatch.setattr(checks, "verify_pb_teacher", checked)
        monkeypatch.setattr(context, "verify_pb_teacher", checked)
        real_rtd = GraphContext.rtd
        for g in graphs:
            for kind, include_empty in (("star", False), ("con", False), ("con", True)):
                mode = "built"
                list(check_graph(g, kind, include_empty))
                mode = "witnesses trimmed"
                with monkeypatch.context() as patched:
                    patched.setattr(GraphContext, "rtd", lambda self, cc:
                                    understated_certificate(real_rtd(self, cc)))
                    list(check_graph(g, kind, include_empty))
        # every built teacher verifies, every trimmed plan teacher fails,
        # and the other mutants go both ways
        assert outcomes["built", True] > 300 and outcomes["built", False] == 0
        assert outcomes["witnesses trimmed", False] == 3 * len(graphs)
        for label in ("pair dropped", "set trimmed"):
            assert min(outcomes[label, True], outcomes[label, False]) > 50, outcomes


def test_sample_tables_are_built_once_per_class(monkeypatch):
    """rtd, every td_of row, plan_to_teacher and verify_pb_teacher all
    read one build of the class's sample tables."""
    builds = collections.Counter()
    prop = ConceptClass.__dict__["sample_tables"]
    build = prop.func

    def counted(cc):
        builds[cc.concepts] += 1
        return build(cc)

    monkeypatch.setattr(prop, "func", counted)
    classes = [build_star_class(fig2()), build_con_class(cycle_graph(7), True)]
    for cc in classes:
        cert = rtd(cc)
        for i in range(len(cc)):
            td_of(cc, i)
        assert verify_pb_teacher(cc, plan_to_teacher(cert, cc)) == (True, None)
    assert list(builds.values()) == [1, 1]


class TestPlanToTeacher:
    @pytest.mark.parametrize("cc", [
        powerset_class(3),
        build_star_class(cycle_graph(4)),
        build_con_class(fig2(), True),
        build_con_class(path_graph(5), False),
    ], ids=("powerset3", "star-c4", "con-fig2", "con-p5"))
    def test_valid_with_order_equal_rtd(self, cc):
        cert = rtd(cc)
        teacher = plan_to_teacher(cert, cc)
        ok, cx = verify_pb_teacher(cc, teacher)
        assert ok, cx
        assert teacher.order == cert.rtd

    def test_preference_follows_peel_levels(self):
        cc = build_star_class(cycle_graph(4))
        cert = rtd(cc)
        teacher = plan_to_teacher(cert, cc)
        level_of = {i: k for k, (lv, _) in enumerate(cert.levels) for i in lv}
        for i in range(len(cc)):
            for j in range(len(cc)):
                if level_of[i] > level_of[j]:
                    assert teacher.preference.is_preferred(i, j)

    @pytest.mark.parametrize("cc", [
        powerset_class(3),
        build_star_class(cycle_graph(5)),
        build_con_class(fig2(), True),
        build_con_class(path_graph(6), False),
    ], ids=("powerset3", "star-c5", "con-fig2", "con-p6"))
    def test_preference_is_closure_of_level_pairs(self, cc):
        cert = rtd(cc)
        level_of = {i: k for k, (lv, _) in enumerate(cert.levels) for i in lv}
        direct = [sum(1 << j for j in range(len(cc)) if level_of[i] > level_of[j])
                  for i in range(len(cc))]
        want = PreferenceRelation.from_direct(direct)
        got = plan_to_teacher(cert, cc).preference
        assert got.below == want.below
        assert got.depths == want.depths
        assert got.pair_count() == want.pair_count()

    def test_size_mismatch_rejected(self):
        cert = rtd(powerset_class(2))
        with pytest.raises(ValueError):
            plan_to_teacher(cert, powerset_class(3))

    @staticmethod
    def recomputed_plan(cert, cc):
        """Teaching sets and below masks from a fresh plain teaching-set
        walk per level against the residual class."""
        sets = [None] * len(cc)
        below = [0] * len(cc)
        peeled = 0
        for level, value in cert.levels:
            active = cc.all_indices_mask & ~peeled
            size, found = next(plain_teaching_sets(cc, active, mask_of(level)))
            assert size == value and set(found) == level
            for i, witness in found.items():
                sets[i] = set_of(witness)
                below[i] = peeled
            peeled |= mask_of(level)
        return tuple(sets), tuple(below)

    def test_matches_recomputed_teaching_sets(self):
        rng = random.Random(4)
        classes = [powerset_class(3), build_star_class(cycle_graph(6)),
                   build_con_class(fig2(), True),
                   build_con_class(random_graph(8, 0.4, 5), False),
                   build_star_class(random_graph(8, 0.5, 2))]
        for _ in range(40):
            d = rng.randint(1, 8)
            classes.append(ConceptClass.from_masks(
                d, rng.sample(range(1 << d), rng.randint(1, min(40, 1 << d)))))
        for cc in classes:
            cert = rtd(cc)
            teacher = plan_to_teacher(cert, cc)
            sets, below = self.recomputed_plan(cert, cc)
            assert teacher.teaching_sets == sets
            assert teacher.preference.below == below

    def test_tampered_witness_rejected(self):
        """A witness that does not teach still builds a teacher, and the
        verifier rejects it at the tampered concept, naming the first
        concept still active at its level that survives its sample."""
        cc = build_con_class(fig2(), True)
        cert = rtd(cc)
        # the first concept with a same-size mask that leaves another
        # concept of its residual class consistent with its sample
        active = cc.all_indices_mask
        tamper = None
        for level, value in cert.levels:
            for i in sorted(level):
                tamper = tamper or next(
                    ((i, w, survivors) for w in range(1 << cc.domain_size)
                     if w.bit_count() == value
                     for survivors in [[j for j in bits(active) if j != i
                                        and not (cc.concepts[i] ^ cc.concepts[j]) & w]]
                     if survivors), None)
            active &= ~mask_of(level)
        i, bad, survivors = tamper
        witnesses = list(cert.witnesses)
        witnesses[i] = bad
        teacher = plan_to_teacher(dataclasses.replace(cert, witnesses=tuple(witnesses)), cc)
        assert teacher.teaching_masks[i] == bad
        assert verify_pb_teacher(cc, teacher) == (False, (i, survivors[0]))
        # same size, but one instance outside the domain
        w = cert.witnesses[i]
        witnesses[i] = w & (w - 1) | 1 << cc.domain_size
        with pytest.raises(ValueError, match="outside the domain"):
            plan_to_teacher(dataclasses.replace(cert, witnesses=tuple(witnesses)), cc)


def test_format_teacher_lines():
    cc = powerset_class(2)
    cert = rtd(cc)
    text = format_teacher(plan_to_teacher(cert, cc))
    lines = text.strip().split("\n")
    assert len(lines) == 4
    assert lines[0].split("\t")[0] == "00"
    assert all("level=" in ln for ln in lines)


def test_order_statistics():
    cc = powerset_class(2)
    teacher = PBTeacher(
        cc,
        (0, 0b01, 0b11, 0b10),
        empty_preference(4),
    )
    assert teacher.order == 2
    assert teacher.order_over([0, 1]) == 1


class TestTeachingMasks:
    def test_sets_view_matches_masks_for_every_cli_teacher(
            self, family_graphs, random200):
        """All seven CLI teachers, on the family graphs and random200: the
        frozenset view is each mask's instances, in concept order."""
        built = 0
        for name, g in family_graphs + random200:
            ctx = GraphContext(g)
            for teacher_name, (builder, _) in TEACHERS.items():
                try:
                    teacher = builder(ctx)
                except (TeacherPreconditionError, ValueError):
                    continue
                built += 1
                masks = teacher.teaching_masks
                assert all(isinstance(ts, int) for ts in masks)
                assert teacher.teaching_sets == tuple(set_of(ts) for ts in masks), \
                    (name, teacher_name)
        assert built > 1000

    @pytest.mark.parametrize("mask, lowest", [(-1, 3), (-16, 4), (0b1000, 3),
                                              (0b110101, 4)])
    def test_masks_outside_the_domain_rejected(self, mask, lowest):
        """One negative mask, or one with an instance past the domain,
        first, in the middle or last, raises the ValueError of
        ``helpers.reference_mask_check``'s loop."""
        cc = powerset_class(3)
        for at in (0, 3, len(cc) - 1):
            masks = [0b101] * len(cc)
            masks[at] = mask
            with pytest.raises(ValueError) as fault:
                PBTeacher(cc, tuple(masks), empty_preference(len(cc)))
            with pytest.raises(ValueError) as reference:
                reference_mask_check(cc.domain_size, masks)
            assert (type(fault.value), str(fault.value)) \
                == (type(reference.value), str(reference.value)) \
                == (ValueError, f"instance {lowest} outside the domain")

    @given(st.integers(0, 5), st.data())
    @settings(max_examples=300, deadline=None)
    def test_whole_sequence_check_accepts_what_the_loop_accepts(self, d, data):
        """Whatever the teaching masks, the teacher raises what the
        one-at-a-time loop raises, and accepts exactly what it accepts."""
        cc = powerset_class(d)
        m = len(cc)
        masks = data.draw(st.lists(st.integers(0, (1 << d) - 1),
                                   min_size=m, max_size=m))
        for at, mask in data.draw(st.lists(st.tuples(
                st.integers(0, m - 1), st.integers(-(1 << d + 2), 1 << d + 2)),
                max_size=2)):
            masks[at] = mask
        try:
            reference_mask_check(d, masks)
            want = None
        except ValueError as exc:
            want = str(exc)
        try:
            PBTeacher(cc, tuple(masks), empty_preference(m))
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want

    def test_plan_and_verify_build_no_frozensets(self):
        """The peel workload's path, plan teacher then verifier, reads
        the masks only: the frozenset view is never built."""
        W = perfbench_workloads()
        for label, make, kind, include_empty in W.PEEL_INPUTS:
            cc = W.build_class(make(), kind, include_empty)
            teacher = plan_to_teacher(rtd(cc), cc)
            assert verify_pb_teacher(cc, teacher) == (True, None), label
            assert "teaching_sets" not in vars(teacher), label


def test_teacher_digest_is_pinned():
    """Every CLI teacher and check on the digest's 68 graphs answers as
    the pinned digest says (see tests/teacher_digest.py)."""
    assert digest() == TEACHER_DIGEST
