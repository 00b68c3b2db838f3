import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pair_closure
from teachdim.concepts import ConceptClass, powerset_class
from teachdim.connected import build_con_class, con_superset_teacher
from teachdim.dimensions import TD_SIZE_CAP, _teaching_sets, rtd
from teachdim.errors import PreferenceCycleError
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
    verify_smgk_teacher,
)


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
        assert subset_preferences(cc).depths == tuple(range(1100, -1, -1))

    @staticmethod
    def acyclic_direct(size, data):
        """Direct masks whose edges all run from a lower to a higher index."""
        return [data.draw(st.integers(0, (1 << size) - 1)) >> (i + 1) << (i + 1)
                for i in range(size)]

    @given(st.integers(2, 7), st.data())
    @settings(max_examples=50, deadline=None)
    def test_from_direct_closure_is_transitive(self, size, data):
        pref = PreferenceRelation.from_direct(self.acyclic_direct(size, data))
        for i in range(size):
            for j in range(size):
                if pref.is_preferred(i, j):
                    for k in range(size):
                        if pref.is_preferred(j, k):
                            assert pref.is_preferred(i, k)
                    assert not pref.is_preferred(j, i)

    @staticmethod
    def brute_closed(below):
        return all(below[j] & ~below[i] == 0
                   for i in range(len(below)) for j in bits(below[i]))

    @given(st.integers(1, 7), st.data())
    @settings(max_examples=200, deadline=None)
    def test_closure_check_matches_definition(self, size, data):
        if data.draw(st.booleans()):
            # closed: the closure of an acyclic relation, sometimes with one
            # bit dropped
            direct = self.acyclic_direct(size, data)
            below = list(PreferenceRelation.from_direct(direct).below)
            if any(below) and data.draw(st.booleans()):
                i = data.draw(st.sampled_from([i for i in range(size) if below[i]]))
                below[i] &= ~(1 << data.draw(st.sampled_from(list(bits(below[i])))))
        else:
            below = [data.draw(st.integers(0, (1 << size) - 1)) & ~(1 << i)
                     for i in range(size)]
        if self.brute_closed(below):
            assert PreferenceRelation(size, tuple(below)).below == tuple(below)
        else:
            with pytest.raises(ValueError, match="transitively closed"):
                PreferenceRelation(size, tuple(below))


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

    @given(st.integers(0, 6), st.data())
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

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=300, deadline=None)
    def test_from_direct_on_random_masks(self, size, data):
        direct = [data.draw(st.integers(0, (1 << size) - 1)) for _ in range(size)]
        pairs = [(i, j) for i in range(size) for j in bits(direct[i])]
        got = self.below_or_cycle(
            lambda: PreferenceRelation.from_direct(direct).below)
        assert got == self.below_or_cycle(lambda: pair_closure(size, pairs))


class TestVerifier:
    def test_full_domain_sets_always_valid(self):
        for cc in (powerset_class(3), build_star_class(cycle_graph(5))):
            full = frozenset(range(cc.domain_size))
            teacher = PBTeacher(cc, (full,) * len(cc),
                                PreferenceRelation.empty(len(cc)))
            ok, cx = verify_pb_teacher(cc, teacher)
            assert ok and cx is None

    def test_broken_teacher_reports_first_counterexample(self):
        cc = powerset_class(2)
        sets = [frozenset()] * len(cc)
        teacher = PBTeacher(cc, tuple(sets), PreferenceRelation.empty(len(cc)))
        ok, cx = verify_pb_teacher(cc, teacher)
        assert not ok
        assert cx == (0, 1)

    def test_superset_teacher_on_path(self):
        g = path_graph(4)
        teacher = con_superset_teacher(g)
        ok, cx = verify_pb_teacher(teacher.concept_class, teacher)
        assert ok, cx

    def test_class_mismatch_rejected(self):
        cc = powerset_class(1)
        other = powerset_class(2)
        teacher = PBTeacher(cc, (frozenset(), frozenset({0})),
                            PreferenceRelation.empty(2))
        with pytest.raises(ValueError):
            verify_pb_teacher(other, teacher)

    def test_smgk_variant(self):
        cc = powerset_class(2)
        assert verify_smgk_teacher(cc, [{0, 1}] * 4)
        assert not verify_smgk_teacher(cc, [set(), {0, 1}, {0, 1}, {0, 1}])


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
        """Teaching sets and below masks from a fresh teaching-set search
        per level against the residual class."""
        sets = [None] * len(cc)
        below = [0] * len(cc)
        peeled = 0
        for level, value in cert.levels:
            active = cc.all_indices_mask & ~peeled
            size, found = next(_teaching_sets(cc, active, mask_of(level), TD_SIZE_CAP))
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
        cc = build_con_class(fig2(), True)
        cert = rtd(cc)
        # the first concept with a same-size mask that leaves another
        # concept of its residual class consistent with its sample
        active = cc.all_indices_mask
        tamper = None
        for level, value in cert.levels:
            for i in sorted(level):
                tamper = tamper or next(
                    ((i, w) for w in range(1 << cc.domain_size)
                     if w.bit_count() == value and not all(
                         (cc.concepts[i] ^ cc.concepts[j]) & w
                         for j in bits(active) if j != i)), None)
            active &= ~mask_of(level)
        i, bad = tamper
        witnesses = list(cert.witnesses)
        witnesses[i] = bad
        with pytest.raises(ValueError, match=f"concept {i} "):
            plan_to_teacher(dataclasses.replace(cert, witnesses=tuple(witnesses)), cc)
        # same size, but one instance outside the domain
        w = cert.witnesses[i]
        witnesses[i] = w & (w - 1) | 1 << cc.domain_size
        with pytest.raises(ValueError):
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
        (frozenset(), frozenset({0}), frozenset({0, 1}), frozenset({1})),
        PreferenceRelation.empty(4),
    )
    assert teacher.order == 2
    assert teacher.order_over([0, 1]) == 1
