import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    empty_preference,
    pair_closure,
    powerset_class,
    verify_smgk_teacher,
    version_space,
)
from teachdim.concepts import ConceptClass
from teachdim.connected import build_con_class, con_superset_teacher
from teachdim.context import GraphContext
from teachdim.dimensions import _teaching_sets, _Work, rtd
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

    @staticmethod
    def brute_closed(below):
        return all(below[j] & ~below[i] == 0
                   for i in range(len(below)) for j in bits(below[i]))

    def assert_check_matches_definition(self, below):
        if self.brute_closed(below):
            assert PreferenceRelation(len(below), tuple(below)).below == tuple(below)
        else:
            with pytest.raises(ValueError, match="transitively closed"):
                PreferenceRelation(len(below), tuple(below))

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=300, deadline=None)
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
        self.assert_check_matches_definition(below)

    def test_closure_check_on_every_small_relation(self):
        # every irreflexive relation on up to 4 concepts
        for size in range(1, 5):
            choices = [[mask for mask in range(1 << size) if not mask >> i & 1]
                       for i in range(size)]
            for below in itertools.product(*choices):
                self.assert_check_matches_definition(list(below))

    @pytest.mark.parametrize("kind", ["star", "con"])
    def test_pool_relations_with_one_pair_dropped(self, kind):
        """The subset and superset orders of the verify benchmark's graph
        pool stay closed; dropping a pair that a third concept lies
        between must be rejected, and every dropped pair is judged as the
        definition judges it."""
        rng = random.Random(41)
        for n in (6, 7, 8):
            for p in (0.3, 0.5, 0.7):
                for index in (0, 1):
                    g = random_graph(n, p, 2025, index=index)
                    cc = (build_star_class(g) if kind == "star"
                          else build_con_class(g, False))
                    for pref in (subset_preferences(cc), superset_preferences(cc)):
                        below = pref.below
                        self.assert_check_matches_definition(list(below))
                        pairs = [(i, j) for i in range(len(below))
                                 for j in bits(below[i])]
                        between = [(i, j) for i, j in pairs
                                   if any(below[k] >> j & 1 for k in bits(below[i]))]
                        assert between
                        for i, j in rng.sample(between, min(5, len(between))):
                            dropped = list(below)
                            dropped[i] ^= 1 << j
                            with pytest.raises(ValueError, match="transitively closed"):
                                PreferenceRelation(len(below), tuple(dropped))
                        for i, j in rng.sample(pairs, min(5, len(pairs))):
                            dropped = list(below)
                            dropped[i] ^= 1 << j
                            self.assert_check_matches_definition(dropped)


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
            full = frozenset(range(cc.domain_size))
            teacher = PBTeacher(cc, (full,) * len(cc),
                                empty_preference(len(cc)))
            ok, cx = verify_pb_teacher(cc, teacher)
            assert ok and cx is None

    def test_broken_teacher_reports_first_counterexample(self):
        cc = powerset_class(2)
        sets = [frozenset()] * len(cc)
        teacher = PBTeacher(cc, tuple(sets), empty_preference(len(cc)))
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
        teacher = PBTeacher(cc, (frozenset(), frozenset({0})),
                            empty_preference(2))
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
            sets = tuple(set_of(rng.getrandbits(d) & rng.getrandbits(d))
                         for _ in range(m))
            pref = rng.choice([
                empty_preference(m), subset_preferences(cc),
                superset_preferences(cc),
                PreferenceRelation.from_direct(
                    rng.getrandbits(m) >> (i + 1) << (i + 1) for i in range(m)),
            ])
            teacher = PBTeacher(cc, sets, pref)
            want = (True, None)
            for i in range(m):
                bad = [j for j in version_space(cc, teacher.sample_for(i))
                       if j != i and not pref.is_preferred(i, j)]
                if bad:
                    want = (False, (i, bad[0]))
                    break
            assert verify_pb_teacher(cc, teacher) == want
            failing += not want[0]
        assert failing > 150

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
            size, found = next(_teaching_sets(cc, active, mask_of(level), _Work()))
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
        empty_preference(4),
    )
    assert teacher.order == 2
    assert teacher.order_over([0, 1]) == 1
