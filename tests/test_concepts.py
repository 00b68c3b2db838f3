import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    Sample,
    concept_set,
    disjoint_union,
    format_class,
    is_consistent,
    powerset_class,
    reference_class_check,
    restrict,
    sample_from_pairs,
    sample_of,
    sample_size,
    sample_union,
    version_space,
)
from teachdim.concepts import (
    ConceptClass,
    is_shattered,
    parse_class,
    version_space_mask,
)
from teachdim.dimensions import td_of
from teachdim.errors import ClassFormatError
from teachdim.families import cycle_graph
from teachdim.stars import build_star_class
from teachdim.teaching import format_sample

WIDER = "concept wider than the domain"
ORDER = "concepts must be strictly increasing (deduplicated)"


class TestSample:
    def test_from_pairs_labels(self):
        s = sample_from_pairs([(0, "+"), (2, "-"), (1, True)])
        assert s.pairs() == ((0, True), (1, True), (2, False))

    def test_contradiction_rejected(self):
        with pytest.raises(ValueError, match="contradictory"):
            sample_from_pairs([(0, "+"), (0, "-")])
        with pytest.raises(ValueError, match="contradictory"):
            Sample(pos=1, neg=1)

    def test_duplicate_agreeing_pair_collapses(self):
        s = sample_from_pairs([(3, "+"), (3, "+")])
        assert sample_size(s) == 1


class TestConceptClass:
    def test_dedup_and_order(self):
        cc = ConceptClass.from_masks(3, [5, 1, 5, 2])
        assert cc.concepts == (1, 2, 5)
        assert cc.index_of({0, 2}) == 2
        assert cc.index == {1: 0, 2: 1, 5: 2}
        assert cc.index is cc.index
        with pytest.raises(KeyError, match="concept 0x3 not in class"):
            cc.index_of(3)

    def test_td_passes_leave_equality_hashing_and_pickling_alone(self):
        """td_of keeps its passes on the class in ``td_passes``, a field
        outside the constructor, the repr and the comparisons: a class
        holding passes equals, hashes and prints as a fresh one, and a
        pickled copy keeps its passes and answers alike."""
        cc = build_star_class(cycle_graph(6))
        fresh = ConceptClass(cc.domain_size, cc.concepts)
        rows = [td_of(cc, i) for i in range(len(cc))]
        assert cc.td_passes and not fresh.td_passes
        assert cc.td_passes is not fresh.td_passes
        assert cc == fresh and hash(cc) == hash(fresh) and {cc, fresh} == {cc}
        assert repr(cc) == repr(fresh) == (
            f"ConceptClass(domain_size={cc.domain_size}, "
            f"concepts={cc.concepts!r})")
        for original in (cc, fresh):
            copy = pickle.loads(pickle.dumps(original))
            assert copy == original and hash(copy) == hash(original)
            assert copy.td_passes == original.td_passes
        copy = pickle.loads(pickle.dumps(cc))
        assert [td_of(copy, i) for i in range(len(copy))] == rows
        with pytest.raises(TypeError):
            ConceptClass(cc.domain_size, cc.concepts, td_passes={})

    def test_width_enforced(self):
        with pytest.raises(ValueError, match="wider"):
            ConceptClass.from_masks(2, [4])

    @pytest.mark.parametrize("concepts, message", [
        ((-1, 2, 5), WIDER), ((1, -2, 5), WIDER), ((1, 2, -5), WIDER),
        ((8,), WIDER), ((1, 9, 5), WIDER), ((1, 2, 12), WIDER),
        ((2, 1, 5), ORDER), ((1, 5, 2), ORDER), ((5, 1, 2), ORDER),
        ((1, 1, 5), ORDER), ((1, 5, 5), ORDER), ((0, 0), ORDER),
    ])
    def test_single_faults_keep_their_errors(self, concepts, message):
        """One negative, too wide, misordered or repeated concept, first,
        in the middle or last, raises the ValueError of
        ``helpers.reference_class_check``'s loop."""
        with pytest.raises(ValueError) as fault:
            ConceptClass(3, concepts)
        with pytest.raises(ValueError) as reference:
            reference_class_check(3, concepts)
        assert (type(fault.value), str(fault.value)) \
            == (type(reference.value), str(reference.value)) == (ValueError, message)

    @given(st.integers(0, 6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_whole_sequence_check_accepts_what_the_loop_accepts(self, d, data):
        """Whatever the concepts, the class raises what the one-at-a-time
        loop raises, and accepts exactly what it accepts."""
        value = st.integers(-3, (1 << d) + 2)
        concepts = data.draw(st.one_of(
            st.lists(value, max_size=8),
            st.lists(value, max_size=8, unique=True).map(sorted)))
        try:
            reference_class_check(d, concepts)
            want = None
        except ValueError as exc:
            want = str(exc)
        try:
            ConceptClass(d, tuple(concepts))
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want

    def test_instance_columns_match_definition(self):
        rng = random.Random(41)
        classes = [ConceptClass(d, ()) for d in (0, 3, 40)]
        classes += [powerset_class(d) for d in range(5)]
        for d in (1, 6, 9, 33, 64):
            classes += [ConceptClass.from_masks(
                d, {rng.getrandbits(d) for _ in range(rng.randint(1, 40))})
                for _ in range(4)]
        for cc in classes:
            assert cc.instance_columns == tuple(
                sum(1 << j for j, c in enumerate(cc.concepts) if c >> x & 1)
                for x in range(cc.domain_size))

    def test_powerset(self):
        assert len(powerset_class(0)) == 1
        assert len(powerset_class(3)) == 8
        with pytest.raises(ValueError, match="capped"):
            powerset_class(17)


class TestVersionSpace:
    @pytest.mark.parametrize("d", range(21))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_tables_match_a_table_free_oracle(self, d, data):
        """The sample tables against each concept's own bits, on every
        domain size from 0 to 20: partial last blocks and more than four
        blocks included."""
        full = (1 << d) - 1
        masks = data.draw(st.sets(st.integers(0, full), min_size=1, max_size=40))
        cc = ConceptClass.from_masks(d, masks)
        pos = data.draw(st.integers(0, full))
        neg = data.draw(st.integers(0, full)) & ~pos
        want = sum(1 << j for j, c in enumerate(cc.concepts)
                   if c & (pos | neg) == pos)
        assert version_space_mask(cc, pos, neg) == want
        assert [len(t) for t in cc.sample_tables] == \
            [3 ** min(4, d - x) for x in range(0, d, 4)]
        if d:
            # an instance labeled both ways leaves no concept
            x = 1 << data.draw(st.integers(0, d - 1))
            assert version_space_mask(cc, pos | x, neg | x) == 0

    def test_empty_sample_keeps_everything(self):
        cc = powerset_class(3)
        assert version_space(cc, Sample()) == tuple(range(8))

    def test_powerset_two_labels(self):
        cc = powerset_class(2)
        vs = version_space(cc, sample_from_pairs([(0, "+"), (1, "-")]))
        assert [cc.concepts[i] for i in vs] == [0b01]

    def test_star_class_brute_force_agreement(self):
        # negative labels on two opposite cycle vertices leave exactly the
        # two remaining singletons
        g = cycle_graph(4)
        cc = build_star_class(g)
        s = sample_from_pairs([(0, "-"), (2, "-")])
        vs = version_space(cc, s)
        expected = [i for i, c in enumerate(cc.concepts)
                    if not c >> 0 & 1 and not c >> 2 & 1]
        assert list(vs) == expected
        assert sorted(concept_set(cc, i) for i in vs) == [{1}, {3}]

    def test_consistency(self):
        assert is_consistent(0b101, sample_from_pairs([(0, "+"), (1, "-")]))
        assert not is_consistent(0b101, sample_from_pairs([(2, "-")]))
        assert is_consistent(0, Sample())

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_intersection_property(self, d, data):
        masks = data.draw(st.sets(st.integers(0, (1 << d) - 1), min_size=1))
        cc = ConceptClass.from_masks(d, masks)
        inst = list(range(d))
        lab1 = data.draw(st.dictionaries(st.sampled_from(inst), st.booleans()))
        lab2 = data.draw(st.dictionaries(st.sampled_from(inst), st.booleans()))
        joint = {**lab1, **lab2}
        lab1 = {x: joint[x] for x in lab1}  # avoid contradictions
        lab2 = {x: joint[x] for x in lab2}
        s1 = sample_from_pairs(lab1.items())
        s2 = sample_from_pairs(lab2.items())
        u = sample_union(s1, s2)
        vs_union = version_space_mask(cc, u.pos, u.neg)
        assert vs_union == (version_space_mask(cc, s1.pos, s1.neg)
                            & version_space_mask(cc, s2.pos, s2.neg))


class TestShattering:
    def test_powerset_shatters_everything(self):
        cc = powerset_class(4)
        assert is_shattered(cc, {0, 1, 2, 3})

    def test_empty_set_shattered_iff_nonempty_class(self):
        assert is_shattered(powerset_class(2), frozenset())

    def test_cap(self):
        wide = ConceptClass.from_masks(22, [0])
        with pytest.raises(ValueError, match="capped"):
            is_shattered(wide, range(21))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_under_subsets(self, data):
        d = data.draw(st.integers(1, 5))
        masks = data.draw(st.sets(st.integers(0, (1 << d) - 1), min_size=1))
        cc = ConceptClass.from_masks(d, masks)
        s = data.draw(st.sets(st.integers(0, d - 1), min_size=1))
        if is_shattered(cc, s):
            sub = data.draw(st.sets(st.sampled_from(sorted(s))))
            assert is_shattered(cc, sub)


class TestCombinators:
    def test_disjoint_union_offsets(self):
        a = ConceptClass.from_masks(2, [0b01, 0b11])
        b = ConceptClass.from_masks(1, [0b1])
        u = disjoint_union([a, b])
        assert u.domain_size == 3
        assert set(u.concepts) == {0b001, 0b011, 0b100}

    def test_disjoint_union_merges_all_negative(self):
        a = ConceptClass.from_masks(1, [0, 1])
        b = ConceptClass.from_masks(2, [0, 2])
        u = disjoint_union([a, b])
        assert len(u) == 3  # single shared all-negative concept

    def test_union_size_without_shared_empty(self):
        a = ConceptClass.from_masks(2, [1, 3])
        b = ConceptClass.from_masks(2, [2, 3])
        assert len(disjoint_union([a, b])) == 4

    def test_restrict_full_domain_is_identity(self):
        cc = build_star_class(cycle_graph(5))
        assert restrict(cc, range(5)) == cc

    def test_restrict_projects_and_dedups(self):
        cc = ConceptClass.from_masks(3, [0b001, 0b101, 0b011])
        r = restrict(cc, {0, 1})
        assert r.domain_size == 2
        assert r.concepts == (0b01, 0b11)

    def test_restrict_reindexes_in_order(self):
        cc = ConceptClass.from_masks(4, [0b1010])
        r = restrict(cc, {1, 3})
        assert r.concepts == (0b11,)


class TestTextFormat:
    def test_round_trip(self):
        cc = build_star_class(cycle_graph(4))
        assert parse_class(format_class(cc)) == cc

    def test_bit_layout(self):
        cc = parse_class("2 3\n100\n011\n")
        assert set(cc.concepts) == {0b001, 0b110}

    @pytest.mark.parametrize("text", [
        "",
        "1 3\n",
        "0 3\n",           # no concepts
        "1 3\n10\n",        # wrong width
        "1 3\n10x\n",       # bad character
        "2 2\n10\n10\n",    # duplicate
        "x 3\n100\n",
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(ClassFormatError):
            parse_class(text)


def test_sample_of_labels_by_concept():
    s = sample_of(0b101, 0b11)
    assert s.pairs() == ((0, True), (1, False))
    assert format_sample(0b101, 0b11, str) == "0+ 1-"
