import gc
import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    disjoint_union,
    edgeless_class,
    engine_corpus,
    perfbench_workloads,
    plain_teaching_sets,
    powerset_class,
    rescanning_rtd,
    rescanning_teaching_sets,
    wide_sparse_classes,
)
from teachdim.checks import check_graph
from teachdim.concepts import ConceptClass, is_shattered
from teachdim.connected import build_con_class
import teachdim.dimensions as dimensions
from teachdim.dimensions import (
    RtdCertificate,
    _Work,
    rtd,
    rtd_subclass_lower_bound,
    rtd_value,
    sauer_bound,
    sauer_rtd_implication,
    td_max,
    td_min,
    td_min_at_most,
    td_of,
    vcd,
)
from teachdim.errors import BudgetExceededError
from teachdim.families import (
    complete_graph,
    cycle_graph,
    fig2,
    path_graph,
    random_graph,
)
from teachdim.graphs import DEFAULT_ENUM_BUDGET, bits, mask_of
from teachdim.stars import build_star_class


def brute_td(cc, i, active=None):
    """Plain search over all instance subsets by increasing size, against
    the concepts in the ``active`` index mask (default: the whole class)."""
    ci = cc.concepts[i]
    others = [c for j, c in enumerate(cc.concepts)
              if j != i and (active is None or active >> j & 1)]
    for k in range(cc.domain_size + 1):
        for combo in itertools.combinations(range(cc.domain_size), k):
            dm = sum(1 << x for x in combo)
            if all((ci ^ c) & dm for c in others):
                return k
    raise AssertionError("no teaching set found")


def brute_td_witness(cc, i):
    """(size, smallest-valued mask) of a minimum teaching set, scanning
    every mask of each size."""
    ci = cc.concepts[i]
    others = [c for j, c in enumerate(cc.concepts) if j != i]
    for k in range(cc.domain_size + 1):
        feasible = [sum(1 << x for x in combo)
                    for combo in itertools.combinations(range(cc.domain_size), k)]
        feasible = [dm for dm in feasible if all((ci ^ c) & dm for c in others)]
        if feasible:
            return k, min(feasible)
    raise AssertionError("no teaching set found")


def brute_peeling(cc):
    """Peeling levels as (index set, value), from brute_td of every
    active concept at every level."""
    active = cc.all_indices_mask
    levels = []
    while active:
        tds = {i: brute_td(cc, i, active) for i in bits(active)}
        low = min(tds.values())
        level = frozenset(i for i, v in tds.items() if v == low)
        levels.append((level, low))
        for i in level:
            active &= ~(1 << i)
    return levels


def brute_vcd(cc):
    """Largest shattered size and the first shattered set of that size in
    itertools.combinations (lexicographic) order."""
    best = (0, frozenset())
    for k in range(1, cc.domain_size + 1):
        hit = next((c for c in itertools.combinations(range(cc.domain_size), k)
                    if is_shattered(cc, c)), None)
        if hit is None:
            break
        best = (k, frozenset(hit))
    return best


class TestVcd:
    def test_powerset(self):
        for d in range(5):
            value, witness = vcd(powerset_class(d))
            assert value == d
            assert witness == frozenset(range(d))

    def test_star_c4(self):
        assert vcd(build_star_class(cycle_graph(4)))[0] == 3

    def test_con_fig2_witness(self):
        value, witness = vcd(build_con_class(fig2(), False))
        assert value == 5
        assert witness == {0, 3, 4, 5, 6}  # a, d, e, f, g

    def test_witness_is_lexicographically_smallest(self):
        cc = build_star_class(cycle_graph(4))
        value, witness = vcd(cc)
        smaller = [c for c in itertools.combinations(range(4), value)
                   if is_shattered(cc, c)]
        assert witness == frozenset(smaller[0])

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            vcd(ConceptClass(3, ()))

    def test_matches_brute_force(self):
        rng = random.Random(17)
        classes = [ConceptClass.from_masks(4, [5])]
        for _ in range(40):
            d = rng.randint(1, 7)
            size = rng.randint(1, min(60, 1 << d))
            classes.append(ConceptClass.from_masks(
                d, rng.sample(range(1 << d), size)))
        # more than 256 concepts
        classes.append(build_star_class(complete_graph(9)))
        classes.append(build_con_class(random_graph(10, 0.4, 5), True))
        classes.append(ConceptClass.from_masks(
            10, rng.sample(range(1 << 10), 300)))
        assert sum(len(cc) > 256 for cc in classes) == 3
        for cc in classes:
            assert vcd(cc) == brute_vcd(cc)


class TestTeachingDimension:
    def test_singleton_class(self):
        cc = ConceptClass.from_masks(4, [0b1010])
        assert td_of(cc, 0) == (0, 0)

    def test_powerset_needs_whole_domain(self):
        cc = powerset_class(3)
        for i in range(8):
            assert td_of(cc, i)[0] == 3
        assert td_min(cc) == 3
        assert td_max(cc) == 3

    def test_star_path_whole_set(self):
        # 3-vertex path a-b-c: the full set needs both endpoints
        cc = build_star_class(path_graph(2))
        i = cc.index_of({0, 1, 2})
        value, witness = td_of(cc, i)
        assert value == brute_td(cc, i) == 2

    def test_witness_distinguishes(self):
        cc = build_star_class(cycle_graph(5))
        for i in range(len(cc)):
            value, witness = td_of(cc, i)
            assert witness.bit_count() == value
            assert all((cc.concepts[i] ^ c) & witness
                       for j, c in enumerate(cc.concepts) if j != i)

    def test_matches_brute_force(self):
        rng = random.Random(11)
        for trial in range(40):
            d = rng.randint(1, 5)
            size = rng.randint(1, min(10, 1 << d))
            cc = ConceptClass.from_masks(
                d, rng.sample(range(1 << d), size))
            for i in range(len(cc)):
                assert td_of(cc, i)[0] == brute_td(cc, i)

    def test_wide_domain_fallback(self):
        cc = ConceptClass.from_masks(16, [0, 1, 1 << 15])
        assert td_of(cc, 0)[0] == 2

    def test_witness_is_smallest_mask(self):
        rng = random.Random(23)
        classes = engine_corpus()
        for _ in range(10):
            d = rng.randint(15, 17)
            classes.append(ConceptClass.from_masks(
                d, rng.sample(range(1 << d), rng.randint(2, 8))))
        for cc in classes:
            for i in range(len(cc)):
                assert td_of(cc, i) == brute_td_witness(cc, i)

    def test_answers_past_twelve_instances(self):
        # the whole vertex set of C_13 needs all 13 vertices
        cc = build_con_class(cycle_graph(13), False)
        full = cc.index_of(range(13))
        single = cc.index_of({0})
        assert td_of(cc, full) == (13, (1 << 13) - 1)
        assert td_of(cc, single)[0] == brute_td(cc, single) == 3
        assert td_max(cc) == 13

    def test_index_range_before_and_after_the_pass(self):
        """An index outside the class is refused before a fresh class's
        pass runs, and still refused, for every budget, once a pass is
        cached; an index equal to a row's, as True or 2.0 is, answers as
        that row."""
        cc = build_star_class(cycle_graph(5))
        for bad in (-1, len(cc)):
            with pytest.raises(ValueError, match=f"concept index {bad} out of range"):
                td_of(cc, bad)
        assert cc.td_passes == {}
        rows = [td_of(cc, i) for i in range(len(cc))]
        assert list(cc.td_passes) == [DEFAULT_ENUM_BUDGET]
        for budget in (DEFAULT_ENUM_BUDGET, 10 ** 9):
            for bad in (-1, len(cc), -len(cc)):
                with pytest.raises(ValueError, match=f"concept index {bad} out of range"):
                    td_of(cc, bad, budget=budget)
        assert list(cc.td_passes) == [DEFAULT_ENUM_BUDGET]
        assert td_of(cc, True) == rows[1] and td_of(cc, 2.0) == rows[2]

    def test_refusal_under_a_small_budget(self):
        # C_13's pass walks 13 nodes, all at its first level (k = 3): one
        # for each target walked there, at size 1.  Under a budget of 5
        # the sixth walk refuses, after the direct checks found 13 rows
        # and the walks 5, so 157 - 18 concepts are left
        cc = build_con_class(cycle_graph(13), False)
        full = cc.index_of(range(13))
        raised = []
        for _ in range(2):
            with pytest.raises(BudgetExceededError) as refusal:
                td_of(cc, full, budget=5)
            assert (refusal.value.k, refusal.value.left, refusal.value.work) \
                == (3, 139, 6)
            assert "budget of 5 exceeded at k=3" in str(refusal.value)
            raised.append(refusal.value)
        # each miss raises a fresh copy, never the refusal the pass keeps
        kept = cc.td_passes[5][1]
        assert raised[0] is not raised[1] and kept not in raised
        assert kept.__traceback__ is None
        for bad in (-1, len(cc)):
            with pytest.raises(ValueError, match=f"concept index {bad} out of range"):
                td_of(cc, bad, budget=5)
        # a second budget runs its own pass
        assert list(cc.td_passes) == [5]
        assert td_of(cc, full) == (13, (1 << 13) - 1)
        assert list(cc.td_passes) == [5, DEFAULT_ENUM_BUDGET]
        # the rows of the levels finished before a refusal still answer:
        # random_graph(11, .35, 3) has used 5 walk nodes after k = 4
        big = build_con_class(random_graph(11, 0.35, 3), False)
        answered = 0
        for i in range(len(big)):
            try:
                value, witness = td_of(big, i, budget=5)
            except BudgetExceededError as exc:
                assert (exc.k, exc.work) == (5, 6)
            else:
                assert (value, witness) == td_of(big, i)
                answered += 1
        assert answered == 5
        assert list(big.td_passes) == [5, DEFAULT_ENUM_BUDGET]
        # the refused pass keeps its rows, and an index outside the class
        # is still a range error, not the refusal
        assert len(big.td_passes[5][0]) == 5
        for bad in (-1, len(big)):
            with pytest.raises(ValueError, match=f"concept index {bad} out of range"):
                td_of(big, bad, budget=5)


class TestRtd:
    def test_powerset(self):
        for d in range(5):
            cert = rtd(powerset_class(d))
            assert cert.rtd == d

    def test_star_c4(self):
        assert rtd(build_star_class(cycle_graph(4))).rtd == 3

    def test_con_c4_both_policies(self):
        g = cycle_graph(4)
        assert rtd(build_con_class(g, False)).rtd == 3
        assert rtd(build_con_class(g, True)).rtd == 3

    def test_certificate_partitions_and_recomputes(self):
        cc = build_star_class(cycle_graph(4))
        cert = rtd(cc)
        seen = set()
        active = cc.all_indices_mask
        for level, value in cert.levels:
            for i in sorted(level):
                assert brute_td(cc, i, active) == value
            # minimality: every survivor teaches no easier at this point
            for i in bits(active):
                if i not in level:
                    assert brute_td(cc, i, active) > value
            seen |= level
            for i in level:
                active &= ~(1 << i)
        assert seen == set(range(len(cc)))

    def test_certificate_validation(self):
        with pytest.raises(ValueError, match="partition"):
            RtdCertificate(3, ((frozenset({0, 1}), 1),), 1, (0b1, 0b1, 0b1))
        with pytest.raises(ValueError, match="rtd"):
            RtdCertificate(2, ((frozenset({0, 1}), 1),), 2, (0b1, 0b1))
        with pytest.raises(ValueError, match="^certificate has no levels$"):
            RtdCertificate(0, (), 0, ())
        with pytest.raises(ValueError, match="partition"):
            RtdCertificate(2, (), 0, (0, 0))

    def test_certificate_witness_validation(self):
        levels = ((frozenset({0}), 1), (frozenset({1}), 0))
        RtdCertificate(2, levels, 1, (0b10, 0))
        with pytest.raises(ValueError, match="one witness per concept"):
            RtdCertificate(2, levels, 1, (0b10,))
        with pytest.raises(ValueError, match="size 1"):
            RtdCertificate(2, levels, 1, (0b11, 0))
        with pytest.raises(ValueError, match="size 0"):
            RtdCertificate(2, levels, 1, (0b10, 0b1))

    def test_witnesses_teach_against_their_level(self):
        for cc in engine_corpus():
            cert = rtd(cc)
            active = cc.all_indices_mask
            for level, value in cert.levels:
                for i in level:
                    w = cert.witnesses[i]
                    assert w.bit_count() == value
                    assert all((cc.concepts[i] ^ cc.concepts[j]) & w
                               for j in bits(active) if j != i)
                for i in level:
                    active &= ~(1 << i)

    def test_levels_match_brute_force_peeling(self):
        for cc in engine_corpus():
            cert = rtd(cc)
            assert list(cert.levels) == brute_peeling(cc)
            assert rtd_value(cc) == cert.rtd

    def test_level_minimum_within_cap_is_not_refused(self):
        # concepts above the cap must not block earlier levels
        cert = rtd(build_con_class(cycle_graph(13), False))
        assert [value for _, value in cert.levels] == [3, 3, 3, 3, 3, 2]
        assert rtd_value(build_con_class(path_graph(12), True)) == 2

    def test_subclass_lower_bound(self):
        cc = build_star_class(fig2())
        value = rtd(cc).rtd
        rng = random.Random(5)
        for _ in range(100):
            size = rng.randint(1, len(cc))
            sub = rng.sample(range(len(cc)), size)
            assert rtd_subclass_lower_bound(cc, sub) <= value

    def test_subclass_lower_bound_matches_td_min_of_the_subclass(self):
        rng = random.Random(11)
        for cc in engine_corpus():
            for _ in range(5):
                sub = rng.sample(range(len(cc)), rng.randint(1, len(cc)))
                own = ConceptClass.from_masks(
                    cc.domain_size, (cc.concepts[i] for i in sub))
                assert rtd_subclass_lower_bound(cc, sub) == td_min(own)

    def test_subclass_indices_checked(self):
        cc = powerset_class(2)
        for bad in ([-1], [0, 4], [], -1, -16, 1 << 4, 0b10001, 0):
            with pytest.raises(ValueError):
                rtd_subclass_lower_bound(cc, bad)

    def test_subclass_mask_matches_index_list(self):
        cc = build_star_class(fig2())
        rng = random.Random(8)
        for _ in range(50):
            sub = rng.sample(range(len(cc)), rng.randint(1, len(cc)))
            assert rtd_subclass_lower_bound(cc, mask_of(sub)) == \
                rtd_subclass_lower_bound(cc, sub)

    def test_subclass_kernel_matches_trace_brute_force(self):
        """TD_min of a subclass, and td_min_at_most at every k from 0 to
        d, against a search over instance combinations, smallest first,
        that compares traces as sets."""

        def td_min_by_traces(members, d):
            for k in range(d + 1):
                for combo in itertools.combinations(range(d), k):
                    traces = [frozenset(x for x in combo if x in c) for c in members]
                    if any(traces.count(t) == 1 for t in traces):
                        return k
            raise AssertionError("distinct concepts always have distinct traces")

        rng = random.Random(2718)
        for trial in range(160):
            if trial % 2:
                d = rng.randint(1, 10)
                masks = {rng.randrange(1 << d) for _ in range(rng.randint(1, 40))}
            else:
                # most of a small powerset, where TD_min runs up to d
                d = rng.randint(2, 5)
                keep = rng.choice((0.6, 0.85, 1.0))
                masks = {c for c in range(1 << d) if rng.random() < keep} or {0}
            cc = ConceptClass.from_masks(d, masks)
            m = len(cc)
            everything = (1 << m) - 1
            subs = [1 << rng.randrange(m), everything,
                    everything & ~(1 << rng.randrange(m)) or everything,
                    rng.randrange(1, 1 << m), rng.randrange(1, 1 << m)]
            for sub in subs:
                members = [{x for x in range(d) if cc.concepts[i] >> x & 1}
                           for i in range(m) if sub >> i & 1]
                want = td_min_by_traces(members, d)
                assert rtd_subclass_lower_bound(cc, sub) == want
                if sub == everything:
                    assert td_min(cc) == want
                assert [td_min_at_most(cc, sub, k) for k in range(d + 1)] \
                    == [want <= k for k in range(d + 1)]

    def test_td_min_at_most_hand_cases(self):
        cc = ConceptClass.from_masks(3, [0b000, 0b010, 0b111])
        # one concept needs no examples; two cannot be told apart by none
        assert td_min_at_most(cc, 0b100, 0)
        assert not td_min_at_most(cc, 0b011, 0)
        # 000 and 010 differ in instance 1 only: no second instance splits
        # them, yet a bound of 2 holds
        assert td_min_at_most(cc, 0b011, 2)
        assert td_min_at_most(cc, 0b011, 1)
        assert not td_min_at_most(cc, 0b100, -1)
        for bad in (0, -1, 1 << 3, 0b1001):
            with pytest.raises(ValueError):
                td_min_at_most(cc, bad, 1)

    def test_max_subclass_bound_attained_on_small_classes(self):
        for cc in (powerset_class(3),
                   build_star_class(path_graph(2)),
                   build_con_class(path_graph(3), False)):
            assert len(cc) <= 12
            best = max(
                rtd_subclass_lower_bound(cc, list(bits(sub)))
                for sub in range(1, 1 << len(cc))
            )
            assert best == rtd(cc).rtd


class TestTdMinByWalk:
    """td_min and rtd_subclass_lower_bound count k up until
    td_min_at_most's walk isolates some concept; their value must be the
    smallest brute_td over the (sub)class."""

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_classes_and_subclasses(self, d, data):
        masks = data.draw(st.sets(st.integers(0, (1 << d) - 1), min_size=1,
                                  max_size=min(40, 1 << d)))
        cc = ConceptClass.from_masks(d, masks)
        m = len(cc)
        assert td_min(cc) == min(brute_td(cc, i) for i in range(m))
        sub = data.draw(st.sets(st.integers(0, m - 1), min_size=1))
        active = sum(1 << i for i in sub)
        assert rtd_subclass_lower_bound(cc, sorted(sub)) == min(
            brute_td(cc, i, active) for i in sub)

    def test_wide_domains(self):
        rng = random.Random(23)
        for d in (15, 16, 17):
            for _ in range(2):
                cc = ConceptClass.from_masks(
                    d, rng.sample(range(1 << d), rng.randint(2, 40)))
                m = len(cc)
                assert td_min(cc) == min(brute_td(cc, i) for i in range(m))
                sub = rng.sample(range(m), rng.randint(1, m))
                active = sum(1 << i for i in sub)
                assert rtd_subclass_lower_bound(cc, sub) == min(
                    brute_td(cc, i, active) for i in sub)

    def test_from_the_forced_floor(self):
        """td_min starts at min_i |F_i|: 0 on classes with a concept
        that has no one-inclusion neighbour, d on powerset_class(d)."""
        rng = random.Random(31)
        floors = []
        for _ in range(40):
            d = rng.randint(2, 9)
            cc = ConceptClass.from_masks(
                d, rng.sample(range(1 << d), rng.randint(2, min(30, 1 << d))))
            floors.append(min(f.bit_count() for f in cc.neighbour_masks))
            if not floors[-1]:
                assert td_min(cc) == min(brute_td(cc, i) for i in range(len(cc)))
        assert floors.count(0) >= 20
        for d in range(5):
            cc = powerset_class(d)
            assert min(f.bit_count() for f in cc.neighbour_masks) == d
            assert td_min(cc) == d == min(brute_td(cc, i) for i in range(len(cc)))

    def test_one_budget_per_call(self, monkeypatch):
        """Every k a call tries draws on the one _Work it made, so
        ``budget`` bounds the whole search."""
        works = []

        def recorded(*args, **kwargs):
            works.append(real(*args, **kwargs))
            return works[-1]

        real = dimensions._Work
        monkeypatch.setattr(dimensions, "_Work", recorded)
        # TD_min 4: td_min tries k = 4 alone, the subclass bound 0 to 4
        cc = powerset_class(4)
        assert td_min(cc) == 4
        assert [w.stage for w in works] == ["teaching-set search (td_min)"]
        works.clear()
        assert rtd_subclass_lower_bound(cc, cc.all_indices_mask) == 4
        assert [w.stage for w in works] == \
            ["teaching-set search (subclass TD_min)"]
        nodes = works[0].done
        # the same search on a budget of its nodes answers; one less refuses
        assert rtd_subclass_lower_bound(cc, cc.all_indices_mask,
                                        budget=nodes) == 4
        with pytest.raises(BudgetExceededError) as refusal:
            rtd_subclass_lower_bound(cc, cc.all_indices_mask, budget=nodes - 1)
        assert (refusal.value.k, refusal.value.work) == (4, nodes)
        assert len(works) == 3


def embedded_cube(free, base):
    """Every concept that agrees with ``base`` off the instance mask
    ``free``: the whole cube on ``free``, constant elsewhere."""
    cube, part = [], free
    while True:
        cube.append(base & ~free | part)
        if not part:
            return cube
        part = part - 1 & free


class TestOneInclusionBound:
    """td_min_at_most answers no without a walk when every concept of the
    subclass has more than k neighbours inside it (_degrees_above).  Each
    case below aims at one of the bound's branches and checks, at every
    k from 0 to d, td_min_at_most and rtd_subclass_lower_bound against
    the smallest brute_td over the subclass, and that the bound never
    says no where a teaching set of k instances exists."""

    @staticmethod
    def exact(cc, sub):
        want = min(brute_td(cc, i, sub) for i in bits(sub))
        for k in range(cc.domain_size + 1):
            assert td_min_at_most(cc, sub, k) == (want <= k)
            assert not (dimensions._degrees_above(cc, sub, k) and want <= k)
        assert rtd_subclass_lower_bound(cc, sub) == want
        return want

    def test_a_subcube_in_a_wider_domain(self):
        """The cube on the free instances X, constant off X, with and
        without other concepts around it: TD_min |X|, and the bound says
        no at every k below |X| by the cube's size alone, counted as one
        walk node."""
        rng = random.Random(41)
        for trial in range(40):
            d = rng.randint(2, 8)
            free = mask_of(rng.sample(range(d), rng.randint(1, min(d, 5))))
            cube = embedded_cube(free, rng.randrange(1 << d))
            extra = [rng.randrange(1 << d) for _ in range(trial % 3 * 6)]
            cc = ConceptClass.from_masks(d, cube + extra)
            sub = mask_of(cc.index_of(c) for c in cube)
            n = free.bit_count()
            assert self.exact(cc, sub) == n
            assert [dimensions._degrees_above(cc, sub, k)
                    for k in range(d + 1)] == [k < n for k in range(d + 1)]
            if not extra:
                assert td_min(cc) == n
            if n > 1:
                # the bound stands in for the walk's root: one node
                assert td_min_at_most(cc, sub, n - 1, budget=1) is False
                with pytest.raises(BudgetExceededError) as refusal:
                    td_min_at_most(cc, sub, n - 1, budget=0)
                assert (refusal.value.k, refusal.value.work) == (n - 1, 1)

    def test_a_cube_less_one_concept(self):
        """The class is a cube on X less one concept: that concept's
        neighbours have |X| - 1 neighbours left and teach with X less
        their flip, so TD_min is |X| - 1 and the bound says no below
        it."""
        rng = random.Random(43)
        for _ in range(30):
            d = rng.randint(3, 8)
            free = mask_of(rng.sample(range(d), rng.randint(2, min(d, 5))))
            cube = embedded_cube(free, rng.randrange(1 << d))
            cube.remove(rng.choice(cube))
            cc = ConceptClass.from_masks(d, cube)
            n = free.bit_count()
            assert self.exact(cc, cc.all_indices_mask) == n - 1
            assert [dimensions._degrees_above(cc, cc.all_indices_mask, k)
                    for k in range(d + 1)] == [k < n - 1 for k in range(d + 1)]

    def test_a_flip_partner_outside_the_subclass_is_not_counted(self):
        """The class holds the whole cube on X and the subclass lacks one
        of its concepts c: c's neighbours flip onto a class member that
        is not in the subclass, so they have |X| - 1 neighbours there,
        and at k = |X| - 1 the bound must leave the answer, yes, to the
        walk."""
        rng = random.Random(47)
        for trial in range(30):
            d = rng.randint(3, 8)
            free = mask_of(rng.sample(range(d), rng.randint(2, min(d, 5))))
            cube = embedded_cube(free, rng.randrange(1 << d))
            extra = [rng.randrange(1 << d) for _ in range(trial % 2 * 8)]
            cc = ConceptClass.from_masks(d, cube + extra)
            left_out = cc.index_of(rng.choice(cube))
            sub = mask_of(cc.index_of(c) for c in cube) & ~(1 << left_out)
            n = free.bit_count()
            assert self.exact(cc, sub) == n - 1
            assert not dimensions._degrees_above(cc, sub, n - 1)
            assert dimensions._degrees_above(cc, sub, n - 2) == (n > 1)

    def test_no_more_free_instances_than_k(self):
        """Subclasses with at most k free instances: no degree can pass
        k, so the bound leaves every such k to the walk."""
        rng = random.Random(53)
        for _ in range(40):
            d = rng.randint(2, 8)
            free = mask_of(rng.sample(range(d), rng.randint(1, min(d, 3))))
            cube = embedded_cube(free, rng.randrange(1 << d))
            part = rng.sample(cube, rng.randint(2, len(cube))) \
                if len(cube) > 2 else cube
            extra = [rng.randrange(1 << d) for _ in range(rng.randint(0, 10))]
            cc = ConceptClass.from_masks(d, part + extra)
            sub = mask_of(cc.index_of(c) for c in part)
            self.exact(cc, sub)
            # the free instances of the subclass lie inside ``free``
            for k in range(free.bit_count(), d + 1):
                assert not dimensions._degrees_above(cc, sub, k)


def forced_set(cc, i, active):
    """F_i(active) from its definition: the instances x such that concept
    i with x flipped is an active concept."""
    ci = cc.concepts[i]
    return sum(1 << x for x in range(cc.domain_size)
               if any(cc.concepts[j] == ci ^ 1 << x for j in bits(active)))


def forced_counts(cc, forced, active):
    """The counts rescanning_teaching_sets reads: |forced[i]| for each
    active i, and domain_size + 1 for every other concept."""
    return [forced[i].bit_count() if active >> i & 1 else cc.domain_size + 1
            for i in range(len(cc))]


class TestForcedInstances:
    """A concept whose flip across x is active cannot be told from it
    without x, so every teaching set contains the forced set F_i(A); the
    search starts at the forced bound and settles most levels by it."""

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_minimum_teaching_set_contains_the_forced_set(self, d, data):
        masks = data.draw(st.sets(st.integers(0, (1 << d) - 1), min_size=2,
                                  max_size=min(40, 1 << d)))
        cc = ConceptClass.from_masks(d, masks)
        sub = data.draw(st.sets(st.integers(0, len(cc) - 1), min_size=2))
        active = sum(1 << i for i in sub)
        i = data.draw(st.sampled_from(sorted(sub)))
        forced = forced_set(cc, i, active)
        others = [cc.concepts[j] for j in bits(active) if j != i]
        teaching = [dm for dm in range(1 << d)
                    if all((cc.concepts[i] ^ c) & dm for c in others)]
        low = min(dm.bit_count() for dm in teaching)
        assert low == brute_td(cc, i, active) >= forced.bit_count()
        assert all(dm & forced == forced
                   for dm in teaching if dm.bit_count() == low)
        # the bounded search gives the same levels as the plain one
        forced_all = [forced_set(cc, j, active) if active >> j & 1 else None
                    for j in range(len(cc))]
        assert list(rescanning_teaching_sets(
            cc, active, _Work(), forced_all,
            forced_counts(cc, forced_all, active))) \
            == list(plain_teaching_sets(cc, active, active))

    def test_neighbour_masks_match_pairwise_definition(self):
        rng = random.Random(7)
        classes = engine_corpus()
        for d in (15, 16, 17):
            classes.append(ConceptClass.from_masks(
                d, rng.sample(range(1 << d), 30) + [0, 1, 3, 1 << d - 1]))
        # wider than a machine word, and empty
        for d in (33, 64):
            classes.append(ConceptClass.from_masks(
                d, [rng.getrandbits(d) for _ in range(30)] + [0, 1, 3, 1 << d - 1]))
        classes += [ConceptClass(d, ()) for d in (0, 40)]
        for cc in classes:
            want = [0] * len(cc)
            for i, a in enumerate(cc.concepts):
                for j, b in enumerate(cc.concepts):
                    if (a ^ b).bit_count() == 1:
                        want[i] |= a ^ b
            assert cc.neighbour_masks == tuple(want)
        assert not any(edgeless_class().neighbour_masks)

    def test_rtd_counts_match_a_recomputation_at_every_level(self, monkeypatch):
        """rtd keeps F_i and the counts |F_i| across levels by one update
        per one-inclusion edge, and finds each k's candidates in its
        per-count lists.  At every k of every level, F_i and the counts
        equal their definitions over the concepts still active, every
        concept that has left counts domain_size + 1, the candidates are
        the active concepts that count k and then those below k, each in
        increasing index order, and k runs from the smallest count (1
        after 0) up to the level's value."""
        real = dimensions._teaching_sets_at
        calls = []
        # F_i and the counts of each active set, recomputed once
        recomputed = {}

        def spy(cc, active, k, targets, forced, size, work, left):
            if active not in recomputed:
                want = [cc.domain_size + 1] * len(cc)
                forced_all = {i: forced_set(cc, i, active) for i in bits(active)}
                for i, f in forced_all.items():
                    want[i] = f.bit_count()
                recomputed[active] = forced_all, want
            forced_all, want = recomputed[active]
            assert all(forced[i] == f for i, f in forced_all.items())
            assert size == want
            assert targets == [i for i in bits(active) if want[i] == k] \
                + [i for i in bits(active) if want[i] < k]
            assert left == active.bit_count()
            calls.append((active, k))
            return real(cc, active, k, targets, forced, size, work, left)

        monkeypatch.setattr(dimensions, "_teaching_sets_at", spy)
        rng = random.Random(43)
        classes = engine_corpus() + [build_con_class(g, e) for g in
                                     (fig2(), cycle_graph(7)) for e in (False, True)]
        for _ in range(20):
            d = rng.randint(3, 7)
            # dense classes: many one-inclusion edges inside each level
            classes.append(ConceptClass.from_masks(
                d, rng.sample(range(1 << d), (1 << d) * 3 // 4)))
        for cc in classes:
            calls.clear()
            recomputed.clear()
            cert = rtd(cc)
            want, active = [], cc.all_indices_mask
            for level, value in cert.levels:
                if active & (active - 1):
                    assert active in recomputed
                    counts = recomputed[active][1]
                    low = min(counts[i] for i in bits(active))
                    want += [(active, k) for k in range(max(low, 1), value + 1)]
                active ^= mask_of(level)
            assert calls == want

    def test_walks_only_targets_below_their_bound(self, monkeypatch):
        """Each walk has one target i, with fewer than k forced instances
        against the search's active set A.  It runs against V_i, the
        active concepts that agree with i on F_i(A), at size
        k - |F_i(A)|, once for every k from |F_i(A)| + 1 up to the level
        that settles i (or the last level reached).  A class where every
        bound is the level value needs no walk at all."""
        real_sets = dimensions._teaching_sets_at
        real_walk = dimensions._smallest_teaching_mask
        # one entry per search (a level of rtd or the td_of pass): its
        # active set, the walk sizes of each target, the level that
        # settled each target, and the last level; a search counts k up
        # against one active set, so a new active set or a k that does
        # not rise starts the next one
        searches = []

        def sets_spy(cc, active, k, targets, forced, size, work, left):
            if not searches or searches[-1]["active"] != active \
                    or k <= searches[-1]["last"]:
                searches.append({"active": active, "walks": {}, "level": {},
                                 "last": 0})
            search = searches[-1]
            found = real_sets(cc, active, k, targets, forced, size, work, left)
            search["level"].update(dict.fromkeys(found, k))
            search["last"] = k
            return found

        def walk_spy(cc, active, i, k, work):
            assert active >> i & 1
            search = searches[-1]
            forced = forced_set(cc, i, search["active"])
            ci = cc.concepts[i]
            assert active == sum(1 << j for j in bits(search["active"])
                                 if not (cc.concepts[j] ^ ci) & forced)
            search["walks"].setdefault(i, []).append(k)
            return real_walk(cc, active, i, k, work)

        def check(cc):
            for search in searches:
                for i, sizes in search["walks"].items():
                    bound = forced_set(cc, i, search["active"]).bit_count()
                    level = search["level"].get(i, search["last"])
                    assert sizes == list(range(1, level - bound + 1))

        monkeypatch.setattr(dimensions, "_teaching_sets_at", sets_spy)
        monkeypatch.setattr(dimensions, "_smallest_teaching_mask", walk_spy)
        walked = 0
        for cc in engine_corpus():
            searches.clear()
            rtd(cc)
            for i in range(len(cc)):
                td_of(cc, i)
            check(cc)
            walked += sum(len(s["walks"]) for s in searches)
        assert walked
        searches.clear()
        cc = powerset_class(4)
        assert rtd(cc).rtd == 4
        assert [td_of(cc, i)[0] for i in range(16)] == [4] * 16
        assert not any(s["walks"] for s in searches)

    def test_forced_search_matches_the_plain_walk_on_wide_sparse_classes(self):
        """The forced search, which walks each target below its bound on
        its own against V_i, gives the same levels and witnesses as the
        plain walk over every k-set of the domain: over the whole class
        (the td_of pass) and at every rtd level's active set.  The
        classes have 12-16 instances and few one-inclusion edges, so
        most targets are walked: the two sparse star classes of the
        benchmark's peel corpus and 30 seeded random classes of
        clusters of one-flip neighbours."""
        classes = [build_star_class(random_graph(14, 0.25, 1)),
                   build_star_class(random_graph(16, 0.15, 1))]
        classes += wide_sparse_classes(57, 30)

        walked = 0
        for cc in classes:
            everyone = cc.all_indices_mask
            levels = {}
            for i in range(len(cc)):
                k, witness = td_of(cc, i)
                levels.setdefault(k, {})[i] = witness
            assert sorted(levels.items()) \
                == list(plain_teaching_sets(cc, everyone, everyone))
            walked += sum(cc.neighbour_masks[i].bit_count() < k
                          for k, found in levels.items() for i in found)
            cert = rtd(cc)
            active = everyone
            for level, value in cert.levels:
                assert (value, {i: cert.witnesses[i] for i in level}) \
                    == next(plain_teaching_sets(cc, active, active))
                active ^= mask_of(level)
        # most td_of rows come from a walk, not from the forced set alone
        assert walked > sum(map(len, classes)) // 2

    def test_whole_domain_bound_needs_no_walk(self):
        # the whole vertex set of C_13 is forced to all 13 vertices
        cc = build_con_class(cycle_graph(13), False)
        full = cc.index_of(range(13))
        assert cc.neighbour_masks[full] == (1 << 13) - 1
        assert td_of(cc, full) == (13, (1 << 13) - 1)
        # every search of P_12 with the empty set is settled by its bound,
        # the empty set's by all 13 singletons
        path = build_con_class(path_graph(12), True)
        assert rtd(path, budget=0) == rtd(path)
        assert [td_of(path, i, budget=0) for i in range(len(path))] \
            == [td_of(path, i) for i in range(len(path))]
        assert td_of(path, path.index_of(0), budget=0) == (13, (1 << 13) - 1)

    def test_a_walk_not_the_bound_runs_out(self):
        cc = build_con_class(cycle_graph(13), False)
        with pytest.raises(BudgetExceededError) as refusal:
            rtd(cc, budget=0)
        assert (refusal.value.k, refusal.value.work) == (3, 1)
        assert refusal.value.what == "teaching-set search (rtd)"
        # td_min's walk starts at the forced floor: every vertex is
        # forced to both its neighbours, so 2
        with pytest.raises(BudgetExceededError) as refusal:
            td_min(cc, budget=0)
        assert (refusal.value.k, refusal.value.left) == (2, len(cc))
        with pytest.raises(BudgetExceededError) as refusal:
            td_min_at_most(cc, cc.all_indices_mask, 3, budget=0)
        assert (refusal.value.what, refusal.value.k, refusal.value.left,
                refusal.value.work) == (
            "teaching-set search (subclass TD_min)", 3, len(cc), 1)
        # a lone concept is answered without a walk
        assert td_min_at_most(cc, 1, 0, budget=0)

    def test_a_one_inclusion_degree_above_a_byte(self):
        """The empty set and the 300 singletons of 300 instances: the
        empty set has 300 one-inclusion neighbours, more than a byte
        holds, and is forced to the whole domain."""
        d = 300
        cc = ConceptClass.from_masks(d, [0] + [1 << x for x in range(d)])
        cert = rtd(cc, budget=0)
        assert cert.levels == ((frozenset(range(1, d + 1)), 1), (frozenset({0}), 0))
        assert cert.witnesses == (0, *(1 << x for x in range(d)))
        assert td_of(cc, 0, budget=0) == (d, (1 << d) - 1)
        assert td_of(cc, d, budget=0) == (1, 1 << d - 1)


def rtd_and_work(cc, budget=DEFAULT_ENUM_BUDGET):
    """rtd's certificate, or its refusal text, and the walk nodes its
    search counted."""
    works = []
    real = dimensions._Work

    def recorded(*args, **kwargs):
        works.append(real(*args, **kwargs))
        return works[-1]

    dimensions._Work = recorded
    try:
        try:
            outcome = rtd(cc, budget=budget)
        except BudgetExceededError as exc:
            outcome = str(exc)
    finally:
        dimensions._Work = real
    (work,) = works
    return outcome, work.done


def rescanned(cc, budget=DEFAULT_ENUM_BUDGET):
    """rtd_and_work of the reference that rescans every count at every
    level."""
    try:
        return rescanning_rtd(cc, budget=budget)
    except BudgetExceededError as exc:
        return str(exc), exc.work


def assert_same_peeling(cc):
    """rtd's levels, witnesses and walk nodes equal the rescanning
    reference's, and so do its refusals at budget 0 and at half the walk
    nodes (the k, the concepts left and the nodes of each)."""
    cert, nodes = rescanned(cc)
    assert rtd_and_work(cc) == (cert, nodes)
    for budget in {0, nodes // 2} if nodes else ():
        assert rtd_and_work(cc, budget) == rescanned(cc, budget)
    return cert


def count_falls(cc, cert) -> int:
    """The most that one concept's count |F_i| falls within one level of
    ``cert``: the most one-inclusion neighbours it has in one level that
    it outlasts."""
    most, left = 0, set(range(len(cc)))
    for level, _ in cert.levels:
        left -= level
        leaving = {cc.concepts[j] for j in level}
        for i in left:
            c = cc.concepts[i]
            most = max(most, sum(c ^ 1 << x in leaving
                                 for x in range(cc.domain_size)))
    return most


class TestCandidateLists:
    """rtd finds each level's direct checks and walkers in per-count
    lists that a concept joins when its count falls; the reference
    finds them by rescanning every count at every level.  Both give the
    same levels, witnesses and walk nodes."""

    @given(st.integers(3, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_dense_classes(self, d, data):
        """At least three quarters of the cube: most concepts have many
        neighbours, and a level takes several of one concept's
        neighbours at once."""
        missing = data.draw(st.sets(st.integers(0, (1 << d) - 1),
                                    max_size=(1 << d) // 4))
        assert_same_peeling(ConceptClass.from_masks(
            d, set(range(1 << d)) - missing))

    def test_a_count_falls_several_times_within_one_level(self):
        # the 4-cube without its empty set peels by size: each pair loses
        # two singletons in the first level, each triple three pairs in
        # the second, and the whole set four triples in the third
        cc = ConceptClass.from_masks(4, range(1, 16))
        cert = assert_same_peeling(cc)
        assert [sorted(cc.concepts[i].bit_count() for i in level)
                for level, _ in cert.levels] == [[1] * 4, [2] * 6, [3] * 4, [4]]
        assert count_falls(cc, cert) == 4
        rng = random.Random(5)
        dense = [ConceptClass.from_masks(d, rng.sample(range(1 << d),
                                                       (1 << d) * 3 // 4))
                 for d in range(4, 9)]
        for cc in dense:
            assert_same_peeling(cc)
        assert max(count_falls(cc, rtd(cc)) for cc in dense) >= 3

    @given(st.integers(3, 10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_classes_with_count_zero_concepts(self, d, data):
        """Sparse classes, where some concepts have no neighbour and are
        walked from k = 1."""
        masks = data.draw(st.sets(st.integers(0, (1 << d) - 1), min_size=2,
                                  max_size=14))
        cc = ConceptClass.from_masks(d, masks)
        assume(0 in map(int.bit_count, cc.neighbour_masks))
        assert_same_peeling(cc)

    def test_every_count_zero(self):
        cc = edgeless_class()
        assert not any(cc.neighbour_masks)
        assert_same_peeling(cc)
        # every concept is walked
        assert rescanned(cc)[1] >= len(cc)

    def test_the_lone_last_concept(self):
        # 00 and 11 are taught by one instance each, then 10 is alone
        cc = ConceptClass.from_masks(2, [0b00, 0b01, 0b11])
        assert assert_same_peeling(cc).levels \
            == ((frozenset({0, 2}), 1), (frozenset({1}), 0))
        assert assert_same_peeling(ConceptClass(3, (5,))).levels \
            == ((frozenset({0}), 0),)
        lone = 0
        for cc in engine_corpus():
            level, value = assert_same_peeling(cc).levels[-1]
            lone += len(cc) > 1 and len(level) == 1 and value == 0
        assert lone

    def test_corpora(self):
        """The engine corpus, wide sparse classes and the benchmark's
        peel classes, one of them with 1,061 concepts and 34 levels."""
        W = perfbench_workloads()
        classes = engine_corpus() + wide_sparse_classes(59, 10)
        classes += [W.build_class(make(), kind, include_empty)
                    for _, make, kind, include_empty in W.PEEL_INPUTS]
        for cc in classes:
            assert_same_peeling(cc)

    def test_a_count_above_a_byte(self):
        """The empty set and the 300 singletons of 300 instances: the
        empty set counts 300 neighbours and is left alone at the end."""
        d = 300
        cc = ConceptClass.from_masks(d, [0] + [1 << x for x in range(d)])
        assert max(map(int.bit_count, cc.neighbour_masks)) == d
        assert assert_same_peeling(cc).levels[-1] == (frozenset({0}), 0)


class TestSauer:
    def test_examples(self):
        assert sauer_bound(4, 2) == 11
        assert sauer_bound(9, 0) == 1
        assert sauer_bound(6, 6) == 64
        assert sauer_bound(5, 9) == 32  # binomials vanish past the domain

    def test_class_sizes_bounded(self):
        for cc in (powerset_class(4),
                   build_star_class(fig2()),
                   build_con_class(cycle_graph(6), True)):
            v, _ = vcd(cc)
            assert len(cc) <= sauer_bound(cc.domain_size, v)
            assert len(cc) <= sauer_bound(cc.domain_size, rtd(cc).rtd)

    def test_implication_on_cycle_classes(self):
        star = build_star_class(cycle_graph(4))
        assert len(star) == 12 > 11
        assert sauer_rtd_implication(star) == 3
        con = build_con_class(cycle_graph(4), False)
        assert len(con) == 13 > 11
        assert sauer_rtd_implication(con) == 3

    def test_implication_none_when_class_small(self):
        cc = ConceptClass.from_masks(4, [0])
        assert sauer_rtd_implication(cc) is None


class TestDisjointUnions:
    def _union_parts(self):
        a = build_star_class(cycle_graph(4))
        b = powerset_class(2)
        c = build_con_class(path_graph(3), True)
        return disjoint_union([a, b, c]), [a, b, c]

    def test_vcd_is_max_of_parts(self):
        union, parts = self._union_parts()
        assert vcd(union)[0] == max(vcd(p)[0] for p in parts)

    def test_rtd_sandwich(self):
        union, parts = self._union_parts()
        worst = max(rtd(p).rtd for p in parts)
        got = rtd(union).rtd
        assert worst <= got <= worst + 1

    def test_con_class_of_disconnected_graph_behaves_like_union(self):
        from teachdim.graphs import graph_from_edges

        g = graph_from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        cc = build_con_class(g, True)
        half = build_con_class(path_graph(2), True)
        assert vcd(cc)[0] == vcd(half)[0]
        assert rtd(half).rtd <= rtd(cc).rtd <= rtd(half).rtd + 1


def test_tree_classes_rtd_equals_vcd_small():
    # dimension engines agree with each other on every 5-vertex tree class
    from helpers import labeled_trees

    for g in labeled_trees(5):
        cc = build_con_class(g, True)
        assert rtd(cc).rtd == rtd_value(cc) == vcd(cc)[0]


def test_searches_leave_no_cyclic_garbage():
    """Each search's nested walk refers to itself, and the search breaks
    that cycle when it ends, also when the walk refuses; so no call
    leaves work for the cyclic collector, which runs rarely when little
    else is allocated.  A refused td_of pass keeps its refusal on the
    class without a traceback and raises a fresh copy on each call, so
    no traceback ties the class to a frame."""

    def run():
        for g in (fig2(), cycle_graph(7), path_graph(5), complete_graph(4)):
            for cc in (build_star_class(g), build_con_class(g, False),
                       build_con_class(g, True)):
                everyone = cc.all_indices_mask
                vcd(cc)
                rtd(cc)
                td_of(cc, 0)
                td_min(cc)
                td_min_at_most(cc, everyone, 1)
                rtd_subclass_lower_bound(cc, everyone)
                with pytest.raises(BudgetExceededError):
                    td_min_at_most(cc, everyone, 1, budget=0)
            for kind, empty in (("star", False), ("con", False), ("con", True)):
                check_graph(g, kind, empty)
        refused = build_con_class(cycle_graph(9), False)
        for _ in range(2):
            with pytest.raises(BudgetExceededError):
                td_of(refused, 0, budget=0)

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_absent_columns_complement_the_instance_columns():
    for cc in engine_corpus():
        everything = cc.all_indices_mask
        assert len(cc.absent_columns) == cc.domain_size
        assert all(absent == everything & ~col for absent, col
                   in zip(cc.absent_columns, cc.instance_columns))
