import collections
import contextlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lattimin import (
    AxiomViolation,
    Representation,
    WeakOrder,
    check_axiom1,
    check_axiom2,
    check_axiom3,
    derive_pref_from_rep,
    dual_backward,
    dual_forward,
    enumerate_prime_filters,
    minimal_representation,
)
from lattimin.errors import LawViolation, TooLarge
from lattimin.lattice import BLOCK_ELEMENTS, Poset, downset_lattice, membership
from lattimin import preference
from lattimin.preference import (
    axioms12_hold,
    checked_worst_ranks,
    dense_ranks,
)
from lattimin.testkit import (
    derived_weak_order,
    random_distributive_lattice,
    random_weak_order,
)

from conftest import random_tables
from fixtures import B2, B2_A, B2_B, CHAIN3, W3
from oracles import (
    AxiomsNotSatisfied,
    NotAnIdeal,
    all_posets,
    axiom1_by_loop,
    axiom2_by_loop,
    axiom3_by_loop,
    enumerate_weak_orders,
    literal_dominance,
    nonzero,
    strict_upper_contour,
    trivializer_set,
    zero_class,
)


class TestAxiom1:
    def test_w3_clean(self):
        assert check_axiom1(CHAIN3, W3) == []

    def test_reversed_chain_violates(self):
        violations = check_axiom1(CHAIN3, WeakOrder((2, 1, 0)))
        assert (0, 1) in violations

    def test_total_indifference_always_clean(self):
        for L in (CHAIN3, B2):
            assert check_axiom1(L, WeakOrder((0,) * L.n)) == []

    def test_listing_cap_is_the_exact_count(self, monkeypatch):
        """check_axiom1 lists up to MAX_LISTED_VIOLATIONS pairs and refuses one
        more, on seeded lattices with random orders."""
        rng = random.Random(4)
        counts = set()
        for seed in range(200):
            L = random_distributive_lattice(5, seed)
            W = WeakOrder(random_weak_order(L.n, rng))
            pairs = check_axiom1(L, W)
            monkeypatch.setattr(preference, "MAX_LISTED_VIOLATIONS", len(pairs))
            assert check_axiom1(L, W) == pairs
            if pairs:
                monkeypatch.setattr(preference, "MAX_LISTED_VIOLATIONS", len(pairs) - 1)
                with pytest.raises(TooLarge, match=f"axiom 1 has {len(pairs)} violating pairs"):
                    check_axiom1(L, W)
            monkeypatch.undo()
            counts.add(len(pairs))
        assert 0 in counts and len(counts) >= 20


class TestAxiom2:
    def test_w3_clean(self):
        assert check_axiom2(CHAIN3, W3) == []

    def test_b2_join_violation(self):
        W = WeakOrder((0, 1, 1, 2))
        violations = check_axiom2(B2, W)
        assert (B2_A, B2_B, B2.top) in violations

    def test_total_indifference_clean(self):
        assert check_axiom2(B2, WeakOrder((0, 0, 0, 0))) == []

    def test_blocks_match_unchunked_expression(self):
        P = Poset(7)
        L = downset_lattice(P)  # B7: 128 elements, two blocks of a
        n = L.n
        rows = BLOCK_ELEMENTS // n**2  # values of a per block
        # Larger down-sets more preferred, which alone breaks nothing; then
        # two elements made the worst of all.
        ranks = [7 - bin(mask).count("1") for mask in P.downset_masks()]
        ranks[40] = ranks[100] = 8
        r = np.asarray(ranks)
        strict = r[:, None] < r[None, :]
        bad = strict[:, None, :] & strict[None, :, :] & (r[L.join][:, :, None] >= r)
        expected = [tuple(int(v) for v in w) for w in np.argwhere(bad)]
        got = check_axiom2(L, WeakOrder(ranks))
        assert got == expected
        assert min(a for a, _, _ in got) < rows <= max(a for a, _, _ in got)


class TestAxiom2Certificate:
    """check_axiom2 lists its triples only on the rows its certificate
    flags, and axioms12_hold reads the certificate alone; both against the
    literal triple loop, and check_axiom1 against the literal pair loop."""

    @staticmethod
    def assert_agrees(L, ranks):
        W = WeakOrder(ranks)
        expected = axiom2_by_loop(L, ranks)
        assert check_axiom2(L, W) == expected
        per_row = collections.Counter(a for a, _, _ in expected)
        counts = preference._axiom2_rows(L, np.asarray(ranks))
        assert counts.tolist() == [per_row[a] for a in range(L.n)]
        pairs = check_axiom1(L, W)
        assert pairs == axiom1_by_loop(L, ranks)
        assert axioms12_hold(L, W) == (not pairs and not expected)
        return expected

    def test_every_small_lattice_under_every_rank_vector(self):
        lattices = {}
        for k in range(5):
            for P in all_posets(k):
                L = downset_lattice(P)
                if L.n <= 5:
                    lattices.setdefault(L.join.tobytes(), L)
        violated = 0
        for L in lattices.values():
            for ranks in itertools.product(range(L.n), repeat=L.n):
                violated += bool(self.assert_agrees(L, ranks))
        assert len(lattices) == 8 and violated >= 1000

    def test_seeded_lattices_and_orders(self):
        rng = random.Random(17)
        kinds = collections.Counter()
        for seed in range(2000):
            L = random_distributive_lattice(4, seed)
            orders = [derived_weak_order(L, seed).ranks]
            orders += [[rng.randint(-3, 3) for _ in range(L.n)] for _ in range(2)]
            for ranks in orders:
                violations = self.assert_agrees(L, ranks)
                kinds[bool(violations), axioms12_hold(L, WeakOrder(ranks))] += 1
        assert kinds[True, False] >= 1000 and kinds[False, True] >= 1000, kinds
        assert kinds[False, False] >= 100, kinds

    def test_bottom_ranked_strictly_best_lies_in_no_violation(self):
        """With bottom ranked strictly best, the whole-lattice lists are the
        lists of the literal loops on A minus bottom, as
        duality_equivalence_report relies on."""
        rng = random.Random(5)
        moved = 0
        for seed in range(300):
            L = random_distributive_lattice(4, seed)
            ranks = [rng.randint(-3, 3) for _ in range(L.n)]
            moved += ranks[L.bottom] > min(ranks)
            ranks[L.bottom] = min(ranks) - 1
            W, nz = WeakOrder(ranks), nonzero(L)
            assert check_axiom1(L, W) == axiom1_by_loop(L, ranks, nz)
            assert check_axiom2(L, W) == axiom2_by_loop(L, ranks, nz)
        assert moved >= 100

    def test_upper_bound_is_not_strict(self):
        # r(b) == r(A | B) > max(r(A), r(B)): b = top and b = bottom violate
        ranks = (2, 1, 1, 2)
        assert (B2_A, B2_B) == (1, 2)
        assert self.assert_agrees(B2, ranks) == [(1, 2, 0), (1, 2, 3), (2, 1, 0), (2, 1, 3)]

    def test_lower_bound_is_strict(self):
        # r(bottom) == max(r(A), r(B)) == 2: bottom does not violate, top does
        assert self.assert_agrees(B2, (2, 1, 2, 3)) == [(1, 2, 3), (2, 1, 3)]

    def test_listing_cap(self, monkeypatch):
        W = WeakOrder((2, 1, 1, 2))  # four triples
        monkeypatch.setattr(preference, "MAX_LISTED_VIOLATIONS", 4)
        assert len(check_axiom2(B2, W)) == 4
        monkeypatch.setattr(preference, "MAX_LISTED_VIOLATIONS", 3)
        with pytest.raises(TooLarge, match="axiom 2 has 4 violating triples"):
            check_axiom2(B2, W)
        assert not axioms12_hold(B2, W)  # the verdict lists no triple


class TestMaximinCertificate:
    """_maximin, the maximin identity r(a) = max(r(bottom), max r(j) over
    j in J(L) below a), holds iff the literal loops find no axiom 1 pair and
    no axiom 2 triple, on raw ranks and with bottom ranked strictly best;
    the scans run only where it fails or L is lawless."""

    @staticmethod
    def decide(L, ranks):
        """The certificate's verdicts on ranks and on ranks with bottom
        ranked strictly best, each checked against the literal loops."""
        best = list(ranks)
        best[L.bottom] = min(ranks) - 1
        verdicts = []
        for r in (list(ranks), best):
            holds = not axiom1_by_loop(L, r) and not axiom2_by_loop(L, r)
            assert preference._maximin(L, np.asarray(r)) == holds, (L.meet.tolist(), r)
            verdicts.append(holds)
        return tuple(verdicts)

    def test_every_rank_vector_on_lattices_of_at_most_five_elements(self):
        lattices = {}
        for k in range(5):
            for P in all_posets(k):
                L = downset_lattice(P)
                if L.n <= 5:
                    lattices.setdefault(L.join.tobytes(), L)
        kinds = collections.Counter()
        for L in lattices.values():
            for ranks in itertools.product(range(L.n), repeat=L.n):
                kinds.update(self.decide(L, ranks))
        assert len(lattices) == 8 and kinds[True] >= 1000 and kinds[False] >= 10000, kinds

    def test_every_poset_of_at_most_four_points_under_seeded_orders(self):
        rng = random.Random(31)
        kinds = collections.Counter()
        for k in range(5):
            for P in all_posets(k):
                L = downset_lattice(P)
                for ranks in (derived_weak_order(L, rng.randrange(1 << 16)).ranks,
                              [rng.randint(-3, 3) for _ in range(L.n)]):
                    kinds.update(self.decide(L, ranks))
        assert kinds[True] >= 400 and kinds[False] >= 400, kinds

    def test_seeded_lattices_under_random_and_derived_orders(self):
        rng = random.Random(32)
        kinds = collections.Counter()
        for seed in range(300):
            L = random_distributive_lattice(5, seed)
            for ranks in (derived_weak_order(L, seed).ranks, random_weak_order(L.n, rng),
                          [rng.randint(-3, 3) for _ in range(L.n)]):
                kinds.update(self.decide(L, ranks))
        assert kinds[True] >= 800 and kinds[False] >= 800, kinds

    def test_scans_run_only_where_the_certificate_fails(self, monkeypatch):
        entered = []
        for name in ("_axiom1_pairs", "_axiom2_rows"):
            scan = getattr(preference, name)
            monkeypatch.setattr(preference, name,
                                lambda L, r, scan=scan: entered.append(L) or scan(L, r))
        rng = random.Random(33)
        kinds = collections.Counter()
        for seed in range(150):
            L = random_tables(seed) if seed % 3 == 0 else random_distributive_lattice(5, seed)
            W = (derived_weak_order(L, seed) if seed % 3 == 1
                 else WeakOrder(random_weak_order(L.n, rng)))
            holds = preference._maximin(L, np.asarray(W.ranks))
            entered.clear()
            check_axiom1(L, W)
            check_axiom2(L, W)
            axioms12_hold(L, W)
            with contextlib.suppress(AxiomViolation, LawViolation):
                minimal_representation(L, W)
            assert bool(entered) == (not holds), seed
            kinds[L.birkhoff is None, holds] += 1
        assert kinds[False, True] >= 30 and kinds[False, False] >= 30, kinds
        assert kinds[True, False] >= 30 and not kinds[True, True], kinds


class TestAxiom3:
    def test_w3_shares_trivializers_between_half_and_one(self):
        # 1/2 and 1 are both trivialized exactly by {0}, yet W3 ranks them
        # apart, so the congruence axiom fails on this fixture.
        assert trivializer_set(CHAIN3, W3, 1) == trivializer_set(CHAIN3, W3, 2) == {0}
        assert check_axiom3(CHAIN3, W3) == [(1, 2)]

    def test_collapsed_chain_passes(self):
        assert check_axiom3(CHAIN3, WeakOrder((0, 1, 1))) == []

    def test_boolean_axioms12_imply_axiom3(self):
        # relative complements exist everywhere in B2, so any order passing
        # the first two axioms passes the third
        for ranks in enumerate_weak_orders(4):
            W = WeakOrder(ranks)
            if axioms12_hold(B2, W):
                assert check_axiom3(B2, W) == []


    def test_matches_loop_oracle(self):
        rng = random.Random(3)
        sizes = []
        for seed in range(600):
            if seed % 3 == 0:
                L = random_tables(seed)
                W = WeakOrder(random_weak_order(L.n, rng))
            else:
                L = random_distributive_lattice(5, seed)
                if seed % 3 == 1:
                    W = derived_weak_order(L, seed)
                else:
                    W = WeakOrder(random_weak_order(L.n, rng))
            fast = check_axiom3(L, W)
            assert fast == axiom3_by_loop(L, W), seed
            sizes.append(len(fast))
        assert sizes.count(0) >= 100 and sum(k >= 3 for k in sizes) >= 50

    def test_listing_cap_is_the_exact_count(self, monkeypatch):
        """The count per key, C(size, 2) less C(count, 2) per rank, equals the
        listing's length: check_axiom3 lists up to MAX_LISTED_VIOLATIONS pairs and
        refuses one more."""
        rng = random.Random(5)
        counts = set()
        for seed in range(300):
            L = random_distributive_lattice(5, seed)
            W = (derived_weak_order(L, seed) if seed % 2
                 else WeakOrder(random_weak_order(L.n, rng)))
            pairs = check_axiom3(L, W)
            monkeypatch.setattr(preference, "MAX_LISTED_VIOLATIONS", len(pairs))
            assert check_axiom3(L, W) == pairs
            if pairs:
                monkeypatch.setattr(preference, "MAX_LISTED_VIOLATIONS", len(pairs) - 1)
                with pytest.raises(TooLarge, match=f"axiom 3 has {len(pairs)} violating pairs"):
                    check_axiom3(L, W)
            monkeypatch.undo()
            counts.add(len(pairs))
        assert 0 in counts and len(counts) >= 15

    def test_matches_loop_oracle_on_128_elements(self):
        L = downset_lattice(Poset(8, ((0, 1), (1, 2))))
        W = derived_weak_order(L, 208)
        fast = check_axiom3(L, W)
        assert len(fast) == 256 and fast == axiom3_by_loop(L, W)


class TestStrictUpperContour:
    def test_w3_contour_of_one(self):
        rep = strict_upper_contour(CHAIN3, W3, 2)
        assert rep.members == {0, 1} and rep.is_ideal and rep.proper

    def test_w3_contour_of_bottom(self):
        rep = strict_upper_contour(CHAIN3, W3, 0)
        assert rep.members == {0} and rep.is_ideal and rep.proper

    def test_b2_a_then_b_ranking(self):
        W = WeakOrder((0, 1, 2, 2))
        rep = strict_upper_contour(B2, W, B2_B)
        assert rep.members == {0, B2_A} and rep.is_ideal and rep.proper

    def test_assert_axioms_refuted(self):
        with pytest.raises(AxiomsNotSatisfied):
            strict_upper_contour(CHAIN3, WeakOrder((2, 1, 0)), 1, assert_axioms=True)

    def test_contours_are_proper_ideals_whenever_axioms_hold(self):
        for L in (CHAIN3, B2):
            for ranks in enumerate_weak_orders(L.n):
                W = WeakOrder(ranks)
                if axioms12_hold(L, W):
                    for a in range(L.n):
                        rep = strict_upper_contour(L, W, a)
                        assert rep.is_ideal and rep.proper


class TestZeroClass:
    def test_w3(self):
        rep = zero_class(CHAIN3, W3)
        assert rep.members == {0} and rep.maximum == 0 and rep.proper

    def test_half_collapsed(self):
        rep = zero_class(CHAIN3, WeakOrder((0, 0, 1)))
        assert rep.members == {0, 1} and rep.maximum == 1 and rep.proper

    def test_total_indifference_flagged_improper(self):
        rep = zero_class(B2, WeakOrder((0, 0, 0, 0)))
        assert rep.members == frozenset(range(B2.n))
        assert not rep.proper

    def test_non_ideal_raises(self):
        # bottom ~ top but not the atoms: not down-closed
        with pytest.raises(NotAnIdeal):
            zero_class(B2, WeakOrder((0, 1, 1, 0)))


class TestCheckedWorstRanks:
    def test_empty_set_scores_best_under_negative_ranks(self):
        sets = [frozenset(), frozenset({0}), frozenset({0, 1})]
        worst = checked_worst_ranks(membership(sets, 2), (-5, -3))
        assert worst[1:] == [-5, -3]
        assert worst[0] < -5

    def test_agrees_with_literal_dominance(self):
        rng = random.Random(11)
        for _ in range(200):
            k = rng.randint(0, 5)
            ranks = [rng.randint(-3, 3) for _ in range(k)]
            sets = [
                frozenset(x for x in range(k) if rng.random() < 0.5)
                for _ in range(rng.randint(0, 5))
            ]
            worst = checked_worst_ranks(membership(sets, k), ranks)
            rel = literal_dominance(sets, ranks)
            for a in range(len(sets)):
                for b in range(len(sets)):
                    assert rel[a][b] == (worst[a] <= worst[b])

    def test_dense_ranks_keep_order(self):
        assert dense_ranks([5, -1, 5, 2]) == (2, 0, 2, 1)
        assert dense_ranks([]) == ()

    def test_cross_check_fires_on_a_wrong_fast_path(self, monkeypatch):
        # A fast path that reverses every score must be caught by the
        # literal evaluation in each of the three callers.
        fast = preference._worst_ranks
        monkeypatch.setattr(
            preference, "_worst_ranks", lambda sets, ranks: [-w for w in fast(sets, ranks)]
        )
        S = enumerate_prime_filters(CHAIN3)
        with pytest.raises(RuntimeError, match="literal formula"):
            dual_forward(CHAIN3, S, W3)
        with pytest.raises(RuntimeError, match="literal formula"):
            dual_backward(CHAIN3, S, WeakOrder((1, 0)))
        R = Representation(2, (frozenset(), frozenset({1}), frozenset({0, 1})), (1, 0))
        with pytest.raises(RuntimeError, match="literal formula"):
            derive_pref_from_rep(R)


class TestFirstDisagreement:
    @staticmethod
    def by_loop(r, s):
        for a in range(len(r)):
            for b in range(len(r)):
                if (r[a] <= r[b]) != (s[a] <= s[b]):
                    return a, b
        return None

    def test_agrees_with_pair_loop(self):
        """Random rank vectors, half of them s an order-preserving
        relabelling of r; s both as a list and an array."""
        rng = random.Random(5)
        found = set()
        for _ in range(400):
            n = rng.randint(0, 9)
            r = [rng.randint(-3, 3) for _ in range(n)]
            if rng.random() < 0.5:
                s = [rng.randint(-3, 3) for _ in range(n)]
            else:
                lift = sorted(rng.sample(range(-50, 50), 7))
                s = [lift[v + 3] for v in r]  # same order as r
                if n and rng.random() < 0.3:
                    s[rng.randrange(n)] += rng.choice((-1, 1))
            expected = self.by_loop(r, s)
            found.add(expected is None)
            for s_arg in (s, np.array(s, dtype=np.int64)):
                assert preference.first_disagreement(r, s_arg) == expected
        assert found == {True, False}

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_none_iff_dense_ranks_are_equal(self, data):
        """first_disagreement finds no pair exactly where the dense ranks
        agree, which verify_representation and roundtrip_check test first;
        s is often r under an increasing relabelling, negative, repeated and
        non-dense values included, and r and s each a tuple or an array."""
        values = st.integers(-6, 6)
        r = data.draw(st.lists(values, max_size=8))
        if data.draw(st.booleans()):
            lift = sorted(data.draw(st.sets(st.integers(-99, 99), min_size=13, max_size=13)))
            s = [lift[v + 6] for v in r]
            if r and data.draw(st.booleans()):
                s[data.draw(st.integers(0, len(r) - 1))] += data.draw(st.sampled_from((-1, 1)))
        else:
            s = data.draw(st.lists(values, min_size=len(r), max_size=len(r)))
        same = dense_ranks(r) == dense_ranks(s)
        for u in (tuple(r), np.array(r, dtype=np.int64)):
            for v in (tuple(s), np.array(s, dtype=np.int64)):
                assert (preference.first_disagreement(u, v) is None) == same
                assert preference.first_disagreement(u, v) == self.by_loop(r, s)

    def test_late_disagreement_at_1024_items(self):
        """The only disagreeing pair is (b, a), the last two elements,
        second to last of the n * n pairs."""
        rng = random.Random(6)
        r = [rng.randint(0, 100) for _ in range(1024)]
        a, b = 1022, 1023
        r[a], r[b] = 200, 201  # the two worst, a strictly better than b
        s = list(r)
        s[a] = s[b]  # now b <= a too
        expected = self.by_loop(r, s)
        assert expected == (b, a)
        assert preference.first_disagreement(r, s) == expected
        assert preference.first_disagreement(r, r) is None
