import collections
import itertools
import random

from lattimin import (
    WeakOrder,
    dual_backward,
    dual_forward,
    enumerate_prime_filters,
    roundtrip_check,
    duality_equivalence_report,
)
from lattimin.lattice import downset_lattice, row_sets
from lattimin.preference import dense_ranks
from lattimin.testkit import (
    derived_weak_order,
    random_distributive_lattice,
    random_weak_order,
)

from fixtures import B2, B2_A, B2_B, CHAIN2, CHAIN3, W3
from oracles import (
    all_posets,
    axiom1_by_loop,
    axiom2_by_loop,
    enumerate_weak_orders,
    filter_witness,
    literal_dominance,
    nonzero,
)


def forward_literal(S, W):
    """rel[i][j] iff every member of filter j is matched by a member of
    filter i ranked at least as well: dominance on negated ranks, with the
    roles of i and j swapped."""
    rel = literal_dominance(S.points, [-r for r in W.ranks])
    return [list(col) for col in zip(*rel)]


class TestDualForward:
    def test_chain3_w3(self):
        S = enumerate_prime_filters(CHAIN3)
        fwd = dual_forward(CHAIN3, S, W3)
        # point 0 = {1}, point 1 = {1/2, 1}; the richer filter wins
        assert fwd.ranks == (1, 0)

    def test_chain2_single_point_reflexive(self):
        S = enumerate_prime_filters(CHAIN2)
        fwd = dual_forward(CHAIN2, S, WeakOrder((0, 0)))
        assert fwd.ranks == (0,)
        assert forward_literal(S, WeakOrder((0, 0))) == [[True]]

    def test_b2_atom_ranking(self):
        S = enumerate_prime_filters(B2)
        W = WeakOrder((0, 0, 1, 1))  # a better than b and top
        fwd = dual_forward(B2, S, W)
        assert fwd.ranks[0] < fwd.ranks[1]  # F_a strictly above F_b


class TestDualBackward:
    def test_chain3_recovers_strict(self):
        S = enumerate_prime_filters(CHAIN3)
        back = dual_backward(CHAIN3, S, WeakOrder((1, 0)))  # y above x
        assert back == WeakOrder((0, 1, 2))

    def test_chain2_total_indifference(self):
        S = enumerate_prime_filters(CHAIN2)
        assert dual_backward(CHAIN2, S, WeakOrder((0,))) == WeakOrder((0, 1))

    def test_b2_top_ties_with_worse_atom(self):
        S = enumerate_prime_filters(B2)
        back = dual_backward(B2, S, WeakOrder((0, 1)))  # F_a above F_b
        assert back.strictly_prefers(B2.bottom, B2_A)
        assert back.strictly_prefers(B2_A, B2_B)
        assert back.indifferent(B2.top, B2_B)


class TestRoundtrip:
    def test_w3_agrees(self):
        cert = roundtrip_check(CHAIN3, W3)
        assert cert.agreement and cert.counterexample is None

    def test_axiom1_violation_forces_disagreement(self):
        cert = roundtrip_check(CHAIN3, WeakOrder((0, 2, 1)))  # 1 above 1/2
        assert not cert.agreement
        assert cert.counterexample == (1, 2)

    def test_counterexample_under_non_dense_ranks(self):
        """A above top breaks axiom 1; with bottom ranked strictly best the
        first pair that the round trip gets wrong is (A, top)."""
        assert roundtrip_check(B2, WeakOrder((5, -2, 9, 9))).counterexample is None
        cert = roundtrip_check(B2, WeakOrder((5, 9, -2, 3)))
        assert not cert.agreement and cert.counterexample == (B2_A, B2.top)

    def test_chain2_trivial(self):
        assert roundtrip_check(CHAIN2, WeakOrder((0, 0))).agreement


class TestFilterWitness:
    def test_half_over_one(self):
        S = enumerate_prime_filters(CHAIN3)
        assert filter_witness(CHAIN3, S, W3, 1, 2) == {2}

    def test_one_over_half_absent(self):
        S = enumerate_prime_filters(CHAIN3)
        assert filter_witness(CHAIN3, S, W3, 2, 1) is None

    def test_reflexive_witness_exists(self):
        for L in (CHAIN3, B2):
            S = enumerate_prime_filters(L)
            for ranks in enumerate_weak_orders(L.n):
                W = WeakOrder(ranks)
                rep = duality_equivalence_report(L, W)
                if rep.axioms_hold:
                    for a in nonzero(L):
                        assert filter_witness(L, S, W, a, a) is not None


class TestDualityEquivalence:
    def test_exhaustive_on_small_fixtures(self):
        for L in (CHAIN2, CHAIN3, B2):
            for ranks in enumerate_weak_orders(L.n):
                rep = duality_equivalence_report(L, WeakOrder(ranks))
                assert rep.equivalent

    def test_axioms_hold_on_the_nonzero_elements(self):
        """axioms_hold, checked on the whole lattice with bottom ranked
        strictly best, is the literal verdict of axioms 1 and 2 on A minus
        bottom: on every down-set lattice of at most 5 elements under every
        rank vector, and on seeded lattices under derived and random orders,
        some of which rank bottom worse than another element."""
        lattices = {}
        for k in range(5):
            for P in all_posets(k):
                L = downset_lattice(P)
                if L.n <= 5:
                    lattices.setdefault(L.join.tobytes(), L)
        cases = [(L, ranks) for L in lattices.values()
                 for ranks in itertools.product(range(L.n), repeat=L.n)]
        rng = random.Random(29)
        for seed in range(300):
            L = random_distributive_lattice(4, seed)
            cases.append((L, derived_weak_order(L, seed).ranks))
            cases.append((L, [rng.randint(-3, 3) for _ in range(L.n)]))
        verdicts = collections.Counter()
        for L, ranks in cases:
            nz = nonzero(L)
            holds = not axiom1_by_loop(L, ranks, nz) and not axiom2_by_loop(L, ranks, nz)
            assert duality_equivalence_report(L, WeakOrder(ranks)).axioms_hold == holds
            bottom_not_best = ranks[L.bottom] > min(ranks)
            verdicts[holds, bottom_not_best] += 1
        assert len(lattices) == 8 and min(verdicts.values()) >= 100, verdicts

    def test_forward_always_total_preorder(self):
        for seed in range(40):
            L = random_distributive_lattice(4, seed)
            S = enumerate_prime_filters(L)
            for ranks in enumerate_weak_orders(min(L.n, 4)):
                W = WeakOrder(tuple(ranks[i % len(ranks)] for i in range(L.n)))
                fwd = dual_forward(L, S, W)
                rel = forward_literal(S, W)
                p = len(S.points)
                for i in range(p):
                    assert rel[i][i]
                    for j in range(p):
                        assert rel[i][j] or rel[j][i]
                        assert rel[i][j] == fwd.weakly_prefers(i, j)

    def test_backward_matches_literal_dominance(self):
        """On the whole lattice, bottom included: sigma(bottom) = ∅ is
        dominated by every set and dominates no other."""
        for seed in range(40):
            L = random_distributive_lattice(4, seed)
            S = enumerate_prime_filters(L)
            V = WeakOrder(tuple((i * 7 + seed) % 3 for i in range(len(S.points))))
            back = dual_backward(L, S, V)
            rel = literal_dominance(row_sets(S.member.T), V.ranks)
            for a in range(L.n):
                for b in range(L.n):
                    assert rel[a][b] == back.weakly_prefers(a, b)

    def test_witness_matches_per_pair_filter_witness(self):
        rng = random.Random(11)
        for seed in range(300):
            L = random_distributive_lattice(5, seed)
            S = enumerate_prime_filters(L)
            if seed % 2:
                W = derived_weak_order(L, seed)
            else:
                W = WeakOrder(random_weak_order(L.n, rng))
            nz = nonzero(L)
            per_pair = all(
                (filter_witness(L, S, W, a, b) is not None) == W.weakly_prefers(a, b)
                for a in nz
                for b in nz
            )
            assert duality_equivalence_report(L, W).witness_matches == per_pair


class TestWholeLattice:
    """roundtrip_check and dual_backward run on the whole lattice with
    bottom ranked strictly best, and give the answers of their definitions
    on A minus bottom, evaluated here by plain loops."""

    @staticmethod
    def on_nonzero(L, W):
        """(backward ranks on A minus bottom as a dict, first disagreeing
        pair of A minus bottom or None), by loops over the points."""
        S = enumerate_prime_filters(L)
        fwd = dual_forward(L, S, W).ranks
        nz = nonzero(L)
        worst = [max(fwd[p] for p, G in enumerate(S.points) if a in G) for a in nz]
        back = dict(zip(nz, dense_ranks(worst)))
        for a in nz:
            for b in nz:
                if W.weakly_prefers(a, b) != (back[a] <= back[b]):
                    return back, (a, b)
        return back, None

    def test_posets_up_to_four_points(self):
        rng = random.Random(30)
        kinds = collections.Counter()
        for k in range(5):
            for seed, P in enumerate(all_posets(k)):
                L = downset_lattice(P)
                derived = list(derived_weak_order(L, seed).ranks)
                orders = [derived, derived[:]]
                orders[1][L.bottom] = rng.randint(1, L.n)  # bottom not best
                orders += [[rng.randint(-2, 2) for _ in range(L.n)] for _ in range(2)]
                for ranks in orders:
                    W = WeakOrder(ranks)
                    back, counterexample = self.on_nonzero(L, W)
                    cert = roundtrip_check(L, W)
                    assert (cert.agreement, cert.counterexample) == (
                        counterexample is None, counterexample)
                    S = enumerate_prime_filters(L)
                    assert dual_backward(L, S, cert.forward).ranks == tuple(
                        0 if a == L.bottom else back[a] + 1 for a in range(L.n))
                    kinds[counterexample is None, ranks[L.bottom] > min(ranks)] += 1
        assert min(kinds.values()) >= 100 and len(kinds) == 4, kinds
