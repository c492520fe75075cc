import collections
import random

import numpy as np
import pytest

from lattimin import (
    AxiomViolation,
    Congruence,
    IncompatiblePartition,
    Lattice,
    LawViolation,
    LatticeHom,
    NotAnIdeal,
    NotARepresentation,
    Refutation,
    Representation,
    WeakOrder,
    check_axiom1,
    check_axiom2,
    check_axiom3,
    check_hom,
    congruence_beta_dprime,
    congruence_beta_prime,
    derive_pref_from_rep,
    factor_check,
    minimal_representation,
    quotient,
    verify_representation,
)
from lattimin import representation as representation_module
from lattimin.duality import dual_forward
from lattimin.fixtures import B2, B2_A, B2_B, CHAIN2, CHAIN3, W3, chain
from lattimin.lattice import Poset, build_lattice, downset_lattice
from lattimin.preference import zero_class
from lattimin.spectrum import classify_subset, enumerate_prime_filters, point_mask
from lattimin.representation import (
    check_representation_hom,
    congruence_from_classes,
    kernel,
)
from lattimin.testkit import (
    all_posets,
    congruence_by_loop,
    derived_weak_order,
    duplicate_outcome,
    enumerate_weak_orders,
    kernel_split_by_loop,
    quotient_by_loop,
    random_distributive_lattice,
    random_representation,
    trivializer_classes_by_loop,
)

from conftest import mask_family_by_loop, random_tables, same_tables


class TestBetaPrime:
    def test_chain3_trivial_ideal_gives_identity(self):
        assert congruence_beta_prime(CHAIN3, {0}).classes == (0, 1, 2)

    def test_chain3_half_ideal_merges(self):
        assert congruence_beta_prime(CHAIN3, {0, 1}).classes == (0, 0, 1)

    def test_b2_atom_ideal(self):
        C = congruence_beta_prime(B2, {0, B2_A})
        assert C.members(C.cls(0)) == {0, B2_A}
        assert C.members(C.cls(B2.top)) == {B2_B, B2.top}

    def test_non_ideal_rejected(self):
        with pytest.raises(NotAnIdeal):
            congruence_beta_prime(B2, {0, B2.top})


class TestBetaDoublePrime:
    def test_chain3_trivial_ideal_merges_nonzero(self):
        # 1/2 and 1 share the trivializer set {0}, so the coarse congruence
        # collapses them even for the smallest ideal
        assert congruence_beta_dprime(CHAIN3, {0}).classes == (0, 1, 1)

    def test_b2_trivial_ideal_identity(self):
        assert congruence_beta_dprime(B2, {0}).classes == (0, 1, 2, 3)

    def test_whole_lattice_is_its_own_ideal(self):
        C = congruence_beta_dprime(B2, set(B2.elements()))
        assert C.num_classes == 1

    def test_beta_prime_refines_beta_dprime(self):
        rng = random.Random(5)
        for seed in range(60):
            L = random_distributive_lattice(4, seed)
            x = rng.randrange(L.n)
            I = L.downset(x)
            fine = congruence_beta_prime(L, I)
            coarse = congruence_beta_dprime(L, I)
            for a in L.elements():
                for b in L.elements():
                    if fine.cls(a) == fine.cls(b):
                        assert coarse.cls(a) == coarse.cls(b)

    def test_bottom_class_equals_ideal_on_random_input(self):
        for seed in range(60):
            L = random_distributive_lattice(4, seed)
            x = random.Random(seed).randrange(L.n)
            I = L.downset(x)
            for C in (congruence_beta_prime(L, I), congruence_beta_dprime(L, I)):
                assert C.members(C.cls(L.bottom)) == I


    def test_classes_match_loop_oracle(self):
        P8 = downset_lattice(Poset(8, ((0, 1), (1, 2))))  # 128 elements
        cases = [(P8, zero_class(P8, derived_weak_order(P8, seed)).members)
                 for seed in (200, 208)]
        for seed in range(60):
            L = random_distributive_lattice(5, seed)
            cases += [(L, L.downset(m)) for m in L.elements()]
            cases.append((L, zero_class(L, derived_weak_order(L, seed)).members))
        counts = set()
        for L, I in cases:
            C = congruence_beta_dprime(L, I)
            assert C.classes == trivializer_classes_by_loop(L, I)
            counts.add(C.num_classes)
        assert len(counts) >= 4


    def test_law_broken_tables_match_loop_oracle(self):
        """On tables with overwritten entries, the principal down-sets that
        are still ideals give the same classes, or the same incompatible
        cell, as the loop keys."""
        outcomes = set()
        for seed in range(1, 400, 2):
            L = random_tables(seed)
            for m in L.elements():
                I = L.downset(m)
                if not classify_subset(L, I).is_ideal:
                    continue
                try:
                    fast = congruence_beta_dprime(L, I).classes
                except IncompatiblePartition as e:
                    with pytest.raises(IncompatiblePartition) as slow:
                        congruence_by_loop(L, trivializer_classes_by_loop(L, I))
                    assert slow.value.witness == e.witness
                    outcomes.add(e.op)
                except NotAnIdeal:
                    outcomes.add("bottom class")
                else:
                    assert fast == trivializer_classes_by_loop(L, I)
                    outcomes.add("congruence")
        assert {"congruence", "meet", "join"} <= outcomes


class TestRepresentatives:
    def test_least_element_of_each_class(self):
        rng = random.Random(5)
        for _ in range(300):
            k = rng.randint(1, 5)
            perm = rng.sample(range(k), k)  # class ids need not follow first appearance
            classes = [perm[c] for c in range(k)] + [rng.randrange(k) for _ in range(10)]
            rng.shuffle(classes)
            expected = tuple(classes.index(c) for c in range(k))
            assert Congruence(classes).representatives == expected


class TestQuotient:
    def test_identity_congruence(self):
        Q, h = quotient(CHAIN3, Congruence((0, 1, 2)))
        assert same_tables(Q, CHAIN3) and h.mapping == (0, 1, 2)

    def test_chain3_collapse(self):
        Q, h = quotient(CHAIN3, Congruence((0, 0, 1)))
        assert same_tables(Q, CHAIN2)

    def test_b2_collapse(self):
        Q, _ = quotient(B2, Congruence((0, 0, 1, 1)))
        assert same_tables(Q, CHAIN2)

    def test_incompatible_partition_rejected(self):
        # merging bottom with an atom but not the other pair breaks joins
        with pytest.raises(IncompatiblePartition) as ei:
            quotient(B2, Congruence((0, 0, 1, 2)))
        assert len(ei.value.witness) == 4

    def test_congruence_check_matches_loop_oracle(self):
        def outcome(check, L, classes):
            try:
                return check(L, classes)
            except IncompatiblePartition as e:
                return e.op, e.witness

        rng = random.Random(5)
        outcomes = set()
        for seed in range(400):
            L = random_distributive_lattice(5, seed)
            if seed % 2:  # a congruence: classes of a | m for a fixed m
                m = rng.randrange(L.n)
                classes = [int(L.join[a, m]) for a in L.elements()]
            else:
                k = rng.randint(1, L.n)
                classes = [rng.randrange(k) for _ in L.elements()]
            fast = outcome(congruence_from_classes, L, classes)
            assert fast == outcome(congruence_by_loop, L, classes), seed
            outcomes.add(fast[0] if isinstance(fast, tuple) else "congruence")
        assert outcomes == {"meet", "join", "congruence"}

    def test_tables_and_labels_match_loop_oracle(self):
        for seed in range(60):
            L = random_distributive_lattice(5, seed)
            unlabeled = Lattice(L.meet, L.join, L.bottom, L.top)
            for m in L.elements():
                I = L.downset(m)
                for C in (congruence_beta_prime(L, I), congruence_beta_dprime(L, I)):
                    for K in (L, unlabeled):
                        Q, h = quotient(K, C)
                        meet, join, labels = quotient_by_loop(K, C)
                        assert Q.meet.tolist() == meet and Q.join.tolist() == join
                        assert Q.labels == labels and h.mapping == C.classes

    def test_law_broken_tables_match_loop_oracle(self):
        """Quotients of tables with overwritten entries that are lawful
        again."""
        compared = 0
        for seed in range(1, 400, 2):
            L = random_tables(seed)
            for m in L.elements():
                try:
                    C = congruence_from_classes(L, [int(L.join[a, m]) for a in L.elements()])
                    Q, _ = quotient(L, C)
                except (IncompatiblePartition, LawViolation):
                    continue
                meet, join, _ = quotient_by_loop(L, C)
                assert Q.meet.tolist() == meet and Q.join.tolist() == join
                compared += 1
        assert compared >= 100

    def test_kernel_of_projection_is_congruence(self):
        C = Congruence((0, 0, 1))
        Q, h = quotient(CHAIN3, C)
        assert kernel(h).classes == C.classes


class TestMinimalRepresentation:
    def test_chain3_w3(self):
        R = minimal_representation(CHAIN3, W3)
        assert R.outcome_count == 2
        assert sorted(R.sigma_map[1]) == [1]
        assert sorted(R.sigma_map[2]) == [0, 1]
        assert R.outcome_ranks == (1, 0)  # richer filter strictly preferred

    def test_chain2(self):
        R = minimal_representation(CHAIN2, WeakOrder((0, 1)))
        assert R.outcome_count == 1 and R.sigma_map[1] == {0}

    def test_zero_class_collapse(self):
        R = minimal_representation(CHAIN3, WeakOrder((0, 0, 1)))
        assert R.outcome_count == 1
        assert R.sigma_map[1] == frozenset()
        assert R.sigma_map[2] == {0}

    def test_axiom_violation_rejected(self):
        with pytest.raises(AxiomViolation):
            minimal_representation(CHAIN3, WeakOrder((2, 1, 0)))

    def test_total_indifference_collapses_to_empty_outcome_set(self):
        R = minimal_representation(B2, WeakOrder((0, 0, 0, 0)))
        assert R.outcome_count == 0
        ok, _ = verify_representation(B2, WeakOrder((0, 0, 0, 0)), R)
        assert ok


def minimal_representation_by_quotient(L, W):
    """The synthesis written out over a built L/θ: quotient, L/θ's own
    spectrum, and dual_forward on L/θ."""
    C = (congruence_beta_prime if check_axiom3(L, W) else congruence_beta_dprime)(
        L, zero_class(L, W).members)
    Q, h = quotient(L, C)
    S = enumerate_prime_filters(Q)
    fwd = dual_forward(Q, S, WeakOrder([W.ranks[r] for r in C.representatives]))
    return Representation(len(S.points), S.member.T[list(h.mapping)], fwd.ranks)


def permuted(L, rng):
    """L with its elements renumbered by a random permutation."""
    perm = np.array(rng.sample(range(L.n), L.n))
    inv = np.argsort(perm)
    return build_lattice(perm[L.meet[np.ix_(inv, inv)]], perm[L.join[np.ix_(inv, inv)]],
                         perm[L.bottom], perm[L.top])


class TestSynthesisOracle:
    """minimal_representation reads L/θ's states off L's spectrum; the
    quotient route must give the same representation, point order included."""

    @staticmethod
    def agree(L, W):
        if check_axiom1(L, W) or check_axiom2(L, W):
            return None
        R = minimal_representation(L, W)
        assert R == minimal_representation_by_quotient(L, W), (L.meet.tolist(), W.ranks)
        return bool(check_axiom3(L, W))

    def test_every_small_poset(self):
        branches = collections.Counter()
        for k in range(5):
            for P in all_posets(k):
                L = downset_lattice(P)
                orders = ([WeakOrder(r) for r in enumerate_weak_orders(L.n)] if L.n <= 5
                          else [derived_weak_order(L, seed) for seed in range(4)])
                for W in orders:
                    branches[self.agree(L, W)] += 1
        assert branches[True] >= 50 and branches[False] >= 500, branches

    def test_permuted_lattices(self):
        rng = random.Random(10)
        branches = collections.Counter()
        for seed in range(400):
            L = permuted(random_distributive_lattice(5, seed), rng)
            branches[self.agree(L, derived_weak_order(L, seed))] += 1
        assert branches[True] >= 20 and branches[False] >= 200, branches

    def test_indifference_check_reports_first_witness(self, monkeypatch):
        """A congruence whose classes mix ranks is refused, naming the first
        element ranked apart from its class representative."""
        L, W = chain(5), WeakOrder((0, 1, 2, 3, 4))
        C = Congruence((0, 0, 1, 1, 2))
        for name in ("congruence_beta_prime", "congruence_beta_dprime"):
            monkeypatch.setattr(representation_module, name, lambda L, I: C)
        with pytest.raises(AxiomViolation) as e:
            minimal_representation(L, W)
        assert e.value.violations == {"congruence-indifference": [(1, 0)]}

    def test_no_quotient_lattice_is_built(self, monkeypatch):
        lattices = [(L, derived_weak_order(L, seed))
                    for seed, L in enumerate([CHAIN3, B2, *map(downset_lattice, all_posets(3))])]

        def refuse(*args, **kwargs):
            pytest.fail("a lattice was built")

        monkeypatch.setattr(representation_module, "quotient", refuse)
        monkeypatch.setattr(representation_module, "build_lattice", refuse)
        for L, W in lattices:
            assert verify_representation(L, W, minimal_representation(L, W))[0]


class TestDerivePref:
    def test_roundtrip_through_minimal_rep(self):
        R = minimal_representation(CHAIN3, W3)
        derived = derive_pref_from_rep(R)
        assert derived.ranks == W3.ranks

    def test_equal_images_are_indifferent(self):
        R = Representation(2, (frozenset(), {0}, {0}, {0, 1}), (0, 1))
        derived = derive_pref_from_rep(R)
        assert derived.indifferent(1, 2)

    def test_worst_element_comparison(self):
        R = Representation(2, (frozenset(), {0}, {1}, {0, 1}), (0, 1))
        derived = derive_pref_from_rep(R)
        assert derived.strictly_prefers(1, 2)
        assert derived.indifferent(2, 3)


class TestRepresentationForm:
    """sigma is one read-only matrix, given as one or as sets; sigma_map is
    its frozenset view, and equality compares values."""

    def test_sets_and_matrix_give_equal_representations(self):
        sets = (frozenset(), {1}, {0, 1})
        matrix = np.array([[False, False], [False, True], [True, True]])
        R = Representation(2, sets, (1, 0))
        from_matrix = Representation(2, matrix, (1, 0))
        assert R == from_matrix == Representation(2, [[], [1], [1, 0]], (1, 0))
        assert not R.sigma.flags.writeable
        assert R.sigma_map == tuple(map(frozenset, sets))
        matrix[0, 0] = True  # the representation keeps its own copy
        assert from_matrix == R

    def test_integer_array_is_outcome_lists(self):
        """Only a bool matrix is read as membership; the rows of an integer
        array are outcomes, range-checked like any other sets."""
        R = Representation(2, np.array([[0, 0], [0, 1], [1, 1]]), (1, 0))
        assert R.sigma_map == (frozenset({0}), frozenset({0, 1}), frozenset({1}))
        for bad in (-1, 2):
            with pytest.raises(ValueError, match="outside range"):
                Representation(2, np.array([[bad, bad], [bad, 0], [0, 1]]), (1, 0))

    def test_equality_compares_every_field(self):
        R = Representation(2, ((), (1,), (0, 1)), (1, 0))
        assert R != Representation(2, ((), (0,), (0, 1)), (1, 0))
        assert R != Representation(2, ((), (1,), (0, 1)), (0, 1))
        assert R != Representation(3, ((), (1,), (0, 1)), (1, 0, 0))
        assert R != "R"


class TestVerifyRepresentation:
    def test_minimal_rep_verifies(self):
        R = minimal_representation(CHAIN3, W3)
        assert verify_representation(CHAIN3, W3, R) == (True, None)

    def test_reversed_outcome_order_fails(self):
        R = minimal_representation(CHAIN3, W3)
        flipped = Representation(
            R.outcome_count, R.sigma_map, tuple(reversed(R.outcome_ranks))
        )
        ok, counterexample = verify_representation(CHAIN3, W3, flipped)
        assert not ok and counterexample is not None

    def test_constant_order_with_constant_sigma(self):
        # the empty image is strictly best under worst-case comparison, so a
        # totally indifferent order needs the same image everywhere
        W = WeakOrder((0, 0, 0, 0))
        R = Representation(1, ({0}, {0}, {0}, {0}), (0,))
        ok, _ = verify_representation(B2, W, R)
        assert ok
        bad = Representation(1, (frozenset(), {0}, {0}, {0}), (0,))
        ok, counterexample = verify_representation(B2, W, bad)
        assert not ok and counterexample is not None


class TestFactorCheck:
    def test_identity_factoring(self):
        R = minimal_representation(CHAIN3, W3)
        hom = factor_check(CHAIN3, W3, R, R)
        assert isinstance(hom, LatticeHom) and check_hom(hom)
        assert hom.mapping == tuple(range(hom.source.n))

    def test_duplicated_outcome_factors(self):
        R = minimal_representation(CHAIN3, W3)
        R_hat = duplicate_outcome(R, 0)
        assert check_representation_hom(CHAIN3, R_hat)
        hom = factor_check(CHAIN3, W3, R_hat, R)
        assert isinstance(hom, LatticeHom) and check_hom(hom)
        assert set(hom.mapping) == set(range(hom.target.n))

    def test_finer_representation_merges_into_minimal(self):
        # under 1/2 ~ 1 the minimal rep has one point, but the full spectral
        # rep still distinguishes the two descriptions
        W = WeakOrder((0, 1, 1))
        R_min = minimal_representation(CHAIN3, W)
        assert R_min.outcome_count == 1
        R_hat = Representation(2, (frozenset(), {1}, {0, 1}), (0, 0))
        hom = factor_check(CHAIN3, W, R_hat, R_min)
        assert isinstance(hom, LatticeHom) and check_hom(hom)
        assert hom.source.n == 3 and hom.target.n == 2

    def test_refutation_when_kernel_not_included(self):
        W = WeakOrder((0, 1, 1))
        R_min = minimal_representation(CHAIN3, W)
        R_coarse = Representation(1, (frozenset(), {0}, {0}), (0,))
        R_fine = Representation(2, (frozenset(), {1}, {0, 1}), (0, 0))
        result = factor_check(CHAIN3, W, R_coarse, R_fine)
        assert isinstance(result, Refutation)
        assert result.witness == (1, 2)


    def test_non_hom_rejected(self):
        # swapping the images of 1/2 and 1 breaks meet and join
        R_bad = Representation(2, (frozenset(), {0, 1}, {1}), (0, 1))
        R_min = minimal_representation(CHAIN3, W3)
        for pair in ((R_bad, R_min), (R_min, R_bad)):
            with pytest.raises(NotARepresentation, match="not a bounded-lattice hom"):
                factor_check(CHAIN3, W3, *pair)

    def test_representation_of_another_order_rejected(self):
        R_min = minimal_representation(CHAIN3, W3)
        R_rev = Representation(2, R_min.sigma_map, tuple(reversed(R_min.outcome_ranks)))
        assert check_representation_hom(CHAIN3, R_rev)
        for pair in ((R_rev, R_min), (R_min, R_rev)):
            with pytest.raises(NotARepresentation, match="does not reproduce W"):
                factor_check(CHAIN3, W3, *pair)

    def test_refutation_witness_matches_loop_oracle(self):
        """Both argument orders of a random representation and the minimal
        one: the minimal one merges the most, so the swapped order refutes."""
        P8 = downset_lattice(Poset(8, ((0, 1), (1, 2))))  # 128 elements
        cases = [(P8, 208)] + [(random_distributive_lattice(5, s), s) for s in range(150)]
        witnesses = []
        for L, seed in cases:
            R = random_representation(L, seed)
            W = derive_pref_from_rep(R)
            R_min = minimal_representation(L, W)
            for R_other, R_to in ((R, R_min), (R_min, R)):
                result = factor_check(L, W, R_other, R_to)
                witness = result.witness if isinstance(result, Refutation) else None
                assert witness == kernel_split_by_loop(R_other, R_to), seed
                witnesses.append(witness)
        assert witnesses.count(None) >= 100 and len(set(witnesses)) >= 10


    def test_image_lattices_and_hom_match_mask_family_loop(self):
        """The image lattices and the hom equal the lattices of the sigma
        bitmasks, built pair by pair, on seeded representations with one
        outcome duplicated, factored through the minimal one."""
        P8 = downset_lattice(Poset(8, ((0, 1), (1, 2))))  # 128 elements
        cases = [(P8, 208)] + [(random_distributive_lattice(5, s), s) for s in range(150)]
        homs = 0
        for L, seed in cases:
            rng = random.Random(seed)
            R = random_representation(L, seed)
            W = derive_pref_from_rep(R)
            R_min = minimal_representation(L, W)
            for R_other in (R, R_min):
                if R_other.outcome_count:
                    R_other = duplicate_outcome(R_other, rng.randrange(R_other.outcome_count))
                hom = factor_check(L, W, R_other, R_min)
                if isinstance(hom, Refutation):
                    continue
                homs += 1
                src_masks = [point_mask(x) for x in R_other.sigma_map]
                dst_masks = [point_mask(x) for x in R_min.sigma_map]
                for image, masks in ((hom.source, src_masks), (hom.target, dst_masks)):
                    meet, join, _ = mask_family_by_loop(masks)
                    assert image.meet.tolist() == meet and image.join.tolist() == join, seed
                    assert (image.bottom, image.top) == (0, len(meet) - 1)
                _, _, src_index = mask_family_by_loop(src_masks)
                _, _, dst_index = mask_family_by_loop(dst_masks)
                mapping = [0] * hom.source.n
                for m_src, m_dst in zip(src_masks, dst_masks):
                    mapping[src_index[m_src]] = dst_index[m_dst]
                assert hom.mapping == tuple(mapping), seed
        assert homs >= 250


class TestDerivedOrderAxioms:
    def test_random_representations_satisfy_axioms(self):
        for seed in range(200):
            L = random_distributive_lattice(5, seed)
            R = random_representation(L, seed)
            assert check_representation_hom(L, R)
            derived = derive_pref_from_rep(R)
            assert check_axiom1(L, derived) == []
            assert check_axiom2(L, derived) == []
