import collections
import gc
import random
import weakref

import numpy as np
import pytest

from lattimin import (
    LawViolation,
    Representation,
    build_lattice,
    enumerate_prime_filters,
    finite_topology_report,
    validate_laws,
)
from lattimin import duality_equivalence_report, lattice as lattice_module
from lattimin.lattice import Poset, downset_lattice, membership, row_sets
from lattimin.spectrum import SpectralSpace, is_powerset_hom
from lattimin.testkit import random_distributive_lattice

from conftest import random_tables
from fixtures import B2, B2_A, B2_B, B3, CHAIN2, CHAIN3, M3, N5, W3, chain, principal
from oracles import (
    all_posets,
    check_sigma_isomorphism,
    classify_subset,
    ideal_witness_by_loop,
    is_boolean,
    join_irreducibles,
    point_mask,
    powerset_hom_by_loop,
    prime_filters_bruteforce,
)

FIXTURES = [CHAIN2, CHAIN3, B2, B3]
FIXTURE_IDS = ["c2", "c3", "b2", "b3"]


class TestClassifySubset:
    def test_chain3_top_singleton_is_prime(self):
        assert classify_subset(CHAIN3, {2}).prime_filter

    def test_whole_carrier_is_improper_filter(self):
        for L in FIXTURES:
            cls = classify_subset(L, set(range(L.n)))
            assert cls.is_filter and not cls.proper_filter

    def test_b2_top_singleton_proper_not_prime(self):
        cls = classify_subset(B2, {B2.top})
        assert cls.proper_filter and not cls.prime_filter

    def test_ideal_flags(self):
        cls = classify_subset(CHAIN3, {0, 1})
        assert cls.is_ideal and cls.proper_ideal and cls.prime_ideal


class TestEnumeratePrimeFilters:
    def test_chain3(self):
        S = enumerate_prime_filters(CHAIN3)
        assert [sorted(F) for F in S.points] == [[2], [1, 2]]

    def test_chain2(self):
        S = enumerate_prime_filters(CHAIN2)
        assert [sorted(F) for F in S.points] == [[1]]

    def test_b2(self):
        S = enumerate_prime_filters(B2)
        assert [sorted(F) for F in S.points] == [[B2_A, B2.top], [B2_B, B2.top]]

    @pytest.mark.parametrize("L", FIXTURES, ids=FIXTURE_IDS)
    def test_agrees_with_subset_bruteforce(self, L):
        S = enumerate_prime_filters(L)
        assert list(S.points) == prime_filters_bruteforce(L)

    def test_agrees_with_bruteforce_on_random_lattices(self):
        for seed in range(50):
            L = random_distributive_lattice(4, seed)
            S = enumerate_prime_filters(L)
            assert list(S.points) == prime_filters_bruteforce(L)


class TestPrimeUpsets:
    """The prime principal up-sets, Lattice.spectrum (the up-sets of the
    certificate's J(L)), against the 2^n subset scan; a table that is not
    lawful is refused with the first issue of validate_laws."""

    @staticmethod
    def check(L):
        issues = validate_laws(L)
        if not issues:
            assert list(L.spectrum.points) == prime_filters_bruteforce(L)
            return True
        with pytest.raises(LawViolation) as ei:
            L.spectrum
        assert (ei.value.law, ei.value.witness) == (issues[0].law, issues[0].witness)
        return False

    @pytest.mark.parametrize(
        "L", FIXTURES + [M3, N5], ids=FIXTURE_IDS + ["m3", "n5"]
    )
    def test_fixtures(self, L):
        assert self.check(L) == (L not in (M3, N5))

    def test_law_broken_tables(self):
        seen = {self.check(random_tables(seed)) for seed in range(600)}
        assert seen == {True, False}

    def test_spectrum_computed_once_per_lattice(self, monkeypatch):
        calls = []
        is_set_hom = lattice_module._is_set_hom
        monkeypatch.setattr(
            lattice_module, "_is_set_hom", lambda L, P: calls.append(L) or is_set_hom(L, P)
        )
        L = build_lattice(CHAIN3.meet, CHAIN3.join, CHAIN3.bottom, CHAIN3.top)
        S = enumerate_prime_filters(L)
        assert enumerate_prime_filters(L) is S
        duality_equivalence_report(L, W3)
        assert calls == [L]

    def test_spectrum_reads_the_certificate(self):
        """The spectrum is the certificate's up-set matrix, and no order
        table is cached beside it."""
        L = build_lattice(B3.meet, B3.join, B3.bottom, B3.top)
        member = L.spectrum.member.tolist()
        assert set(vars(L)) == {"meet", "join", "bottom", "top", "birkhoff", "spectrum"}
        assert member == sorted(L.birkhoff[1].tolist(), key=lambda row: row[::-1])


def sigma(L):
    """sigma(a), the points of L's spectrum containing a, for each a."""
    return row_sets(enumerate_prime_filters(L).member.T)


class TestSigma:
    def test_chain3_middle(self):
        assert sigma(CHAIN3)[1] == {1}  # only the filter {1/2, 1}

    @pytest.mark.parametrize("L", FIXTURES, ids=FIXTURE_IDS)
    def test_bottom_maps_to_empty(self, L):
        images = sigma(L)
        assert images[L.bottom] == frozenset()
        assert images[L.top] == frozenset(range(len(L.spectrum.points)))

    def test_b2_atom(self):
        assert len(sigma(B2)[B2_A]) == 1

    @pytest.mark.parametrize("L", FIXTURES, ids=FIXTURE_IDS)
    def test_sigma_is_hom(self, L):
        images = sigma(L)
        for a in range(L.n):
            for b in range(L.n):
                assert images[int(L.meet[a, b])] == images[a] & images[b]
                assert images[int(L.join[a, b])] == images[a] | images[b]


class TestJoinIrreducibles:
    def test_examples(self):
        assert join_irreducibles(CHAIN3) == {1, 2}
        assert join_irreducibles(CHAIN2) == {1}
        assert join_irreducibles(B2) == {B2_A, B2_B}

    @pytest.mark.parametrize("L", FIXTURES, ids=FIXTURE_IDS)
    def test_birkhoff_bijection_on_fixtures(self, L):
        S = enumerate_prime_filters(L)
        ji = join_irreducibles(L)
        assert len(S.points) == len(ji)
        assert {principal(L, j, up=True) for j in ji} == set(S.points)


class TestSigmaIsomorphism:
    @pytest.mark.parametrize("L", FIXTURES, ids=FIXTURE_IDS)
    def test_fixtures(self, L):
        assert check_sigma_isomorphism(L, enumerate_prime_filters(L))

    def test_random_downset_lattices(self):
        for seed in range(100):
            L = random_distributive_lattice(5, seed)
            assert check_sigma_isomorphism(L, enumerate_prime_filters(L))

    def test_non_injective_sigma_rejected(self):
        # one point of CHAIN3: sigma sends 0 and 1/2 to the empty set, a hom
        # onto the powerset of one point that is not injective
        S = SpectralSpace(np.array([[False, False, True]]))
        assert is_powerset_hom(CHAIN3, S.member.T)
        assert not check_sigma_isomorphism(CHAIN3, S)


class TestIsPowersetHom:
    """is_powerset_hom's packed-bit evaluation against the pairwise loop."""

    SIGMA_B2 = sigma(B2)

    @staticmethod
    def meets_ok(L, images):
        return all(images[int(L.meet[a, b])] == images[a] & images[b]
                   for a in range(L.n) for b in range(L.n))

    @staticmethod
    def joins_ok(L, images):
        return all(images[int(L.join[a, b])] == images[a] | images[b]
                   for a in range(L.n) for b in range(L.n))

    def verdict(self, L, images, size):
        fast = is_powerset_hom(L, membership(images, size))
        assert fast == powerset_hom_by_loop(L, images, size)
        return fast

    def test_sigma_accepted(self):
        assert self.verdict(B2, self.SIGMA_B2, 2)

    def test_broken_bottom_rejected(self):
        images = ({0},) + self.SIGMA_B2[1:]
        assert not self.verdict(B2, tuple(map(frozenset, images)), 2)
        # on CHAIN2 the constant map to {0} keeps every meet and join
        constant = (frozenset({0}),) * 2
        assert self.meets_ok(CHAIN2, constant) and self.joins_ok(CHAIN2, constant)
        assert not self.verdict(CHAIN2, constant, 1)

    def test_broken_top_rejected(self):
        images = self.SIGMA_B2[:3] + (frozenset({0}),)
        assert not self.verdict(B2, images, 2)
        assert not self.verdict(B2, self.SIGMA_B2, 3)

    def test_broken_meet_alone_rejected(self):
        images = tuple(map(frozenset, ((), (0, 1), (1, 2), (0, 1, 2))))
        assert self.joins_ok(B2, images) and not self.meets_ok(B2, images)
        assert not self.verdict(B2, images, 3)

    def test_broken_join_alone_rejected(self):
        images = tuple(map(frozenset, ((), (0,), (1,), (0, 1, 2))))
        assert self.meets_ok(B2, images) and not self.joins_ok(B2, images)
        assert not self.verdict(B2, images, 3)

    def test_wrong_length_rejected(self):
        assert not self.verdict(B2, self.SIGMA_B2[:-1], 2)
        assert not self.verdict(B2, self.SIGMA_B2 + (frozenset(),), 2)

    def test_member_outside_the_powerset_rejected(self):
        # sets enter the matrix form only through membership, which refuses
        # a member outside range(size); a matrix has its outcome count
        images = self.SIGMA_B2[:1] + (self.SIGMA_B2[1] | {5},) + self.SIGMA_B2[2:]
        with pytest.raises(ValueError, match="outside"):
            membership(images, 2)
        for sets in (images, ((), (-1,), (1,), (0, 1))):
            with pytest.raises(ValueError, match="outside"):
                Representation(2, sets, (0, 1))
        with pytest.raises(ValueError, match="one column per outcome"):
            Representation(2, np.ones((4, 3), dtype=bool), (0, 1))

    @staticmethod
    def candidate_images(L, rng):
        """Images a -> {i : S[i] <= a} for S the join-irreducibles (a hom on
        lawful tables), all non-bottom elements (meets kept, joins broken
        off chains) or a random sample; bottom and top get the empty and
        the full set, so the pairwise comparison runs."""
        pick = rng.randrange(3)
        if pick == 0:
            S = sorted(join_irreducibles(L))
        elif pick == 1:
            S = [s for s in range(L.n) if s != L.bottom]
        else:
            S = rng.sample(range(L.n), rng.randint(0, L.n))
        images = [frozenset(i for i, x in enumerate(S) if L.meet[x, a] == x)
                  for a in range(L.n)]
        images[L.bottom], images[L.top] = frozenset(), frozenset(range(len(S)))
        return images, len(S)

    def test_matches_loop_oracle(self):
        rng = random.Random(11)
        seen = {"hom": 0, "meet": 0, "join": 0}
        for seed in range(600):
            L = random_tables(seed) if seed % 2 else random_distributive_lattice(5, seed)
            images, size = self.candidate_images(L, rng)
            if self.verdict(L, images, size):
                seen["hom"] += 1
            elif self.meets_ok(L, images):
                seen["join"] += 1
            elif self.joins_ok(L, images):
                seen["meet"] += 1
        assert min(seen.values()) >= 20, seen

    def test_matches_loop_oracle_over_many_blocks(self, monkeypatch):
        monkeypatch.setattr(lattice_module, "BLOCK_ELEMENTS", 50)
        rng = random.Random(12)
        verdicts = set()
        for seed in range(200):
            L = random_distributive_lattice(5, seed)
            verdicts.add(self.verdict(L, *self.candidate_images(L, rng)))
        assert verdicts == {True, False}

    def test_sigma_of_two_block_lattice(self):
        L = downset_lattice(Poset(7))  # 128 elements: two row blocks
        assert len(lattice_module._row_blocks(L.n)) == 2
        assert check_sigma_isomorphism(L, enumerate_prime_filters(L))


class TestSpectralSpaceForm:
    """The spectrum is one read-only matrix; its frozensets are views."""

    def test_rows_put_in_point_mask_order(self):
        rows = np.array([[1, 1, 1], [0, 0, 1], [0, 1, 1], [1, 0, 1]], dtype=bool)
        S = SpectralSpace(rows)
        assert [point_mask(F) for F in S.points] == [4, 5, 6, 7]
        assert not S.member.flags.writeable and rows.flags.writeable

    def test_lattice_freed_without_a_collection(self):
        gc.disable()
        try:
            L = downset_lattice(Poset(3, [(0, 1)]))
            ref = weakref.ref(L)
            assert len(L.spectrum.points) == 3
            del L
            assert ref() is None
        finally:
            gc.enable()

    def test_views_match_the_matrix(self):
        for seed in range(50):
            L = random_distributive_lattice(5, seed)
            S = enumerate_prime_filters(L)
            assert not S.member.flags.writeable
            assert S.member.shape == (len(S.points), L.n)
            assert [sorted(F) for F in S.points] == [
                [a for a in range(L.n) if S.member[i, a]] for i in range(len(S.points))
            ]
            assert all(image == {i for i, F in enumerate(S.points) if a in F}
                       for a, image in enumerate(row_sets(S.member.T)))


class TestIdealWitness:
    @staticmethod
    def subsets(L, rng):
        """A principal down-set (an ideal on lawful tables), a union of two
        (down-closed, perhaps not join-closed) and a random subset."""
        picks = [rng.randrange(L.n) for _ in range(3)]
        yield principal(L, picks[0])
        yield principal(L, picks[1]) | principal(L, picks[2])
        yield frozenset(a for a in range(L.n) if rng.random() < 0.5)

    def test_matches_loop_and_classify_subset(self):
        rng = random.Random(5)
        kinds = collections.Counter()
        for seed in range(400):
            L = random_tables(seed) if seed % 2 else random_distributive_lattice(5, seed)
            for I in self.subsets(L, rng):
                if not I:
                    continue
                witness = ideal_witness_by_loop(L, I)
                assert (witness is None) == classify_subset(L, I).is_ideal
                kinds[witness[2] if witness else "ideal"] += 1
        assert min(kinds[k] for k in ("ideal", "down-closure", "join-closure")) >= 50, kinds

    def test_b2_examples(self):
        assert ideal_witness_by_loop(B2, {0, B2_A}) is None
        assert ideal_witness_by_loop(B2, {0, B2.top}) == (B2.top, B2_A, "down-closure")
        assert ideal_witness_by_loop(B2, {B2.top}) == (B2.top, 0, "down-closure")
        assert ideal_witness_by_loop(B2, {0, B2_A, B2_B}) == (B2_A, B2_B, "join-closure")


class TestFiniteTopology:
    def test_chain3_sierpinski(self):
        S = enumerate_prime_filters(CHAIN3)
        rep = finite_topology_report(S)
        # point 0 = {1}, point 1 = {1/2, 1}; the singleton open is point 1
        assert [sorted(o) for o in rep.open_sets] == [[], [1], [0, 1]]
        assert not rep.hausdorff
        singleton = frozenset({1})
        i = rep.open_sets.index(singleton)
        assert not rep.basis_closed[i]

    def test_chain2_discrete_on_one_point(self):
        rep = finite_topology_report(enumerate_prime_filters(CHAIN2))
        assert rep.hausdorff
        assert [sorted(o) for o in rep.open_sets] == [[], [0]]

    def test_b2_discrete_on_two_points(self):
        rep = finite_topology_report(enumerate_prime_filters(B2))
        assert rep.hausdorff
        assert len(rep.open_sets) == 4

    def test_hausdorff_matches_pairwise_search(self):
        """The open sets against the union closure of the basis, and the
        singleton and complement rules against the definitions: Hausdorff iff
        every two points lie in disjoint open sets, one each."""

        def separated(opens, i, j):
            return any(u >> i & 1 and not u >> j & 1 and v >> j & 1 and not v >> i & 1
                       and not u & v for u in opens for v in opens)

        lattices = [downset_lattice(P) for k in range(5) for P in all_posets(k)]
        lattices += [random_distributive_lattice(6, seed) for seed in range(40)]
        verdicts = collections.Counter()
        for L in lattices:
            S = enumerate_prime_filters(L)
            rep = finite_topology_report(S)
            opens = {0} | {point_mask(b) for b in S.basis}
            frontier = list(opens)
            while frontier:
                u = frontier.pop()
                for v in list(opens):
                    if u | v not in opens:
                        opens.add(u | v)
                        frontier.append(u | v)
            p = len(S.points)
            closure = sorted(opens, key=lambda m: (bin(m).count("1"), m))
            assert [point_mask(o) for o in rep.open_sets] == closure
            full = (1 << p) - 1
            assert rep.basis_closed == tuple(full ^ point_mask(b) in opens for b in S.basis)
            expected = all(separated(opens, i, j) for i in range(p) for j in range(p) if i != j)
            assert rep.hausdorff == expected
            verdicts[expected] += 1
        assert verdicts[True] >= 10 and verdicts[False] >= 200, verdicts

    def test_chain32_has_no_point_cap(self):
        """31 points: the topology of a spectrum has no cap on its points."""
        rep = finite_topology_report(enumerate_prime_filters(chain(32)))
        assert [len(o) for o in rep.open_sets] == list(range(32))
        assert not rep.hausdorff
        assert rep.basis_closed == (True,) + (False,) * 30 + (True,)

    def test_boolean_basis_is_clopen(self):
        for L in (CHAIN2, B2, B3):
            assert is_boolean(L)
            rep = finite_topology_report(enumerate_prime_filters(L))
            assert all(rep.basis_closed)
