import itertools
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lattimin import (
    LatticeHom,
    LawViolation,
    Poset,
    PosetCyclic,
    TooLarge,
    build_lattice,
    check_hom,
    downset_lattice,
    validate_laws,
)
from lattimin import lattice as lattice_module
from lattimin.lattice import (
    BLOCK_ELEMENTS,
    Lattice,
    _scan_laws,
    row_classes,
    size_mask_order,
)
from lattimin.testkit import random_distributive_lattice, random_poset

from conftest import mask_family_by_loop, random_tables, same_tables
from fixtures import B2, B2_A, B2_B, B3, CHAIN2, CHAIN3, M3, N5, chain
from oracles import (
    NotALattice,
    class_ids,
    compose,
    is_boolean,
    join_irreducibles,
    lattice_from_order,
    laws_by_loop,
    relative_complement,
    relative_complements,
)


def leq(L):
    """The order of L as axiom 1 reads it: a <= b iff meet[a, b] == a."""
    return L.meet == np.arange(L.n)[:, None]


class TestBuildLattice:
    def test_chain3_ordering(self):
        L = build_lattice(CHAIN3.meet, CHAIN3.join, 0, 2)
        assert leq(L)[0, 1] and leq(L)[1, 2] and leq(L)[0, 2]
        assert not leq(L)[2, 1]

    def test_chain2_is_bottom_and_top_only(self):
        L = build_lattice(CHAIN2.meet, CHAIN2.join, 0, 1)
        assert L.n == 2 and L.bottom == 0 and L.top == 1

    def test_m3_rejected_with_atom_witness(self):
        with pytest.raises(LawViolation) as ei:
            build_lattice(M3.meet, M3.join, M3.bottom, M3.top)
        assert "distributivity" in ei.value.law
        assert set(ei.value.witness) <= {1, 2, 3}

    def test_bad_bounds_rejected(self):
        with pytest.raises(LawViolation) as ei:
            build_lattice(CHAIN3.meet, CHAIN3.join, 1, 2)
        assert ei.value.law == "bottom-bound"


class TestLeq:
    def test_chain3_example(self):
        assert leq(CHAIN3)[1, 2]

    @pytest.mark.parametrize("L", [CHAIN2, CHAIN3, B2], ids=["c2", "c3", "b2"])
    def test_reflexive(self, L):
        assert leq(L).diagonal().all()

    def test_b2_atoms_incomparable(self):
        assert not leq(B2)[B2_A, B2_B]
        assert not leq(B2)[B2_B, B2_A]


class TestValidateLaws:
    def test_chain3_clean(self):
        assert validate_laws(CHAIN3) == []

    def test_b2_clean(self):
        assert validate_laws(B2) == []

    def test_n5_distributivity_violation(self):
        issues = validate_laws(N5)
        assert any("distributivity" in i.law for i in issues)
        witness = next(i.witness for i in issues if "distributivity" in i.law)
        assert len(witness) == 3 and all(0 <= w < 5 for w in witness)


def unchunked_laws(L):
    """validate_laws as one n^3 expression per law."""
    M, J, idx = L.meet, L.join, np.arange(L.n)
    bad = {
        "meet-commutativity": M != M.T,
        "join-commutativity": J != J.T,
        "meet-associativity": M[M] != M[:, M],
        "join-associativity": J[J] != J[:, J],
        "join-absorption": J[idx[:, None], M] != idx[:, None],
        "meet-absorption": M[idx[:, None], J] != idx[:, None],
        "meet-over-join-distributivity": M[:, J] != J[M[:, :, None], M[:, None, :]],
        "join-over-meet-distributivity": J[:, M] != M[J[:, :, None], J[:, None, :]],
        "bottom-bound": M[L.bottom] != L.bottom,
        "top-bound": J[L.top] != L.top,
    }
    return [
        (law, tuple(int(v) for v in np.argwhere(b)[0])) for law, b in bad.items() if b.any()
    ]


class TestChunkedValidateLaws:
    def test_witnesses_past_the_first_block(self):
        n = 128
        assert n**3 > BLOCK_ELEMENTS
        rows = BLOCK_ELEMENTS // n**2  # first indices per block
        C = chain(n)
        join = C.join.copy()
        join[90, 120] = 7  # row 90 lies past the first block
        L = Lattice(C.meet, join, C.bottom, C.top)
        issues = [(i.law, i.witness) for i in validate_laws(L)]
        assert issues == unchunked_laws(L)
        assert ("join-commutativity", (90, 120)) in issues and 90 >= rows

    def test_fixtures_match_unchunked(self):
        for L in (CHAIN3, B2, M3, N5):
            assert [(i.law, i.witness) for i in validate_laws(L)] == unchunked_laws(L)


def with_bounds(L, bottom, top):
    return Lattice(L.meet, L.join, bottom, top)


class TestBirkhoffCertificate:
    """The embedding certificate accepts exactly the tables the law scan
    finds lawful, and validate_laws scans only the tables it rejects."""

    LAWFUL = [CHAIN2, CHAIN3, B2, B3] + [
        random_distributive_lattice(6, seed) for seed in range(100)
    ]

    @staticmethod
    def verdicts(L):
        return L.birkhoff is not None, list(_scan_laws(L)) == []

    @staticmethod
    def check_form(L, label=None):
        """L.birkhoff is (J(L) ascending, its read-only up-set matrix), row i
        [[J[i] <= a]] by the loop oracle."""
        J, U = L.birkhoff
        ji = sorted(join_irreducibles(L))
        assert J.tolist() == ji, label
        assert U.tolist() == [[int(L.meet[j, a]) == j for a in range(L.n)] for j in ji], label
        assert not J.flags.writeable and not U.flags.writeable, label

    def test_fixtures_and_random_downset_lattices(self):
        for L in self.LAWFUL:
            assert self.verdicts(L) == (True, True)
            self.check_form(L)
        for L in [M3, N5]:
            assert self.verdicts(L) == (False, False)

    def test_law_broken_tables(self):
        seen = set()
        for seed in range(600):
            L = random_tables(seed)
            certified, lawful = self.verdicts(L)
            assert certified == lawful, seed
            if certified:
                self.check_form(L, seed)
            seen.add(certified)
        assert seen == {True, False}

    def test_every_two_element_table(self):
        for entries in itertools.product(range(2), repeat=10):
            meet = np.reshape(entries[:4], (2, 2))
            join = np.reshape(entries[4:8], (2, 2))
            L = Lattice(meet, join, *entries[8:])
            certified, lawful = self.verdicts(L)
            assert certified == lawful, entries
            if certified:
                self.check_form(L, entries)

    def test_only_a_bound_broken(self):
        for L in self.LAWFUL:
            for a in range(L.n):
                for T, law in ((with_bounds(L, a, L.top), "bottom-bound"),
                               (with_bounds(L, L.bottom, a), "top-bound")):
                    if (T.bottom, T.top) == (L.bottom, L.top):
                        continue
                    assert [i.law for i in _scan_laws(T)] == [law]
                    assert T.birkhoff is None

    def test_only_a_bound_broken_scans_only_the_bound_laws(self, monkeypatch):
        """With only top or bottom wrong, _embedding certifies the other
        eight laws, and the scan enters its row-block loop once per bound
        law: no other law is evaluated.  The issues are the loop scan's."""
        scanned = []
        row_blocks = lattice_module._row_blocks

        def spy(n, width=None):
            if sys._getframe(1).f_code.co_name == "_scan_laws":
                scanned.append(n)
            return row_blocks(n, width)

        monkeypatch.setattr(lattice_module, "_row_blocks", spy)
        for L in (CHAIN3, B2):
            for a in range(L.n):
                for T in (with_bounds(L, a, L.top), with_bounds(L, L.bottom, a)):
                    if (T.bottom, T.top) == (L.bottom, L.top):
                        continue
                    scanned.clear()
                    issues = [(i.law, i.witness) for i in validate_laws(T)]
                    assert scanned == [T.n, T.n]
                    assert issues == laws_by_loop(T) != []
        scanned.clear()
        assert validate_laws(with_bounds(M3, 1, M3.top)) != [] and len(scanned) == 10

    def test_issues_match_the_loop_scan(self):
        """validate_laws lists the issues of the plain-loop scan on every
        table of the law tests above: the fixtures, the seeded law-broken
        tables, every 2-element table, and each bound moved on the lawful
        lattices of at most 16 elements."""
        tables = [CHAIN2, CHAIN3, B2, B3, M3, N5] + [random_tables(seed) for seed in range(600)]
        for entries in itertools.product(range(2), repeat=10):
            tables.append(Lattice(np.reshape(entries[:4], (2, 2)),
                                  np.reshape(entries[4:8], (2, 2)), *entries[8:]))
        for L in self.LAWFUL:
            if L.n <= 16:
                tables += [with_bounds(L, a, L.top) for a in range(L.n)]
                tables += [with_bounds(L, L.bottom, a) for a in range(L.n)]
        for T in tables:
            assert [(i.law, i.witness) for i in validate_laws(T)] == laws_by_loop(T)

    def test_scan_runs_only_on_broken_input(self, monkeypatch):
        scanned = []
        scan = lattice_module._scan_laws
        monkeypatch.setattr(
            lattice_module, "_scan_laws", lambda L: scanned.append(L) or scan(L)
        )
        for L in self.LAWFUL:
            assert validate_laws(L) == []
        assert scanned == []
        broken = [M3, N5, with_bounds(B2, B2_A, B2.top)]
        broken += [L for L in map(random_tables, range(100)) if list(scan(L))]
        for L in broken:
            assert validate_laws(L) == list(scan(L)) != []
            assert scanned[-1] is L
        assert len(scanned) == len(broken)

    def test_certify_stops_at_the_first_issue(self, monkeypatch):
        """_certify refuses a table with the first broken law of the scan and
        scans no later law: one _row_blocks call per law scanned."""
        meet = CHAIN3.meet.copy()
        meet[1, 2] = 2  # breaks meet-commutativity, the first law, and more
        T = Lattice(meet, CHAIN3.join, CHAIN3.bottom, CHAIN3.top)
        first, *later = validate_laws(T)
        assert first.law == "meet-commutativity" and later
        assert T.birkhoff is None
        scanned = []
        row_blocks = lattice_module._row_blocks
        monkeypatch.setattr(
            lattice_module, "_row_blocks", lambda n: scanned.append(n) or row_blocks(n)
        )
        with pytest.raises(LawViolation) as ei:
            lattice_module._certify(T)
        assert (ei.value.law, ei.value.witness) == (first.law, first.witness)
        assert scanned == [T.n]


class TestRelativeComplement:
    def test_b2_atoms(self):
        assert relative_complement(B2, B2_A, B2_B) == B2_B

    @pytest.mark.parametrize("L", [CHAIN2, CHAIN3, B2], ids=["c2", "c3", "b2"])
    def test_self_complement_is_bottom(self, L):
        for a in range(L.n):
            assert relative_complement(L, a, a) == L.bottom

    def test_chain3_absent(self):
        assert relative_complement(CHAIN3, 1, 2) is None
        assert relative_complements(CHAIN3, 1, 2) == ()

    def test_multiplicity_recorded(self):
        # bottom relative to bottom: every c with c & bottom == bottom and
        # c | bottom == bottom, i.e. only bottom itself
        assert relative_complements(B2, B2.bottom, B2.bottom) == (B2.bottom,)


class TestIsBoolean:
    def test_examples(self):
        assert is_boolean(B2)
        assert not is_boolean(CHAIN3)
        assert is_boolean(CHAIN2)

    def test_complemented_non_distributive(self):
        # every element of M3 and N5 has a complement, so both count
        assert is_boolean(M3) and is_boolean(N5)


class TestCheckHom:
    def test_identity(self):
        h = LatticeHom(CHAIN3, CHAIN3, (0, 1, 2))
        assert check_hom(h)

    def test_chain3_to_chain2_collapses(self):
        assert check_hom(LatticeHom(CHAIN3, CHAIN2, (0, 1, 1)))
        assert check_hom(LatticeHom(CHAIN3, CHAIN2, (0, 0, 1)))

    def test_non_hom(self):
        assert not check_hom(LatticeHom(CHAIN3, CHAIN2, (0, 1, 0)))

    def test_composition_of_homs_is_hom(self):
        inner = LatticeHom(CHAIN3, CHAIN2, (0, 1, 1))
        outer = LatticeHom(CHAIN2, CHAIN2, (0, 1))
        assert check_hom(compose(outer, inner))

    def test_all_chain3_chain2_maps(self):
        for m in itertools.product(range(2), repeat=3):
            h = LatticeHom(CHAIN3, CHAIN2, m)
            if check_hom(h):
                assert check_hom(compose(LatticeHom(CHAIN2, CHAIN2, (0, 1)), h))


class TestDownsetLattice:
    def test_point_gives_chain2(self):
        assert same_tables(downset_lattice(Poset(1)), CHAIN2)

    def test_two_chain_gives_chain3(self):
        assert same_tables(downset_lattice(Poset(2, [(0, 1)])), CHAIN3)

    def test_antichain_gives_b2(self):
        L = downset_lattice(Poset(2))
        assert L.n == 4 and is_boolean(L)
        assert same_tables(L, B2)

    def test_tables_match_mask_family_loop(self):
        """Random posets, and the 8-point poset whose 128 down-sets span
        several row blocks of the table lookup."""
        rng = random.Random(8)
        posets = [Poset(8, ((0, 1), (1, 2)))] + [random_poset(rng.randint(1, 6), rng)
                                                 for _ in range(60)]
        for P in posets:
            L = downset_lattice(P)
            meet, join, _ = mask_family_by_loop(P.downset_masks())
            assert L.meet.tolist() == meet and L.join.tolist() == join
            assert (L.bottom, L.top) == (0, len(meet) - 1)

    def test_sixteen_point_antichain_refused_up_front(self):
        # 65,536 down-sets: refused before any table is built
        with pytest.raises(TooLarge, match="4096 elements, got 65536"):
            downset_lattice(Poset(16))

    def test_element_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(lattice_module, "MAX_ELEMENTS", 3)
        assert downset_lattice(Poset(2, [(0, 1)])).n == 3
        with pytest.raises(TooLarge):
            downset_lattice(Poset(2))

    def test_cyclic_poset_rejected(self):
        with pytest.raises(PosetCyclic):
            Poset(2, [(0, 1), (1, 0)])
        with pytest.raises(PosetCyclic):
            Poset(2, [(1, 1)])

    @pytest.mark.parametrize("cover", [(0, 1, 2), (0,), ()])
    def test_cover_that_is_not_a_pair_rejected(self, cover):
        with pytest.raises(ValueError) as e:
            Poset(3, [(0, 1), cover])
        assert str(e.value) == f"covers: {list(cover)} is not a pair"


class TestPosetCap:
    """A poset with more than MAX_POSET_ELEMENTS points is refused before
    its transitive closure is computed."""

    def test_refused_before_the_closure(self, monkeypatch):
        def closure(self):
            pytest.fail("the closure was computed")

        monkeypatch.setattr(Poset, "leq", property(closure))
        for n in (17, 1500):
            with pytest.raises(TooLarge, match=f"capped at 16 elements, got {n}"):
                Poset(n)

    def test_boundary(self):
        assert lattice_module.MAX_POSET_ELEMENTS == 16
        assert Poset(16, [(0, 1)]).leq.sum() == 17
        with pytest.raises(TooLarge):
            Poset(17)


class TestSizeMaskOrder:
    """size_mask_order sorts the rows of a boolean matrix by (popcount,
    mask) with column i as bit i, equal rows in index order."""

    @staticmethod
    def key_sort(M):
        masks = [sum(1 << int(i) for i in np.flatnonzero(row)) for row in M]
        return sorted(range(len(masks)), key=lambda r: (bin(masks[r]).count("1"), masks[r]))

    def test_small_example(self):
        # masks 4, 3, 4, 0, 2: size before mask, equal rows in index order
        M = np.array([[0, 0, 1], [1, 1, 0], [0, 0, 1], [0, 0, 0], [0, 1, 0]], dtype=bool)
        assert size_mask_order(M).tolist() == [3, 4, 0, 2, 1]

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (5, 0), (1, 6), (40, 1), (60, 4),
                                       (200, 9), (30, 70)])
    def test_matches_key_sort(self, shape):
        rng = np.random.default_rng(shape[0] * 101 + shape[1])
        for density in (0.1, 0.5, 0.9):
            M = rng.random(shape) < density
            assert size_mask_order(M).tolist() == self.key_sort(M)

    def test_downset_masks_are_key_sorted(self):
        rng = random.Random(3)
        for P in [random_poset(rng.randint(1, 6), rng) for _ in range(40)]:
            masks = P.downset_masks()
            assert masks == sorted(masks, key=lambda m: (bin(m).count("1"), m))


class TestRowClasses:
    """row_classes numbers equal rows by first appearance and gives the
    first row of each class, ascending, on every shape, empty ones too."""

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (5, 0), (1, 6), (40, 1), (60, 4),
                                       (200, 9), (30, 70)])
    def test_matches_class_ids_and_unique(self, shape):
        rng = np.random.default_rng(shape[0] * 103 + shape[1])
        for density in (0.1, 0.5, 0.9):
            M = rng.random(shape) < density
            for rows in (M, np.packbits(M, axis=1), M.T.copy().T):
                ids, first = row_classes(rows)
                assert ids.tolist() == list(class_ids(row.tobytes() for row in M))
                assert first.tolist() == np.unique(ids, return_index=True)[1].tolist()
                if shape[0]:  # np.unique refuses an axis of length 0
                    distinct = np.unique(M, axis=0, return_index=True)[1]
                    assert first.tolist() == sorted(distinct.tolist())


class TestLatticeFromOrder:
    def test_chain3_from_order(self):
        order = np.triu(np.ones((3, 3), dtype=bool))
        assert same_tables(lattice_from_order(order), CHAIN3)

    def test_no_lub_rejected(self):
        # two incomparable maximal elements: pair has no join
        order = np.eye(3, dtype=bool)
        order[0, 1] = order[0, 2] = True
        with pytest.raises(NotALattice):
            lattice_from_order(order)


class TestGeneratedLatticeProperties:
    def test_thousand_random_posets_give_lawful_lattices(self):
        rng = random.Random(20260824)
        for _ in range(1000):
            P = random_poset(rng.randint(1, 6), rng)
            L = downset_lattice(P)
            assert validate_laws(L) == []

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_leq_is_partial_order_with_bounds(self, seed):
        rng = random.Random(seed)
        L = downset_lattice(random_poset(rng.randint(1, 5), rng))
        le = leq(L)
        for a in range(L.n):
            assert le[L.bottom, a] and le[a, L.top]
            for b in range(L.n):
                if le[a, b] and le[b, a]:
                    assert a == b
                for c in range(L.n):
                    if le[a, b] and le[b, c]:
                        assert le[a, c]
