"""Exhaustive enumerators and plain-loop oracles the tests compare the
array code against, and the paper's constructions that no command runs:
relative complements, the zero class, strict upper contours, the
congruences β′ and β″ and the quotient L/θ, with the errors only they
raise.  Each evaluates its definition literally, one element or pair at a
time; the tests check the paper's theorems on them."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from lattimin.duality import dual_forward
from lattimin.errors import LattiminError, TooLarge
from lattimin.lattice import Lattice, LatticeHom, Poset, build_lattice, row_sets
from lattimin.preference import WeakOrder, axioms12_hold, dense_ranks
from lattimin.representation import Representation
from lattimin.spectrum import SpectralSpace, enumerate_prime_filters


class NotALattice(LattiminError):
    """An order relation lacks a greatest lower / least upper bound somewhere."""


class NotAnIdeal(LattiminError):
    """A subset expected to be an ideal is not; carries a witness."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class IncompatiblePartition(LattiminError):
    """A partition is not compatible with meet/join; carries a witness quadruple."""

    def __init__(self, op, witness):
        self.op = op
        self.witness = tuple(witness)
        super().__init__(f"partition incompatible with {op} at {self.witness}")


class AxiomsNotSatisfied(LattiminError):
    """Caller asserted Axioms 1-2 but a scan refuted them."""


def class_ids(keys) -> tuple[int, ...]:
    """Class id per key, numbered in order of first appearance; the kernel of
    a hom h is class_ids(h.mapping)."""
    ids: dict = {}
    return tuple(ids.setdefault(key, len(ids)) for key in keys)


@dataclass(frozen=True)
class Congruence:
    """Meet/join-compatible partition: element index -> class id.

    Class ids are canonical: ordered by least representative.
    """

    classes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(int(c) for c in self.classes))

    @property
    def num_classes(self) -> int:
        return max(self.classes) + 1 if self.classes else 0

    def cls(self, a: int) -> int:
        return self.classes[a]

    @property
    def representatives(self) -> tuple[int, ...]:
        """The least element of each class, in class order."""
        return tuple(self.classes.index(c) for c in range(self.num_classes))

    def members(self, c: int) -> frozenset:
        return frozenset(a for a, k in enumerate(self.classes) if k == c)


def enumerate_weak_orders(k: int):
    """All rank vectors over k items up to rank relabeling (ordered Bell
    count many).  Capped at k <= 5 (541 orders)."""
    if k > 5:
        raise TooLarge(f"weak-order enumeration capped at 5 items, got {k}")
    if k == 0:
        yield ()
        return
    seen = set()
    for ranks in itertools.product(range(k), repeat=k):
        dense = dense_ranks(ranks)
        if dense not in seen:
            seen.add(dense)
            yield dense


def duplicate_outcome(R: Representation, outcome: int) -> Representation:
    """Alternative representation with one outcome duplicated; preserves the
    induced preference, so it must factor through the minimal one."""
    sigma = np.hstack([R.sigma, R.sigma[:, [outcome]]])
    return Representation(
        R.outcome_count + 1, sigma, R.outcome_ranks + (R.outcome_ranks[outcome],)
    )


def literal_dominance(sets, ranks) -> list:
    """rel[a][b] iff every x in sets[a] has some y in sets[b] with
    ranks[x] <= ranks[y]; a plain-loop oracle for checked_worst_ranks."""
    return [
        [all(any(ranks[x] <= ranks[y] for y in B) for x in A) for B in sets]
        for A in sets
    ]


def congruence_by_loop(L: Lattice, classes) -> Congruence:
    """A partition, one class per element of L, as a Congruence once every
    cell is compatible; ValueError if its length is not L.n.  The first
    incompatible cell (a, b) in row-major order, meet before join, raises
    IncompatiblePartition with (a0, b0, a, b), (a0, b0) the first cell of
    its class pair."""
    classes = class_ids(classes)
    if len(classes) != L.n:
        raise ValueError(f"classes: {len(classes)} entries for {L.n} elements")
    for op, table in (("meet", L.meet), ("join", L.join)):
        seen: dict = {}
        for a in range(L.n):
            for b in range(L.n):
                key = (classes[a], classes[b])
                val = classes[int(table[a, b])]
                if key in seen:
                    prev_val, (a0, b0) = seen[key]
                    if prev_val != val:
                        raise IncompatiblePartition(op, (a0, b0, a, b))
                else:
                    seen[key] = (val, (a, b))
    return Congruence(classes)


def powerset_hom_by_loop(L: Lattice, images, size: int) -> bool:
    """Plain-loop oracle for spectrum.is_powerset_hom: bounds, then every
    pair's meet and join as set operations."""
    if len(images) != L.n:
        return False
    if images[L.bottom] != frozenset() or images[L.top] != frozenset(range(size)):
        return False
    for a in range(L.n):
        for b in range(L.n):
            if images[int(L.meet[a, b])] != images[a] & images[b]:
                return False
            if images[int(L.join[a, b])] != images[a] | images[b]:
                return False
    return True


def check_sigma_isomorphism(L: Lattice, S: SpectralSpace) -> bool:
    """True iff sigma is injective on L and a bounded hom into the powerset
    of the points."""
    sigma = row_sets(S.member.T)
    return len(set(sigma)) == L.n and powerset_hom_by_loop(L, sigma, len(S.points))


def relative_complements(L: Lattice, a: int, a_prime: int) -> tuple[int, ...]:
    """All c with a | c == a | a' and a & c == bottom, ascending by index."""
    return tuple(
        c for c in range(L.n)
        if L.join[a, c] == L.join[a, a_prime] and L.meet[a, c] == L.bottom
    )


def relative_complement(L: Lattice, a: int, a_prime: int) -> Optional[int]:
    """The <=-least relative complement of a with respect to a', or None.

    The witness set is meet-closed in a distributive lattice, so the fold-meet
    of all witnesses is itself the least witness.
    """
    cands = relative_complements(L, a, a_prime)
    if not cands:
        return None
    least = cands[0]
    for c in cands[1:]:
        least = int(L.meet[least, c])
    if least not in cands:  # only reachable on non-distributive input
        raise NotALattice("relative complements are not meet-closed")
    return least


def is_boolean(L: Lattice) -> bool:
    """True iff every element has a (global) complement."""
    return all(
        any(L.meet[a, c] == L.bottom and L.join[a, c] == L.top for c in range(L.n))
        for a in range(L.n)
    )


def axiom1_by_loop(L: Lattice, ranks, domain=None) -> list:
    """The literal definition: pairs (a, b) of the domain, in lexicographic
    order, with a <= b but r(a) > r(b)."""
    dom = range(L.n) if domain is None else sorted(set(domain))
    return [(a, b) for a in dom for b in dom if L.meet[a, b] == a and ranks[a] > ranks[b]]


def axiom2_by_loop(L: Lattice, ranks, domain=None) -> list:
    """The literal definition: triples (a, a', b) of the domain, in
    lexicographic order, with a > b and a' > b but not (a | a') > b."""
    dom = range(L.n) if domain is None else sorted(set(domain))
    r, join = list(ranks), L.join.tolist()
    return [
        (a, a2, b)
        for a in dom
        for a2 in dom
        for b in dom
        if r[a] < r[b] and r[a2] < r[b] and not r[join[a][a2]] < r[b]
    ]


def trivializer_set(L: Lattice, W: WeakOrder, a: int) -> frozenset:
    """{b : a & b ~ bottom}, the set of descriptions trivializing a: the
    literal definition, which check_axiom3 evaluates for every a at once."""
    r0 = W.ranks[L.bottom]
    return frozenset(b for b in range(L.n) if W.ranks[int(L.meet[a, b])] == r0)


def axiom3_by_loop(L: Lattice, W: WeakOrder) -> list:
    """Plain-loop oracle for preference.check_axiom3, comparing the literal
    trivializer sets pair by pair."""
    keys = [trivializer_set(L, W, a) for a in range(L.n)]
    return [
        (a, a2)
        for a in range(L.n)
        for a2 in range(a + 1, L.n)
        if keys[a] == keys[a2] and not W.indifferent(a, a2)
    ]


def ideal_witness_by_loop(L: Lattice, I):
    """None if the subset I is down-closed and join-closed (an ideal, when
    non-empty).  Otherwise (a, b, kind) for the first a in I and then the
    first b at which it fails, down-closure tested before join-closure."""
    for a in sorted(I):
        for b in range(L.n):
            if L.meet[b, a] == b and b not in I:
                return a, b, "down-closure"
            if b in I and int(L.join[a, b]) not in I:
                return a, b, "join-closure"
    return None


def _require_ideal(L: Lattice, I) -> frozenset:
    Iset = frozenset(int(x) for x in I)
    if not Iset or ideal_witness_by_loop(L, Iset):
        raise NotAnIdeal(f"{sorted(Iset)} is not an ideal")
    return Iset


def congruence_beta_prime(L: Lattice, I) -> Congruence:
    """Fine congruence: a ~ b iff each is below the other joined with some
    ideal member.  With a finite ideal this reduces to a | max(I) == b | max(I).
    """
    Iset = _require_ideal(L, I)
    m = L.bottom
    for a in Iset:
        m = int(L.join[m, a])
    C = congruence_by_loop(L, (int(L.join[a, m]) for a in range(L.n)))
    if C.members(C.cls(L.bottom)) != Iset:
        raise NotAnIdeal("bottom class does not equal the ideal")
    return C


def congruence_beta_dprime(L: Lattice, I) -> Congruence:
    """Coarse congruence: a ~ b iff a and b are trivialized into the ideal by
    exactly the same elements, {c : a & c in I} == {c : b & c in I}."""
    Iset = _require_ideal(L, I)
    C = congruence_by_loop(L, (
        frozenset(c for c in range(L.n) if int(L.meet[a, c]) in Iset) for a in range(L.n)
    ))
    if C.members(C.cls(L.bottom)) != Iset:
        raise NotAnIdeal("bottom class does not equal the ideal")
    return C


def quotient_by_loop(L: Lattice, C: Congruence) -> tuple[Lattice, LatticeHom]:
    """The quotient lattice L/θ, C checked by congruence_by_loop, with its
    tables read pair by pair on the least member of each class and
    certified by build_lattice, plus the projection hom."""
    C = congruence_by_loop(L, C.classes)
    reps, k = C.representatives, C.num_classes
    meet = [[C.cls(int(L.meet[reps[i], reps[j]])) for j in range(k)] for i in range(k)]
    join = [[C.cls(int(L.join[reps[i], reps[j]])) for j in range(k)] for i in range(k)]
    Q = build_lattice(meet, join, C.cls(L.bottom), C.cls(L.top))
    return Q, LatticeHom(L, Q, C.classes)


def representation_by_quotient(L: Lattice, W: WeakOrder, C: Congruence) -> Representation:
    """The representation over a built L/θ, for a congruence C on whose
    classes W is constant: L/θ's own spectrum, and dual_forward on L/θ."""
    Q, h = quotient_by_loop(L, C)
    S = enumerate_prime_filters(Q)
    fwd = dual_forward(Q, S, WeakOrder([W.ranks[r] for r in C.representatives]))
    return Representation(len(S.points), S.member.T[list(h.mapping)], fwd.ranks)


@dataclass(frozen=True)
class ContourReport:
    members: frozenset
    is_ideal: bool
    proper: bool


def strict_upper_contour(
    L: Lattice, W: WeakOrder, a: int, assert_axioms: bool = False
) -> ContourReport:
    """{c : c > a} together with bottom, flagged for proper-ideal-hood."""
    if assert_axioms and not axioms12_hold(L, W):
        raise AxiomsNotSatisfied("Axioms 1-2 asserted but refuted by scan")
    members = frozenset(
        c for c in range(L.n) if W.strictly_prefers(c, a)
    ) | {L.bottom}
    return ContourReport(members, ideal_witness_by_loop(L, members) is None, len(members) < L.n)


@dataclass(frozen=True)
class ZeroClassReport:
    members: frozenset
    maximum: int
    proper: bool


def zero_class(L: Lattice, W: WeakOrder) -> ZeroClassReport:
    """The ideal I = {a : a ~ bottom}; NotAnIdeal with a witness if the
    axioms fail and I is not actually an ideal."""
    members = frozenset(a for a in range(L.n) if W.indifferent(a, L.bottom))
    witness = ideal_witness_by_loop(L, members)
    if witness:
        raise NotAnIdeal("indifference-to-bottom class is not an ideal", witness)
    maximum = L.bottom
    for a in members:
        maximum = int(L.join[maximum, a])
    return ZeroClassReport(members, maximum, len(members) < L.n)


def filter_witness(
    L: Lattice, S: SpectralSpace, W: WeakOrder, a: int, b: int
) -> Optional[frozenset]:
    """A prime filter G containing b with a >= b' for every b' in G, or None.

    First witness in canonical point order, for golden-file stability.
    """
    for G in S.points:
        if b in G and all(W.ranks[a] <= W.ranks[bp] for bp in G):
            return G
    return None


def kernel_split_by_loop(R_other: Representation, R_min: Representation):
    """Plain-loop oracle for the Refutation witness of
    representation.factor_check: the first pair a < b with equal R_other
    images but unequal R_min images, or None."""
    n = len(R_other.sigma_map)
    for a in range(n):
        for b in range(a + 1, n):
            if (
                R_other.sigma_map[a] == R_other.sigma_map[b]
                and R_min.sigma_map[a] != R_min.sigma_map[b]
            ):
                return a, b
    return None


def all_posets(size: int):
    """Every labeled strict partial order on `size` elements, as Posets."""
    pairs = [(i, j) for i in range(size) for j in range(size) if i != j]
    for bits in itertools.product((False, True), repeat=len(pairs)):
        rel = {p for p, b in zip(pairs, bits) if b}
        if any((j, i) in rel for i, j in rel):
            continue
        if any(
            (i, k) in rel and (k, j) in rel and (i, j) not in rel
            for i in range(size)
            for j in range(size)
            for k in range(size)
            if i != j and i != k and j != k
        ):
            continue
        covers = [
            (i, j)
            for i, j in rel
            if not any((i, k) in rel and (k, j) in rel for k in range(size))
        ]
        yield Poset(size, tuple(covers))


def point_mask(points) -> int:
    """Canonical bitmask key for a set of indices (bit i = index i)."""
    m = 0
    for i in points:
        m |= 1 << i
    return m


@dataclass(frozen=True)
class SubsetClassification:
    is_filter: bool
    proper_filter: bool
    prime_filter: bool
    is_ideal: bool
    proper_ideal: bool
    prime_ideal: bool


def classify_subset(L: Lattice, S) -> SubsetClassification:
    """Full filter/ideal classification flags for a subset of elements."""
    S = frozenset(int(x) for x in S)
    members = sorted(S)
    nonempty = bool(S)
    proper = len(S) < L.n

    up_closed = all(b in S for a in members for b in range(L.n) if L.meet[a, b] == a)
    meet_closed = all(int(L.meet[a, b]) in S for a in members for b in members)
    is_filter = nonempty and up_closed and meet_closed
    proper_filter = is_filter and proper
    prime_filter = proper_filter and all(
        a in S or b in S
        for a in range(L.n)
        for b in range(L.n)
        if int(L.join[a, b]) in S
    )

    down_closed = all(b in S for a in members for b in range(L.n) if L.meet[b, a] == b)
    join_closed = all(int(L.join[a, b]) in S for a in members for b in members)
    is_ideal = nonempty and down_closed and join_closed
    proper_ideal = is_ideal and proper
    prime_ideal = proper_ideal and all(
        a in S or b in S
        for a in range(L.n)
        for b in range(L.n)
        if int(L.meet[a, b]) in S
    )
    return SubsetClassification(
        is_filter, proper_filter, prime_filter, is_ideal, proper_ideal, prime_ideal
    )


def prime_filters_bruteforce(L: Lattice) -> list:
    """Independent oracle: scan all 2^n subsets.  Capped at n <= 20."""
    if L.n > 20:
        raise TooLarge(f"brute-force filter scan capped at 20 elements, got {L.n}")
    out = []
    for mask in range(1, 1 << L.n):
        S = frozenset(i for i in range(L.n) if mask >> i & 1)
        if classify_subset(L, S).prime_filter:
            out.append(S)
    out.sort(key=point_mask)
    return out


def join_irreducibles(L: Lattice) -> frozenset:
    """Non-bottom elements j with j == x | y implying j in {x, y}."""
    out = set()
    for j in range(L.n):
        if j == L.bottom:
            continue
        if all(
            x == j or y == j
            for x in range(L.n)
            for y in range(L.n)
            if int(L.join[x, y]) == j
        ):
            out.add(j)
    return frozenset(out)


def lattice_from_order(order, validate=True) -> Lattice:
    """Compute meet/join tables from a <=-matrix; NotALattice if some pair
    lacks a unique greatest lower / least upper bound."""
    rel = np.asarray(order, dtype=bool)
    n = rel.shape[0]
    if rel.shape != (n, n):
        raise ValueError("order matrix must be square")
    if not rel.diagonal().all():
        raise NotALattice("order is not reflexive")
    if (rel & rel.T & ~np.eye(n, dtype=bool)).any():
        raise NotALattice("order is not antisymmetric")
    meet = np.zeros((n, n), dtype=np.intp)
    join = np.zeros((n, n), dtype=np.intp)
    for a in range(n):
        for b in range(n):
            lower = np.flatnonzero(rel[:, a] & rel[:, b])
            glb = [int(g) for g in lower if all(rel[x, g] for x in lower)]
            upper = np.flatnonzero(rel[a] & rel[b])
            lub = [int(u) for u in upper if all(rel[u, x] for x in upper)]
            if len(glb) != 1:
                raise NotALattice(f"pair ({a},{b}) lacks a greatest lower bound")
            if len(lub) != 1:
                raise NotALattice(f"pair ({a},{b}) lacks a least upper bound")
            meet[a, b] = glb[0]
            join[a, b] = lub[0]
    bottoms = [a for a in range(n) if rel[a].all()]
    tops = [a for a in range(n) if rel[:, a].all()]
    if len(bottoms) != 1 or len(tops) != 1:
        raise NotALattice("order lacks global bounds")
    if validate:
        return build_lattice(meet, join, bottoms[0], tops[0])
    return Lattice(meet, join, bottoms[0], tops[0])


def compose(outer: LatticeHom, inner: LatticeHom) -> LatticeHom:
    if inner.target is not outer.source and inner.target.n != outer.source.n:
        raise ValueError("homs do not compose")
    return LatticeHom(
        inner.source, outer.target, tuple(outer.mapping[x] for x in inner.mapping)
    )


def kernel(h: LatticeHom) -> Congruence:
    return Congruence(class_ids(h.mapping))
