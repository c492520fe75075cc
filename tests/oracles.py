"""Exhaustive enumerators and plain-loop oracles the tests compare the
array code against.  Each oracle evaluates its definition literally, one
element or pair at a time."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from lattimin.errors import IncompatiblePartition, NotALattice, TooLarge
from lattimin.lattice import Lattice, LatticeHom, Poset, build_lattice, class_ids
from lattimin.preference import WeakOrder, dense_ranks
from lattimin.representation import Congruence, Representation


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
    """Plain-loop oracle for congruence_from_classes: the first incompatible
    cell in row-major order, meet before join, raises IncompatiblePartition."""
    classes = class_ids(classes)
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


def trivializer_classes_by_loop(L: Lattice, I) -> tuple[int, ...]:
    """Plain-loop oracle for the classes behind
    representation.congruence_beta_dprime: a ~ b iff {c : a & c in I} and
    {c : b & c in I} are equal sets."""
    return class_ids(
        frozenset(c for c in range(L.n) if int(L.meet[a, c]) in I) for a in range(L.n)
    )


def quotient_by_loop(L: Lattice, C: Congruence):
    """Plain-loop oracle for the tables and labels of
    representation.quotient: (meet, join, labels) over the representatives."""
    reps, k = C.representatives, C.num_classes
    meet = [[C.cls(int(L.meet[reps[i], reps[j]])) for j in range(k)] for i in range(k)]
    join = [[C.cls(int(L.join[reps[i], reps[j]])) for j in range(k)] for i in range(k)]
    labels = None
    if L.labels is not None:
        labels = tuple(
            "|".join(L.labels[a] for a in sorted(C.members(c))) for c in range(k)
        )
    return meet, join, labels


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

    up_closed = all(b in S for a in members for b in range(L.n) if L.leq_table[a, b])
    meet_closed = all(int(L.meet[a, b]) in S for a in members for b in members)
    is_filter = nonempty and up_closed and meet_closed
    proper_filter = is_filter and proper
    prime_filter = proper_filter and all(
        a in S or b in S
        for a in range(L.n)
        for b in range(L.n)
        if int(L.join[a, b]) in S
    )

    down_closed = all(b in S for a in members for b in range(L.n) if L.leq_table[b, a])
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


def lattice_from_order(order, labels=None, validate=True) -> Lattice:
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
        return build_lattice(meet, join, bottoms[0], tops[0], labels)
    return Lattice(meet, join, bottoms[0], tops[0], labels)


def compose(outer: LatticeHom, inner: LatticeHom) -> LatticeHom:
    if inner.target is not outer.source and inner.target.n != outer.source.n:
        raise ValueError("homs do not compose")
    return LatticeHom(
        inner.source, outer.target, tuple(outer.mapping[x] for x in inner.mapping)
    )


def kernel(h: LatticeHom) -> Congruence:
    return Congruence(class_ids(h.mapping))
