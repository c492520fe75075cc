"""Deterministic generators and exhaustive enumerators for oracle tests.

Everything is a pure function of (parameters, seed); identical seeds
reproduce identical outputs bit for bit.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from .errors import IncompatiblePartition, TooLarge
from .lattice import Lattice, Poset, class_ids, downset_lattice
from .preference import WeakOrder, dense_ranks, trivializer_set
from .representation import Congruence, Representation, derive_pref_from_rep
from .spectrum import enumerate_prime_filters

EDGE_PROB = 0.4  # mixes chains and antichains well at size <= 6
MAX_POSET_SIZE = 6


def random_poset(size: int, rng: random.Random) -> Poset:
    """Random poset via upper-triangular edge inclusion + transitive closure,
    given by its covers in row-major order."""
    edges = [(i, j) for i in range(size) for j in range(i + 1, size)
             if rng.random() < EDGE_PROB]
    rel = Poset(size, edges).leq & ~np.eye(size, dtype=bool)
    return Poset(size, [(i, j) for i, j in zip(*np.nonzero(rel))
                        if not (rel[i] & rel[:, j]).any()])


def random_distributive_lattice(max_poset_size: int, seed: int) -> Lattice:
    """Down-set lattice of a random poset; distributive by construction."""
    if max_poset_size > MAX_POSET_SIZE:
        raise TooLarge(
            f"random lattice generation capped at poset size {MAX_POSET_SIZE}"
        )
    rng = random.Random(seed)
    size = rng.randint(1, max_poset_size)
    return downset_lattice(random_poset(size, rng))


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


def random_weak_order(k: int, rng: random.Random) -> tuple[int, ...]:
    """Uniform-ish dense rank vector over k items."""
    if k == 0:
        return ()
    return dense_ranks(tuple(rng.randrange(k) for _ in range(k)))


def random_representation(L: Lattice, seed: int) -> Representation:
    """Random subset of L's prime filters, non-empty if L has any, sigma
    restricted to it, random rank function on the chosen outcomes."""
    rng = random.Random(seed)
    member = enumerate_prime_filters(L).member
    p = member.shape[0]
    chosen = [i for i in range(p) if rng.random() < 0.5]
    if not chosen and p:
        chosen = [rng.randrange(p)]
    ranks = random_weak_order(len(chosen), rng)
    return Representation(len(chosen), member.T[:, chosen], ranks)


def derived_weak_order(L: Lattice, seed: int) -> WeakOrder:
    """Axiom-1/2-satisfying weak order obtained from a random representation."""
    return derive_pref_from_rep(random_representation(L, seed))


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
