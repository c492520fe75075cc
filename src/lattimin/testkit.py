"""Seeded generators of posets, lattices, weak orders and representations,
for `lattimin fuzz` and the tests.

Everything is a pure function of (parameters, seed); identical seeds
reproduce identical outputs bit for bit.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import TooLarge
from .lattice import Lattice, Poset, downset_lattice
from .preference import WeakOrder, dense_ranks
from .representation import Representation, derive_pref_from_rep
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
