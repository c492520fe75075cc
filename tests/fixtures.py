"""Small named lattices and orders used throughout the test suite."""

from __future__ import annotations

import numpy as np

from lattimin.lattice import Lattice, Poset, build_lattice, downset_lattice
from lattimin.preference import WeakOrder

from oracles import lattice_from_order


def chain(k: int) -> Lattice:
    """Totally ordered lattice on k elements: meet=min, join=max."""
    meet = [[min(i, j) for j in range(k)] for i in range(k)]
    join = [[max(i, j) for j in range(k)] for i in range(k)]
    return build_lattice(meet, join, 0, k - 1)


def principal(L: Lattice, a: int, up: bool = False) -> frozenset:
    """The elements below a, or with up=True the elements above a: the b
    with meet[b, a] == b, or meet[a, b] == a."""
    below = L.meet[a] == a if up else L.meet[:, a] == np.arange(L.n)
    return frozenset(np.flatnonzero(below).tolist())


CHAIN2 = chain(2)
CHAIN3 = chain(3)

# Boolean algebras with 1..3 atoms, via down-sets of antichains.
B1 = downset_lattice(Poset(1))
B2 = downset_lattice(Poset(2))
B3 = downset_lattice(Poset(3))

# B2 element indices, for readability in tests.
B2_BOT, B2_A, B2_B, B2_TOP = 0, 1, 2, 3


# Three-atom diamond: modular but not distributive.  0 < a,b,c < 1.
M3 = lattice_from_order(
    Poset(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]).leq,
    validate=False,
)

# Pentagon: not modular.  0 < a < c < 1 and 0 < b < 1.
N5 = lattice_from_order(
    Poset(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]).leq,
    validate=False,
)

# Weak order on CHAIN3: 0 most preferred, then 1/2, then 1.
W3 = WeakOrder((0, 1, 2))
