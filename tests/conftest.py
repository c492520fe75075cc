import random

import numpy as np

from lattimin.lattice import Lattice
from lattimin.testkit import random_distributive_lattice


def same_tables(L1, L2):
    """Equality of lattices as labeled structures (labels ignored)."""
    return (
        L1.n == L2.n
        and L1.bottom == L2.bottom
        and L1.top == L2.top
        and np.array_equal(L1.meet, L2.meet)
        and np.array_equal(L1.join, L2.join)
    )


def random_tables(seed):
    """A seeded table pair on 1..8 elements: uniform noise on even seeds, a
    lawful lattice with a few entries overwritten on odd ones."""
    rng = random.Random(seed)
    if seed % 2:
        L = random_distributive_lattice(4, seed)
        meet, join, n = L.meet.copy(), L.join.copy(), L.n
        for _ in range(rng.randint(1, 3)):
            table = meet if rng.random() < 0.5 else join
            table[rng.randrange(n), rng.randrange(n)] = rng.randrange(n)
        return Lattice(meet, join, L.bottom, L.top)
    n = rng.randint(1, 8)
    meet, join = (np.array([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
                  for _ in range(2))
    return Lattice(meet, join, rng.randrange(n), rng.randrange(n))
