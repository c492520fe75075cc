import random

import numpy as np
import pytest

from lattimin import io as io_module
from lattimin.lattice import Lattice
from lattimin.testkit import random_distributive_lattice


@pytest.fixture(autouse=True)
def fresh_lattice_memo(monkeypatch):
    """Each test starts with no lattice file remembered by io.load_lattice,
    so a test that writes a file parses it, whatever earlier tests loaded."""
    monkeypatch.setattr(io_module, "_last_lattice", (None, None))


def same_tables(L1, L2):
    """Equality of lattices as tables: size, bounds, meet and join."""
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


def mask_family_by_loop(masks):
    """Plain-loop oracle for a lattice of bitmasks closed under & and |:
    (meet, join, index) over the distinct masks sorted by (size, mask), with
    index the mask -> element map."""
    masks = sorted(set(masks), key=lambda m: (bin(m).count("1"), m))
    index = {m: i for i, m in enumerate(masks)}
    meet = [[index[x & y] for y in masks] for x in masks]
    join = [[index[x | y] for y in masks] for x in masks]
    return meet, join, index
