"""Known-answer inputs for the benchmark, built without importing lattimin.

Every lattice here is the lattice of down-sets of a finite poset P.  An
element is a bitmask over P, so meet is AND and join is OR, and the tables
are lawful by construction.  Elements are indexed by (popcount, mask), which
puts the empty down-set (bottom) first and P itself (top) last.

The prime filters of such a lattice are F_p = {D : p in D}, one per point
p of P, and the least element of F_p is the principal down-set of p.

A maximin order comes from outcome ranks: pick outcomes X within P and a
rank r(x) for each (lower = better).  A description D is scored by its worst
outcome, max r over D & X, and D & X empty scores best of all.  The paper's
theorems guarantee that such an order satisfies axioms 1 and 2, that the
dual roundtrip recovers it, and that its minimal representation exists,
verifies, and receives every other representation by factoring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _popcount(m: int) -> int:
    return bin(m).count("1")


def transitive_down(k: int, edges) -> list[int]:
    """down[i] = bitmask of the points <= i, from strict pairs (lo, hi)."""
    down = [1 << i for i in range(k)]
    for lo, hi in edges:
        down[hi] |= 1 << lo
    changed = True
    while changed:
        changed = False
        for i in range(k):
            acc = down[i]
            for j in range(k):
                if acc >> j & 1:
                    acc |= down[j]
            if acc != down[i]:
                down[i] = acc
                changed = True
    return down


def random_poset(k: int, rng: random.Random, edge_prob: float) -> list[int]:
    """Random poset on k points (pairs i < j related with edge_prob)."""
    edges = [(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < edge_prob]
    return transitive_down(k, edges)


def downsets(down: list[int]) -> list[int]:
    """All down-closed subsets of a small poset, by (popcount, mask)."""
    closure = [0] * (1 << len(down))  # union of the down-sets of m's points
    for m in range(1, len(closure)):
        low = m & -m
        closure[m] = closure[m ^ low] | down[low.bit_length() - 1]
    out = [m for m, c in enumerate(closure) if c == m]
    out.sort(key=lambda m: (_popcount(m), m))
    return out


def ordinal_sum(level_sizes) -> tuple[list[int], list[int]]:
    """Poset stacking antichains level on level, and its down-sets.

    A down-set is every point of the levels below plus any subset of one
    level, so there is no need to scan all subsets.
    """
    down, masks, below = [], [0], 0
    for size in level_sizes:
        level = [len(down) + i for i in range(size)]
        down.extend(below | 1 << p for p in level)
        for sub in range(1, 1 << size):
            masks.append(below | sum(1 << p for i, p in enumerate(level) if sub >> i & 1))
        below |= sum(1 << p for p in level)
    masks.sort(key=lambda m: (_popcount(m), m))
    return down, masks


@dataclass
class Lattice:
    """Down-set lattice: the poset (as down masks) and its elements."""

    down: list[int]
    masks: list[int]

    @property
    def n(self) -> int:
        return len(self.masks)

    @property
    def points(self) -> int:
        return len(self.down)

    @cached_property
    def tables(self) -> tuple[list[list[int]], list[list[int]]]:
        """(meet, join) as index tables."""
        index = {m: i for i, m in enumerate(self.masks)}
        ms = self.masks
        meet = [[index[a & b] for b in ms] for a in ms]
        join = [[index[a | b] for b in ms] for a in ms]
        return meet, join

    def to_dict(self) -> dict:
        meet, join = self.tables
        return {"n": self.n, "bottom": 0, "top": self.n - 1, "meet": meet, "join": join}

    def prime_filters(self) -> dict[int, tuple[int, ...]]:
        """Point p -> the element indices of its prime filter F_p."""
        return {
            p: tuple(i for i, m in enumerate(self.masks) if m >> p & 1)
            for p in range(self.points)
        }


def boolean(k: int) -> Lattice:
    """B_k: down-sets of a k-point antichain."""
    down = [1 << i for i in range(k)]
    masks = sorted(range(1 << k), key=lambda m: (_popcount(m), m))
    return Lattice(down, masks)


def chain(n: int) -> Lattice:
    """The n-element chain: down-sets of an (n-1)-point chain."""
    down, masks = ordinal_sum([1] * (n - 1))
    return Lattice(down, masks)


def dense(values) -> list[int]:
    order = {v: i for i, v in enumerate(sorted(set(values)))}
    return [order[v] for v in values]


@dataclass
class Maximin:
    """A maximin order with its generating representation and known answers."""

    ranks: list[int]  # dense rank per element, lower = better
    outcomes: list[int]  # points of P used as outcomes, ascending
    outcome_ranks: list[int]
    forward: dict[int, int]  # point p -> dense rank of F_p's best member

    def rep_dict(self, L: Lattice, duplicate: int | None = None) -> dict:
        """The generating representation, optionally with one outcome
        duplicated (same rank, same images), which represents the same order."""
        sigma = {
            str(i): [j for j, p in enumerate(self.outcomes) if m >> p & 1]
            for i, m in enumerate(L.masks)
        }
        ranks = list(self.outcome_ranks)
        if duplicate is not None:
            new = len(ranks)
            ranks.append(ranks[duplicate])
            for s in sigma.values():
                if duplicate in s:
                    s.append(new)
        return {"outcomes": len(ranks), "sigma": sigma, "outcome_ranks": ranks}


def maximin(L: Lattice, rng: random.Random, keep: float = 0.6) -> Maximin:
    """Random maximin order: a random nonempty outcome set with random ranks."""
    k = L.points
    outcomes = [p for p in range(k) if rng.random() < keep] or [rng.randrange(k)]
    r = [rng.randrange(len(outcomes)) for _ in outcomes]
    scores = []
    for m in L.masks:
        worst = [r[j] for j, p in enumerate(outcomes) if m >> p & 1]
        scores.append(1 + max(worst) if worst else 0)
    ranks = dense(scores)
    index = {m: i for i, m in enumerate(L.masks)}
    best = dense([ranks[index[L.down[p]]] for p in range(k)])
    return Maximin(ranks, outcomes, r, dict(enumerate(best)))


def factorable_maximin(L: Lattice, rng: random.Random, all_outcomes: bool) -> Maximin:
    """A maximin order whose generating representation must factor through
    the minimal representation lattimin synthesizes.

    That holds when every point is an outcome (the generating representation
    is then injective) or when axiom 3 holds (the minimal representation is
    then the coarse quotient, the coarsest there is), so orders on fewer
    outcomes are redrawn until axiom 3 holds.  Without either, the synthesis
    falls back to a finer quotient that need not receive every representation.
    """
    if not all_outcomes:
        for _ in range(1000):
            W = maximin(L, rng)
            if not trivializer_clashes(L, W.ranks):
                return W
    return maximin(L, rng, keep=1.0)


def trivializer_clashes(L: Lattice, ranks: list[int]) -> list[tuple[int, int]]:
    """Pairs with equal trivializer sets {c : a & c ~ bottom} but unequal rank."""
    meet = np.array(L.tables[0], dtype=np.intp)
    r = np.asarray(ranks)
    keys = [row.tobytes() for row in r[meet] == r[0]]
    return [
        (a, b)
        for a in range(L.n)
        for b in range(a + 1, L.n)
        if keys[a] == keys[b] and r[a] != r[b]
    ]


def break_axiom1(L: Lattice, W: Maximin, rng: random.Random) -> tuple[list[int], tuple[int, int]]:
    """Make one element strictly between bottom and top the worst of all.

    It then sits below top but is ranked worse than top, so (a, top) is an
    axiom-1 violation on non-bottom elements.
    """
    a = rng.randrange(1, L.n - 1)
    ranks = list(W.ranks)
    ranks[a] = max(ranks) + 1
    return dense(ranks), (a, L.n - 1)


def corrupt(table: dict, rng: random.Random) -> tuple[dict, str]:
    """Break commutativity of meet or join at one off-diagonal pair.

    The entry at (a, b) becomes an element other than its mirror (b, a), so
    the named commutativity law fails whatever else does.
    """
    n = table["n"]
    op = rng.choice(("meet", "join"))
    a, b = rng.sample(range(n), 2)
    rows = [list(row) for row in table[op]]
    rows[a][b] = rng.choice([v for v in range(n) if v != rows[b][a]])
    return {**table, op: rows}, f"{op}-commutativity"
