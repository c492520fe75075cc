"""Weak orders on lattice elements and the three preference axioms.

Rank encoding: lower rank = more preferred, so the impossible description
(bottom) sits at rank 0 whenever Axiom 1 holds.  Completeness and
transitivity hold by construction of the encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import TooLarge
from .lattice import Lattice, _row_blocks, row_classes


@dataclass(frozen=True)
class WeakOrder:
    """Complete transitive relation encoded as a rank per element."""

    ranks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(map(int, self.ranks)))

    @property
    def n(self) -> int:
        return len(self.ranks)

    def weakly_prefers(self, a: int, b: int) -> bool:
        return self.ranks[a] <= self.ranks[b]

    def strictly_prefers(self, a: int, b: int) -> bool:
        return self.ranks[a] < self.ranks[b]

    def indifferent(self, a: int, b: int) -> bool:
        return self.ranks[a] == self.ranks[b]


def dense_ranks(values) -> tuple[int, ...]:
    """Relabel comparable values to dense ranks 0..m-1, keeping their order."""
    values = list(values)
    order = {v: i for i, v in enumerate(sorted(set(values)))}
    return tuple(map(order.__getitem__, values))


def first_disagreement(r, s) -> Optional[tuple[int, int]]:
    """First pair (a, b), in row-major order, where the rank vectors r and s
    disagree on a <= b: the first entry where the planes [r(a) <= r(b)] and
    [s(a) <= s(b)] differ.  The planes agree iff the dense ranks do, so
    those are compared first, and the planes built only to name the pair."""
    if dense_ranks(r) == dense_ranks(s):
        return None
    u, v = np.asarray(r), np.asarray(s)
    bad = (u[:, None] <= u) != (v[:, None] <= v)
    if not bad.any():
        return None
    return divmod(int(bad.argmax()), len(u))


def _worst_ranks(M, ranks) -> list[int]:
    """Fast path: the worst (highest) rank among the members of each row of
    the membership matrix M.  An empty row scores below every rank, so it is
    weakly preferred to everything."""
    floor = min(ranks, default=0) - 1
    return np.where(M, np.asarray(ranks, dtype=np.int64), floor).max(1, initial=floor).tolist()


def checked_worst_ranks(M, ranks) -> list[int]:
    """Worst member rank per row of the boolean membership matrix M (M[a, x]
    iff x is in set a), checked against the literal formula.

    Set a is weakly preferred to set b iff every x in a has some y in b with
    ranks[x] <= ranks[y].  That relation is evaluated on its own, by boolean
    matrix products over M, and must agree with comparing worst ranks;
    RuntimeError names the first pair where it does not.
    """
    worst = _worst_ranks(M, ranks)
    r = np.asarray(ranks)
    some = (r[:, None] <= r[None, :]) @ M.T  # some[x, b]: x matched in b
    rel = ~(M @ ~some)  # rel[a, b]: no member of a unmatched in b
    w = np.asarray(worst)
    bad = rel != (w[:, None] <= w[None, :])
    if bad.any():
        a, b = (int(v) for v in np.argwhere(bad)[0])
        raise RuntimeError(
            f"worst-rank fast path disagrees with literal formula at ({a},{b})"
        )
    return worst


# Most violations (axiom-1 or axiom-3 pairs, axiom-2 triples) one check
# lists; above it, TooLarge.  It bounds the memory of one report under a
# 256 MiB address-space cap (Python 3.11, numpy 2.4): on B10, 255,496
# axiom-2 triples peak at 142 MiB resident in `lattimin represent`, and
# 439,492 run out of it; on C1024, 261,632 axiom-1 pairs and as many axiom-3
# pairs in one report peak at 150.5 MiB resident in `lattimin axioms`.
MAX_LISTED_VIOLATIONS = 1 << 18


def _refuse_over_cap(axiom: int, total: int, what: str) -> None:
    """TooLarge if an axiom has more violations than MAX_LISTED_VIOLATIONS."""
    if total > MAX_LISTED_VIOLATIONS:
        raise TooLarge(
            f"axiom {axiom} has {total} violating {what}, "
            f"over the listing cap of {MAX_LISTED_VIOLATIONS}"
        )


def _axiom1_pairs(L: Lattice, r: np.ndarray) -> np.ndarray:
    """[a <= b in L and r(a) > r(b)] as a bool matrix; a <= b is read off
    the meet table per call, as meet[a, b] == a."""
    return (L.meet == np.arange(L.n)[:, None]) & (r[:, None] > r[None, :])


def _maximin(L: Lattice, r: np.ndarray) -> bool:
    """Whether axioms 1-2 hold by the paper's maximin identity: r(a) =
    max(r(bottom), max r(j) over j in J(L) with j <= a) for every a, read off
    L.birkhoff's (J, U), column a of U the j <= a.  False when L is lawless.

    Sound and complete on a distributive L.  Axiom 1 makes r monotone and
    axiom 2 with b = a | a' makes r(a | a') <= max(r(a), r(a')), so r is a
    join-homomorphism into (ranks, max), and every a is the join of the j
    below it.  Conversely the identity makes r monotone, and as
    join-irreducibles are join-prime, the j below a | a' are those below a
    or a', so r(a | a') = max(r(a), r(a')) and no triple violates axiom 2."""
    if (birkhoff := L.birkhoff) is None:
        return False
    J, U = birkhoff
    floor = r[L.bottom]
    return bool((np.where(U, r[J][:, None], floor).max(0, initial=floor) == r).all())


def check_axiom1(L: Lattice, W: WeakOrder) -> list:
    """Violating pairs (a, b) with a <= b in the lattice but a not >= b in W.
    Empty without a scan when _maximin certifies axioms 1-2.  TooLarge,
    before any pair is listed, if there are more than
    MAX_LISTED_VIOLATIONS."""
    r = np.asarray(W.ranks)
    if _maximin(L, r):
        return []
    bad = _axiom1_pairs(L, r)
    _refuse_over_cap(1, int(bad.sum()), "pairs")
    return list(map(tuple, np.argwhere(bad).tolist()))


def _axiom2_rows(L: Lattice, r: np.ndarray) -> np.ndarray:
    """How many of check_axiom2's violating triples (a, a', b) have row a,
    per a; a row is flagged iff its count is positive.

    c[x] counts the ranks <= r(x).  The b with max(r(a), r(a')) < r(b) <=
    r(a | a') number max(0, c[a | a'] - max(c[a], c[a'])), because c is
    monotone in r.  So the count costs n^2 integer operations, evaluated
    over blocks of a, in place of n^3."""
    c = np.searchsorted(np.sort(r), r, "right").astype(np.int32)
    rows = np.zeros(L.n, dtype=np.int64)
    for s in _row_blocks(L.n, L.n):
        excess = c[L.join[s]]
        excess -= np.maximum(c[s, None], c)
        rows[s] = np.maximum(excess, 0, out=excess).sum(1)
    return rows


def check_axiom2(L: Lattice, W: WeakOrder) -> list:
    """Violating triples (a, a', b): a > b and a' > b but (a | a') not > b,
    in lexicographic order.  Empty without a scan when _maximin certifies
    axioms 1-2.  Otherwise the triples are scanned only on the rows a that
    _axiom2_rows flags, in blocks of a, so memory stays O(BLOCK_ELEMENTS)
    however large n is.  TooLarge, before any triple is listed, if there are
    more than MAX_LISTED_VIOLATIONS."""
    r = np.asarray(W.ranks)
    if _maximin(L, r):
        return []
    counts = _axiom2_rows(L, r)
    flagged = np.flatnonzero(counts)
    if not flagged.size:
        return []
    _refuse_over_cap(2, int(counts.sum()), "triples")
    strict = r[:, None] < r[None, :]
    out = []
    for s in _row_blocks(flagged.size, L.n * L.n):
        a = flagged[s]
        bad = strict[a, None, :] & strict[None, :, :] & (r[L.join[a]][:, :, None] >= r)
        found = np.argwhere(bad)
        found[:, 0] = a[found[:, 0]]  # block row -> element a
        out += map(tuple, found.tolist())
    return out


def check_axiom3(L: Lattice, W: WeakOrder) -> list:
    """Violating pairs (a, a') with identical trivializer sets but a !~ a',
    in lexicographic order.  Row a of [r(a & b) == r(bottom)] is the
    trivializer set of a, so equal rows mean equal sets.  TooLarge, before
    any pair is listed, if there are more than MAX_LISTED_VIOLATIONS."""
    r = np.asarray(W.ranks)
    k, _ = row_classes((r == r[L.bottom])[L.meet])
    bad = np.triu((k[:, None] == k) & (r[:, None] != r), 1)
    _refuse_over_cap(3, int(bad.sum()), "pairs")
    return list(map(tuple, np.argwhere(bad).tolist()))


def axioms12_hold(L: Lattice, W: WeakOrder) -> bool:
    """Whether axioms 1 and 2 hold: by _maximin, or where it fails, by the
    pair scan and axiom 2's count certificate, without listing triples."""
    r = np.asarray(W.ranks)
    return _maximin(L, r) or not (_axiom1_pairs(L, r).any() or _axiom2_rows(L, r).any())
