"""Finite bounded distributive lattices given by explicit meet/join tables.

Elements are dense integer indices 0..n-1.  The canonical order is
``a <= b`` iff ``meet[a][b] == a``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from .errors import LawViolation, PosetCyclic, TooLarge, quote

# Entries per block of the O(n^3) table scans: every n up to 101 is one block.
BLOCK_ELEMENTS = 1 << 20
# Most elements of a down-set lattice: the down-sets of a 12-element antichain.
# At 8192 elements its two intp tables alone would take 1 GiB.
MAX_ELEMENTS = 4096
# Most points of a Poset, refused before any work: its down-sets are
# enumerated over all 2^n subsets.
MAX_POSET_ELEMENTS = 16


def _freeze(table) -> np.ndarray:
    """table as a read-only intp array; rows of unequal length, which have no
    array shape, give an empty 1-d array, so Lattice's square check refuses
    them."""
    try:
        arr = np.ascontiguousarray(table, dtype=np.intp)
    except ValueError:
        arr = np.empty(0, dtype=np.intp)
    arr.setflags(write=False)
    return arr


def size_mask_order(M: np.ndarray) -> np.ndarray:
    """The row indices of a boolean matrix in the canonical set order: by
    size, then by mask, where column i is bit i; equal rows keep their order."""
    return np.lexsort(np.vstack([M.T, M.sum(1)]))


@dataclass(frozen=True)
class LawIssue:
    """One violated lattice law with its lexicographically minimal witness."""

    law: str
    witness: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Poset:
    """Finite poset given by cover pairs (lower, upper)."""

    n: int
    covers: tuple = ()

    def __post_init__(self):
        if self.n > MAX_POSET_ELEMENTS:
            raise TooLarge(f"posets capped at {MAX_POSET_ELEMENTS} elements, got {self.n}")
        if self.n < 0:
            raise ValueError(f"n: {self.n} is negative")
        object.__setattr__(self, "covers", tuple(tuple(map(int, c)) for c in self.covers))
        for cover in self.covers:
            if len(cover) != 2:
                raise ValueError(f"covers: {quote(str(list(cover)))} is not a pair")
            a, b = cover
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"cover ({a},{b}) out of range for n={self.n}")
            if a == b:
                raise PosetCyclic(f"self-cover on element {a}")
        self.leq  # force cycle detection at construction time

    @cached_property
    def leq(self) -> np.ndarray:
        """Reflexive-transitive closure of the cover relation (bool matrix)."""
        rel = np.eye(self.n, dtype=bool)
        for a, b in self.covers:
            rel[a, b] = True
        for _ in range(self.n):
            new = rel | (rel @ rel)
            if np.array_equal(new, rel):
                break
            rel = new
        strict_cycle = rel & rel.T & ~np.eye(self.n, dtype=bool)
        if strict_cycle.any():
            a, b = map(int, np.argwhere(strict_cycle)[0])
            raise PosetCyclic(f"elements {a} and {b} lie on a cycle")
        return rel

    def downset_masks(self) -> list[int]:
        """All down-closed subsets as bitmasks, sorted by (size, mask)."""
        bit = 1 << np.arange(self.n)
        down = bit @ self.leq  # down[i]: the points <= i
        m = np.arange(1 << self.n)[:, None]
        inside = (m & bit).astype(bool)
        # m is closed iff no point of m has a point below it outside m
        closed = ~(inside & ((m & down) != down)).any(1)
        return m[closed, 0][size_mask_order(inside[closed])].tolist()


@dataclass(frozen=True, eq=False)
class Lattice:
    """Bounded lattice over indices 0..n-1 with explicit operation tables.

    Construction performs shape/range sanity checks only; use
    :func:`build_lattice` to get a law-validated instance.  Values are
    immutable after construction, so concurrent reads are safe.
    """

    meet: np.ndarray
    join: np.ndarray
    bottom: int
    top: int

    def __post_init__(self):
        object.__setattr__(self, "meet", _freeze(self.meet))
        object.__setattr__(self, "join", _freeze(self.join))
        object.__setattr__(self, "bottom", int(self.bottom))
        object.__setattr__(self, "top", int(self.top))
        n = self.meet.shape[0]
        if self.meet.shape != (n, n) or self.join.shape != (n, n):
            raise ValueError("meet and join must be square tables of equal size")
        for name, t in (("meet", self.meet), ("join", self.join)):
            if t.size and (int(t.min()) < 0 or int(t.max()) >= n):
                raise ValueError(f"{name} table entries out of range 0..{n - 1}")
        if not (0 <= self.bottom < n and 0 <= self.top < n):
            raise ValueError("bottom/top out of range")

    @property
    def n(self) -> int:
        return self.meet.shape[0]

    @cached_property
    def birkhoff(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """(J, U) iff every law validate_laws checks holds, else None: J(L)
        as ascending indices and the read-only up-set matrix U, row i the
        up-set of J[i], which the spectrum and synthesis read.  Decided by
        Birkhoff's representation instead of a scan of all triples.

        The bound laws are checked directly.  The candidates S are the
        non-bottom elements that no pair (a, b) gives as a | b outside {a, b},
        and P[a] = {s in S : s <= a}.  If a -> P[a] is injective and sends
        meet to intersection and join to union, the tables are isomorphic to
        a sublattice of the powerset of S, where every law holds: the
        certificate is sound for any S and any table.  On a distributive
        lattice S is J(L), and by Birkhoff's theorem the map is such an
        embedding, so every lawful table is accepted.  The products run over
        the scan's row blocks; with fewer than n candidates, a block of P[M]
        has fewer bytes than its n-by-n planes have entries.
        """
        M, J, n = self.meet, self.join, self.n
        if (M[self.bottom] != self.bottom).any() or (J[self.top] != self.top).any():
            return None
        idx = np.arange(n)
        joined = np.zeros(n, dtype=bool)  # c == a | b with c not in {a, b}
        joined[J[(J != idx[:, None]) & (J != idx[None, :])]] = True
        S = np.flatnonzero(~joined & (idx != self.bottom))
        U = M[S] == S[:, None]  # U[i, a] iff S[i] <= a
        P = np.ascontiguousarray(np.packbits(U, axis=0).T)
        if len(row_classes(P)[1]) < n:
            return None
        if not _is_set_hom(self, P):
            return None
        S.setflags(write=False)  # shared by every caller
        U.setflags(write=False)
        return S, U

    @cached_property
    def spectrum(self):
        """The prime filters ↑j, j in J(L), as a SpectralSpace, computed once
        per lattice; ``spectrum.enumerate_prime_filters`` returns it.
        LawViolation if the tables are not a distributive lattice."""
        from .spectrum import SpectralSpace  # spectrum imports this module

        return SpectralSpace(_certify(self)[1])


def _row_blocks(n: int, width: Optional[int] = None):
    """Slices of 0..n-1 whose rows of `width` entries each (default n * n,
    an n-by-n plane) hold at most BLOCK_ELEMENTS entries together (at least
    one row each)."""
    rows = max(1, BLOCK_ELEMENTS // (n * n if width is None else width))
    return [slice(start, start + rows) for start in range(0, n, rows)]


def validate_laws(L: Lattice) -> list[LawIssue]:
    """All lattice-law violations of L, each with its lexicographically
    first witness; empty iff L is a bounded distributive lattice.

    Violations are data, not errors.  The certificate ``L.birkhoff`` accepts
    exactly the lawful tables in O(n^2 |J|) time; only a table it rejects
    goes through _scan_laws, the O(n^3) scan that finds the witnesses.
    """
    return [] if L.birkhoff is not None else list(_scan_laws(L))


def _certify(L: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """L.birkhoff, (J(L), its up-set matrix), of a lawful L; LawViolation
    naming the first broken law and its witness otherwise, found by a scan
    that stops there."""
    if L.birkhoff is None:
        issue = next(_scan_laws(L))
        raise LawViolation(issue.law, issue.witness)
    return L.birkhoff


def _is_set_hom(L: Lattice, P: np.ndarray) -> bool:
    """True iff the packed bit rows P, one set per element, satisfy
    P[a & b] == P[a] & P[b] and P[a | b] == P[a] | P[b] for every pair,
    evaluated over row blocks of a."""
    M, J = L.meet, L.join
    for s in _row_blocks(L.n):
        if not np.array_equal(P[M[s]], P[s, None] & P[None]):
            return False
        if not np.array_equal(P[J[s]], P[s, None] | P[None]):
            return False
    return True


def _scan_laws(L: Lattice) -> Iterator[LawIssue]:
    """Yield each lattice-law violation as the scan of all pairs/triples
    finds it, each law over blocks of its first index, so memory stays
    O(BLOCK_ELEMENTS) however large n is."""
    M, J = L.meet, L.join
    idx = np.arange(L.n)
    # law -> bad(s): where the law fails, first index restricted to slice s.
    # T[T[s]][a,b,c] == T[T[a,b],c];  T[s][:, T][a,b,c] == T[a, T[b,c]]
    laws = {
        "meet-commutativity": lambda s: M[s] != M[:, s].T,
        "join-commutativity": lambda s: J[s] != J[:, s].T,
        "meet-associativity": lambda s: M[M[s]] != M[s][:, M],
        "join-associativity": lambda s: J[J[s]] != J[s][:, J],
        "join-absorption": lambda s: J[idx[s, None], M[s]] != idx[s, None],
        "meet-absorption": lambda s: M[idx[s, None], J[s]] != idx[s, None],
        "meet-over-join-distributivity": lambda s: (
            M[s][:, J] != J[M[s][:, :, None], M[s][:, None, :]]
        ),
        "join-over-meet-distributivity": lambda s: (
            J[s][:, M] != M[J[s][:, :, None], J[s][:, None, :]]
        ),
        "bottom-bound": lambda s: M[L.bottom, s] != L.bottom,
        "top-bound": lambda s: J[L.top, s] != L.top,
    }
    for law, bad in laws.items():
        for s in _row_blocks(L.n):
            where = np.argwhere(bad(s))
            if where.size:
                first = [int(v) for v in where[0]]
                first[0] += s.start
                yield LawIssue(law, tuple(first))
                break


def build_lattice(meet_table, join_table, bottom, top) -> Lattice:
    """Construct and fully validate a bounded distributive lattice.

    Raises LawViolation naming the first broken law and its witness.
    """
    L = Lattice(meet_table, join_table, bottom, top)
    _certify(L)
    return L


def downset_lattice(P: Poset) -> Lattice:
    """Lattice of down-closed subsets of P, ordered by inclusion.

    Elements are the down-set bitmasks sorted by (size, mask).  Meet is
    intersection and join is union, so the result is distributive by
    construction.  build_lattice validates it all the same; for a lawful
    table that costs the O(n^2 |J|) embedding check, not the O(n^3) scan.
    TooLarge if there are more than MAX_ELEMENTS down-sets.
    """
    masks = P.downset_masks()
    k = len(masks)
    if k > MAX_ELEMENTS:
        raise TooLarge(f"down-set lattice capped at {MAX_ELEMENTS} elements, got {k}")
    m = np.asarray(masks, dtype=np.intp)
    inv = np.zeros(1 << P.n, dtype=np.intp)  # inv[mask]: its element
    inv[m] = np.arange(k)
    meet = np.empty((k, k), dtype=np.intp)
    join = np.empty((k, k), dtype=np.intp)
    for s in _row_blocks(k):
        meet[s] = inv[m[s, None] & m]
        join[s] = inv[m[s, None] | m]
    return build_lattice(meet, join, 0, k - 1)


@dataclass(frozen=True, eq=False)
class LatticeHom:
    """A map between lattices, candidate for being a bounded-lattice hom."""

    source: Lattice
    target: Lattice
    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = tuple(map(int, self.mapping))
        object.__setattr__(self, "mapping", mapping)
        if len(mapping) != self.source.n:
            raise ValueError("mapping must be total on the source")
        if not 0 <= min(mapping) <= max(mapping) < self.target.n:
            raise ValueError("mapping image out of range")


def check_hom(h: LatticeHom) -> bool:
    """True iff h preserves bottom, top, and all meets and joins."""
    m = np.asarray(h.mapping, dtype=np.intp)
    s, t = h.source, h.target
    if m[s.bottom] != t.bottom or m[s.top] != t.top:
        return False
    if not np.array_equal(t.meet[m[:, None], m[None, :]], m[s.meet]):
        return False
    return bool(np.array_equal(t.join[m[:, None], m[None, :]], m[s.join]))


def row_classes(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classes of equal rows: ids[i] numbers row i's class by first
    appearance, and first[c] is the first row of class c, ascending.  One
    dict numbers them, keyed by packed bits for a boolean matrix and by
    bytes otherwise; at small sizes that beats a numpy sort."""
    if M.dtype == bool:
        M = np.packbits(M, axis=1)
    seen: dict = {}
    rep = [seen.setdefault(row.tobytes(), i) for i, row in enumerate(M)]
    first = np.fromiter(seen.values(), dtype=np.intp, count=len(seen))
    return np.searchsorted(first, rep), first


def membership(sets, size: int) -> np.ndarray:
    """Boolean matrix M with M[i, x] iff x is in sets[i]; ValueError if a
    member is outside range(size)."""
    sets = [list(s) for s in sets]
    cols = np.fromiter(itertools.chain.from_iterable(sets), dtype=np.intp)
    if cols.size and not 0 <= cols.min() <= cols.max() < size:
        raise ValueError(f"set member outside range({size})")
    M = np.zeros((len(sets), size), dtype=bool)
    M[np.repeat(np.arange(len(sets)), [len(s) for s in sets]), cols] = True
    return M


def row_lists(M: np.ndarray) -> list:
    """The column indices of the true entries of each row of a boolean
    matrix, ascending, one list per row; found by one np.nonzero."""
    cols = np.nonzero(M)[1].tolist()
    ends = np.cumsum(M.sum(1)).tolist()
    return [cols[i:j] for i, j in zip([0] + ends, ends)]


def row_sets(M: np.ndarray) -> tuple:
    """The rows of a boolean matrix as frozensets of column indices; the
    inverse of membership."""
    return tuple(map(frozenset, row_lists(M)))
