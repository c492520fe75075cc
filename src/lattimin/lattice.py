"""Finite bounded distributive lattices given by explicit meet/join tables.

Elements are dense integer indices 0..n-1; labels are display metadata only.
The canonical order is ``a <= b`` iff ``meet[a][b] == a``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import LawViolation, NotALattice, PosetCyclic, TooLarge

# Entries per block of the O(n^3) table scans: every n up to 101 is one block.
BLOCK_ELEMENTS = 1 << 20
# Most elements of a down-set lattice: the down-sets of a 12-element antichain.
# At 8192 elements its two intp tables alone would take 1 GiB.
MAX_ELEMENTS = 4096
# Most points of a Poset, refused before any work: its down-sets are
# enumerated over all 2^n subsets.
MAX_POSET_ELEMENTS = 16


def _freeze(table) -> np.ndarray:
    arr = np.ascontiguousarray(table, dtype=np.intp)
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
        object.__setattr__(
            self, "covers", tuple((int(a), int(b)) for a, b in self.covers)
        )
        for a, b in self.covers:
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
    labels: Optional[tuple[str, ...]] = None

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
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != n:
                raise ValueError("labels length must equal element count")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.meet.shape[0]

    @cached_property
    def leq_table(self) -> np.ndarray:
        return self.meet == np.arange(self.n)[:, None]

    @cached_property
    def birkhoff(self) -> Optional[np.ndarray]:
        """J(L) as ascending indices iff every law validate_laws checks
        holds, else None; decided by Birkhoff's representation instead of a
        scan of all triples.

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
        P = np.ascontiguousarray(np.packbits(M[S] == S[:, None], axis=0).T)
        if len({row.tobytes() for row in P}) < n:
            return None
        if not _is_set_hom(self, P):
            return None
        S.setflags(write=False)  # shared by every caller
        return S

    @cached_property
    def spectrum(self):
        """The prime filters ↑j, j in J(L), as a SpectralSpace, computed once
        per lattice; ``spectrum.enumerate_prime_filters`` returns it.
        LawViolation if the tables are not a distributive lattice."""
        from .spectrum import SpectralSpace  # spectrum imports this module

        return SpectralSpace(self.leq_table[_certify(self)])  # row i: the up-set of J[i]

    def leq(self, a: int, b: int) -> bool:
        """a <= b in the canonical order, i.e. a == a meet b."""
        return bool(self.meet[a, b] == a)

    def upset(self, a: int) -> frozenset:
        return frozenset(int(x) for x in np.flatnonzero(self.leq_table[a]))

    def downset(self, a: int) -> frozenset:
        return frozenset(int(x) for x in np.flatnonzero(self.leq_table[:, a]))

    def elements(self) -> range:
        return range(self.n)


def _row_blocks(n: int):
    """Slices of 0..n-1 whose n-by-n planes hold at most BLOCK_ELEMENTS
    entries together (at least one row each)."""
    rows = max(1, BLOCK_ELEMENTS // (n * n))
    return [slice(start, start + rows) for start in range(0, n, rows)]


def validate_laws(L: Lattice) -> list[LawIssue]:
    """All lattice-law violations of L, each with its lexicographically
    first witness; empty iff L is a bounded distributive lattice.

    Violations are data, not errors.  The certificate ``L.birkhoff`` accepts
    exactly the lawful tables in O(n^2 |J|) time; only a table it rejects
    goes through _scan_laws, the O(n^3) scan that finds the witnesses.
    """
    return [] if L.birkhoff is not None else _scan_laws(L)


def _certify(L: Lattice) -> np.ndarray:
    """J(L) of a lawful L; LawViolation naming the first broken law and its
    witness otherwise."""
    issues = validate_laws(L)
    if issues:
        raise LawViolation(issues[0].law, issues[0].witness, issues)
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


def _scan_laws(L: Lattice) -> list[LawIssue]:
    """Scan all pairs/triples for lattice-law violations, each law over
    blocks of its first index, so memory stays O(BLOCK_ELEMENTS) however
    large n is."""
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
    issues: list[LawIssue] = []
    for law, bad in laws.items():
        for s in _row_blocks(L.n):
            where = np.argwhere(bad(s))
            if where.size:
                first = [int(v) for v in where[0]]
                first[0] += s.start
                issues.append(LawIssue(law, tuple(first)))
                break
    return issues


def build_lattice(meet_table, join_table, bottom, top, labels=None) -> Lattice:
    """Construct and fully validate a bounded distributive lattice.

    Raises LawViolation naming the first broken law and its witness.
    """
    L = Lattice(meet_table, join_table, bottom, top, labels)
    _certify(L)
    return L


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
    labels = ["{" + ",".join(str(e) for e in range(P.n) if x >> e & 1) + "}" for x in masks]
    return build_lattice(meet, join, 0, k - 1, labels)


def relative_complements(L: Lattice, a: int, a_prime: int) -> tuple[int, ...]:
    """All c with a | c == a | a' and a & c == bottom, ascending by index."""
    hits = (L.join[a] == L.join[a, a_prime]) & (L.meet[a] == L.bottom)
    return tuple(int(c) for c in np.flatnonzero(hits))


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
    return bool(((L.meet == L.bottom) & (L.join == L.top)).any(1).all())


@dataclass(frozen=True, eq=False)
class LatticeHom:
    """A map between lattices, candidate for being a bounded-lattice hom."""

    source: Lattice
    target: Lattice
    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = tuple(int(x) for x in self.mapping)
        object.__setattr__(self, "mapping", mapping)
        if len(mapping) != self.source.n:
            raise ValueError("mapping must be total on the source")
        if any(not 0 <= x < self.target.n for x in mapping):
            raise ValueError("mapping image out of range")

    def __call__(self, a: int) -> int:
        return self.mapping[a]


def check_hom(h: LatticeHom) -> bool:
    """True iff h preserves bottom, top, and all meets and joins."""
    m = np.asarray(h.mapping, dtype=np.intp)
    s, t = h.source, h.target
    if m[s.bottom] != t.bottom or m[s.top] != t.top:
        return False
    if not np.array_equal(t.meet[m[:, None], m[None, :]], m[s.meet]):
        return False
    return bool(np.array_equal(t.join[m[:, None], m[None, :]], m[s.join]))


def compose(outer: LatticeHom, inner: LatticeHom) -> LatticeHom:
    if inner.target is not outer.source and inner.target.n != outer.source.n:
        raise ValueError("homs do not compose")
    return LatticeHom(
        inner.source, outer.target, tuple(outer.mapping[x] for x in inner.mapping)
    )


def class_ids(keys) -> tuple[int, ...]:
    """Class id per key, numbered in order of first appearance; the kernel of
    a hom h is class_ids(h.mapping)."""
    ids: dict = {}
    return tuple(ids.setdefault(key, len(ids)) for key in keys)


def row_class_ids(rows: np.ndarray) -> tuple[int, ...]:
    """class_ids of the rows of a boolean matrix, each keyed by its packed
    bits: equal rows, equal ids."""
    return class_ids(row.tobytes() for row in np.packbits(rows, axis=1))


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
