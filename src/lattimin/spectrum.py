"""Filters, ideals, prime-filter spectra, and the finite spectral topology."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import TooLarge
from .lattice import Lattice, _is_set_hom, row_sets, size_mask_order


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

    up_closed = all(b in S for a in members for b in range(L.n) if L.leq(a, b))
    meet_closed = all(int(L.meet[a, b]) in S for a in members for b in members)
    is_filter = nonempty and up_closed and meet_closed
    proper_filter = is_filter and proper
    prime_filter = proper_filter and all(
        a in S or b in S
        for a in range(L.n)
        for b in range(L.n)
        if int(L.join[a, b]) in S
    )

    down_closed = all(b in S for a in members for b in range(L.n) if L.leq(b, a))
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


@dataclass(frozen=True, eq=False)
class SpectralSpace:
    """Prime filters of a lattice as one read-only boolean matrix: member[i, a]
    iff point i contains element a, its rows put in canonical (point_mask)
    order here.  Column a is sigma(a); the frozensets are views built on use."""

    member: np.ndarray

    def __post_init__(self):
        member = self.member[np.lexsort(self.member.T)]  # the last element is most significant
        member.setflags(write=False)  # shared by every caller
        object.__setattr__(self, "member", member)

    @cached_property
    def points(self) -> tuple:
        return row_sets(self.member)

    @cached_property
    def sigma_table(self) -> tuple:
        return row_sets(self.member.T)

    def sigma(self, a: int) -> frozenset:
        """The set of points (prime-filter indices) whose filter contains a."""
        return self.sigma_table[a]

    @cached_property
    def basis(self) -> tuple:
        """Distinct sigma-images, the base of the finite spectral topology,
        in (size, mask) order."""
        rows = np.unique(self.member.T, axis=0)
        return row_sets(rows[size_mask_order(rows)])


def enumerate_prime_filters(L: Lattice) -> SpectralSpace:
    """All prime filters in point_mask order: by Birkhoff's theorem the up-sets
    of the join-irreducibles that the law certificate (``Lattice.birkhoff``)
    finds.  Computed once per lattice and shared (``Lattice.spectrum``);
    LawViolation if L is not lawful."""
    return L.spectrum


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


def is_powerset_hom(L: Lattice, M: np.ndarray) -> bool:
    """True iff the boolean matrix M, row a the image of element a of L, sends
    bottom/top to empty/full and meet/join to intersection/union in the
    powerset of its columns.  Meet and join are compared for all pairs at
    once on the rows' packed bits."""
    if M.shape[0] != L.n or M[L.bottom].any() or not M[L.top].all():
        return False
    return _is_set_hom(L, np.packbits(M, axis=1))


def check_sigma_isomorphism(L: Lattice, S: SpectralSpace) -> bool:
    """True iff sigma is injective on L and a bounded hom into the powerset
    of the points."""
    sigma = S.member.T
    return len({row.tobytes() for row in sigma}) == L.n and is_powerset_hom(L, sigma)


def ideal_witness(L: Lattice, I):
    """None if the subset I is down-closed and join-closed (an ideal, when
    non-empty).  Otherwise (a, b, kind) for the least a in I and then the
    least b with b <= a outside I ("down-closure") or b in I with a | b
    outside I ("join-closure"), down-closure first at the same (a, b)."""
    inside = np.zeros(L.n, dtype=bool)
    inside[list(I)] = True
    members = np.flatnonzero(inside)
    down = L.leq_table[:, members].T & ~inside
    bad = down | (inside & ~inside[L.join[members]])
    if not bad.any():
        return None
    k, b = divmod(int(bad.argmax()), L.n)
    return int(members[k]), b, "down-closure" if down[k, b] else "join-closure"


@dataclass(frozen=True)
class TopologyReport:
    open_sets: tuple  # frozensets of point indices, sorted by (size, mask)
    hausdorff: bool
    basis_sets: tuple  # distinct basis sets in canonical order
    basis_closed: tuple  # parallel bools: complement is open


def finite_topology_report(S: SpectralSpace) -> TopologyReport:
    """The topology generated by the sigma-image of S, a lattice's spectrum.

    That image holds ∅ (sigma of bottom) and is closed under ∪ (sigma of a
    join), so the open sets are the basis.  The space is Hausdorff iff discrete
    (a finite Hausdorff space is T1, a finite T1 space is discrete), i.e. iff
    every singleton is open."""
    opens = set(S.basis)
    full = frozenset(range(len(S.points)))
    hausdorff = all(frozenset({i}) in opens for i in full)
    closed = tuple(full - b in opens for b in S.basis)
    return TopologyReport(S.basis, hausdorff, S.basis, closed)
