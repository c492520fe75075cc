"""Filters, ideals, prime-filter spectra, and the finite spectral topology."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import Lattice, _is_set_hom, row_classes, row_sets, size_mask_order


@dataclass(frozen=True, eq=False)
class SpectralSpace:
    """Prime filters of a lattice as one read-only boolean matrix: member[i, a]
    iff point i contains element a, its rows put in canonical order here,
    ascending bitmask of its elements.  Column a is sigma(a), the points
    containing a; points and basis are frozenset views built on use."""

    member: np.ndarray

    def __post_init__(self):
        member = self.member[np.lexsort(self.member.T)]  # the last element is most significant
        member.setflags(write=False)  # shared by every caller
        object.__setattr__(self, "member", member)

    @cached_property
    def points(self) -> tuple:
        return row_sets(self.member)

    @cached_property
    def basis(self) -> tuple:
        """Distinct sigma-images, the base of the finite spectral topology,
        in (size, mask) order."""
        sigma = self.member.T
        rows = sigma[row_classes(sigma)[1]]
        return row_sets(rows[size_mask_order(rows)])


def enumerate_prime_filters(L: Lattice) -> SpectralSpace:
    """All prime filters in ascending bitmask order: by Birkhoff's theorem
    the up-sets of the join-irreducibles that the law certificate
    (``Lattice.birkhoff``) finds.  Computed once per lattice and shared (``Lattice.spectrum``);
    LawViolation if L is not lawful."""
    return L.spectrum


def is_powerset_hom(L: Lattice, M: np.ndarray) -> bool:
    """True iff the boolean matrix M, row a the image of element a of L, sends
    bottom/top to empty/full and meet/join to intersection/union in the
    powerset of its columns.  Meet and join are compared for all pairs at
    once on the rows' packed bits."""
    if M.shape[0] != L.n or M[L.bottom].any() or not M[L.top].all():
        return False
    return _is_set_hom(L, np.packbits(M, axis=1))


@dataclass(frozen=True)
class TopologyReport:
    open_sets: tuple  # frozensets of point indices, sorted by (size, mask)
    hausdorff: bool
    basis_closed: tuple  # parallel to open_sets: its complement is open


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
    return TopologyReport(S.basis, hausdorff, closed)
