"""Dual orders between a lattice (minus bottom) and its spectral space.

The forward direction ranks prime filters by their best-ranked member; the
backward direction ranks descriptions by their worst-ranked filter.  Both go
through ``checked_worst_ranks``, which evaluates the literal quantifier
formula as well and checks the two against each other on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lattice import Lattice
from .preference import (
    WeakOrder,
    axioms12_hold,
    checked_worst_ranks,
    dense_ranks,
    first_disagreement,
)
from .spectrum import SpectralSpace, enumerate_prime_filters


def nonzero_elements(L: Lattice) -> list[int]:
    return [a for a in range(L.n) if a != L.bottom]


def dual_forward(L: Lattice, S: SpectralSpace, W: WeakOrder) -> WeakOrder:
    """Order on spectrum points induced by W on the lattice minus bottom.

    A point ranks by its best member.  The best member under W is the worst
    member under -W, so the checked worst-rank evaluator serves both
    directions.  L is not read: S may be the spectrum of a quotient of L,
    with W given on that quotient's elements.
    """
    worst = checked_worst_ranks(S.member, [-r for r in W.ranks])
    return WeakOrder(dense_ranks(-w for w in worst))


def dual_backward(L: Lattice, S: SpectralSpace, V: WeakOrder) -> dict:
    """Dense ranks over the lattice minus bottom induced by a point order:
    each element ranks by the worst point of sigma(a)."""
    nz = nonzero_elements(L)
    worst = checked_worst_ranks(S.member.T[nz], V.ranks)
    return dict(zip(nz, dense_ranks(worst)))


@dataclass(frozen=True, eq=False)
class DualityCertificate:
    lattice: Lattice
    spectrum: SpectralSpace
    weak_order: WeakOrder
    forward: WeakOrder
    roundtrip: dict  # element -> dense rank on the lattice minus bottom
    agreement: bool
    counterexample: Optional[tuple[int, int]]


def roundtrip_check(L: Lattice, W: WeakOrder) -> DualityCertificate:
    """Certificate that forward-then-backward recovers W on A minus bottom.

    The counterexample, when present, is the first disagreeing pair in
    canonical element order.
    """
    S = enumerate_prime_filters(L)
    fwd = dual_forward(L, S, W)
    back = dual_backward(L, S, fwd)
    counterexample = first_disagreement(W.ranks, back, nonzero_elements(L))
    return DualityCertificate(
        L, S, W, fwd, back, counterexample is None, counterexample
    )


def filter_witness(
    L: Lattice, S: SpectralSpace, W: WeakOrder, a: int, b: int
) -> Optional[frozenset]:
    """A prime filter G containing b with a >= b' for every b' in G, or None.

    First witness in canonical point order, for golden-file stability.
    """
    for i, G in enumerate(S.points):
        if b in G and all(W.ranks[a] <= W.ranks[bp] for bp in G):
            return G
    return None


@dataclass(frozen=True)
class DualityEquivalenceReport:
    axioms_hold: bool
    roundtrip_agrees: bool
    witness_matches: bool

    @property
    def equivalent(self) -> bool:
        return self.axioms_hold == self.roundtrip_agrees == self.witness_matches


def duality_equivalence_report(L: Lattice, W: WeakOrder) -> DualityEquivalenceReport:
    """Evaluate the three equivalent duality conditions: axioms, roundtrip, witnesses.

    The witness condition is ``filter_witness`` for every pair at once: some
    point G containing b has rank[a] <= the best rank in G.
    """
    nz = nonzero_elements(L)
    ax = axioms12_hold(L, W, domain=nz)
    cert = roundtrip_check(L, W)
    r = np.asarray(W.ranks)
    P = cert.spectrum.member
    best = np.where(P, r, r.max()).min(1)  # points are non-empty
    witness = (r[:, None] <= best[None, :]) @ P  # witness[a, b]: filter_witness found
    wit = bool((witness == (r[:, None] <= r[None, :]))[np.ix_(nz, nz)].all())
    return DualityEquivalenceReport(ax, cert.agreement, wit)
