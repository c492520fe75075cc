"""Dual orders between a lattice and its spectral space.

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


def _bottom_best(L: Lattice, W: WeakOrder) -> WeakOrder:
    """W with bottom ranked strictly best, as dual_backward ranks it: on all of
    L this checks the paper's duality on A minus bottom, as bottom then lies
    in no violating pair or triple and in no disagreement."""
    ranks = list(W.ranks)
    ranks[L.bottom] = min(ranks) - 1
    return WeakOrder(ranks)


def dual_forward(L: Lattice, S: SpectralSpace, W: WeakOrder) -> WeakOrder:
    """Order on spectrum points induced by W; no point holds bottom.

    A point ranks by its best member.  The best member under W is the worst
    member under -W, so the checked worst-rank evaluator serves both
    directions.  L is not read: S may be the spectrum of a quotient of L,
    with W given on that quotient's elements.
    """
    worst = checked_worst_ranks(S.member, [-r for r in W.ranks])
    return WeakOrder(dense_ranks(-w for w in worst))


def dual_backward(L: Lattice, S: SpectralSpace, V: WeakOrder) -> WeakOrder:
    """Order on L induced by a point order: a ranks by the worst point of
    sigma(a), so sigma(bottom) = ∅ ranks strictly best.  L is not read."""
    return WeakOrder(dense_ranks(checked_worst_ranks(S.member.T, V.ranks)))


@dataclass(frozen=True, eq=False)
class DualityCertificate:
    forward: WeakOrder
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
    counterexample = first_disagreement(_bottom_best(L, W).ranks, back.ranks)
    return DualityCertificate(fwd, counterexample is None, counterexample)


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

    The witness condition holds at (a, b) iff some point G containing b has
    rank[a] <= the best rank in G; it is evaluated for every pair at once.
    """
    ax = axioms12_hold(L, _bottom_best(L, W))
    cert = roundtrip_check(L, W)
    r = np.asarray(W.ranks)
    P = enumerate_prime_filters(L).member
    best = np.where(P, r, r.max()).min(1)  # points are non-empty
    witness = (r[:, None] <= best[None, :]) @ P  # witness[a, b]: some G witnesses (a, b)
    nz = np.arange(L.n) != L.bottom  # no point contains bottom
    wit = bool((witness == (r[:, None] <= r[None, :]))[nz][:, nz].all())
    return DualityEquivalenceReport(ax, cert.agreement, wit)
