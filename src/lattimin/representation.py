"""Maximin representations: the minimal one, verification, and factoring.

Synthesis takes θ*, the coarsest congruence on whose classes W is constant,
read off J(L), so every representation factors through its result.  Its
states are the prime filters of L/θ*, read off L's own spectrum, so it
builds no quotient lattice.  Where Axiom 3 holds, θ* is the paper's
trivializer congruence β″.  factor_check reads its image lattices L/ker σ
off L's own tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .duality import dual_forward
from .errors import AxiomViolation, NotARepresentation, TooLarge
from .lattice import (
    MAX_ELEMENTS,
    Lattice,
    LatticeHom,
    _certify,
    membership,
    row_classes,
    row_sets,
    size_mask_order,
)
from .preference import (
    WeakOrder,
    _maximin,
    check_axiom1,
    check_axiom2,
    checked_worst_ranks,
    dense_ranks,
    first_disagreement,
)
from .spectrum import SpectralSpace, is_powerset_hom


def _class_tables(L: Lattice, cls: np.ndarray, reps) -> tuple:
    """The meet and join tables of L/θ, θ the partition with class id cls[a]
    per element a, on reps, one element of each class in class order."""
    return cls[L.meet[reps][:, reps]], cls[L.join[reps][:, reps]]


@dataclass(frozen=True, eq=False)
class Representation:
    """Triple <X, sigma, outcome order>: outcomes 0..outcome_count-1, sigma a
    read-only boolean matrix with sigma[a, x] iff outcome x is in the image
    of element a, and a rank per outcome.  sigma may be given as such a
    matrix (dtype bool) or as one iterable of outcomes per element, which
    an integer array also is; sigma_map is its frozenset view.  Equality
    compares values.  TooLarge, before sigma becomes its matrix, if there are
    more than MAX_ELEMENTS outcomes, which bounds the X-by-X planes of
    derive_pref_from_rep's literal check."""

    outcome_count: int
    sigma: np.ndarray
    outcome_ranks: tuple[int, ...]

    def __post_init__(self):
        if self.outcome_count > MAX_ELEMENTS:
            raise TooLarge(
                f"representations capped at {MAX_ELEMENTS} outcomes, got {self.outcome_count}"
            )
        object.__setattr__(self, "outcome_ranks", tuple(map(int, self.outcome_ranks)))
        if len(self.outcome_ranks) != self.outcome_count:
            raise ValueError("outcome_ranks length must equal outcome_count")
        if isinstance(self.sigma, np.ndarray) and self.sigma.dtype == bool:
            sigma = self.sigma.copy()
            if sigma.shape[1:] != (self.outcome_count,):
                raise ValueError("sigma matrix must have one column per outcome")
        else:
            sigma = membership(self.sigma, self.outcome_count)
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)

    @cached_property
    def sigma_map(self) -> tuple:
        return row_sets(self.sigma)

    def __eq__(self, other):
        return (isinstance(other, Representation) and self.outcome_ranks == other.outcome_ranks
                and np.array_equal(self.sigma, other.sigma))


def derive_pref_from_rep(R: Representation) -> WeakOrder:
    """Preference on descriptions induced by worst-outcome comparison.

    Empty sigma scores strictly better than everything (vacuous domination).
    The literal quantifier evaluation is checked against the score reduction
    on every call.
    """
    return WeakOrder(dense_ranks(checked_worst_ranks(R.sigma, R.outcome_ranks)))


def verify_representation(
    L: Lattice, W: WeakOrder, R: Representation
) -> tuple[bool, Optional[tuple[int, int]]]:
    """True iff the derived preference equals W on all of the carrier."""
    derived = derive_pref_from_rep(R)
    witness = first_disagreement(W.ranks, derived.ranks)
    return witness is None, witness


def minimal_representation(L: Lattice, W: WeakOrder) -> Representation:
    """Build the canonical minimal representation of an axiom-satisfying W.

    Axioms 1-2 are mandatory (AxiomViolation otherwise), certified once by
    the maximin identity and scanned only when it fails.  The congruences
    of L are a -> {j in J' : j <= a} for the subsets J' of J(L); θ* keeps
    J*, the j whose rank exceeds r(bottom) and the rank of every j' < j:
    for a maximin W these are the labels of the covers a < a | j that
    change rank.  Its states, the prime filters of L/θ*, are ↑j for j in
    J*, read on one representative per class.
    """
    r = np.asarray(W.ranks)
    if not _maximin(L, r):
        v1, v2 = check_axiom1(L, W), check_axiom2(L, W)
        if v1 or v2:
            raise AxiomViolation({"axiom1": v1, "axiom2": v2})
    J, up = _certify(L)  # row i of up: ↑J[i]
    rJ, floor = r[J], r[L.bottom]
    below = up[:, J] & ~np.eye(len(J), dtype=bool)  # below[i, k]: J[i] < J[k]
    keep = rJ > np.where(below, rJ[:, None], floor).max(0, initial=floor)
    P = up[keep]  # column a: {j in J* : j <= a}, the θ*-class of a
    cls, reps = row_classes(P.T)
    S = SpectralSpace(P[:, reps])
    fwd = dual_forward(L, S, WeakOrder(r[reps]))
    return Representation(S.member.shape[0], S.member.T[cls], fwd.ranks)


@dataclass(frozen=True)
class Refutation:
    """Witness that a factoring homomorphism is ill-defined."""

    witness: tuple[int, int]


def factor_check(
    L: Lattice, W: WeakOrder, R_other: Representation, R_min: Representation
) -> Union[LatticeHom, Refutation]:
    """Factor R_min's sigma through R_other's on the image lattices.

    Returns the surjective homomorphism when the kernel inclusion holds, or a
    Refutation with the first witness pair when it does not.
    """
    for R in (R_other, R_min):
        if not is_powerset_hom(L, R.sigma):
            raise NotARepresentation("sigma_map is not a bounded-lattice hom")
        ok, _ = verify_representation(L, W, R)
        if not ok:
            raise NotARepresentation("representation does not reproduce W")
    # split is symmetric with a false diagonal, so its first true entry in
    # row-major order is the first pair a < b with equal R_other images but
    # unequal R_min ones
    kernels = [row_classes(R.sigma) for R in (R_other, R_min)]
    (other, _), (least, _) = kernels
    split = (other[:, None] == other) & (least[:, None] != least)
    if split.any():
        return Refutation(divmod(int(split.argmax()), L.n))
    images = []
    for R, (ids, first) in zip((R_other, R_min), kernels):
        # the image lattice L/ker sigma, its elements the distinct rows in
        # (size, mask) order; as sigma is a hom, it is a sublattice of the
        # powerset of X bounded by the empty set and X, so it is lawful and
        # not certified again
        order = size_mask_order(R.sigma[first])
        cls = np.argsort(order)[ids]
        image = Lattice(*_class_tables(L, cls, first[order]), cls[L.bottom], cls[L.top])
        images.append((image, cls))
    (src, src_cls), (dst, dst_cls) = images
    mapping = np.zeros(src.n, dtype=np.intp)
    mapping[src_cls] = dst_cls
    hom = LatticeHom(src, dst, mapping.tolist())
    if set(hom.mapping) != set(range(dst.n)):
        raise NotARepresentation("factoring hom is not surjective")
    return hom
