"""Congruences, quotients, and the minimal maximin representation.

The synthesis pipeline takes a congruence θ whose bottom class is the
indifference-to-bottom ideal: the coarse trivializer congruence when Axiom 3
holds, the fine bounded-perturbation congruence when it does not; both paths
yield verifiable representations.  Its states are the prime filters of L/θ,
read off L's own spectrum, so it builds no quotient lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import (
    AxiomViolation,
    IncompatiblePartition,
    NotAnIdeal,
    NotARepresentation,
)
from .lattice import (
    Lattice,
    LatticeHom,
    build_lattice,
    class_ids,
    membership,
    row_class_ids,
    row_lists,
    row_sets,
    size_mask_order,
)
from .preference import (
    WeakOrder,
    check_axiom1,
    check_axiom2,
    check_axiom3,
    checked_worst_ranks,
    dense_ranks,
    first_disagreement,
    zero_class,
)
from .spectrum import SpectralSpace, enumerate_prime_filters, ideal_witness, is_powerset_hom


@dataclass(frozen=True)
class Congruence:
    """Meet/join-compatible partition: element index -> class id.

    Class ids are canonical: ordered by least representative.
    """

    classes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(int(c) for c in self.classes))

    @property
    def num_classes(self) -> int:
        return max(self.classes) + 1 if self.classes else 0

    def cls(self, a: int) -> int:
        return self.classes[a]

    @property
    def representatives(self) -> tuple[int, ...]:
        """The least element of each class, in class order."""
        return tuple(np.unique(self.classes, return_index=True)[1].tolist())

    def members(self, c: int) -> frozenset:
        return frozenset(a for a, k in enumerate(self.classes) if k == c)


def congruence_from_classes(L: Lattice, classes) -> Congruence:
    """Validate compatibility of a partition; IncompatiblePartition with a
    witness quadruple (a, b, a', b') on failure.

    (a, b) is the first pair, in row-major order, of the class pair that
    (a', b') shares, and (a', b') the first pair whose result class differs
    from that of its class pair's first pair; meet is checked before join.
    """
    classes = class_ids(classes)
    c = np.asarray(classes)
    n = L.n
    keys = (c[:, None] * n + c[None, :]).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    first_of = first[inverse]  # first occurrence of each pair's key
    for op, table in (("meet", L.meet), ("join", L.join)):
        val = c[table].ravel()
        bad = np.flatnonzero(val != val[first_of])
        if bad.size:
            a0, b0 = divmod(int(first_of[bad[0]]), n)
            a, b = divmod(int(bad[0]), n)
            raise IncompatiblePartition(op, (a0, b0, a, b))
    return Congruence(classes)


def _require_ideal(L: Lattice, I) -> frozenset:
    Iset = frozenset(int(x) for x in I)
    if not Iset or ideal_witness(L, Iset):
        raise NotAnIdeal(f"{sorted(Iset)} is not an ideal")
    return Iset


def congruence_beta_prime(L: Lattice, I) -> Congruence:
    """Fine congruence: a ~ b iff each is below the other joined with some
    ideal member.  With a finite ideal this reduces to a | max(I) == b | max(I).
    """
    Iset = _require_ideal(L, I)
    m = L.bottom
    for a in Iset:
        m = int(L.join[m, a])
    C = congruence_from_classes(L, (int(L.join[a, m]) for a in range(L.n)))
    if C.members(C.cls(L.bottom)) != Iset:
        raise NotAnIdeal("bottom class does not equal the ideal")
    return C


def congruence_beta_dprime(L: Lattice, I) -> Congruence:
    """Coarse congruence: a ~ b iff a and b are trivialized into the ideal by
    exactly the same elements."""
    Iset = _require_ideal(L, I)
    in_ideal = np.zeros(L.n, dtype=bool)
    in_ideal[list(Iset)] = True
    # row a of in_ideal[meet] is {c : a & c in I}
    C = congruence_from_classes(L, row_class_ids(in_ideal[L.meet]))
    if C.members(C.cls(L.bottom)) != Iset:
        raise NotAnIdeal("bottom class does not equal the ideal")
    return C


def _class_lattice(L: Lattice, cls: np.ndarray, reps, labels=None) -> Lattice:
    """L/θ for the congruence θ with class id cls[a] per element a: its
    element c is class c, and reps holds one element of each class, in class
    order."""
    ix = np.ix_(reps, reps)
    return build_lattice(cls[L.meet[ix]], cls[L.join[ix]], cls[L.bottom], cls[L.top], labels)


def quotient(L: Lattice, C: Congruence) -> tuple[Lattice, LatticeHom]:
    """Quotient lattice over class representatives plus the projection hom."""
    C = congruence_from_classes(L, C.classes)
    cls = np.asarray(C.classes)
    labels = None if L.labels is None else tuple(
        "|".join(L.labels[a] for a in members)
        for members in row_lists(cls == np.arange(C.num_classes)[:, None])
    )
    Q = _class_lattice(L, cls, C.representatives, labels)
    return Q, LatticeHom(L, Q, C.classes)


def kernel(h: LatticeHom) -> Congruence:
    return Congruence(class_ids(h.mapping))


@dataclass(frozen=True, eq=False)
class Representation:
    """Triple <X, sigma, outcome order>: outcomes 0..outcome_count-1, sigma a
    read-only boolean matrix with sigma[a, x] iff outcome x is in the image
    of element a, and a rank per outcome.  sigma may be given as such a
    matrix (dtype bool) or as one iterable of outcomes per element, which
    an integer array also is; sigma_map is its frozenset view.  Equality
    compares values."""

    outcome_count: int
    sigma: np.ndarray
    outcome_ranks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "outcome_ranks", tuple(int(r) for r in self.outcome_ranks))
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


def check_representation_hom(L: Lattice, R: Representation) -> bool:
    """sigma must be a bounded-lattice hom into the powerset of X."""
    return is_powerset_hom(L, R.sigma)


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
    witness = first_disagreement(W.ranks, derived.ranks, range(L.n))
    return witness is None, witness


def minimal_representation(L: Lattice, W: WeakOrder) -> Representation:
    """Build the canonical minimal representation of an axiom-satisfying W.

    Axioms 1-2 are mandatory (AxiomViolation otherwise).  Axiom 3 selects the
    coarse trivializer congruence; when it fails the fine congruence is used
    instead, which still yields a verifiable representation.  The states are
    the prime filters of L/θ: by Birkhoff duality, L's prime filters that are
    unions of θ-classes, each read on one representative per class.
    """
    from .duality import dual_forward  # local import to avoid a cycle

    v1 = check_axiom1(L, W)
    v2 = check_axiom2(L, W)
    if v1 or v2:
        raise AxiomViolation({"axiom1": v1, "axiom2": v2})
    I = zero_class(L, W).members
    C = (congruence_beta_prime if check_axiom3(L, W) else congruence_beta_dprime)(L, I)
    cls, reps, ranks = np.asarray(C.classes), np.asarray(C.representatives), np.asarray(W.ranks)
    bad = np.flatnonzero(ranks != ranks[reps[cls]])
    if bad.size:
        a = int(bad[0])
        raise AxiomViolation({"congruence-indifference": [(a, int(reps[cls[a]]))]})
    member = enumerate_prime_filters(L).member  # rows kept: the θ-saturated ones
    S = SpectralSpace(member[(member == member[:, reps[cls]]).all(1)][:, reps])
    fwd = dual_forward(L, S, WeakOrder(ranks[reps]))
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
        if not check_representation_hom(L, R):
            raise NotARepresentation("sigma_map is not a bounded-lattice hom")
        ok, _ = verify_representation(L, W, R)
        if not ok:
            raise NotARepresentation("representation does not reproduce W")
    # split is symmetric with a false diagonal, so its first true entry in
    # row-major order is the first pair a < b with equal R_other images but
    # unequal R_min ones
    other = np.asarray(row_class_ids(R_other.sigma))
    least = np.asarray(row_class_ids(R_min.sigma))
    split = (other[:, None] == other) & (least[:, None] != least)
    if split.any():
        return Refutation(divmod(int(split.argmax()), L.n))
    images = []
    for sigma, ids in ((R_other.sigma, other), (R_min.sigma, least)):
        # the image lattice L/ker sigma, its elements the distinct rows in
        # (size, mask) order
        _, first = np.unique(ids, return_index=True)  # one element per row
        order = size_mask_order(sigma[first])
        cls = np.argsort(order)[ids]
        images.append((_class_lattice(L, cls, first[order]), cls))
    (src, src_cls), (dst, dst_cls) = images
    mapping = np.zeros(src.n, dtype=np.intp)
    mapping[src_cls] = dst_cls
    hom = LatticeHom(src, dst, tuple(mapping))
    if set(hom.mapping) != set(range(dst.n)):
        raise NotARepresentation("factoring hom is not surjective")
    return hom
