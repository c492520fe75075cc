"""Toolkit for maximin preference representations on finite bounded
distributive lattices: axiom checking, prime-filter spectra, dual orders,
and minimal representation synthesis."""

__version__ = "0.1.0"

from .errors import (
    AxiomsNotSatisfied,
    AxiomViolation,
    IncompatiblePartition,
    LattiminError,
    LawViolation,
    NotALattice,
    NotAnIdeal,
    NotARepresentation,
    PosetCyclic,
    TooLarge,
)
from .lattice import (
    Lattice,
    LatticeHom,
    Poset,
    build_lattice,
    check_hom,
    downset_lattice,
    is_boolean,
    relative_complement,
    relative_complements,
    validate_laws,
)
from .spectrum import (
    SpectralSpace,
    check_sigma_isomorphism,
    enumerate_prime_filters,
    finite_topology_report,
)
from .preference import (
    WeakOrder,
    check_axiom1,
    check_axiom2,
    check_axiom3,
    strict_upper_contour,
    zero_class,
)
from .duality import (
    DualityCertificate,
    dual_backward,
    dual_forward,
    filter_witness,
    roundtrip_check,
    duality_equivalence_report,
)
from .representation import (
    Congruence,
    Refutation,
    Representation,
    congruence_beta_dprime,
    congruence_beta_prime,
    derive_pref_from_rep,
    factor_check,
    minimal_representation,
    quotient,
    verify_representation,
)
