"""Toolkit for maximin preference representations on finite bounded
distributive lattices: axiom checking, prime-filter spectra, dual orders,
and minimal representation synthesis."""

__version__ = "0.1.0"

from .errors import (
    AxiomViolation,
    LattiminError,
    LawViolation,
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
    validate_laws,
)
from .spectrum import (
    SpectralSpace,
    enumerate_prime_filters,
    finite_topology_report,
)
from .preference import (
    WeakOrder,
    check_axiom1,
    check_axiom2,
    check_axiom3,
)
from .duality import (
    DualityCertificate,
    dual_backward,
    dual_forward,
    roundtrip_check,
    duality_equivalence_report,
)
from .representation import (
    Refutation,
    Representation,
    derive_pref_from_rep,
    factor_check,
    minimal_representation,
    verify_representation,
)
