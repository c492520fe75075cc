"""Exception types shared across the toolkit."""


class LattiminError(Exception):
    """Base class for all toolkit errors."""


class LawViolation(LattiminError):
    """A lattice law failed; carries the law name and a minimal witness."""

    def __init__(self, law, witness, issues=None):
        self.law = law
        self.witness = tuple(witness)
        self.issues = issues or []
        super().__init__(f"{law} violated at witness {self.witness}")


class NotALattice(LattiminError):
    """An order relation lacks a greatest lower / least upper bound somewhere."""


class PosetCyclic(LattiminError):
    """Cover relation contains a cycle (or a self-cover)."""


class NotAnIdeal(LattiminError):
    """A subset expected to be an ideal is not; carries a witness."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class IncompatiblePartition(LattiminError):
    """A partition is not compatible with meet/join; carries a witness quadruple."""

    def __init__(self, op, witness):
        self.op = op
        self.witness = tuple(witness)
        super().__init__(f"partition incompatible with {op} at {self.witness}")


class AxiomViolation(LattiminError):
    """Preference axioms required by an operation do not hold."""

    def __init__(self, violations):
        self.violations = violations
        parts = ", ".join(f"{k}: {len(v)}" for k, v in violations.items() if v)
        super().__init__(f"axiom violations ({parts})")


class AxiomsNotSatisfied(LattiminError):
    """Caller asserted Axioms 1-2 but a scan refuted them."""


class NotARepresentation(LattiminError):
    """An alleged representation fails the homomorphism or faithfulness check."""


class TooLarge(LattiminError):
    """Input exceeds the size cap of an exhaustive operation."""
