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


class PosetCyclic(LattiminError):
    """Cover relation contains a cycle (or a self-cover)."""


class AxiomViolation(LattiminError):
    """Preference axioms required by an operation do not hold."""

    def __init__(self, violations):
        self.violations = violations
        parts = ", ".join(f"{k}: {len(v)}" for k, v in violations.items() if v)
        super().__init__(f"axiom violations ({parts})")


class NotARepresentation(LattiminError):
    """An alleged representation fails the homomorphism or faithfulness check."""


class TooLarge(LattiminError):
    """Input exceeds the size cap of an exhaustive operation."""
