"""Exception types shared across the toolkit, and the one way their messages
quote a piece of the input and name the file it came from."""

from contextlib import contextmanager


class LattiminError(Exception):
    """Base class for all toolkit errors."""


class LawViolation(LattiminError):
    """A lattice law failed; carries the law name and a minimal witness."""

    def __init__(self, law, witness):
        self.law = law
        self.witness = tuple(witness)
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


# Most characters of a piece of the input that a message quotes.
QUOTE_CHARS = 64


def quote(text: str) -> str:
    """text, a piece of the input written into a message, cut to QUOTE_CHARS
    characters, the last of them "…", if it is longer."""
    return text if len(text) <= QUOTE_CHARS else text[: QUOTE_CHARS - 1] + "…"


@contextmanager
def about(path):
    """A block whose LattiminError is about the file at path: its message
    is raised again with path put before it."""
    try:
        yield
    except LattiminError as e:
        e.args = (f"{path}: {e}",)
        raise
