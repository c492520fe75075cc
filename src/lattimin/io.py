"""JSON file formats for lattices, preferences, spectra, and representations."""

from __future__ import annotations

import json

import numpy as np

from .errors import LattiminError
from .lattice import Lattice, Poset, build_lattice, downset_lattice
from .preference import WeakOrder
from .representation import Representation
from .spectrum import SpectralSpace


class FormatError(LattiminError):
    """Input file is malformed; message carries a position when available."""


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            d = json.load(fh)
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except OSError as e:
        raise FormatError(f"{path}: {e.strerror}") from e
    if not isinstance(d, dict):
        raise FormatError(f"{path}: top level must be a JSON object")
    return d


def _ints(value, name: str, depth: int = 0):
    """value as a JSON integer, or as lists nested depth deep of them;
    TypeError otherwise.  Booleans and floats are not integers."""
    if depth:
        if not isinstance(value, list):
            raise TypeError(f"{name}: expected a list, got {json.dumps(value)}")
        return [_ints(v, name, depth - 1) for v in value]
    if type(value) is not int:
        raise TypeError(f"{name}: {json.dumps(value)} is not an integer")
    return value


def lattice_from_dict(d, validate=True) -> Lattice:
    """Build a lattice from its JSON dict.

    Every table entry must be a JSON integer.  With validate=False the
    tables are loaded as-is so callers can inspect law violations
    themselves.  The poset form stands for the lattice of its down-sets,
    which is lawful by construction.
    """
    if "poset" in d:
        p = d["poset"]
        try:
            P = Poset(_ints(p["n"], "n"), _ints(p["covers"], "covers", 2))
        except (KeyError, TypeError, ValueError) as e:
            raise FormatError(f"bad poset block: {e}") from e
        return downset_lattice(P)
    try:
        args = (
            _ints(d["meet"], "meet", 2),
            _ints(d["join"], "join", 2),
            _ints(d["bottom"], "bottom"),
            _ints(d["top"], "top"),
            d.get("labels"),
        )
        return build_lattice(*args) if validate else Lattice(*args)
    except KeyError as e:
        raise FormatError(f"lattice file missing field {e}") from e
    except (TypeError, ValueError) as e:
        raise FormatError(f"bad lattice tables: {e}") from e


def lattice_to_dict(L: Lattice) -> dict:
    d = {
        "n": L.n,
        "bottom": L.bottom,
        "top": L.top,
        "meet": [[int(x) for x in row] for row in L.meet],
        "join": [[int(x) for x in row] for row in L.join],
    }
    if L.labels is not None:
        d["labels"] = list(L.labels)
    return d


def load_lattice(path, validate=True) -> Lattice:
    return lattice_from_dict(load_json(path), validate=validate)


def load_preference(path, L: Lattice) -> WeakOrder:
    d = load_json(path)
    try:
        ranks = _ints(d["ranks"], "ranks", 1)
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"{path}: bad preference file: {e}") from e
    if len(ranks) != L.n:
        raise FormatError(
            f"{path}: ranks length {len(ranks)} does not match lattice size {L.n}"
        )
    return WeakOrder(tuple(ranks))


def representation_to_dict(R: Representation) -> dict:
    return {
        "outcomes": R.outcome_count,
        "sigma": {str(a): np.flatnonzero(row).tolist() for a, row in enumerate(R.sigma)},
        "outcome_ranks": list(R.outcome_ranks),
    }


def load_representation(path, L: Lattice) -> Representation:
    d = load_json(path)
    try:
        count = _ints(d["outcomes"], "outcomes")
        sigma = d["sigma"]
        sets = [_ints(sigma[str(a)], "sigma", 1) for a in range(L.n)]
        ranks = _ints(d["outcome_ranks"], "outcome_ranks", 1)
        return Representation(count, sets, ranks)
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"{path}: bad representation file: {e}") from e


def spectrum_to_dict(S: SpectralSpace) -> dict:
    return {
        "points": [np.flatnonzero(row).tolist() for row in S.member],
        "sigma": {str(a): np.flatnonzero(col).tolist() for a, col in enumerate(S.member.T)},
    }
