"""JSON file formats for lattices, preferences, spectra, and representations."""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

from .errors import LattiminError, TooLarge
from .lattice import Lattice, Poset, build_lattice, downset_lattice, row_lists
from .preference import WeakOrder
from .representation import Representation
from .spectrum import SpectralSpace


class FormatError(LattiminError):
    """Input file is malformed; message carries a position when available."""


# Largest input file, in bytes, refused before json.load parses it.
MAX_FILE_BYTES = 32 << 20


def load_json(path) -> dict:
    """The JSON object in the file at path; FormatError if it cannot be read
    or is not an object, TooLarge if it has more than MAX_FILE_BYTES bytes."""
    try:
        with open(path) as fh:
            if (size := os.fstat(fh.fileno()).st_size) > MAX_FILE_BYTES:
                raise TooLarge(f"{path}: {size} bytes, over the input budget of {MAX_FILE_BYTES}")
            d = json.load(fh)
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except OSError as e:
        raise FormatError(f"{path}: {e.strerror}") from e
    if not isinstance(d, dict):
        raise FormatError(f"{path}: top level must be a JSON object")
    return d


# Every integer read from a file lies strictly between -INT_LIMIT and
# INT_LIMIT, so negating it or taking min(ranks) - 1 still fits in int64.
INT_LIMIT = 1 << 62


def _leaves(value, depth: int):
    """The entries of value, lists nested depth deep, flattened in reading
    order, if every one is an int; else None.  Checked at C speed one
    nesting level at a time.  Booleans and floats are not ints."""
    level = [value]
    for _ in range(depth):
        if not set(map(type, level)) <= {list}:
            return None
        level = list(itertools.chain.from_iterable(level))
    if not set(map(type, level)) <= {int}:
        return None
    return level


def _ints(value, name: str, depth: int = 0):
    """value, a JSON integer in (-INT_LIMIT, INT_LIMIT) or lists nested depth
    deep of them; otherwise the TypeError or ValueError of _walk_ints, which
    names the first bad entry."""
    level = _leaves(value, depth)
    if level is None or level and not (-INT_LIMIT < min(level) and max(level) < INT_LIMIT):
        return _walk_ints(value, name, depth)
    return value


def _table(value, name: str):
    """A meet or join table of _ints as the intp array Lattice stores, built
    from the certified entries.  Rows of unequal length stay lists, so that
    Lattice refuses them after the other fields have been read."""
    leaves = _leaves(value, 2)
    if leaves is None or not value or len(set(map(len, value))) != 1:
        return _ints(value, name, 2)
    try:
        table = np.fromiter(leaves, dtype=np.intp, count=len(leaves))
    except OverflowError:
        return _walk_ints(value, name, 2)
    if table.size and not (-INT_LIMIT < table.min() and table.max() < INT_LIMIT):
        return _walk_ints(value, name, 2)
    return table.reshape(len(value), -1)


def _walk_ints(value, name: str, depth: int):
    """_ints by a recursive walk, which raises at the first bad entry in
    reading order; only a value refused at C speed is walked."""
    if depth:
        if not isinstance(value, list):
            raise TypeError(f"{name}: expected a list, got {json.dumps(value)}")
        return [_walk_ints(v, name, depth - 1) for v in value]
    if type(value) is not int:
        raise TypeError(f"{name}: {json.dumps(value)} is not an integer")
    if not -INT_LIMIT < value < INT_LIMIT:
        raise ValueError(f"{name}: {value} is outside the integer range (-2**62, 2**62)")
    return value


def _labels(value, n: int):
    """value if it is null or a list of n strings, else FormatError saying why."""
    if value is not None:
        if type(value) is not list:
            raise FormatError(f"labels: expected a list of strings or null, got {json.dumps(value)}")
        if bad := [v for v in value if type(v) is not str]:
            raise FormatError(f"labels: {json.dumps(bad[0])} is not a string")
        if len(value) != n:
            raise FormatError(f"labels: {len(value)} labels for {n} elements")
    return value


def lattice_from_dict(d, validate=True) -> Lattice:
    """Build a lattice from its JSON dict.

    Every table entry must be a JSON integer, and labels, if given, one
    JSON string per element.  With validate=False the tables are loaded
    as-is so callers can inspect law violations themselves.  The poset form
    stands for the lattice of its down-sets, which is lawful by construction.
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
            _table(d["meet"], "meet"),
            _table(d["join"], "join"),
            _ints(d["bottom"], "bottom"),
            _ints(d["top"], "top"),
            _labels(d.get("labels"), len(d["meet"])),  # a list: _table read it
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
        "sigma": {str(a): row for a, row in enumerate(row_lists(R.sigma))},
        "outcome_ranks": list(R.outcome_ranks),
    }


def load_representation(path, L: Lattice) -> Representation:
    d = load_json(path)
    try:
        count = _ints(d["outcomes"], "outcomes")
        sigma = d["sigma"]
        sets = _ints([sigma[str(a)] for a in range(L.n)], "sigma", 2)
        ranks = _ints(d["outcome_ranks"], "outcome_ranks", 1)
        return Representation(count, sets, ranks)
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"{path}: bad representation file: {e}") from e


def spectrum_to_dict(S: SpectralSpace) -> dict:
    return {
        "points": row_lists(S.member),
        "sigma": {str(a): col for a, col in enumerate(row_lists(S.member.T))},
    }
