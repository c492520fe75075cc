"""JSON file formats for lattices, preferences, spectra, and representations."""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

from .errors import LattiminError, TooLarge, about, quote
from .lattice import Lattice, Poset, _certify, downset_lattice, row_lists
from .preference import WeakOrder
from .representation import Representation
from .spectrum import SpectralSpace


class FormatError(LattiminError):
    """Input file is malformed; message carries a position when available."""


# Largest input file, in bytes, refused before it is read.
MAX_FILE_BYTES = 32 << 20


def _read(path) -> bytes:
    """The bytes of the file at path; FormatError if it cannot be read,
    TooLarge if it has more than MAX_FILE_BYTES bytes."""
    try:
        with open(path, "rb") as fh:
            if (size := os.fstat(fh.fileno()).st_size) > MAX_FILE_BYTES:
                raise TooLarge(f"{path}: {size} bytes, over the input budget of {MAX_FILE_BYTES}")
            return fh.read()
    except OSError as e:
        raise FormatError(f"{path}: {e.strerror}") from e


def _unrepeated(pairs: list) -> dict:
    """The JSON object with these (key, value) pairs; ValueError naming the
    first key that an earlier pair already has."""
    d = dict(pairs)
    if len(d) < len(pairs):
        seen: set = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"key {quote(json.dumps(key))} is repeated")
    return d


def _decode(path, data: bytes) -> dict:
    """The JSON object in data, the bytes of the file at path, read as strict
    UTF-8 (a byte order mark is refused); FormatError if it is not UTF-8 text,
    not JSON, not an object, nested too deeply to parse, or holds an integer
    over CPython's digit limit or an object with a repeated key."""
    try:
        text = data.decode()
        if "\r" in text:  # universal newlines, so error positions count lines as text reads do
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        d = json.loads(text, object_pairs_hook=_unrepeated)
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text: {e}") from e
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise FormatError(f"{path}: nested too deeply: {e}") from e
    except ValueError as e:  # raised by int() or _unrepeated
        raise FormatError(f"{path}: {e}") from e
    if not isinstance(d, dict):
        raise FormatError(f"{path}: top level must be a JSON object")
    return d


def load_json(path) -> dict:
    """The JSON object in the file at path; FormatError if it cannot be read
    or is not a UTF-8 JSON object, TooLarge if it has more than
    MAX_FILE_BYTES bytes."""
    return _decode(path, _read(path))


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
            raise TypeError(f"{name}: expected a list, got {quote(json.dumps(value))}")
        return [_walk_ints(v, name, depth - 1) for v in value]
    if type(value) is not int:
        raise TypeError(f"{name}: {quote(json.dumps(value))} is not an integer")
    if not -INT_LIMIT < value < INT_LIMIT:
        raise ValueError(f"{name}: {quote(str(value))} is outside the integer range (-2**62, 2**62)")
    return value


def _object(value, name: str) -> dict:
    """value if it is a JSON object, else TypeError naming the field."""
    if type(value) is not dict:
        raise TypeError(f"{name}: expected a JSON object")
    return value


def _labels(value, n: int) -> None:
    """TypeError or ValueError saying why, unless value is null or a list
    of n strings."""
    if value is not None:
        if type(value) is not list:
            got = quote(json.dumps(value))
            raise TypeError(f"labels: expected a list of strings or null, got {got}")
        if bad := [v for v in value if type(v) is not str]:
            raise TypeError(f"labels: {quote(json.dumps(bad[0]))} is not a string")
        if len(value) != n:
            raise ValueError(f"labels: {len(value)} labels for {n} elements")


def _sigma_rows(sigma: dict, n: int) -> list:
    """sigma's entries for elements 0..n-1; ValueError unless its keys are
    exactly "0".."n-1", naming the first missing element, else the first
    other key in file order."""
    keys = [str(a) for a in range(n)]
    if missing := [a for a, key in enumerate(keys) if key not in sigma]:
        raise ValueError(f"sigma: no entry for element {missing[0]}")
    if extra := sigma.keys() - set(keys):
        key = next(k for k in sigma if k in extra)
        raise ValueError(f"sigma: key {quote(json.dumps(key))} is not an element 0..{n - 1}")
    return [sigma[key] for key in keys]


TABLE_FIELDS = ("n", "meet", "join", "bottom", "top", "labels")
POSET_FIELDS = ("n", "covers")


def _refuse_unknown_key(d: dict, fields) -> None:
    """ValueError naming the first key of d, in file order, that is not one
    of fields."""
    if extra := [k for k in d if k not in fields]:
        raise ValueError(f"key {quote(json.dumps(extra[0]))} is not a field ({', '.join(fields)})")


def lattice_from_dict(d) -> Lattice:
    """Build a lattice from its JSON dict, without certifying its laws.

    Every table entry must be a JSON integer, and labels, if given, one
    JSON string per element; they are checked, then not kept, since no
    report prints them.  The field n is optional; if given, it must equal
    the table size, which is checked after the tables' own checks.  The
    poset form stands for the lattice of its down-sets, which is lawful by
    construction and certified by build_lattice.  A key outside the form's
    fields (TABLE_FIELDS; "poset" alone, and POSET_FIELDS in its block) is
    refused, the first in file order, before any field is read.  A missing
    field raises KeyError, and a refused one TypeError or ValueError naming
    it.
    """
    if "poset" in d:
        _refuse_unknown_key(d, ("poset",))
        p = _object(d["poset"], "poset")
        _refuse_unknown_key(p, POSET_FIELDS)
        return downset_lattice(Poset(_ints(p["n"], "n"), _ints(p["covers"], "covers", 2)))
    _refuse_unknown_key(d, TABLE_FIELDS)
    args = (
        _table(d["meet"], "meet"),
        _table(d["join"], "join"),
        _ints(d["bottom"], "bottom"),
        _ints(d["top"], "top"),
    )
    _labels(d.get("labels"), len(d["meet"]))  # a list: _table read it
    L = Lattice(*args)
    if "n" in d and (type(d["n"]) is not int or d["n"] != L.n):
        raise ValueError(f"n: {quote(json.dumps(d['n']))} is not the table size {L.n}")
    return L


def lattice_to_dict(L: Lattice) -> dict:
    return {
        "n": L.n,
        "bottom": L.bottom,
        "top": L.top,
        "meet": [[int(x) for x in row] for row in L.meet],
        "join": [[int(x) for x in row] for row in L.join],
    }


def _from_file(path, kind: str, read, *args):
    """read(*args), the reading of the kind file at path, with path first in
    every refusal: a KeyError (a missing field), TypeError or ValueError
    becomes a FormatError, and a LattiminError (a size cap, a cyclic poset,
    a broken law) is raised again with path put before its message."""
    try:
        with about(path):
            return read(*args)
    except KeyError as e:
        raise FormatError(f"{path}: bad {kind} file: missing field {e}") from e
    except (TypeError, ValueError) as e:
        raise FormatError(f"{path}: bad {kind} file: {e}") from e


# The bytes of the last lattice file loaded, and the Lattice read from them.
_last_lattice: tuple = (None, None)


def load_lattice(path, validate=True) -> Lattice:
    """lattice_from_dict of the JSON object in the file at path, certified
    lawful unless validate is false: a lawless table raises the LawViolation
    naming its first broken law.

    A file whose bytes equal those of the last lattice file loaded gives
    the same (immutable) Lattice again, unparsed, whatever its path or
    mtime; its law certificate is cached on it (Lattice.birkhoff), so a
    process parses and certifies each distinct content once.  Only the
    last file is kept, once it has parsed and passed its field checks, a
    lawless table included; the byte budget is checked, and validate
    applied, on every load.
    """
    global _last_lattice
    data = _read(path)
    last, L = _last_lattice
    if last != data:
        L = _from_file(path, "lattice", lattice_from_dict, _decode(path, data))
        _last_lattice = data, L
    if validate:
        _from_file(path, "lattice", _certify, L)
    return L


def _weak_order(d: dict, n: int) -> WeakOrder:
    ranks = _ints(d["ranks"], "ranks", 1)
    _refuse_unknown_key(d, ("ranks",))
    if len(ranks) != n:
        raise ValueError(f"ranks length {len(ranks)} does not match lattice size {n}")
    return WeakOrder(tuple(ranks))


def load_preference(path, L: Lattice) -> WeakOrder:
    """The weak order in the preference file at path, one rank per element
    of L; a key other than "ranks" is refused once the field is read."""
    return _from_file(path, "preference", _weak_order, load_json(path), L.n)


def representation_to_dict(R: Representation) -> dict:
    return {
        "outcomes": R.outcome_count,
        "sigma": {str(a): row for a, row in enumerate(row_lists(R.sigma))},
        "outcome_ranks": list(R.outcome_ranks),
    }


def _representation(d: dict, n: int) -> Representation:
    count = _ints(d["outcomes"], "outcomes")
    sets = _ints(_sigma_rows(_object(d["sigma"], "sigma"), n), "sigma", 2)
    ranks = _ints(d["outcome_ranks"], "outcome_ranks", 1)
    _refuse_unknown_key(d, ("outcomes", "sigma", "outcome_ranks"))
    return Representation(count, sets, ranks)


def load_representation(path, L: Lattice) -> Representation:
    """The representation in the file at path, over L; a key other than its
    three fields is refused once they are read, and more than MAX_ELEMENTS
    outcomes, by Representation, with TooLarge."""
    return _from_file(path, "representation", _representation, load_json(path), L.n)


def spectrum_to_dict(S: SpectralSpace) -> dict:
    return {
        "points": row_lists(S.member),
        "sigma": {str(a): col for a, col in enumerate(row_lists(S.member.T))},
    }
