"""Round trips through the JSON file formats on generated lattices."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lattimin import Lattice
from lattimin.io import (
    INT_LIMIT,
    _ints,
    _table,
    _walk_ints,
    lattice_from_dict,
    lattice_to_dict,
    load_preference,
    load_representation,
    representation_to_dict,
)
from lattimin.testkit import random_distributive_lattice, random_representation

from conftest import same_tables

seeds = st.integers(min_value=0, max_value=2**32)


def write_json(directory, name, obj):
    path = Path(directory) / name
    path.write_text(json.dumps(obj))
    return str(path)


@settings(max_examples=60, deadline=None)
@given(seeds, st.booleans())
def test_lattice_round_trip(seed, labelled):
    """Labels in a file are checked and then not kept."""
    L = random_distributive_lattice(5, seed)
    d = lattice_to_dict(L)
    if labelled:
        d["labels"] = [f"e{a}" for a in range(L.n)]
    back = lattice_from_dict(json.loads(json.dumps(d)))
    assert same_tables(back, L) and set(vars(back)) == {"meet", "join", "bottom", "top"}


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_law_broken_tables_round_trip_unvalidated(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    L = Lattice(rng.integers(0, n, (n, n)), rng.integers(0, n, (n, n)), 0, n - 1)
    back = lattice_from_dict(json.loads(json.dumps(lattice_to_dict(L))))
    assert same_tables(back, L)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_representation_round_trip(seed):
    L = random_distributive_lattice(5, seed)
    R = random_representation(L, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json(tmp, "rep.json", representation_to_dict(R))
        assert load_representation(path, L) == R


@settings(max_examples=40, deadline=None)
@given(seeds, st.data())
def test_preference_loads_as_written(seed, data):
    L = random_distributive_lattice(5, seed)
    ranks = data.draw(st.lists(st.integers(-50, 50), min_size=L.n, max_size=L.n))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json(tmp, "pref.json", {"ranks": ranks})
        assert load_preference(path, L).ranks == tuple(ranks)


def _refusal(fn, *args):
    """(value, None) from fn(*args), or (None, (type, message)) if it raises."""
    try:
        return fn(*args), None
    except (TypeError, ValueError) as e:
        return None, (type(e), str(e))


edge_ints = st.sampled_from([0, 1, -1, INT_LIMIT - 1, -INT_LIMIT + 1, INT_LIMIT,
                             -INT_LIMIT, 2**63, -2**63, 10**23, -10**23])
leaves = st.one_of(
    st.integers(-5, 5), edge_ints, st.booleans(), st.floats(allow_nan=False),
    st.text(max_size=2), st.none(),
    st.dictionaries(st.text(max_size=1), st.integers(0, 3), max_size=1),
)
nested = st.recursive(leaves, lambda inner: st.lists(inner, max_size=4), max_leaves=12)


@st.composite
def tables(draw):
    """Mostly well-formed int tables of depth 0-3, some with one entry, row
    or width spoilt (ragged, bool, float, huge, too deep or shallow)."""
    depth = draw(st.integers(0, 3))
    shape = draw(st.lists(st.integers(0, 4), min_size=depth, max_size=depth))
    def build(dims):
        if not dims:
            return draw(st.one_of(st.integers(-3, 3), edge_ints))
        return [build(dims[1:]) for _ in range(dims[0])]
    value = build(shape)
    if draw(st.booleans()) and isinstance(value, list) and value:
        spoilt = draw(st.one_of(leaves, nested))
        row = value[draw(st.integers(0, len(value) - 1))]
        if isinstance(row, list) and row and draw(st.booleans()):
            row[draw(st.integers(0, len(row) - 1))] = spoilt
        else:
            value[draw(st.integers(0, len(value) - 1))] = spoilt
    return value, draw(st.integers(max(0, depth - 1), depth + 1))


@settings(max_examples=600, deadline=None)
@given(st.one_of(tables(), st.tuples(nested, st.integers(0, 3))))
def test_ints_fast_path_agrees_with_walk(case):
    """_ints and the walk give the same verdict and message on every value,
    and _ints hands back the value itself when both accept.  _table agrees
    with the walk too, and gives a rectangular table as one intp array."""
    value, depth = case
    fast, fast_err = _refusal(_ints, value, "t", depth)
    walked, walk_err = _refusal(_walk_ints, value, "t", depth)
    assert fast_err == walk_err
    if walk_err is None:
        assert fast is value and fast == walked
    if depth != 2:
        return
    table, table_err = _refusal(_table, value, "t")
    assert table_err == walk_err
    if walk_err is None:
        if value and len({len(row) for row in value}) == 1:
            assert isinstance(table, np.ndarray) and table.dtype == np.intp
            assert table.tolist() == walked
        else:
            assert table is value


def test_ints_refuses_mixed_int_bool_table():
    for read in (lambda v: _ints(v, "t", 2), lambda v: _table(v, "t")):
        with pytest.raises(TypeError, match="t: true is not an integer"):
            read([[0, 1], [True, 0]])


@pytest.mark.parametrize("v", [INT_LIMIT, -INT_LIMIT, 2**63, -2**63 - 1, 10**23])
def test_ints_range_is_open_at_two_to_62(v):
    inside = v - 1 if v > 0 else v + 1
    if abs(inside) < INT_LIMIT:
        assert _ints([[0], [inside]], "t", 2) == [[0], [inside]]
        assert _table([[0], [inside]], "t").tolist() == [[0], [inside]]
    for read in (lambda t: _ints(t, "t", 2), lambda t: _table(t, "t")):
        with pytest.raises(ValueError, match=f"t: {v} is outside the integer range"):
            read([[0], [v]])


TABLES3 = {"bottom": 0, "top": 2, "meet": [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
           "join": [[0, 1, 2], [1, 1, 2], [2, 2, 2]]}


@pytest.mark.parametrize("d, error, message", [
    ({"poset": {"n": 2}}, KeyError, "'covers'"),
    ({"meet": [[0]], "join": [[0]], "bottom": 0}, KeyError, "'top'"),
    ({**TABLES3, "labels": 7}, TypeError, "labels: expected a list of strings or null, got 7"),
    ({**TABLES3, "n": 4}, ValueError, "n: 4 is not the table size 3"),
    ({"poset": {"n": 3, "covers": [[0, 1, 2]]}}, ValueError, "covers: [0, 1, 2] is not a pair"),
    ({"poset": {"n": 2, "covers": []}, "meet": []}, ValueError,
     'key "meet" is not a field (poset)'),
])
def test_lattice_from_dict_raises_naming_the_field(d, error, message):
    """lattice_from_dict names the field, and leaves the path to the loaders."""
    with pytest.raises(error) as raised:
        lattice_from_dict(d)
    assert str(raised.value) == message
