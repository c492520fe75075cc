"""Round trips through the JSON file formats on generated lattices."""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from lattimin import Lattice
from lattimin.io import (
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
    L = random_distributive_lattice(5, seed)
    if labelled:
        L = Lattice(L.meet, L.join, L.bottom, L.top, [f"e{a}" for a in L.elements()])
    back = lattice_from_dict(json.loads(json.dumps(lattice_to_dict(L))))
    assert same_tables(back, L) and back.labels == L.labels


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_law_broken_tables_round_trip_unvalidated(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    L = Lattice(rng.integers(0, n, (n, n)), rng.integers(0, n, (n, n)), 0, n - 1)
    back = lattice_from_dict(json.loads(json.dumps(lattice_to_dict(L))), validate=False)
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
