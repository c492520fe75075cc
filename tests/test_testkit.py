import ast
import collections
import dataclasses
import functools
import importlib
import inspect
import pathlib
import random

import pytest

import lattimin
from lattimin import Lattice, TooLarge, build_lattice, validate_laws
from lattimin.io import lattice_from_dict
from lattimin.preference import axioms12_hold, check_axiom1, check_axiom2
from lattimin.spectrum import is_powerset_hom
from lattimin.testkit import (
    random_distributive_lattice,
    random_poset,
    random_representation,
    random_weak_order,
)

from conftest import same_tables
from fixtures import B2, CHAIN2, CHAIN3
from oracles import all_posets, duplicate_outcome, enumerate_weak_orders


class TestRandomLattice:
    def test_size_one_is_chain2(self):
        for seed in range(5):
            assert same_tables(random_distributive_lattice(1, seed), CHAIN2)

    def test_some_seed_yields_chain3_and_b2(self):
        got_chain3 = got_b2 = False
        for seed in range(200):
            L = random_distributive_lattice(2, seed)
            got_chain3 = got_chain3 or same_tables(L, CHAIN3)
            got_b2 = got_b2 or same_tables(L, B2)
        assert got_chain3 and got_b2

    def test_determinism(self):
        a = random_distributive_lattice(6, 99)
        b = random_distributive_lattice(6, 99)
        assert same_tables(a, b)

    def test_generated_lattices_are_lawful(self):
        for seed in range(100):
            assert validate_laws(random_distributive_lattice(6, seed)) == []

    def test_size_cap(self):
        with pytest.raises(TooLarge):
            random_distributive_lattice(7, 0)


class TestWeakOrderEnumeration:
    def test_ordered_bell_counts(self):
        assert [sum(1 for _ in enumerate_weak_orders(k)) for k in range(6)] == [
            1,
            1,
            3,
            13,
            75,
            541,
        ]

    def test_k2_orders(self):
        assert set(enumerate_weak_orders(2)) == {(0, 1), (1, 0), (0, 0)}

    def test_cap(self):
        with pytest.raises(TooLarge):
            list(enumerate_weak_orders(6))

    def test_random_weak_order_is_dense_and_deterministic(self):
        r1 = random_weak_order(6, random.Random(3))
        r2 = random_weak_order(6, random.Random(3))
        assert r1 == r2
        assert sorted(set(r1)) == list(range(len(set(r1))))


class TestRandomRepresentation:
    def test_chain2_single_point(self):
        R = random_representation(CHAIN2, 0)
        assert R.outcome_count == 1 and R.sigma_map[1] == {0}

    def test_sigma_is_always_a_hom(self):
        for seed in range(100):
            L = random_distributive_lattice(5, seed)
            assert is_powerset_hom(L, random_representation(L, seed).sigma)

    def test_determinism(self):
        assert random_representation(CHAIN3, 11) == random_representation(CHAIN3, 11)

    def test_duplicate_outcome_keeps_hom(self):
        R = random_representation(B2, 5)
        R2 = duplicate_outcome(R, 0)
        assert R2.outcome_count == R.outcome_count + 1
        assert is_powerset_hom(B2, R2.sigma)


class TestAllPosets:
    def test_counts(self):
        # labeled posets: 1, 3, 19 for sizes 1..3
        assert sum(1 for _ in all_posets(1)) == 1
        assert sum(1 for _ in all_posets(2)) == 3
        assert sum(1 for _ in all_posets(3)) == 19

    def test_random_poset_has_valid_covers(self):
        rng = random.Random(0)
        for _ in range(50):
            P = random_poset(rng.randint(1, 6), rng)
            assert P.leq.diagonal().all()


class TestShippedCode:
    """lattimin ships what the program uses; the tests' oracles, enumerators
    and named lattices live under tests/."""

    PACKAGE = pathlib.Path(lattimin.__file__).parent
    TESTS = pathlib.Path(__file__).parent

    @staticmethod
    def defined(path):
        """The names a module's top level defines, not counting imports."""
        names = set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        return names

    def test_testkit_defines_only_the_fuzz_generators(self):
        assert self.defined(self.PACKAGE / "testkit.py") == {
            "EDGE_PROB", "MAX_POSET_SIZE", "random_poset", "random_distributive_lattice",
            "random_weak_order", "random_representation", "derived_weak_order",
        }

    def test_fixtures_and_oracles_are_not_in_the_package(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("lattimin.fixtures")
        moved = self.defined(self.TESTS / "oracles.py") | self.defined(self.TESTS / "fixtures.py")
        for path in self.PACKAGE.glob("*.py"):
            assert not moved & self.defined(path), path.name

    def where(self, match):
        """(module, innermost enclosing function) of every node under the
        package that match accepts; the function is None at module level."""
        found = set()

        def visit(node, path, fn):
            for child in ast.iter_child_nodes(node):
                if match(child):
                    found.add((path.name, fn))
                visit(child, path, child.name if isinstance(child, ast.FunctionDef) else fn)

        for path in self.PACKAGE.glob("*.py"):
            visit(ast.parse(path.read_text()), path, None)
        return found

    def uses(self, attr):
        """where() of every read of the attribute attr."""
        return self.where(lambda node: isinstance(node, ast.Attribute) and node.attr == attr)

    def test_one_row_class_step(self):
        """Classes of equal rows come from lattice.row_classes alone: rows are
        keyed by their bytes only there, np.unique runs only on 1-d class
        ids, and the step's predecessors are gone."""
        gone = {"row_class_ids", "_equal_pairs", "_class_lattice"}
        for path in self.PACKAGE.glob("*.py"):
            assert not gone & self.defined(path), path.name
            assert "Counter" not in path.read_text(), path.name
        assert self.uses("tobytes") == {("lattice.py", "row_classes")}
        assert self.uses("unique") == set()

    @staticmethod
    def is_column(node):
        """node is x[:, None], a column of x."""
        return (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
                and [type(e) for e in node.slice.elts] == [ast.Slice, ast.Constant]
                and node.slice.elts[1].value is None)

    def test_one_birkhoff_matrix(self):
        """The up-set matrix of J(L), a meet-table lookup compared with a
        column of its own indices, is built only by Lattice.birkhoff; the
        spectrum and synthesis read it there.  Only axiom 1 compares the
        whole meet table with such a column, per call: no order table is
        stored."""
        def column_compare(node):
            return (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.Eq)
                    and self.is_column(node.comparators[0]))

        assert self.where(
            lambda node: column_compare(node) and isinstance(node.left, ast.Subscript)
        ) == {("lattice.py", "birkhoff")}
        assert self.where(
            lambda node: column_compare(node) and isinstance(node.left, ast.Attribute)
        ) == {("preference.py", "_axiom1_pairs")}

    def test_a_lattice_is_its_tables_and_certificate(self):
        """Lattice stores its four fields and caches only its certificate
        and spectrum: no module defines or reads labels or an order table
        (io._labels checks the file field and keeps nothing), and only
        io.load_lattice decides whether to certify a loaded lattice."""
        assert [f.name for f in dataclasses.fields(Lattice)] == ["meet", "join", "bottom", "top"]
        cached = {name for name, value in vars(Lattice).items()
                  if isinstance(value, functools.cached_property)}
        assert cached == {"birkhoff", "spectrum"}
        for attr in ("labels", "leq_table"):
            assert self.uses(attr) == set(), attr
            assert self.where(lambda node: attr in (
                getattr(node, "name", None), getattr(node, "id", None), getattr(node, "arg", None)
            )) == set(), attr
        assert list(inspect.signature(lattice_from_dict).parameters) == ["d"]
        assert list(inspect.signature(build_lattice).parameters) == [
            "meet_table", "join_table", "bottom", "top"]

    def test_axioms_run_on_the_whole_lattice(self):
        """The axiom 1 and 2 checks take the lattice and the order and
        nothing else: no package module defines a domain mask."""
        for check in (check_axiom1, check_axiom2, axioms12_hold):
            assert list(inspect.signature(check).parameters) == ["L", "W"], check.__name__
        for path in self.PACKAGE.glob("*.py"):
            assert "_domain_mask" not in self.defined(path), path.name

    # Each construction that no command runs, and that left the package, ->
    # its one definition under tests/; None for check_representation_hom,
    # an alias of spectrum.is_powerset_hom.
    MOVED = {
        **{name: name for name in (
            "NotALattice", "NotAnIdeal", "IncompatiblePartition", "AxiomsNotSatisfied",
            "relative_complements", "relative_complement", "is_boolean", "class_ids",
            "check_sigma_isomorphism", "ContourReport", "strict_upper_contour",
            "ZeroClassReport", "zero_class", "filter_witness", "Congruence", "_require_ideal",
            "congruence_beta_prime", "congruence_beta_dprime",
        )},
        "congruence_from_classes": "congruence_by_loop",
        "quotient": "quotient_by_loop",
        "ideal_witness": "ideal_witness_by_loop",
        "check_representation_hom": None,
    }

    def test_moved_constructions_defined_once_under_tests(self):
        for path in self.PACKAGE.glob("*.py"):
            assert not self.MOVED.keys() & self.defined(path), path.name
        assert not [name for name in self.MOVED if hasattr(lattimin, name)]
        counts = collections.Counter()
        for path in self.TESTS.glob("*.py"):
            counts.update(self.defined(path))
        assert {name: counts[name] for name in self.MOVED.values() if name} == {
            name: 1 for name in self.MOVED.values() if name
        }

    def test_no_unused_module_level_import(self):
        """Every name a package module imports at its top level is read in
        that module; __init__ only re-exports."""
        for path in self.PACKAGE.glob("*.py"):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            imported = {
                (alias.asname or alias.name).split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names
            }
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            assert imported <= read, (path.name, sorted(imported - read))

    def test_package_imports_nothing_from_tests(self):
        local = {"tests"} | {path.stem for path in self.TESTS.glob("*.py")}
        for path in self.PACKAGE.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                assert not {name.split(".")[0] for name in names} & local, path.name
