import argparse
import json
import logging
import os
import pathlib
import random
import re
import resource
import stat
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import lattimin
from lattimin import cli, io as io_module, lattice as lattice_module, preference
from lattimin import representation as representation_module
from lattimin.cli import main
from lattimin.io import lattice_to_dict, representation_to_dict
from lattimin.lattice import Lattice, Poset, downset_lattice
from lattimin.preference import WeakOrder
from lattimin.representation import derive_pref_from_rep, minimal_representation
from lattimin.spectrum import enumerate_prime_filters, finite_topology_report
from lattimin.testkit import (
    random_distributive_lattice,
    random_poset,
    random_representation,
    random_weak_order,
)

from fixtures import B2, CHAIN3, M3, N5, chain
from oracles import (
    all_posets,
    congruence_beta_prime,
    duplicate_outcome,
    representation_by_quotient,
    zero_class,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def chain3_file(tmp_path):
    path = tmp_path / "chain3.json"
    path.write_text(json.dumps(lattice_to_dict(CHAIN3)))
    return str(path)


@pytest.fixture
def chain3_poset_file(tmp_path):
    path = tmp_path / "chain3_poset.json"
    path.write_text(json.dumps({"poset": {"n": 3, "covers": [[0, 1], [1, 2]]}}))
    return str(path)


@pytest.fixture
def w3_file(tmp_path):
    path = tmp_path / "w3.json"
    path.write_text(json.dumps({"ranks": [0, 1, 2]}))
    return str(path)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


# The files each verb reads, by flag.
VERB_FLAGS = {"validate": ("lattice",), "spectrum": ("lattice",),
              "axioms": ("lattice", "pref"), "dualize": ("lattice", "pref"),
              "represent": ("lattice", "pref"),
              "verify": ("lattice", "pref", "rep"), "factor": ("lattice", "pref", "rep")}
# A verb that reads each kind of file, and the name its refusals give it.
READER = {"lattice": ("validate", "lattice"), "pref": ("axioms", "preference"),
          "rep": ("verify", "representation")}


def reader_argv(kind, path, lattice_file, pref_file) -> list:
    """The argv of READER's verb for kind, with path as its kind file and
    lattice_file and pref_file as the others."""
    files = {"lattice": lattice_file, "pref": pref_file, kind: str(path)}
    verb = READER[kind][0]
    return [verb] + [f"--{flag}={files[flag]}" for flag in VERB_FLAGS[verb]]


class TestValidate:
    def test_clean_lattice(self, chain3_file, capsys):
        code, report = run(["validate", "--lattice", chain3_file], capsys)
        assert code == 0 and report["valid"]

    def test_violations_reported(self, tmp_path, capsys):
        path = tmp_path / "m3.json"
        path.write_text(json.dumps(lattice_to_dict(M3)))
        code, report = run(["validate", "--lattice", str(path)], capsys)
        assert code == 1 and not report["valid"]
        assert any("distributivity" in v["law"] for v in report["violations"])

    def test_poset_input_accepted(self, chain3_poset_file, capsys):
        code, report = run(["validate", "--lattice", chain3_poset_file], capsys)
        assert code == 0 and report["valid"]

    def test_law_broken_reports_match_golden_file(self, tmp_path):
        golden = GOLDEN / "validate_broken.json"
        assert validate_reports(tmp_path) == golden.read_bytes()

    def test_golden_cases_cover_every_law_and_several_blocks(self):
        cases = json.loads((GOLDEN / "validate_broken.json").read_text())
        laws = {v["law"] for c in cases for v in c["report"]["violations"]}
        assert len(laws) == 10 and all(c["exit"] == 1 for c in cases)
        assert sum("-n128-" in c["case"] for c in cases) == 3


def law_broken_tables():
    """Twenty seeded law-broken tables, named.  Each case breaks one thing in
    a lawful lattice: one entry, a symmetric pair of entries, the bottom or
    the top.  Every fifth lattice has 128 elements, so validate_laws scans it
    in two blocks, and its broken entries lie in the second block.  M3 and N5
    break distributivity alone."""
    cases = [("m3", M3), ("n5", N5)]
    for seed in range(18):
        rng = random.Random(seed)
        if seed % 5 == 4:
            L = chain(128) if seed % 10 == 4 else downset_lattice(Poset(7))
        else:
            L = downset_lattice(random_poset(rng.randint(1, 5), rng))
        meet, join, bottom, top, n = L.meet.copy(), L.join.copy(), L.bottom, L.top, L.n
        kind = ("entry", "pair", "bottom", "top")[seed % 4]
        if kind == "bottom":
            bottom = rng.choice([a for a in range(n) if a != L.bottom])
        elif kind == "top":
            top = rng.choice([a for a in range(n) if a != L.top])
        else:
            table = meet if rng.random() < 0.5 else join
            a, b = rng.randrange(n // 2, n), rng.randrange(n // 2, n)
            value = rng.choice([v for v in range(n) if v != table[a, b]])
            table[a, b] = value
            if kind == "pair":
                table[b, a] = value
        cases.append((f"seed{seed}-n{n}-{kind}", Lattice(meet, join, bottom, top)))
    return cases


def validate_reports(tmp_path) -> bytes:
    """The `lattimin validate` exit code and report of every law-broken table,
    as one JSON document."""
    out = []
    for name, L in law_broken_tables():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(lattice_to_dict(L)))
        report = tmp_path / f"{name}.report.json"
        code = main(["validate", "--lattice", str(path), "--out", str(report)])
        out.append({"case": name, "exit": code, "report": json.loads(report.read_text())})
    return (json.dumps(out, indent=2, sort_keys=True) + "\n").encode()


class TestPipelineGolden:
    """axioms, dualize, represent and factor reports on seeded inputs, pinned
    byte for byte."""

    def test_reports_match_golden_file(self, tmp_path):
        golden = (GOLDEN / "cli_reports.json").read_bytes()
        assert pipeline_reports(tmp_path) == golden
        assert pipeline_reports(tmp_path, prefill=PREFILL_BYTES) == golden

    def test_golden_cases_cover_axiom3_failures_and_posets(self):
        """Every representation that generated a derived order factors
        through the minimal one, axiom 3 or not: no golden factor refutes."""
        cases = json.loads((GOLDEN / "cli_reports.json").read_text())
        assert len(cases) == 20
        exits = [c["exit"] for c in cases]
        ax3_broken = [c for c in cases if c["axioms"]["axiom3"]
                      and c["exit"]["represent"] == 0]
        assert len(ax3_broken) >= 5
        assert all(c["exit"]["factor"] == 0 for c in cases if c["case"].endswith("-derived"))
        assert sum(e["factor"] == 0 for e in exits) >= 8
        assert sum(e["represent"] == 1 for e in exits) >= 3  # axiom violations
        assert sum(c["case"].startswith("poset-") for c in cases) >= 5
        assert any("-n128-" in c["case"] for c in cases)


# (format, lattice source, order source) per golden case.  "derived" orders
# come from random_representation(L, seed), which is also the factor input;
# "dup" factors a duplicated outcome of the minimal representation; "random"
# orders break axiom 1.  The derived orders of seeds 7..93 and of P8 (the
# down-sets of a 3-chain beside 5 points, 128 elements) break axiom 3.
PIPELINE_CASES = [
    ("table", 0, "derived"), ("poset", 5, "derived"), ("table", 11, "derived"),
    ("poset", 13, "derived"), ("table", 30, "derived"),
    ("table", 7, "derived"), ("poset", 9, "derived"), ("table", 16, "derived"),
    ("table", 38, "derived"), ("poset", 61, "derived"), ("table", 84, "derived"),
    ("poset", 93, "derived"),
    ("table", 1, "random"), ("poset", 2, "random"), ("table", 3, "random"),
    ("table", 4, "random"),
    ("table", 12, "dup"), ("poset", 17, "dup"),
    ("poset", "B7", "derived"), ("table", "P8", "derived"),
]


def pipeline_inputs():
    """Named (lattice file dict, ranks, representation dict) per case."""
    for fmt, source, order in PIPELINE_CASES:
        if source == "B7":
            seed, P = 200, Poset(7)
        elif source == "P8":
            seed, P = 208, Poset(8, ((0, 1), (1, 2)))
        else:
            rng = random.Random(source)
            seed, P = source, random_poset(rng.randint(2, 5), rng)
        L = downset_lattice(P)
        if fmt == "poset":
            lattice = {"poset": {"n": P.n, "covers": [list(c) for c in P.covers]}}
        else:
            lattice = lattice_to_dict(L)
        R = random_representation(L, seed)
        ranks = list(derive_pref_from_rep(R).ranks)
        if order == "random":
            ranks = list(random_weak_order(L.n, random.Random(seed)))
        elif order == "dup":
            R_min = minimal_representation(L, WeakOrder(tuple(ranks)))
            R = duplicate_outcome(R_min, seed % R_min.outcome_count)
        yield f"{fmt}-{source}-n{L.n}-{order}", lattice, ranks, representation_to_dict(R)


# Junk each report file holds before `--out` writes over it, with prefill:
# more than the largest pipeline report (8.3 KB).
PREFILL_BYTES = 1 << 15


def pipeline_reports(tmp_path, prefill=0) -> bytes:
    """Exit code and report of `lattimin axioms`, `dualize`, `represent` and
    `factor` on every pipeline case, as one JSON document; a refused input
    (exit 2) has a null report.  With prefill, each report is written over a
    file of that many junk bytes, which it must be shorter than."""
    junk = random.Random(0).randbytes(prefill)
    out = []
    for name, lattice, ranks, rep in pipeline_inputs():
        files = {}
        for key, doc in (("lattice", lattice), ("pref", {"ranks": ranks}), ("rep", rep)):
            files[key] = tmp_path / f"{name}.{key}.json"
            files[key].write_text(json.dumps(doc))
        case = {"case": name, "exit": {}}
        for verb in ("axioms", "dualize", "represent", "factor"):
            report = tmp_path / f"{name}.{verb}.out.json"
            if prefill:
                report.write_bytes(junk)
            argv = [verb, "--lattice", str(files["lattice"]), "--pref", str(files["pref"])]
            if verb == "factor":
                argv += ["--rep", str(files["rep"])]
            code = main(argv + ["--out", str(report)])
            if prefill and code != 2:
                assert report.stat().st_size < prefill
            case["exit"][verb] = code
            case[verb] = json.loads(report.read_text()) if code != 2 else None
        out.append(case)
    return (json.dumps(out, indent=2, sort_keys=True) + "\n").encode()


class TestSpectrumGolden:
    """The set orders of the spectrum layer, pinned byte for byte: the
    `lattimin spectrum` report of every pipeline case, and the basis and
    finite topology of the down-set lattice of every poset on at most 4
    points and of seeded 6-point posets."""

    def test_reports_match_golden_file(self, tmp_path):
        golden = GOLDEN / "spectrum_reports.json"
        assert spectrum_reports(tmp_path) == golden.read_bytes()

    def test_golden_cases_cover_both_hausdorff_verdicts(self):
        doc = json.loads((GOLDEN / "spectrum_reports.json").read_text())
        assert len(doc["spectrum"]) == 20
        assert all(c["exit"] == 0 for c in doc["spectrum"])
        verdicts = [c["hausdorff"] for c in doc["topology"]]
        assert verdicts.count(True) == 5 and verdicts.count(False) == 258  # 5 antichains


def topology_posets():
    """Named posets: all of them on 0 to 4 points, then 20 seeded 6-point ones."""
    for k in range(5):
        for i, P in enumerate(all_posets(k)):
            yield f"all{k}-{i}", P
    for seed in range(20):
        yield f"seed{seed}-6", random_poset(6, random.Random(seed))


def spectrum_reports(tmp_path) -> bytes:
    """The `lattimin spectrum` exit code and report of every pipeline case,
    and the basis, open sets, Hausdorff verdict and clopen flags of every
    topology poset's down-set lattice, as one JSON document."""
    spectra = []
    for name, lattice, _, _ in pipeline_inputs():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(lattice))
        report = tmp_path / f"{name}.spectrum.json"
        code = main(["spectrum", "--lattice", str(path), "--out", str(report)])
        spectra.append({"case": name, "exit": code, "report": json.loads(report.read_text())})
    topologies = []
    for name, P in topology_posets():
        S = enumerate_prime_filters(downset_lattice(P))
        top = finite_topology_report(S)
        topologies.append({
            "case": name,
            "basis": [sorted(b) for b in S.basis],
            "open_sets": [sorted(o) for o in top.open_sets],
            "hausdorff": top.hausdorff,
            "basis_closed": list(top.basis_closed),
        })
    doc = {"spectrum": spectra, "topology": topologies}
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


class TestParserReuse:
    """main builds its parser once per process; parse results do not carry
    from one call into the next."""

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_out_does_not_carry_into_next_call(self, chain3_file, tmp_path, capsys):
        out = tmp_path / "spectrum.json"
        assert main(["spectrum", "--lattice", chain3_file, "--out", str(out)]) == 0
        first = out.read_bytes()
        assert capsys.readouterr().out == ""
        main(["spectrum", "--lattice", chain3_file])
        assert capsys.readouterr().out.encode() == first
        assert out.read_bytes() == first

    def test_defaults_do_not_carry_into_next_call(self, tmp_path, capsys):
        assert main(["fuzz", "--seed", "3", "--trials", "1", "--max-size", "2"]) == 0
        capsys.readouterr()
        code, report = run(["fuzz", "--trials", "1"], capsys)
        assert code == 0 and (report["seed"], report["max_size"]) == (0, 4)

    def test_bad_argument_after_good_call_exits_2(self, chain3_file, capsys):
        assert main(["spectrum", "--lattice", chain3_file]) == 0
        capsys.readouterr()
        for argv in (["spectrum", "--lattice", chain3_file, "--bogus"], ["spectrum"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert run(["spectrum", "--lattice", chain3_file], capsys)[0] == 0


class TestDispatch:
    """main parses an argv that starts with a verb with that verb's
    subparser alone, and any other argv with the top parser: either way
    with the exit, the output and the namespace of
    build_parser().parse_args."""

    @staticmethod
    def exit_of(call, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            call(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["--version"], ["-h"], ["validate", "-h"],
        ["validate"], ["validate", "--lattice"], ["validate", "--lat"],
        ["validate", "--lattice", "l.json", "extra"],
        ["validate", "--lattice", "l.json", "--bogus"],
        ["validate", "--lattice", "l.json", "--bogus", "x", "--out"],
        ["validate", "--version"], ["validate", "--lattice", "l.json", "--version"],
        ["validate", "--", "x"], ["validate", "--lattice", "l.json", "--", "x"],
        ["fuzz", "--trials", "-1"],
    ])
    def test_exit_matches_parse_args(self, argv, capsys):
        expected = self.exit_of(cli.build_parser().parse_args, argv, capsys)
        assert self.exit_of(main, argv, capsys) == expected

    @pytest.mark.parametrize("argv", [
        ["validate", "--lattice", "l.json"],
        ["validate", "--lat", "l.json", "--out", "r.json"],
        ["validate", "--lattice=l.json", "--out="],
        ["verify", "--rep", "r.json", "--pref", "p.json", "--lattice", "l.json"],
        ["fuzz"], ["fuzz", "--seed", "3", "--max-size", "2", "--trials", "0"],
    ])
    def test_namespace_matches_parse_args(self, argv):
        assert vars(cli._parse(argv)) == vars(cli.build_parser().parse_args(argv))

    def test_verb_first_argv_skips_the_top_parser(self, chain3_file, monkeypatch, capsys):
        top, reached = cli.build_parser(), []
        real = argparse.ArgumentParser.parse_known_args

        def spy(self, args=None, namespace=None):
            if self is top:
                reached.append(list(args))
            return real(self, args, namespace)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        assert main(["spectrum", "--lattice", chain3_file]) == 0
        with pytest.raises(SystemExit):
            main(["spectrum", "--lattice", chain3_file, "--bogus"])
        assert reached == []
        with pytest.raises(SystemExit):
            main(["--version"])
        assert reached == [["--version"]]
        capsys.readouterr()


class TestPosetInput:
    """A poset file stands for the lattice of its down-sets."""

    def test_chain3_poset_gives_four_element_chain(self, chain3_poset_file, capsys):
        code, report = run(["spectrum", "--lattice", chain3_poset_file], capsys)
        assert code == 0
        assert len(report["sigma"]) == 4 and len(report["points"]) == 3

    def test_two_antichain_gives_b2(self, tmp_path, capsys):
        path = tmp_path / "antichain2.json"
        path.write_text(json.dumps({"poset": {"n": 2, "covers": []}}))
        code, report = run(["spectrum", "--lattice", str(path)], capsys)
        assert code == 0
        assert len(report["sigma"]) == 4 and len(report["points"]) == 2


class TestSpectrum:
    def test_chain3_points(self, chain3_file, capsys):
        code, report = run(["spectrum", "--lattice", chain3_file], capsys)
        assert code == 0
        assert report["points"] == [[2], [1, 2]]
        assert report["sigma"] == {"0": [], "1": [1], "2": [0, 1]}


class TestAxioms:
    def test_w3_fails_axiom3_only(self, chain3_file, w3_file, capsys):
        code, report = run(
            ["axioms", "--lattice", chain3_file, "--pref", w3_file], capsys
        )
        assert report["axiom1"] == [] and report["axiom2"] == []
        assert report["axiom3"] == [[1, 2]]
        assert code == 1

    def test_indifferent_chain_passes_all(self, chain3_file, tmp_path, capsys):
        pref = tmp_path / "flat.json"
        pref.write_text(json.dumps({"ranks": [0, 1, 1]}))
        code, report = run(
            ["axioms", "--lattice", chain3_file, "--pref", str(pref)], capsys
        )
        assert code == 0 and report["satisfied"]


class TestAxiom2Cap:
    """axioms and represent refuse an order with more violating axiom-2
    triples than preference.MAX_LISTED_VIOLATIONS, with exit 2, before listing
    any."""

    @pytest.fixture
    def b2_files(self, tmp_path):
        lattice, pref = tmp_path / "b2.json", tmp_path / "w.json"
        lattice.write_text(json.dumps(lattice_to_dict(B2)))
        pref.write_text(json.dumps({"ranks": [0, 1, 1, 2]}))  # two triples
        return ["--lattice", str(lattice), "--pref", str(pref)]

    @pytest.mark.parametrize("verb", ["axioms", "represent"])
    def test_refused_over_the_cap(self, b2_files, monkeypatch, capsys, verb):
        assert run([verb, *b2_files], capsys)[0] == 1
        monkeypatch.setattr(preference, "MAX_LISTED_VIOLATIONS", 0)
        assert main([verb, *b2_files]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {b2_files[3]}: axiom 2 has 2 violating triples, over the listing cap of 0\n"
        )

    def test_b10_random_order_refused_within_the_rung_budget(self, tmp_path):
        # 73,522,970 triples, several GB as a list: refused from the counts
        # alone, in a child under the 256 MiB address-space cap of a ladder
        # rung, so a regression ends in MemoryError rather than exhausting
        # the machine.
        lattice, pref = tmp_path / "b10.json", tmp_path / "w.json"
        lattice.write_text(json.dumps({"poset": {"n": 10, "covers": []}}))
        pref.write_text(json.dumps({"ranks": random_weak_order(1024, random.Random(1))}))
        child = (
            "import sys\n"
            "from lattimin.cli import main\n"
            "for verb in ('axioms', 'represent'):\n"
            "    try:\n"
            "        print(verb, main([verb, '--lattice', sys.argv[1], '--pref', sys.argv[2]]))\n"
            "    except MemoryError:\n"
            "        print(verb, 'MemoryError')\n"
        )
        cap = 256 << 20
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=str(pathlib.Path(lattimin.__file__).parents[1]))
        env.pop("LM_LOG", None)
        done = subprocess.run(
            [sys.executable, "-c", child, str(lattice), str(pref)], env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            capture_output=True, text=True, timeout=120,
        )
        assert done.stdout == "axioms 2\nrepresent 2\n", done.stderr
        assert done.stderr.count(f"error: {pref}: axiom 2 has 73522970 violating triples") == 2


class TestAxiom1And3Cap:
    """axioms and represent refuse an order with more violating axiom-1 or
    axiom-3 pairs than preference.MAX_LISTED_VIOLATIONS, with exit 2, before
    listing any."""

    @pytest.fixture
    def chain3_with(self, chain3_file, tmp_path):
        def files(ranks):
            pref = tmp_path / "w.json"
            pref.write_text(json.dumps({"ranks": ranks}))
            return ["--lattice", chain3_file, "--pref", str(pref)]
        return files

    @pytest.mark.parametrize("verb, ranks, message", [
        ("axioms", [2, 1, 0], "axiom 1 has 3 violating pairs"),
        ("represent", [2, 1, 0], "axiom 1 has 3 violating pairs"),
        ("axioms", [0, 1, 2], "axiom 3 has 1 violating pairs"),
    ])
    def test_refused_over_the_cap(self, chain3_with, monkeypatch, capsys, verb, ranks, message):
        args = chain3_with(ranks)
        assert run([verb, *args], capsys)[0] == 1
        monkeypatch.setattr(preference, "MAX_LISTED_VIOLATIONS", 0)
        assert main([verb, *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {args[3]}: {message}, over the listing cap of 0\n"

    def test_c1024_refused_within_the_rung_budget(self, tmp_path):
        # 523,776 axiom-1 pairs under reversed ranks and 522,753 axiom-3
        # pairs under ranks 0..1023 on the 1024-chain: refused from the
        # counts alone, in a child under the 256 MiB address-space cap of a
        # ladder rung, so a regression ends in MemoryError rather than
        # exhausting the machine.
        n = 1024
        table = [list(range(a)) + [a] * (n - a) for a in range(n)]  # min(a, b)
        lattice = tmp_path / "c1024.json"
        lattice.write_text(json.dumps({
            "n": n, "bottom": 0, "top": n - 1, "meet": table,
            "join": [[max(a, b) for b in range(n)] for a in range(n)],
        }))
        for name, ranks in (("rev", range(n - 1, -1, -1)), ("inc", range(n))):
            (tmp_path / f"{name}.json").write_text(json.dumps({"ranks": list(ranks)}))
        child = (
            "import sys\n"
            "from lattimin.cli import main\n"
            "for verb, pref in (('axioms', 'rev'), ('represent', 'rev'), ('axioms', 'inc')):\n"
            "    args = [verb, '--lattice', sys.argv[1], '--pref', f'{sys.argv[2]}/{pref}.json']\n"
            "    try:\n"
            "        print(verb, pref, main(args))\n"
            "    except MemoryError:\n"
            "        print(verb, pref, 'MemoryError')\n"
        )
        cap = 256 << 20
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=str(pathlib.Path(lattimin.__file__).parents[1]))
        env.pop("LM_LOG", None)
        done = subprocess.run(
            [sys.executable, "-c", child, str(lattice), str(tmp_path)], env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            capture_output=True, text=True, timeout=120,
        )
        assert done.stdout == "axioms rev 2\nrepresent rev 2\naxioms inc 2\n", done.stderr
        assert done.stderr.count(f"error: {tmp_path}/rev.json: axiom 1 has 523776 violating pairs") == 2
        assert done.stderr.count(f"error: {tmp_path}/inc.json: axiom 3 has 522753 violating pairs") == 1


class TestDualize:
    def test_agreement(self, chain3_file, w3_file, capsys):
        code, report = run(
            ["dualize", "--lattice", chain3_file, "--pref", w3_file], capsys
        )
        assert code == 0 and report["agreement"]
        assert report["forward_ranks"] == [1, 0]

    def test_disagreement_with_counterexample(self, chain3_file, tmp_path, capsys):
        pref = tmp_path / "bad.json"
        pref.write_text(json.dumps({"ranks": [0, 2, 1]}))
        code, report = run(
            ["dualize", "--lattice", chain3_file, "--pref", str(pref)], capsys
        )
        assert code == 1 and report["counterexample"] == [1, 2]


class TestRepresentVerifyFactor:
    def test_represent_then_verify(self, chain3_file, w3_file, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        code, report = run(
            ["represent", "--lattice", chain3_file, "--pref", w3_file, "--out", str(rep)],
            capsys,
        )
        assert code == 0
        stored = json.loads(rep.read_text())
        assert stored["outcomes"] == 2
        code, report = run(
            ["verify", "--lattice", chain3_file, "--pref", w3_file, "--rep", str(rep)],
            capsys,
        )
        assert code == 0 and report["verified"]

    def test_verify_bad_rep(self, chain3_file, w3_file, tmp_path, capsys):
        bad = tmp_path / "bad_rep.json"
        bad.write_text(
            json.dumps(
                {
                    "outcomes": 2,
                    "sigma": {"0": [], "1": [1], "2": [0, 1]},
                    "outcome_ranks": [0, 1],  # reversed outcome order
                }
            )
        )
        code, report = run(
            ["verify", "--lattice", chain3_file, "--pref", w3_file, "--rep", str(bad)],
            capsys,
        )
        assert code == 1 and report["counterexample"] is not None

    def test_represent_axiom_violation(self, chain3_file, tmp_path, capsys):
        pref = tmp_path / "antitone.json"
        pref.write_text(json.dumps({"ranks": [2, 1, 0]}))
        code, report = run(
            ["represent", "--lattice", chain3_file, "--pref", str(pref)], capsys
        )
        assert code == 1 and report["error"] == "axiom-violation"

    def test_factor_duplicated_rep(self, chain3_file, w3_file, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        run(
            ["represent", "--lattice", chain3_file, "--pref", w3_file, "--out", str(rep)],
            capsys,
        )
        stored = json.loads(rep.read_text())
        # duplicate outcome 0 by hand
        stored["outcomes"] = 3
        for key, pts in stored["sigma"].items():
            if 0 in pts:
                pts.append(2)
        stored["outcome_ranks"].append(stored["outcome_ranks"][0])
        alt = tmp_path / "alt.json"
        alt.write_text(json.dumps(stored))
        code, report = run(
            ["factor", "--lattice", chain3_file, "--pref", w3_file, "--rep", str(alt)],
            capsys,
        )
        assert code == 0 and report["factored"] and report["valid_hom"]

    def test_two_outcome_rep_of_c4_factors(self, tmp_path, capsys):
        """On the 4-chain ranked 0, 1, 1, 2 the middle two elements share a
        rank, so the minimal representation merges them, and a valid
        two-outcome representation that merges them too factors through it."""
        files = {"lattice": {"poset": {"n": 3, "covers": [[0, 1], [1, 2]]}},
                 "pref": {"ranks": [0, 1, 1, 2]},
                 "rep": {"outcomes": 2, "sigma": {"0": [], "1": [1], "2": [1], "3": [0, 1]},
                         "outcome_ranks": [1, 0]}}
        args = ["factor"]
        for key, doc in files.items():
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps(doc))
            args += [f"--{key}", str(path)]
        code, report = run(args, capsys)
        assert code == 0
        assert report == {"factored": True, "hom": [0, 1, 2], "surjective": True,
                          "valid_hom": True}

    # The minimal representation of W3 on CHAIN3, as a file.
    REP3 = {"outcomes": 2, "sigma": {"0": [], "1": [1], "2": [0, 1]}, "outcome_ranks": [1, 0]}

    @pytest.mark.parametrize("flag, ranks, rep, message", [
        ("pref", [2, 1, 0], REP3, "axiom violations (axiom1: 3)"),
        ("rep", [0, 1, 2], {**REP3, "sigma": {"0": [], "1": [0, 1], "2": [1]}},
         "sigma_map is not a bounded-lattice hom"),
        ("rep", [0, 1, 2], {**REP3, "outcome_ranks": [0, 1]},
         "representation does not reproduce W"),
    ], ids=["axioms", "not-a-hom", "other-order"])
    def test_factor_refusal_names_the_file(self, chain3_file, tmp_path, capsys, flag, ranks,
                                           rep, message):
        """factor's refusals after loading start with the path of the file
        they refuse: the order, or the alleged representation."""
        paths = {"pref": tmp_path / "pref.json", "rep": tmp_path / "rep.json"}
        paths["pref"].write_text(json.dumps({"ranks": ranks}))
        paths["rep"].write_text(json.dumps(rep))
        argv = ["factor", "--lattice", chain3_file, "--pref", str(paths["pref"]),
                "--rep", str(paths["rep"])]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {paths[flag]}: {message}\n")


class TestInputErrors:
    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 3,')
        code = main(["validate", "--lattice", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert str(path) in err and ":" in err  # position-bearing diagnostic

    def test_missing_file(self, capsys):
        assert main(["validate", "--lattice", "/nonexistent.json"]) == 2

    def test_rank_length_mismatch(self, chain3_file, tmp_path, capsys):
        pref = tmp_path / "short.json"
        pref.write_text(json.dumps({"ranks": [0, 1]}))
        assert main(["axioms", "--lattice", chain3_file, "--pref", str(pref)]) == 2

    @pytest.mark.parametrize("top_level", [5, [1, 2], "lattice", None])
    def test_top_level_not_an_object(self, tmp_path, capsys, top_level):
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps(top_level))
        assert main(["validate", "--lattice", str(path)]) == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["meet", "join", "bottom", "top"])
    def test_non_integer_lattice_value(self, tmp_path, capsys, field):
        d = lattice_to_dict(CHAIN3)
        if field in ("meet", "join"):
            d[field][1][2] = 0.5
        else:
            d[field] = float(d[field])  # integral, but still not a JSON integer
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        assert main(["validate", "--lattice", str(path)]) == 2
        assert "is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["validate", "spectrum"])
    @pytest.mark.parametrize("labels, message", [
        ("ab", 'expected a list of strings or null, got "ab"'),
        ({"x": 1, "y": 2}, 'expected a list of strings or null, got {"x": 1, "y": 2}'),
        ([1, None], "1 is not a string"),
        (7, "expected a list of strings or null, got 7"),
        (["a", "b"], "2 labels for 3 elements"),
        (["a", "b", "c", "d"], "4 labels for 3 elements"),
    ])
    def test_bad_labels(self, tmp_path, capsys, verb, labels, message):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({**lattice_to_dict(CHAIN3), "labels": labels}))
        assert main([verb, "--lattice", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: bad lattice file: labels: {message}\n"

    @pytest.mark.parametrize("labels", [None, ["0", "1/2", "1"], "absent"])
    def test_good_labels(self, tmp_path, capsys, labels):
        d = {**lattice_to_dict(CHAIN3), "labels": labels}
        if labels == "absent":
            del d["labels"]
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(d))
        assert main(["validate", "--lattice", str(path)]) == 0

    def test_non_integer_rank(self, chain3_file, tmp_path, capsys):
        pref = tmp_path / "float.json"
        pref.write_text(json.dumps({"ranks": [0, 1.7, 2]}))
        assert main(["axioms", "--lattice", chain3_file, "--pref", str(pref)]) == 2
        assert "1.7 is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["outcomes", "sigma", "outcome_ranks"])
    def test_non_integer_representation_value(
        self, chain3_file, w3_file, tmp_path, capsys, field
    ):
        rep = {"outcomes": 2, "sigma": {"0": [], "1": [1], "2": [0, 1]}, "outcome_ranks": [1, 0]}
        bad = {"outcomes": 2.0, "sigma": {**rep["sigma"], "1": [1.0]}, "outcome_ranks": [1, 0.5]}
        path = tmp_path / "rep.json"
        path.write_text(json.dumps({**rep, field: bad[field]}))
        args = ["verify", "--lattice", chain3_file, "--pref", w3_file, "--rep", str(path)]
        assert main(args) == 2
        assert "is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["verify", "factor"])
    @pytest.mark.parametrize("outcome", [-1, 2])
    def test_outcome_out_of_range(self, chain3_file, w3_file, tmp_path, capsys, verb, outcome):
        rep = {"outcomes": 2, "sigma": {"0": [], "1": [outcome], "2": [0, 1]},
               "outcome_ranks": [1, 0]}
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(rep))
        args = [verb, "--lattice", chain3_file, "--pref", w3_file, "--rep", str(path)]
        assert main(args) == 2
        assert "outside range(2)" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["verify", "factor"])
    @pytest.mark.parametrize("outcome", [-1, 2])
    def test_outcome_out_of_range_in_equal_length_rows(self, chain3_file, w3_file, tmp_path,
                                                      capsys, verb, outcome):
        rep = {"outcomes": 2, "sigma": {"0": [outcome, outcome], "1": [outcome, 0], "2": [0, 1]},
               "outcome_ranks": [1, 0]}
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(rep))
        args = [verb, "--lattice", chain3_file, "--pref", w3_file, "--rep", str(path)]
        assert main(args) == 2
        assert "outside range(2)" in capsys.readouterr().err

    def test_equal_length_rows_are_outcome_lists(self, chain3_file, w3_file, tmp_path, capsys):
        """sigma rows of one length are read as outcomes, not as truth values:
        [0, 0], [0, 1], [1, 1] is {0}, {0, 1}, {1}, which does not verify."""
        reports = []
        for sigma in ({"0": [0, 0], "1": [0, 1], "2": [1, 1]}, {"0": [0], "1": [0, 1], "2": [1]}):
            path = tmp_path / "rep.json"
            path.write_text(json.dumps({"outcomes": 2, "sigma": sigma, "outcome_ranks": [1, 0]}))
            code, report = run(["verify", "--lattice", chain3_file, "--pref", w3_file,
                                "--rep", str(path)], capsys)
            assert code == 1 and report["verified"] is False
            reports.append(report)
        assert reports[0] == reports[1]

    def test_sixteen_point_poset_refused(self, tmp_path, capsys):
        path = tmp_path / "antichain16.json"
        path.write_text(json.dumps({"poset": {"n": 16, "covers": []}}))
        assert main(["spectrum", "--lattice", str(path)]) == 2
        assert "capped at 4096 elements" in capsys.readouterr().err


    def test_large_poset_refused_before_the_closure(self, tmp_path, monkeypatch, capsys):
        def closure(self):
            pytest.fail("the closure was computed")

        monkeypatch.setattr(Poset, "leq", property(closure))
        path = tmp_path / "antichain1500.json"
        path.write_text(json.dumps({"poset": {"n": 1500, "covers": []}}))
        assert main(["spectrum", "--lattice", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: posets capped at 16 elements, got 1500\n"

    RAGGED = "meet and join must be square tables of equal size"
    TABLES3 = {"bottom": 0, "top": 2, "meet": [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
               "join": [[0, 1, 2], [1, 1, 2], [2, 2, 2]]}

    @pytest.mark.parametrize("kind, value, message", [
        ("lattice", {"poset": [1, 2]}, "poset: expected a JSON object"),
        ("lattice", {"poset": {"n": -1, "covers": []}}, "n: -1 is negative"),
        ("lattice", {"meet": [[0, 0], [0]], "join": [[0, 1], [1, 1]], "bottom": 0, "top": 1},
         RAGGED),
        ("lattice", {"meet": [[0, 0], [0, 1]], "join": [[0, 1], [1, 1, 1]], "bottom": 0,
                     "top": 1}, RAGGED),
        ("rep", {"outcomes": 2, "sigma": [[], [1], [0, 1]], "outcome_ranks": [1, 0]},
         "sigma: expected a JSON object"),
        ("rep", {"outcomes": 2, "sigma": "012", "outcome_ranks": [1, 0]},
         "sigma: expected a JSON object"),
        ("lattice", {"poset": {"n": 3, "covers": [[0, 1, 2]]}}, "covers: [0, 1, 2] is not a pair"),
        ("lattice", {"poset": {"n": 3, "covers": [[0]]}}, "covers: [0] is not a pair"),
        ("lattice", {"poset": {"n": 2}}, "missing field 'covers'"),
        ("rep", {"outcomes": 2, "sigma": {"0": [], "1": [1]}, "outcome_ranks": [1, 0]},
         "sigma: no entry for element 2"),
        ("rep", {"outcomes": 1, "sigma": {"0": [], "1": [0], "2": [0], "7": [0], "x": 5},
                 "outcome_ranks": [0]},
         'sigma: key "7" is not an element 0..2'),
        ("rep", {"outcomes": 2, "sigma": {"0": [], "1": [1], "2": [0, 1]}},
         "missing field 'outcome_ranks'"),
        ("lattice", {**TABLES3, "n": 7}, "n: 7 is not the table size 3"),
        ("lattice", {**TABLES3, "n": "3"}, 'n: "3" is not the table size 3'),
        ("lattice", {"poset": {"n": 2, "covers": []}, "meet": [[0]], "join": [[0]]},
         'key "meet" is not a field (poset)'),
        ("lattice", {"bottom": 0, "poset": {"n": 2, "covers": []}},
         'key "bottom" is not a field (poset)'),
        ("lattice", {**TABLES3, "comment": "x", "covers": []},
         'key "comment" is not a field (n, meet, join, bottom, top, labels)'),
        ("lattice", {"poset": {"n": 2, "cover": [], "covers": []}},
         'key "cover" is not a field (n, covers)'),
        ("pref", {"ranks": [0, 1, 2], "rank": [9]}, 'key "rank" is not a field (ranks)'),
        ("rep", {"outcomes": 2, "sigma": {"0": [], "1": [1], "2": [0, 1]},
                 "outcome_ranks": [1, 0], "extra": 1},
         'key "extra" is not a field (outcomes, sigma, outcome_ranks)'),
        ("rep", {"comment": "x", "outcomes": 2, "sigma": {"0": [], "1": [1], "2": [0, 1]},
                 "outcome_ranks": [1, 0], "extra": 1},
         'key "comment" is not a field (outcomes, sigma, outcome_ranks)'),
    ], ids=["poset-list", "poset-negative-n", "ragged-meet", "ragged-join", "sigma-list",
            "sigma-string", "cover-triple", "cover-single", "poset-no-covers", "sigma-no-entry",
            "sigma-extra-keys", "rep-no-ranks", "table-n-mismatch", "table-n-string",
            "poset-with-tables", "poset-after-a-table-field", "table-unknown-keys",
            "poset-block-unknown-key", "pref-unknown-key", "rep-unknown-key",
            "rep-unknown-keys-first-named"])
    def test_refusal_names_the_field(self, chain3_file, w3_file, tmp_path, capsys, kind, value,
                                     message):
        """Every refusal of a file's content starts with its path and the
        kind of file, whichever file it is."""
        path = tmp_path / "input.json"
        path.write_text(json.dumps(value))
        assert main(reader_argv(kind, path, chain3_file, w3_file)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: bad {READER[kind][1]} file: {message}\n"

    @pytest.mark.parametrize("kind", ["lattice", "pref", "rep"])
    def test_non_utf8_file_refused(self, chain3_file, w3_file, tmp_path, capsys, kind):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"labels": ["\u00ff"]}'.encode("latin-1"))
        files = {"lattice": chain3_file, "pref": w3_file, "rep": w3_file, kind: str(path)}
        args = ["verify"] + [f"--{k}={v}" for k, v in files.items()]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: not UTF-8 text: ")
        assert "0xff" in captured.err

    def test_byte_order_mark_refused(self, tmp_path, capsys):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(lattice_to_dict(CHAIN3)).encode())
        assert main(["validate", "--lattice", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:1:1: Unexpected UTF-8 BOM (decode using utf-8-sig)\n"
        )

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_error_positions_count_every_newline(self, tmp_path, capsys, newline):
        path = tmp_path / "broken.json"
        path.write_bytes(newline.join(['{"n": 3,', '', '  "top": }']).encode())
        assert main(["validate", "--lattice", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:3:10: Expecting value\n"

    def test_missing_ranks_names_the_field(self, chain3_file, tmp_path, capsys):
        path = tmp_path / "pref.json"
        path.write_text(json.dumps({"rank": [0, 1, 2]}))
        assert main(["axioms", "--lattice", chain3_file, "--pref", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: bad preference file: missing field 'ranks'\n"

    @pytest.mark.parametrize("kind, text, reason", [
        ("lattice", "[" * 100_000 + "]" * 100_000, "nested too deeply: "),
        ("pref", '{"ranks": [' + "9" * 5000 + ", 0, 0]}", "Exceeds the limit (4300 digits)"),
        ("pref", '{"ranks": [0, 1, 2], "ranks": [0, 0, 0]}', 'key "ranks" is repeated\n'),
        ("lattice", '{"poset": {"n": 3, "covers": [[0, 1], [1, 2]]}, "poset": {"n": 2}}',
         'key "poset" is repeated\n'),
        ("lattice", '{"poset": {"n": 3, "covers": [[0, 1], [1, 2]], "n": 2}}',
         'key "n" is repeated\n'),
        ("rep", '{"outcomes": 2, "sigma": {"0": [], "1": [1], "2": [0, 1], "1": [0]},'
                ' "outcome_ranks": [1, 0]}', 'key "1" is repeated\n'),
    ], ids=["deep-nesting", "5000-digit-integer", "repeated-top-level-key",
            "repeated-poset-key", "repeated-key-in-poset-block", "repeated-key-in-sigma"])
    def test_text_the_parser_refuses(self, chain3_file, w3_file, tmp_path, capsys, kind, text,
                                     reason):
        path = tmp_path / "input.json"
        path.write_text(text)
        files = {"lattice": chain3_file, "pref": w3_file, kind: str(path)}
        args = ["verify" if kind == "rep" else "axioms"]
        assert main(args + [f"--{k}={v}" for k, v in files.items()]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {path}: {reason}")


class TestBoundedQuotes:
    """A refusal quotes a bounded piece of the value or key it names, so a
    huge one gives one short line, not the value echoed whole."""

    BIG_LIST = list(range(200_000))
    BIG_KEY = "k" * 1_000_000

    @pytest.mark.parametrize("kind, doc, named", [
        ("pref", {"ranks": [BIG_LIST, 0, 0]}, "ranks: "),
        ("lattice", {**TestInputErrors.TABLES3, "labels": {BIG_KEY: 1}}, "labels: "),
        ("lattice", {**TestInputErrors.TABLES3, "n": BIG_LIST}, "n: "),
        ("lattice", {**TestInputErrors.TABLES3, BIG_KEY: 1}, 'key "kkk'),
        ("lattice", {"poset": {"n": 3, "covers": [BIG_LIST]}}, "covers: "),
        ("rep", {"outcomes": 1, "sigma": {"0": [], "1": [0], "2": [0], BIG_KEY: []},
                 "outcome_ranks": [0]}, 'sigma: key "kkk'),
        ("pref", f'{{"{BIG_KEY}": 1, "{BIG_KEY}": 2}}', 'key "kkk'),
    ], ids=["ranks-entry", "labels-key", "n-list", "unknown-key", "cover", "sigma-key",
            "repeated-key"])
    def test_one_short_line(self, chain3_file, w3_file, tmp_path, capsys, kind, doc, named):
        path = tmp_path / "big.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        assert main(reader_argv(kind, path, chain3_file, w3_file)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert len(captured.err.encode()) < 300
        assert captured.err.startswith(f"error: {path}: ") and named in captured.err
        assert "…" in captured.err


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _objects(doc, path=()):
    """The paths (keys from the top) of every JSON object in doc; the files
    nest objects only directly in objects."""
    if isinstance(doc, dict):
        yield path
        for key, value in doc.items():
            yield from _objects(value, path + (key,))


def _random_slot(rng, doc) -> tuple:
    """The path of a random value in doc: a random child at each level,
    stopping at a leaf, an empty container, or with chance 1/2."""
    path, node = (), doc
    while isinstance(node, (dict, list)) and node:
        key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
        path, node = path + (key,), node[key]
        if rng.random() < 0.5:
            break
    return path


def _tables(doc) -> list:
    """The lists of rows in doc: meet, join or covers, sigma's rows as one
    table, or [ranks] for a preference file.  Only the first three are
    lists of the file itself, so only they can be transposed."""
    if "sigma" in doc and isinstance(doc["sigma"], dict):
        return [list(doc["sigma"].values())]
    block = doc.get("poset", doc)
    found = [block[k] for k in ("meet", "join", "covers") if isinstance(block.get(k), list)]
    return found or [[doc["ranks"]]]


class TestExitCodeContract:
    """Mutation fuzzing of the golden pipeline's files: on each input with
    one mutation, every verb exits 0, 1 or 2 through cli.main with no
    exception escaping.  Exit 2 writes no report and one stderr line that
    starts with the path of a file on its command line; exit 1 writes a
    report whose verdict is false; and a repeat gives the same bytes.  (A
    JSON syntax error puts its line and column after the path.)"""

    DRAWS = 40  # per mutation class
    CLASSES = ("drop-key", "add-key", "repeat-key", "retype", "table", "truncate", "non-utf8",
               "bom", "swap")
    VERDICT = {"validate": "valid", "axioms": "satisfied", "dualize": "agreement",
               "verify": "verified", "factor": "factored"}
    RETYPES = (0.5, True, "1", None, [], {}, 1 << 62, "RAW:" + "9" * 5000,
               "RAW:" + "[" * 100_000 + "]" * 100_000, "RAW:" + "[" * 50 + "0" + "]" * 50)

    @pytest.fixture(scope="class")
    def inputs(self):
        return [{"lattice": lattice, "pref": {"ranks": ranks}, "rep": rep}
                for _, lattice, ranks, rep in pipeline_inputs()]

    @staticmethod
    def dumps(doc, path, value) -> bytes:
        """doc, with value put at path (for an empty path, in its place), as
        JSON; a value "RAW:text" is written as the text, which need not be
        JSON."""
        raw = isinstance(value, str) and value.startswith("RAW:")
        if not path:
            return (value[4:] if raw else json.dumps(value)).encode()
        _at(doc, path[:-1])[path[-1]] = value
        text = json.dumps(doc)
        return (text.replace(json.dumps(value), value[4:]) if raw else text).encode()

    def mutate(self, rng, kind, docs) -> dict:
        """The files' bytes, per kind, with one mutation of the given kind."""
        files = {k: json.dumps(doc).encode() for k, doc in docs.items()}
        target = rng.choice(sorted(files))
        doc = json.loads(files[target])
        if kind in ("drop-key", "add-key", "repeat-key"):
            path = rng.choice([p for p in _objects(doc) if _at(doc, p) or kind == "add-key"])
            obj = dict(_at(doc, path))
            if kind == "drop-key":
                del obj[rng.choice(list(obj))]
            elif kind == "add-key":
                key = rng.choice(["extra", "", "poset", "meet", "n", "ranks", "labels", "sigma",
                                  "outcomes", "3", "-1"])
                obj[key] = rng.choice([0, [], {}, "x", None, [[0]]])
            else:
                key = rng.choice(list(obj))
                value = json.dumps(obj[key])
                obj = "RAW:{" + json.dumps(key) + ": " + value + ", " + json.dumps(obj)[1:]
            files[target] = self.dumps(doc, path, obj)
        elif kind == "retype":
            files[target] = self.dumps(doc, _random_slot(rng, doc), rng.choice(self.RETYPES))
        elif kind == "table":
            rows = rng.choice(_tables(doc))
            how = rng.choice(["ragged", "transposed", "out-of-range"])
            if how == "transposed" and rows and len({len(r) for r in rows}) == 1:
                rows[:] = [list(col) for col in zip(*rows)]
            elif how == "out-of-range" and any(rows):
                row = rng.choice([r for r in rows if r])
                row[rng.randrange(len(row))] = rng.choice([-1, len(rows), len(rows) + 7, 1 << 62])
            elif rows:
                row = rng.choice(rows)
                if row and rng.random() < 0.5:
                    row.pop()
                else:
                    row.append(0)
            files[target] = json.dumps(doc).encode()
        elif kind == "truncate":
            files[target] = files[target][:rng.randrange(len(files[target]))]
        elif kind == "non-utf8":
            at = rng.randrange(len(files[target]) + 1)
            bad = rng.choice([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"])
            files[target] = files[target][:at] + bad + files[target][at:]
        elif kind == "bom":
            files[target] = b"\xef\xbb\xbf" + files[target]
        return files

    def check(self, verb, given, capsys):
        """Run verb twice on the files given per flag, and check the
        contract on what it writes."""
        flags = VERB_FLAGS[verb]
        argv = [verb] + [f"--{flag}={given[flag]}" for flag in flags]
        runs = []
        for _ in range(2):
            code = main(argv)
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1], argv
        code, out, err = runs[0]
        if code == 2:
            assert out == "" and err.endswith("\n") and err.count("\n") == 1, (argv, err)
            named = any(re.match(rf"error: {re.escape(given[flag])}(:\d+:\d+)?: ", err)
                        for flag in flags)
            assert named, (argv, err)
        else:
            assert err == "" and code in (0, 1), (argv, code, err)
            report = json.loads(out)
            if code == 1 and verb == "represent":
                assert report["error"] == "axiom-violation", (argv, report)
            elif code == 1:
                assert report[self.VERDICT[verb]] is False, (argv, report)

    def test_every_verb_keeps_the_contract(self, inputs, tmp_path, capsys):
        paths = {k: str(tmp_path / f"{k}.json") for k in ("lattice", "pref", "rep")}
        for kind in self.CLASSES:
            rng = random.Random(f"exit-codes-{kind}")
            for _ in range(self.DRAWS):
                files = self.mutate(rng, kind, rng.choice(inputs))
                for k, data in files.items():
                    pathlib.Path(paths[k]).write_bytes(data)
                given = dict(paths)
                if kind == "swap":
                    a, b = rng.sample(sorted(paths), 2)
                    given[a], given[b] = paths[b], paths[a]
                for verb in VERB_FLAGS:
                    self.check(verb, given, capsys)


class TestRepresentationCap:
    """A representation file with more than lattice.MAX_ELEMENTS outcomes is
    refused with exit 2 before its X-by-X planes are allocated."""

    def test_refused_within_the_rung_budget(self, tmp_path):
        # 60,000 outcomes on B2, a 1 MB file: its literal cross-check would
        # need 3.35 GiB planes.  The child runs under the 256 MiB
        # address-space cap of a ladder rung, so a regression ends in
        # MemoryError rather than exhausting the machine.
        count = 60_000
        files = {"lattice": {"poset": {"n": 2, "covers": []}}, "pref": {"ranks": [0, 1, 1, 2]},
                 "rep": {"outcomes": count,
                         "sigma": {"0": [], "1": [0], "2": [1], "3": list(range(count))},
                         "outcome_ranks": [1] * count}}
        args = ["verify"]
        for key, doc in files.items():
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps(doc))
            args += [f"--{key}", str(path)]
        child = (
            "import sys\n"
            "from lattimin.cli import main\n"
            "try:\n"
            "    print(main(sys.argv[1:]))\n"
            "except MemoryError:\n"
            "    print('MemoryError')\n"
        )
        cap = 256 << 20
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=str(pathlib.Path(lattimin.__file__).parents[1]))
        env.pop("LM_LOG", None)
        done = subprocess.run(
            [sys.executable, "-c", child, *args], env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            capture_output=True, text=True, timeout=120,
        )
        assert done.stdout == "2\n", done.stderr
        assert done.stderr == (
            f"error: {tmp_path / 'rep.json'}: representations capped at "
            f"{lattice_module.MAX_ELEMENTS} outcomes, got {count}\n"
        )


class TestSizeCapBoundaries:
    """The outcome cap and the down-set cap, each patched small as
    TestByteBudget patches the byte budget: at the cap the verb answers
    with exit 0 or 1, and one over it exits 2 with one line naming the
    file."""

    @staticmethod
    def refused(argv, path, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    @pytest.mark.parametrize("verb", ["verify", "factor"])
    def test_outcome_cap(self, chain3_file, w3_file, tmp_path, monkeypatch, capsys, verb):
        # representation.MAX_ELEMENTS is bound apart from lattice.MAX_ELEMENTS
        monkeypatch.setattr(representation_module, "MAX_ELEMENTS", 3)
        rep = tmp_path / "rep.json"
        argv = [verb, "--lattice", chain3_file, "--pref", w3_file, "--rep", str(rep)]

        def write(count):  # W3's representation, its outcome 0 repeated
            rep.write_text(json.dumps({
                "outcomes": count, "sigma": {"0": [], "1": [1], "2": list(range(count))},
                "outcome_ranks": [1, 0] + [1] * (count - 2)}))

        write(3)
        assert main(argv) in (0, 1)
        assert capsys.readouterr().err == ""
        write(4)
        self.refused(argv, rep, "representations capped at 3 outcomes, got 4", capsys)
        # the fields are read and type-checked before the cap is checked
        rep.write_text(json.dumps({
            "outcomes": 4, "sigma": {"0": [], "1": [1.5], "2": [0]},
            "outcome_ranks": [1, 0, 1, 1]}))
        self.refused(argv, rep, "bad representation file: sigma: 1.5 is not an integer", capsys)

    @pytest.mark.parametrize("verb", ["validate", "spectrum"])
    def test_downset_cap(self, tmp_path, monkeypatch, capsys, verb):
        monkeypatch.setattr(lattice_module, "MAX_ELEMENTS", 4)
        path = tmp_path / "poset.json"
        argv = [verb, "--lattice", str(path)]
        path.write_text(json.dumps({"poset": {"n": 2, "covers": []}}))  # B2: 4 down-sets
        assert main(argv) in (0, 1)
        assert capsys.readouterr().err == ""
        # two minimal points under a top one: 5 down-sets
        path.write_text(json.dumps({"poset": {"n": 3, "covers": [[0, 2], [1, 2]]}}))
        self.refused(argv, path, "down-set lattice capped at 4 elements, got 5", capsys)


class TestDegenerateShapes:
    """The one-element lattice (the poset with no points) and a constant
    order, where sigma has no outcomes at all."""

    @staticmethod
    def write(tmp_path, **docs):
        paths = {}
        for key, doc in docs.items():
            paths[key] = str(tmp_path / f"{key}.json")
            pathlib.Path(paths[key]).write_text(json.dumps(doc))
        return paths

    def test_one_element_lattice_through_every_verb(self, tmp_path, capsys):
        f = self.write(tmp_path, lattice={"poset": {"n": 0, "covers": []}}, pref={"ranks": [0]})
        lat, pref = ["--lattice", f["lattice"]], ["--pref", f["pref"]]
        assert run(["validate", *lat], capsys) == (0, {"valid": True, "violations": []})
        assert run(["spectrum", *lat], capsys) == (0, {"points": [], "sigma": {"0": []}})
        code, report = run(["axioms", *lat, *pref], capsys)
        assert code == 0 and report["satisfied"]
        code, report = run(["dualize", *lat, *pref], capsys)
        assert code == 0 and report["forward_ranks"] == []
        rep = str(tmp_path / "rep.json")
        assert run(["represent", *lat, *pref, "--out", rep], capsys) == (0, None)
        assert json.loads(pathlib.Path(rep).read_text()) == {
            "outcome_ranks": [], "outcomes": 0, "sigma": {"0": []}}
        assert run(["verify", *lat, *pref, "--rep", rep], capsys) == (
            0, {"counterexample": None, "verified": True})
        assert run(["factor", *lat, *pref, "--rep", rep], capsys) == (
            0, {"factored": True, "hom": [0], "surjective": True, "valid_hom": True})

    def test_constant_order_on_b2(self, tmp_path, capsys):
        f = self.write(tmp_path, lattice={"poset": {"n": 2, "covers": []}},
                       pref={"ranks": [0, 0, 0, 0]})
        args = ["--lattice", f["lattice"], "--pref", f["pref"]]
        rep = str(tmp_path / "rep.json")
        assert run(["represent", *args, "--out", rep], capsys) == (0, None)
        assert json.loads(pathlib.Path(rep).read_text()) == {
            "outcome_ranks": [], "outcomes": 0,
            "sigma": {"0": [], "1": [], "2": [], "3": []}}
        assert run(["verify", *args, "--rep", rep], capsys) == (
            0, {"counterexample": None, "verified": True})
        assert run(["factor", *args, "--rep", rep], capsys) == (
            0, {"factored": True, "hom": [0], "surjective": True, "valid_hom": True})


class TestByteBudget:
    """An input file larger than io.MAX_FILE_BYTES is refused with exit 2
    before it is parsed."""

    def test_budget_fits_the_largest_benchmark_inputs(self):
        # the C1024 and B10 ladder files take about 10.3 MB and 9.9 MB
        assert io_module.MAX_FILE_BYTES == 32 << 20 >= 3 * 10_300_000

    @pytest.mark.parametrize("kind", ["lattice", "pref"])
    def test_boundary(self, chain3_file, w3_file, tmp_path, monkeypatch, capsys, kind):
        files = {"lattice": chain3_file, "pref": w3_file}
        text = pathlib.Path(files[kind]).read_text()
        budget = max(len(pathlib.Path(f).read_text()) for f in files.values()) + 4
        monkeypatch.setattr(io_module, "MAX_FILE_BYTES", budget)
        path = tmp_path / f"{kind}.json"
        files[kind] = str(path)
        argv = ["axioms", "--lattice", files["lattice"], "--pref", files["pref"]]
        path.write_text(text.ljust(budget))
        assert run(argv, capsys)[0] == 1  # w3 breaks axiom 3
        path.write_text(text.ljust(budget + 1))

        decode = io_module._decode

        def parse(name, data):
            if name == str(path):
                pytest.fail("an over-budget file was parsed")
            return decode(name, data)

        monkeypatch.setattr(io_module, "_decode", parse)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: {budget + 1} bytes, over the input budget of {budget}\n"
        )


class TestLatticeMemo:
    """io.load_lattice keeps the last lattice file it loaded, keyed on its
    exact bytes: verbs on unchanged bytes share one parse and one law
    certificate, and every answer is the one a first load gives."""

    # The 3-chain with join(1, 2) = 1: lawless at witness (1, 2).
    LAWLESS = {"bottom": 0, "top": 2, "meet": [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
               "join": [[0, 1, 2], [1, 1, 1], [2, 2, 2]]}
    LAW_ERROR = "error: {}: join-commutativity violated at witness (1, 2)\n"

    @pytest.fixture
    def parses(self, monkeypatch):
        """Paths passed to the parse step, one entry per parse."""
        seen = []
        decode = io_module._decode

        def parse(path, data):
            seen.append(path)
            return decode(path, data)

        monkeypatch.setattr(io_module, "_decode", parse)
        return seen

    def test_seven_verbs_parse_and_certify_once(self, chain3_file, w3_file, tmp_path,
                                                monkeypatch, capsys, parses):
        certified = []
        is_set_hom = lattice_module._is_set_hom

        def check(L, P):
            certified.append(L)
            return is_set_hom(L, P)

        monkeypatch.setattr(lattice_module, "_is_set_hom", check)
        rep = str(tmp_path / "rep.json")
        files = ["--lattice", chain3_file, "--pref", w3_file]
        for argv in (["validate", "--lattice", chain3_file], ["spectrum", "--lattice", chain3_file],
                     ["axioms", *files], ["dualize", *files], ["represent", *files, "--out", rep],
                     ["verify", *files, "--rep", rep], ["factor", *files, "--rep", rep]):
            assert main(argv) in (0, 1), argv
        L = io_module._last_lattice[1]
        assert parses.count(chain3_file) == 1
        assert sum(K is L for K in certified) == 1
        assert io_module.load_lattice(chain3_file) is L

    def test_equal_bytes_at_another_path_share_the_lattice(self, chain3_file, tmp_path, parses):
        copy = tmp_path / "copy.json"
        copy.write_bytes(pathlib.Path(chain3_file).read_bytes())
        assert io_module.load_lattice(chain3_file) is io_module.load_lattice(str(copy))
        assert parses == [chain3_file]

    def test_rewrite_of_equal_length_and_mtime_is_read(self, tmp_path, capsys, parses):
        b2, c4 = (lattice_to_dict(L) for L in (B2, chain(4)))
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps(b2))
        stamp = os.stat(path)
        assert len(run(["spectrum", "--lattice", str(path)], capsys)[1]["points"]) == 2
        path.write_text(json.dumps(c4))
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        assert os.stat(path).st_size == stamp.st_size
        assert len(run(["spectrum", "--lattice", str(path)], capsys)[1]["points"]) == 3
        assert parses == [str(path)] * 2

    def test_lawless_table_refused_on_every_load(self, w3_file, tmp_path, monkeypatch, capsys,
                                                 parses):
        """validate reads the table unvalidated and keeps it; every verb that
        needs a lattice still refuses it, axioms (which certifies nothing of
        its own) included."""
        scans = []
        scan = lattice_module._scan_laws
        monkeypatch.setattr(lattice_module, "_scan_laws", lambda L: scans.append(L) or scan(L))
        path = tmp_path / "lawless.json"
        path.write_text(json.dumps({"n": 3, **self.LAWLESS}))
        code, report = run(["validate", "--lattice", str(path)], capsys)
        assert code == 1 and not report["valid"]
        for argv in (["spectrum"], ["spectrum"], ["axioms", "--pref", w3_file]):
            assert main([*argv, "--lattice", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == self.LAW_ERROR.format(path)
        assert parses == [str(path)] and len(scans) == 4

    def test_size_check_before_law_check_on_every_load(self, tmp_path, capsys, parses):
        """A table that breaks a law and misstates n: every verb names n,
        since the field checks come before the law check, and a load that
        fails its field checks is not kept."""
        path = tmp_path / "both.json"
        path.write_text(json.dumps({"n": 7, **self.LAWLESS}))
        for _ in range(2):
            for verb in ("validate", "spectrum"):
                assert main([verb, "--lattice", str(path)]) == 2
                assert capsys.readouterr().err == (
                    f"error: {path}: bad lattice file: n: 7 is not the table size 3\n"
                )
        assert parses == [str(path)] * 4

    def test_lawless_table_kept_after_a_refused_load(self, tmp_path, capsys, parses):
        """A lawless table that parses is kept, though the load that parsed
        it refused it; the next load refuses it again, unparsed."""
        path = tmp_path / "lawless.json"
        path.write_text(json.dumps(self.LAWLESS))
        for _ in range(2):
            assert main(["spectrum", "--lattice", str(path)]) == 2
            assert capsys.readouterr() == ("", self.LAW_ERROR.format(path))
        assert parses == [str(path)]

    def test_reading_a_table_certifies_nothing(self, monkeypatch):
        """lattice_from_dict parses and checks the fields of a lawful table,
        and leaves its law certificate to load_lattice."""
        entered = []
        monkeypatch.setattr(io_module, "_certify", lambda L: entered.append("_certify"))
        monkeypatch.setattr(lattice_module, "_certify", lambda L: entered.append("_certify"))
        monkeypatch.setattr(lattice_module, "_is_set_hom",
                            lambda L, P: entered.append("birkhoff"))
        L = io_module.lattice_from_dict(lattice_to_dict(B2))
        assert entered == [] and "birkhoff" not in vars(L)

    def test_validating_load_certifies_on_miss_and_hit(self, chain3_file, monkeypatch, parses):
        """load_lattice is the one site that certifies a loaded lattice: once
        on a parse, once on a memo hit, and not at all without validate."""
        certified = []
        certify = io_module._certify
        monkeypatch.setattr(io_module, "_certify", lambda L: certified.append(L) or certify(L))
        L = io_module.load_lattice(chain3_file)
        assert certified == [L]
        assert io_module.load_lattice(chain3_file) is L and certified == [L, L]
        assert io_module.load_lattice(chain3_file, validate=False) is L
        assert certified == [L, L] and parses == [chain3_file]


class TestIntegerRange:
    """Every integer read from a file lies in the open range (-2**62, 2**62);
    one outside it exits 2 with a message, whichever verb reads it."""

    LIMIT = 2**62

    @pytest.mark.parametrize("value", [2**62, -2**62, 99999999999999999999999])
    def test_table_entry_refused(self, tmp_path, capsys, value):
        d = lattice_to_dict(CHAIN3)
        d["meet"][1][2] = value
        path = tmp_path / "big.json"
        path.write_text(json.dumps(d))
        assert main(["validate", "--lattice", str(path)]) == 2
        assert f"meet: {value} is outside the integer range" in capsys.readouterr().err

    def test_table_entry_inside_range_reaches_table_check(self, tmp_path, capsys):
        d = lattice_to_dict(CHAIN3)
        d["join"][1][2] = self.LIMIT - 1
        path = tmp_path / "big.json"
        path.write_text(json.dumps(d))
        assert main(["validate", "--lattice", str(path)]) == 2
        assert "join table entries out of range 0..2" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["axioms", "dualize", "represent", "verify"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_rank_on_both_sides_of_bound(self, chain3_file, tmp_path, capsys, verb, sign):
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps({"outcomes": 2, "sigma": {"0": [], "1": [1], "2": [0, 1]},
                                   "outcome_ranks": [1, 0]}))
        pref = tmp_path / "pref.json"
        args = [verb, "--lattice", chain3_file, "--pref", str(pref)]
        args += ["--rep", str(rep)] if verb == "verify" else []
        pref.write_text(json.dumps({"ranks": [0, sign * (self.LIMIT - 1), sign]}))
        assert main(args) in (0, 1)
        assert capsys.readouterr().err == ""
        pref.write_text(json.dumps({"ranks": [0, sign * self.LIMIT, sign]}))
        assert main(args) == 2
        assert f"ranks: {sign * self.LIMIT} is outside" in capsys.readouterr().err

    def test_dualize_most_negative_int64_rank_refused(self, chain3_file, tmp_path, capsys):
        pref = tmp_path / "pref.json"
        pref.write_text(json.dumps({"ranks": [0, -9223372036854775808, 1]}))
        assert main(["dualize", "--lattice", chain3_file, "--pref", str(pref)]) == 2
        assert "is outside the integer range" in capsys.readouterr().err

    @pytest.mark.parametrize("sign", [1, -1])
    def test_outcome_rank_on_both_sides_of_bound(self, chain3_file, w3_file, tmp_path,
                                                 capsys, sign):
        rep = tmp_path / "rep.json"
        args = ["verify", "--lattice", chain3_file, "--pref", w3_file, "--rep", str(rep)]
        for rank, code in ((sign * (self.LIMIT - 1), (0, 1)), (sign * self.LIMIT, (2,))):
            rep.write_text(json.dumps({"outcomes": 2, "sigma": {"0": [], "1": [1], "2": [0, 1]},
                                       "outcome_ranks": [rank, 0]}))
            assert main(args) in code
        assert "outcome_ranks: " in capsys.readouterr().err


class TestInternalError:
    """The lattimin program exits 3 with one line for a fault of its own,
    and 4 with one line when it runs out of memory; main lets the exception
    through to an in-process caller."""

    @pytest.fixture
    def failing_validate(self, monkeypatch):
        def fail(L):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "validate_laws", fail)

    def test_program_exits_3_with_one_line(self, chain3_file, failing_validate, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.entrypoint(["validate", "--lattice", chain3_file])
        assert exit_.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError: boom\n"

    def test_main_propagates_the_exception(self, chain3_file, failing_validate):
        with pytest.raises(RuntimeError, match="boom"):
            main(["validate", "--lattice", chain3_file])

    def test_memory_error_is_not_an_internal_error(self, chain3_file, monkeypatch, capsys):
        def fail(L):
            raise MemoryError

        monkeypatch.setattr(cli, "validate_laws", fail)
        with pytest.raises(SystemExit) as exit_:
            cli.entrypoint(["validate", "--lattice", chain3_file])
        assert exit_.value.code == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "out of memory\n"

    def test_program_out_of_memory_exits_4_with_one_line(self, tmp_path):
        """B12's down-set tables (4096 x 4096) do not fit in a child capped
        at the 256 MiB address space of a ladder rung."""
        path = tmp_path / "b12.json"
        path.write_text(json.dumps({"poset": {"n": 12, "covers": []}}))
        cap = 256 << 20
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=str(pathlib.Path(lattimin.__file__).parents[1]))
        env.pop("LM_LOG", None)
        done = subprocess.run(
            [sys.executable, "-m", "lattimin.cli", "spectrum", "--lattice", str(path)], env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 4 and done.stdout == ""
        assert done.stderr.startswith("out of memory: ") and done.stderr.count("\n") == 1

    def test_program_passes_main_codes_through(self, chain3_file, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.entrypoint(["validate", "--lattice", chain3_file])
        assert exit_.value.code == 0

    def test_main_leaves_the_root_logger_alone(self, chain3_file, monkeypatch):
        """Only the program sets up logging: an in-process caller's root
        logger keeps its handlers and its level."""
        root = logging.getLogger()
        monkeypatch.setattr(root, "handlers", [])  # as outside pytest's capture
        level = root.level
        try:
            assert main(["validate", "--lattice", chain3_file]) == 0
            assert root.handlers == [] and root.level == level
        finally:
            root.setLevel(level)

    def test_program_logs_the_traceback_under_lm_log_debug(self, chain3_file):
        child = (
            "import sys\n"
            "from lattimin import cli\n"
            "def fail(L):\n"
            "    raise RuntimeError('boom')\n"
            "cli.validate_laws = fail\n"
            "cli.entrypoint(['validate', '--lattice', sys.argv[1]])\n"
        )
        env = dict(os.environ, LM_LOG="debug",
                   PYTHONPATH=str(pathlib.Path(lattimin.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", child, chain3_file], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 3 and done.stdout == ""
        assert "DEBUG internal error\nTraceback (most recent call last):" in done.stderr
        assert done.stderr.endswith("RuntimeError: boom\ninternal error: RuntimeError: boom\n")


class TestUnwritableReport:
    """A report that cannot be written exits 2 with one line, from main and
    from the program alike."""

    @pytest.fixture(params=["missing-dir", "directory", "empty"])
    def out(self, request, tmp_path):
        return {"missing-dir": tmp_path / "missing" / "x.json", "directory": tmp_path,
                "empty": ""}[request.param]

    def test_main_exits_2(self, chain3_file, out, capsys):
        assert main(["validate", "--lattice", chain3_file, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write the report: [Errno ")
        assert captured.err.endswith(f"'{out}'\n") and captured.err.count("\n") == 1

    def test_program_exits_2(self, chain3_file, out, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.entrypoint(["spectrum", "--lattice", chain3_file, "--out", str(out)])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: cannot write the report:")


class TestOutFile:
    """--out writes the report over the file in place and cuts the file to
    the report's length: the bytes are stdout's, symlinks are followed, the
    mode is kept, and a file that is not regular is not cut."""

    @pytest.fixture
    def report(self, chain3_file, capsys):
        """spectrum's report on stdout; the bytes every --out must leave."""
        assert main(["spectrum", "--lattice", chain3_file]) == 0
        return capsys.readouterr().out.encode()

    def spectrum(self, chain3_file, out):
        return main(["spectrum", "--lattice", chain3_file, "--out", str(out)])

    def test_longer_file_cut_to_the_report(self, chain3_file, report, tmp_path):
        out = tmp_path / "r.json"
        out.write_bytes(random.Random(0).randbytes(100_000))
        assert self.spectrum(chain3_file, out) == 0
        assert out.read_bytes() == report

    def test_symlink_followed(self, chain3_file, report, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_bytes(b"x" * 5000)
        link.symlink_to(target)
        assert self.spectrum(chain3_file, link) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == report

    def test_mode_kept(self, chain3_file, report, tmp_path):
        out = tmp_path / "r.json"
        out.write_bytes(b"x" * 5000)
        out.chmod(0o600)
        assert self.spectrum(chain3_file, out) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert out.read_bytes() == report

    def test_new_file_under_the_umask(self, chain3_file, report, tmp_path):
        out = tmp_path / "r.json"
        old = os.umask(0o027)
        try:
            assert self.spectrum(chain3_file, out) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert out.read_bytes() == report

    def test_dev_null_not_cut(self, chain3_file, capsys):
        # ftruncate on /dev/null raises EINVAL
        assert self.spectrum(chain3_file, os.devnull) == 0
        assert capsys.readouterr().err == ""

    def test_opened_once_without_truncation(self, chain3_file, tmp_path, monkeypatch):
        out, opened, real_open = str(tmp_path / "r.json"), [], os.open

        def recording_open(path, flags, *args, **kwargs):
            opened.append((os.fspath(path), flags))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        assert self.spectrum(chain3_file, out) == 0
        flags = [f for path, f in opened if path == out]
        assert flags == [os.O_WRONLY | os.O_CREAT]  # no O_TRUNC

    def test_large_report_under_the_rung_cap(self, tmp_path):
        # 179,101 axiom-3 pairs under ranks 0..599 on the 600-chain, inside
        # the listing cap: a 6 MB report, written to --out and to stdout in a
        # child under the 256 MiB address-space cap of a ladder rung, so a
        # writer that copies the report over and over ends in MemoryError
        # rather than exhausting the machine.
        n = 600
        lattice, pref, out = tmp_path / "c600.json", tmp_path / "w.json", tmp_path / "r.json"
        lattice.write_text(json.dumps(lattice_to_dict(chain(n))))
        pref.write_text(json.dumps({"ranks": list(range(n))}))
        child = (
            "import sys\n"
            "from lattimin.cli import main\n"
            "argv = ['axioms', '--lattice', sys.argv[1], '--pref', sys.argv[2]]\n"
            "print(main(argv + ['--out', sys.argv[3]]), main(argv), file=sys.stderr)\n"
        )
        cap = 256 << 20
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=str(pathlib.Path(lattimin.__file__).parents[1]))
        env.pop("LM_LOG", None)
        done = subprocess.run(
            [sys.executable, "-c", child, str(lattice), str(pref), str(out)], env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            capture_output=True, timeout=120,
        )
        assert done.stderr == b"1 1\n", done.stderr.decode()[-2000:]
        assert out.read_bytes() == done.stdout
        assert len(json.loads(done.stdout)["axiom3"]) == (n - 1) * (n - 2) // 2 >= 2**17


class TestFuzz:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["--trials", "-3"], "must not be negative"),
            (["--max-size", "0"], "invalid choice: 0"),
            (["--max-size", "-1"], "invalid choice: -1"),
            (["--max-size", "7"], "invalid choice: 7"),
            (["--seed", "-1"], "must not be negative"),
            (["--seed", str(2**64)], f"must be below 2**64, got {2**64}"),
            (["--seed", "1.5"], "'1.5' is not an integer"),
        ],
        ids=["negative-trials", "max-size-0", "max-size-negative", "max-size-7",
             "negative-seed", "seed-2**64", "fractional-seed"],
    )
    def test_bad_arguments_refused(self, args, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["fuzz", "--trials", "0", *args])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_largest_seed_accepted(self, capsys):
        code, report = run(["fuzz", "--seed", str(2**64 - 1), "--trials", "1",
                            "--max-size", "2"], capsys)
        assert code == 0 and report["seed"] == 2**64 - 1

    def test_small_run_passes_and_reproduces(self, tmp_path, capsys):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["fuzz", "--seed", "7", "--trials", "5", "--max-size", "3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["failures"] == []
        assert report["pass_counts"]["duality_derived"] == 5

    def test_failure_records_derived_seed_and_size(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "verify_representation", lambda L, W, R: (False, None))
        out = tmp_path / "fuzz.json"
        args = ["fuzz", "--seed", "7", "--trials", "3", "--max-size", "3"]
        assert main(args + ["--out", str(out)]) == 1
        failures = json.loads(out.read_text())["failures"]
        assert [(f["trial"], f["check"]) for f in failures] == [
            (trial, "synthesis_verifies") for trial in range(3)
        ]
        for f in failures:
            assert f["seed"] == 7 * 1_000_003 + f["trial"]
            assert f["n"] == random_distributive_lattice(3, f["seed"]).n

    def test_factoring_check_refutes_a_finer_synthesis(self, tmp_path, monkeypatch):
        """The factoring check factors the representation that generated the
        order through the synthesized one, so a synthesis finer than θ*, here
        the one over the fine congruence β′, is refuted on some trials."""
        def fine_synthesis(L, W):
            C = congruence_beta_prime(L, zero_class(L, W).members)
            return representation_by_quotient(L, W, C)

        monkeypatch.setattr(cli, "minimal_representation", fine_synthesis)
        out = tmp_path / "fuzz.json"
        assert main(["fuzz", "--seed", "42", "--trials", "30", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert {f["check"] for f in report["failures"]} == {"factoring"}
        assert report["pass_counts"]["synthesis_verifies"] == 30

    def test_seed42_report_matches_golden_file(self, tmp_path, capsys):
        out = tmp_path / "fuzz.json"
        assert main(["fuzz", "--seed", "42", "--trials", "100", "--out", str(out)]) == 0
        golden = GOLDEN / "fuzz_seed42_trials100.json"
        assert out.read_bytes() == golden.read_bytes()


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.text()
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(st.integers(min_value=-(2**70), max_value=2**70) | st.booleans(), max_size=6)
    | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=30,
)


class TestDumps:
    """The report emitter writes the bytes of json.dumps(indent=2,
    sort_keys=True)."""

    @staticmethod
    def expected(value):
        return json.dumps(value, indent=2, sort_keys=True)

    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_matches_json_dumps(self, value):
        assert cli._dumps(value) == self.expected(value)

    def test_matches_json_dumps_on_every_golden_report(self):
        """Each golden file, and every report and value nested in it."""

        def values(v):
            yield v
            for child in v.values() if isinstance(v, dict) else v if isinstance(v, list) else ():
                yield from values(child)

        for path in sorted(GOLDEN.glob("*.json")):
            doc = json.loads(path.read_text())
            assert cli._dumps(doc) + "\n" == path.read_text(), path.name
            for value in values(doc):
                assert cli._dumps(value) == self.expected(value), path.name

    def test_tuples_and_bools(self):
        for value in ((1, True, [False, 0]), {"b": (), "a": (True,)}, [(-(2**64), 0)]):
            assert cli._dumps(value) == self.expected(value)
