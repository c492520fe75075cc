import json
import pathlib
import random

import pytest

from lattimin import cli, io as io_module
from lattimin.cli import main
from lattimin.fixtures import CHAIN3, M3, N5, chain
from lattimin.io import lattice_to_dict, representation_to_dict
from lattimin.lattice import Lattice, Poset, downset_lattice
from lattimin.preference import WeakOrder
from lattimin.representation import derive_pref_from_rep, minimal_representation
from lattimin.spectrum import enumerate_prime_filters, finite_topology_report
from lattimin.testkit import (
    all_posets,
    duplicate_outcome,
    random_distributive_lattice,
    random_poset,
    random_representation,
    random_weak_order,
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
        golden = GOLDEN / "cli_reports.json"
        assert pipeline_reports(tmp_path) == golden.read_bytes()

    def test_golden_cases_cover_fallback_refutation_and_posets(self):
        cases = json.loads((GOLDEN / "cli_reports.json").read_text())
        assert len(cases) == 20
        exits = [c["exit"] for c in cases]
        ax3_broken = [c for c in cases if c["axioms"]["axiom3"]
                      and c["exit"]["represent"] == 0]
        assert len(ax3_broken) >= 5  # the fine-congruence fallback
        assert sum(e["factor"] == 1 for e in exits) >= 3  # refutations
        assert sum(e["factor"] == 0 for e in exits) >= 8
        assert sum(e["represent"] == 1 for e in exits) >= 3  # axiom violations
        assert sum(c["case"].startswith("poset-") for c in cases) >= 5
        assert any("-n128-" in c["case"] for c in cases)


# (format, lattice source, order source) per golden case.  "derived" orders
# come from random_representation(L, seed), which is also the factor input;
# "dup" factors a duplicated outcome of the minimal representation; "random"
# orders break axiom 1.  The derived orders of seeds 7..93 and of P8 (the
# down-sets of a 3-chain beside 5 points, 128 elements) break axiom 3;
# factor refutes 38, 61, 84, 93 and P8.
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


def pipeline_reports(tmp_path) -> bytes:
    """Exit code and report of `lattimin axioms`, `dualize`, `represent` and
    `factor` on every pipeline case, as one JSON document; a refused input
    (exit 2) has a null report."""
    out = []
    for name, lattice, ranks, rep in pipeline_inputs():
        files = {}
        for key, doc in (("lattice", lattice), ("pref", {"ranks": ranks}), ("rep", rep)):
            files[key] = tmp_path / f"{name}.{key}.json"
            files[key].write_text(json.dumps(doc))
        case = {"case": name, "exit": {}}
        for verb in ("axioms", "dualize", "represent", "factor"):
            report = tmp_path / f"{name}.{verb}.out.json"
            argv = [verb, "--lattice", str(files["lattice"]), "--pref", str(files["pref"])]
            if verb == "factor":
                argv += ["--rep", str(files["rep"])]
            code = main(argv + ["--out", str(report)])
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
        assert capsys.readouterr().err == f"error: labels: {message}\n"

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
        assert capsys.readouterr().err == "error: posets capped at 16 elements, got 1500\n"


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

        load = io_module.json.load

        def parse(fh):
            if fh.name == str(path):
                pytest.fail("an over-budget file was parsed")
            return load(fh)

        monkeypatch.setattr(io_module.json, "load", parse)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: {budget + 1} bytes, over the input budget of {budget}\n"
        )


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
    """The lattimin program exits 3 with one line for a fault of its own;
    main lets the exception through to an in-process caller."""

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
        with pytest.raises(MemoryError):
            cli.entrypoint(["validate", "--lattice", chain3_file])
        assert "internal error" not in capsys.readouterr().err

    def test_program_passes_main_codes_through(self, chain3_file, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.entrypoint(["validate", "--lattice", chain3_file])
        assert exit_.value.code == 0


class TestUnwritableReport:
    """A report that cannot be written exits 2 with one line, from main and
    from the program alike."""

    @pytest.fixture(params=["missing-dir", "directory"])
    def out(self, request, tmp_path):
        return tmp_path / "missing" / "x.json" if request.param == "missing-dir" else tmp_path

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


class TestFuzz:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["--trials", "-3"], "must not be negative"),
            (["--max-size", "0"], "invalid choice: 0"),
            (["--max-size", "-1"], "invalid choice: -1"),
            (["--max-size", "7"], "invalid choice: 7"),
        ],
        ids=["negative-trials", "max-size-0", "max-size-negative", "max-size-7"],
    )
    def test_bad_arguments_refused(self, args, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["fuzz", "--trials", "0", *args])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

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

    def test_seed42_report_matches_golden_file(self, tmp_path, capsys):
        out = tmp_path / "fuzz.json"
        assert main(["fuzz", "--seed", "42", "--trials", "100", "--out", str(out)]) == 0
        golden = GOLDEN / "fuzz_seed42_trials100.json"
        assert out.read_bytes() == golden.read_bytes()
