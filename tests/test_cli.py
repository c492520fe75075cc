import json
import pathlib

import pytest

from lattimin.cli import main
from lattimin.fixtures import CHAIN3, M3
from lattimin.io import lattice_to_dict

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

    def test_seed42_report_matches_golden_file(self, tmp_path, capsys):
        out = tmp_path / "fuzz.json"
        assert main(["fuzz", "--seed", "42", "--trials", "100", "--out", str(out)]) == 0
        golden = GOLDEN / "fuzz_seed42_trials100.json"
        assert out.read_bytes() == golden.read_bytes()
