"""The benchmark's own tests.

Run from the repository root:  python3 -m pytest -q perfbench/tests

The known-answer tests compare the generators with brute-force scans of the
definitions written out here, independent of both lattimin and the fast
checks in perfbench.jobs.  The smoke tests run every workload at a tiny size.
"""

import itertools
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT]

from perfbench import gen, jobs  # noqa: E402

def broken_laws(t) -> set:
    """Every bounded-distributive-lattice law some triple of elements breaks."""
    n, M, J, bot, top = t["n"], t["meet"], t["join"], t["bottom"], t["top"]
    bad = set()
    for a, b in itertools.product(range(n), repeat=2):
        if M[a][b] != M[b][a]:
            bad.add("meet-commutativity")
        if J[a][b] != J[b][a]:
            bad.add("join-commutativity")
        if J[a][M[a][b]] != a:
            bad.add("join-absorption")
        if M[a][J[a][b]] != a:
            bad.add("meet-absorption")
        for c in range(n):
            if M[M[a][b]][c] != M[a][M[b][c]]:
                bad.add("meet-associativity")
            if J[J[a][b]][c] != J[a][J[b][c]]:
                bad.add("join-associativity")
            if M[a][J[b][c]] != J[M[a][b]][M[a][c]]:
                bad.add("meet-over-join-distributivity")
            if J[a][M[b][c]] != M[J[a][b]][J[a][c]]:
                bad.add("join-over-meet-distributivity")
    if any(M[bot][a] != bot for a in range(n)):
        bad.add("bottom-bound")
    if any(J[top][a] != top for a in range(n)):
        bad.add("top-bound")
    return bad


def leq(t, a, b):
    return t["meet"][a][b] == a


def axiom1_pairs(t, r):
    """(a, b) with a <= b but a ranked strictly worse than b."""
    n = t["n"]
    return [(a, b) for a in range(n) for b in range(n) if leq(t, a, b) and r[a] > r[b]]


def axiom2_triples(t, r):
    """(a, a', b) with a and a' strictly better than b but a | a' not."""
    n = t["n"]
    return [(a, c, b) for a in range(n) for c in range(n) for b in range(n)
            if r[a] < r[b] and r[c] < r[b] and not r[t["join"][a][c]] < r[b]]


def axiom3_pairs(t, r):
    n = t["n"]
    triv = [frozenset(c for c in range(n) if r[t["meet"][a][c]] == r[t["bottom"]])
            for a in range(n)]
    return [(a, b) for a in range(n) for b in range(a + 1, n)
            if triv[a] == triv[b] and r[a] != r[b]]


def prime_filters(t):
    """Every proper nonempty up-closed, meet-closed, join-prime subset."""
    n = t["n"]
    out = []
    for mask in range(1, (1 << n) - 1):
        S = {i for i in range(n) if mask >> i & 1}
        if (all(b in S for a in S for b in range(n) if leq(t, a, b))
                and all(t["meet"][a][b] in S for a in S for b in S)
                and all(a in S or b in S for a in range(n) for b in range(n)
                        if t["join"][a][b] in S)):
            out.append(tuple(sorted(S)))
    return sorted(out)


def literal_order(rep, n):
    """a >= b iff every outcome of a beats some outcome of b (forall-exists)."""
    r, sig = rep["outcome_ranks"], rep["sigma"]
    return [[all(any(r[x] <= r[y] for y in sig[str(b)]) for x in sig[str(a)])
             for b in range(n)] for a in range(n)]


def small_lattices(seed=0, count=40):
    rng = random.Random(seed)
    out = [gen.boolean(3), gen.chain(5), jobs.ordinal_with(4, 2, rng)]
    while len(out) < count:  # n <= 12 keeps the 2^n prime-filter scan quick
        down = gen.random_poset(rng.randint(2, 4), rng, rng.random())
        if len(gen.downsets(down)) <= 12:
            out.append(gen.Lattice(down, gen.downsets(down)))
    return out


@pytest.mark.parametrize("L", small_lattices())
def test_generated_lattice_known_answers(L):
    rng = random.Random(L.n)
    t = L.to_dict()
    assert broken_laws(t) == set()
    assert sorted(L.prime_filters().values()) == prime_filters(t)
    table, law = gen.corrupt(t, rng)
    assert law in broken_laws(table)

    for all_outcomes in (True, False):
        W = gen.factorable_maximin(L, rng, all_outcomes)
        r = W.ranks
        assert axiom1_pairs(t, r) == [] and axiom2_triples(t, r) == []
        assert gen.trivializer_clashes(L, r) == axiom3_pairs(t, r)
        assert all_outcomes or axiom3_pairs(t, r) == []
        # forward order: a prime filter's rank is its best member's rank
        filters = L.prime_filters()
        best = gen.dense([min(r[a] for a in filters[p]) for p in range(L.points)])
        assert [W.forward[p] for p in range(L.points)] == best
        # roundtrip: an element's worst point reproduces its rank (bottom aside)
        fwd = [W.forward[p] for p in range(L.points)]
        worst = [max(fwd[p] for p in range(L.points) if a in filters[p]) for a in range(1, L.n)]
        assert gen.dense(worst) == gen.dense(r[1:])
        for dup in (None, 0):
            rep = W.rep_dict(L, dup)
            assert jobs.rep_error(L, r, rep) is None
            rel = literal_order(rep, L.n)
            assert rel == [[r[a] <= r[b] for b in range(L.n)] for a in range(L.n)]

        bad, pair = gen.break_axiom1(L, W, rng)
        assert pair[0] != 0 and pair in axiom1_pairs(t, bad)


def test_rep_check_rejects_wrong_representations():
    L = gen.boolean(3)
    W = gen.factorable_maximin(L, random.Random(1), True)
    rep = W.rep_dict(L)
    worse = dict(rep, outcome_ranks=[x + (i == 0) * 5 for i, x in enumerate(rep["outcome_ranks"])])
    assert jobs.rep_error(L, W.ranks, worse) is not None
    torn = json.loads(json.dumps(rep))
    torn["sigma"]["1"] = []
    assert jobs.rep_error(L, W.ranks, torn) is not None


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["small-batch", "cli"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_repeatable(workload, trace):
    args = ["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--smoke"]
    first, second = run(*args), run(*args)
    assert first.returncode == 0, first.stderr
    result = json.loads(first.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    digests = lambda out: [x for x in out.splitlines() if x.startswith("digest")]  # noqa: E731
    assert digests(first.stdout) and digests(first.stdout) == digests(second.stdout)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "cli", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
