"""End-to-end acceptance checks.

Each test exercises one release criterion, prints a single PASS/FAIL line,
and enforces the criterion's runtime budget.  The PASS/FAIL lines bypass
pytest's capture, so they show up in any run.
"""

import random
import time

from lattimin import (
    LatticeHom,
    WeakOrder,
    check_axiom1,
    check_axiom2,
    check_axiom3,
    check_hom,
    derive_pref_from_rep,
    downset_lattice,
    dual_forward,
    enumerate_prime_filters,
    factor_check,
    finite_topology_report,
    minimal_representation,
    duality_equivalence_report,
    verify_representation,
)
from lattimin.cli import main
from lattimin.preference import axioms12_hold
from lattimin.testkit import (
    derived_weak_order,
    random_distributive_lattice,
    random_representation,
    random_weak_order,
)

from fixtures import B1, B2, B3, CHAIN2, CHAIN3, principal
from oracles import (
    all_posets,
    duplicate_outcome,
    enumerate_weak_orders,
    join_irreducibles,
    literal_dominance,
)


def _report(capsys, num, ok, elapsed, budget, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():  # show the line even under pytest capture
        print(f"criterion {num}: {verdict} ({elapsed:.2f}s) {detail}", flush=True)
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s >= {budget}s"


def _full_ranks(L, nz_ranks):
    """Extend a rank vector over the non-bottom elements to all of L.

    The bottom element gets the worst rank; none of the checked conditions
    look at it, so any value would do.
    """
    worst = max(nz_ranks, default=0) + 1
    it = iter(nz_ranks)
    return WeakOrder(
        tuple(worst if a == L.bottom else next(it) for a in range(L.n))
    )


def test_criterion_1_golden_three_chain(capsys):
    t0 = time.perf_counter()
    S = enumerate_prime_filters(CHAIN3)
    ok = [sorted(F) for F in S.points] == [[2], [1, 2]]
    top = finite_topology_report(S)
    ok = ok and [sorted(o) for o in top.open_sets] == [[], [1], [0, 1]]
    ok = ok and not top.hausdorff
    singleton = frozenset({1})
    ok = ok and not top.basis_closed[top.open_sets.index(singleton)]
    elapsed = time.perf_counter() - t0
    _report(capsys, 1, ok, elapsed, 1.0, "three-chain spectrum and Sierpinski topology")


def test_criterion_2_duality_equivalence_exhaustive(capsys):
    t0 = time.perf_counter()
    rng = random.Random(2026)
    checked = discrepancies = 0
    for size in (1, 2, 3):
        for P in all_posets(size):
            L = downset_lattice(P)
            k = L.n - 1
            if k <= 5:
                orders = enumerate_weak_orders(k)
            else:
                orders = (random_weak_order(k, rng) for _ in range(10_000))
            for nz_ranks in orders:
                W = _full_ranks(L, nz_ranks)
                if not duality_equivalence_report(L, W).equivalent:
                    discrepancies += 1
                checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        2,
        discrepancies == 0,
        elapsed,
        120.0,
        f"three-way duality equivalence on {checked} (lattice, order) pairs",
    )


def test_criterion_3_derived_orders_satisfy_axioms(capsys):
    t0 = time.perf_counter()
    failures = 0
    for seed in range(1000):
        L = random_distributive_lattice(5, seed)
        W = derive_pref_from_rep(random_representation(L, seed))
        if check_axiom1(L, W) or check_axiom2(L, W):
            failures += 1
    elapsed = time.perf_counter() - t0
    _report(capsys, 3, failures == 0, elapsed, 60.0, "1000 derived orders pass axioms 1-2")


def test_criterion_4_boolean_orders_pass_congruence_axiom(capsys):
    t0 = time.perf_counter()
    failures = checked = 0
    for L in (B1, B2):
        for ranks in enumerate_weak_orders(L.n):
            W = WeakOrder(ranks)
            if axioms12_hold(L, W):
                checked += 1
                if check_axiom3(L, W):
                    failures += 1
    # uniform rank vectors on 8 elements almost never pass the premise, so
    # sample orders derived from random representations instead; those satisfy
    # the first two axioms by construction
    for seed in range(5000):
        W = derived_weak_order(B3, seed)
        if axioms12_hold(B3, W):
            checked += 1
            if check_axiom3(B3, W):
                failures += 1
    ok = failures == 0 and checked >= 5000
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        4,
        ok,
        elapsed,
        60.0,
        f"axioms 1-2 imply axiom 3 on Boolean algebras ({checked} orders)",
    )


def test_criterion_5_synthesis_and_factoring(capsys):
    t0 = time.perf_counter()
    failures = 0
    for seed in range(500):
        rng = random.Random(seed)
        L = random_distributive_lattice(5, seed)
        W = derived_weak_order(L, seed + 10_000)
        R_min = minimal_representation(L, W)
        ok, _ = verify_representation(L, W, R_min)
        if not ok:
            failures += 1
            continue
        for _ in range(3):
            if R_min.outcome_count == 0:
                alt = R_min
            else:
                alt = duplicate_outcome(R_min, rng.randrange(R_min.outcome_count))
            result = factor_check(L, W, alt, R_min)
            if not (
                isinstance(result, LatticeHom)
                and check_hom(result)
                and set(result.mapping) == set(range(result.target.n))
            ):
                failures += 1
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        5,
        failures == 0,
        elapsed,
        120.0,
        "500 synthesized representations verify and absorb alternatives",
    )


def test_criterion_6_irreducible_filter_bijection(capsys):
    t0 = time.perf_counter()
    failures = 0
    lattices = [CHAIN2, CHAIN3, B1, B2, B3] + [
        random_distributive_lattice(6, seed) for seed in range(1000)
    ]
    for L in lattices:
        points = set(enumerate_prime_filters(L).points)
        irr = join_irreducibles(L)
        images = {frozenset(principal(L, j, up=True)) for j in irr}
        if len(points) != len(irr) or images != points:
            failures += 1
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        6,
        failures == 0,
        elapsed,
        60.0,
        f"irreducible/prime-filter bijection on {len(lattices)} lattices",
    )


def test_criterion_7_fast_paths_match_literal_formulas(capsys):
    t0 = time.perf_counter()
    rng = random.Random(7)
    queries = mismatches = 0
    while queries < 5000:  # worst-outcome reduction vs literal formula
        L = random_distributive_lattice(5, rng.randrange(1 << 30))
        R = random_representation(L, rng.randrange(1 << 30))
        derived = derive_pref_from_rep(R)
        literal = literal_dominance(R.sigma_map, R.outcome_ranks)
        for _ in range(min(50, 5000 - queries)):
            a, b = rng.randrange(L.n), rng.randrange(L.n)
            if literal[a][b] != derived.weakly_prefers(a, b):
                mismatches += 1
            queries += 1
    while queries < 10_000:  # best-member reduction vs literal formula
        L = random_distributive_lattice(5, rng.randrange(1 << 30))
        S = enumerate_prime_filters(L)
        W = WeakOrder(random_weak_order(L.n, rng))
        fwd = dual_forward(L, S, W)  # raises internally on any disagreement
        # the best member under W is the worst under -W, so point j is
        # dominated on negated ranks exactly when point i is weakly preferred
        literal = literal_dominance(S.points, [-r for r in W.ranks])
        p = len(S.points)
        for _ in range(min(50, 10_000 - queries)):
            i, j = rng.randrange(p), rng.randrange(p)
            if literal[j][i] != fwd.weakly_prefers(i, j):
                mismatches += 1
            queries += 1
    elapsed = time.perf_counter() - t0
    _report(capsys, 7, mismatches == 0, elapsed, 60.0, f"{queries} dual-route queries agree")


def test_criterion_8_fuzz_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["fuzz", "--seed", "42", "--trials", "100"]
    code1 = main(args + ["--out", str(a)])
    code2 = main(args + ["--out", str(b)])
    capsys.readouterr()
    ok = code1 == 0 and code2 == 0 and a.read_bytes() == b.read_bytes()
    elapsed = time.perf_counter() - t0
    _report(capsys, 8, ok, elapsed, 120.0, "fuzz --seed 42 --trials 100 is byte-identical")
