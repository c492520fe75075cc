"""Workload input pools, the jobs that run them, and the checks of their answers.

A pool is a list of rounds of inputs drawn from the seed.  The shape of a
round (lattice sizes, point counts, share of rejected inputs) is fixed per
workload and only the random structure varies with the seed, so a round
costs about the same on every seed.  A job runs one input.

The checks here never call lattimin: they compare the reports with the known
answers from ``gen`` and with direct evaluations of the definitions.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

from . import gen

# A round holds one input per slot.  A slot fixes the input's size and the kind of
# order: all points as outcomes (ALL), or fewer outcomes with axiom 3 holding
# (FEW).  Slots repeat so that the median and the 90th percentile of job
# latency fall inside a class of like inputs rather than on the gap between
# two classes, where they would jump between runs.
ALL, FEW = True, False
# small-batch slots are (poset points, lattice elements).  Each lattice is
# built once and runs ORDERS_PER_LATTICE maximin orders, alternately ALL and
# FEW, each also perturbed to break axiom 1.  p50 falls among the reject
# jobs on B4 (4, 16) and p90 among the accept jobs on B5 (5, 32): a Boolean
# slot has one lattice, so only the orders vary and the class is tight.
SMALL_SLOTS = [(2, 3), (2, 4), (3, 5), (3, 6), (3, 8), (4, 8), (4, 10), (4, 16), (4, 16),
               (4, 16), (4, 16), (5, 20), (6, 24), (5, 32), (5, 32), (5, 32), (6, 48)]
ORDERS_PER_LATTICE = 4
# cli slots are (shape, a, b, kind).  WIDE: down-set lattice of a sparse
# a-point poset with b elements, so few prime filters; validate_laws and the
# spectrum dominate.  TALL: ordinal sum of a levels of antichains, b of them
# with two elements, so nearly as many prime filters as elements; the
# literal cross-checks and the spectrum dominate.  With CORRUPT law-broken
# tables a round has 20 jobs: p50 falls among the TALL (16, 4)s and p90 among
# the WIDE B6s (6, 64).
WIDE, TALL = "wide", "tall"
CLI_SLOTS = [(WIDE, 6, 16, ALL), (WIDE, 5, 24, FEW), (WIDE, 5, 32, ALL), (WIDE, 5, 32, ALL),
             (WIDE, 7, 40, ALL), (WIDE, 6, 48, FEW), (WIDE, 6, 64, ALL), (WIDE, 6, 64, ALL),
             (WIDE, 6, 64, ALL), (TALL, 8, 2, ALL), (TALL, 10, 2, FEW), (TALL, 12, 3, ALL),
             (TALL, 16, 4, FEW), (TALL, 16, 4, FEW), (TALL, 16, 4, FEW), (TALL, 16, 4, FEW),
             (TALL, 20, 5, ALL), (TALL, 24, 6, FEW)]
CORRUPT = 2  # law-corrupted WIDE tables per round, run through `validate` only

CLI_VERBS = ("validate", "spectrum", "axioms", "dualize", "represent", "verify", "factor")


def poset_with(k: int, n: int, rng: random.Random) -> gen.Lattice:
    """A random poset on k points whose down-set lattice has exactly n elements."""
    for _ in range(100_000):
        down = gen.random_poset(k, rng, rng.uniform(0.05, 0.7))
        masks = gen.downsets(down)
        if len(masks) == n:
            return gen.Lattice(down, masks)
    raise ValueError(f"no {k}-point poset with {n} down-sets found")


def ordinal_with(levels: int, twos: int, rng: random.Random) -> gen.Lattice:
    sizes = [1] * levels
    for i in rng.sample(range(levels), twos):
        sizes[i] = 2
    return gen.Lattice(*gen.ordinal_sum(sizes))


@dataclass
class Input:
    """One job's input, its known answers, and (cli) its files."""

    L: gen.Lattice
    W: gen.Maximin | None = None
    ranks: list[int] | None = None  # the order the job runs (maybe perturbed)
    accept: bool = True  # False: the job must be rejected
    witness: tuple | None = None  # an expected violation (axiom-1 pair or law name)
    alt: dict | None = None  # another representation of W, to factor
    axiom3: list | None = None
    table: dict | None = None  # the lattice as the CLI reads it (maybe corrupted)
    files: dict = field(default_factory=dict)
    api: tuple | None = None  # small-batch: lattimin objects built in set-up


def small_pool(rng: random.Random, slots, rounds: int, lm) -> list[list[Input]]:
    """Lattices built once through lattimin, each with accept and reject orders."""
    pool = []
    for r in range(rounds):
        pool.append([])
        for s, (k, n) in enumerate(slots):
            L = poset_with(k, n, rng)
            meet, join = L.tables
            built = lm.build_lattice(meet, join, 0, L.n - 1)
            for o in range(ORDERS_PER_LATTICE):
                W = gen.factorable_maximin(L, rng, o % 2 == 0)
                alt = W.rep_dict(L, duplicate=rng.randrange(len(W.outcomes)))
                alt_obj = lm.Representation(
                    alt["outcomes"],
                    tuple(alt["sigma"][str(a)] for a in range(L.n)),
                    alt["outcome_ranks"],
                )
                bad, pair = gen.break_axiom1(L, W, rng)
                pool[-1].append(Input(L, W, W.ranks, True, None, alt,
                                      api=(built, lm.WeakOrder(W.ranks), alt_obj)))
                pool[-1].append(Input(L, W, bad, False, pair,
                                      api=(built, lm.WeakOrder(bad), None)))
    return pool


def cli_pool(rng: random.Random, slots, rounds: int, workdir: str) -> list[list[Input]]:
    """Inputs for the CLI workload, written as files under workdir."""
    pool = []
    for r in range(rounds):
        pool.append([])
        for shape, a, b, kind in slots:
            L = poset_with(a, b, rng) if shape == WIDE else ordinal_with(a, b, rng)
            W = gen.factorable_maximin(L, rng, kind)
            alt = W.rep_dict(L, duplicate=rng.randrange(len(W.outcomes)))
            pool[-1].append(Input(L, W, W.ranks, True, None, alt,
                                  gen.trivializer_clashes(L, W.ranks)))
        for c in range(CORRUPT):
            L = poset_with(*slots[c % len(slots)][1:3], rng)
            table, law = gen.corrupt(L.to_dict(), rng)
            pool[-1].append(Input(L, accept=False, witness=law, table=table))
        for s, item in enumerate(pool[-1]):
            d = os.path.join(workdir, "in", f"{r}-{s}")
            os.makedirs(d, exist_ok=True)
            item.files = {"lattice": os.path.join(d, "lattice.json")}
            write_json(item.files["lattice"], item.table or item.L.to_dict())
            if item.accept:
                item.files["pref"] = os.path.join(d, "pref.json")
                item.files["alt"] = os.path.join(d, "alt.json")
                write_json(item.files["pref"], {"ranks": item.ranks})
                write_json(item.files["alt"], item.alt)
    return pool


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj))


# ---------------------------------------------------------------- jobs


def small_job(item: Input, lm) -> bytes:
    """The property-test loop through the library API; returns the verdicts."""
    L, W, alt = item.api
    eq = lm.duality_equivalence_report(L, W)
    out = {"equivalence": [eq.axioms_hold, eq.roundtrip_agrees, eq.witness_matches]}
    if item.accept:
        R = lm.minimal_representation(L, W)
        out["rep"] = {
            "outcomes": R.outcome_count,
            "sigma": {str(a): sorted(s) for a, s in enumerate(R.sigma_map)},
            "outcome_ranks": list(R.outcome_ranks),
        }
        out["verified"] = list(lm.verify_representation(L, W, R))
        hom = lm.factor_check(L, W, alt, R)
        out["factor"] = list(getattr(hom, "mapping", ())) or None
    else:
        try:
            lm.minimal_representation(L, W)
            out["violations"] = None
        except lm.AxiomViolation as e:
            out["violations"] = {k: [list(t) for t in v] for k, v in e.violations.items()}
    return json.dumps(out, sort_keys=True).encode()


def cli_job(item: Input, main, outdir: str) -> bytes:
    """One input through every CLI verb in turn; returns codes and reports."""
    f = item.files
    lat = ["--lattice", f["lattice"]]
    pref = ["--pref", f["pref"]] if item.accept else []
    rep = os.path.join(outdir, "represent.json")
    extra = {"axioms": pref, "dualize": pref, "represent": pref,
             "verify": pref + ["--rep", rep], "factor": pref + ["--rep", f.get("alt", "")]}
    out = []
    for verb in CLI_VERBS if item.accept else ("validate",):
        path = os.path.join(outdir, verb + ".json")
        code = main([verb, *lat, *extra.get(verb, []), "--out", path])
        body = b""
        if code != 2:  # exit 2 writes no report
            with open(path, "rb") as fh:
                body = fh.read()
        out.append(b"%s %d %d\n" % (verb.encode(), code, len(body)) + body)
    return b"".join(out)


def split_cli(report: bytes):
    """(verb, exit code, report body) for each verb a CLI job ran."""
    pos = 0
    while pos < len(report):
        end = report.index(b"\n", pos)
        verb, code, size = report[pos:end].split()
        pos = end + 1 + int(size)
        yield verb.decode(), int(code), report[end + 1:pos]


# ---------------------------------------------------------------- checks


def rep_error(L: gen.Lattice, ranks, rep: dict) -> str | None:
    """Why `rep` is not a representation of `ranks` on L, or None.

    A representation maps bottom, top, meet and join to the empty set, all
    outcomes, intersection and union, and scoring each element by its worst
    outcome (empty = best) must give back the order.
    """
    s, r = rep["outcomes"], rep["outcome_ranks"]
    if len(r) != s:
        return "outcome_ranks length differs from outcomes"
    sig = []
    for a in range(L.n):
        xs = rep["sigma"][str(a)]
        if any(not 0 <= x < s for x in xs):
            return f"sigma({a}) names an unknown outcome"
        sig.append(sum(1 << x for x in set(xs)))
    if sig[0] != 0 or sig[-1] != (1 << s) - 1:
        return "sigma does not preserve the bounds"
    meet, join = L.tables
    for a in range(L.n):
        sa, ma, ja = sig[a], meet[a], join[a]
        for b in range(L.n):
            if sig[ma[b]] != sa & sig[b] or sig[ja[b]] != sa | sig[b]:
                return f"sigma is not a homomorphism at ({a},{b})"
    scores = [max((r[x] for x in range(s) if m >> x & 1), default=-1) for m in sig]
    if gen.dense(scores) != list(ranks):
        return "worst-outcome order differs from the preference"
    return None


def small_error(item: Input, report: bytes) -> str | None:
    out = json.loads(report)
    if item.accept:
        if out["equivalence"] != [True, True, True]:
            return f"equivalence {out['equivalence']} on an order satisfying the axioms"
        if out["verified"] != [True, None]:
            return f"verify gave {out['verified']}"
        if out["factor"] is None:
            return "factoring refuted"
        return rep_error(item.L, item.ranks, out["rep"])
    if out["equivalence"] != [False, False, False]:
        return f"equivalence {out['equivalence']} on an order breaking axiom 1"
    v = out["violations"]
    if v is None or list(item.witness) not in v.get("axiom1", []):
        return f"axiom-1 violation {item.witness} not reported"
    return None


def cli_error(item: Input, report: bytes) -> str | None:
    parts = {verb: (code, json.loads(body)) for verb, code, body in split_cli(report)}
    if not item.accept:
        code, out = parts["validate"]
        laws = [v["law"] for v in out["violations"]]
        if code != 1 or out["valid"] or item.witness not in laws:
            return f"corrupted table: exit {code}, laws {laws}, expected {item.witness}"
        return None
    for verb in CLI_VERBS:
        code, _ = parts[verb]
        want = 1 if verb == "axioms" and item.axiom3 else 0
        if code != want:
            return f"{verb} exited {code}, expected {want}"
    L, W = item.L, item.W
    if parts["validate"][1] != {"valid": True, "violations": []}:
        return "validate found a violation in a lawful table"
    spec = parts["spectrum"][1]
    filters = L.prime_filters()
    of_filter = {F: p for p, F in filters.items()}
    points = [tuple(F) for F in spec["points"]]
    if sorted(points) != sorted(filters.values()):
        return "spectrum points are not the prime filters"
    for a in range(L.n):
        if spec["sigma"][str(a)] != [i for i, F in enumerate(points) if a in F]:
            return f"spectrum sigma({a}) disagrees with the points"
    ax = parts["axioms"][1]
    if ax["axiom1"] or ax["axiom2"] or ax["axiom3"] != [list(p) for p in item.axiom3]:
        return "axiom scan differs from the known answer"
    du = parts["dualize"][1]
    fwd = [W.forward[of_filter[F]] for F in points]
    if not du["agreement"] or du["counterexample"] is not None or du["forward_ranks"] != fwd:
        return "dualize differs from the known forward order"
    err = rep_error(L, item.ranks, parts["represent"][1])
    if err:
        return "represent: " + err
    if parts["verify"][1] != {"verified": True, "counterexample": None}:
        return "verify rejected the synthesized representation"
    fa = parts["factor"][1]
    images = lambda rep: len({tuple(sorted(s)) for s in rep["sigma"].values()})  # noqa: E731
    if not (fa["factored"] and fa["surjective"] and fa["valid_hom"]):
        return "factor refused a duplicated-outcome representation"
    if len(fa["hom"]) != images(item.alt) or set(fa["hom"]) != set(range(images(parts["represent"][1]))):
        return "factoring map has the wrong domain or image"
    return None
