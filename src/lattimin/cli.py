"""Batch front end: load lattice/preference/representation files, run checks
and synthesis, emit deterministic JSON reports.

Exit codes: 0 success/agreement, 1 check failure (violations written to the
report), 2 malformed input or a report that cannot be written, 3 internal
error, 4 out of memory (3 and 4 from entrypoint only).
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import stat
import sys
from json.encoder import encode_basestring_ascii as encode_str

from . import __version__
from .duality import roundtrip_check, duality_equivalence_report
from .errors import AxiomViolation, LattiminError, about
from .io import (
    load_lattice,
    load_preference,
    load_representation,
    representation_to_dict,
    spectrum_to_dict,
)
from .lattice import check_hom, validate_laws
from .preference import WeakOrder, check_axiom1, check_axiom2, check_axiom3, axioms12_hold
from .representation import (
    Refutation,
    derive_pref_from_rep,
    factor_check,
    minimal_representation,
    verify_representation,
)
from .spectrum import enumerate_prime_filters
from .testkit import (
    MAX_POSET_SIZE,
    derived_weak_order,
    random_distributive_lattice,
    random_representation,
    random_weak_order,
)

import random

log = logging.getLogger("lattimin")

_LOG_LEVELS = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

FUZZ_CHECKS = (
    "duality_derived",
    "duality_random",
    "derived_axioms",
    "synthesis_verifies",
    "factoring",
)


def _setup_logging():
    level = _LOG_LEVELS.get(os.environ.get("LM_LOG", "quiet"), logging.ERROR)
    logging.basicConfig(level=level, format="%(levelname)s %(message)s")


def _dumps(value, pad="\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, at C speed:
    with an indent json falls back to its pure-Python encoder, so only the
    layout is written here.  A list of exact ints (not bools) is one join;
    every key (a str in every report) goes to the encoder json.dumps uses for
    a str, and every other scalar to json.dumps."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        fields = (inner + encode_str(k) + ": " + _dumps(v, inner) for k, v in sorted(value.items()))
        return "{" + ",".join(fields) + pad + "}"
    if isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) == {int}:
            return "[" + inner + ("," + inner).join(map(str, value)) + pad + "]"
        return "[" + ",".join(inner + _dumps(v, inner) for v in value) + pad + "]"
    return json.dumps(value)


def _write_all(fd, data):
    """os.write until data is written whole: one write may take less."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _emit(report, out_path):
    """The report and a newline, to the file out_path, or to stdout if it is
    None.  The newline is written on its own, so a large report is held
    once as text and once as bytes, never copied to append it."""
    if out_path is None:
        sys.stdout.write(_dumps(report))
        sys.stdout.write("\n")
        return
    data = _dumps(report).encode()
    # Written over the old bytes, then cut to length: opening with O_TRUNC
    # cuts to zero first, and ext4 (auto_da_alloc) then flushes the file on
    # close, which stalls the next overwrite of the same path.
    fd = os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        _write_all(fd, data)
        _write_all(fd, b"\n")
        if stat.S_ISREG(os.fstat(fd).st_mode):  # /dev/null cannot be cut
            os.ftruncate(fd, len(data) + 1)
    finally:
        os.close(fd)


def cmd_validate(args):
    L = load_lattice(args.lattice, validate=False)
    issues = validate_laws(L)
    report = {
        "valid": not issues,
        "violations": [{"law": i.law, "witness": list(i.witness)} for i in issues],
    }
    return (0 if not issues else 1), report


def cmd_spectrum(args):
    L = load_lattice(args.lattice)
    S = enumerate_prime_filters(L)
    return 0, spectrum_to_dict(S)


def cmd_axioms(args):
    L = load_lattice(args.lattice)
    W = load_preference(args.pref, L)
    with about(args.pref):
        v1 = check_axiom1(L, W)
        v2 = check_axiom2(L, W)
        v3 = check_axiom3(L, W)
    # _dumps writes a tuple as a list, so the violations are not copied
    report = {"axiom1": v1, "axiom2": v2, "axiom3": v3, "satisfied": not (v1 or v2 or v3)}
    return (0 if report["satisfied"] else 1), report


def cmd_dualize(args):
    L = load_lattice(args.lattice)
    W = load_preference(args.pref, L)
    cert = roundtrip_check(L, W)
    report = {
        "agreement": cert.agreement,
        "forward_ranks": list(cert.forward.ranks),
        "counterexample": list(cert.counterexample) if cert.counterexample else None,
    }
    return (0 if cert.agreement else 1), report


def cmd_represent(args):
    L = load_lattice(args.lattice)
    W = load_preference(args.pref, L)
    try:
        with about(args.pref):
            R = minimal_representation(L, W)
    except AxiomViolation as e:
        return 1, {"error": "axiom-violation", "violations": e.violations}
    return 0, representation_to_dict(R)


def cmd_verify(args):
    L = load_lattice(args.lattice)
    W = load_preference(args.pref, L)
    R = load_representation(args.rep, L)
    ok, counterexample = verify_representation(L, W, R)
    report = {
        "verified": ok,
        "counterexample": list(counterexample) if counterexample else None,
    }
    return (0 if ok else 1), report


def cmd_factor(args):
    L = load_lattice(args.lattice)
    W = load_preference(args.pref, L)
    R_other = load_representation(args.rep, L)
    with about(args.pref):
        R_min = minimal_representation(L, W)
    with about(args.rep):
        result = factor_check(L, W, R_other, R_min)
    if isinstance(result, Refutation):
        return 1, {"factored": False, "witness": list(result.witness)}
    return 0, {
        "factored": True,
        "hom": list(result.mapping),
        "surjective": True,
        "valid_hom": check_hom(result),
    }


def _fuzz_trial(seed, max_size):
    """The size of the seeded lattice and the verdict of each FUZZ_CHECKS
    check on it, in order."""
    rng = random.Random(seed)
    L = random_distributive_lattice(max_size, seed)
    W_good = derived_weak_order(L, seed + 1)
    rep3 = duality_equivalence_report(L, W_good)
    rep3r = duality_equivalence_report(L, WeakOrder(random_weak_order(L.n, rng)))
    derived = derive_pref_from_rep(random_representation(L, seed + 2))
    R_min = minimal_representation(L, W_good)
    result = factor_check(L, W_good, random_representation(L, seed + 1), R_min)
    return L.n, (
        rep3.equivalent and rep3.axioms_hold,
        rep3r.equivalent,
        axioms12_hold(L, derived),
        verify_representation(L, W_good, R_min)[0],
        not isinstance(result, Refutation) and check_hom(result),
    )


def cmd_fuzz(args):
    totals = dict.fromkeys(FUZZ_CHECKS, 0)
    failures = []
    for trial in range(args.trials):
        seed = args.seed * 1_000_003 + trial
        n, verdicts = _fuzz_trial(seed, args.max_size)
        for check, ok in zip(FUZZ_CHECKS, verdicts):
            totals[check] += int(ok)
            if not ok:
                failures.append({"trial": trial, "check": check, "seed": seed, "n": n})
        log.info("trial %d done", trial)
    report = {
        "seed": args.seed,
        "trials": args.trials,
        "max_size": args.max_size,
        "pass_counts": totals,
        "failures": failures,
    }
    return (0 if not failures else 1), report


def _count(text: str) -> int:
    """A non-negative integer argument; argparse exits 2 otherwise."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _uint64(text: str) -> int:
    """An integer argument in 0..2**64-1; argparse exits 2 otherwise."""
    value = _count(text)
    if value >= 1 << 64:
        raise argparse.ArgumentTypeError(f"must be below 2**64, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no
    state between calls.  Its verbs attribute maps each verb to its
    subparser."""
    parser = argparse.ArgumentParser(
        prog="lattimin",
        description="Maximin preference representations on finite distributive lattices",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)
    parser.verbs = sub.choices

    def add(verb, func, *, lattice=False, pref=False, rep=False, fuzz=False):
        p = sub.add_parser(verb)
        if lattice:
            p.add_argument("--lattice", required=True, metavar="PATH")
        if pref:
            p.add_argument("--pref", required=True, metavar="PATH")
        if rep:
            p.add_argument("--rep", required=True, metavar="PATH")
        if fuzz:
            p.add_argument("--seed", type=_uint64, default=0, metavar="UINT64")
            p.add_argument("--trials", type=_count, default=100, metavar="UINT")
            p.add_argument(
                "--max-size",
                type=int,
                default=4,
                choices=range(1, MAX_POSET_SIZE + 1),
                metavar=f"1..{MAX_POSET_SIZE}",
            )
        p.add_argument("--out", metavar="PATH")
        p.set_defaults(func=func)

    add("validate", cmd_validate, lattice=True)
    add("spectrum", cmd_spectrum, lattice=True)
    add("axioms", cmd_axioms, lattice=True, pref=True)
    add("dualize", cmd_dualize, lattice=True, pref=True)
    add("represent", cmd_represent, lattice=True, pref=True)
    add("verify", cmd_verify, lattice=True, pref=True, rep=True)
    add("factor", cmd_factor, lattice=True, pref=True, rep=True)
    add("fuzz", cmd_fuzz, fuzz=True)
    return parser


def _parse(argv) -> argparse.Namespace:
    """build_parser().parse_args(argv), with the same exits and messages.
    The top parser hands an argv that starts with a verb whole to that
    verb's subparser, and reports what it leaves as unrecognized; such an
    argv goes to the subparser here without the top parser's pass."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    verb_parser = parser.verbs.get(argv[0]) if argv else None
    if verb_parser is None:
        return parser.parse_args(argv)
    args, extras = verb_parser.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.verb = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        code, report = args.func(args)
    except LattiminError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        _emit(report, args.out)
    except OSError as e:
        print(f"error: cannot write the report: {e}", file=sys.stderr)
        return 2
    return code


def entrypoint(argv=None):
    """The lattimin program: main's exit code, 4 with a one-line message for
    a MemoryError, or 3 with a one-line message for any other exception, a
    fault of lattimin rather than of the input or a check.  main itself lets
    such an exception propagate to an in-process caller.  Logging (LM_LOG)
    is set up here, so main leaves an in-process caller's loggers alone."""
    _setup_logging()
    try:
        code = main(argv)
    except MemoryError as e:
        log.debug("out of memory", exc_info=True)
        print(f"out of memory: {e}" if str(e) else "out of memory", file=sys.stderr)
        code = 4
    except Exception as e:
        log.debug("internal error", exc_info=True)
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
