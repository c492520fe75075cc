"""lattimin benchmark: one workload in one process, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli --seed 1 --seconds 40 --trace 0

The library is imported from ./src, never from an installed copy.  Inputs
come from --seed only.  The timed phase is a closed loop with one client:
whole rounds of the workload's input pool until --seconds have gone by and
at least MIN_JOBS jobs have run.  Every job's answers are checked after the
phase.  With --trace 0 the run then climbs the two ceiling ladders and
prints the end-to-end metrics; with --trace 1 it runs the pool untraced and
then traced, and prints the per-layer metrics.  See perfbench/README.md.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy loads: no threads in the measured process
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, ROOT]

from perfbench import jobs, ladder, spans  # noqa: E402

WORKLOADS = ("small-batch", "cli")
SETUP_REPEATS = 3
MIN_JOBS = 100
# Rounds in a pool: about what a slow run completes at this commit.  A run
# that gets further wraps around to the first round; inputs the timed phase
# does not reach are still run, untimed, for the checks and the digest.
ROUNDS = {"small-batch": 13, "cli": 10}

# name -> unit; every per-layer metric is better lower.
PER_LAYER = {
    "lattice.validate_laws.calls": "count",
    "lattice.validate_laws.self_s": "s",
    "lattice.validations_per_job": "ratio",
    "spectrum.enumerate_prime_filters.calls": "count",
    "spectrum.enumerate_prime_filters.self_s": "s",
    "spectrum.classify_subset.self_s": "s",
    "spectrum.points": "count",
    "spectrum.enumerations_per_lattice": "ratio",
    "preference.check_axiom1.self_s": "s",
    "preference.check_axiom2.self_s": "s",
    "preference.check_axiom3.self_s": "s",
    "duality.dual_forward.self_s": "s",
    "duality.dual_backward.self_s": "s",
    "duality.forward_relation_literal.self_s": "s",
    "duality.backward_relation_literal.self_s": "s",
    "duality.filter_witness.self_s": "s",
    "duality.literal_evals": "count",
    "representation.derive_pref_from_rep.self_s": "s",
    "representation.congruence_from_classes.self_s": "s",
    "representation.quotient.self_s": "s",
    "representation.minimal_representation.self_s": "s",
    "representation.verify_representation.self_s": "s",
    "representation.factor_check.self_s": "s",
    "representation.check_representation_hom.self_s": "s",
    "representation.literal_evals": "count",
    "representation.outcomes": "count",
    "io.load.self_s": "s",
    "io.bytes_read": "B",
    "cli.emit.self_s": "s",
    "cli.build_parser.self_s": "s",
    **{f"cli.{verb}.p50_s": "s" for verb in jobs.CLI_VERBS},
    "trace.untraced_share": "ratio",
    "trace.overhead": "ratio",
}
END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "ceiling_wide_n": "elements",
    "ceiling_tall_n": "elements",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny pool and ladders, for the benchmark's own tests")
    return p.parse_args(argv)


def build_pool(workload, seed, workdir, smoke, lm):
    rng = random.Random(seed)
    rounds = 2 if smoke else ROUNDS[workload]
    if workload == "small-batch":
        slots = jobs.SMALL_SLOTS[::5] if smoke else jobs.SMALL_SLOTS
        return jobs.small_pool(rng, slots, rounds, lm)
    slots = jobs.CLI_SLOTS[::6] if smoke else jobs.CLI_SLOTS
    return jobs.cli_pool(rng, slots, rounds, workdir)


class Loop:
    """Closed loop with one client over whole rounds of the pool.

    first[(round, index)] keeps each input's first answer (None if the job
    raised); a later run of the same input must give the same bytes.
    """

    def __init__(self, pool, job):
        self.pool, self.job = pool, job
        self.first = {}
        self.shown = 0

    def run(self, seconds=0.0, min_jobs=0, rounds=None, tracer=None):
        """Whole rounds until `rounds` are done, or else until `seconds` have
        passed and `min_jobs` have run.  Returns (latencies, wall, rounds,
        jobs): jobs[j] is (input key, whether job j gave the input's first
        answer)."""
        latencies, jobs = [], []
        clock = time.perf_counter
        start = clock()
        done = 0
        while True:
            r = done % len(self.pool)
            for i, item in enumerate(self.pool[r]):
                if tracer is not None:
                    tracer.job = len(latencies)
                t0 = clock()
                out = self._attempt(item)
                latencies.append(clock() - t0)
                prev = self.first.setdefault((r, i), out)
                jobs.append(((r, i), out is not None and out == prev))
            done += 1
            wall = clock() - start
            if done == rounds or rounds is None and wall >= seconds and len(latencies) >= min_jobs:
                return latencies, wall, done, jobs

    def _attempt(self, item):
        try:
            return self.job(item)
        except Exception:  # a job that raises is a failed job, not a crash
            if self.shown < 3:
                self.shown += 1
                traceback.print_exc()
            return None

    def cover(self) -> list:
        """Run, untimed, every input the timed loop did not reach."""
        jobs = []
        for r, items in enumerate(self.pool):
            for i, item in enumerate(items):
                if (r, i) not in self.first:
                    self.first[(r, i)] = out = self._attempt(item)
                    jobs.append(((r, i), out is not None))
        return jobs

    def errors(self, check) -> dict:
        """Inputs whose first answer is missing or wrong, with the reason."""
        errors = {}
        for (r, i), out in self.first.items():
            try:
                err = "no answer" if out is None else check(self.pool[r][i], out)
            except Exception as e:  # an unreadable report is a wrong answer
                err = f"unreadable report: {e!r}"
            if err:
                errors[(r, i)] = err
        return errors

    def reports(self):
        return [self.first[(r, i)] or b"" for r, items in enumerate(self.pool)
                for i in range(len(items))]


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(b"%d\n" % len(chunk))
        h.update(chunk)
    return h.hexdigest()


def layer_metrics(tr, rounds, jobs_run, traced_lat, overhead):
    per_round = lambda x: x / rounds  # noqa: E731
    self_s = lambda name: per_round(tr.self_time.get(name, 0.0))  # noqa: E731
    enum = tr.calls.get("spectrum.enumerate_prime_filters", 0)
    lattices = len(tr.tally["lattices"])
    m = {
        "lattice.validate_laws.calls": per_round(tr.calls.get("lattice.validate_laws", 0)),
        "lattice.validations_per_job": tr.calls.get("lattice.validate_laws", 0) / jobs_run,
        "spectrum.enumerate_prime_filters.calls": per_round(enum),
        "spectrum.enumerations_per_lattice": enum / lattices if lattices else 0.0,
        "trace.untraced_share": 1.0 - tr.root_s / sum(traced_lat),
        "trace.overhead": overhead,
    }
    for key in ("spectrum.points", "duality.literal_evals", "representation.literal_evals",
                "representation.outcomes", "io.bytes_read"):
        m[key] = per_round(tr.tally.get(key, 0))
    for verb in jobs.CLI_VERBS:
        durations = tr.durations.get("cli." + verb)
        m[f"cli.{verb}.p50_s"] = statistics.median(durations) if durations else 0.0
    for key in PER_LAYER:
        if key.endswith(".self_s"):
            m[key] = self_s(key[: -len(".self_s")])
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lattimin", "__init__.py")):
        print(f"error: no lattimin sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("LM_LOG", None)
    import numpy
    import lattimin
    import lattimin.cli

    import_s = time.perf_counter() - START
    workdir = os.path.join(ROOT, ".perfbench", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(workdir, "out"))
    print(f"env python={sys.version.split()[0]} numpy={numpy.__version__} "
          f"nproc={os.cpu_count()} mem_mb={os.sysconf('SC_PHYS_PAGES') * os.sysconf('SC_PAGE_SIZE') >> 20}")

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pool = build_pool(args.workload, args.seed, workdir, args.smoke, lattimin)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    if args.workload == "small-batch":
        job, check = (lambda item: jobs.small_job(item, lattimin)), jobs.small_error
    else:
        outdir = os.path.join(workdir, "out")
        job = lambda item: jobs.cli_job(item, lattimin.cli.main, outdir)  # noqa: E731
        check = jobs.cli_error
    loop = Loop(pool, job)
    rungs = []
    if args.trace:
        _, wall, rounds, done = loop.run(args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            t_lat, t_wall, _, t_done = loop.run(rounds=rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, rounds, len(t_lat), t_lat, t_wall / wall)
        tracer.write(os.path.join(workdir, "trace.json"),
                     {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                      "metrics": metrics})
        done += t_done
        units = PER_LAYER
    else:
        lat, wall, rounds, done = loop.run(args.seconds, 0 if args.smoke else MIN_JOBS)
        p90 = statistics.quantiles(lat, n=10)[-1]
        print(f"workload={args.workload} seed={args.seed} rounds={rounds} jobs={len(lat)} "
              f"wall_s={wall:.3f} p90_tail_samples={sum(x > p90 for x in lat)}")
        metrics = {
            "jobs_per_s": len(lat) / wall,
            "job_p50_s": statistics.median(lat),
            "job_p90_s": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        ladders = [ladder.BOOLEAN, ladder.CHAINS]
        climbed = ladder.climb([steps[:2] for steps in ladders] if args.smoke else ladders,
                               args.seed, SRC, os.path.join(workdir, "ladder"))
        for key, results in zip(("ceiling_wide_n", "ceiling_tall_n"), climbed):
            metrics[key] = ladder.ceiling(results)
            print(key, " ".join(f"{r['rung']}:{r['end'] or 'ok'}:{r['seconds']:.2f}s"
                                for r in results))
            for r in results:
                if r["end"] == "failed":
                    print(f"rung {r['rung']} failed: {r}", file=sys.stderr)
            rungs += results
        units = END_TO_END

    done += loop.cover()
    errors = loop.errors(check)
    for key, err in list(errors.items())[:5]:
        print(f"failed input {key}: {err}", file=sys.stderr)
    failed = sum(not same or key in errors for key, same in done)
    failed += sum(r["end"] == "failed" for r in rungs)
    attempted = len(done) + len(rungs)
    print(f"digest {args.workload} seed={args.seed} reports={len(loop.first)} "
          f"sha256={digest(loop.reports())}")
    if rungs:
        print(f"digest ladders seed={args.seed} "
              f"sha256={digest([r['report'] for r in rungs if 'report' in r])}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
