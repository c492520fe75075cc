"""Size ceiling: the largest lattice `represent` handles within a fixed budget.

Two ladders, Boolean algebras B4..B10 (wide: few points, many elements) and
chains of doubling length (tall: as many points as elements).  Each rung runs
in a fresh child process under RUNG_MEMORY of address space and RUNG_SECONDS
of wall time.  Running out of memory, a refusal (TooLarge), the timeout and a
wrong verdict all end a ladder; only a wrong verdict counts as a failure.
The two ladders climb at the same time, one child each, so that the climb
takes about as long as the slower ladder.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time

from . import gen, jobs, rung

RUNG_MEMORY = 256 << 20  # bytes of address space per rung
RUNG_SECONDS = 20
BOOLEAN = [("B%d" % k, lambda k=k: gen.boolean(k)) for k in range(4, 11)]
CHAINS = [("C%d" % n, lambda n=n: gen.chain(n)) for n in (8, 16, 32, 64, 128, 256, 512, 1024)]


def _cap():
    resource.setrlimit(resource.RLIMIT_AS, (RUNG_MEMORY, RUNG_MEMORY))
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


class Rung:
    """One rung's child process, from start to checked outcome."""

    def __init__(self, name, L: gen.Lattice, W: gen.Maximin, src: str, workdir: str, env):
        self.name, self.L, self.W = name, L, W
        d = os.path.join(workdir, name)
        os.makedirs(d, exist_ok=True)
        self.paths = [os.path.join(d, f) for f in
                      ("lattice.json", "pref.json", "rep.json", "verify.json", "stderr.txt")]
        for p in self.paths[2:]:
            if os.path.exists(p):
                os.remove(p)
        jobs.write_json(self.paths[0], L.to_dict())
        jobs.write_json(self.paths[1], {"ranks": W.ranks})
        with open(self.paths[4], "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, rung.__file__, src, *self.paths[:4]], env=env,
                preexec_fn=_cap, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        self.start = time.perf_counter()

    def poll(self) -> dict | None:
        """The outcome once the child has ended (killed at the time limit)."""
        seconds = time.perf_counter() - self.start
        out = {"rung": self.name, "n": self.L.n, "seconds": seconds}
        if self.proc.poll() is None:
            if seconds < RUNG_SECONDS:
                return None
            self.proc.kill()
            self.proc.wait()
            return {**out, "end": "timeout"}
        code = self.proc.returncode
        if code == rung.MEMORY:
            return {**out, "end": "memory"}
        if code == 2:
            return {**out, "end": "refused", "stderr": self._stderr(300)}
        if code != 0:
            return {**out, "end": "failed", "code": code, "stderr": self._stderr(2000)}
        with open(self.paths[2], "rb") as fh:
            rep = fh.read()
        with open(self.paths[3], "rb") as fh:
            ver = fh.read()
        err = jobs.rep_error(self.L, self.W.ranks, json.loads(rep))
        if err is None and json.loads(ver) != {"verified": True, "counterexample": None}:
            err = "verify rejected the synthesized representation"
        if err:
            return {**out, "end": "failed", "error": err}
        return {**out, "end": None, "report": rep + ver}

    def _stderr(self, tail):
        with open(self.paths[4], errors="replace") as fh:
            return fh.read()[-tail:]


def climb(ladders, seed: int, src: str, workdir: str) -> list[list[dict]]:
    """Each ladder's rungs in order, up to the first that does not pass."""
    env = {k: v for k, v in os.environ.items() if k != "LM_LOG"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    rngs = [random.Random(seed * len(ladders) + i) for i in range(len(ladders))]
    steps = [iter(ladder) for ladder in ladders]
    results = [[] for _ in ladders]

    def start(i):
        step = next(steps[i], None)
        if step is None:
            return None
        name, make = step
        L = make()
        return Rung(name, L, gen.maximin(L, rngs[i], keep=1.0), src, workdir, env)

    running = {i: start(i) for i in range(len(ladders))}
    try:
        while any(running.values()):
            time.sleep(0.01)
            for i, current in running.items():
                outcome = current and current.poll()
                if outcome:
                    results[i].append(outcome)
                    running[i] = start(i) if outcome["end"] is None else None
    finally:
        for current in running.values():
            if current is not None and current.proc.poll() is None:
                current.proc.kill()
                current.proc.wait()
    return results


def ceiling(results) -> int:
    """Elements of the largest rung that passed."""
    return max((r["n"] for r in results if r["end"] is None), default=0)
