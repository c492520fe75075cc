"""Spans around lattimin's public functions, installed from outside the package.

``Tracer.install`` wraps every public function of the traced modules and
rebinds each name, in every ``lattimin.*`` namespace that holds it, to the
wrapper.  Nested library calls therefore get their own spans, each with the
id of the span that caused it.  A span's self time is its duration minus the
durations of its children.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

MODULES = ("lattice", "spectrum", "preference", "duality", "representation", "io", "cli")
# Private functions that are layer boundaries of their own, and span names
# that differ from the function name.
EXTRA = {"cli._emit": "cli.emit", "io.load_json": "io.load"}
MAX_KEPT = 300_000  # spans kept for the trace file; every span is counted


def _lattice_key(L):
    return hash((L.meet.tobytes(), L.join.tobytes(), L.bottom, L.top))


def _counts(name, args, result, tally):
    """Work counters recorded at the boundary where the work happens."""
    if name == "spectrum.enumerate_prime_filters":
        tally["spectrum.points"] += len(result.points)
        tally["lattices"].add(_lattice_key(args[0]))
    elif name == "duality.dual_forward":
        tally["duality.literal_evals"] += len(args[1].points) ** 2
    elif name == "duality.dual_backward":
        tally["duality.literal_evals"] += (args[0].n - 1) ** 2
    elif name == "representation.derive_pref_from_rep":
        tally["representation.literal_evals"] += len(args[0].sigma_map) ** 2
    elif name == "representation.minimal_representation":
        tally["representation.outcomes"] += result.outcome_count
    elif name == "io.load":
        tally["io.bytes_read"] += os.path.getsize(args[0])


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, job, name, start, end)
        self.dropped = 0
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)  # per-call durations of cli.<verb>
        self.tally = defaultdict(int)
        self.tally["lattices"] = set()
        self.job = -1
        self.root_s = 0.0  # time inside outermost spans
        self._stack = []  # [span id, name, start, child time]
        self._next = 0
        self._undo = []

    def _wrap(self, fn, name):
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            span = name if name != "cli.main" else "cli." + args[0][0]
            self._next += 1
            frame = [self._next, span, clock(), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                if stack:
                    stack[-1][3] += dur
                else:
                    self.root_s += dur
                self.calls[span] += 1
                self.total[span] += dur
                self.self_time[span] += dur - frame[3]
                if span != name:
                    self.durations[span].append(dur)
                if len(self.spans) < MAX_KEPT:
                    self.spans.append((frame[0], parent, self.job, span, frame[2], end))
                else:
                    self.dropped += 1
            _counts(span, args, result, self.tally)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module("lattimin." + short)
            for attr, fn in vars(mod).items():
                qual = f"{short}.{attr}"
                public = not attr.startswith("_") or qual in EXTRA
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and public:
                    wrappers[fn] = self._wrap(fn, EXTRA.get(qual, qual))
        for modname, mod in list(sys.modules.items()):
            if modname != "lattimin" and not modname.startswith("lattimin."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._undo.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in self._undo:
            setattr(mod, attr, value)
        self._undo.clear()

    def write(self, path, summary):
        with open(path, "w") as fh:
            json.dump({
                "summary": summary,
                "by_name": {k: {"calls": self.calls[k], "total_s": self.total[k],
                                "self_s": self.self_time[k]} for k in sorted(self.calls)},
                "dropped_spans": self.dropped,
                "span_fields": ["id", "parent", "job", "name", "start", "end"],
                "spans": self.spans,
            }, fh)
