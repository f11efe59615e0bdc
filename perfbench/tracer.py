"""Span tracing from outside the program, for the traced benchmark pass.

The tracer replaces a yflab function by a wrapper in every yflab module that
binds it (so `boundary.f`, `pathcount.f` and `harmonic.f` are all caught), and
also where a function default holds it (the `f_impl` hook of
`experiments.identity_suite`).  Each call records one span: name, start, end
and the index of the enclosing span.  Spans stay in memory, in flat arrays,
and are written once when the run ends.

A span's self time is its duration minus the durations of its direct child
spans.  The program runs in one thread and the traced sweep uses one process,
so spans nest strictly.
"""

from __future__ import annotations

import functools
import json
import time
import types
from array import array
from collections import defaultdict

# (home module, function, span name).  d1_prime shares the d_beta_prime span:
# both are the kernel d'_beta, evaluated through one cache.
TARGETS = (
    ("words", "enumerate_level", "words.enumerate_level"),
    ("words", "down_neighbors", "words.down_neighbors"),
    ("harmonic", "f", "harmonic.f"),
    ("harmonic", "g_all", "harmonic.g_all"),
    ("harmonic", "d_beta", "harmonic.d_beta"),
    ("harmonic", "pi", "harmonic.pi"),
    ("pathcount", "d_paths_formula", "pathcount.d_paths_formula"),
    ("pathcount", "descent_counts", "pathcount.descent_counts"),
    ("pathcount", "d_from_empty", "pathcount.d_from_empty"),
    ("boundary", "d_beta_prime", "boundary.d_beta_prime"),
    ("boundary", "d1_prime", "boundary.d_beta_prime"),
    ("boundary", "mu", "boundary.mu"),
    ("boundary", "level_distribution", "boundary.level_distribution"),
    ("magic", "build_table", "magic.build_table"),
    ("magic", "column_sum_closed_form", "magic.column_sum_closed_form"),
    ("experiments", "sweep_many", "experiments.sweep_many"),
    ("experiments", "node_mass", "experiments.node_mass"),
    ("experiments", "identity_suite", "experiments.identity_suite"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    """Records nested spans of wrapped calls in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]

    def wrap(self, name: str, fn):
        names, parent, start, end, open_ = self.names, self.parent, self.start, self.end, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parent.append(open_[-1])
            start.append(0.0)
            end.append(0.0)
            open_.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                open_.pop()

        return traced

    def install(self, modules: dict[str, types.ModuleType]) -> None:
        """Wrap every TARGETS function and every identity check in place."""
        traced = {}
        for home, func, span in TARGETS:
            original = getattr(modules[home], func)
            traced[id(original)] = self.wrap(span, original)
        for module in modules.values():
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value.__defaults__:
                    value.__defaults__ = tuple(traced.get(id(d), d) for d in value.__defaults__)
                if id(value) in traced:
                    setattr(module, name, traced[id(value)])
        experiments = modules["experiments"]
        experiments.IDENTITY_CHECKS = tuple(
            (name, self.wrap(f"experiments.identity.{name}", check))
            for name, check in experiments.IDENTITY_CHECKS)

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; child totals by (parent, child) name."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child_total = defaultdict(float)
        by_pair = defaultdict(float)
        roots = 0.0
        for sid, name in enumerate(self.names):
            dur = self.end[sid] - self.start[sid]
            calls[name] += 1
            total[name] += dur
            p = self.parent[sid]
            if p < 0:
                roots += dur
            else:
                child_total[self.names[p]] += dur
                by_pair[f"{self.names[p]}>{name}"] += dur
        return {
            "spans": len(self.names),
            "roots_s": roots,
            "layers": {name: {"calls": calls[name], "total_s": total[name],
                              "self_s": total[name] - child_total[name]} for name in calls},
            "children_s": dict(by_pair),
        }

    def write(self, path: str) -> None:
        """Write every span as parallel arrays; span names are indices into `names`."""
        index = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        with open(path, "w") as handle:
            json.dump({"names": list(index),
                       "name": [index[n] for n in self.names],
                       "parent": self.parent.tolist(),
                       "start": self.start.tolist(),
                       "end": self.end.tolist()}, handle)
