"""Spans around domgame's public calls, recorded from the benchmark's side.

`Tracer.install` replaces a few module attributes and two `Solver`
methods with timing wrappers; `uninstall` puts the originals back.  The
library itself is not changed.  Spans live in memory.  Pool workers are
forked with the wrappers in place; each one appends its finished
top-level spans to a file in the run directory, because workers exit
without running `atexit`.  `layer_metrics` turns the spans of one pass
into the per-layer numbers.

`StateCounter` is the only thing the untraced passes install: a wrapper
on `Solver.game_value` that adds up how many states each call explored.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from pathlib import Path

# Span fields: name, start, end, parent index (None at the root), pid,
# states added, states held afterwards, bytes written.
NAME, START, END, PARENT, PID, STATES, PEAK, NBYTES = range(8)

SOLVER_SPANS = ("solver.game_value", "solver.optimal_first_moves")

LAYER_UNITS = {
    "graph.build_calls": "count", "graph.build_s": "s",
    "families.generate_calls": "count", "families.generate_s": "s",
    "oracle.checks": "count", "oracle.check_s": "s",
    "solver.solves": "count", "solver.states": "count", "solver.solve_s": "s",
    "solver.us_per_state": "us", "solver.peak_states": "count",
    "solver.followup_states": "count",
    "harness.instances_solved": "count", "harness.dedup_ratio": "ratio",
    "harness.enumerate_s": "s", "harness.report_s": "s",
    "harness.report_bytes": "bytes",
    "pool.workers": "count", "pool.busy_s": "s", "pool.efficiency": "ratio",
    "pool.imbalance": "ratio", "pool.overhead_s": "s",
    "cli.requests": "count", "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def no_span(name):
    """Stand-in for `Tracer.span` in untraced passes."""
    return contextlib.nullcontext([None] * 8)


class StateCounter:
    """Sum of `Solver.states_explored` growth over every `game_value` call."""

    def __init__(self, dg):
        self._cls = dg.solver.Solver
        self.states = 0

    def __enter__(self):
        original = self._original = self._cls.__dict__["game_value"]

        @functools.wraps(original)
        def game_value(solver, *args, **kwargs):
            before = solver.states_explored
            try:
                return original(solver, *args, **kwargs)
            finally:
                self.states += solver.states_explored - before

        self._cls.game_value = game_value
        return self

    def __exit__(self, *exc):
        self._cls.game_value = self._original


class Tracer:
    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.spans = []
        self._stack = []
        self._worker = False
        self._saved = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        self.spans = []
        self._stack = []
        self._worker = True

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), 0.0, parent, os.getpid(), 0, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()
        if self._worker and not self._stack:
            path = self.run_dir / f"spans-{os.getpid()}.jsonl"
            with open(path, "a", encoding="utf-8") as fh:
                for span in self.spans:
                    fh.write(json.dumps(span) + "\n")
            self.spans = []

    @contextlib.contextmanager
    def span(self, name):
        """A span around a call the benchmark makes itself."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return wrapper

    def _solver_timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(solver, *args, **kwargs):
            rec = self._open(name)
            before = solver.states_explored
            try:
                return fn(solver, *args, **kwargs)
            finally:
                rec[STATES] = solver.states_explored - before
                rec[PEAK] = solver.states_explored
                self._close(rec)
        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, wrap):
        original = owner.__dict__.get(attr)
        if original is None:
            return      # a later version may not have this entry point
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def install(self, dg):
        solver_cls = dg.solver.Solver
        for method in ("game_value", "optimal_first_moves"):
            self._patch(solver_cls, method,
                        functools.partial(self._solver_timed, f"solver.{method}"))
        self._patch(dg.harness, "add_edges",
                    functools.partial(self._timed, "graph.build"))
        self._patch(dg.cli, "parse_edge_list",
                    functools.partial(self._timed, "graph.build"))
        self._patch(dg.harness, "generate",
                    functools.partial(self._timed, "families.generate"))
        self._patch(dg.oracle, "known_family_value",
                    functools.partial(self._timed, "oracle.check"))
        # The pool pickles the job function by name, so the wrapper keeps
        # the original's name and the forked workers look it up patched.
        self._patch(dg.harness, "_sweep_one",
                    functools.partial(self._timed, "pool.job"))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def collect(self):
        """All spans of the pass, this process's first, then the workers'."""
        spans, self.spans = self.spans, []
        for path in sorted(self.run_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    # A worker flushes one top-level span with its
                    # descendants at a time, indexed from that span.
                    if rec[PARENT] is None:
                        base = len(spans)
                    else:
                        rec[PARENT] += base
                    spans.append(rec)
            path.unlink()
        return spans


def _dur(rec):
    return rec[END] - rec[START]


def layer_metrics(spans, *, covered, workers, main_pid):
    """Per-layer numbers for one traced pass (see README for definitions)."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] is not None:
            child_time[rec[PARENT]] += _dur(rec)

    def total(name):
        recs = [r for r in spans if r[NAME] == name]
        return len(recs), sum(_dur(r) for r in recs)

    def root_of(i):
        while spans[i][PARENT] is not None:
            i = spans[i][PARENT]
        return spans[i]

    top_solver = [i for i, r in enumerate(spans) if r[NAME] in SOLVER_SPANS
                  and (r[PARENT] is None
                       or spans[r[PARENT]][NAME] not in SOLVER_SPANS)]
    solves = [i for i in top_solver if spans[i][NAME] == "solver.game_value"]
    states = sum(spans[i][STATES] for i in top_solver)
    solve_s = sum(_dur(spans[i]) for i in top_solver)
    harness_solves = sum(1 for i in solves
                         if spans[i][PID] != main_pid
                         or root_of(i)[NAME].startswith("harness."))

    # Pool: worker top-level spans, grouped by the sweep they ran under.
    sweeps = [r for r in spans if r[NAME] == "harness.sweep" and r[PID] == main_pid]
    worker_roots = [r for r in spans if r[PID] != main_pid and r[PARENT] is None]
    busy = pool_span = critical = 0.0
    for sweep in sweeps:
        inside = [r for r in worker_roots if sweep[START] <= r[START] <= sweep[END]]
        if not inside:
            continue
        per_pid = {}
        for r in inside:
            per_pid[r[PID]] = per_pid.get(r[PID], 0.0) + _dur(r)
        busy += sum(per_pid.values())
        pool_span += max(r[END] for r in inside) - sweep[START]
        critical += max(per_pid.values())
    pooled = pool_span > 0

    enumerate_s = sum(_dur(r) - child_time[i] for i, r in enumerate(spans)
                      if r[NAME] in ("harness.enumerate", "harness.sweep"))
    cli_runs = [(i, r) for i, r in enumerate(spans) if r[NAME] == "cli.run"]
    graph_n, graph_s = total("graph.build")
    gen_n, gen_s = total("families.generate")
    oracle_n, oracle_s = total("oracle.check")
    _, report_s = total("harness.report")
    return {
        "graph.build_calls": graph_n,
        "graph.build_s": graph_s,
        "families.generate_calls": gen_n,
        "families.generate_s": gen_s,
        "oracle.checks": oracle_n,
        "oracle.check_s": oracle_s,
        "solver.solves": len(solves),
        "solver.states": states,
        "solver.solve_s": solve_s,
        "solver.us_per_state": 1e6 * solve_s / states if states else 0.0,
        "solver.peak_states": max((r[PEAK] for r in spans
                                   if r[NAME] in SOLVER_SPANS), default=0),
        "solver.followup_states": sum(
            spans[i][STATES] for i in top_solver
            if spans[i][NAME] == "solver.optimal_first_moves"),
        "harness.instances_solved": harness_solves,
        "harness.dedup_ratio": covered / len(solves) if solves else 0.0,
        "harness.enumerate_s": max(0.0, enumerate_s - pool_span),
        "harness.report_s": report_s,
        "harness.report_bytes": sum(r[NBYTES] for r in spans
                                    if r[NAME] == "harness.report"),
        "pool.workers": workers if pooled else 0,
        "pool.busy_s": busy,
        "pool.efficiency": busy / (workers * pool_span) if pooled else 0.0,
        "pool.imbalance": critical / (busy / workers) if pooled and busy else 0.0,
        "pool.overhead_s": pool_span - critical,
        "cli.requests": len(cli_runs),
        "cli.self_s": sum(_dur(r) - child_time[i] for i, r in cli_runs),
    }
