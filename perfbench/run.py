"""domgame benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 50 --trace 0

Run from the repository root; the library is imported from ./src.  With
`--trace 0` the result holds the end-to-end metrics, with `--trace 1`
the per-layer metrics of a traced run.  Every pass is checked; the last
stdout line is the JSON result.  End-to-end times are in reference
seconds: raw time scaled by the host speed measured beside it
(hostspeed.py).  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

from hostspeed import HostClock  # noqa: E402
from tracing import (LAYER_UNITS, StateCounter, Tracer, layer_metrics,  # noqa: E402
                     no_span)
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 5          # untraced run; a traced run needs two of each kind
DEADLINE_S = 120        # stop starting passes after this, whatever --seconds says
KERNEL_EVERY_S = 0.25   # the longest stretch of work between two kernel runs

UNITS = {"setup_s": "s", "wall_s": "s", "request_p50_ms": "ms",
         "request_tail_ms": "ms", "peak_rss_mb": "MB", "states_total": "count"}
EXACT_COUNTS = ("solver.states", "harness.instances_solved", "harness.dedup_ratio")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def environment(seed, workers):
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pool_workers": workers,
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "seed": seed,
    }


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "none"


def import_domgame():
    for name in [m for m in sys.modules if m == "domgame" or m.startswith("domgame.")]:
        del sys.modules[name]
    dg = importlib.import_module("domgame")
    importlib.import_module("domgame.harness")
    importlib.import_module("domgame.cli")
    if SRC not in Path(dg.__file__).resolve().parents:
        raise ImportError(f"domgame was imported from {dg.__file__}, not {SRC}")
    return dg


def tail(latencies):
    """Highest percentile with at least ten samples beyond it (else the max)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Run:
    def __init__(self, workload, seed, run_dir, tracer):
        self.workload, self.seed, self.run_dir, self.tracer = workload, seed, run_dir, tracer
        self.dg = self.inputs = self.clock = None
        self.setups = []    # raw (start, end) of each set-up
        self.cache = {}
        self.attempted = self.failed = 0
        self.notes = []
        self.plain = []     # ((start, end), PassResult, states) of untraced passes
        self.traced = []    # ((start, end), layer metrics) of traced passes
        self.trace_log = []  # the spans of each traced pass

    def set_up(self):
        """Import afresh, build the inputs and warm up; timed as set-up."""
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        t0 = perf_counter()
        self.dg = import_domgame()
        self.inputs = self.workload.build(self.dg, self.seed, self.run_dir)
        self.workload.warm(self.dg, self.inputs)
        self.setups.append((t0, perf_counter()))

    def _check(self, res):
        try:
            attempted, failed, notes = self.workload.check(
                self.dg, self.inputs, res.outputs, self.cache)
        except Exception as exc:    # a crash in checking fails the pass
            attempted, failed, notes = len(res.outputs), len(res.outputs), [repr(exc)]
        self.attempted += attempted
        self.failed += failed
        self.notes.extend(notes)
        # Keeping every pass's reports would make peak_rss_mb grow with
        # the number of passes, that is, with the host's speed.
        res.outputs = None

    def plain_pass(self):
        with StateCounter(self.dg) as counter:
            t0 = perf_counter()
            res = self.workload.run_pass(self.dg, self.inputs, no_span, self.clock.tick)
            t1 = perf_counter()
        self._check(res)
        self.plain.append(((t0, t1), res, counter.states + res.worker_states))

    def traced_pass(self):
        self.tracer.install(self.dg)
        try:
            t0 = perf_counter()
            res = self.workload.run_pass(self.dg, self.inputs, self.tracer.span,
                                         self.clock.tick)
            t1 = perf_counter()
        finally:
            self.tracer.uninstall()
        spans = self.tracer.collect()
        self._check(res)
        self.trace_log.append(spans)
        self.traced.append(((t0, t1), layer_metrics(
            spans, covered=res.covered, workers=self.workload.workers,
            main_pid=os.getpid())))

    def measure(self, seconds):
        t_start = perf_counter()
        kinds = [self.plain_pass] if self.tracer is None else [self.plain_pass,
                                                              self.traced_pass]
        need = MIN_PASSES if self.tracer is None else 4
        count = 0
        self.clock = HostClock(KERNEL_EVERY_S)
        while True:
            # A set-up before every pass spreads the set-up samples over
            # the whole run instead of its first second.  The kernel runs
            # around each set-up and each pass, and inside a pass between
            # requests.
            self.set_up()
            self.clock.mark()
            t0 = perf_counter()
            try:
                kinds[count % len(kinds)]()
            except Exception as exc:    # the program raised: a failed pass
                self.attempted += 1
                self.failed += 1
                self.notes.append(f"pass raised {exc!r}")
            self.clock.mark()
            count += 1
            now = perf_counter()
            elapsed, last = now - t_start, now - t0
            if count >= need and (elapsed + last > seconds or elapsed > DEADLINE_S):
                break

    def count_mismatches(self):
        """Same code and seed must give the same exact counts in every pass."""
        bad = []
        states = {s for _, _, s in self.plain}
        if len(states) > 1:
            bad.append(f"states_total differs between passes: {sorted(states)}")
        for key in EXACT_COUNTS:
            seen = {m[key] for _, m in self.traced}
            if len(seen) > 1:
                bad.append(f"{key} differs between traced passes: {sorted(seen)}")
        if self.traced and states and {m["solver.states"] for _, m in self.traced} != states:
            bad.append("traced solver.states differs from untraced states_total")
        return bad

    def end_to_end(self):
        # Medians over the run, in reference seconds (hostspeed.py).  Each
        # request's time is its median over the passes.
        scaled = self.clock.scaled
        walls = [scaled(*span) for span, _, _ in self.plain]
        per_request = [statistics.median(col) for col in zip(
            *([scaled(*req) for req in r.requests] for _, r, _ in self.plain))]
        tail_s, tail_pct = tail(per_request)
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "setup_s": statistics.median(scaled(*span) for span in self.setups),
            "wall_s": statistics.median(walls),
            "request_p50_ms": 1e3 * statistics.median(per_request),
            "request_tail_ms": 1e3 * tail_s,
            "peak_rss_mb": rss_kb / 1024,
            "states_total": self.plain[0][2],
        }
        raw = self.clock.raw
        info = {"passes": len(self.plain), "setups": len(self.setups),
                "requests_per_pass": len(per_request),
                "request_tail_percentile": round(tail_pct, 2),
                "pass_walls_s": [round(w, 4) for w in walls],
                "raw_pass_walls_s": [round(raw(*span), 4) for span, _, _ in self.plain],
                "raw_setup_s": round(statistics.median(raw(*s) for s in self.setups), 4),
                "kernel_runs": len(self.clock.kernel_s),
                "kernel_ms_quartiles": [round(1e3 * q, 3) for q in
                                        statistics.quantiles(self.clock.kernel_s, n=4)]}
        return metrics, info

    def per_layer(self):
        keys = self.traced[0][1].keys()
        metrics = {k: statistics.median_low(m[k] for _, m in self.traced) for k in keys}
        scaled = self.clock.scaled
        metrics["trace.overhead_s"] = (
            statistics.median(scaled(*span) for span, _ in self.traced)
            - statistics.median(scaled(*span) for span, _, _ in self.plain))
        return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "domgame" / "__init__.py").is_file():
        print(f"error: no domgame sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    env = environment(args.seed, workload.workers)
    print("env " + json.dumps(env, sort_keys=True))
    run_dir = WORK_DIR / f"{args.workload}-seed{args.seed}"
    tracer = Tracer(run_dir) if args.trace else None
    run = Run(workload, args.seed, run_dir, tracer)
    run.measure(args.seconds)
    if not run.plain or (tracer is not None and not run.traced):
        print("FAIL " + "; ".join(run.notes[:5]))
        print("error: no pass completed", file=sys.stderr)
        return 1

    mismatches = run.count_mismatches()
    metrics, info = run.end_to_end()
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {UNITS[name]}")
    print(f"failed_frac = {run.failed / run.attempted:.6g} ratio")
    print("info " + json.dumps(info, sort_keys=True))
    if tracer is not None:
        layers = run.per_layer()
        for name, value in layers.items():
            print(f"{name} = {value:.6g} {LAYER_UNITS[name]}")
        with open(run_dir / "trace.json", "w", encoding="utf-8") as fh:
            json.dump({"env": env, "fields": ["name", "start", "end", "parent", "pid",
                                              "states", "peak_states", "bytes"],
                       "passes": run.trace_log}, fh)
        metrics = layers
    for note in run.notes[:20] + mismatches:
        print("FAIL " + note)
    for path in run_dir.iterdir():
        if path.name != "trace.json":
            path.unlink()
    if tracer is None:
        run_dir.rmdir()
    result = {
        "correct": run.failed == 0 and not mismatches,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": UNITS.get(k) or LAYER_UNITS[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
