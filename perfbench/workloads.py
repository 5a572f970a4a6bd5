"""The benchmark workloads: `sweeps` and `solves`, two parts each.

Each part builds its inputs from the seed (`build`), warms up (`warm`),
runs its share of one timed pass (`run_pass`) and checks that share's
outputs (`check`).  A pass is split into requests, the user-facing calls
the part makes; each is timed on its own, and `tick` (the host clock's)
is called before each one.  README.md says why each part exists.

The seed relabels vertices and reorders inputs but does not pick which
graphs are solved: those come from fixed pools, so every seed asks for
the same work and the spread over seeds measures the program, not the
inputs.
"""

from __future__ import annotations

import io
import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from reference import ReferenceGame
from tracing import NBYTES

EXPECTED_PATH = Path(__file__).with_name("expected.json")

EDGE_SWEEPS = (("path", 9, 3), ("cycle", 10, 3))

FIXED_BLOCKS = (
    ("two-tailed-tadpole", "two_tailed_specs", (13,)),
    ("tadpole", "tadpole_specs", (14,)),
    ("cycle-chord", "cycle_chord_specs", (13,)),
    ("hatted-cycle", "hatted_cycle_specs", (4, 16)),
)
FX_COUNT, FX_MAX_ORDER, FX_SEED = 20, 13, 0

DEEP_GRAPHS = (
    ("path", {"n": 20}, "dominator"),
    ("cycle", {"n": 20}, "dominator"),
    ("hatted-cycle", {"n": 17}, "dominator"),
    ("r-graph", {"n": 4}, "dominator"),
    ("double-prime-path", {"n": 18}, "staller"),
)

CLI_REQUESTS = 300
CLI_ORDERS = range(10, 17)
CLI_POOL_SEED = 0


def deep_key(family, params, start):
    inner = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{family}({inner}) {start}"


def load_expected(cache):
    if "expected" not in cache:
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            cache["expected"] = json.load(fh)
    return cache["expected"]


def relabel(rng, n, edges, vertices):
    """The same graph under a random permutation of its vertices."""
    perm = rng.sample(range(n), n)
    return ([tuple(sorted((perm[u], perm[v]))) for u, v in edges],
            [perm[v] for v in vertices])


@dataclass
class PassResult:
    requests: list = field(default_factory=list)    # raw (start, end), one per request
    outputs: list = field(default_factory=list)     # what `check` compares
    covered: int = 0        # labeled graphs the pass answered
    worker_states: int = 0  # states explored in pool workers


def _write_report(span, report, path):
    with span("harness.report") as rec:
        data = report.to_json().encode("utf-8")
        path.write_bytes(data)
        rec[NBYTES] = len(data)


class EdgeSweep:
    """Serial edge-addition sweeps: thousands of small solves."""

    name = "edge-sweep"
    workers = 1

    def build(self, dg, seed, run_dir):
        sweeps = list(EDGE_SWEEPS)
        random.Random(seed).shuffle(sweeps)
        return {"sweeps": sweeps, "run_dir": run_dir}

    def warm(self, dg, inputs):
        dg.harness.enumerate_edge_additions("path", 6, 2).to_json()

    def run_pass(self, dg, inputs, span, tick):
        res = PassResult()
        for base, n, k in inputs["sweeps"]:
            tick()
            t0 = perf_counter()
            with span("harness.enumerate"):
                report = dg.harness.enumerate_edge_additions(base, n, k)
            _write_report(span, report, inputs["run_dir"] / f"{base}-{n}-{k}.json")
            res.requests.append((t0, perf_counter()))
            res.outputs.append(((base, n, k), report))
            res.covered += report.parameters["graph_count"]
        return res

    def check(self, dg, inputs, outputs, cache):
        expected = load_expected(cache)["edge_sweeps"]
        notes = []
        for (base, n, k), report in outputs:
            want = expected[f"{base}-{n}-{k}"]
            got_hist = {str(r["gamma_g"]): r["count"] for r in report.rows}
            witnesses = {tuple(map(tuple, w)) for w in report.witnesses}
            if (report.parameters["graph_count"] != want["graph_count"]
                    or got_hist != want["histogram"]
                    or report.max_value != want["max_value"]
                    or tuple(map(tuple, want["witness"])) not in witnesses
                    or not report.ok):
                notes.append(f"{base} n={n} k={k}: report differs from expected.json")
        return len(outputs), len(notes), notes


class FamilySweep:
    """Criterion-5 family blocks through the process pool."""

    name = "family-sweep"

    def __init__(self):
        self.workers = min(2, os.cpu_count() or 1)

    def build(self, dg, seed, run_dir):
        h = dg.harness
        blocks = [(name, getattr(h, builder)(*args))
                  for name, builder, args in FIXED_BLOCKS]
        blocks.append(("fx", h.random_fx_specs(FX_COUNT, FX_SEED, FX_MAX_ORDER)))
        # Spec order within a block sets the pool's chunks, so only the
        # blocks are shuffled.
        random.Random(seed).shuffle(blocks)
        return {"blocks": blocks, "run_dir": run_dir}

    def warm(self, dg, inputs):
        dg.harness.sweep_family(dg.harness.hatted_cycle_specs(4, 6)).to_json()

    def run_pass(self, dg, inputs, span, tick):
        res = PassResult()
        for name, specs in inputs["blocks"]:
            tick()
            t0 = perf_counter()
            with span("harness.sweep"):
                report = dg.harness.sweep_family(specs, workers=self.workers,
                                                 name=f"sweep-{name}")
            _write_report(span, report, inputs["run_dir"] / f"sweep-{name}.json")
            res.requests.append((t0, perf_counter()))
            res.outputs.append((name, report))
            res.covered += len(specs)
            stats = report.solver_stats
            res.worker_states += stats.get("states_explored", stats.get("states", 0))
        return res

    def _expected(self, dg, inputs, cache):
        if "family" not in cache:
            golden = load_expected(cache)["family_values"]
            want = {}
            for name, specs in inputs["blocks"]:
                values = []
                for spec in specs:
                    if name == "fx":
                        lg = dg.generate(spec)
                        game = ReferenceGame(lg.graph.n, lg.graph.edges())
                        value = game.value(lg.dominated)
                    else:
                        value = golden[spec.describe()]
                    values.append((spec.describe(), value))
                want[name] = Counter(values)
            cache["family"] = want
        return cache["family"]

    def check(self, dg, inputs, outputs, cache):
        want = self._expected(dg, inputs, cache)
        specs_by_key = {s.describe(): s for _, specs in inputs["blocks"] for s in specs}
        attempted = failed = 0
        notes = []
        for name, report in outputs:
            got = Counter((r["params"], r["gamma_g"]) for r in report.rows)
            wrong = sum((want[name] - got).values())
            for key, value in got:
                try:
                    known = dg.oracle.known_family_value(specs_by_key[key])
                except ValueError:
                    continue
                if value > known.value or (known.exact and value != known.value):
                    wrong += 1
            attempted += sum(want[name].values()) + 1
            failed += wrong + (not report.ok)
            if wrong or not report.ok:
                notes.append(f"{name}: {wrong} wrong values, ok={report.ok}")
        return attempted, failed, notes


class DeepSolve:
    """Cold solves of a few large graphs, relabeled by the seed."""

    name = "deep-solve"
    workers = 1

    def build(self, dg, seed, run_dir):
        rng = random.Random(seed)
        graphs = []
        for family, params, start in DEEP_GRAPHS:
            spec = dg.FamilySpec(family, dict(params))
            lg = dg.generate(spec)
            n = lg.graph.n
            edges, dominated = relabel(rng, n, lg.graph.edges(), dg.bits(lg.dominated))
            dominated = dg.mask_of(dominated)
            turn = dg.Turn.DOMINATOR if start == "dominator" else dg.Turn.STALLER
            graphs.append((spec, start, dg.make_graph(n, edges), dominated, turn))
        return {"graphs": graphs}

    def warm(self, dg, inputs):
        dg.Solver(dg.path_graph(10)).game_value()

    def run_pass(self, dg, inputs, span, tick):
        res = PassResult()
        for spec, start, graph, dominated, turn in inputs["graphs"]:
            tick()
            t0 = perf_counter()
            value = dg.Solver(graph).game_value(dominated, turn)
            res.requests.append((t0, perf_counter()))
            res.outputs.append(value)
            res.covered += 1
        return res

    def check(self, dg, inputs, outputs, cache):
        golden = load_expected(cache)["deep_values"]
        notes = []
        for (spec, start, *_), value in zip(inputs["graphs"], outputs):
            known = dg.oracle.known_family_value(spec)
            # The closed forms are for Dominator-start games, except the
            # dominated path pieces, whose Staller-start value is tabled.
            if spec.family == "double-prime-path":
                known = dg.KnownValue(dg.partial_path_values(
                    spec.params["n"], dg.PiecePrimeKind.DOUBLE_PRIME)[1], True)
            key = deep_key(spec.family, spec.params, start)
            if (value != golden[key] or value > known.value
                    or (known.exact and value != known.value)):
                notes.append(f"{key}: got {value}, expected {golden[key]}")
        return len(outputs), len(notes), notes


class CliSolve:
    """In-process `domgame solve` requests on random edge-list files."""

    name = "cli-solve"
    workers = 1

    @staticmethod
    def pool():
        """The fixed request graphs: (n, edges, dominated, start)."""
        rng = random.Random(CLI_POOL_SEED)
        graphs = []
        for i in range(CLI_REQUESTS):
            n = CLI_ORDERS[i % len(CLI_ORDERS)]
            edges = {tuple(sorted((j, rng.randrange(j)))) for j in range(1, n)}
            while len(edges) < 2 * n - 1:
                edges.add(tuple(sorted(rng.sample(range(n), 2))))
            dominated = rng.sample(range(n), rng.randint(1, 2))
            graphs.append((n, sorted(edges), dominated,
                           "dominator" if i % 2 == 0 else "staller"))
        return graphs

    def build(self, dg, seed, run_dir):
        rng = random.Random(seed)
        graphs = self.pool()
        rng.shuffle(graphs)
        requests = []
        for i, (n, edges, dominated, start) in enumerate(graphs):
            edges, dominated = relabel(rng, n, edges, dominated)
            edges, dominated = sorted(edges), sorted(dominated)
            path = run_dir / f"request-{i:03d}.el"
            path.write_text(f"{n} {len(edges)}\n"
                            + "".join(f"{u} {v}\n" for u, v in edges)
                            + "dominated: " + " ".join(map(str, dominated)) + "\n",
                            encoding="utf-8")
            requests.append((["solve", str(path), "--start", start],
                             n, edges, dominated, start))
        warm_path = run_dir / "warm.el"
        warm_path.write_text("4 3\n0 1\n1 2\n2 3\n", encoding="utf-8")
        return {"requests": requests, "warm": ["solve", str(warm_path)]}

    def warm(self, dg, inputs):
        dg.cli.run(inputs["warm"], out=io.StringIO())

    def run_pass(self, dg, inputs, span, tick):
        res = PassResult()
        for argv, *_ in inputs["requests"]:
            out = io.StringIO()
            tick()
            t0 = perf_counter()
            with span("cli.run"):
                code = dg.cli.run(argv, out=out)
            res.requests.append((t0, perf_counter()))
            res.outputs.append((code, out.getvalue()))
            res.covered += 1
        return res

    def _expected(self, inputs, cache):
        if "cli" not in cache:
            want = []
            for _argv, n, edges, dominated, start in inputs["requests"]:
                game = ReferenceGame(n, edges)
                mask = sum(1 << v for v in dominated)
                dominator = start == "dominator"
                want.append((game.value(mask, dominator),
                             game.optimal_moves(mask, dominator)))
            cache["cli"] = want
        return cache["cli"]

    def check(self, dg, inputs, outputs, cache):
        want = self._expected(inputs, cache)
        notes = []
        for i, ((code, text), (value, moves)) in enumerate(zip(outputs, want)):
            fields = dict(line.split(" = ", 1) for line in text.splitlines()
                          if " = " in line)
            start = inputs["requests"][i][4]
            key = "gamma_g" if start == "dominator" else "gamma_g_staller"
            got_moves = fields.get("optimal_first_moves", "")
            if (code != 0 or fields.get(key) != str(value)
                    or got_moves != ",".join(map(str, moves))):
                notes.append(f"request {i}: exit {code}, output {text!r}, "
                             f"expected value {value} moves {moves}")
        return len(outputs), len(notes), notes


class Workload:
    """Parts run one after the other in each pass; requests are pooled."""

    def __init__(self, name, *parts):
        self.name = name
        self.parts = parts
        self.workers = max(part.workers for part in parts)

    def build(self, dg, seed, run_dir):
        return [part.build(dg, seed, run_dir) for part in self.parts]

    def warm(self, dg, inputs):
        for part, part_inputs in zip(self.parts, inputs):
            part.warm(dg, part_inputs)

    def run_pass(self, dg, inputs, span, tick):
        res = PassResult()
        for part, part_inputs in zip(self.parts, inputs):
            part_res = part.run_pass(dg, part_inputs, span, tick)
            res.requests += part_res.requests
            res.outputs.append(part_res.outputs)
            res.covered += part_res.covered
            res.worker_states += part_res.worker_states
        return res

    def check(self, dg, inputs, outputs, cache):
        attempted = failed = 0
        notes = []
        for part, part_inputs, part_outputs in zip(self.parts, inputs, outputs):
            a, f, n = part.check(dg, part_inputs, part_outputs,
                                 cache.setdefault(part.name, {}))
            attempted += a
            failed += f
            notes += [f"{part.name}: {note}" for note in n]
        return attempted, failed, notes


WORKLOADS = {w.name: w for w in (Workload("sweeps", EdgeSweep(), FamilySweep()),
                                 Workload("solves", DeepSolve(), CliSolve()))}
