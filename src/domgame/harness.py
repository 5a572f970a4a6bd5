"""Batch experiments: edge-addition sweeps, family sweeps (one row per
instance against the half-order bound), table checks and seeded
randomized property suites.

Reports are plain data (JSON / CSV serializable) and deterministic for a
fixed seed and configuration; parallel runs merge results in input order
so worker scheduling cannot leak into the output.
"""

import csv
import io
import json
import random
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from . import oracle
from .analysis import hamiltonian_endpoints
from .canon import canonical_form, canonical_key, edge_set_orbits
from .families import (FamilySpec, cycle_graph, family_order, generate,
                       path_graph)
from .graph import (Graph, PartiallyDominatedGraph, add_edges, bits,
                    disjoint_union, is_connected, make_graph, non_edges)
from .solver import Solver, SolverConfig, Turn, domination_number


@dataclass
class ExperimentReport:
    name: str
    parameters: dict
    rows: list = field(default_factory=list)
    max_value: int | None = None
    witnesses: list = field(default_factory=list)
    wall_time: float = 0.0
    solver_stats: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)  # one per failed check

    @property
    def ok(self) -> bool:
        return not self.notes

    def render(self, fmt: str) -> str:
        """The report as "json", "csv" or line-oriented "text"."""
        if fmt == "json":
            return self.to_json() + "\n"
        if fmt == "csv":
            return self.to_csv()
        lines = [f"experiment = {self.name}", f"ok = {self.ok}"]
        lines += [f"{k} = {v}" for k, v in sorted(self.parameters.items())]
        if self.max_value is not None:
            lines.append(f"max_value = {self.max_value}")
        lines += [f"note = {note}" for note in self.notes]
        lines += [f"witness = {w}" for w in self.witnesses[:20]]
        lines.append(f"wall_time = {self.wall_time:.3f}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        # vars, not asdict: the fields as they are, without a deep copy.
        return json.dumps({**vars(self), "ok": self.ok}, sort_keys=True)

    def to_csv(self) -> str:
        """One column per row key, in first-seen order; a row without a
        key leaves its field empty."""
        columns = list(dict.fromkeys(key for row in self.rows for key in row))
        buf = io.StringIO()
        writer = csv.DictWriter(buf, columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(self.rows)
        return buf.getvalue()


# ---------------------------------------------------------------------------
# Batch solving: every sweep goes through _solve_all
# ---------------------------------------------------------------------------

def _sweep_one(args):
    pdg, cfg = args
    solver = Solver(pdg.graph, cfg)
    return solver.game_value(pdg.dominated), solver.states_explored


# The process's one worker pool as (workers, executor), or None.
# concurrent.futures joins its workers at interpreter exit, so nothing here
# registers a hook for that.  Workers are forked, the default start method,
# when the pool takes its first jobs, so they see the module state of that
# moment.
_pool = None


def _pool_map(jobs, workers, chunksize):
    """`_sweep_one` of every job, in order, on the pool of `workers`
    processes, kept or fresh as `_solve_all` describes."""
    global _pool
    if _pool is not None and _pool[0] != workers:
        _drop_pool()
    kept = _pool is not None
    if not kept:
        _pool = workers, ProcessPoolExecutor(max_workers=workers)
    try:
        return list(_pool[1].map(_sweep_one, jobs, chunksize=chunksize))
    except BaseException as exc:
        # A pool that breaks terminates its other workers, so this shutdown
        # cannot wait on one blocked on the dead worker's queue lock.  Any
        # other failure ends the workers here, or the shutdown would wait
        # for the jobs they are still running.  (`terminate_workers` needs
        # Python 3.14.)
        if not isinstance(exc, BrokenProcessPool):
            for process in list(_pool[1]._processes.values()):
                process.terminate()
        _drop_pool()
        # A kept pool may have lost a worker while it sat idle.
        if not (kept and isinstance(exc, BrokenProcessPool)):
            raise
    return _pool_map(jobs, workers, chunksize)


def _drop_pool():
    global _pool
    pool, _pool = _pool, None
    pool[1].shutdown()


def _solve_all(instances, cfg, workers, key=canonical_key):
    """The game value of every PartiallyDominatedGraph in the list
    `instances`, in input order, and the batch's solver_stats record.

    Instances with equal keys (by default: isomorphic ones) are one
    class; only the first of each class is solved, and the others copy
    its value, so `instances_solved` counts classes and `states_explored`
    sums the states of those solves.  Every order is checked against the
    vertex cap before the first solve, so an over-cap sweep fails before
    it does any work.

    With workers > 1 the classes are solved on the process's one pool: the
    first such batch starts it and later batches reuse it, so an
    `add-edges` range forks its workers once.  A batch that asks for
    another worker count replaces the pool before it starts.  A batch that
    raises shuts the pool down, so a broken pool is never reused; if the
    pool was kept from an earlier batch and broke (a worker that died
    between batches, say), the batch runs once more on a fresh pool."""
    cfg.check_order(max((pdg.graph.n for pdg in instances), default=0))
    first = {}
    owner = [first.setdefault(key(pdg.graph, pdg.dominated), i)
             for i, pdg in enumerate(instances)]
    jobs = [(instances[i], cfg) for i in first.values()]
    if workers <= 1:
        solved = [_sweep_one(job) for job in jobs]
    else:
        # Four chunks per worker, the rule of multiprocessing.Pool.map:
        # large enough to amortize the pickling, small enough that every
        # worker gets a share of a batch of a few dozen classes.
        chunksize = max(1, -(-len(jobs) // (4 * workers)))
        solved = _pool_map(jobs, workers, chunksize)
    value_of = {i: value for i, (value, _) in zip(first.values(), solved)}
    stats = {"instances_solved": len(jobs),
             "states_explored": sum(states for _, states in solved)}
    return [value_of[i] for i in owner], stats


# ---------------------------------------------------------------------------
# Edge-addition sweeps
# ---------------------------------------------------------------------------

EDGE_BASES = {"path": path_graph, "cycle": cycle_graph}


def enumerate_edge_additions(base: str, n: int, k: int, *,
                             config: SolverConfig = SolverConfig(),
                             symmetry: bool = True,
                             workers: int = 1) -> ExperimentReport:
    """Solve every addition of k edges to P_n or C_n and record the maximum.

    With symmetry on, the edge sets fall into orbits of the base graph's
    automorphism group, and only one graph per isomorphism class of the
    orbit representatives is solved; counts and witnesses are expanded
    back to every labeled edge set, so the report is identical either
    way.  With symmetry off, every labeled edge set is solved on its own.
    """
    if base not in EDGE_BASES:
        raise ValueError(f"base must be {' or '.join(map(repr, EDGE_BASES))}, "
                         f"got {base!r}")
    if k < 1:
        raise ValueError("need at least one edge to add")
    config.check_order(n)
    t0 = time.perf_counter()
    g = EDGE_BASES[base](n)
    if symmetry:
        generators, key = canonical_form(g)[1], canonical_key
    else:
        # No generators: one edge set per orbit, one graph per class.
        generators, key = [], lambda graph, dominated: (graph, dominated)
    # Each orbit's least member is the edge set solved for it.
    orbits = edge_set_orbits(g, k, generators)
    if not orbits:
        raise ValueError(f"{base} of order {n} has {len(non_edges(g))} "
                         f"non-edges, too few to add {k}")

    values, stats = _solve_all(
        [PartiallyDominatedGraph(add_edges(g, orbit[0])) for orbit in orbits],
        config, workers, key)

    bound = -(-n // 2)
    max_value = max(values)
    histogram = {}
    witnesses = []
    violations = 0
    for orbit, value in zip(orbits, values):
        histogram[value] = histogram.get(value, 0) + len(orbit)
        if value == max_value:
            witnesses.extend([list(e) for e in member] for member in orbit)
        if value > bound:
            violations += len(orbit)
    witnesses.sort()
    rows = [{"n": n, "gamma_g": v, "count": c} for v, c in sorted(histogram.items())]
    return ExperimentReport(
        name=f"{base}-plus-{k}-edges",
        parameters={"base": base, "n": n, "edges_added": k,
                    "symmetry": symmetry, "graph_count": sum(map(len, orbits)),
                    "bound": bound},
        rows=rows,
        max_value=max_value,
        witnesses=witnesses,
        wall_time=time.perf_counter() - t0,
        solver_stats=stats,
        notes=([f"bound {bound} exceeded by {violations} edge sets"]
               if violations else []),
    )


# ---------------------------------------------------------------------------
# Family sweeps
# ---------------------------------------------------------------------------

def sweep_family(specs, *, config: SolverConfig = SolverConfig(),
                 workers: int = 1, name: str = "family-sweep") -> ExperimentReport:
    """Solve every instance, check the half-order bound, and compare the
    solver against the closed-form value where one is published.  One row
    per spec, in spec order.

    Each spec's order is checked against the vertex cap before its graph
    is generated, so an over-cap sweep stops at its first spec over the
    cap and generates neither it nor any spec after it."""
    specs = list(specs)
    if not specs:
        raise ValueError(f"{name} has no instances to solve")
    t0 = time.perf_counter()
    pdgs = []
    for spec in specs:
        config.check_order(family_order(spec))
        pdgs.append(generate(spec))
    values, stats = _solve_all(pdgs, config, workers)

    rows = []
    notes = []
    for spec, pdg, gg in zip(specs, pdgs, values):
        n = pdg.graph.n
        bound = -(-n // 2)
        rows.append({"family": spec.family, "params": spec.describe(), "n": n,
                     "gamma_g": gg, "bound": bound, "holds": gg <= bound,
                     "is_half_graph": gg == bound})
        try:
            known = oracle.known_family_value(spec)
        except ValueError:
            known = None
        if known is not None:
            if known.exact and gg != known.value:
                notes.append(f"{spec.describe()}: solver {gg} != "
                             f"closed form {known.value}")
            elif not known.exact and gg > known.value:
                notes.append(f"{spec.describe()}: solver {gg} exceeds "
                             f"published bound {known.value}")
    if not all(r["holds"] for r in rows):
        notes.append("half-order bound violated; see rows")
    return ExperimentReport(
        name=name,
        parameters={"instances": len(specs)},
        rows=rows,
        max_value=max((r["gamma_g"] for r in rows), default=None),
        wall_time=time.perf_counter() - t0,
        solver_stats=stats,
        notes=notes,
    )


def tadpole_specs(max_order: int):
    return [FamilySpec("tadpole", {"m": m, "n": n})
            for m in range(3, max_order)
            for n in range(1, max_order - m + 1)]


def two_tailed_specs(max_order: int):
    return [FamilySpec("two-tailed-tadpole", {"m": m, "n": n, "k": k})
            for m in range(3, max_order - 1)
            for n in range(1, max_order - m)
            for k in range(1, max_order - m - n + 1)]


def hatted_cycle_specs(lo: int, hi: int):
    return [FamilySpec("hatted-cycle", {"n": n}) for n in range(lo, hi + 1)]


def broken_ladder_specs(k_max: int):
    return [FamilySpec("broken-ladder", {"k": k}) for k in range(k_max + 1)]


def cycle_chord_specs(max_n: int):
    return [FamilySpec("cycle-chord", {"n": n, "i": i})
            for n in range(4, max_n + 1) for i in range(3, n)]


def random_fx_specs(count: int, seed: int, max_order: int):
    """Seeded random instances of the traceable-core attachment family."""
    if max_order < 5:
        raise ValueError(f"fx max order must be at least 5 (x needs 2 vertices, "
                         f"the tail 3), got {max_order}")
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        nx = rng.randint(2, max(2, (max_order - 3) // 2))
        n = rng.randint(3, max_order - nx)
        # Traceable by construction: a path plus random extra edges.
        extra = [(u, v) for u in range(nx) for v in range(u + 2, nx)
                 if rng.random() < 0.3]
        x = make_graph(nx, [(v, v + 1) for v in range(nx - 1)] + extra)
        endpoints = hamiltonian_endpoints(x)
        w = _random_submask(rng, x.full_mask)
        if not w & endpoints:
            w |= endpoints & -endpoints
        specs.append(FamilySpec("fx", {"x": x, "n": n, "w": list(bits(w))}))
    return specs


def r_graph_specs(n_values):
    return [FamilySpec("r-graph", {"n": n}) for n in n_values]


# ---------------------------------------------------------------------------
# Residue table verification
# ---------------------------------------------------------------------------

TADPOLE_TABLE_EXPECTED = {
    (0, 0): (1, 4, 2), (0, 1): (2, 5, 3), (0, 2): (3, 6, 3), (0, 3): (3, 7, 4),
    (1, 0): (2, 5, 3), (1, 1): (3, 6, 3), (1, 2): (4, 7, 4), (1, 3): (4, 8, 4),
    (2, 0): (3, 6, 3), (2, 1): (4, 7, 4), (2, 2): (4, 8, 4), (2, 3): (5, 9, 5),
    (3, 0): (3, 7, 4), (3, 1): (4, 8, 4), (3, 2): (5, 9, 5), (3, 3): (5, 10, 5),
}

TWO_TAILED_TABLE_EXPECTED = {
    (0, 0, 0): (1, 2, True), (0, 0, 1): (2, 2, True), (0, 0, 2): (3, 3, True),
    (0, 0, 3): (3, 3, True), (0, 1, 0): (2, 2, True), (0, 1, 1): (3, 3, True),
    (0, 1, 2): (3, 3, True), (0, 1, 3): (3, 4, True), (0, 2, 0): (3, 3, True),
    (0, 2, 1): (3, 3, True), (0, 2, 2): (3, 4, True), (0, 2, 3): (4, 4, True),
    (0, 3, 0): (3, 3, True), (0, 3, 1): (3, 4, True), (0, 3, 2): (4, 4, True),
    (0, 3, 3): (5, 5, True), (1, 0, 0): (2, 2, True), (1, 0, 1): (3, 3, True),
    (1, 0, 2): (4, 3, False), (1, 0, 3): (4, 4, True), (1, 1, 0): (3, 3, True),
    (1, 1, 1): (4, 3, False), (1, 1, 2): (4, 4, True), (1, 1, 3): (4, 4, True),
    (1, 2, 0): (4, 3, False), (1, 2, 1): (4, 4, True), (1, 2, 2): (4, 4, True),
    (1, 2, 3): (5, 5, True), (1, 3, 0): (4, 4, True), (1, 3, 1): (4, 4, True),
    (1, 3, 2): (5, 5, True), (1, 3, 3): (6, 5, False), (2, 0, 0): (3, 3, True),
    (2, 0, 1): (4, 3, False), (2, 0, 2): (4, 4, True), (2, 0, 3): (5, 4, False),
    (2, 1, 0): (4, 3, False), (2, 1, 1): (4, 4, True), (2, 1, 2): (5, 4, False),
    (2, 1, 3): (5, 5, True), (2, 2, 0): (4, 4, True), (2, 2, 1): (5, 4, False),
    (2, 2, 2): (5, 5, True), (2, 2, 3): (6, 5, False), (2, 3, 0): (5, 4, False),
    (2, 3, 1): (5, 5, True), (2, 3, 2): (6, 5, False), (2, 3, 3): (6, 6, True),
    (3, 0, 0): (3, 3, True), (3, 0, 1): (4, 4, True), (3, 0, 2): (5, 4, False),
    (3, 0, 3): (5, 5, True), (3, 1, 0): (4, 4, True), (3, 1, 1): (5, 4, False),
    (3, 1, 2): (5, 5, True), (3, 1, 3): (5, 5, True), (3, 2, 0): (5, 4, False),
    (3, 2, 1): (5, 5, True), (3, 2, 2): (5, 5, True), (3, 2, 3): (6, 6, True),
    (3, 3, 0): (5, 5, True), (3, 3, 1): (5, 5, True), (3, 3, 2): (6, 6, True),
    (3, 3, 3): (7, 6, False),
}

EXCEPTIONAL_RESIDUES_EXPECTED = [
    (2, 2, 2), (2, 3, 1), (2, 0, 0), (2, 1, 3),
    (3, 2, 1), (3, 2, 3), (3, 3, 0), (3, 3, 2),
    (3, 0, 1), (3, 0, 3), (3, 1, 0), (3, 1, 2),
    (0, 2, 2), (0, 3, 1), (0, 0, 0), (0, 1, 3),
]


def verify_tables() -> ExperimentReport:
    """Regenerate the residue-case tables and compare against the frozen
    published constants; a mismatch is reported, not raised."""
    t0 = time.perf_counter()
    rows = []
    mismatches = []
    for table, expected_rows, compute in (
            ("tadpole", TADPOLE_TABLE_EXPECTED, oracle.tadpole_table_row),
            ("two-tailed", TWO_TAILED_TABLE_EXPECTED, oracle.two_tailed_table)):
        for case, expected in sorted(expected_rows.items()):
            got = compute(*case)
            rows.append({"table": table, "case": list(case),
                         "computed": list(got), "expected": list(expected)})
            if got != expected:
                mismatches.append(f"{table} row ({','.join(map(str, case))}): "
                                  f"{got} != {expected}")
    failing = oracle.two_tailed_failing_residues()
    if sorted(failing) != sorted(EXCEPTIONAL_RESIDUES_EXPECTED):
        mismatches.append("exceptional residue set differs from published one")
    rows.append({"table": "exceptions",
                 "computed": [list(t) for t in sorted(failing)],
                 "expected": [list(t) for t in
                              sorted(EXCEPTIONAL_RESIDUES_EXPECTED)]})
    return ExperimentReport(
        name="verify-tables",
        parameters={"tadpole_rows": len(TADPOLE_TABLE_EXPECTED),
                    "two_tailed_rows": len(TWO_TAILED_TABLE_EXPECTED),
                    "exception_count": len(failing)},
        rows=rows,
        wall_time=time.perf_counter() - t0,
        notes=mismatches,
    )


# ---------------------------------------------------------------------------
# Randomized property suite
# ---------------------------------------------------------------------------

def random_graph(rng: random.Random, n: int, p: float,
                 connected: bool = False) -> Graph:
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        g = make_graph(n, edges)
        if not connected or is_connected(g):
            return g


def _random_submask(rng, mask):
    out = 0
    for v in bits(mask):
        if rng.random() < 0.5:
            out |= 1 << v
    return out


def _minimax(g: Graph, s: int, dom: bool, memo: dict) -> int:
    """Plain minimax over every legal move, memoized on (state, turn) but
    with no bounds and no move order: the reference for search-soundness."""
    if s == g.full_mask:
        return 0
    if (s, dom) not in memo:
        values = [_minimax(g, s | r, not dom, memo) for r in g.closed if r & ~s]
        memo[s, dom] = 1 + (min(values) if dom else max(values))
    return memo[s, dom]


def property_suite(seed: int, trials: int, *,
                   config: SolverConfig = SolverConfig()) -> ExperimentReport:
    """Run the randomized solver invariants with a fixed seed."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    rows = []
    failures = []

    def record(prop, failed):
        rows.append({"property": prop, "trials": trials, "failures": failed})
        if failed:
            failures.append(f"{prop}: {failed} failures")

    # Continuation Principle: a larger dominated set never lengthens play.
    failed = 0
    for _ in range(trials):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.uniform(0.2, 0.6))
        a = _random_submask(rng, g.full_mask)
        b = _random_submask(rng, a)
        solver = Solver(g, config)
        for turn in (Turn.DOMINATOR, Turn.STALLER):
            if solver.game_value(a, turn) > solver.game_value(b, turn):
                failed += 1
    record("continuation-principle", failed)

    # Disjoint-union bound for dominated path pieces.
    failed = 0
    for _ in range(trials):
        pdg = None
        pieces = []
        budget = 18
        while budget >= 2 and (not pieces or rng.random() < 0.7):
            kind = rng.choice(list(oracle.PiecePrimeKind))
            overhead = 1 if kind is oracle.PiecePrimeKind.PRIME else 2
            ln = rng.randint(0, min(budget - overhead, 12))
            pieces.append((ln, kind))
            budget -= ln + overhead
            fam = ("prime-path" if kind is oracle.PiecePrimeKind.PRIME
                   else "double-prime-path")
            part = generate(FamilySpec(fam, {"n": ln}))
            pdg = part if pdg is None else disjoint_union(pdg, part)
        value = Solver(pdg.graph, config).game_value(pdg.dominated, Turn.STALLER)
        if value > oracle.union_lemma_bound(pieces):
            failed += 1
    record("union-bound", failed)

    # gamma <= gamma_g <= 2 gamma - 1 on connected graphs.
    failed = 0
    for _ in range(trials):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.uniform(0.25, 0.6), connected=True)
        gamma = domination_number(g, config)
        gg = Solver(g, config).game_value()
        if not gamma <= gg <= 2 * gamma - 1:
            failed += 1
    record("gamma-sandwich", failed)

    # The bounded search must agree with plain minimax, from empty and
    # partially dominated starts.
    failed = 0
    for _ in range(trials):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.uniform(0.2, 0.6))
        dominated = _random_submask(rng, g.full_mask) if rng.random() < 0.5 else 0
        turn = rng.choice(list(Turn))
        value = Solver(g, config).game_value(dominated, turn)
        if value != _minimax(g, dominated, turn is Turn.DOMINATOR, {}):
            failed += 1
    record("search-soundness", failed)

    return ExperimentReport(
        name="property-suite",
        parameters={"seed": seed, "trials": trials},
        rows=rows,
        wall_time=time.perf_counter() - t0,
        notes=failures,
    )
