"""Command-line frontend.

Text output is line oriented (`key = value`) so shell tests can grep it.
Exit codes: 0 success / bounds hold, 1 bound violation or table
mismatch, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from concurrent.futures.process import BrokenProcessPool

from . import harness
from .families import (FAMILY_NAMES, FamilySpec, cycle_graph, family_order,
                       generate, path_graph)
from .graph import (GraphError, PartiallyDominatedGraph, bits, format_edge_list,
                    mask_of, non_edges, parse_edge_list)
from .solver import (MemoLimitExceeded, Solver, SolverConfig, Turn,
                     VertexCapExceeded, domination_number)

# Desk-scale order caps per (base, edges added); the paper's full ranges
# sit behind --full because the memo table grows as 2^n.
DESK_CAPS = {("path", 2): 14, ("path", 3): 12, ("cycle", 2): 14, ("cycle", 3): 12}
FULL_CAPS = {("path", 2): 21, ("path", 3): 15, ("cycle", 2): 24, ("cycle", 3): 20}


# Sweepable families: each one's spec builder and the options it reads, in
# the builder's argument order, with their defaults.  `sweep FAMILY` takes
# exactly these options.
_SWEEPS = {
    "tadpole": (harness.tadpole_specs, {"--max-order": 20}),
    "two-tailed-tadpole": (harness.two_tailed_specs, {"--max-order": 18}),
    "hatted-cycle": (harness.hatted_cycle_specs, {"--from": 4, "--to": 21}),
    "broken-ladder": (harness.broken_ladder_specs, {"--k-max": 3}),
    "cycle-chord": (harness.cycle_chord_specs, {"--max-order": 18}),
    "fx": (harness.random_fx_specs,
           {"--count": 50, "--seed": 0, "--max-order": 18}),
    "r-graph": (lambda n: harness.r_graph_specs(_int_list("--n", n)),
                {"--n": "2,3,4"}),
}


class UsageError(Exception):
    pass


@functools.cache
def _build_parser():
    p = argparse.ArgumentParser(prog="domgame",
                                description="Exact domination game toolkit")
    p.add_argument("--vertex-cap", type=int, default=None,
                   help="solver refusal threshold")
    p.add_argument("--memo-limit", type=int, default=None)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for sweeps, 1..CPU count")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--output", default=None, help="write output here instead of stdout")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="game value of a graph file")
    s.add_argument("file")
    s.add_argument("--dominated", default=None,
                   help="comma-separated pre-dominated vertex ids")
    s.add_argument("--start", choices=("dominator", "staller"),
                   default="dominator")

    s = sub.add_parser("gamma", help="domination number of a graph file")
    s.add_argument("file")

    s = sub.add_parser("family", help="generate a named family instance")
    s.add_argument("name", choices=FAMILY_NAMES)
    s.add_argument("params", nargs="*", help="key=value parameters")
    s.add_argument("--emit", default=None, help="write the edge list here")
    s.add_argument("--solve", action="store_true")

    s = sub.add_parser("sweep", help="solve a family over a parameter range")
    families = s.add_subparsers(dest="name", required=True)
    for name, (_, options) in _SWEEPS.items():
        f = families.add_parser(name)
        for option, default in options.items():
            f.add_argument(option, type=type(default), default=default)

    s = sub.add_parser("add-edges", help="enumerate edge additions to a path/cycle")
    s.add_argument("--base", choices=("path", "cycle"), required=True)
    s.add_argument("--k", type=int, required=True)
    order = s.add_mutually_exclusive_group()
    order.add_argument("--n", type=int, default=None,
                       help="single order; omit to sweep 4..cap")
    order.add_argument("--full", action="store_true",
                       help="use the full published ranges (slow: memo is 2^n)")
    s.add_argument("--no-symmetry", action="store_true")

    sub.add_parser("verify-tables", help="regenerate the residue-case tables")

    s = sub.add_parser("props", help="seeded randomized property suite")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--trials", type=int, default=500)
    return p


def _config(args) -> SolverConfig:
    """Validate every resource limit before any command does work."""
    limits = {}
    if args.vertex_cap is not None:
        limits["vertex_cap"] = args.vertex_cap
    if args.memo_limit is not None:
        limits["memo_limit"] = args.memo_limit
    cpus = os.cpu_count() or 1
    if not 1 <= args.workers <= cpus:
        raise UsageError(f"--workers must lie in 1..{cpus}, got {args.workers}")
    try:
        return SolverConfig(**limits)
    except ValueError as exc:
        raise UsageError(str(exc))


def _load(path: str) -> PartiallyDominatedGraph:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    try:
        return parse_edge_list(text)
    except GraphError as exc:
        raise UsageError(f"malformed edge list in {path}: {exc}")


def _int_list(name: str, text: str) -> list:
    """The non-negative integers of a comma-separated list; blank items are
    skipped, so an empty list is allowed."""
    items = [s.strip() for s in text.split(",") if s.strip()]
    for item in items:
        if not item.isdecimal():
            raise UsageError(f"bad {name} list {text!r}: {item!r} is not "
                             "a non-negative integer")
    return [int(s) for s in items]


def _parse_params(items):
    params = {}
    for item in items:
        if "=" not in item:
            raise UsageError(f"parameter {item!r} is not key=value")
        key, _, val = item.partition("=")
        if key == "d":
            params[key] = _int_list("d=", val)
        elif key == "w":
            params[key] = mask_of(_int_list("w=", val))
        elif key == "x-file":
            params["x"] = _load(val).graph
        elif key == "x":
            # fx's building graph is a graph, not a number.
            raise UsageError(f"parameter {item!r}: give the building graph "
                             "as x-file=PATH")
        else:
            try:
                params[key] = int(val)
            except ValueError:
                raise UsageError(f"parameter {item!r} needs an integer value")
    return params


class _OutputFile:
    """The --output file, truncated by the first write: a command that
    fails before it writes leaves the old file as it was."""

    def __init__(self, path):
        # Append mode truncates nothing, but an unwritable path fails here,
        # before the command does any work.
        open(path, "a", encoding="utf-8").close()
        self.path, self.fh = path, None

    def write(self, text):
        self.fh = self.fh or open(self.path, "w", encoding="utf-8")
        self.fh.write(text)

    def close(self):
        if self.fh:
            self.fh.close()


def _emit_report(report, args, out):
    out.write(report.render(args.format))
    return 0 if report.ok else 1


def _cmd_solve(args, cfg, out):
    pdg = _load(args.file)
    dominated = pdg.dominated
    if args.dominated is not None:
        # Explicit flag overrides the file's dominated: line.
        dominated = mask_of(_int_list("--dominated", args.dominated))
        if dominated & ~pdg.graph.full_mask:
            raise UsageError(f"--dominated id out of range in {args.dominated!r}")
    turn = Turn.DOMINATOR if args.start == "dominator" else Turn.STALLER
    solver = Solver(pdg.graph, cfg)
    # Both answers before the first write: a limit failure prints nothing.
    value = solver.game_value(dominated, turn)
    moves = solver.optimal_first_moves(dominated, turn) if value else 0
    key = "gamma_g" if turn is Turn.DOMINATOR else "gamma_g_staller"
    out.write(f"{key} = {value}\n")
    if value:
        out.write("optimal_first_moves = "
                  + ",".join(str(v) for v in bits(moves)) + "\n")
    return 0


def _cmd_gamma(args, cfg, out):
    pdg = _load(args.file)
    out.write(f"gamma = {domination_number(pdg.graph, cfg)}\n")
    return 0


def _cmd_family(args, cfg, out):
    try:
        spec = FamilySpec(args.name, _parse_params(args.params))
        if args.solve:
            cfg.check_order(family_order(spec))
        pdg = generate(spec)
    except GraphError as exc:
        raise UsageError(str(exc))
    # Solved before the first write or --emit: a limit failure leaves neither.
    value = Solver(pdg.graph, cfg).game_value(pdg.dominated) if args.solve else None
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(format_edge_list(pdg))
    out.write(f"family = {spec.describe()}\n")
    out.write(f"n = {pdg.graph.n}\n")
    out.write(f"m = {pdg.graph.edge_count}\n")
    if args.emit:
        out.write(f"emitted = {args.emit}\n")
    if args.solve:
        out.write(f"gamma_g = {value}\n")
    return 0


def _cmd_sweep(args, cfg, out):
    build, options = _SWEEPS[args.name]
    specs = build(*(getattr(args, o[2:].replace("-", "_")) for o in options))
    report = harness.sweep_family(specs, config=cfg,
                                  workers=args.workers,
                                  name=f"sweep-{args.name}")
    return _emit_report(report, args, out)


def _cmd_add_edges(args, cfg, out):
    caps = FULL_CAPS if args.full else DESK_CAPS
    if args.n is not None:
        orders = [args.n]
    else:
        try:
            cap = caps[(args.base, args.k)]
        except KeyError:
            raise UsageError(f"no default range for base={args.base} k={args.k}; "
                             "pass --n explicitly")
        cfg.check_order(cap)
        if args.full:
            print(f"warning: full range up to n={cap}; this can take hours",
                  file=sys.stderr)
        # From the least order with at least k non-edges to add.
        base = path_graph if args.base == "path" else cycle_graph
        orders = [n for n in range(4, cap + 1)
                  if len(non_edges(base(n))) >= args.k]
    status = 0
    for n in orders:
        report = harness.enumerate_edge_additions(
            args.base, n, args.k, config=cfg,
            symmetry=not args.no_symmetry, workers=args.workers)
        status = max(status, _emit_report(report, args, out))
    return status


def _cmd_verify_tables(args, cfg, out):
    return _emit_report(harness.verify_tables(), args, out)


def _cmd_props(args, cfg, out):
    report = harness.property_suite(args.seed, args.trials, config=cfg)
    return _emit_report(report, args, out)


_COMMANDS = {
    "solve": _cmd_solve,
    "gamma": _cmd_gamma,
    "family": _cmd_family,
    "sweep": _cmd_sweep,
    "add-edges": _cmd_add_edges,
    "verify-tables": _cmd_verify_tables,
    "props": _cmd_props,
}


def run(argv=None, out=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        cfg = _config(args)
        sink = (contextlib.closing(_OutputFile(args.output)) if args.output
                else contextlib.nullcontext(out or sys.stdout))
        with sink as fh:
            return _COMMANDS[args.command](args, cfg, fh)
    except (UsageError, GraphError, VertexCapExceeded, MemoLimitExceeded,
            BrokenProcessPool, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
