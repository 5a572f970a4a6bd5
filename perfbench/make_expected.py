"""Record the values the benchmark checks against in expected.json.

Every value comes from `reference.ReferenceGame`, which shares no code
with the domgame solver; the library only builds the family graphs.
Takes a few minutes.  Run from the repository root:

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import domgame  # noqa: E402
import domgame.harness  # noqa: E402
from reference import ReferenceGame  # noqa: E402
from workloads import (DEEP_GRAPHS, EDGE_SWEEPS, EXPECTED_PATH,  # noqa: E402
                       FIXED_BLOCKS, deep_key)


def edge_sweep(base, n, k):
    if base == "path":
        base_edges = [(v, v + 1) for v in range(n - 1)]
    else:
        base_edges = [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)]
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)
                  if (u, v) not in base_edges]
    histogram = {}
    best, witness = 0, None
    for combo in itertools.combinations(candidates, k):
        value = ReferenceGame(n, base_edges + list(combo)).value()
        histogram[str(value)] = histogram.get(str(value), 0) + 1
        if value > best:
            best, witness = value, combo
    return {"graph_count": sum(histogram.values()), "histogram": histogram,
            "max_value": best, "witness": [list(e) for e in witness]}


def graph_value(spec, start="dominator"):
    lg = domgame.generate(spec)
    game = ReferenceGame(lg.graph.n, lg.graph.edges())
    return game.value(lg.dominated, start == "dominator")


def main():
    doc = {"edge_sweeps": {}, "family_values": {}, "deep_values": {}}
    for base, n, k in EDGE_SWEEPS:
        doc["edge_sweeps"][f"{base}-{n}-{k}"] = edge_sweep(base, n, k)
    for _name, builder, args in FIXED_BLOCKS:
        for spec in getattr(domgame.harness, builder)(*args):
            doc["family_values"][spec.describe()] = graph_value(spec)
    for family, params, start in DEEP_GRAPHS:
        spec = domgame.FamilySpec(family, dict(params))
        doc["deep_values"][deep_key(family, params, start)] = graph_value(spec, start)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
