"""Acceptance suite: one test per criterion, exact tolerances, one
pass/fail line printed per criterion."""

import time

import pytest

from domgame import harness
from domgame.families import (FamilySpec, generate, halin_dominating_set,
                              path_graph, cycle_graph)
from domgame.graph import non_edges
from domgame.oracle import (PiecePrimeKind, partial_path_values,
                            path_cycle_gamma_g)
from domgame.solver import Solver, Turn, domination_number


def _report(number, label, started):
    print(f"ACCEPTANCE {number} [{label}]: PASS ({time.perf_counter() - started:.1f}s)")


def test_criterion_1_path_cycle_closed_forms():
    t0 = time.perf_counter()
    for n in range(1, 19):
        assert Solver(path_graph(n)).game_value() == path_cycle_gamma_g(n, "path"), n
    for n in range(3, 19):
        assert Solver(cycle_graph(n)).game_value() == path_cycle_gamma_g(n, "cycle"), n
    assert time.perf_counter() - t0 < 60
    _report(1, "path/cycle closed forms, n <= 18", t0)


def test_criterion_2_dominated_path_piece_formulas():
    t0 = time.perf_counter()
    for n in range(0, 19):
        for fam, kind in (("prime-path", PiecePrimeKind.PRIME),
                          ("double-prime-path", PiecePrimeKind.DOUBLE_PRIME)):
            lg = generate(FamilySpec(fam, {"n": n}))
            s = Solver(lg.graph)
            got = (s.game_value(lg.dominated),
                   s.game_value(lg.dominated, Turn.STALLER))
            assert got == partial_path_values(n, kind), (fam, n, got)
    assert time.perf_counter() - t0 < 60
    _report(2, "dominated path pieces, both starters, n <= 18", t0)


def test_criterion_3_p11_edge_addition_example():
    t0 = time.perf_counter()
    assert Solver(path_graph(11)).game_value() == 5

    one = harness.enumerate_edge_additions("path", 11, 1)
    assert one.max_value == 5
    assert one.parameters["graph_count"] == 45

    two = harness.enumerate_edge_additions("path", 11, 2)
    assert two.max_value == 5
    assert two.parameters["graph_count"] == 990

    three = harness.enumerate_edge_additions("path", 11, 3)
    assert three.max_value == 6
    witnesses = {tuple(tuple(e) for e in w) for w in three.witnesses}
    assert ((0, 4), (1, 7), (5, 8)) in witnesses
    assert ((0, 4), (2, 7), (5, 8)) in witnesses
    assert time.perf_counter() - t0 < 600
    _report(3, "P_11 plus 1/2/3 edges", t0)


@pytest.mark.parametrize("base,k,n_max", [
    ("path", 2, 14), ("path", 3, 12), ("cycle", 2, 14), ("cycle", 3, 12),
])
def test_criterion_4_edge_addition_sweeps(base, k, n_max):
    t0 = time.perf_counter()
    base_graph = path_graph if base == "path" else cycle_graph
    for n in range(4, n_max + 1):
        if len(non_edges(base_graph(n))) < k:
            # C_4 has 2 non-edges: there is no graph to solve, and an
            # empty sweep is refused rather than reported as holding.
            with pytest.raises(ValueError, match="too few to add"):
                harness.enumerate_edge_additions(base, n, k)
            continue
        r = harness.enumerate_edge_additions(base, n, k)
        assert r.ok, (base, n, k, r.notes)
        assert r.max_value <= -(-n // 2)
    assert time.perf_counter() - t0 < 1800
    _report(4, f"{base} + {k} edges, 4 <= n <= {n_max}", t0)


def test_criterion_5_family_sweeps():
    t0 = time.perf_counter()
    for k in range(0, 4):
        lg = generate(FamilySpec("broken-ladder", {"k": k}))
        assert Solver(lg.graph).game_value() == 2 * (k + 2), k

    hc = harness.sweep_family(harness.hatted_cycle_specs(4, 21))
    assert hc.ok and not hc.notes  # notes would list oracle disagreements
    for n in range(4, 22):
        lg = generate(FamilySpec("hatted-cycle", {"n": n}))
        assert Solver(lg.graph).game_value() == path_cycle_gamma_g(n, "cycle"), n

    tad = harness.sweep_family(harness.tadpole_specs(20))
    assert tad.ok and len(tad.rows) > 0

    tt = harness.sweep_family(harness.two_tailed_specs(18))
    assert tt.ok
    lg = generate(FamilySpec("two-tailed-tadpole", {"m": 4, "n": 4, "k": 4}))
    assert Solver(lg.graph).game_value() == 6

    chords = harness.sweep_family(harness.cycle_chord_specs(18))
    assert chords.ok

    fx = harness.sweep_family(harness.random_fx_specs(50, 20260823, 18))
    assert fx.ok and len(fx.rows) == 50
    _report(5, "family sweeps (ladders, hats, tadpoles, chords, fx)", t0)


def test_criterion_6_residue_tables():
    t0 = time.perf_counter()
    r = harness.verify_tables()
    assert r.ok, r.notes
    assert r.parameters["exception_count"] == 16
    assert time.perf_counter() - t0 < 1
    _report(6, "residue tables regenerate exactly", t0)


def test_criterion_7_halin():
    t0 = time.perf_counter()
    cases = [(2, [3, 3]), (2, [4, 3]), (3, [3, 3, 3])]
    for k, d in cases:
        lg = generate(FamilySpec("halin", {"k": k, "d": d}))
        dom = halin_dominating_set(k, d)
        covered = 0
        for v in range(lg.graph.n):
            if dom & (1 << v):
                covered |= lg.graph.closed[v]
        assert covered == lg.graph.full_mask, (k, d)

    h233 = generate(FamilySpec("halin", {"k": 2, "d": [3, 3]}))
    assert domination_number(h233.graph) <= 3
    assert Solver(h233.graph).game_value() < 13 / 2 - 1

    # boundary case is reported, not asserted
    wheel = halin_dominating_set(1, [3])
    print(f"halin boundary report: k=1 d=[3] gives |D|={wheel.bit_count()} "
          f"= n/4 exactly (no strictness)")

    # Each picked level dominates a band of levels ({L0, L1} for the root,
    # {L2, L3} for level 2, {L(i-1), L(i), L(i+1)} otherwise) holding at
    # least four times as many vertices, so 4|D| <= n. Equality holds
    # exactly for k = 1, d0 = 3 and for k = 3, d0 = d2 = 3.
    for k, d in cases:
        g = generate(FamilySpec("halin", {"k": k, "d": d})).graph
        size = halin_dominating_set(k, d).bit_count()
        assert 4 * size <= g.n, (
            f"halin({k};{d}): |D| = {size}, n = {g.n}: the quarter bound fails")
        if not ((k == 1 and d[0] == 3) or (k == 3 and d[0] == d[2] == 3)):
            assert 4 * size < g.n, (
                f"halin({k};{d}): |D| = {size}, n = {g.n}: the strict quarter "
                f"bound fails outside the equality families")
            continue
        # a 2-packing of size n/4 forces gamma >= n/4, so |D| = n/4 is optimal
        assert 4 * size == g.n, (k, d)
        packing = _greedy_two_packing(g)
        assert _is_two_packing(g, packing), packing
        assert 4 * len(packing) == g.n, (k, d, packing)
        print(f"halin boundary report: k={k} d={d} gives |D|={size} = n/4 "
              f"exactly; 2-packing {packing} shows gamma = n/4")
    _report(7, "halin dominating sets", t0)


def _greedy_two_packing(graph):
    """Vertices taken in id order whenever their closed neighbourhood misses
    the closed neighbourhoods of those already taken."""
    packing, used = [], 0
    for v in range(graph.n):
        if not graph.closed[v] & used:
            packing.append(v)
            used |= graph.closed[v]
    return packing


def _is_two_packing(graph, vertices):
    """True when the closed neighbourhoods of `vertices` are pairwise
    disjoint."""
    return all(not graph.closed[u] & graph.closed[v]
               for i, u in enumerate(vertices) for v in vertices[i + 1:])


def test_criterion_8_r_graphs():
    t0 = time.perf_counter()
    for n in (2, 3, 4):
        lg = generate(FamilySpec("r-graph", {"n": n}))
        assert Solver(lg.graph).game_value() <= 2 * n + 2, n

    r11 = generate(FamilySpec("r-graph", {"n": 2}))
    assert Solver(r11.graph).optimal_first_moves() == r11.graph.full_mask

    # The R-graph of parameter n has order 4n+3, so the half-order bound
    # of its sweep row is 2n+2, and is_half_graph is equality with it.
    evidence = harness.sweep_family(harness.r_graph_specs([2, 3, 4]))
    assert evidence.ok
    assert [row["n"] for row in evidence.rows] == [11, 15, 19]
    for n, row in zip((2, 3, 4), evidence.rows):
        assert row["bound"] == 2 * n + 2
        assert row["is_half_graph"] == (row["gamma_g"] == 2 * n + 2)
        print(f"r-graph equality evidence: n={n} gamma_g={row['gamma_g']} "
              f"target={row['bound']} equality={row['is_half_graph']}")
    _report(8, "r-graph bounds and optimal first moves", t0)


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    r = harness.property_suite(seed=20260823, trials=500)
    by_name = {row["property"]: row for row in r.rows}
    for prop in ("continuation-principle", "union-bound",
                 "gamma-sandwich", "search-soundness"):
        assert by_name[prop]["trials"] >= 500
        assert by_name[prop]["failures"] == 0, prop
    _report(9, "seeded property suites, 500 trials each", t0)
