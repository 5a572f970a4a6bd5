import io
import random

import pytest

from domgame import cli, harness
from domgame.families import FamilySpec, generate, path_graph, cycle_graph
from domgame.graph import PartiallyDominatedGraph, make_graph, mask_of, bits
from domgame.solver import (MemoLimitExceeded, Solver, SolverConfig, Turn,
                            VertexCapExceeded, domination_number, legal_moves)
from domgame.oracle import union_lemma_bound, PiecePrimeKind
from domgame.graph import disjoint_union

from helpers import (naive_domination_number, naive_game_value,
                     naive_optimal_first_moves)


def _random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return make_graph(n, edges)


class TestLegalMoves:
    def test_game_over(self):
        g = cycle_graph(5)
        assert legal_moves(g, g.full_mask) == 0

    def test_p4_partial(self):
        g = path_graph(4)
        assert legal_moves(g, mask_of([0, 1, 2])) == mask_of([2, 3])

    def test_k1(self):
        g = make_graph(1, [])
        assert legal_moves(g, 0) == 1


class TestGameValue:
    def test_p11(self):
        assert Solver(path_graph(11)).game_value() == 5

    def test_r11(self):
        r11 = generate(FamilySpec("r-graph", {"n": 2}))
        assert Solver(r11.graph).game_value() == 6

    def test_fully_dominated(self):
        g = cycle_graph(6)
        assert Solver(g).game_value(g.full_mask) == 0
        assert Solver(g).game_value(g.full_mask, Turn.STALLER) == 0

    def test_double_prime_6_staller(self):
        lg = generate(FamilySpec("double-prime-path", {"n": 6}))
        assert Solver(lg.graph).game_value(lg.dominated, Turn.STALLER) == 4

    def test_matches_naive_minimax(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(1, 6)
            g = _random_graph(rng, n, rng.uniform(0.2, 0.7))
            for turn, dom in ((Turn.DOMINATOR, True), (Turn.STALLER, False)):
                assert Solver(g).game_value(0, turn) == naive_game_value(g, 0, dom)

    def test_vertex_cap(self):
        with pytest.raises(VertexCapExceeded):
            Solver(path_graph(20), SolverConfig(vertex_cap=19))

    def test_memo_limit(self):
        with pytest.raises(MemoLimitExceeded):
            Solver(cycle_graph(16), SolverConfig(memo_limit=5)).game_value()

    def test_solver_usable_after_memo_limit(self):
        solver = Solver(path_graph(14), SolverConfig(memo_limit=50))
        with pytest.raises(MemoLimitExceeded):
            solver.game_value()
        # One undominated vertex left: one move ends the game.
        assert solver.game_value(solver.graph.full_mask & ~1) == 1


class TestOptimalFirstMoves:
    def test_r11_every_vertex_optimal(self):
        r11 = generate(FamilySpec("r-graph", {"n": 2}))
        assert Solver(r11.graph).optimal_first_moves() == r11.graph.full_mask

    def test_k1(self):
        assert Solver(make_graph(1, [])).optimal_first_moves() == 1

    def test_p3_center_only(self):
        g = path_graph(3)
        # Independent check: score each first move with the naive search.
        best = 1 + min(naive_game_value(g, g.closed[v], False) for v in range(3))
        expected = mask_of(v for v in range(3)
                           if 1 + naive_game_value(g, g.closed[v], False) == best)
        assert expected == mask_of([1])
        assert Solver(g).optimal_first_moves() == expected

    def test_no_legal_moves_error(self):
        g = path_graph(2)
        with pytest.raises(ValueError):
            Solver(g).optimal_first_moves(g.full_mask)


class TestForcedFirstMove:
    def test_hatted_cycle_9_on_y(self):
        lg = generate(FamilySpec("hatted-cycle", {"n": 9}))
        assert Solver(lg.graph).value_with_forced_first_move(lg.labels["y"]) == 5

    def test_r19_vertex_10(self):
        lg = generate(FamilySpec("r-graph", {"n": 4}))
        assert Solver(lg.graph).value_with_forced_first_move(10) <= 10

    def test_k1(self):
        assert Solver(make_graph(1, [])).value_with_forced_first_move(0) == 1

    def test_illegal_move_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            Solver(g).value_with_forced_first_move(0, dominated=g.full_mask)

    def test_dominator_upper_bound(self):
        g = cycle_graph(7)
        gg = Solver(g).game_value()
        for v in range(7):
            assert Solver(g).value_with_forced_first_move(v) >= gg


class TestDominationNumber:
    def test_k4(self):
        k4 = make_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert domination_number(k4) == 1

    def test_c6(self):
        assert domination_number(cycle_graph(6)) == naive_domination_number(
            cycle_graph(6)) == 2

    def test_p7(self):
        assert domination_number(path_graph(7)) == naive_domination_number(
            path_graph(7)) == 3

    def test_random_agreement(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 8)
            g = _random_graph(rng, n, rng.uniform(0.2, 0.7))
            assert domination_number(g) == naive_domination_number(g)

    def test_cap(self):
        with pytest.raises(VertexCapExceeded):
            domination_number(path_graph(30), config=SolverConfig(vertex_cap=26))


class TestVertexCap:
    @pytest.mark.parametrize("refuse, order", [
        (lambda cfg: Solver(path_graph(8), cfg), 8),
        (lambda cfg: domination_number(path_graph(8), cfg), 8),
        (lambda cfg: harness._solve_all(
            [PartiallyDominatedGraph(path_graph(8))], cfg, 1), 8),
        (lambda cfg: harness.enumerate_edge_additions("path", 8, 2, config=cfg), 8),
        # The add-edges default range for path + 2 edges ends at 14.
        (lambda cfg: cli._cmd_add_edges(cli._build_parser().parse_args(
            ["add-edges", "--base", "path", "--k", "2"]), cfg, io.StringIO()), 14),
    ], ids=["Solver", "domination_number", "_solve_all",
            "enumerate_edge_additions", "add-edges-range"])
    def test_one_check_one_message(self, refuse, order, monkeypatch):
        checked = []
        check_order = SolverConfig.check_order

        def recording_check(cfg, n):
            checked.append(n)
            check_order(cfg, n)

        monkeypatch.setattr(SolverConfig, "check_order", recording_check)
        with pytest.raises(VertexCapExceeded) as exc:
            refuse(SolverConfig(vertex_cap=6))
        assert str(exc.value) == f"graph order {order} exceeds solver cap 6"
        assert checked == [order]


class TestSolverInvariants:
    def test_continuation_principle(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(2, 10)
            g = _random_graph(rng, n, rng.uniform(0.2, 0.6))
            a = mask_of(v for v in range(n) if rng.random() < 0.5)
            b = mask_of(v for v in bits(a) if rng.random() < 0.5)
            s = Solver(g)
            for turn in Turn:
                assert s.game_value(a, turn) <= s.game_value(b, turn)

    def test_search_matches_naive_oracles(self):
        # Partially dominated starts, both turns, one solver per graph so
        # the second turn's queries run against the tables the first left.
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(2, 7)
            g = _random_graph(rng, n, rng.uniform(0.2, 0.6))
            start = mask_of(v for v in range(n) if rng.random() < 0.3)
            s = Solver(g)
            for turn, dom in ((Turn.DOMINATOR, True), (Turn.STALLER, False)):
                assert s.game_value(start, turn) == naive_game_value(g, start, dom)
                if start != g.full_mask:
                    assert (s.optimal_first_moves(start, turn)
                            == naive_optimal_first_moves(g, start, dom))

    def test_gamma_sandwich(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 12)
            g = _random_graph(rng, n, rng.uniform(0.3, 0.7))
            gamma = domination_number(g)
            gg = Solver(g).game_value()
            assert gamma <= gg <= 2 * gamma - 1

    def test_value_range(self):
        rng = random.Random(41)
        for _ in range(30):
            n = rng.randint(1, 10)
            g = _random_graph(rng, n, rng.uniform(0.2, 0.7))
            gg = Solver(g).game_value()
            assert 1 <= gg <= n

    def test_table_bounds_bracket_naive_value(self):
        # Every (lo, hi) stored on either turn's table holds the state's
        # exact value, whatever line of play first reached the state.
        rng = random.Random(53)
        for _ in range(10):
            g = _random_graph(rng, 9, 0.3)
            s = Solver(g)
            s.game_value()
            s.game_value(0, Turn.STALLER)
            entries = ([(state, bounds, True) for state, bounds in s._table_d.items()]
                       + [(state, bounds, False) for state, bounds in s._table_s.items()])
            assert len(entries) >= 20 and s._table_d and s._table_s
            for state, (lo, hi), dom in entries:
                assert lo <= naive_game_value(g, state, dom) <= hi

    def test_union_lemma_bound(self):
        rng = random.Random(61)
        for _ in range(40):
            pieces = []
            pdg = None
            budget = 18
            while budget >= 2 and (not pieces or rng.random() < 0.7):
                kind = rng.choice(list(PiecePrimeKind))
                overhead = 1 if kind is PiecePrimeKind.PRIME else 2
                ln = rng.randint(0, budget - overhead)
                pieces.append((ln, kind))
                budget -= ln + overhead
                fam = ("prime-path" if kind is PiecePrimeKind.PRIME
                       else "double-prime-path")
                part = generate(FamilySpec(fam, {"n": ln}))
                pdg = part if pdg is None else disjoint_union(pdg, part)
            value = Solver(pdg.graph).game_value(pdg.dominated, Turn.STALLER)
            assert value <= union_lemma_bound(pieces)

    def test_staller_start_within_one(self):
        # Informational in the library; asserted here on random instances.
        rng = random.Random(71)
        for _ in range(30):
            n = rng.randint(2, 9)
            g = _random_graph(rng, n, rng.uniform(0.3, 0.7))
            s = Solver(g)
            assert abs(s.game_value() - s.game_value(0, Turn.STALLER)) <= 1
