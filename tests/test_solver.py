import dataclasses
import gc
import inspect
import io
import random

import pytest

from domgame import cli, harness
from domgame.canon import canonical_key
from domgame.families import FamilySpec, generate, path_graph, cycle_graph
from domgame.graph import PartiallyDominatedGraph, make_graph, mask_of, bits
from domgame.solver import (MemoLimitExceeded, Solver, SolverConfig, Turn,
                            VertexCapExceeded, domination_number, legal_moves)
from domgame.oracle import union_lemma_bound, PiecePrimeKind
from domgame.graph import disjoint_union

from helpers import (naive_domination_number, naive_game_value,
                     naive_optimal_first_moves)


def _family(name, n):
    return generate(FamilySpec(name, {"n": n}))


def _random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return make_graph(n, edges)


def _key(state, dom):
    """The key of `Solver._table` for the dominated set `state`, Dominator
    to move iff dom."""
    return state if dom else ~state


def _state(key):
    """The dominated set a `Solver._table` key stands for, and whether
    Dominator is to move."""
    return (key, True) if key >= 0 else (~key, False)


def _record_solves(monkeypatch):
    """The list of dominated sets `Solver.game_value` is called on from
    now on."""
    solved = []
    game_value = Solver.game_value

    def recording_game_value(solver, dominated=0, turn=Turn.DOMINATOR):
        solved.append(dominated)
        return game_value(solver, dominated, turn)

    monkeypatch.setattr(Solver, "game_value", recording_game_value)
    return solved


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
    def test_k1(self):
        assert Solver(make_graph(1, [])).game_value() == 1

    def test_p11(self):
        assert Solver(path_graph(11)).game_value() == 5

    def test_r11(self):
        r11 = generate(FamilySpec("r-graph", {"n": 2}))
        assert Solver(r11.graph).game_value() == 6

    def test_fully_dominated(self):
        g = cycle_graph(6)
        assert Solver(g).game_value(g.full_mask) == 0
        assert Solver(g).game_value(g.full_mask, Turn.STALLER) == 0

    def test_dominator_upper_bound(self):
        # Dominator's best first move is at least as good as any other.
        g = cycle_graph(7)
        s = Solver(g)
        gg = s.game_value()
        for v in range(7):
            assert 1 + s.game_value(g.closed[v], Turn.STALLER) >= gg

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

    def test_dominated_outside_graph(self):
        with pytest.raises(ValueError) as err:
            Solver(path_graph(3)).game_value(0b1000)
        assert str(err.value) == "dominated set contains ids outside the graph"

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

    def test_memo_limit_empties_children_with_tables(self):
        solver = Solver(path_graph(14), SolverConfig(memo_limit=50))
        with pytest.raises(MemoLimitExceeded):
            solver.game_value()
        assert not solver._table
        assert solver.game_value(solver.graph.full_mask & ~1) == 1

    def test_children_kept_only_for_stored_states(self):
        # Each table entry keeps the keys of the state's children in the
        # order the player to move tries them.
        rng = random.Random(29)
        for _ in range(10):
            g = _random_graph(rng, 11, 0.3)
            s = Solver(g)
            for turn in (Turn.DOMINATOR, Turn.STALLER, Turn.DOMINATOR):
                if s.game_value(0, turn):
                    s.optimal_first_moves(0, turn)
                for key, (_, _, order) in s._table.items():
                    state, dom = _state(key)
                    children = {state | r for r in g.closed}
                    children.discard(state)
                    assert order == tuple(_key(t, not dom) for t in sorted(
                        children, key=int.bit_count, reverse=dom))
            assert {key >= 0 for key in s._table} == {True, False}

    def test_table_entries_untracked_by_gc(self):
        # Entries hold only ints and tuples of ints, so the collector stops
        # tracking them; a list in an entry would stay tracked.
        s = Solver(path_graph(18))
        s.game_value()
        s.game_value(0, Turn.STALLER)
        gc.collect()
        gc.collect()
        entries = list(s._table.values())
        assert {key >= 0 for key in s._table} == {True, False}
        assert not any(gc.is_tracked(entry) for entry in entries)

    @pytest.mark.parametrize("call", [
        lambda s: s.game_value(0, "dominator"),
        lambda s: s.optimal_first_moves(0, "dominator"),
        lambda s: s.game_value(0, True),
    ], ids=["game_value", "optimal_first_moves", "bool"])
    def test_turn_must_be_a_turn(self, call):
        # K_{1,3}: Dominator ends the game in one move, Staller's start
        # lasts two; a string turn used to be solved as Staller's start.
        s = Solver(make_graph(4, [(0, 1), (0, 2), (0, 3)]))
        with pytest.raises(ValueError, match="Turn"):
            call(s)
        assert s.game_value(0, Turn.DOMINATOR) == 1
        assert s.game_value(0, Turn.STALLER) == 2


class TestOneTable:
    """Both turns share one table: the dominated set s is keyed s with
    Dominator to move and ~s with Staller."""

    @pytest.mark.parametrize("g, d_value, s_value", [
        (path_graph(11), 5, 6),
        (cycle_graph(10), 5, 4),
    ], ids=["P11", "C10"])
    def test_both_starts_store_two_entries(self, g, d_value, s_value):
        s = Solver(g)
        assert s.game_value(0, Turn.DOMINATOR) == d_value
        assert s.game_value(0, Turn.STALLER) == s_value
        # Each entry holds its own turn's exact value.
        assert s._table[0][:2] == (d_value, d_value)
        assert s._table[~0][:2] == (s_value, s_value)

    def test_states_explored_counts_the_table(self):
        s = Solver(cycle_graph(12))
        for turn in Turn:
            s.game_value(0, turn)
            assert s.states_explored == len(s._table)
            s.optimal_first_moves(0, turn)
            assert s.states_explored == len(s._table)
        assert {key >= 0 for key in s._table} == {True, False}

    def test_memo_limit_in_staller_solve_empties_dominator_entries(self):
        g = path_graph(14)
        start = g.full_mask & ~mask_of(range(6))
        s = Solver(g, SolverConfig(memo_limit=50))
        assert s.game_value(start) == 3
        assert start in s._table
        with pytest.raises(MemoLimitExceeded):
            s.game_value(0, Turn.STALLER)
        assert not s._table
        assert s.game_value(start, Turn.STALLER) == naive_game_value(g, start, False)
        assert s.game_value(start) == 3


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

    @pytest.mark.parametrize("dominated, turn, message", [
        (0b1111, Turn.DOMINATOR, "dominated set contains ids outside the graph"),
        (0b111, "x", "turn must be a Turn"),
    ], ids=["outside-graph", "bad-turn"])
    def test_reports_game_value_errors(self, dominated, turn, message):
        # The input is checked by `game_value` before the fully dominated
        # state is refused.
        with pytest.raises(ValueError, match=message):
            Solver(path_graph(3)).optimal_first_moves(dominated, turn)

    def test_hatted_cycle_9_on_y(self):
        lg = generate(FamilySpec("hatted-cycle", {"n": 9}))
        s = Solver(lg.graph)
        assert s.game_value() == 5
        assert s.optimal_first_moves() >> lg.labels["y"] & 1

    def test_r19_vertex_10(self):
        lg = generate(FamilySpec("r-graph", {"n": 4}))
        s = Solver(lg.graph)
        assert s.game_value() == 10
        assert s.optimal_first_moves() >> 10 & 1

    def test_children_decided_without_solving(self, monkeypatch):
        # P_20 from Dominator's start: 20 distinct children, and the stored
        # bounds decide at least one of them, so fewer are solved.
        g = path_graph(20)
        s = Solver(g)
        s.game_value()
        solved = _record_solves(monkeypatch)
        moves = s.optimal_first_moves()
        assert list(bits(moves)) == [1, 2, 5, 6, 9, 10, 13, 14, 17, 18]
        # The first call is the start's value, already stored.
        assert solved[0] == 0
        children = {g.closed[v] for v in range(20)}
        assert len(children) == 20
        assert set(solved[1:]) <= children
        assert len(solved[1:]) < len(children)

    def test_continuation_principle_decides_children(self, monkeypatch):
        # P_9 from Staller's start (value 5): playing an end leaves a child
        # of value 3, not 4, so the children around those, N[1] and N[7],
        # are non-optimal without a solve.
        g = path_graph(9)
        s = Solver(g)
        assert s.game_value(0, Turn.STALLER) == 5
        solved = _record_solves(monkeypatch)
        assert list(bits(s.optimal_first_moves(0, Turn.STALLER))) == [2, 6]
        assert solved and not {g.closed[1], g.closed[7]} & set(solved)
        assert naive_optimal_first_moves(g, 0, False) == mask_of([2, 6])

    def test_continuation_principle_decides_dominator_children(self,
                                                               monkeypatch):
        # The chair, P_4 0-1-2-3 with a leaf 4 at 2, from Dominator's start
        # (value 2): only 2 ends the game at once.  N[0] lies inside N[1],
        # which is solved and non-optimal, so N[0] is non-optimal without a
        # solve.
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
        s = Solver(g)
        assert s.game_value() == 2
        solved = _record_solves(monkeypatch)
        assert list(bits(s.optimal_first_moves())) == [2]
        assert g.closed[1] in solved and g.closed[0] not in solved
        assert naive_optimal_first_moves(g, 0, True) == mask_of([2])

    def test_partial_starts_match_naive(self):
        rng = random.Random(43)
        for _ in range(100):
            n = rng.randint(5, 9)
            g = _random_graph(rng, n, rng.uniform(0.2, 0.6))
            start = mask_of(v for v in range(n) if rng.random() < 0.4)
            if start == g.full_mask:
                continue
            s = Solver(g)
            for turn, dom in ((Turn.DOMINATOR, True), (Turn.STALLER, False)):
                assert (s.optimal_first_moves(start, turn)
                        == naive_optimal_first_moves(g, start, dom))


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
        # The edgeless graphs (n = 0, K_1, E_2..E_8) need every vertex: the
        # order is the search's starting bound and, here, the answer.
        graphs = [make_graph(n, []) for n in range(9)]
        for _ in range(30):
            n = rng.randint(1, 8)
            graphs.append(_random_graph(rng, n, rng.uniform(0.2, 0.7)))
        for g in graphs:
            assert domination_number(g) == naive_domination_number(g)

    def test_cap(self):
        with pytest.raises(VertexCapExceeded):
            domination_number(path_graph(30), config=SolverConfig(vertex_cap=26))


class TestSolverConfig:
    def test_frozen(self):
        cfg = SolverConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.vertex_cap = 500
        assert cfg.vertex_cap == 26

    @pytest.mark.parametrize("entry", [
        Solver, domination_number, harness.enumerate_edge_additions,
        harness.sweep_family, harness.property_suite,
    ], ids=lambda f: f.__name__)
    def test_entry_points_default_to_the_config(self, entry):
        default = inspect.signature(entry).parameters["config"].default
        assert default == SolverConfig()


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


class TestExtremalChildren:
    """By the Continuation Principle the search needs only the
    inclusion-maximal children on Dominator's turn and the inclusion-minimal
    ones on Staller's."""

    @pytest.mark.parametrize("g", [
        make_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
        path_graph(2),
    ], ids=["K4", "P2"])
    def test_optimal_first_moves_tries_every_move(self, g):
        # Every move dominates the whole graph, so the search sees one
        # distinct child, and every vertex is optimal.
        for turn in Turn:
            assert Solver(g).optimal_first_moves(0, turn) == g.full_mask

    @pytest.mark.parametrize("g, ceiling", [
        (path_graph(20), 3_200),
        (cycle_graph(20), 3_900),
    ], ids=["P20", "C20"])
    def test_dominator_start_state_ceiling(self, g, ceiling):
        # Searching every distinct child stores 3 997 (P_20) and 5 131
        # (C_20) states.
        s = Solver(g)
        assert s.game_value() == 10
        assert s.states_explored <= ceiling

    def test_futility_stop(self):
        # P_7 with vertex 3 dominated, Dominator to move at k = 2: the
        # largest gain is g = 3 (vertex 1 or 5), so a child that leaves
        # more than (k - 1) * g = 3 of the 6 undominated vertices cannot
        # end within one more move.  The search stops at the first such
        # child; without the stop it would search N[3]'s child, which lies
        # inside neither earlier kept child.
        g = path_graph(7)
        dominated = mask_of([3])
        s = Solver(g)
        assert not s._test(dominated, 2)
        order = s._table[dominated][2]
        left = [(g.full_mask & c).bit_count() for c in order]
        stop = next(i for i, rest in enumerate(left) if rest > 3)
        assert left[:stop] == [3, 3]
        assert all(c in s._table for c in order[:stop])
        assert not any(c in s._table for c in order[stop:])
        assert s.states_explored == 3
        assert s.game_value(dominated) == naive_game_value(g, dominated, True) == 3


class TestExplorationPins:
    """Exact state counts from a fresh Solver.  The order in which children
    are tried (ties between equal gains included), the filter and both
    passes over the children all move these counts, so a change that
    should leave the search alone must leave them alone too."""

    @pytest.mark.parametrize("start, turn, value, states", [
        (PartiallyDominatedGraph(path_graph(20)), Turn.DOMINATOR, 10, 1_999),
        (PartiallyDominatedGraph(cycle_graph(20)), Turn.DOMINATOR, 10, 2_612),
        (PartiallyDominatedGraph(path_graph(22)), Turn.DOMINATOR, 11, 4_830),
        (PartiallyDominatedGraph(cycle_graph(22)), Turn.DOMINATOR, 11, 7_353),
        (PartiallyDominatedGraph(path_graph(20)), Turn.STALLER, 10, 3_069),
        (PartiallyDominatedGraph(cycle_graph(20)), Turn.STALLER, 10, 2_464),
        (_family("hatted-cycle", 17), Turn.DOMINATOR, 9, 1_022),
        (_family("r-graph", 4), Turn.DOMINATOR, 10, 1_971),
        # Staller starts; both ends are already dominated.
        (_family("double-prime-path", 18), Turn.STALLER, 10, 1_150),
    ], ids=["P20-D", "C20-D", "P22-D", "C22-D", "P20-S", "C20-S",
            "hatted-cycle17-D", "r-graph4-D", "double-prime-path18-S"])
    def test_states_explored(self, start, turn, value, states):
        s = Solver(start.graph)
        assert s.game_value(start.dominated, turn) == value
        assert s.states_explored == states

    @pytest.mark.parametrize("start, turn, states, followup, moves", [
        (PartiallyDominatedGraph(path_graph(20)), Turn.DOMINATOR, 1_999, 5_795,
         [1, 2, 5, 6, 9, 10, 13, 14, 17, 18]),
        (PartiallyDominatedGraph(cycle_graph(20)), Turn.STALLER, 2_464, 4_481,
         list(range(20))),
        (_family("hatted-cycle", 17), Turn.DOMINATOR, 1_022, 1_864,
         list(range(18))),
    ], ids=["P20-D", "C20-S", "hatted-cycle17-D"])
    def test_optimal_first_moves_after_value(self, start, turn, states,
                                             followup, moves):
        # The `solve` command's path: the value, then the optimal first
        # moves on the same Solver, which reuses the stored bounds.
        s = Solver(start.graph)
        s.game_value(start.dominated, turn)
        assert s.states_explored == states
        assert list(bits(s.optimal_first_moves(start.dominated, turn))) == moves
        assert s.states_explored == followup


class TestNewEntryBounds:
    """The (lo, hi) a state's entry starts with.  `_test(key, -1)` stores
    them and searches nothing, since every new lo is at least 1."""

    @staticmethod
    def first_bounds(g, dominated, dom):
        s = Solver(g)
        key = _key(dominated, dom)
        assert not s._test(key, -1)
        return s._table[key][:2]

    def test_bracket_brute_force(self):
        rng = random.Random(29)
        for _ in range(150):
            n = rng.randint(1, 7)
            g = _random_graph(rng, n, rng.uniform(0.2, 0.7))
            for dominated in range(g.full_mask):
                for dom in (True, False):
                    lo, hi = self.first_bounds(g, dominated, dom)
                    assert lo <= naive_game_value(g, dominated, dom) <= hi

    # Bounds from the largest gain alone, (ceil(U/g), U), would read
    # (1, 4), (2, 4), (2, 6) and (2, 5).
    @pytest.mark.parametrize("g, dom, bounds", [
        (make_graph(4, [(0, 1), (0, 2), (0, 3)]), False, (2, 3)),
        (path_graph(4), True, (2, 2)),
        (path_graph(6), False, (3, 5)),
        (cycle_graph(5), False, (2, 3)),
    ], ids=["K13-S", "P4-D", "P6-S", "C5-S"])
    def test_one_move_lookahead(self, g, dom, bounds):
        assert self.first_bounds(g, 0, dom) == bounds

    # Searched at k = ceil(U/g), Dominator to move, the packing of
    # undominated vertices pairwise at distance >= 3 fails the test before
    # any child is searched.  P_11, {0, 4, 5, 6, 10} undominated: packing
    # {0, 4, 10}, ceil(5/3) = 2.  P_15, {0, 4, 8, 12, 13, 14}: packing
    # {0, 4, 8, 12}, ceil(6/3) = 2, where a searched fail alone would
    # store lo = 3.
    @pytest.mark.parametrize("n, undominated, k, lo", [
        (11, [0, 4, 5, 6, 10], 2, 3),
        (15, [0, 4, 8, 12, 13, 14], 2, 4),
    ], ids=["P11", "P15"])
    def test_packing_raises_lo(self, n, undominated, k, lo):
        g = path_graph(n)
        dominated = g.full_mask & ~mask_of(undominated)
        assert self.first_bounds(g, dominated, True)[0] == k
        s = Solver(g)
        assert not s._test(dominated, k)
        assert s._table[dominated][:2] == (lo, lo)
        assert s.states_explored == 1
        assert naive_game_value(g, dominated, True) == lo

    @staticmethod
    def rebuilt_packing(g, dominated):
        """The greedy packing with each distance-2 ball rebuilt from
        `closed` at every pick: the reference for the cached balls."""
        m = g.full_mask & ~dominated
        p = 0
        while m:
            p += 1
            near = g.closed[(m & -m).bit_length() - 1]
            while near:
                w = near & -near
                m &= ~g.closed[w.bit_length() - 1]
                near ^= w
        return p

    def test_cached_balls_are_distance_2_complements(self):
        rng = random.Random(43)
        filled = 0
        for _ in range(40):
            n = rng.randint(1, 14)
            g = _random_graph(rng, n, rng.uniform(0.1, 0.4))
            s = Solver(g)
            s.game_value()
            s.game_value(0, Turn.STALLER)
            for v, far in enumerate(s._far):
                if far is None:
                    continue
                filled += 1
                ball = {v}
                for _ in range(2):
                    ball |= {w for u in ball for w in bits(g.closed[u])}
                assert far == g.full_mask & ~mask_of(ball)
        assert filled >= 100

    def test_packing_matches_rebuilt_balls(self):
        # A new Dominator state searched at k starts at lo = max(ceil(U/g),
        # packing).  Tested at k = p - 1 when the packing p is the larger,
        # the state stores (p, hi) and searches nothing; tested at
        # k = ceil(U/g) otherwise, it searches.
        rng = random.Random(47)
        raised = searched = 0
        for _ in range(400):
            n = rng.randint(2, 14)
            g = _random_graph(rng, n, rng.uniform(0.1, 0.4))
            dominated = rng.getrandbits(n) & rng.getrandbits(n)
            if dominated == g.full_mask:
                continue
            first_lo, first_hi = self.first_bounds(g, dominated, True)
            p = self.rebuilt_packing(g, dominated)
            k = p - 1 if p > first_lo else first_lo
            if not first_lo <= k < first_hi:
                continue
            s = Solver(g)
            s._test(dominated, k)
            if p > first_lo:
                raised += 1
                assert s._table[dominated][:2] == (p, first_hi)
                assert s.states_explored == 1
            else:
                searched += 1
                assert s.states_explored > 1
        assert raised >= 100 and searched >= 100

    def test_searched_bounds_bracket_brute_force(self):
        # One searched test at each k inside a new state's first bounds,
        # which is where the packing bound is computed.
        rng = random.Random(37)
        for _ in range(150):
            n = rng.randint(1, 7)
            g = _random_graph(rng, n, rng.uniform(0.2, 0.7))
            for dominated in range(g.full_mask):
                for dom in (True, False):
                    value = naive_game_value(g, dominated, dom)
                    first_lo, first_hi = self.first_bounds(g, dominated, dom)
                    for k in range(first_lo, first_hi):
                        s = Solver(g)
                        key = _key(dominated, dom)
                        assert s._test(key, k) == (value <= k)
                        lo, hi, _ = s._table[key]
                        assert lo <= value <= hi


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

    def test_every_class_up_to_order_6(self, monkeypatch):
        # Every graph of order <= 6 and every dominated set up to
        # isomorphism, both turns.  `_test` never sees the fully dominated
        # state with Dominator to move, so it keeps no check for it.
        nx = pytest.importorskip("networkx")
        full_keys = []
        _test = Solver._test

        def recording_test(solver, key, k):
            if key == solver.graph.full_mask:
                full_keys.append(key)
            return _test(solver, key, k)

        monkeypatch.setattr(Solver, "_test", recording_test)
        classes = 0
        for G in nx.graph_atlas_g():
            if G.number_of_nodes() > 6:
                continue
            g = make_graph(G.number_of_nodes(), list(G.edges()))
            starts = {canonical_key(g, d): d for d in range(g.full_mask)}
            classes += len(starts)
            for start in starts.values():
                s = Solver(g)
                for turn, dom in ((Turn.DOMINATOR, True), (Turn.STALLER, False)):
                    assert s.game_value(start, turn) == naive_game_value(g, start, dom)
                    assert (s.optimal_first_moves(start, turn)
                            == naive_optimal_first_moves(g, start, dom))
        assert classes == 5_550
        assert full_keys == []

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
        # Every (lo, hi) stored for either turn holds the state's exact
        # value, whatever line of play first reached the state.
        rng = random.Random(53)
        for _ in range(10):
            g = _random_graph(rng, 10, 0.3)
            s = Solver(g)
            s.game_value()
            s.game_value(0, Turn.STALLER)
            assert len(s._table) >= 20
            assert {key >= 0 for key in s._table} == {True, False}
            for key, (lo, hi, _) in s._table.items():
                state, dom = _state(key)
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
