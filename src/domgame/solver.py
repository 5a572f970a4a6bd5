"""Exact domination game solver.

Dominator minimizes and Staller maximizes the total number of moves; every
move must newly dominate at least one vertex.  A game value is the least k
for which "does the game from this (dominated bitmask, turn) end within k
moves?" holds, answered by alpha-beta with a per-turn table of (lo, hi)
bounds kept across queries: MTD(f)'s memory-enhanced test (Plaat et al. 1996).

The search skips every move whose dominated set is contained in another
move's (on Dominator's turn) or contains another move's (on Staller's).
By the Continuation Principle (Kinnersley, West & Zamani 2013; Brešar,
Klavžar & Rall 2010) a larger dominated set never lengthens the game, for
either player to move, so a skipped move is never better for its player
than a kept one.  Staller's filter is Dominator's on complements (a set
contains another iff its complement lies inside the other's), so one
inclusion test serves both turns.  Stored bounds of skipped children are
still read.  `optimal_first_moves` decides each child from its stored
bounds, or by the same test from a non-optimal child, and solves only the
children neither decides.

A new state's bounds come from its sorted children: with U undominated
vertices, largest gain g and smallest m, Dominator to move gives
[ceil(U/g), 1 + U - g] and Staller to move [1 + ceil((U - m)/g), 1 + U - m].
When those leave a new Dominator state to be searched, lo is raised to the
size of a greedy packing: undominated vertices pairwise at distance >= 3,
of which one move dominates at most one.

`_test` makes one pair of passes over a state's children for both
players, largest gain first on Dominator's turn and smallest first on
Staller's: the transposition pass stops at the first child whose stored
bounds decide the test, and the search pass recurses into the kept
children and stops at the first result that decides it.  MTD(f) revisits
a state at every probe of k, so each state's ordered children are sorted
once per `Solver` and kept in the state's one table entry, (lo, hi,
children).  Entries and children are tuples, which the garbage collector
stops tracking once it sees they hold only ints; kept lists stay tracked,
so full collections come more often and take longer as the tables grow.
"""

import enum
from dataclasses import dataclass

from .graph import MAX_VERTICES, Graph, bits


class Turn(enum.Enum):
    DOMINATOR = "dominator"
    STALLER = "staller"

    def other(self) -> "Turn":
        return Turn.STALLER if self is Turn.DOMINATOR else Turn.DOMINATOR


@dataclass(frozen=True)
class SolverConfig:
    memo_limit: int = 1_000_000
    vertex_cap: int = 26

    def __post_init__(self):
        if self.memo_limit < 1:
            raise ValueError(f"memo_limit {self.memo_limit} is below 1")
        if not 1 <= self.vertex_cap <= MAX_VERTICES:
            raise ValueError(f"vertex_cap {self.vertex_cap} outside 1..{MAX_VERTICES}")

    def check_order(self, n: int) -> None:
        """Refuse a graph of order n before any work is done on it."""
        if n > self.vertex_cap:
            raise VertexCapExceeded(
                f"graph order {n} exceeds solver cap {self.vertex_cap}")


class MemoLimitExceeded(RuntimeError):
    pass


class VertexCapExceeded(ValueError):
    pass


def legal_moves(g: Graph, dominated: int) -> int:
    """Bitmask of vertices whose play would newly dominate something."""
    return sum(1 << v for v in range(g.n) if g.closed[v] & ~dominated)


def _check_turn(turn) -> None:
    if not isinstance(turn, Turn):
        raise ValueError(f"turn must be a Turn, not {turn!r}")


class Solver:
    """One graph; per turn, one table entry per stored state: its bounds
    and its ordered children.  Not thread-shared."""

    def __init__(self, graph: Graph, config: SolverConfig = SolverConfig()):
        config.check_order(graph.n)
        self.graph = graph
        self.config = config
        self._full = graph.full_mask
        # Per turn, state -> (lo, hi, its children in the order that turn
        # tries them).
        self._table_d = {}
        self._table_s = {}

    @property
    def states_explored(self) -> int:
        return len(self._table_d) + len(self._table_s)

    def game_value(self, dominated: int = 0, turn: Turn = Turn.DOMINATOR) -> int:
        if dominated & ~self._full:
            raise ValueError("dominated set contains ids outside the graph")
        _check_turn(turn)
        dom = turn is Turn.DOMINATOR
        k = 0
        while not self._test(dominated, dom, k):
            k = (self._table_d if dom else self._table_s)[dominated][0]
        return k

    def _test(self, s: int, dom: bool, k: int) -> bool:
        """Whether the game from s (Dominator to move iff dom) ends within
        k moves.  Stores s's entry (lo, hi, children) with the bounds
        tightened: lo > k after a fail."""
        if s == self._full:
            return k >= 0
        if dom:
            table, child = self._table_d, self._table_s
        else:
            table, child = self._table_s, self._table_d
        entry = table.get(s)
        if entry is None:
            # Dominator tries big gains first, Staller small ones.
            order = tuple(sorted({s | r for r in self.graph.closed} - {s},
                                 key=int.bit_count, reverse=dom))
            # Every move dominates at least one undominated vertex and at
            # most the largest gain g available now; gains only shrink.
            # The first child (largest gain for Dominator, smallest for
            # Staller) leaves `rest` vertices undominated.  Dominator can
            # play it, and no Staller move leaves more, so the game ends
            # within 1 + rest moves; Staller can play it, so the game
            # lasts at least 1 + ceil(rest / g).
            undominated = (self._full & ~s).bit_count()
            rest = (self._full & ~order[0]).bit_count()
            if dom:
                lo = -(-undominated // (undominated - rest))
            else:
                g = order[-1].bit_count() - s.bit_count()
                lo = 1 - (-rest // g)
            hi = 1 + rest
            if dom and lo <= k < hi:
                # Undominated vertices pairwise at distance >= 3 need a
                # move each: one move dominates at most one of them.  Take
                # the lowest undominated vertex, drop every vertex within
                # distance 2 of it, repeat.  Computed only where the state
                # is searched, and only for Dominator: elsewhere it costs
                # more time than the states it saves.
                closed = self.graph.closed
                m = self._full & ~s
                p = 0
                while m:
                    p += 1
                    near = closed[(m & -m).bit_length() - 1]
                    while near:
                        w = near & -near
                        m &= ~closed[w.bit_length() - 1]
                        near ^= w
                lo = max(lo, p)
        else:
            lo, hi, order = entry
            if not lo <= k < hi:
                return k >= hi
        if lo <= k < hi:
            # The test's answer is `dom` if some child's answer ("ends
            # within k - 1 moves") is `dom`, i.e. if the player to move has
            # a winning move, and `not dom` otherwise.  First look for a
            # child whose stored bounds answer (hi < k for Dominator,
            # lo >= k for Staller; an unstored child answers neither, as
            # k >= lo >= 1), then search the extremal children only: a
            # child is skipped when, under `flip`, it lies inside an
            # earlier kept child.  The kept children suffice: a child
            # strictly inside (around) another comes later in `order`,
            # and a skipped child is inside (around) a kept one.
            get = child.get
            ok = not dom
            for t in order:
                t_entry = get(t)
                if t_entry is not None and (t_entry[1] < k if dom
                                            else t_entry[0] >= k):
                    ok = dom
                    break
            else:
                flip = 0 if dom else self._full
                kept = []
                for t in order:
                    tc = t ^ flip
                    for u in kept:
                        if tc | u == u:
                            break
                    else:
                        kept.append(tc)
                        if self._test(t, not dom, k - 1) is dom:
                            ok = dom
                            break
            lo, hi = (lo, k) if ok else (k + 1, hi)
        table[s] = (lo, hi, order)
        if len(table) + len(child) > self.config.memo_limit:
            # Start empty after a failure, so the next query on this
            # Solver does not fail on its first store.
            table.clear()
            child.clear()
            raise MemoLimitExceeded(f"tables exceeded {self.config.memo_limit} entries")
        return k >= hi

    def value_with_forced_first_move(self, v: int, dominated: int = 0,
                                     turn: Turn = Turn.DOMINATOR) -> int:
        _check_turn(turn)
        g = self.graph
        if not 0 <= v < g.n or not g.closed[v] & ~dominated:
            raise ValueError(f"vertex {v} is not a legal move")
        return 1 + self.game_value(dominated | g.closed[v], turn.other())

    def optimal_first_moves(self, dominated: int = 0,
                            turn: Turn = Turn.DOMINATOR) -> int:
        moves = legal_moves(self.graph, dominated)
        if not moves:
            raise ValueError("no legal moves: state is fully dominated")
        target = self.game_value(dominated, turn)
        dom = turn is Turn.DOMINATOR
        table, child = ((self._table_d, self._table_s) if dom
                        else (self._table_s, self._table_d))
        # A move is optimal iff its child's value is goal = target - 1.  Walk
        # the children in the search's order: by the Continuation Principle
        # a child inside (Dominator) or around (Staller) a non-optimal child
        # is itself non-optimal, which `_test`'s inclusion test under `flip`
        # finds.  Only children that neither stored bounds nor an earlier
        # non-optimal child decide are solved.
        goal = target - 1
        unknown = (0, self.graph.n, ())
        flip = 0 if dom else self._full
        worse = []
        for t in table[dominated][2]:
            lo, hi, _ = child.get(t, unknown)
            tc = t ^ flip
            if lo <= goal <= hi and not any(tc | u == u for u in worse):
                # Dominator's children last at least goal moves and
                # Staller's at most goal, so hi (lo) == goal decides.
                if ((hi if dom else lo) == goal
                        or self.game_value(t, turn.other()) == goal):
                    continue
            worse.append(tc)
        worse = set(worse)
        return sum(1 << v for v in bits(moves)
                   if (dominated | self.graph.closed[v]) ^ flip not in worse)


def domination_number(g: Graph, config: SolverConfig = SolverConfig()) -> int:
    """Exact domination number by branch and bound on undominated vertices."""
    config.check_order(g.n)
    if g.n == 0:
        return 0
    full = g.full_mask
    rows = g.closed
    best = g.n  # the whole vertex set dominates
    max_cover = max(row.bit_count() for row in rows)

    def bb(dominated: int, used: int):
        nonlocal best
        if dominated == full:
            best = min(best, used)
            return
        remaining = (full & ~dominated).bit_count()
        if used + -(-remaining // max_cover) >= best:
            return
        # Branch on the undominated vertex with the fewest coverers.
        target = min(bits(full & ~dominated),
                     key=lambda u: rows[u].bit_count())
        cands = sorted(bits(rows[target]),
                       key=lambda u: -(rows[u] & ~dominated).bit_count())
        for u in cands:
            bb(dominated | rows[u], used + 1)

    bb(0, 0)
    return best
