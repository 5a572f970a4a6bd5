"""Exact domination game solver.

Dominator minimizes and Staller maximizes the total number of moves; every
move must newly dominate at least one vertex.  A game value is the least k
for which "does the game from this (dominated bitmask, turn) end within k
moves?" holds, answered by alpha-beta with one table of (lo, hi) bounds
kept across queries: MTD(f)'s memory-enhanced test (Plaat et al. 1996).
The table's key for a dominated set s is s with Dominator to move and ~s
(a negative int) with Staller.

The search skips every move whose dominated set is contained in another
move's (on Dominator's turn) or contains another move's (on Staller's).
By the Continuation Principle (Kinnersley, West & Zamani 2013; Brešar,
Klavžar & Rall 2010) a larger dominated set never lengthens the game, for
either player to move, so a skipped move is never better for its player
than a kept one.  A set contains another iff its complement lies inside
the other's, so on keys the two filters are one test: skip a child whose
key contains a kept child's key.  Stored bounds of skipped children are
still read.  `optimal_first_moves` decides each child from its stored
bounds, or by the same test from a non-optimal child, and solves only the
children neither decides.

A new state's bounds come from its sorted children, one rule for both
players: if the mover's first child (largest gain for Dominator, smallest
for Staller) leaves `rest` vertices undominated and g is the largest gain,
the game lasts from 1 + ceil(rest/g) to 1 + rest moves.  For Dominator the
lower bound is ceil(U/g), with U undominated vertices.  When those leave a
new Dominator state to be searched, lo is raised to the size of a greedy
packing: undominated vertices pairwise at distance >= 3, of which one move
dominates at most one.  Each greedy step drops the picked vertex's
distance-2 ball; a `Solver` keeps the ball's complement per vertex,
computed the first time the packing picks that vertex.  The fully
dominated state with Dominator to move needs no test of its own: it is no
Dominator state's child; a Staller state skips it, or, when it is the only
child, starts at [1, 1] and searches nothing; and `game_value` answers it.

`_test` makes one pair of passes over a state's children for both
players, largest gain first on Dominator's turn and smallest first on
Staller's: the transposition pass stops at the first child whose stored
bounds decide the test, and the search pass recurses into the kept
children and stops at the first result that decides it.  Children of
equal gain come in the iteration order of the set they are built in.  On
Dominator's turn at k the search pass also stops at the first child that
leaves more than (k - 1) * g vertices undominated: gains only shrink, so
neither that child nor any later one, which leaves at least as many, ends
within k - 1 moves.  MTD(f) revisits a state at every probe of k, so each
state's ordered children are sorted once per `Solver` and kept in the
state's one table entry, (lo, hi, children's keys).  Entries and children
are tuples, which the garbage collector stops tracking once it sees they
hold only ints; kept lists stay tracked, so full collections come more
often and take longer as the table grows.
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


class Solver:
    """One graph; one table entry per stored (state, turn): its bounds and
    its children's keys in the order the player to move tries them.  Not
    thread-shared."""

    def __init__(self, graph: Graph, config: SolverConfig = SolverConfig()):
        config.check_order(graph.n)
        self.graph = graph
        self.config = config
        self._full = graph.full_mask
        # key -> (lo, hi, its children's keys in the order that turn tries
        # them).  A dominated set s is keyed s with Dominator to move and
        # ~s (negative) with Staller.
        self._table = {}
        # v -> the vertices farther than 2 from v, filled the first time the
        # packing bound picks v.
        self._far = [None] * graph.n

    @property
    def states_explored(self) -> int:
        return len(self._table)

    def game_value(self, dominated: int = 0, turn: Turn = Turn.DOMINATOR) -> int:
        if dominated & ~self._full:
            raise ValueError("dominated set contains ids outside the graph")
        if not isinstance(turn, Turn):
            raise ValueError(f"turn must be a Turn, not {turn!r}")
        if dominated == self._full:
            return 0
        key = dominated if turn is Turn.DOMINATOR else ~dominated
        k = 0
        while not self._test(key, k):
            k = self._table[key][0]
        return k

    def _test(self, key: int, k: int) -> bool:
        """Whether the game from the state keyed `key` ends within k moves.
        Stores its entry (lo, hi, children) with the bounds tightened:
        lo > k after a fail.

        Never called on the fully dominated state with Dominator to move:
        a Dominator state's children are Staller keys; a Staller state's
        full child comes last and contains its first, kept, child, unless
        it is the only child, whose bounds [1, 1] leave nothing to search;
        and `game_value` answers the full state itself."""
        dom = key >= 0
        table = self._table
        entry = table.get(key)
        if entry is None:
            s = key if dom else ~key
            # Dominator tries big gains first, Staller small ones.
            children = {s | r for r in self.graph.closed}
            children.discard(s)
            order = sorted(children, key=int.bit_count, reverse=dom)
            # Every move dominates at least one undominated vertex and at
            # most the largest gain g available now; gains only shrink.
            # The mover can play the first child, which leaves `rest`
            # vertices undominated, and no other move by Staller leaves
            # more or by Dominator fewer, so the game ends within
            # 1 + rest moves and lasts at least 1 + ceil(rest / g).  For
            # Dominator, whose first child is the largest gain, the latter
            # is ceil(U / g) with U vertices undominated now.
            rest = (self._full & ~order[0]).bit_count()
            g = (order[0] if dom else order[-1]).bit_count() - s.bit_count()
            lo = 1 - (-rest // g)
            hi = 1 + rest
            if dom:
                # Staller's states are keyed by complement; converted
                # after the sort, so equal gains keep their order.
                order = [~t for t in order]
                if lo <= k < hi:
                    # Undominated vertices pairwise at distance >= 3 need
                    # a move each: one move dominates at most one of them.
                    # Take the lowest undominated vertex, drop every vertex
                    # within distance 2 of it, repeat.  Computed only where
                    # the state is searched, and only for Dominator:
                    # elsewhere it costs more time than the states it saves.
                    far = self._far
                    m = self._full & ~s
                    p = 0
                    while m:
                        p += 1
                        v = (m & -m).bit_length() - 1
                        b = far[v]
                        if b is None:
                            b = far[v] = self._far_from(v)
                        m &= b
                    lo = max(lo, p)
            order = tuple(order)
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
            # child is skipped when its key contains an earlier kept
            # child's key.  For Staller that is a child around a kept one;
            # for Dominator, whose children are keyed by complement, a
            # child inside a kept one.  The kept children suffice: a child
            # strictly inside (around) another comes later in `order`,
            # and a skipped child is inside (around) a kept one.
            get = table.get
            ok = not dom
            for c in order:
                c_entry = get(c)
                if c_entry is not None and (c_entry[1] < k if dom
                                            else c_entry[0] >= k):
                    ok = dom
                    break
            else:
                # On Dominator's turn the children come in falling gain, so
                # each leaves at least as many vertices undominated as the
                # one before.  Gains only shrink, so a child that leaves
                # more than (k - 1) * g, g the first child's gain, cannot
                # end within k - 1 moves, and no later child can: the
                # search stops there.  The first child never stops it, as
                # k >= lo >= ceil(U / g).  A child keyed c = ~t leaves
                # full & c undominated.
                full = self._full
                most = ((k - 1) * ((~order[0]).bit_count() - key.bit_count())
                        if dom else None)
                kept = []
                for c in order:
                    if dom and (full & c).bit_count() > most:
                        break
                    for u in kept:
                        if c & u == u:
                            break
                    else:
                        kept.append(c)
                        if self._test(c, k - 1) is dom:
                            ok = dom
                            break
            lo, hi = (lo, k) if ok else (k + 1, hi)
        table[key] = (lo, hi, order)
        if len(table) > self.config.memo_limit:
            # Start empty after a failure, so the next query on this
            # Solver does not fail on its first store.
            table.clear()
            raise MemoLimitExceeded(f"tables exceeded {self.config.memo_limit} entries")
        return k >= hi

    def _far_from(self, v: int) -> int:
        """The vertices farther than 2 from v: the complement of its
        distance-2 ball."""
        closed = self.graph.closed
        ball = 0
        for w in bits(closed[v]):
            ball |= closed[w]
        return self._full & ~ball

    def optimal_first_moves(self, dominated: int = 0,
                            turn: Turn = Turn.DOMINATOR) -> int:
        target = self.game_value(dominated, turn)
        if target == 0:
            raise ValueError("no legal moves: state is fully dominated")
        dom = turn is Turn.DOMINATOR
        # A move is optimal iff its child's value is goal = target - 1.  Walk
        # the children's keys in the search's order: by the Continuation
        # Principle a child inside (Dominator) or around (Staller) a
        # non-optimal child is itself non-optimal, which `_test`'s
        # inclusion test on keys finds.  Only children that neither stored
        # bounds nor an earlier non-optimal child decide are solved.
        goal = target - 1
        unknown = (0, self.graph.n, ())
        table = self._table
        worse = []
        for c in table[dominated if dom else ~dominated][2]:
            lo, hi, _ = table.get(c, unknown)
            if lo <= goal <= hi and not any(c & u == u for u in worse):
                # Dominator's children last at least goal moves and
                # Staller's at most goal, so hi (lo) == goal decides.
                if ((hi if dom else lo) == goal
                        or self.game_value(~c if dom else c, turn.other()) == goal):
                    continue
            worse.append(c)
        worse = {~c if dom else c for c in worse}
        return sum(1 << v for v in bits(legal_moves(self.graph, dominated))
                   if dominated | self.graph.closed[v] not in worse)


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
