"""Reference game values that share no code with the domgame solver.

A plain memoized minimax over dominated-vertex bitmasks, built straight
from an edge list: no move filter, no move ordering.  The benchmark
checks the library's answers against it (and `make_expected.py` uses it
to record the values in `expected.json`).
"""

from __future__ import annotations


def closed_rows(n, edges):
    rows = [1 << v for v in range(n)]
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


class ReferenceGame:
    """Exact values of the domination game on one graph, for either starter."""

    def __init__(self, n, edges):
        self.rows = closed_rows(n, edges)
        self.full = (1 << n) - 1
        self._memo = {}

    def value(self, dominated=0, dominator_moves=True):
        if dominated == self.full:
            return 0
        key = (dominated << 1) | dominator_moves
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        values = [self.value(dominated | row, not dominator_moves)
                  for row in self.rows if row & ~dominated]
        best = 1 + (min(values) if dominator_moves else max(values))
        self._memo[key] = best
        return best

    def optimal_moves(self, dominated=0, dominator_moves=True):
        """Vertices whose play as the first move attains the game value."""
        target = self.value(dominated, dominator_moves)
        return [v for v, row in enumerate(self.rows)
                if row & ~dominated
                and 1 + self.value(dominated | row, not dominator_moves) == target]
