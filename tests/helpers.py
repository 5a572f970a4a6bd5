"""Independent brute-force oracles used to pin expected values.

These deliberately share no code paths with the library internals they
check: no memoization, no pruning, no bitmask DP.
"""

import itertools

from domgame.graph import Graph


def naive_game_value(g: Graph, dominated: int = 0, dominator_turn: bool = True) -> int:
    """Plain minimax over legal moves; exponential, for tiny graphs only."""
    moves = [v for v in range(g.n) if g.closed[v] & ~dominated]
    if not moves:
        return 0
    vals = [1 + naive_game_value(g, dominated | g.closed[v], not dominator_turn)
            for v in moves]
    return min(vals) if dominator_turn else max(vals)


def naive_optimal_first_moves(g: Graph, dominated: int = 0,
                              dominator_turn: bool = True) -> int:
    """Bitmask of the legal first moves whose naive score is optimal."""
    scores = {v: 1 + naive_game_value(g, dominated | g.closed[v], not dominator_turn)
              for v in range(g.n) if g.closed[v] & ~dominated}
    best = min(scores.values()) if dominator_turn else max(scores.values())
    return sum(1 << v for v, score in scores.items() if score == best)


def naive_domination_number(g: Graph) -> int:
    """Smallest dominating set by exhaustive subset enumeration."""
    full = g.full_mask
    if g.n == 0:
        return 0
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            covered = 0
            for v in combo:
                covered |= g.closed[v]
            if covered == full:
                return size
    raise AssertionError("unreachable: full vertex set always dominates")


def naive_hamiltonian_endpoints(g: Graph) -> int:
    """The Hamiltonian-path endpoint mask, by checking every vertex
    permutation."""
    if g.n <= 1:
        return g.full_mask
    endpoints = 0
    for perm in itertools.permutations(range(g.n)):
        if all(g.has_edge(perm[i], perm[i + 1]) for i in range(g.n - 1)):
            endpoints |= (1 << perm[0]) | (1 << perm[-1])
    return endpoints


def group_closure(generators, n: int):
    """Every permutation of 0..n-1 that the generators generate, by closing
    the identity under them; the group is listed, so keep it small."""
    identity = tuple(range(n))
    elements = {identity}
    frontier = [identity]
    while frontier:
        g = frontier.pop()
        for s in generators:
            h = tuple(s[v] for v in g)
            if h not in elements:
                elements.add(h)
                frontier.append(h)
    return elements


def naive_edge_set_orbits(g: Graph, k: int, elements):
    """The orbits of the k-sets of non-edges of g under the listed group
    `elements`, each a sorted list of sorted edge tuples, sorted by their
    least members."""
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
             if not g.has_edge(u, v)]
    orbits = set()
    for combo in itertools.combinations(pairs, k):
        orbits.add(frozenset(
            tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in combo))
            for p in elements))
    return sorted(sorted(orbit) for orbit in orbits)
