"""Traceability and unicyclic classification."""

from dataclasses import dataclass

from .graph import Graph, bits, is_connected

HAMILTONIAN_CAP = 24


def hamiltonian_endpoints(g: Graph) -> int:
    """The mask of vertices at which some Hamiltonian path of g ends; 0
    exactly when g has none.

    Subset DP: ends[mask] holds the bitmask of feasible terminal vertices
    of paths covering exactly `mask`.
    """
    if g.n > HAMILTONIAN_CAP:
        raise ValueError(f"order {g.n} exceeds Hamiltonian-path cap {HAMILTONIAN_CAP}")
    n = g.n
    adj = [g.adj(v) for v in range(n)]
    full = (1 << n) - 1
    ends = [0] * (full + 1)
    for v in range(n):
        ends[1 << v] = 1 << v
    for mask in range(1, full + 1):
        e = ends[mask]
        if not e:
            continue
        for v in bits(e):
            for u in bits(adj[v] & ~mask):
                ends[mask | (1 << u)] |= 1 << u
    return ends[full]


@dataclass(frozen=True)
class UnicyclicClass:
    kind: str  # cycle | tadpole | two-tailed-tadpole | not-traceable | not-unicyclic
    params: tuple = ()


NOT_UNICYCLIC = UnicyclicClass("not-unicyclic")
NOT_TRACEABLE = UnicyclicClass("not-traceable")


def _path_tail_length(g: Graph, start: int, avoid: int) -> int:
    """Length of the pendant path leaving `avoid` via `start`; -1 if the
    branch is not a simple path."""
    length = 0
    prev, cur = avoid, start
    while True:
        length += 1
        nxt = g.adj(cur) & ~(1 << prev)
        if nxt == 0:
            return length
        if nxt.bit_count() > 1:
            return -1
        prev, cur = cur, nxt.bit_length() - 1


def classify_unicyclic(g: Graph) -> UnicyclicClass:
    """Identify connected unicyclic graphs as cycle / tadpole / two-tailed.

    Any other unicyclic shape cannot carry a Hamiltonian path.  For a
    two-tailed tadpole the longer tail is reported first.
    """
    if g.n < 3 or g.edge_count != g.n or not is_connected(g):
        return NOT_UNICYCLIC
    # Strip leaves iteratively; the unique cycle is what survives.
    alive = g.full_mask
    degree = [g.degree(v) for v in range(g.n)]
    queue = [v for v in range(g.n) if degree[v] == 1]
    while queue:
        v = queue.pop()
        alive &= ~(1 << v)
        for u in bits(g.adj(v)):
            if alive & (1 << u):
                degree[u] -= 1
                if degree[u] == 1:
                    queue.append(u)
    cycle_mask = alive
    m = cycle_mask.bit_count()
    branch = [v for v in bits(cycle_mask) if g.degree(v) >= 3]
    if not branch:
        return UnicyclicClass("cycle", (m,))
    if any(g.degree(v) > 3 for v in branch):
        return NOT_TRACEABLE
    if len(branch) == 1:
        v = branch[0]
        start = g.adj(v) & ~cycle_mask
        tail = _path_tail_length(g, start.bit_length() - 1, v)
        if tail < 0:
            return NOT_TRACEABLE
        return UnicyclicClass("tadpole", (m, tail))
    if len(branch) == 2 and g.has_edge(branch[0], branch[1]):
        tails = []
        for v in branch:
            start = g.adj(v) & ~cycle_mask
            tail = _path_tail_length(g, start.bit_length() - 1, v)
            if tail < 0:
                return NOT_TRACEABLE
            tails.append(tail)
        n1, k1 = max(tails), min(tails)
        return UnicyclicClass("two-tailed-tadpole", (m, n1, k1))
    return NOT_TRACEABLE
