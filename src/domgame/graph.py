"""Bitmask-based simple graphs and partially dominated graphs.

Vertex sets are plain Python ints used as bit vectors: bit v set means
vertex v is in the set.  Graphs store the closed neighborhood N[v] of
every vertex as one machine word, which is the representation the game
solver queries in its innermost loop.
"""

from dataclasses import dataclass, field

MAX_VERTICES = 64


class GraphError(ValueError):
    """Invalid graph construction or serialization input."""


def bits(mask: int):
    """Iterate the vertex ids present in a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph as closed-neighborhood bit rows."""

    n: int
    closed: tuple  # closed[v] = bitmask of N[v], diagonal bit always set

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise GraphError(f"vertex count {self.n} outside [0, {MAX_VERTICES}]")
        if len(self.closed) != self.n:
            raise GraphError("closed neighborhood row count != n")
        closed = self.closed
        full = (1 << self.n) - 1
        for v, row in enumerate(closed):
            if row & ~full:
                raise GraphError(f"row {v} sets bits beyond vertex count")
            if not row & (1 << v):
                raise GraphError(f"row {v} misses its own diagonal bit")
        # Every graph built passes here, so the lowest-bit loop is inline.
        # Pairs are visited v then u, each ascending; the first bad one is
        # named.
        for v, row in enumerate(closed):
            bit = 1 << v
            row ^= bit
            while row:
                low = row & -row
                u = low.bit_length() - 1
                if not closed[u] & bit:
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")
                row ^= low

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def adj(self, v: int) -> int:
        """Open neighborhood of v."""
        return self.closed[v] ^ (1 << v)

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and bool(self.closed[u] & (1 << v))

    def degree(self, v: int) -> int:
        return self.adj(v).bit_count()

    def edges(self):
        """All edges as sorted (u, v) pairs with u < v, lexicographic."""
        out = []
        for u in range(self.n):
            rest = self.closed[u] & ~((1 << (u + 1)) - 1)
            for v in bits(rest):
                out.append((u, v))
        return out

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() - 1 for row in self.closed) // 2


@dataclass(frozen=True)
class PartiallyDominatedGraph:
    """A graph together with a set of vertices declared already dominated.

    `labels` names the special vertices of a family instance; it takes no
    part in equality or hashing."""

    graph: Graph
    dominated: int = 0
    labels: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.dominated & ~self.graph.full_mask:
            raise GraphError("dominated set contains ids outside the graph")


def _check_endpoint(n: int, v: int):
    if not isinstance(v, int) or not 0 <= v < n:
        raise GraphError(f"endpoint {v!r} out of range for {n} vertices")


def make_graph(n: int, edges) -> Graph:
    """Build a simple graph on vertices 0..n-1 from an edge list.

    Duplicate pairs collapse to a single edge; self-loops are rejected.
    """
    if not 0 <= n <= MAX_VERTICES:
        raise GraphError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
    closed = [1 << v for v in range(n)]
    for u, v in edges:
        _check_endpoint(n, u)
        _check_endpoint(n, v)
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    return Graph(n, tuple(closed))


def add_edges(g: Graph, pairs) -> Graph:
    """Return a new graph with the given non-edges added."""
    closed = list(g.closed)
    for u, v in pairs:
        _check_endpoint(g.n, u)
        _check_endpoint(g.n, v)
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if closed[u] & (1 << v):
            raise GraphError(f"pair ({u}, {v}) is already an edge")
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    return Graph(g.n, tuple(closed))


def non_edges(g: Graph):
    """All unordered non-adjacent distinct pairs, lexicographic order."""
    out = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.closed[u] & (1 << v):
                out.append((u, v))
    return out


def disjoint_union(a: PartiallyDominatedGraph,
                   b: PartiallyDominatedGraph) -> PartiallyDominatedGraph:
    """Disjoint union; b's vertex ids are shifted by a.graph.n."""
    na, nb = a.graph.n, b.graph.n
    if na + nb > MAX_VERTICES:
        raise GraphError(f"union order {na + nb} exceeds capacity {MAX_VERTICES}")
    closed = list(a.graph.closed) + [row << na for row in b.graph.closed]
    g = Graph(na + nb, tuple(closed))
    return PartiallyDominatedGraph(g, a.dominated | (b.dominated << na))


def is_connected(g: Graph) -> bool:
    """Whether one breadth-first search from vertex 0 reaches every vertex."""
    if g.n == 0:
        return True
    seen = frontier = 1
    while frontier:
        nxt = 0
        for u in bits(frontier):
            nxt |= g.closed[u]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == g.full_mask


# ---------------------------------------------------------------------------
# Edge-list text format
#
# line 1: "n m"; lines 2..m+1: "u v" with u < v; optional final line
# "dominated: i j k".  UTF-8, LF line endings.
# ---------------------------------------------------------------------------

def format_edge_list(pdg: PartiallyDominatedGraph) -> str:
    g = pdg.graph
    edges = g.edges()
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    if pdg.dominated:
        lines.append("dominated: " + " ".join(str(v) for v in bits(pdg.dominated)))
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> PartiallyDominatedGraph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"bad header line {lines[0]!r}, expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphError(f"non-numeric header {lines[0]!r}") from None
    dominated = 0
    body = lines[1:]
    if body and body[-1].startswith("dominated:"):
        ids = body[-1][len("dominated:"):].split()
        body = body[:-1]
        try:
            dominated = mask_of(int(s) for s in ids)
        except ValueError:
            raise GraphError(f"bad dominated line {lines[-1]!r}") from None
    if len(body) != m:
        raise GraphError(f"header promises {m} edges, found {len(body)}")
    edges = set()
    for ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"non-numeric edge line {ln!r}") from None
        if not u < v:
            raise GraphError(f"edge line {ln!r} violates u < v")
        if (u, v) in edges:
            raise GraphError(f"repeated edge line {ln!r}")
        edges.add((u, v))
    # The constructor rejects dominated ids outside the graph.
    return PartiallyDominatedGraph(make_graph(n, edges), dominated)


# ---------------------------------------------------------------------------
# graph6 interchange (standard byte encoding, n <= 62 covers our capacity use)
# ---------------------------------------------------------------------------

def to_graph6(g: Graph) -> str:
    if g.n > 62:
        raise GraphError("graph6 writer limited to n <= 62")
    out = [chr(g.n + 63)]
    acc = 0
    nbits = 0
    for v in range(1, g.n):
        for u in range(v):
            acc = (acc << 1) | (1 if g.has_edge(u, v) else 0)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def from_graph6(line: str) -> Graph:
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphError("empty graph6 input")
    codes = [ord(c) - 63 for c in s]
    if any(c < 0 or c > 63 for c in codes):
        raise GraphError(f"invalid graph6 byte in {line!r}")
    if codes[0] == 63:
        raise GraphError("graph6 reader limited to n <= 62")
    n = codes[0]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(codes) - 1 != need:
        raise GraphError(f"graph6 body length {len(codes) - 1}, expected {need}")
    bitstream = []
    for c in codes[1:]:
        bitstream.extend((c >> k) & 1 for k in range(5, -1, -1))
    if any(bitstream[n * (n - 1) // 2:]):
        raise GraphError(f"nonzero graph6 padding bits in {line!r}")
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bitstream[i]:
                edges.append((u, v))
            i += 1
    return make_graph(n, edges)
