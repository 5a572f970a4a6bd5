"""Generators for the parameterized graph families under study.

`generate` returns a `graph.PartiallyDominatedGraph`, the type the
edge-list reader and writer use; its `labels` dict names the special
vertices of the construction.  The labeling conventions are fixed so
tests can address those vertices:

* tadpole: cycle vertices 0..m-1 first, then the tail; the joint is 0.
* two-tailed tadpole: vertices in Hamiltonian-path order 0..n+m+k-1 with
  the extra cycle-closing edge (n, n+m-1).
* r-graph: the underlying path order 0..4n+2.
* hatted cycle: cycle 0..n-1, the hat vertex is n, adjacent to 1 and n-1.
* Halin template: breadth-first ids, root 0; leaves joined in that order.

Generators validate their parameter constraints and order formulas
eagerly and fail loudly: they double as test fixtures.
"""

from dataclasses import dataclass, field

from . import analysis
from .graph import (MAX_VERTICES, Graph, GraphError, PartiallyDominatedGraph,
                    add_edges, bits, make_graph, mask_of)


@dataclass(frozen=True)
class FamilySpec:
    """Tagged family descriptor: name plus its parameter assignment.
    Equal specs describe alike, so they hash alike."""

    family: str
    params: dict = field(default_factory=dict)

    def describe(self) -> str:
        inner = ",".join(f"{k}={_fmt(v)}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})"

    def __hash__(self):
        return hash(self.describe())


def _fmt(v):
    if isinstance(v, (list, tuple)):
        return "/".join(str(x) for x in v)
    if isinstance(v, Graph):
        return f"graph{v.n}"
    return str(v)


def _path_edges(lo: int, hi: int):
    return [(v, v + 1) for v in range(lo, hi)]


def _require(cond: bool, msg: str):
    if not cond:
        raise GraphError(msg)


def path_graph(n: int) -> Graph:
    _require(n >= 1, "path needs n >= 1")
    return make_graph(n, _path_edges(0, n - 1))


def cycle_graph(n: int) -> Graph:
    _require(n >= 3, "cycle needs n >= 3")
    return make_graph(n, _path_edges(0, n - 1) + [(0, n - 1)])


def _gen_path(n):
    return PartiallyDominatedGraph(path_graph(n), labels={"ends": (0, n - 1)})


def _gen_cycle(n):
    return PartiallyDominatedGraph(cycle_graph(n))


def _gen_prime_path(n):
    # Path on n+1 vertices with the last vertex pre-dominated.
    _require(n >= 0, "prime path needs n >= 0")
    return PartiallyDominatedGraph(path_graph(n + 1), 1 << n, {"dominated_end": n})


def _gen_double_prime_path(n):
    # Path on n+2 vertices with both end-vertices pre-dominated.
    _require(n >= 0, "double prime path needs n >= 0")
    return PartiallyDominatedGraph(path_graph(n + 2), (1 << 0) | (1 << (n + 1)),
                                   {"dominated_ends": (0, n + 1)})


def _gen_tadpole(m, n):
    _require(m >= 3 and n >= 1, "tadpole needs m >= 3 and n >= 1")
    edges = _path_edges(0, m - 1) + [(0, m - 1)]
    edges += [(0, m)] + _path_edges(m, m + n - 1)
    g = make_graph(m + n, edges)
    assert g.degree(0) == 3
    return PartiallyDominatedGraph(g, labels={"joint": 0, "tail_leaf": m + n - 1})


def _gen_two_tailed_tadpole(m, n, k):
    _require(m >= 3 and n >= 1 and k >= 1,
             "two-tailed tadpole needs m >= 3 and n, k >= 1")
    order = n + m + k
    edges = _path_edges(0, order - 1) + [(n, n + m - 1)]
    g = make_graph(order, edges)
    assert g.degree(n) == 3 and g.degree(n + m - 1) == 3
    return PartiallyDominatedGraph(g, labels={"joints": (n, n + m - 1),
                                              "cycle_extra_edge": (n, n + m - 1)})


def _gen_hatted_cycle(n):
    _require(n >= 4, "hatted cycle needs n >= 4")
    g = make_graph(n + 1, cycle_graph(n).edges() + [(1, n), (n - 1, n)])
    assert g.has_edge(1, n) and g.has_edge(n - 1, n)
    return PartiallyDominatedGraph(g, labels={"x": n, "x_prime": 0, "y": 1,
                                              "y_prime": n - 1})


def _gen_broken_ladder(k):
    _require(k >= 0, "broken ladder needs k >= 0")
    # Ladder: bottom rail 0..3, top rail 4..7, rungs (i, i+4).
    edges = _path_edges(0, 3) + _path_edges(4, 7) + [(i, i + 4) for i in range(4)]
    if k == 0:
        g = make_graph(8, edges)
    else:
        # Path of length 4k+1 (4k internal vertices) between the adjacent
        # degree-2 vertices 0 and 4.
        inner = list(range(8, 8 + 4 * k))
        edges += [(0, inner[0]), (inner[-1], 4)]
        edges += [(v, v + 1) for v in inner[:-1]]
        g = make_graph(8 + 4 * k, edges)
    assert g.n == 4 * k + 8
    return PartiallyDominatedGraph(g, labels={"rung_ends": (0, 4)})


def _gen_cycle_chord(n, i):
    # Chord between v_1 and v_i in 1-based cycle order, so (0, i-1) here.
    _require(n >= 4, "chorded cycle needs n >= 4")
    _require(3 <= i <= n - 1, "chord position must satisfy 3 <= i <= n-1")
    g = add_edges(cycle_graph(n), [(0, i - 1)])
    return PartiallyDominatedGraph(g, labels={"chord": (0, i - 1)})


def _gen_fx(x: Graph, n: int, w: list):
    _require(n >= 3, "attachment path needs n >= 3")
    _require(x.n >= 1, "building graph must be nonempty")
    _require(w and all(0 <= v < x.n for v in w),
             "w must be a nonempty vertex set of the building graph")
    w = mask_of(w)
    endpoints = analysis.hamiltonian_endpoints(x)
    _require(endpoints != 0, "building graph must be traceable")
    _require(bool(w & endpoints),
             "w must contain an end-vertex of some Hamiltonian path")
    nx = x.n
    y, y2 = nx, nx + n - 1
    edges = x.edges() + _path_edges(nx, nx + n - 1)
    edges += [(v, y) for v in range(nx)]
    edges += [(v, y2) for v in bits(w)]
    g = make_graph(nx + n, edges)
    return PartiallyDominatedGraph(g, labels={"y": y, "y_prime": y2,
                                              "x_vertices": x.full_mask, "w": w})


def _halin_levels(k, degrees):
    _require(k >= 1, "halin template needs k >= 1")
    _require(len(degrees) == k, "need one degree per level 0..k-1")
    _require(degrees[0] >= 3, "root degree must be at least 3")
    _require(all(d >= 2 for d in degrees[1:]),
             "interior level degrees must be at least 2")
    levels = [[0]]
    nxt = 1
    for i in range(k):
        children = []
        for _ in levels[-1]:
            children.extend(range(nxt, nxt + degrees[i]))
            nxt += degrees[i]
        levels.append(children)
    return levels


def _gen_halin(k, degrees):
    degrees = list(degrees)
    levels = _halin_levels(k, degrees)
    edges = []
    for i in range(k):
        parents, children = levels[i], levels[i + 1]
        d = degrees[i]
        for j, c in enumerate(children):
            edges.append((parents[j // d], c))
    leaves = levels[-1]
    edges += [(leaves[j], leaves[j + 1]) for j in range(len(leaves) - 1)]
    edges.append((leaves[0], leaves[-1]))
    g = make_graph(sum(len(lv) for lv in levels), edges)
    level_masks = tuple(mask_of(lv) for lv in levels)
    for i in range(1, k + 1):
        assert len(levels[i]) == len(levels[i - 1]) * degrees[i - 1]
    return PartiallyDominatedGraph(g, labels={"root": 0, "levels": level_masks})


R_GRAPH_EXTRA_EDGES = ((0, 4), (5, 8), (1, 7))
R_PRIME_11_EXTRA_EDGES = ((0, 4), (5, 8), (2, 7))


def _gen_r_graph(n):
    _require(n >= 2, "r-graph needs n >= 2")
    g = add_edges(path_graph(4 * n + 3), R_GRAPH_EXTRA_EDGES)
    return PartiallyDominatedGraph(g, labels={"extra_edges": R_GRAPH_EXTRA_EDGES})


def _gen_r_prime_11():
    g = add_edges(path_graph(11), R_PRIME_11_EXTRA_EDGES)
    return PartiallyDominatedGraph(g, labels={"extra_edges": R_PRIME_11_EXTRA_EDGES})


def _halin_order(k, degrees):
    # Level i holds d_0 * ... * d_{i-1} vertices, for i = 0..k.
    order = level = 1
    for d in degrees[:k]:
        level *= d
        order += level
    return order


# family -> (builder, parameter names, order as a function of the parameters)
_BUILDERS = {
    "path": (_gen_path, ("n",), lambda n: n),
    "cycle": (_gen_cycle, ("n",), lambda n: n),
    "prime-path": (_gen_prime_path, ("n",), lambda n: n + 1),
    "double-prime-path": (_gen_double_prime_path, ("n",), lambda n: n + 2),
    "tadpole": (_gen_tadpole, ("m", "n"), lambda m, n: m + n),
    "two-tailed-tadpole": (_gen_two_tailed_tadpole, ("m", "n", "k"),
                           lambda m, n, k: m + n + k),
    "hatted-cycle": (_gen_hatted_cycle, ("n",), lambda n: n + 1),
    "broken-ladder": (_gen_broken_ladder, ("k",), lambda k: 4 * k + 8),
    "cycle-chord": (_gen_cycle_chord, ("n", "i"), lambda n, i: n),
    "fx": (_gen_fx, ("x", "n", "w"), lambda x, n, w: x.n + n),
    "halin": (_gen_halin, ("k", "d"), _halin_order),
    "r-graph": (_gen_r_graph, ("n",), lambda n: 4 * n + 3),
    "r-prime-11": (_gen_r_prime_11, (), lambda: 11),
}

FAMILY_NAMES = tuple(sorted(_BUILDERS))


def _entry(spec: FamilySpec):
    """The spec's builder and order function, with its arguments in order."""
    try:
        builder, arg_names, order = _BUILDERS[spec.family]
    except KeyError:
        raise GraphError(f"unknown family {spec.family!r}") from None
    missing = [a for a in arg_names if a not in spec.params]
    if missing:
        raise GraphError(f"{spec.family} missing parameters {missing}")
    extra = [a for a in spec.params if a not in arg_names]
    if extra:
        raise GraphError(f"{spec.family} got unexpected parameters {extra}")
    return builder, order, [spec.params[a] for a in arg_names]


def generate(spec: FamilySpec) -> PartiallyDominatedGraph:
    """Build the instance described by a family spec.  An order above
    MAX_VERTICES is refused before the builder allocates anything."""
    builder, order, args = _entry(spec)
    n = order(*args)
    if n > MAX_VERTICES:
        raise GraphError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
    return builder(*args)


def family_order(spec: FamilySpec) -> int:
    """The order of `generate(spec)`'s graph, without building it, so a
    vertex cap can be checked first.  Parameter constraints are left to
    `generate`."""
    _, order, args = _entry(spec)
    return order(*args)


def halin_dominating_set(k: int, degrees) -> int:
    """Dominating set of the Halin template built from whole tree levels.

    Takes level 0 plus every third level (which level pattern depends on
    k mod 3) so each chosen level covers itself and both neighbors.
    Requires all level degrees >= 3; the returned set is verified to
    dominate before it is handed out.

    Guarantees 4|D| <= n, with equality exactly for k = 1, d0 = 3 and for
    k = 3, d0 = d2 = 3: the bands {L0, L1} (root), {L2, L3} (level 2) and
    {L(i-1), L(i), L(i+1)} (otherwise) partition the levels, and with
    degrees >= 3 each band holds at least four times its picked level.
    """
    degrees = list(degrees)
    _require(all(d >= 3 for d in degrees), "all level degrees must be >= 3")
    pdg = _gen_halin(k, degrees)
    levels = pdg.labels["levels"]
    if k % 3 == 0:
        picked = [0] + [3 * i - 1 for i in range(1, k // 3 + 1)]
    elif k % 3 == 1:
        picked = [0] + [3 * i for i in range(1, (k - 1) // 3 + 1)]
    else:
        picked = [3 * i - 2 for i in range(1, (k + 1) // 3 + 1)]
    d_mask = 0
    for i in picked:
        d_mask |= levels[i]
    g = pdg.graph
    covered = 0
    for v in bits(d_mask):
        covered |= g.closed[v]
    if covered != g.full_mask:
        raise AssertionError("constructed set fails to dominate")
    return d_mask
