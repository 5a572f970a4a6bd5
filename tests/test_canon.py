import hashlib
import itertools
import math
import random
import time

import pytest

from domgame.analysis import hamiltonian_endpoints
from domgame.canon import _refine, canonical_form, canonical_key, edge_set_orbits
from domgame.families import cycle_graph, path_graph
from domgame.graph import Graph, add_edges, is_connected, make_graph, non_edges
from domgame.solver import Solver

from helpers import group_closure, naive_edge_set_orbits


def complete(n):
    return make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a, b):
    return make_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def petersen():
    return make_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(i, i + 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def frucht():
    """3-regular on 12 vertices with only the trivial automorphism."""
    return make_graph(12, [(0, 1), (0, 6), (0, 7), (1, 2), (1, 7), (2, 3),
                           (2, 8), (3, 4), (3, 9), (4, 5), (4, 9), (5, 6),
                           (5, 10), (6, 10), (7, 11), (8, 9), (8, 11), (10, 11)])


def union(*graphs):
    """Disjoint union; each graph's vertices follow the previous ones."""
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n
    return make_graph(offset, edges)


def prism():
    return make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                          (0, 3), (1, 4), (2, 5)])


def relabel(g: Graph, dominated: int, perm):
    graph = make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    return graph, sum(1 << perm[v] for v in range(g.n) if dominated >> v & 1)


def random_pair(rng, n):
    p = rng.uniform(0.1, 0.7)
    g = make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                       if rng.random() < p])
    return g, sum(1 << v for v in range(n) if rng.random() < 0.3)


def from_networkx(nx_graph):
    index = {v: i for i, v in enumerate(nx_graph.nodes())}
    return make_graph(len(index), [(index[u], index[v])
                                   for u, v in nx_graph.edges()])


def assert_automorphisms(g, dominated, generators):
    for perm in generators:
        assert sorted(perm) == list(range(g.n))
        assert relabel(g, dominated, perm) == (g, dominated)


def assert_equitable_refinement(adj, cells, refined):
    # A partition of the same vertices whose cells lie in the input's,
    # in the input's cell order.
    assert sum(refined) == sum(cells) == sum(1 << v for v in range(len(adj)))
    assert sum(c.bit_count() for c in refined) == len(adj)
    owners = [next(i for i, c in enumerate(cells) if part & c == part)
              for part in refined]
    assert owners == sorted(owners)
    # Equitable: the vertices of a cell have equally many neighbours in
    # every cell.
    for x in refined:
        for y in refined:
            assert len({(adj[v] & y).bit_count()
                        for v in range(len(adj)) if x >> v & 1}) == 1


class TestKey:
    def test_atlas_keys_distinct(self):
        nx = pytest.importorskip("networkx")
        graphs = [from_networkx(G) for G in nx.graph_atlas_g()
                  if G.number_of_nodes() <= 7]
        assert len(graphs) == 1253
        assert len({canonical_key(g) for g in graphs}) == len(graphs)

    def test_relabeling_keeps_key(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(3)
        for G in nx.graph_atlas_g():
            g = from_networkx(G)
            dominated = rng.getrandbits(g.n) if g.n else 0
            h, moved = relabel(g, dominated, rng.sample(range(g.n), g.n))
            assert canonical_key(h, moved) == canonical_key(g, dominated)

    def test_equal_exactly_when_isomorphic(self):
        nx = pytest.importorskip("networkx")
        iso = nx.algorithms.isomorphism

        def as_networkx(g, dominated):
            G = nx.Graph()
            G.add_nodes_from((v, {"d": bool(dominated >> v & 1)})
                             for v in range(g.n))
            G.add_edges_from(g.edges())
            return G

        rng = random.Random(11)
        equal = 0
        for trial in range(200):
            n = rng.randint(1, 10)
            g, d = random_pair(rng, n)
            perm = rng.sample(range(n), n)
            if trial % 3 == 0:      # a relabeled copy: isomorphic
                h, e = relabel(g, d, perm)
            elif trial % 3 == 1:    # the same graph, another dominated set
                h, _ = relabel(g, d, perm)
                e = sum(1 << v for v in rng.sample(range(n), d.bit_count()))
            else:                   # an unrelated graph of the same order
                h, e = random_pair(rng, n)
            same = canonical_key(g, d) == canonical_key(h, e)
            assert same == nx.is_isomorphic(
                as_networkx(g, d), as_networkx(h, e),
                node_match=iso.categorical_node_match("d", False)), (g, d, h, e)
            equal += same
        assert 70 <= equal < 200   # both outcomes are exercised

    @pytest.mark.parametrize("g", [
        frucht(),
        union(cycle_graph(3), cycle_graph(4)),
        union(cycle_graph(3), cycle_graph(4), cycle_graph(5)),
    ], ids=["frucht", "C3+C4", "C3+C4+C5"])
    def test_relabeling_keeps_key_when_refinement_stalls(self, g):
        # Regular graphs whose vertices are not all alike: refinement
        # leaves one cell, and the leaves under it differ, so the key
        # must be the greatest leaf, not the one reached first, and no
        # subtree that holds it may be cut.
        rng = random.Random(7)
        key = canonical_key(g)
        for _ in range(30):
            h, _ = relabel(g, 0, rng.sample(range(g.n), g.n))
            assert canonical_key(h) == key

    def test_dominated_set_is_a_colour(self):
        # P_3 with an end dominated is not P_3 with its middle dominated.
        g = path_graph(3)
        assert canonical_key(g, 0b001) == canonical_key(g, 0b100)
        assert canonical_key(g, 0b001) != canonical_key(g, 0b010)
        assert canonical_key(g, 0) != canonical_key(g, 0b010)


class TestRefine:
    def test_equitable_and_finer(self):
        # The initial refinement, and the refinement after one vertex is
        # individualized, as the search does it.
        rng = random.Random(23)
        for _ in range(300):
            g, d = random_pair(rng, rng.randint(1, 12))
            adj = [row ^ (1 << v) for v, row in enumerate(g.closed)]
            cells = [c for c in (g.full_mask & ~d, d) if c]
            refined = _refine(adj, cells, cells)
            assert_equitable_refinement(adj, cells, refined)
            big = [c for c in refined if c.bit_count() > 1]
            if big:
                target = rng.choice(big)
                single = 1 << rng.choice([v for v in range(g.n)
                                          if target >> v & 1])
                at = refined.index(target)
                child = refined[:at] + [single, target ^ single] + refined[at + 1:]
                assert_equitable_refinement(adj, child,
                                            _refine(adj, child, [single]))


def test_forms_pinned():
    """A digest of the exact (key, generators) of 500 random pairs.

    The key and the generators depend on the labeling algorithm, not on
    the graph alone: any change of the refinement order, of the target
    cell or of the leaf order changes them while every test above still
    passes.  A speed-up must keep them exactly, so a change of the
    algorithm re-pins this digest on purpose, as the `states_explored`
    pins in test_solver.py do for the search."""
    rng = random.Random(29)
    forms = []
    for _ in range(500):
        g, d = random_pair(rng, rng.randint(0, 12))
        forms.append(repr(canonical_form(g, d)))
    assert hashlib.sha256("\n".join(forms).encode()).hexdigest() == \
        "bf0e8d613e03b7a251e36a478aec0b9326685a6045d9bf5ce8da0b505ad58924"


class TestGenerators:
    @pytest.mark.parametrize("g, order", [
        *[(path_graph(n), 2) for n in (2, 5, 9, 12)],
        *[(cycle_graph(n), 2 * n) for n in (3, 4, 7, 10)],
        (complete(5), 120),
        (petersen(), 120),
        (frucht(), 1),
        (union(cycle_graph(3), cycle_graph(4)), 6 * 8),
        # Two prisms (12 each, and their swap) beside K_{3,3}.
        (union(prism(), prism(), complete_bipartite(3, 3)), 12 * 12 * 2 * 72),
        (complete_bipartite(3, 3), 72),
        (path_graph(1), 1),
        (make_graph(0, []), 1),
    ])
    def test_group_order(self, g, order):
        _, generators = canonical_form(g)
        assert_automorphisms(g, 0, generators)
        assert len(group_closure(generators, g.n)) == order

    def test_generators_preserve_dominated_set(self):
        rng = random.Random(5)
        for _ in range(200):
            g, d = random_pair(rng, rng.randint(1, 10))
            assert_automorphisms(g, d, canonical_form(g, d)[1])

    def test_dominated_set_cuts_the_group(self):
        # C_6 with two opposite vertices dominated keeps the reflection
        # through them and the half turn: 4 of the 12 elements.
        _, generators = canonical_form(cycle_graph(6), 0b001001)
        assert len(group_closure(generators, 6)) == 4


class TestEdgeSetOrbits:
    def test_matches_listed_group(self):
        # The closure of each edge set under the generators against the
        # partition of all k-sets under every listed group element.
        rng = random.Random(17)
        for _ in range(100):
            g, d = random_pair(rng, rng.randint(2, 7))
            generators = canonical_form(g, d)[1]
            elements = group_closure(generators, g.n)
            for k in (1, 2):
                assert edge_set_orbits(g, k, generators) == \
                    naive_edge_set_orbits(g, k, elements), (g, d, k)

    def test_no_generators_gives_singletons(self):
        g = path_graph(6)
        assert edge_set_orbits(g, 2, []) == \
            [[combo] for combo in itertools.combinations(non_edges(g), 2)]

    @pytest.mark.parametrize("g, k, count", [
        (make_graph(12, []), 2, 2),
        (make_graph(12, []), 3, 5),
        (complete_bipartite(6, 6), 2, 3),
        (complete_bipartite(6, 6), 3, 7),
    ], ids=["empty12-k2", "empty12-k3", "K6,6-k2", "K6,6-k3"])
    def test_groups_too_large_to_list(self, g, k, count):
        # |Aut| is 12! and 2 (6!)^2: the orbits of the k-edge graphs on
        # the complement, without the group ever being listed.
        orbits = edge_set_orbits(g, k, canonical_form(g)[1])
        assert len(orbits) == count
        assert sum(map(len, orbits)) == math.comb(len(non_edges(g)), k)


def one_edge_levels(n):
    """Each class of graphs of order n once, with its number of non-edge
    orbits.  Level m holds the classes with m edges; level m + 1 adds one
    edge per orbit of Aut(G) on the non-edges of each class G at level m,
    from the empty graph up, and keeps one child per canonical key.  Every
    class is reached, as deleting any of its edges gives a parent."""
    g = make_graph(n, [])
    level = [(g, canonical_form(g)[1])]
    while level:
        children = {}
        for g, generators in level:
            orbits = edge_set_orbits(g, 1, generators)
            yield g, len(orbits)
            for orbit in orbits:
                child = add_edges(g, orbit[0])
                key, child_generators = canonical_form(child)
                children.setdefault(key, (child, child_generators))
        level = list(children.values())


class TestOneEdgeLevels:
    # Per order n: classes (OEIS A000088), connected classes (A001349),
    # traceable classes, children labeled (orbits summed over classes),
    # and 1/2-graphs (traceable with game value ceil(n/2)).  The orbit
    # count is the same for any generators of all of Aut(G), so it catches
    # generators that miss part of the group; the class counts catch
    # wrong keys.
    ROWS = {
        1: (1, 1, 1, 0, 1),
        2: (2, 1, 1, 1, 1),
        3: (4, 2, 2, 3, 0),
        4: (11, 6, 5, 14, 2),
        5: (34, 21, 18, 74, 2),
        6: (156, 112, 91, 572, 21),
        7: (1_044, 853, 734, 6_564, 0),
    }

    @pytest.mark.parametrize("n", ROWS)
    def test_counts(self, n):
        classes = connected = traceable = labeled = half = 0
        for g, orbits in one_edge_levels(n):
            classes += 1
            labeled += orbits
            connected += is_connected(g)
            if hamiltonian_endpoints(g):
                traceable += 1
                half += Solver(g).game_value() == (n + 1) // 2
        assert (classes, connected, traceable, labeled, half) == self.ROWS[n]


@pytest.mark.parametrize("g", [complete(12), make_graph(12, []),
                               complete_bipartite(6, 6)],
                         ids=["K12", "empty12", "K6,6"])
def test_symmetric_graphs_label_fast(g):
    t0 = time.perf_counter()
    canonical_form(g)
    assert time.perf_counter() - t0 < 0.25
