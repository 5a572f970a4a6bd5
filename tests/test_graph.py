import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domgame.graph import (Graph, GraphError, PartiallyDominatedGraph,
                           add_edges, disjoint_union, format_edge_list, from_graph6,
                           is_connected, make_graph, mask_of, non_edges,
                           parse_edge_list, to_graph6)
from domgame.families import FamilySpec, generate, path_graph, cycle_graph


def random_graph_strategy(max_n=9):
    def build(n, picks):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for p, keep in zip(pairs, picks) if keep]
        return make_graph(n, edges)
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(build, st.just(n),
                            st.lists(st.booleans(),
                                     min_size=n * (n - 1) // 2,
                                     max_size=n * (n - 1) // 2)))


class TestMakeGraph:
    def test_p2_closed_neighborhood(self):
        g = make_graph(2, [(0, 1)])
        assert g.closed[0] == mask_of([0, 1])

    def test_k1(self):
        g = make_graph(1, [])
        assert g.closed[0] == 1

    def test_c4_regular(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert all(row.bit_count() == 3 for row in g.closed)

    def test_duplicate_edges_collapse(self):
        g = make_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            make_graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            make_graph(3, [(0, 3)])

    def test_rejects_over_capacity(self):
        with pytest.raises(GraphError):
            make_graph(65, [])


class TestGraphChecks:
    """`Graph`'s own checks, met by building it from rows directly."""

    @pytest.mark.parametrize("n, closed, message", [
        (65, (), "vertex count 65 outside [0, 64]"),
        (3, (0b001, 0b010), "closed neighborhood row count != n"),
        (2, (0b101, 0b010), "row 0 sets bits beyond vertex count"),
        (2, (0b01, 0b01), "row 1 misses its own diagonal bit"),
        # Rows {0}, {1, 3}, {0, 2}, {3}: (3, 1) is met before (0, 2),
        # because the pairs are visited v then u, each ascending.
        (4, (0b0001, 0b1010, 0b0101, 0b1000),
         "asymmetric adjacency between 3 and 1"),
        # Every row is checked for stray and diagonal bits before any
        # pair is checked for symmetry.
        (3, (0b011, 0b010, 0b1100), "row 2 sets bits beyond vertex count"),
        (3, (0b011, 0b010, 0b000), "row 2 misses its own diagonal bit"),
    ], ids=["order", "row-count", "stray-bit", "diagonal", "asymmetric",
            "stray-bit-first", "diagonal-first"])
    def test_message(self, n, closed, message):
        with pytest.raises(GraphError) as err:
            Graph(n, closed)
        assert str(err.value) == message


class TestAddEdges:
    def test_r11_from_p11(self):
        r11 = add_edges(path_graph(11), [(0, 4), (5, 8), (1, 7)])
        assert r11.edge_count == 13
        assert r11.has_edge(0, 4) and r11.has_edge(1, 7)

    def test_r11_prime(self):
        g = add_edges(path_graph(11), [(0, 4), (5, 8), (2, 7)])
        assert g.has_edge(2, 7) and not g.has_edge(1, 7)

    def test_empty_addition(self):
        c4 = cycle_graph(4)
        assert add_edges(c4, []) == c4

    def test_input_untouched(self):
        p5 = path_graph(5)
        add_edges(p5, [(0, 2)])
        assert not p5.has_edge(0, 2)

    def test_rejects_existing_edge(self):
        with pytest.raises(GraphError):
            add_edges(path_graph(4), [(1, 2)])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError) as err:
            add_edges(path_graph(4), [(0, 2), (1, 1)])
        assert str(err.value) == "self-loop at vertex 1"

    def test_added_pairs_leave_non_edges(self):
        g = path_graph(6)
        pairs = [(0, 3), (1, 5)]
        g2 = add_edges(g, pairs)
        remaining = non_edges(g2)
        assert all(p not in remaining for p in pairs)


class TestNonEdges:
    def test_c4_diagonals(self):
        assert non_edges(cycle_graph(4)) == [(0, 2), (1, 3)]

    def test_k4_empty(self):
        k4 = make_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert non_edges(k4) == []

    def test_p5_count(self):
        # C(5,2) - 4 path edges
        assert len(non_edges(path_graph(5))) == 6


class TestIsConnected:
    @pytest.mark.parametrize("n, edges, connected", [
        (0, [], True),
        (1, [], True),
        (2, [], False),
        (5, [(0, 1), (1, 2), (2, 3), (3, 4)], True),
        # Vertex 0 isolated; the rest is a triangle.
        (4, [(1, 2), (2, 3), (1, 3)], False),
        # Vertex 0 reaches the rest only through the last vertex.
        (4, [(0, 3), (1, 3), (2, 3)], True),
    ], ids=["E0", "K1", "E2", "P5", "isolated-0", "star-at-3"])
    def test_cases(self, n, edges, connected):
        assert is_connected(make_graph(n, edges)) is connected

    @given(random_graph_strategy(7))
    @settings(max_examples=100, deadline=None)
    def test_matches_cut_check(self, g):
        # Disconnected iff some proper vertex set containing vertex 0 has
        # no edge leaving it.
        splits = any(
            not any(g.closed[v] & ~s for v in range(g.n) if s >> v & 1)
            for s in range(1, g.full_mask, 2))
        assert is_connected(g) is not splits


class TestDisjointUnion:
    def test_prime_pieces_orders(self):
        a = generate(FamilySpec("prime-path", {"n": 1}))
        b = generate(FamilySpec("prime-path", {"n": 2}))
        u = disjoint_union(a, b)
        assert u.graph.n == 5
        assert is_connected(a.graph) and is_connected(b.graph)
        assert not is_connected(u.graph)
        assert u.dominated.bit_count() == 2

    def test_fully_dominated_union(self):
        a = PartiallyDominatedGraph(cycle_graph(3), 0b111)
        b = PartiallyDominatedGraph(path_graph(2), 0b11)
        u = disjoint_union(a, b)
        assert u.dominated == u.graph.full_mask

    def test_prime_double_prime_orders(self):
        a = generate(FamilySpec("prime-path", {"n": 4}))
        b = generate(FamilySpec("double-prime-path", {"n": 4}))
        u = disjoint_union(a, b)
        assert u.graph.n == 11
        assert u.dominated.bit_count() == 3

    def test_capacity_error(self):
        big = PartiallyDominatedGraph(path_graph(40), 0)
        with pytest.raises(GraphError):
            disjoint_union(big, big)

    @given(random_graph_strategy(6), random_graph_strategy(6))
    @settings(max_examples=50, deadline=None)
    def test_edge_lists_add(self, a, b):
        u = disjoint_union(PartiallyDominatedGraph(a, 0),
                           PartiallyDominatedGraph(b, 0))
        assert u.graph.edges() == a.edges() + [(x + a.n, y + a.n)
                                               for x, y in b.edges()]


@given(random_graph_strategy())
@settings(max_examples=100, deadline=None)
def test_structural_invariants_random(g):
    for v in range(g.n):
        assert g.closed[v] & (1 << v)
        for u in range(g.n):
            assert bool(g.closed[v] & (1 << u)) == bool(g.closed[u] & (1 << v))


@pytest.mark.parametrize("family,params", [
    ("path", {"n": 7}), ("cycle", {"n": 8}), ("tadpole", {"m": 5, "n": 3}),
    ("hatted-cycle", {"n": 9}), ("broken-ladder", {"k": 1}),
    ("halin", {"k": 2, "d": [3, 3]}),
])
def test_structural_invariants_families(family, params):
    g = generate(FamilySpec(family, params)).graph
    for v in range(g.n):
        assert g.closed[v] & (1 << v)
        for u in range(g.n):
            assert bool(g.closed[v] & (1 << u)) == bool(g.closed[u] & (1 << v))


class TestPartiallyDominatedGraph:
    def test_labels_take_no_part_in_equality(self):
        a = PartiallyDominatedGraph(path_graph(4), 0b1001, {"ends": (0, 3)})
        b = PartiallyDominatedGraph(path_graph(4), 0b1001, {"other": 1})
        assert a == b and hash(a) == hash(b)
        assert a != PartiallyDominatedGraph(path_graph(4), 0b1000, a.labels)

    def test_rejects_dominated_ids_outside_graph(self):
        with pytest.raises(GraphError, match="outside the graph"):
            PartiallyDominatedGraph(path_graph(3), 0b1000)


class TestEdgeListFormat:
    def test_roundtrip_with_dominated(self):
        pdg = PartiallyDominatedGraph(cycle_graph(5), mask_of([0, 3]))
        assert parse_edge_list(format_edge_list(pdg)) == pdg

    @pytest.mark.parametrize("spec", [
        FamilySpec("double-prime-path", {"n": 4}),
        FamilySpec("tadpole", {"m": 5, "n": 3}),
    ], ids=FamilySpec.describe)
    def test_generated_instance_roundtrip(self, spec):
        pdg = generate(spec)
        assert pdg.labels
        back = parse_edge_list(format_edge_list(pdg))
        assert back == pdg and back.labels == {}

    def test_rejects_dominated_id_out_of_range(self):
        with pytest.raises(GraphError, match="outside the graph"):
            parse_edge_list("3 1\n0 1\ndominated: 0 3\n")

    def test_exact_text(self):
        pdg = PartiallyDominatedGraph(path_graph(3), mask_of([2]))
        assert format_edge_list(pdg) == "3 2\n0 1\n1 2\ndominated: 2\n"

    def test_rejects_bad_header(self):
        with pytest.raises(GraphError):
            parse_edge_list("3\n0 1\n")

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(GraphError):
            parse_edge_list("3 2\n0 1\n")

    def test_rejects_unordered_edge(self):
        with pytest.raises(GraphError):
            parse_edge_list("3 1\n1 0\n")

    def test_rejects_repeated_edge(self):
        # Collapsing the repeat would write the graph back as "3 2".
        with pytest.raises(GraphError, match="repeated edge"):
            parse_edge_list("3 3\n0 1\n1 2\n0 1\n")

    @pytest.mark.parametrize("text, message", [
        ("", "empty edge-list input"),
        ("3 x\n0 1\n", "non-numeric header '3 x'"),
        ("3 1\n0 1\ndominated: 0 x\n", "bad dominated line 'dominated: 0 x'"),
        ("3 1\n0 1 2\n", "bad edge line '0 1 2'"),
        ("3 1\n0 x\n", "non-numeric edge line '0 x'"),
    ], ids=["empty", "header", "dominated", "three-fields", "edge"])
    def test_malformed_input_message(self, text, message):
        with pytest.raises(GraphError) as err:
            parse_edge_list(text)
        assert str(err.value) == message


class TestGraph6:
    @given(random_graph_strategy())
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, g):
        assert from_graph6(to_graph6(g)) == g

    def test_matches_networkx_encoding(self):
        nx = pytest.importorskip("networkx")
        for g in (path_graph(7), cycle_graph(9),
                  make_graph(5, [(0, 2), (1, 4), (3, 4)])):
            nxg = nx.empty_graph(g.n)
            nxg.add_edges_from(g.edges())
            expected = nx.to_graph6_bytes(nxg, header=False).decode().strip()
            assert to_graph6(g) == expected

    def test_header_accepted(self):
        g = cycle_graph(4)
        assert from_graph6(">>graph6<<" + to_graph6(g)) == g

    def test_writer_refuses_63_vertices(self):
        with pytest.raises(GraphError) as err:
            to_graph6(make_graph(63, []))
        assert str(err.value) == "graph6 writer limited to n <= 62"

    @pytest.mark.parametrize("line, message", [
        ("", "empty graph6 input"),
        # "!" lies below the lowest graph6 byte, "?".
        ("B!", "invalid graph6 byte in 'B!'"),
        # "~" as the first byte announces n >= 63.
        ("~??~", "graph6 reader limited to n <= 62"),
        # n = 3 needs one body byte.
        ("B", "graph6 body length 0, expected 1"),
        ("Bww", "graph6 body length 2, expected 1"),
    ], ids=["empty", "invalid-byte", "over-62", "short-body", "long-body"])
    def test_reader_message(self, line, message):
        with pytest.raises(GraphError) as err:
            from_graph6(line)
        assert str(err.value) == message

    def test_rejects_nonzero_padding(self):
        # n = 3 uses 3 of the 6 body bits; "~" sets all six.
        assert from_graph6("Bw") == make_graph(3, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(GraphError, match="padding"):
            from_graph6("B~")
