import random

import pytest

from domgame import harness
from domgame.analysis import classify_unicyclic, has_hamiltonian_path
from domgame.canon import canonical_key
from domgame.families import FamilySpec, generate, path_graph, cycle_graph
from domgame.graph import make_graph, mask_of

from helpers import naive_hamiltonian_endpoints


class TestHamiltonianPath:
    def test_cycle_all_endpoints(self):
        g = cycle_graph(6)
        assert has_hamiltonian_path(g) == (True, g.full_mask)

    def test_star_not_traceable(self):
        star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert has_hamiltonian_path(star) == (False, 0)

    def test_tadpole_31_endpoints(self):
        lg = generate(FamilySpec("tadpole", {"m": 3, "n": 1}))
        exists, endpoints = has_hamiltonian_path(lg.graph)
        assert exists
        assert endpoints & (1 << lg.labels["tail_leaf"])

    def test_matches_permutation_search(self):
        rng = random.Random(13)
        graphs = [make_graph(0, []), make_graph(1, [])]
        for _ in range(40):
            n = rng.randint(1, 7)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.4]
            graphs.append(make_graph(n, edges))
        for g in graphs:
            assert has_hamiltonian_path(g) == naive_hamiltonian_endpoints(g)

    def test_cap(self):
        with pytest.raises(ValueError):
            has_hamiltonian_path(path_graph(25))


class TestClassifyUnicyclic:
    def test_cycle(self):
        assert classify_unicyclic(cycle_graph(5)).kind == "cycle"
        assert classify_unicyclic(cycle_graph(5)).params == (5,)

    def test_tadpole_roundtrip(self):
        lg = generate(FamilySpec("tadpole", {"m": 5, "n": 2}))
        c = classify_unicyclic(lg.graph)
        assert (c.kind, c.params) == ("tadpole", (5, 2))

    def test_two_tailed_roundtrip_sorted_tails(self):
        for n, k in ((3, 2), (2, 3), (2, 2)):
            lg = generate(FamilySpec("two-tailed-tadpole",
                                     {"m": 4, "n": n, "k": k}))
            c = classify_unicyclic(lg.graph)
            assert (c.kind, c.params) == ("two-tailed-tadpole",
                                          (4, max(n, k), min(n, k)))

    def test_nonadjacent_branches_not_traceable(self):
        # C_6 with pendant paths at two opposite vertices
        g = make_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                           (0, 6), (3, 7)])
        assert classify_unicyclic(g).kind == "not-traceable"

    def test_two_tails_same_vertex_not_traceable(self):
        g = make_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                           (0, 5), (0, 6)])
        assert classify_unicyclic(g).kind == "not-traceable"

    def test_tree_not_unicyclic(self):
        assert classify_unicyclic(path_graph(5)).kind == "not-unicyclic"

    def test_disconnected_not_unicyclic(self):
        g = make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert classify_unicyclic(g).kind == "not-unicyclic"

    def test_roundtrip_sweep(self):
        for m in range(3, 8):
            for n in range(1, 5):
                lg = generate(FamilySpec("tadpole", {"m": m, "n": n}))
                c = classify_unicyclic(lg.graph)
                assert (c.kind, c.params) == ("tadpole", (m, n))


class TestUnicyclicLemma:
    """Every connected unicyclic graph of order at most 7: it is traceable
    exactly when it is a cycle, a tadpole or a two-tailed tadpole, and the
    class's parameters rebuild the graph up to isomorphism."""

    PARAMS = {"cycle": ("n",), "tadpole": ("m", "n"),
              "two-tailed-tadpole": ("m", "n", "k")}

    def test_atlas(self):
        nx = pytest.importorskip("networkx")
        graphs = [make_graph(G.number_of_nodes(), list(G.edges()))
                  for G in nx.graph_atlas_g()
                  if 3 <= G.number_of_nodes() <= 7 and nx.is_connected(G)
                  and G.number_of_edges() == G.number_of_nodes()]
        assert len(graphs) == 54
        for g in graphs:
            c = classify_unicyclic(g)
            assert c.kind != "not-unicyclic"
            assert (c.kind in self.PARAMS) == has_hamiltonian_path(g)[0]
            if c.kind in self.PARAMS:
                spec = FamilySpec(c.kind, dict(zip(self.PARAMS[c.kind], c.params)))
                assert canonical_key(generate(spec).graph) == canonical_key(g)


class TestConjectureCheck:
    """The half-order rows of `harness.sweep_family`."""

    KEYS = ["family", "params", "n", "gamma_g", "bound", "holds",
            "is_half_graph"]

    @staticmethod
    def row(family, **params):
        report = harness.sweep_family([FamilySpec(family, params)])
        (row,) = report.rows
        return row

    def test_p11(self):
        row = self.row("path", n=11)
        assert (row["gamma_g"], row["bound"], row["holds"],
                row["is_half_graph"]) == (5, 6, True, False)

    def test_r11(self):
        row = self.row("r-graph", n=2)
        assert (row["n"], row["gamma_g"], row["bound"], row["holds"],
                row["is_half_graph"]) == (11, 6, 6, True, True)

    def test_c8(self):
        row = self.row("cycle", n=8)
        assert (row["gamma_g"], row["bound"], row["is_half_graph"]) == \
            (4, 4, True)

    def test_holds_flag_consistency(self, monkeypatch):
        # Three orders of 9 (bound 5) whose solves read 4, 5 and 6.
        monkeypatch.setattr(harness, "_solve_all",
                            lambda pdgs, cfg, workers: ([4, 5, 6], {}))
        report = harness.sweep_family([FamilySpec("path", {"n": 9})] * 3)
        assert [list(row) for row in report.rows] == [self.KEYS] * 3
        assert [row["gamma_g"] for row in report.rows] == [4, 5, 6]
        for row in report.rows:
            assert row["bound"] == 5
            assert row["holds"] == (row["gamma_g"] <= 5)
            assert row["is_half_graph"] == (row["gamma_g"] == 5)
        assert not report.ok
        assert "half-order bound violated; see rows" in report.notes

    def test_random_traceable_unicyclic_hold(self):
        rng = random.Random(3)
        specs = []
        for _ in range(20):
            m = rng.randint(3, 10)
            n = rng.randint(1, 16 - m) if m < 16 else 1
            specs.append(FamilySpec("tadpole", {"m": m, "n": n}))
        report = harness.sweep_family(specs)
        assert len(report.rows) == 20
        assert all(row["holds"] for row in report.rows)
        assert report.ok
