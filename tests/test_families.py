import pytest

from domgame.analysis import hamiltonian_endpoints
from domgame import oracle
from domgame.families import (FAMILY_NAMES, FamilySpec, family_order,
                              generate, halin_dominating_set, path_graph)
from domgame.graph import GraphError, add_edges, bits, make_graph, mask_of
from domgame.solver import Solver


def spec(family, **params):
    return FamilySpec(family, params)


ORDER_CASES = [
    (spec("tadpole", m=3, n=1), 4),
    (spec("tadpole", m=7, n=5), 12),
    (spec("two-tailed-tadpole", m=4, n=3, k=2), 9),
    (spec("hatted-cycle", n=9), 10),
    (spec("broken-ladder", k=0), 8),
    (spec("broken-ladder", k=2), 16),
    (spec("cycle-chord", n=10, i=5), 10),
    (spec("halin", k=3, d=[4, 2, 3]), 37),
    (spec("halin", k=2, d=[3, 3]), 13),
    (spec("r-graph", n=2), 11),
    (spec("prime-path", n=4), 5),
    (spec("double-prime-path", n=4), 6),
    (spec("path", n=7), 7),
    (spec("cycle", n=7), 7),
    (spec("fx", x=path_graph(3), n=5, w=[0]), 8),
    (spec("r-prime-11"), 11),
]


class TestOrders:
    @pytest.mark.parametrize("s,order", ORDER_CASES)
    def test_order_formula(self, s, order):
        assert generate(s).graph.n == order
        # The cap is checked on this order before the graph is built.
        assert family_order(s) == order

    def test_every_family_has_a_case(self):
        assert {s.family for s, _ in ORDER_CASES} == set(FAMILY_NAMES)


class TestParameterValidation:
    @pytest.mark.parametrize("s", [
        spec("tadpole", m=2, n=1),
        spec("tadpole", m=3, n=0),
        spec("two-tailed-tadpole", m=3, n=0, k=1),
        spec("hatted-cycle", n=3),
        spec("broken-ladder", k=-1),
        spec("cycle-chord", n=10, i=2),
        spec("cycle-chord", n=10, i=10),
        spec("halin", k=1, d=[2]),
        spec("r-graph", n=1),
    ])
    def test_rejected(self, s):
        with pytest.raises(GraphError):
            generate(s)

    def test_unknown_family(self):
        with pytest.raises(GraphError):
            generate(spec("moebius-kantor"))

    def test_missing_parameter(self):
        with pytest.raises(GraphError):
            generate(spec("tadpole", m=5))

    def test_extra_parameter(self):
        with pytest.raises(GraphError) as err:
            generate(spec("tadpole", m=5, n=3, k=1))
        assert str(err.value) == "tadpole got unexpected parameters ['k']"


class TestTadpole:
    def test_t31_joint_universal(self):
        g = generate(spec("tadpole", m=3, n=1)).graph
        assert g.closed[0] == g.full_mask

    def test_joint_degree(self):
        lg = generate(spec("tadpole", m=6, n=4))
        assert lg.graph.degree(lg.labels["joint"]) == 3


class TestTwoTailedTadpole:
    def test_hamiltonian_path_in_vertex_order(self):
        lg = generate(spec("two-tailed-tadpole", m=5, n=3, k=2))
        g = lg.graph
        assert all(g.has_edge(v, v + 1) for v in range(g.n - 1))
        n, m = 3, 5
        assert g.has_edge(n, n + m - 1)

    def test_joints_adjacent(self):
        lg = generate(spec("two-tailed-tadpole", m=4, n=2, k=2))
        a, b = lg.labels["joints"]
        assert lg.graph.has_edge(a, b)


class TestHattedCycle:
    def test_hat_adjacency(self):
        lg = generate(spec("hatted-cycle", n=9))
        g = lg.graph
        x, y, y2 = lg.labels["x"], lg.labels["y"], lg.labels["y_prime"]
        assert g.degree(x) == 2
        assert g.has_edge(x, y) and g.has_edge(x, y2)
        # y and y' lie at distance two on the cycle, through x'.
        xp = lg.labels["x_prime"]
        assert g.has_edge(y, xp) and g.has_edge(y2, xp)
        assert not g.has_edge(y, y2)

    def test_equivalent_cycle_value(self):
        for n, value in ((9, 5), (8, 4), (4, 2)):
            known = oracle.known_family_value(spec("hatted-cycle", n=n))
            assert known == oracle.KnownValue(value, True)

    def test_equivalent_value_matches_solver_small(self):
        for n in range(4, 10):
            s = spec("hatted-cycle", n=n)
            value = Solver(generate(s).graph).game_value()
            assert value == oracle.known_family_value(s).value


class TestBrokenLadder:
    def test_rung_ends_degree_before_path(self):
        g = generate(spec("broken-ladder", k=0)).graph
        assert g.degree(0) == 2 and g.degree(4) == 2

    def test_path_attachment(self):
        lg = generate(spec("broken-ladder", k=1))
        g = lg.graph
        a, b = lg.labels["rung_ends"]
        assert g.degree(a) == 3 and g.degree(b) == 3
        # the added path has 4k internal vertices, all of degree 2
        assert all(g.degree(v) == 2 for v in range(8, g.n))


class TestRGraphs:
    def test_r11_matches_manual_addition(self):
        lg = generate(spec("r-graph", n=2))
        assert lg.graph == add_edges(path_graph(11), [(0, 4), (5, 8), (1, 7)])

    def test_r_prime_11(self):
        lg = generate(spec("r-prime-11"))
        assert lg.graph == add_edges(path_graph(11), [(0, 4), (5, 8), (2, 7)])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_restriction_to_first_11_is_r11(self, n):
        big = generate(spec("r-graph", n=n)).graph
        r11 = generate(spec("r-graph", n=2)).graph
        induced = make_graph(11, [(u, v) for u, v in big.edges()
                                  if u < 11 and v < 11])
        assert induced == r11


class TestFamilyFX:
    def _x(self):
        return path_graph(4)

    def test_build(self):
        lg = generate(spec("fx", x=self._x(), n=8, w=[0, 1, 2, 3]))
        g = lg.graph
        y, y2 = lg.labels["y"], lg.labels["y_prime"]
        assert g.n == 12
        assert all(g.has_edge(y, v) for v in range(4))
        assert all(g.has_edge(y2, v) for v in range(4))

    def test_w_must_hit_hamiltonian_endpoint(self):
        # P_4 Hamiltonian paths end only at its two leaves 0 and 3.
        with pytest.raises(GraphError):
            generate(spec("fx", x=self._x(), n=5, w=[1, 2]))
        generate(spec("fx", x=self._x(), n=5, w=[1, 3]))

    def test_short_path_rejected(self):
        with pytest.raises(GraphError):
            generate(spec("fx", x=self._x(), n=2, w=[0]))

    def test_traceable(self):
        lg = generate(spec("fx", x=self._x(), n=5, w=[0]))
        assert hamiltonian_endpoints(lg.graph)


class TestHalin:
    def test_level_sizes_multiply(self):
        lg = generate(spec("halin", k=3, d=[4, 2, 3]))
        sizes = [m.bit_count() for m in lg.labels["levels"]]
        assert sizes == [1, 4, 8, 24]

    def test_leaves_form_cycle(self):
        lg = generate(spec("halin", k=2, d=[3, 3]))
        g = lg.graph
        leaves = list(bits(lg.labels["levels"][-1]))
        assert all(g.degree(v) == 3 for v in leaves)

    def test_hamiltonian(self):
        for k, d in ((1, [4]), (2, [3, 2]), (2, [3, 3])):
            lg = generate(spec("halin", k=k, d=d))
            assert hamiltonian_endpoints(lg.graph)


class TestHalinDominatingSet:
    def test_k2_is_middle_level(self):
        lg = generate(spec("halin", k=2, d=[3, 3]))
        d = halin_dominating_set(2, [3, 3])
        assert d == lg.labels["levels"][1]
        assert d.bit_count() == 3

    def test_k1_is_root(self):
        assert halin_dominating_set(1, [4]) == 1

    def test_k3_includes_root_and_level2(self):
        lg = generate(spec("halin", k=3, d=[3, 3, 3]))
        d = halin_dominating_set(3, [3, 3, 3])
        assert d == lg.labels["levels"][0] | lg.labels["levels"][2]
        assert d.bit_count() == 10
        assert lg.graph.n == 40

    @pytest.mark.parametrize("k,d", [(1, [3]), (1, [5]), (2, [3, 3]),
                                     (2, [4, 3]), (3, [3, 3, 3])])
    def test_output_dominates(self, k, d):
        lg = generate(spec("halin", k=k, d=d))
        dom = halin_dominating_set(k, d)
        covered = 0
        for v in bits(dom):
            covered |= lg.graph.closed[v]
        assert covered == lg.graph.full_mask

    def test_requires_degree_three(self):
        with pytest.raises(GraphError):
            halin_dominating_set(2, [3, 2])

    def test_included_levels_are_small(self):
        # each level taken into the set covers at most a quarter of the band
        # it dominates when degrees are >= 3. A three-level band such as
        # this one gives strictly less, but the root with d0 = 3 covers
        # exactly a quarter of {L0, L1}; both equality families of
        # 4|D| <= n (k = 1, d0 = 3 and k = 3, d0 = d2 = 3) start there
        lg = generate(spec("halin", k=2, d=[4, 3]))
        levels = lg.labels["levels"]
        band = (levels[0] | levels[1] | levels[2]).bit_count()
        assert levels[1].bit_count() < band / 4


class TestPrimePaths:
    def test_prime_dominated_end(self):
        lg = generate(spec("prime-path", n=3))
        assert lg.graph.n == 4
        assert lg.dominated == 1 << 3

    def test_double_prime_dominated_ends(self):
        lg = generate(spec("double-prime-path", n=3))
        assert lg.graph.n == 5
        assert lg.dominated == mask_of([0, 4])

    def test_zero_length(self):
        lg = generate(spec("prime-path", n=0))
        assert lg.graph.n == 1 and lg.dominated == 1


class TestTraceability:
    @pytest.mark.parametrize("s", [
        spec("tadpole", m=5, n=3),
        spec("two-tailed-tadpole", m=4, n=2, k=3),
        spec("hatted-cycle", n=8),
        spec("broken-ladder", k=1),
        spec("cycle-chord", n=9, i=4),
        spec("r-graph", n=2),
        spec("r-prime-11"),
    ])
    def test_families_are_traceable(self, s):
        assert hamiltonian_endpoints(generate(s).graph)


def test_describe_joins_list_parameters():
    assert spec("halin", k=2, d=[3, 3]).describe() == "halin(d=3/3,k=2)"
    assert spec("fx", x=path_graph(4), n=4, w=[0, 2]).describe() == \
        "fx(n=4,w=0/2,x=graph4)"


def test_equal_specs_hash_equal():
    pairs = [
        (spec("path", n=3), spec("path", n=3)),
        (spec("halin", k=2, d=[3, 3]), spec("halin", d=[3, 3], k=2)),
        (spec("fx", x=path_graph(4), n=4, w=[0, 2]),
         spec("fx", x=path_graph(4), n=4, w=[0, 2])),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    keyed = {a: i for i, (a, _) in enumerate(pairs)}
    assert [keyed[b] for _, b in pairs] == [0, 1, 2]
    assert len({spec("path", n=3), spec("path", n=4), spec("cycle", n=3)}) == 3
