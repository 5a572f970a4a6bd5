import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domgame.families import FamilySpec, generate
from domgame.oracle import (KnownValue, PiecePrimeKind,
                            known_family_value, partial_path_values,
                            path_cycle_gamma_g, tadpole_table_row,
                            two_tailed_failing_residues, two_tailed_table,
                            union_lemma_bound, weight)
from domgame.harness import (EXCEPTIONAL_RESIDUES_EXPECTED,
                             TADPOLE_TABLE_EXPECTED,
                             TWO_TAILED_TABLE_EXPECTED)
from domgame.solver import Solver


class TestWeight:
    def test_examples(self):
        assert weight(7) == 15     # 2 + 7/4
        assert weight(0) == 0
        assert weight(6) == 14     # 7/2

    @given(st.integers(0, 1000))
    def test_piecewise_forms_agree(self, n):
        # n/2 for n=0 mod 4; n/2 + 1/2 for 1,2; n/2 + 1/4 for 3 (quarters).
        extra = {0: 0, 1: 2, 2: 2, 3: 1}[n % 4]
        assert weight(n) == 2 * n + extra

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            weight(-1)

    def test_quarter_arithmetic(self):
        assert weight(1) + weight(2) == 10
        assert union_lemma_bound([(1, PiecePrimeKind.PRIME),
                                  (2, PiecePrimeKind.DOUBLE_PRIME)]) == 3


class TestPathCycleValues:
    def test_examples(self):
        assert path_cycle_gamma_g(7, "cycle") == 3
        assert path_cycle_gamma_g(2, "path") == 1
        assert path_cycle_gamma_g(11, "path") == 5

    def test_unknown_kind(self):
        with pytest.raises(ValueError) as err:
            path_cycle_gamma_g(5, "tree")
        assert str(err.value) == "unknown kind 'tree'"

    def test_order_minimums(self):
        with pytest.raises(ValueError):
            path_cycle_gamma_g(0, "path")
        with pytest.raises(ValueError):
            path_cycle_gamma_g(2, "cycle")

    def test_half_graph_residues(self):
        for n in range(4, 40):
            half = -(-n // 2)
            is_half = path_cycle_gamma_g(n, "cycle") == half
            assert is_half == (n % 4 in (0, 1, 2))


class TestPartialPathValues:
    def test_examples(self):
        assert partial_path_values(3, PiecePrimeKind.PRIME) == (1, 2)
        assert partial_path_values(6, PiecePrimeKind.DOUBLE_PRIME) == (3, 4)
        assert partial_path_values(0, PiecePrimeKind.PRIME) == (0, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError) as err:
            partial_path_values(-1, PiecePrimeKind.PRIME)
        assert str(err.value) == "length parameter must be nonnegative"

    def test_kind_independent(self):
        for n in range(0, 30):
            assert (partial_path_values(n, PiecePrimeKind.PRIME)
                    == partial_path_values(n, PiecePrimeKind.DOUBLE_PRIME))


class TestUnionBound:
    def test_examples(self):
        assert union_lemma_bound([(1, PiecePrimeKind.PRIME),
                                  (2, PiecePrimeKind.PRIME)]) == 3
        assert union_lemma_bound([(0, PiecePrimeKind.PRIME)]) == 0
        assert union_lemma_bound([(1, PiecePrimeKind.PRIME),
                                  (3, PiecePrimeKind.DOUBLE_PRIME)]) == 3


class TestResidueTables:
    def test_tadpole_examples(self):
        assert tadpole_table_row(0, 3) == (3, 7, 4)
        assert tadpole_table_row(2, 2) == (4, 8, 4)
        assert tadpole_table_row(0, 0) == (1, 4, 2)

    def test_tadpole_all_rows(self):
        for (x, y), expected in TADPOLE_TABLE_EXPECTED.items():
            assert tadpole_table_row(x, y) == expected

    def test_tadpole_bound_never_exceeds_ceiling(self):
        for x in range(4):
            for y in range(4):
                c1, _, c3 = tadpole_table_row(x, y)
                assert c1 <= c3

    def test_two_tailed_examples(self):
        assert two_tailed_table(1, 0, 2) == (4, 3, False)
        assert two_tailed_table(0, 0, 0) == (1, 2, True)
        assert two_tailed_table(3, 3, 3) == (7, 6, False)

    def test_two_tailed_all_rows(self):
        for (x, y, z), expected in TWO_TAILED_TABLE_EXPECTED.items():
            assert two_tailed_table(x, y, z) == expected

    def test_failing_residue_set(self):
        failing = two_tailed_failing_residues()
        assert len(failing) == 16
        assert sorted(failing) == sorted(EXCEPTIONAL_RESIDUES_EXPECTED)

    def test_residue_range_checks(self):
        with pytest.raises(ValueError):
            tadpole_table_row(4, 0)
        with pytest.raises(ValueError):
            two_tailed_table(0, -1, 0)


class TestKnownFamilyValue:
    def test_broken_ladder(self):
        spec = FamilySpec("broken-ladder", {"k": 2})
        assert known_family_value(spec) == KnownValue(8, True)

    def test_hatted_cycle(self):
        spec = FamilySpec("hatted-cycle", {"n": 9})
        assert known_family_value(spec) == KnownValue(5, True)

    def test_r_graph_is_only_a_bound(self):
        spec = FamilySpec("r-graph", {"n": 2})
        assert known_family_value(spec) == KnownValue(6, False)

    @pytest.mark.parametrize("family", ["prime-path", "double-prime-path"])
    def test_dominated_path_pieces_match_solver(self, family):
        # The closed form is the Dominator-start value from the piece's
        # dominated end(s).
        for n in range(15):
            spec = FamilySpec(family, {"n": n})
            pdg = generate(spec)
            value = Solver(pdg.graph).game_value(pdg.dominated)
            assert known_family_value(spec) == KnownValue(value, True), n

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            known_family_value(FamilySpec("halin", {"k": 2, "d": [3, 3]}))
