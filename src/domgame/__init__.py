"""Exact domination game toolkit: solver, closed forms, family generators
and a conjecture-sweep harness."""

from .graph import (Graph, PartiallyDominatedGraph, GraphError, make_graph,
                    add_edges, non_edges, disjoint_union, is_connected, bits,
                    mask_of, format_edge_list, parse_edge_list, to_graph6,
                    from_graph6, MAX_VERTICES)
from .solver import (Turn, Solver, SolverConfig, MemoLimitExceeded,
                     VertexCapExceeded, legal_moves, domination_number)
from .oracle import (PiecePrimeKind, KnownValue, weight, path_cycle_gamma_g,
                     partial_path_values, union_lemma_bound, tadpole_table_row,
                     two_tailed_table, two_tailed_failing_residues,
                     known_family_value)
from .families import (FamilySpec, generate, halin_dominating_set, path_graph,
                       cycle_graph, FAMILY_NAMES)
from .analysis import (hamiltonian_endpoints, classify_unicyclic,
                       UnicyclicClass)

__version__ = "0.1.0"
