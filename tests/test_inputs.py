"""Bad input gets a typed error, and an over-limit input gets it before
any work that grows with the input."""

import itertools
import tracemalloc

import pytest

from majority_game import nondet, suites
from majority_game.constructions import algorithm_a_queries, build_F
from majority_game.core import Graph, InputError, UnsolvableGraphError, initial_state
from majority_game.generators import generate
from majority_game.graphsolver import GraphSolver, check_solvable


def test_lookups_and_names_are_input_errors():
    f2 = build_F(2)  # the path 0-1 with leaves 2 and 3
    for call, args in [
        (initial_state(f2).component_index, (4,)),
        (algorithm_a_queries, (f2, (0, 1, 2), (2, 3, 1))),  # three path vertices
        (algorithm_a_queries, (f2, (0, 3), (2, 1))),  # no edge 0-3
        (algorithm_a_queries, (f2, (0, 1), (3, 2))),  # no edge 0-3
        (generate, ("no-such-kind", 4)),
        (suites.run_suite, ("no-such-suite",)),
    ]:
        with pytest.raises(InputError):
            call(*args)


def test_size_limits_come_before_the_solvability_check():
    # a million isolated vertices: the size limits reject the graph first;
    # the solvability check counts components with a bytearray of seen
    # flags and would reject this graph on its edge count alone
    g = Graph.from_edges(10**6, [])
    for call, args in [(GraphSolver, (g,)), (nondet.m_nd, (g,)), (nondet.cert, (g, "RB"))]:
        tracemalloc.start()
        try:
            with pytest.raises(InputError):
                call(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (call, peak)


def test_solvability_check_counts_components_in_bounded_memory():
    # 200,000 isolated vertices have too few edges to be joined; 66,666
    # triangles have enough, and the walk stops at the second component
    edges = [e for v in range(0, 199998, 3) for e in ((v, v + 1), (v, v + 2), (v + 1, v + 2))]
    triangles = Graph.from_edges(199998, edges)
    assert triangles.adjacency  # built before the trace
    for g in (Graph.from_edges(200000, []), triangles):
        tracemalloc.start()
        try:
            with pytest.raises(UnsolvableGraphError):
                check_solvable(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (g.n, peak)


def test_solvability_matches_the_component_count():
    # every graph on at most five vertices: connected for even n, at most
    # two components for odd n
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            k = len(g.components())
            assert g.is_majority_solvable() == (k == 1 if n % 2 == 0 else k <= 2), (n, mask)
