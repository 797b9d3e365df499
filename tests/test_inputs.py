"""Bad input gets a typed error, and an over-limit input gets it before
any work that grows with the input."""

import tracemalloc

import pytest

from majority_game import nondet, suites
from majority_game.constructions import algorithm_a_queries, build_F
from majority_game.core import Graph, InputError, initial_state
from majority_game.generators import generate
from majority_game.graphsolver import GraphSolver


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
    # a million isolated vertices: the component scan behind the
    # solvability check would build one set per vertex, some 260 MB
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
