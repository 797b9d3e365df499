"""Graph game solver: values, strategies, playback, forced counts."""

import random

import pytest

from majority_game.adversary import (
    AlwaysSameAdversary,
    ColoringAdversary,
    ExactWeightedAdversary,
    OddpathAdversary,
    TreelemmaAdversary,
    covering_playback,
    eventrees_coloring,
    spanning_querier,
)
from majority_game.bounds import popcount
from majority_game.constructions import build_minedge_graph, verify_querier
from majority_game.core import Graph, UnsolvableGraphError
from majority_game.generators import complete_graph, path_graph, random_graph, star_graph
from majority_game.graphsolver import (
    GraphSolver,
    forced_queries,
    optimal_querier,
    play,
    solve_graph,
)
from majority_game.weighted import solve_weighted


def reference_value(graph):
    """Independent oracle: minimax over full split-level states, memoized
    on the canonical splits themselves (no weight-level identification)."""
    from majority_game.core import Answer, apply_query, initial_state, terminal_outcome

    memo = {}

    def key(state):
        return tuple(sorted((c.side_a, c.side_b) for c in state.components))

    def rec(state):
        if terminal_outcome(state) is not None:
            return 0
        k = key(state)
        if k in memo:
            return memo[k]
        comp_of = {}
        for idx, comp in enumerate(state.components):
            for x in comp.side_a + comp.side_b:
                comp_of[x] = idx
        best = graph.n
        for e in graph.sorted_edges:
            if comp_of[e[0]] == comp_of[e[1]]:
                continue
            v = 1 + max(
                rec(apply_query(state, e, Answer.SAME)),
                rec(apply_query(state, e, Answer.DIFF)),
            )
            best = min(best, v)
        memo[k] = best
        return best

    return rec(initial_state(graph))


def test_weight_level_keys_match_split_level_oracle():
    # validates that identifying states by (partition, weights) is exact
    from majority_game.generators import free_trees

    for n in range(2, 7):
        for g in free_trees(n):
            assert solve_graph(g).value == reference_value(g)
    for n in range(2, 7):
        assert solve_graph(complete_graph(n)).value == reference_value(complete_graph(n))
    rng = random.Random(17)
    done = 0
    while done < 8:
        n = rng.randint(3, 6)
        g = random_graph(n, 0.7, seed=rng.randrange(10 ** 6))
        if not g.is_majority_solvable():
            continue
        done += 1
        assert solve_graph(g).value == reference_value(g)


def test_complete_graph_values():
    for n in range(1, 9):
        assert solve_graph(complete_graph(n)).value == n - popcount(n)


def test_path_values_small():
    for n in range(2, 12):
        expected = n - popcount(n) if n % 2 else n - 1
        assert solve_graph(path_graph(n)).value == expected


def test_tree_value_even():
    assert solve_graph(star_graph(6)).value == 5
    caterpillar = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)])
    assert solve_graph(caterpillar).value == 5


def test_two_component_odd_graph_is_solvable():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert solve_graph(g).value <= 3
    with pytest.raises(UnsolvableGraphError):
        solve_graph(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_canonical_modes_agree():
    for n in range(2, 14):
        g = path_graph(n)
        assert solve_graph(g, canonical="path").value == solve_graph(g, canonical="generic").value
    with pytest.raises(ValueError):
        solve_graph(star_graph(5), canonical="path")


def test_table_cap_keeps_value_exact():
    g = path_graph(10)
    assert solve_graph(g, table_cap=50).value == solve_graph(g).value


def test_window_bounds_on_random_graphs():
    rng = random.Random(4)
    done = 0
    while done < 40:
        n = rng.randint(2, 8)
        g = random_graph(n, rng.uniform(0.4, 0.9), seed=rng.randrange(10 ** 6))
        if not g.is_majority_solvable():
            continue
        done += 1
        m = solve_graph(g).value
        if len(g.components()) == 1:
            assert n - popcount(n) <= m <= n - 1
            if n % 2 == 1:
                assert m <= n - 2


def test_oracle_agreement_with_weighted_game():
    for n in range(2, 9):
        assert solve_graph(complete_graph(n)).value == solve_weighted((1,) * n)


@pytest.mark.parametrize("graph,budget", [
    (path_graph(4), 3),
    (complete_graph(4), 3),
    (build_minedge_graph(8).graph, 7),
    (path_graph(7), 4),
    (path_graph(9), 7),
])
def test_optimal_querier_meets_value_on_every_answer_path(graph, budget):
    assert solve_graph(graph).value == budget
    report = verify_querier(graph, optimal_querier(graph), budget)
    assert report.passed, report.failure_path


def test_play_lengths():
    g = path_graph(6)
    transcript = play(g, optimal_querier(g), TreelemmaAdversary(g))
    assert len(transcript) == 5  # adversary forces the tree bound exactly

    g2 = path_graph(2)
    t2 = play(g2, optimal_querier(g2), ExactWeightedAdversary())
    assert len(t2) == 1

    g3 = path_graph(4)
    t3 = play(g3, spanning_querier(g3), ExactWeightedAdversary())
    assert len(t3) == 3


def test_transcript_replay_is_consistent():
    g = path_graph(5)
    transcript = play(g, spanning_querier(g), ExactWeightedAdversary())
    final = transcript.replay()
    from majority_game.core import terminal_outcome

    assert terminal_outcome(final) == transcript.outcome
    text = transcript.to_text()
    assert text.splitlines()[-1].startswith("OUTCOME")


def test_forced_queries_examples():
    # a fixed always-SAME adversary collapses quickly: a three-vertex chain
    # dominates the two untouched singletons of a five-path
    assert forced_queries(path_graph(5), AlwaysSameAdversary()) == 2
    g4 = path_graph(4)
    assert forced_queries(g4, ColoringAdversary(eventrees_coloring(g4))) == 3


def test_forced_queries_never_beat_the_optimum():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(3, 8)
        g = random_graph(n, 0.7, seed=rng.randrange(10 ** 6))
        if not g.is_majority_solvable():
            continue
        m = solve_graph(g).value
        assert forced_queries(g, ExactWeightedAdversary()) <= m
        assert forced_queries(g, AlwaysSameAdversary()) <= m


def test_exact_weighted_adversary_is_optimal_on_complete_graphs():
    for n in range(2, 8):
        g = complete_graph(n)
        assert forced_queries(g, ExactWeightedAdversary()) == n - popcount(n)


def test_solver_reports_statistics():
    res = solve_graph(path_graph(9))
    assert res.value == 7
    assert res.nodes_expanded > 0 and res.table_entries > 0
    assert res.canonical == "path"


def test_best_query_tie_break_is_smallest_edge():
    g = complete_graph(4)
    solver = GraphSolver(g)
    solver.solve()
    from majority_game.core import initial_state

    assert solver.best_query(initial_state(g)) == (0, 1)


def test_play_propagates_querier_errors():
    from majority_game.core import IllegalQueryError

    g = path_graph(4)
    calls = []

    def bad_querier(state):
        calls.append(1)
        return (0, 1)  # second call proposes an intra-component edge

    with pytest.raises(IllegalQueryError):
        play(g, bad_querier, ExactWeightedAdversary())
    assert len(calls) == 2

    p15 = path_graph(15)
    with pytest.raises(IllegalQueryError):
        covering_playback(p15, OddpathAdversary(p15), bad_querier)
    assert len(calls) == 4
