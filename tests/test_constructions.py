"""The hub construction, its doubling schedule, and exhaustive verification."""

import itertools

import pytest

from majority_game.adversary import ExactWeightedAdversary
from majority_game.bounds import popcount
from majority_game.constructions import (
    algorithm_a_queries,
    build_F,
    build_minedge_graph,
    minedge_querier,
    verify_querier,
)
from majority_game.core import Answer, StrategyError, apply_query, initial_state, terminal_outcome
from majority_game.generators import path_graph
from majority_game.graphsolver import play


def test_build_f_shapes():
    f1 = build_F(1)
    assert f1.n == 2 and f1.edges == frozenset({(0, 1)})
    f2 = build_F(2)
    assert f2.n == 4 and len(f2.edges) == 3
    degrees = sorted(len(a) for a in f2.adjacency)
    assert degrees == [1, 1, 2, 2]  # the path u1-v1-v2-u2
    f4 = build_F(4)
    assert f4.n == 8 and len(f4.edges) == 7
    assert sorted(len(a) for a in f4.adjacency) == [1, 1, 1, 1, 2, 2, 3, 3]


def test_minedge_edge_budgets():
    for n, bound in [(4, 8), (8, 16), (6, 18)]:
        built = build_minedge_graph(n)
        assert built.graph.n == n
        assert len(built.graph.edges) <= bound == n * (1 + popcount(n))


def test_minedge_labeling():
    built = build_minedge_graph(9)
    assert built.path_vertices == (0, 1, 2, 3)
    assert built.leaf_vertices == (4, 5, 6, 7)
    assert built.leftover == 8
    assert built.hubs == (2, 3)
    for h in built.hubs:
        assert all(built.graph.has_edge(h, x) for x in range(9) if x != h)


def test_algorithm_a_base_case():
    f1 = build_F(1)
    assert algorithm_a_queries(f1, [0], [1]) == [(0, 1)]


def test_algorithm_a_rejects_foreign_shapes():
    g = path_graph(4)
    with pytest.raises(ValueError):
        algorithm_a_queries(g, [0, 1, 2], [3, 3, 3])
    with pytest.raises(ValueError):
        algorithm_a_queries(build_F(2), [0, 1], [3, 2])


def test_algorithm_a_on_f2_all_answer_paths():
    f2 = build_F(2)
    seq = algorithm_a_queries(f2, [0, 1], [2, 3])
    assert len(seq) == 3
    for answers in itertools.product([Answer.SAME, Answer.DIFF], repeat=3):
        state = initial_state(f2)
        for q, a in zip(seq, answers):
            state = apply_query(state, q, a)
            merged = state.component_of(q[0])
            size = len(merged.side_a) + len(merged.side_b)
            if a is Answer.DIFF:
                # a DIFF always joins two monochromatic halves: balanced
                assert merged.weight == 0 and size & (size - 1) == 0
                break
        else:
            (comp,) = state.components
            assert comp.weight == 4  # all SAME: the copy is monochromatic


def test_algorithm_a_all_same_is_monochromatic():
    f4 = build_F(4)
    seq = algorithm_a_queries(f4, [0, 1, 2, 3], [4, 5, 6, 7])
    state = initial_state(f4)
    for q in seq:
        state = apply_query(state, q, Answer.SAME)
    (comp,) = state.components
    assert comp.weight == 8


def test_prefix_property_under_all_same():
    n = 16
    built = build_minedge_graph(n)
    strategy = minedge_querier(n)
    state = initial_state(built.graph)
    adj = built.graph.adjacency
    while terminal_outcome(state) is None:
        edge = strategy(state)
        state = apply_query(state, edge, Answer.SAME)
        touched = {x for e in state.queried for x in e}
        untouched = [x for x in range(n) if x not in touched]
        if len(untouched) > 1:
            seen = {untouched[0]}
            stack = [untouched[0]]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y in untouched and y not in seen:
                        seen.add(y)
                        stack.append(y)
            assert len(seen) == len(untouched), "untouched remainder disconnected"


def test_minedge_querier_worst_cases():
    for n, budget in [(4, 3), (8, 7)]:
        report = verify_querier(build_minedge_graph(n).graph, minedge_querier(n), budget)
        assert report.passed
        assert report.max_queries == budget  # the bound is met exactly somewhere


# the minedge querier's edge at each non-terminal state verify_querier
# visits, in visit order, and the leaves of its answer trees for n = 2..16
MINEDGE_QUERY_EDGES = {
    8: "37 04 03 15 26 12 01 15 26 12 26 15 26 12 13 26 23 04 15 01 26 26 01 12 12 15 26 12 26",
    9: "37 04 03 15 26 12 01 26 15 12 15 26 15 12 23 15 13 26 04 02 15 15 12 04 15 01 15",
}
MINEDGE_LEAVES = [2, 2, 5, 5, 11, 11, 30, 28, 72, 70, 189, 181, 467, 457, 1541]


@pytest.mark.parametrize("n", sorted(MINEDGE_QUERY_EDGES))
def test_minedge_querier_edges_are_unchanged(n):
    querier = minedge_querier(n)
    chosen = []

    def recording(state):
        edge = querier(state)
        chosen.append(f"{edge[0]}{edge[1]}")
        return edge

    assert verify_querier(build_minedge_graph(n).graph, recording, n - popcount(n)).passed
    assert chosen == MINEDGE_QUERY_EDGES[n].split()


def test_minedge_answer_tree_leaves_are_unchanged():
    leaves = [verify_querier(build_minedge_graph(n).graph, minedge_querier(n), n - popcount(n)).leaves_checked
              for n in range(2, 17)]
    assert leaves == MINEDGE_LEAVES


def test_minedge_querier_all_same_playback():
    built = build_minedge_graph(8)

    class SameAnswers:
        def choose_merge(self, view, edge):
            u, v = edge
            return view.weights[view.comp_of(u)] + view.weights[view.comp_of(v)]

    transcript = play(built.graph, minedge_querier(8), SameAnswers())
    assert len(transcript) <= 7
    assert transcript.outcome.majority is not None


def test_minedge_querier_survives_exact_adversary():
    for n in (9, 12):
        built = build_minedge_graph(n)
        transcript = play(built.graph, minedge_querier(n), ExactWeightedAdversary())
        assert len(transcript) <= n - popcount(n)


def test_all_diff_play_leaves_balanced_power_components():
    class DiffAnswers:
        def choose_merge(self, view, edge):
            u, v = edge
            return abs(view.weights[view.comp_of(u)] - view.weights[view.comp_of(v)])

    for n in (8, 12, 16):
        built = build_minedge_graph(n)
        transcript = play(built.graph, minedge_querier(n), DiffAnswers())
        final = transcript.replay()
        balanced = [c for c in final.components if c.weight == 0]
        assert len(balanced) >= popcount(n)
        for comp in balanced:
            size = len(comp.side_a) + len(comp.side_b)
            assert size & (size - 1) == 0


def test_verify_querier_fails_below_the_true_budget():
    report = verify_querier(build_minedge_graph(8).graph, minedge_querier(8), 6)
    assert not report.passed
    assert report.failure_path == [
        "QUERY 3 7 -> SAME", "QUERY 0 4 -> SAME", "QUERY 0 3 -> SAME", "QUERY 1 5 -> SAME",
        "QUERY 2 6 -> SAME", "QUERY 1 2 -> SAME", "<budget exhausted before terminal>",
    ]


def test_verify_querier_reports_the_failing_spanning_walk():
    from majority_game.adversary import spanning_querier

    g = path_graph(6)
    report = verify_querier(g, spanning_querier(g), 4)
    assert (report.passed, report.leaves_checked, report.max_queries) == (False, 1, 3)
    assert report.failure_path == [
        "QUERY 0 1 -> SAME", "QUERY 1 2 -> SAME", "QUERY 2 3 -> DIFF", "QUERY 3 4 -> SAME",
        "<budget exhausted before terminal>",
    ]


def test_verify_querier_reports_strategy_errors():
    from majority_game.adversary import spanning_querier

    g = path_graph(6)
    inner = spanning_querier(g)

    def querier(state):
        if len(state.queried) == 2:
            raise StrategyError(f"no edge for {sorted(state.queried)}")
        return inner(state)

    report = verify_querier(g, querier, 5)
    assert not report.passed
    assert report.failure_path == [
        "QUERY 0 1 -> SAME", "QUERY 1 2 -> SAME", "<strategy error: no edge for [(0, 1), (1, 2)]>",
    ]


def test_verify_querier_spanning_on_path():
    from majority_game.adversary import spanning_querier

    g = path_graph(4)
    report = verify_querier(g, spanning_querier(g), 3)
    assert report.passed and report.max_queries == 3
