"""The answer-tree walk against slow oracles: ``best_query`` against the
all-pairs search, the signed-sum outcome check against the string
enumeration, and one reused minedge querier against fresh ones."""

import pytest
from oracles import all_pairs_best_query, atlas_graphs, outcome_valid_by_enumeration

from majority_game.constructions import MinedgeQuerier, build_minedge_graph
from majority_game.core import Answer, Outcome, apply_query, initial_state, outcome_valid, terminal_outcome
from majority_game.graphsolver import GraphSolver


def answer_tree(graph, querier):
    """Each state of the querier's full answer tree with the querier's
    edge there, or None at a leaf."""
    stack = [initial_state(graph)]
    while stack:
        state = stack.pop()
        if terminal_outcome(state) is not None:
            yield state, None
            continue
        edge = querier(state)
        yield state, edge
        stack += [apply_query(state, edge, ans) for ans in Answer]


def leaf_claims(state):
    """The leaf's true outcome, then wrong claims: no majority in place of
    the winner, a vertex of the winner's light side and a vertex of another
    component; at a balanced leaf, a majority vertex."""
    true = terminal_outcome(state)
    if true.majority is None:
        return true, [Outcome.majority_vertex(0)]
    comp = state.component_of(true.majority)
    light = comp.side_b if true.majority in comp.side_a else comp.side_a
    others = [c.min_vertex() for c in state.components if c != comp]
    return true, [Outcome.no_majority()] + [Outcome.majority_vertex(v) for v in light[:1] + tuple(others[:1])]


@pytest.mark.parametrize("family", ["atlas", "minedge"])
def test_optimal_querier_tree_matches_the_oracles(family):
    if family == "atlas":
        graphs = atlas_graphs(6)
        assert len(graphs) == 152
    else:
        graphs = [build_minedge_graph(n).graph for n in range(2, 11)]
    for g in graphs:
        solver = GraphSolver(g)
        solver.solve()
        oracle = GraphSolver(g)  # its own table: nothing leaks between the two
        for state, edge in answer_tree(g, solver.best_query):
            if edge is not None:
                assert edge == all_pairs_best_query(oracle, state), (g.to_text(), state)
                continue
            true, wrong = leaf_claims(state)
            for claim, holds in [(true, True)] + [(c, False) for c in wrong]:
                assert outcome_valid_by_enumeration(state, claim) is holds, (state, claim)
                assert outcome_valid(state, claim) is holds, (state, claim)


def test_reused_minedge_querier_matches_fresh_ones():
    for n in range(2, 13):
        reused = MinedgeQuerier(n)
        for state, edge in answer_tree(reused.construction.graph, reused):
            if edge is not None:
                assert MinedgeQuerier(n)(state) == edge, (n, sorted(state.queried))
