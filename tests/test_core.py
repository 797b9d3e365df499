"""State semantics: merges, weights, consistent colorings, terminal detection."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import (
    consistent_colorings,
    count_consistent,
    settled_by_signs,
    tuple_apply_query,
    tuple_component_index,
    tuple_encode_state,
    tuple_initial_state,
    tuple_outcome_valid,
    tuple_terminal_outcome,
)

from majority_game.core import (
    Answer,
    Component,
    Graph,
    IllegalQueryError,
    Outcome,
    apply_query,
    component_weights,
    initial_state,
    outcome_valid,
    settled,
    terminal_outcome,
)
from majority_game.generators import complete_graph, path_graph, random_graph
from majority_game.graphsolver import encode_state
from majority_game.weighted import weight_multisets


def play_edges(graph, moves):
    state = initial_state(graph)
    for (u, v), ans in moves:
        state = apply_query(state, (u, v), ans)
    return state


def test_same_merges_sides():
    g = path_graph(2)
    state = play_edges(g, [((0, 1), Answer.SAME)])
    (comp,) = state.components
    assert comp.weight == 2
    assert comp.side_a == () and comp.side_b == (0, 1)


def test_diff_balances_pair():
    g = path_graph(2)
    state = play_edges(g, [((0, 1), Answer.DIFF)])
    (comp,) = state.components
    assert comp.weight == 0
    assert {comp.side_a, comp.side_b} == {(0,), (1,)}


def test_cross_merge_weight_follows_sides():
    # components ({a,b}, {}) of weight 2 and ({c}, {d}) of weight 0;
    # DIFF on (b, c) must land c opposite the a,b side: split ({a,b,d},{c})
    g = complete_graph(4)
    state = play_edges(
        g,
        [((0, 1), Answer.SAME), ((2, 3), Answer.DIFF), ((1, 2), Answer.DIFF)],
    )
    (comp,) = state.components
    assert comp.weight == 2
    assert {comp.side_a, comp.side_b} == {(2,), (0, 1, 3)}
    # cross-checked against the coloring enumeration
    assert sorted(consistent_colorings(state)) == ["BBRB", "RRBR"]


def test_component_weights_examples():
    assert component_weights(initial_state(path_graph(5))) == (1, 1, 1, 1, 1)
    g = path_graph(4)
    state = play_edges(g, [((0, 1), Answer.SAME), ((1, 2), Answer.SAME), ((2, 3), Answer.SAME)])
    assert component_weights(state) == (4,)


def test_consistent_coloring_counts():
    g = path_graph(3)
    assert count_consistent(initial_state(g)) == 8
    state = play_edges(g, [((0, 1), Answer.SAME), ((1, 2), Answer.SAME)])
    assert count_consistent(state) == 2
    assert len(set(consistent_colorings(state))) == 2
    state = play_edges(path_graph(4), [((0, 1), Answer.SAME), ((2, 3), Answer.DIFF)])
    assert count_consistent(state) == 4


def test_terminal_outcomes():
    g = path_graph(6)
    state = play_edges(
        g,
        [((0, 1), Answer.DIFF), ((2, 3), Answer.DIFF), ((4, 5), Answer.DIFF)],
    )
    out = terminal_outcome(state)
    assert out is not None and out.majority is None

    g = complete_graph(8)
    # one component of weight 5 against singletons of weight 1 each
    state = play_edges(
        g,
        [((0, 1), Answer.SAME), ((1, 2), Answer.SAME), ((2, 3), Answer.SAME), ((3, 4), Answer.SAME)],
    )
    out = terminal_outcome(state)
    assert out is not None and out.majority == 0

    g = complete_graph(4)
    state = play_edges(g, [((0, 1), Answer.SAME)])  # weights (2, 1, 1)
    assert terminal_outcome(state) is None
    # the enumeration really does contain both decided and undecided colorings
    outcomes = set()
    for coloring in consistent_colorings(state):
        reds = coloring.count("R")
        outcomes.add("none" if reds * 2 == 4 else "majority")
    assert outcomes == {"none", "majority"}


def test_settled_matches_the_sign_vectors():
    for w in [(), *weight_multisets(10)]:
        for padded in (w, w + (0,), w + (0, 0)):
            assert settled(padded) == settled_by_signs(padded), padded


def test_outcome_validation_matches_enumeration():
    g = complete_graph(5)
    state = play_edges(g, [((0, 1), Answer.SAME), ((1, 2), Answer.SAME)])  # (3,1,1)
    out = terminal_outcome(state)
    assert out is not None
    assert outcome_valid(state, out)


def test_rejects_intra_component_and_foreign_edges():
    g = path_graph(3)
    state = play_edges(g, [((0, 1), Answer.SAME)])
    with pytest.raises(IllegalQueryError):
        apply_query(state, (0, 1), Answer.SAME)
    with pytest.raises(IllegalQueryError):
        apply_query(state, (0, 2), Answer.SAME)


def test_canonical_split_is_idempotent():
    c = Component.from_masks(0b1010, 0b0100)  # sides {1, 3} and {2}
    assert Component.from_masks(c.mask_a, c.mask_b) == c
    assert Component.from_masks(c.mask_b, c.mask_a) == c
    assert Component.from_masks(0, 0b1).side_a == ()


def test_mask_state_matches_the_tuple_state():
    # seeded random legal plays, each to the last cross-component edge,
    # against the split state held as sorted side tuples
    rng = random.Random(15)
    states = 0
    for seed in range(300):
        n = rng.randint(1, 12)
        g = random_graph(n, rng.choice((0.2, 0.4, 0.7)), seed=seed)
        state, ref = initial_state(g), tuple_initial_state(g)
        claims = [Outcome.no_majority()] + [Outcome.majority_vertex(v) for v in range(n)]
        while True:
            states += 1
            assert [(c.side_a, c.side_b) for c in state.components] == [(c.side_a, c.side_b) for c in ref.components]
            owners = [tuple_component_index(ref, v) for v in range(n)]
            assert [state.component_index(v) for v in range(n)] == owners
            assert [c.weight for c in state.components] == [c.weight for c in ref.components]
            assert terminal_outcome(state) == tuple_terminal_outcome(ref)
            assert [outcome_valid(state, c) for c in claims] == [tuple_outcome_valid(ref, c) for c in claims]
            assert encode_state(state) == tuple_encode_state(ref)
            legal = [(u, v) for u, v in g.sorted_edges if owners[u] != owners[v]]
            if not legal:
                break
            u, v = rng.choice(legal)
            edge = (u, v) if rng.random() < 0.5 else (v, u)
            answer = rng.choice((Answer.SAME, Answer.DIFF))
            state, ref = apply_query(state, edge, answer), tuple_apply_query(ref, edge, answer)
        assert state.queried == ref.queried
    assert states > 1500


@st.composite
def random_plays(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    g = complete_graph(n)
    state = initial_state(g)
    steps = draw(st.integers(min_value=0, max_value=n - 1))
    for _ in range(steps):
        comps = state.components
        if len(comps) < 2:
            break
        i, j = sorted(draw(st.permutations(range(len(comps))))[:2])
        u = comps[i].min_vertex()
        v = comps[j].min_vertex()
        ans = draw(st.sampled_from([Answer.SAME, Answer.DIFF]))
        state = apply_query(state, (u, v), ans)
    return state


@given(random_plays())
def test_sum_parity_invariant(state):
    assert sum(component_weights(state)) % 2 == state.graph.n % 2


@given(random_plays())
def test_consistency_count_halves_per_query(state):
    assert count_consistent(state) == 2 ** (state.graph.n - len(state.queried))


@given(random_plays())
def test_merge_algebra_both_values_reachable(state):
    comps = state.components
    if len(comps) < 2:
        return
    a, b = comps[0], comps[1]
    u, v = a.min_vertex(), b.min_vertex()
    got = set()
    for ans in (Answer.SAME, Answer.DIFF):
        nxt = apply_query(state, (u, v), ans)
        merged = nxt.component_of(u)
        got.add(merged.weight)
    assert got == {a.weight + b.weight, abs(a.weight - b.weight)}


@given(random_plays())
def test_terminal_claims_hold_in_every_consistent_coloring(state):
    out = terminal_outcome(state)
    if out is None:
        return
    assert outcome_valid(state, out)


def test_graph_text_round_trip():
    g = random_graph(7, 0.5, seed=3)
    assert Graph.from_text(g.to_text()) == g
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])


def test_solvability_predicate():
    assert path_graph(4).is_majority_solvable()
    assert not Graph.from_edges(4, [(0, 1), (2, 3)]).is_majority_solvable()
    assert Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]).is_majority_solvable()
    assert not Graph.from_edges(5, [(0, 1), (2, 3)]).is_majority_solvable()
