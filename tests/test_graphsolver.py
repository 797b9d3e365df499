"""Graph game solver: values, strategies, playback, forced counts."""

import functools
import random

import pytest
from oracles import atlas_graphs, reference_upper

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
from majority_game.core import Graph, InputError, UnsolvableGraphError
from majority_game.generators import complete_graph, path_graph, random_graph, random_tree, star_graph
from majority_game.graphsolver import (
    GameView,
    GraphSolver,
    _merge_codes,
    _terminal,
    encode_state,
    forced_queries,
    optimal_querier,
    play,
    root_codes,
    solve_graph,
)
from majority_game.weighted import solve_weighted


def reference_value(graph):
    """Independent oracle: minimax over full split-level states, memoized
    on the canonical splits themselves (no weight-level identification)."""
    return reference_search(graph)[0]


@functools.cache  # the atlas tests share one search per graph
def reference_search(graph):
    """``reference_value`` and its memo: every non-terminal split state the
    recursion reaches, as (state, value) pairs keyed by their splits."""
    from majority_game.core import Answer, apply_query, initial_state, terminal_outcome

    memo = {}

    def key(state):
        return tuple(sorted((c.side_a, c.side_b) for c in state.components))

    def rec(state):
        if terminal_outcome(state) is not None:
            return 0
        k = key(state)
        if k in memo:
            return memo[k][1]
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
        memo[k] = (state, best)
        return best

    return rec(initial_state(graph)), memo


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
    with pytest.raises(InputError):
        solve_graph(path_graph(4), canonical="mirror")


def test_table_cap_keeps_value_exact():
    for g in (path_graph(10), random_tree(10, 1)):
        capped = solve_graph(g, table_cap=50)
        assert capped.value == solve_graph(g).value
        assert capped.table_entries <= 50  # exact values and lower bounds together


def reachable_codes(graph, count, rng):
    """The root and `count` non-terminal packed states reached from it by
    random queries and answers."""
    root = root_codes(graph.n)
    shift = graph.n.bit_length()
    out = [root]
    while len(out) <= count:
        codes = root
        for _ in range(rng.randrange(graph.n)):
            view = GameView(graph, codes)
            a, b = rng.choice([(view.comp_of(u), view.comp_of(v)) for u, v in graph.sorted_edges
                               if view.comp_of(u) != view.comp_of(v)])
            wa, wb = view.weights[a], view.weights[b]
            nxt = _merge_codes(codes, a, b, rng.choice((wa + wb, abs(wa - wb))), shift)
            if _terminal(nxt, (1 << shift) - 1):
                break
            codes = nxt
        out.append(codes)
    return out


def test_cutoff_contract():
    # below beta the value is exact; otherwise a lower bound in [beta, exact],
    # both on a fresh solver and on one whose table keeps the earlier bounds
    rng = random.Random(29)
    graphs = [path_graph(9), star_graph(7)] + [random_tree(9, s) for s in (1, 2, 3)]
    for g in graphs:
        shared = GraphSolver(g)
        for codes in reachable_codes(g, 30, rng):
            exact = GraphSolver(g)._search(codes, g.n)
            for beta in range(g.n + 1):
                for got in (GraphSolver(g)._search(codes, beta), shared._search(codes, beta)):
                    if got < beta:
                        assert got == exact, (g.to_text(), codes, beta)
                    else:
                        assert beta <= got <= exact, (g.to_text(), codes, beta)


def edge_scan_pairs(graph, codes):
    """Each pair of components joined by an edge, found by scanning every
    edge of the graph: the moves as the search once derived them."""
    vc = GameView(graph, codes).vertex_comp
    return {(min(vc[u], vc[v]), max(vc[u], vc[v])) for u, v in graph.sorted_edges if vc[u] != vc[v]}


def test_carried_state_matches_the_codes():
    # every state the search reaches through carried merges: its moves are
    # the edge scan's pairs and its count-keyed bound is the weighted value,
    # zero weights included; K_7 and K_15 fill a count field to full width
    rng = random.Random(31)
    graphs = [path_graph(9), star_graph(7), random_graph(10, 0.35, seed=0)]
    graphs += [random_tree(n, s) for n in (9, 12) for s in (1, 2, 3)]
    graphs += [complete_graph(n) for n in (7, 8, 15, 16)]
    assert len(graphs[2].edges) > graphs[2].n - 1 == 9  # connected, with cycles
    # (``_expand`` is what the search calls for every node it opens)
    for g in graphs:
        solver = GraphSolver(g, canonical="generic")
        shift, wmask, expand = solver.shift, solver.wmask, solver._expand
        seen = {}

        def checking(key, codes, nbrs, cnt, lb, beta):
            if codes not in seen:
                masks = [c >> shift for c in codes]
                weights = [c & wmask for c in codes]
                pairs = {(i, j) for j, mj in enumerate(masks) for i in range(j) if nbrs[i] & mj}
                assert pairs == edge_scan_pairs(g, codes), (g.to_text(), codes)
                assert cnt == sum(1 << (w * shift) for w in weights)
                assert solver.bounds[cnt >> shift] == solve_weighted(weights), (g.to_text(), weights)
                assert key == codes and solve_weighted(weights) <= lb < beta
                seen[codes] = 0 in weights
            return expand(key, codes, nbrs, cnt, lb, beta)

        solver._expand = checking
        for codes in reachable_codes(g, 20, rng):
            solver._search(codes, g.n)
        assert len(seen) > 20 and any(seen.values()), g.to_text()


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


# best_query's edge at each non-terminal state verify_querier visits, in
# visit order, as the exact-only search (before the cutoff) chose them
BEST_QUERY_EDGES = {
    "P9": (path_graph(9), """
        01 12 23 34 45 56 67 45 34 67 67 78 23 45 56 67 67 45 34 67 67 78 23 45 34 67 67 78
        45 56 67 67"""),
    "minedge8": (build_minedge_graph(8).graph, """
        01 03 04 12 15 26 37 12 15 26 37 15 26 37 26 37 37 04 12 15 26 37 15 26 37 26 37 37
        12 15 26 37 26 37 37 15 26 37 37 26 37 04 15 23 26 37 26 37 37 26 12 37 03 37 15 26
        12 37 03 37 23 26 37 26 37 37"""),
}


@pytest.mark.parametrize("name", sorted(BEST_QUERY_EDGES))
def test_best_query_edges_are_unchanged(name):
    graph, recorded = BEST_QUERY_EDGES[name]
    querier = optimal_querier(graph)
    chosen = []

    def recording(state):
        edge = querier(state)
        # a fresh table, without the root search's bounds, picks the same edge
        assert GraphSolver(graph).best_query(state) == edge
        chosen.append(f"{edge[0]}{edge[1]}")
        return edge

    assert verify_querier(graph, recording, solve_graph(graph).value).passed
    assert chosen == recorded.split()


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
    # P9's root closes unexpanded: its weighted bound 9 - b(9) = 7 meets
    # the odd-total strategy bound n - 2; P10's bound 8 is below n - 1 = 9
    res = solve_graph(path_graph(9))
    assert res.value == 7
    assert res.nodes_expanded == 0 and res.closed_by_upper == 1 and res.table_entries == 1
    assert res.canonical == "path"
    res = solve_graph(path_graph(10))
    assert res.value == 9
    assert res.nodes_expanded > 0 and res.table_entries > 0


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize("graph,cap,counts", [
    # value, nodes, entries, bound entries, closed, exact hits, bound hits
    (path_graph(15), None, (12, 10828, 10415, 5735, 6, 7220, 23893)),
    (random_tree(12, 1), None, (11, 2274, 2769, 2273, 495, 79, 5299)),
    (path_graph(10), 50, (9, 6793, 50, 49, 3, 1, 4220)),
    (cycle_graph(12), None, (10, 981, 978, 687, 0, 169, 1026)),
    (random_tree(10, 1), 0, (9, 6531, 0, 0, 4, 0, 0)),  # no table, no hits
])
def test_solver_counters_are_pinned(graph, cap, counts):
    # value to closed are the search's own, equal to those of the solver
    # whose move loop called itself for every child; the hits count the
    # children the loop now decides from the tables without a call
    r = solve_graph(graph, table_cap=cap)
    assert (r.value, r.nodes_expanded, r.table_entries, r.bound_entries, r.closed_by_upper,
            r.exact_hits, r.bound_hits) == counts


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


def test_merge_codes_matches_a_full_sort():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(2, 12)
        shift = n.bit_length()
        masks: dict[int, int] = {}
        for v in range(n):
            c = rng.randrange(n)
            masks[c] = masks.get(c, 0) | 1 << v
        if len(masks) < 2:
            continue
        codes = tuple(sorted((m << shift) | rng.randint(0, n) for m in masks.values()))
        i, j = rng.sample(range(len(codes)), 2)
        w = rng.randint(0, n)
        merged = (((codes[i] >> shift) | (codes[j] >> shift)) << shift) | w
        want = tuple(sorted([c for t, c in enumerate(codes) if t not in (i, j)] + [merged]))
        assert _merge_codes(codes, i, j, w, shift) == want


# -- differential sweep over every small graph ---------------------------


def test_atlas_matches_split_level_oracle():
    graphs = atlas_graphs(6)
    assert len(graphs) == 152
    for g in graphs:
        assert solve_graph(g).value == reference_value(g), g.to_text()


def test_atlas_states_lie_between_the_solver_bounds():
    # lb is the weighted value of the state's weights, ub the cost of merging
    # along the edges while skipping zero components that connect nothing;
    # handed a lower bound of n, ``_expand`` closes the node at its ub
    for g in atlas_graphs(6):
        solver = GraphSolver(g)
        for state, value in reference_search(g)[1].values():
            view = GameView(g, encode_state(state))
            nbrs, cnt = solver._carried(view)
            lb = solver.bounds[cnt >> solver.shift]
            ub = solver._expand(view.codes, view.codes, nbrs, cnt, g.n, g.n)
            assert ub == reference_upper(g, view), (g.to_text(), state)
            assert lb <= value <= ub, (g.to_text(), state)


def test_table_entries_match_split_level_oracle():
    # the one table holds an exact value v as v and a lower bound b as -b:
    # every entry's state is one the oracle reaches, each positive entry is
    # the state's value and each negative one is at most it
    solves = [(g, "generic") for g in atlas_graphs(6)] + [(path_graph(n), "path") for n in range(2, 10)]
    bound_entries = 0
    for g, canonical in solves:
        solver = GraphSolver(g, canonical)
        result = solver.solve()
        values = {solver._key(encode_state(state)): value for state, value in reference_search(g)[1].values()}
        assert solver.table.keys() <= values.keys(), g.to_text()
        for key, entry in solver.table.items():
            assert entry == values[key] if entry > 0 else -entry <= values[key], (g.to_text(), key, entry)
        assert sum(1 for entry in solver.table.values() if entry < 0) == result.bound_entries
        bound_entries += result.bound_entries
    assert bound_entries > 0


def test_atlas_values_survive_relabelling():
    graphs = atlas_graphs(7)
    assert len(graphs) == 1150
    rng = random.Random(23)
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.sorted_edges])
        assert solve_graph(h).value == solve_graph(g).value, g.to_text()


def test_atlas_optimal_querier_meets_the_value():
    for g in atlas_graphs(7):
        report = verify_querier(g, optimal_querier(g), solve_graph(g).value)
        assert report.passed, (g.to_text(), report.failure_path)


def test_atlas_adding_an_edge_never_raises_the_value():
    for g in atlas_graphs(7):
        m = solve_graph(g).value
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not g.has_edge(u, v):
                    h = Graph.from_edges(g.n, [*g.edges, (u, v)])
                    assert solve_graph(h).value <= m, (g.to_text(), (u, v))
