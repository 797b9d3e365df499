"""Adversary strategies, colorings, and tree decompositions."""

import random

import pytest

from majority_game import adversary as adv
from majority_game.core import Answer, StrategyError, apply_query, initial_state
from majority_game.generators import (
    complete_graph,
    free_trees,
    path_graph,
    random_tree,
    star_graph,
)
from majority_game.graphsolver import Game, GameView, forced_queries, play
from majority_game.weighted import solve_weighted


def test_eventrees_coloring_on_p4_is_the_unique_shape():
    got = adv.eventrees_coloring(path_graph(4))
    assert got in {"RRBB", "BBRR"}  # exhaustively the only valid colorings


def test_eventrees_coloring_exhaustive_check_p4():
    # independent enumeration: valid colorings are balanced with every
    # edge cutting into unbalanced halves
    valid = set()
    for bits in range(16):
        c = "".join("R" if (bits >> i) & 1 else "B" for i in range(4))
        if c.count("R") != 2:
            continue
        cuts_ok = all(
            2 * c[: i + 1].count("R") != i + 1 for i in range(3)
        )
        if cuts_ok:
            valid.add(c)
    assert valid == {"RRBB", "BBRR"}


def test_eventrees_coloring_star():
    c = adv.eventrees_coloring(star_graph(4))
    assert c.count("R") == 2
    leaves_sharing_center = sum(1 for i in (1, 2, 3) if c[i] == c[0])
    assert leaves_sharing_center == 1


def test_eventrees_coloring_single_edge():
    assert adv.eventrees_coloring(path_graph(2)) in {"RB", "BR"}


def test_eventrees_rejects_bad_input():
    with pytest.raises(ValueError):
        adv.eventrees_coloring(path_graph(5))
    with pytest.raises(ValueError):
        adv.eventrees_coloring(complete_graph(4))


def test_treelemma_first_answer_on_p4():
    g = path_graph(4)
    strat = adv.TreelemmaAdversary(g)
    view = GameView.from_state(initial_state(g))
    # delta({0,1}) = 1, so the even-size rule wants weight 2
    assert strat.choose_merge(view, (0, 1)) == 2


def test_treelemma_odd_odd_forced_balance():
    g = path_graph(8)
    state = initial_state(g)
    state = apply_query(state, (1, 2), Answer.SAME)
    state = apply_query(state, (2, 3), Answer.DIFF)  # component {1,2,3} weight 1
    state = apply_query(state, (4, 5), Answer.SAME)
    state = apply_query(state, (5, 6), Answer.DIFF)  # component {4,5,6} weight 1
    strat = adv.TreelemmaAdversary(g)
    view = GameView.from_state(state)
    # odd + odd, union {1..6} has boundary edges (0,1) and (6,7): delta 0
    assert strat.choose_merge(view, (3, 4)) == 0


def test_treelemma_full_set_merge_keeps_weight_when_possible():
    g = path_graph(6)
    state = initial_state(g)
    state = apply_query(state, (0, 1), Answer.SAME)
    state = apply_query(state, (1, 2), Answer.DIFF)  # {0,1,2} weight 1
    state = apply_query(state, (3, 4), Answer.SAME)
    state = apply_query(state, (4, 5), Answer.DIFF)  # {3,4,5} weight 1
    strat = adv.TreelemmaAdversary(g)
    view = GameView.from_state(state)
    # the merge covers every vertex: no proper-subset condition constrains
    # it, and a terminal no-majority state is not gifted
    assert strat.choose_merge(view, (2, 3)) == 2


def test_treelemma_full_play_on_even_trees():
    for g in free_trees(6):
        strat = adv.TreelemmaAdversary(g)
        transcript = play(g, adv.spanning_querier(g), strat)
        assert len(transcript) == 5
        assert transcript.outcome.majority is not None  # final merge kept nonzero


def test_treelemma_conditions_exhaustive_small():
    for n in range(2, 8):
        for g in free_trees(n):
            assert adv.verify_treelemma_all_orders(g)


def test_treelemma_random_orders_midsize():
    rng = random.Random(5)
    for n in (11, 13, 14):
        g = random_tree(n, seed=rng.randrange(10 ** 6))
        strat = adv.TreelemmaAdversary(g)
        assert adv.treelemma_random_order_check(g, strat, seed=7, plays=2) == []


def test_treelemma_forces_tree_bound():
    for n in (4, 6, 8):
        for g in free_trees(n):
            assert forced_queries(g, adv.TreelemmaAdversary(g)) == n - 1


def test_lefogo1_rejects_bad_cover():
    with pytest.raises(ValueError):
        adv.Lefogo1Adversary(complete_graph(4), frozenset({0}))  # edges miss the cover
    with pytest.raises(ValueError):
        adv.Lefogo1Adversary(star_graph(9), frozenset({0, 1, 2}))  # cover too large


def test_lefogo1_star_hardness():
    g_even = star_graph(8)
    assert forced_queries(g_even, adv.Lefogo1Adversary(g_even, {0})) == 7  # n - 1
    g_odd = star_graph(9)
    assert forced_queries(g_odd, adv.Lefogo1Adversary(g_odd, {0})) == 7  # n - 2
    g12 = star_graph(12)  # a real discipline phase: total walks from 12 to 8
    assert forced_queries(g12, adv.Lefogo1Adversary(g12, {0})) == 11


def test_lefogo1_switch_total():
    g = star_graph(12)
    strat = adv.Lefogo1Adversary(g, {0})
    assert strat.switch_total == 8
    report = adv.covering_playback(g, strat, adv.random_querier(3))
    assert not report.violations
    assert report.switch_seen_at is None or report.switch_seen_at == strat.switch_total


def test_oddpath_cover_and_switch():
    g = path_graph(15)
    strat = adv.OddpathAdversary(g, stride=9)
    assert 1 in strat.cover and 13 in strat.cover
    assert strat.switch_total == 9
    report = adv.covering_playback(g, strat, adv.random_querier(1))
    assert not report.violations


def test_oddpath_forced_values():
    # the window floor holds on P9; on longer paths the fixed cover
    # adversary is weaker than optimal and the achieved value is recorded
    assert forced_queries(path_graph(9), adv.OddpathAdversary(path_graph(9), 9)) == 7
    assert forced_queries(path_graph(13), adv.OddpathAdversary(path_graph(13), 9)) == 9


def test_oddpath_p15_achieved_value():
    # m(P15) = 12 is attained by the optimal adversary, not by the stride
    # cover (whose small-n guarantee does not kick in at 15); record what
    # it actually forces
    g = path_graph(15)
    assert forced_queries(g, adv.OddpathAdversary(g, 9)) == 10
    assert forced_queries(g, adv.OddpathAdversary(g, 8)) == 10


def test_oddpath_rejects_even_paths():
    with pytest.raises(ValueError):
        adv.OddpathAdversary(path_graph(8), 9)
    with pytest.raises(ValueError):
        adv.OddpathAdversary(path_graph(9), 7)


def test_centroid_decomposition_bounds():
    def piece_edge_counts(tree, cover):
        adj = tree.adjacency
        seen = set(cover)
        counts = []
        for s in range(tree.n):
            if s in seen:
                continue
            comp = {s}
            seen.add(s)
            stack = [s]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in cover and y not in seen:
                        seen.add(y)
                        comp.add(y)
                        stack.append(y)
            edges = sum(1 for u, v in tree.sorted_edges if u in comp or v in comp)
            counts.append(edges)
        return counts

    assert adv.centroid_decomposition(path_graph(5), 10) == frozenset()
    u = adv.centroid_decomposition(path_graph(9), 4)
    assert len(u) <= 2 * 9 / 4
    assert all(c <= 4 for c in piece_edge_counts(path_graph(9), u))
    assert adv.centroid_decomposition(star_graph(8), 1) == frozenset({0})

    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 30)
        p = rng.randint(1, 8)
        t = random_tree(n, seed=rng.randrange(10 ** 6))
        u = adv.centroid_decomposition(t, p)
        assert len(u) <= 2 * n / p
        assert all(c <= p for c in piece_edge_counts(t, u))


def test_lefogo2_requires_odd_trees():
    with pytest.raises(ValueError):
        adv.Lefogo2Adversary(path_graph(6))
    with pytest.raises(ValueError):
        adv.Lefogo2Adversary(complete_graph(5))


def test_lefogo2_decomposition_partitions_residual():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.choice(range(9, 32, 2))
        t = random_tree(n, seed=rng.randrange(10 ** 6))
        strat = adv.Lefogo2Adversary(t, p=4)  # small p to force a real cover
        cover_mask = strat.cover_mask
        part_union = strat.connecting_mask
        for part in strat.parts:
            assert part.mask & part_union == 0
            assert part.mask & cover_mask == 0
            part_union |= part.mask
        assert part_union | cover_mask == (1 << n) - 1
        for part in strat.parts:
            assert part.augmented == (bin(part.mask).count("1") % 2 == 0)
            if part.augmented:
                assert part.root is not None


def test_lefogo2_playback_invariants():
    rng = random.Random(12)
    for _ in range(15):
        n = rng.choice(range(3, 32, 2))
        t = random_tree(n, seed=rng.randrange(10 ** 6))
        strat = adv.Lefogo2Adversary(t)
        report = adv.covering_playback(t, strat, adv.random_querier(rng.randrange(10 ** 6)))
        assert report.violations == []
        if report.switch_seen_at is not None:
            k = t.n.bit_length() - 1
            assert report.switch_seen_at in (2 ** k + 1, 2 ** k + 3)


def test_exact_weighted_adversary_blocks_early_finishes():
    g = complete_graph(6)
    strat = adv.ExactWeightedAdversary()
    assert forced_queries(g, strat) == solve_weighted((1,) * 6)


class _DisciplinedSame(adv.AlwaysSameAdversary):
    """Always SAME under a zero drop cap: any weight the packed view loses
    shows up as a playback violation."""

    max_drop = 0
    cover_mask = 0

    def discipline_active(self, view) -> bool:
        return True


def test_playbacks_keep_weights_above_127():
    g = path_graph(300)  # the last merges reach weight 151
    game = Game(g, adv.AlwaysSameAdversary())
    querier = adv.spanning_querier(g)
    while game.outcome() is None:
        game.ask(*querier(game.state))
        assert game.view.codes == GameView.from_state(game.state).codes
    assert max(game.view.weights) == 151
    transcript = play(g, adv.spanning_querier(g), adv.AlwaysSameAdversary())
    assert len(transcript) == 150
    assert all(ans is Answer.SAME for _, ans in transcript.moves)
    report = adv.covering_playback(g, _DisciplinedSame(), adv.spanning_querier(g))
    assert report.violations == []
    assert report.transcript_length == 150


class _OutOfRangeAdversary:
    def choose_merge(self, view, edge) -> int:
        return view.graph.n + 1


def test_unreachable_merge_weight_is_rejected():
    g = path_graph(4)
    with pytest.raises(StrategyError):
        forced_queries(g, _OutOfRangeAdversary())
    with pytest.raises(StrategyError):
        Game(g, _OutOfRangeAdversary()).ask(0, 1)
