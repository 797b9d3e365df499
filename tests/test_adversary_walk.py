"""The level-by-level adversary walk against the recursive and stack-walk
forms it replaced, kept here as the reference."""

import random

from majority_game import adversary as adv
from majority_game.core import GameError
from majority_game.generators import (
    complete_graph,
    free_trees,
    path_graph,
    random_graph,
    random_tree,
    star_graph,
)
from majority_game.graphsolver import (
    GameView,
    _terminal,
    adversary_levels,
    adversary_successors,
    forced_queries,
    root_codes,
)


def reference_forced_queries(graph, adversary) -> int:
    """Memoized recursion: 0 at a terminal state, else 1 + the fewest over
    the adversary's successors."""
    memo = {}
    wmask = (1 << graph.n.bit_length()) - 1

    def rec(codes):
        if _terminal(codes, wmask):
            return 0
        if codes not in memo:
            succs = adversary_successors(GameView(graph, codes), adversary)
            memo[codes] = min((1 + rec(s) for s in succs), default=graph.n)
        return memo[codes]

    return rec(root_codes(graph.n))


def reference_reachable(graph, adversary) -> set:
    """Every state some query order reaches, terminal states walked past."""
    seen = set()
    stack = [root_codes(graph.n)]
    while stack:
        codes = stack.pop()
        if codes not in seen:
            seen.add(codes)
            stack += adversary_successors(GameView(graph, codes), adversary)
    return seen


def reference_all_orders(graph) -> bool:
    adversary = adv.TreelemmaAdversary(graph)
    return not any(
        adv.check_treelemma_conditions(graph, GameView(graph, codes))
        for codes in reference_reachable(graph, adversary)
    )


def outcome(fn, *args):
    """The result of a call, or the class of the game error it raised."""
    try:
        return fn(*args)
    except GameError as exc:
        return type(exc)


def assert_levels(graph, adversary):
    """Level d holds exactly the states with n - d components, and the
    levels together hold every reachable state once."""
    seen = []
    for d, views in enumerate(adversary_levels(graph, adversary)):
        assert all(len(view.codes) == graph.n - d for view in views)
        seen += [view.codes for view in views]
    assert len(seen) == len(set(seen))
    assert set(seen) == reference_reachable(graph, adversary)


def small_trees():
    for n in range(1, 10):
        yield from free_trees(n)
    yield random_tree(12, 1)
    yield random_tree(14, 1)


def seeded_graphs(count=12):
    rng = random.Random(3)
    out = []
    while len(out) < count:
        g = random_graph(rng.randint(3, 8), 0.5, seed=rng.randrange(10 ** 6))
        if g.is_majority_solvable():
            out.append(g)
    return out


def test_treelemma_walk_matches_the_reference():
    for g in small_trees():
        strat = adv.TreelemmaAdversary(g)
        assert forced_queries(g, strat) == reference_forced_queries(g, strat)
        assert adv.verify_treelemma_all_orders(g) == reference_all_orders(g)


def test_covering_adversaries_match_the_reference():
    cases = [(star_graph(n), adv.Lefogo1Adversary(star_graph(n), {0})) for n in (8, 9, 12)]
    cases += [(path_graph(n), adv.OddpathAdversary(path_graph(n), 9)) for n in (9, 13)]
    for g, strat in cases:
        assert forced_queries(g, strat) == reference_forced_queries(g, strat)


def test_weighted_adversaries_match_the_reference():
    cases = [(complete_graph(n), adv.ExactWeightedAdversary()) for n in range(2, 8)]
    for g in seeded_graphs():
        cases += [(g, adv.ExactWeightedAdversary()), (g, adv.AlwaysSameAdversary())]
    for g, strat in cases:
        assert forced_queries(g, strat) == reference_forced_queries(g, strat)
    for g in seeded_graphs():
        assert outcome(adv.verify_treelemma_all_orders, g) == outcome(reference_all_orders, g)


def test_levels_hold_states_by_component_count():
    for n in range(2, 8):
        for g in free_trees(n):
            assert_levels(g, adv.TreelemmaAdversary(g))
    assert_levels(star_graph(9), adv.Lefogo1Adversary(star_graph(9), {0}))
    assert_levels(path_graph(9), adv.OddpathAdversary(path_graph(9), 9))
    for g in seeded_graphs(4):
        assert_levels(g, adv.ExactWeightedAdversary())
        assert_levels(g, adv.AlwaysSameAdversary())


def test_all_orders_catches_a_broken_discipline(monkeypatch):
    monkeypatch.setattr(adv, "_treelemma_target", lambda sx, sy, wx, wy, delta, full: wx + wy)
    g = path_graph(6)
    assert reference_all_orders(g) is False
    assert adv.verify_treelemma_all_orders(g) is False

