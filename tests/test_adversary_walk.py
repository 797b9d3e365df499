"""The adversary walks against the recursive and stack-walk forms they
replaced, kept here as the reference: the level-by-level walk over packed
states, and the memoized walk over labelled quotient trees."""

import itertools
import random

import pytest
from oracles import brute_canonical_form, discipline_holds

from majority_game import adversary as adv
from majority_game import graphsolver
from majority_game.core import GameError, Graph, StrategyError, UnsolvableGraphError
from majority_game.generators import (
    complete_graph,
    free_trees,
    path_graph,
    random_graph,
    random_tree,
    star_graph,
    tree_key,
)
from majority_game.graphsolver import (
    GameView,
    _terminal,
    adversary_levels,
    adversary_successors,
    clear_quotient_cache,
    forced_queries,
    quotient_cache_info,
    root_codes,
)
from majority_game.suites import c7_random_trees


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
    states = reference_reachable(graph, adversary)
    return all(discipline_holds(graph, GameView(graph, codes)) for codes in states)


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
    for g in free_trees(10):
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
    # the quotient walk's visited set is shared under the rule's identity,
    # which the patch keeps: a warm set must not hide the broken rule, and
    # what the broken rule passed must not outlive the patch
    # P6 takes the quotient walk and C6 the level walk
    graphs = [path_graph(6), cycle_graph(6)]
    assert all(adv.verify_treelemma_all_orders(g) is True for g in graphs)
    clear_quotient_cache()
    monkeypatch.setattr(adv, "_treelemma_target", lambda sx, sy, wx, wy, delta, full: wx + wy)
    try:
        for g in graphs:
            assert reference_all_orders(g) is False
            assert adv.verify_treelemma_all_orders(g) is False
    finally:
        clear_quotient_cache()


def cycle_graph(n):
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def with_least_non_edge(tree):
    n = tree.n
    extra = min((u, v) for u in range(n) for v in range(u + 1, n) if not tree.has_edge(u, v))
    return Graph.from_edges(n, [*tree.sorted_edges, extra])


def test_all_orders_hold_off_trees():
    """The discipline can always be met, on any graph: odd + even sizes
    give 1 = 1 + 0 or |1 - 2|, odd + odd give 0 or 2, and even + even give
    2 * (dx ^ dy), which is one of 2dx + 2dy and |2dx - 2dy|.  So the
    level walk, which a graph with a cycle takes, finds it in every state."""
    graphs = [cycle_graph(n) for n in range(3, 10)]
    graphs += [with_least_non_edge(t) for n in range(4, 7) for t in free_trees(n)]
    graphs += [with_least_non_edge(random_tree(8, 1)), with_least_non_edge(random_tree(9, 2))]
    assert len(graphs) == 20
    for g in graphs:
        assert adv.verify_treelemma_all_orders(g) is True, g.sorted_edges
        assert reference_all_orders(g) is True, g.sorted_edges


def level_walk_all_orders(graph) -> bool:
    """The packed-state level walk, which stops at the first level with a
    violation and so never applies the rule to a broken component."""
    adversary = adv.TreelemmaAdversary(graph)
    levels = adversary_levels(graph, adversary)
    return all(discipline_holds(graph, view) for views in levels for view in views)


def test_all_orders_sorts_trees_under_a_subtle_break(monkeypatch):
    # merging two weight-2 components into weight 4 breaks the discipline
    # only in trees where such a pair can meet inside a proper subset; one
    # visited set shared by every tree must not pass a tree that breaks
    real = adv._treelemma_target
    monkeypatch.setattr(adv, "_treelemma_target", lambda sx, sy, wx, wy, delta, full:
                        wx + wy if wx == wy == 2 and not full else real(sx, sy, wx, wy, delta, full))
    clear_quotient_cache()
    try:
        verdicts = set()
        for n in range(2, 10):
            for g in free_trees(n):
                got = adv.verify_treelemma_all_orders(g)
                assert got == level_walk_all_orders(g), g.sorted_edges
                verdicts.add((n, got))
        assert {(6, True), (6, False), (9, True), (9, False)} <= verdicts
    finally:
        clear_quotient_cache()


# -- the walk over labelled quotient trees -----------------------------------


class _SizeMod3Adversary(adv.TreelemmaAdversary):
    """A label-closed adversary whose forced values differ between trees of
    one size: weights add when the two sizes sum to 0 mod 3 and cancel
    otherwise.  The tree-lemma adversary forces n - 1 on every even tree,
    and its parities are read off the quotient tree itself (the size
    parity is the weight's, and the odd-degree parity is that of the
    node's degree), so a key that loses them can still pass with it.  A
    size mod 3 is not determined by the quotient tree and its weights."""

    def component_label(self, mask, weight):
        return weight, mask.bit_count() % 3

    @staticmethod
    def merge_labels(a, b, full):
        (wa, ra), (wb, rb) = a, b
        return wa + wb if (ra + rb) % 3 == 0 else abs(wa - wb), (ra + rb) % 3


class _UnreachableLabels(adv.TreelemmaAdversary):
    @staticmethod
    def merge_labels(a, b, full):
        return a[0] + b[0] + 1, a[1] ^ b[1], a[2] ^ b[2]


def test_labels_are_closed_under_merges():
    """In every state the codes walk reaches, the label of each cross
    edge's union is the merge of its two components' labels."""
    for n in range(2, 9):
        for g in free_trees(n):
            for adversary in (adv.TreelemmaAdversary(g), _SizeMod3Adversary(g)):
                for codes in reference_reachable(g, adversary):
                    view = GameView(g, codes)
                    for u, v in g.sorted_edges:
                        i, j = view.comp_of(u), view.comp_of(v)
                        if i == j:
                            continue
                        mi, mj = view.masks[i], view.masks[j]
                        target = adversary.choose_merge(view, (u, v))
                        merged = adversary.merge_labels(
                            adversary.component_label(mi, view.weights[i]),
                            adversary.component_label(mj, view.weights[j]),
                            mi | mj == adversary.full_mask,
                        )
                        assert adversary.component_label(mi | mj, target) == merged


def labelled_trees():
    """Every free tree with at most 6 nodes under every labelling over
    three symbols (two at 6 nodes), each also under one of three seeded
    renumberings of its vertices."""
    rng = random.Random(5)
    for n in range(1, 7):
        for g in free_trees(n):
            perms = [rng.sample(range(n), n) for _ in range(3)]
            for t, labels in enumerate(itertools.product(range(3 if n < 6 else 2), repeat=n)):
                yield labels, g.sorted_edges
                perm = perms[t % 3]
                yield tuple(labels[perm.index(v)] for v in range(n)), [(perm[x], perm[y]) for x, y in g.sorted_edges]


def test_quotient_key_matches_the_brute_force_form():
    forms_by_key, keys_by_form, interned = {}, {}, {}  # keys compare only within one intern table
    for labels, edges in labelled_trees():
        key, form = tree_key(labels, edges, interned), brute_canonical_form(labels, edges)
        forms_by_key.setdefault(key, set()).add(form)
        keys_by_form.setdefault(form, set()).add(key)
    assert all(len(forms) == 1 for forms in forms_by_key.values())
    assert all(len(keys) == 1 for keys in keys_by_form.values())


def test_label_walk_matches_the_codes_walk():
    """Free trees with n <= 9 are compared by the test above."""
    clear_quotient_cache()
    for g in [*free_trees(10), *c7_random_trees()]:
        strat = adv.TreelemmaAdversary(g)
        assert forced_queries(g, strat) == reference_forced_queries(g, strat)


def test_label_walk_tells_trees_apart():
    clear_quotient_cache()
    for n in range(1, 11):
        values = set()
        for g in free_trees(n):
            strat = _SizeMod3Adversary(g)
            got = forced_queries(g, strat)
            assert got == reference_forced_queries(g, strat)
            values.add(got)
        assert len(values) >= (2 if n >= 4 else 1)


def test_forced_walk_keys_each_tuple_once(monkeypatch):
    # two query orders that reach one partition reach one (labels, edges)
    # tuple, so a walk keys each tuple once: 4,520 over the free trees with
    # n = 10, where keying every tree entered took 7,754
    calls = []
    real = graphsolver.tree_key
    monkeypatch.setattr(graphsolver, "tree_key", lambda *args: calls.append(args) or real(*args))
    clear_quotient_cache()
    try:
        for g in free_trees(10):
            assert forced_queries(g, adv.TreelemmaAdversary(g)) == 9
        assert len(calls) == 4520
    finally:
        clear_quotient_cache()


def test_all_orders_walk_keys_each_tuple_once(monkeypatch):
    # the all-orders walk keeps the (labels, edges) tuples that passed, so
    # it keys each once too: 703 over the free trees with n <= 8 and 4,520
    # over n = 10, where keying every tree entered took 1,141 and 7,754;
    # the shared visited set and subtree table are the same either way
    calls = []
    real = graphsolver.tree_key
    monkeypatch.setattr(graphsolver, "tree_key", lambda *args: calls.append(args) or real(*args))
    try:
        for ns, keys, visited in (((2, 3, 4, 5, 6, 7, 8), 703, 220), ((10,), 4520, 1101)):
            clear_quotient_cache()
            calls.clear()
            assert all(adv.verify_treelemma_all_orders(g) for n in ns for g in free_trees(n))
            assert len(calls) == keys
            assert quotient_cache_info()["visited"] == visited
    finally:
        clear_quotient_cache()


def test_label_walk_errors():
    with pytest.raises(StrategyError):
        forced_queries(path_graph(4), _UnreachableLabels(path_graph(4)))
    forest = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(UnsolvableGraphError):
        forced_queries(forest, adv.TreelemmaAdversary(forest))


def test_quotient_cache_is_shared_and_cleared():
    empty = {"states": 0, "visited": 0, "interned": 0}
    clear_quotient_cache()
    assert quotient_cache_info() == empty
    g = path_graph(8)
    h = Graph.from_edges(8, [(7 - u, 7 - v) for u, v in g.sorted_edges])  # P8 renumbered
    assert forced_queries(g, adv.TreelemmaAdversary(g)) == 7
    filled = quotient_cache_info()
    assert filled["states"] > 0 and filled["interned"] > 0 and filled["visited"] == 0
    assert forced_queries(h, adv.TreelemmaAdversary(h)) == 7
    assert quotient_cache_info() == filled
    assert adv.verify_treelemma_all_orders(g)
    checked = quotient_cache_info()
    assert checked["visited"] > 0 and checked["states"] == filled["states"]
    assert adv.verify_treelemma_all_orders(h)
    assert quotient_cache_info() == checked
    clear_quotient_cache()
    assert quotient_cache_info() == empty
