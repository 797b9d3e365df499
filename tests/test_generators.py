"""Instance generators: named families and free-tree enumeration."""

import itertools

import pytest

from majority_game.adversary import TreelemmaAdversary
from majority_game.core import Graph, InputError
from majority_game.generators import (
    FREE_TREE_COUNTS,
    complete_graph,
    free_trees,
    is_path_in_order,
    is_tree,
    path_graph,
    random_graph,
    random_tree,
    star_graph,
    tree_from_pruefer,
    tree_key,
)
from majority_game.graphsolver import clear_quotient_cache, forced_queries, quotient_cache_info


def test_named_families():
    p = path_graph(5)
    assert is_path_in_order(p) and len(p.edges) == 4
    s = star_graph(6)
    assert sorted(len(a) for a in s.adjacency) == [1, 1, 1, 1, 1, 5]
    k = complete_graph(4)
    assert len(k.edges) == 6


def certificate(graph, interned):
    """The tree's ``tree_key`` with one constant label."""
    return tree_key((0,) * graph.n, graph.sorted_edges, interned)


@pytest.mark.parametrize("n", range(1, 13))
def test_free_tree_counts(n):
    trees = list(free_trees(n))
    assert len(trees) == FREE_TREE_COUNTS[n]
    assert all(is_tree(g) for g in trees)
    interned = {}
    certs = {certificate(g, interned) for g in trees}
    assert len(certs) == len(trees)


@pytest.mark.parametrize("n", range(2, 8))
def test_free_trees_against_pruefer_enumeration(n):
    """Independent oracle: enumerate all labeled trees and deduplicate."""
    if n == 2:
        labeled = [tree_from_pruefer([], 2)]
    else:
        labeled = [
            tree_from_pruefer(list(seq), n)
            for seq in itertools.product(range(n), repeat=n - 2)
        ]
    interned = {}
    oracle_certs = {certificate(g, interned) for g in labeled}
    assert len(oracle_certs) == FREE_TREE_COUNTS[n]
    assert {certificate(g, interned) for g in free_trees(n)} == oracle_certs


def test_free_trees_do_not_share_the_walks_intern_table():
    """Clearing the forced-query walks' cache between yields, and refilling
    it, leaves the enumeration as it is; a bare enumeration leaves the
    cache as it is."""
    clean = list(free_trees(9))
    walked = []
    for g in free_trees(9):
        walked.append(g)
        clear_quotient_cache()
        forced_queries(path_graph(6), TreelemmaAdversary(path_graph(6)))
    assert walked == clean
    before = quotient_cache_info()
    assert list(free_trees(9)) == clean
    assert quotient_cache_info() == before


def test_random_tree_is_deterministic_and_a_tree():
    a = random_tree(12, seed=5)
    b = random_tree(12, seed=5)
    assert a == b and is_tree(a)
    assert random_tree(12, seed=6) != a


def test_random_graph_seeded():
    g1 = random_graph(8, 0.5, seed=1)
    g2 = random_graph(8, 0.5, seed=1)
    assert g1 == g2
    assert g1.edges <= complete_graph(8).edges


def test_random_graph_edge_probability():
    # draws for p in [0, 1] are pinned; p outside it is an input error
    assert sorted(random_graph(6, 0.3, seed=4).edges) == [
        (0, 1), (0, 2), (0, 4), (0, 5), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)
    ]
    assert not random_graph(5, 0).edges
    assert random_graph(5, 1) == complete_graph(5)
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(InputError):
            random_graph(4, p)


def test_tree_certificate_invariant_under_relabeling():
    g = random_tree(9, seed=2)
    perm = [3, 1, 4, 0, 8, 7, 2, 6, 5]
    relabeled = Graph.from_edges(9, [(perm[u], perm[v]) for u, v in g.edges])
    interned = {}
    assert certificate(g, interned) == certificate(relabeled, interned)
