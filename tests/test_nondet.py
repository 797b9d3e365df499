"""Verification complexity: brute certificates, the tree DP, constructions."""

import itertools
import math
import random

import pytest

from majority_game.adversary import eventrees_coloring
from majority_game.constructions import build_minedge_graph
from majority_game.core import (
    BLUE,
    RED,
    Graph,
    InputError,
    Outcome,
    UnsolvableGraphError,
    coloring_outcome,
    parse_coloring,
)
from majority_game.generators import (
    complete_graph,
    free_trees,
    path_graph,
    random_graph,
    star_graph,
)
from majority_game.graphsolver import solve_graph
from majority_game.nondet import (
    CertReport,
    _query_set_cuts,
    cert,
    colorings,
    induced_outcome,
    m_nd,
    nondet_hard_coloring,
    nondet_query_set,
    path_cert,
    tree_cert,
)


def test_colorings_cover_each_flip_class_once():
    flip = str.maketrans("RB", "BR")
    for n in range(1, 9):
        got = list(colorings(n))
        assert len(got) == 2 ** (n - 1) and all(c[0] == "R" for c in got)
        assert set(got) | {c.translate(flip) for c in got} == {"".join(c) for c in itertools.product("RB", repeat=n)}


def test_cert_examples():
    report = cert(path_graph(3), "RRB")
    assert report.size == 1
    assert report.outcome.majority is not None
    report = cert(path_graph(5), "RRBRR")
    assert report.size == 2


def test_single_edge_certificate_isolating_a_vertex():
    # asking only (1, 2) of RRB leaves components of weight (1, 0)
    out = induced_outcome(path_graph(3), "RRB", [(1, 2)])
    assert out is not None and out.majority == 0


def test_path_cert_matches_brute_force_small():
    for n in range(1, 10):
        g = path_graph(n)
        for bits in range(2 ** max(0, n - 1)):
            c = "R" + "".join("R" if (bits >> i) & 1 else "B" for i in range(n - 1))
            assert path_cert(c) == cert(g, c), c


def test_tree_cert_matches_brute_force_on_every_free_tree():
    # the whole report: size, outcome and the first minimum query set
    for n in range(1, 9):
        for tree in free_trees(n):
            for c in _colorings(n):
                assert tree_cert(tree, c) == cert(tree, c), (tree.sorted_edges, c)


def test_tree_cert_rejects_bad_input():
    with pytest.raises(UnsolvableGraphError):
        path_cert("")
    with pytest.raises(InputError):
        path_cert("RRX")
    with pytest.raises(InputError):
        tree_cert(Graph.from_edges(3, [(0, 1)]), "RRB")  # solvable, but a forest
    with pytest.raises(InputError):
        tree_cert(complete_graph(3), "RRB")


def test_path_cert_monochromatic():
    # a dominant prefix plus singleton remainders: floor(n/2) queries suffice
    for n in (3, 5, 8, 13):
        report = path_cert("R" * n)
        assert report.size == n - math.ceil(n / 2) == n // 2
        assert report.size == cert(path_graph(n), "R" * n).size if n <= 11 else True


def test_path_cert_alternating():
    report = path_cert("RBRBR")
    assert report.size == cert(path_graph(5), "RBRBR").size
    assert report.outcome.majority is not None


def test_path_cert_report_is_a_real_certificate():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 14)
        c = "".join(rng.choice("RB") for _ in range(n))
        report = path_cert(c)
        out = induced_outcome(path_graph(n), c, report.query_set)
        assert out is not None
        truth = coloring_outcome(c)
        assert (out.majority is None) == (truth.majority is None)


def test_mnd_examples():
    assert m_nd(path_graph(3)) == 1
    assert m_nd(path_graph(4)) == 3
    assert m_nd(path_graph(9)) == 5  # recorded exact value


def test_mnd_even_trees_via_witness_coloring():
    # m_nd(T) <= n-1 always (query everything); the balanced coloring with
    # unbalanced edge-cuts needs all n-1 queries, pinning m_nd(T) = n-1
    for n in (4, 6, 8, 10):
        for tree in free_trees(n):
            witness = eventrees_coloring(tree)
            assert cert(tree, witness).size == n - 1


def test_mnd_equals_full_enumeration_on_small_trees():
    for n in (4, 6):
        for tree in free_trees(n):
            assert m_nd(tree) == n - 1


def test_mnd_below_game_value():
    rng = random.Random(8)
    done = 0
    while done < 10:
        n = rng.randint(2, 8)
        g = random_graph(n, 0.6, seed=rng.randrange(10 ** 6))
        if not g.is_majority_solvable():
            continue
        done += 1
        assert m_nd(g) <= solve_graph(g).value


def test_hard_coloring_construction():
    assert nondet_hard_coloring(2) == "RRBBB"
    c = nondet_hard_coloring(4)
    assert len(c) == 17
    assert c == "RRRR" + "BBBB" + "RRRR" + "BBBB" + "B"
    assert path_cert(c).size >= 17 - 2 * 4 - 1
    with pytest.raises(ValueError):
        nondet_hard_coloring(3)


def test_query_set_large_surplus_rule():
    # d = n: the first n - ceil(n/2) edges certify
    for n in (5, 9, 13):
        qs = nondet_query_set("R" * n)
        assert len(qs) == n - math.ceil(n / 2)
        assert qs == frozenset((i, i + 1) for i in range(n - n // 2 - 1))


def test_query_set_certifies_random_colorings():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.choice(range(3, 102, 2))
        c = "".join(rng.choice("RB") for _ in range(n))
        qs = nondet_query_set(c)  # construction self-validates by replay
        assert len(qs) <= n - math.isqrt(n) / 5


def test_query_set_never_smaller_than_optimal():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.choice(range(3, 12, 2))
        c = "".join(rng.choice("RB") for _ in range(n))
        assert len(nondet_query_set(c)) >= path_cert(c).size


def test_query_set_rejects_even_paths():
    with pytest.raises(ValueError):
        nondet_query_set("RRBB")


def test_mnd_rejects_unsolvable_and_oversized():
    with pytest.raises(UnsolvableGraphError):
        m_nd(Graph.from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        cert(star_graph(26), "R" * 26)


# -- reference copies of the earlier brute force -----------------------------
# The union-find with a members dict that built an Outcome for every subset,
# before `cert` tested subsets by their components' signed sums.


def _ref_induced_outcome(graph, coloring, query_set):
    parent = list(range(graph.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in query_set:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    diff = {}
    members = {}
    for v in range(graph.n):
        r = find(v)
        diff[r] = diff.get(r, 0) + (1 if coloring[v] == RED else -1)
        members.setdefault(r, []).append(v)
    weights = {r: abs(s) for r, s in diff.items()}
    total = sum(weights.values())
    if total == 0:
        return Outcome.no_majority()
    top = max(weights, key=lambda r: (weights[r], -r))
    if weights[top] > total - weights[top]:
        want = RED if diff[top] > 0 else BLUE
        return Outcome.majority_vertex(min(v for v in members[top] if coloring[v] == want))
    return None


def _ref_cert(graph, coloring):
    coloring = parse_coloring(coloring, graph.n)
    edges = graph.sorted_edges
    for size in range(len(edges) + 1):
        for subset in itertools.combinations(edges, size):
            outcome = _ref_induced_outcome(graph, coloring, subset)
            if outcome is not None:
                return CertReport(coloring, frozenset(subset), outcome, size)
    raise AssertionError("querying every edge certifies any solvable graph")


def _colorings(n):
    """Every coloring with vertex 0 red."""
    for bits in range(2 ** (n - 1)):
        yield RED + "".join(RED if (bits >> i) & 1 else BLUE for i in range(n - 1))


def _differential_graphs():
    graphs = [t for n in range(1, 9) for t in free_trees(n)]
    graphs += [path_graph(n) for n in range(1, 10)]
    graphs += [complete_graph(4), Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])]
    # dense graphs, whose minimum lies far below m: the downward walk does the most work there
    graphs += [complete_graph(5), build_minedge_graph(6).graph]
    rng = random.Random(11)
    cyclic = []
    while len(cyclic) < 4:
        n = rng.randint(5, 7)
        g = random_graph(n, 0.5, seed=rng.randrange(10 ** 6))
        # a cycle makes some query join two vertices that already share a root
        if g.is_majority_solvable() and n <= len(g.edges) <= 10 and len(g.components()) == 1:
            cyclic.append(g)
    return graphs + cyclic


def test_cert_matches_the_earlier_brute_force():
    for g in _differential_graphs():
        for coloring in _colorings(g.n):
            assert cert(g, coloring) == _ref_cert(g, coloring), (g.sorted_edges, coloring)


def test_induced_outcome_matches_the_earlier_union_find():
    rng = random.Random(5)
    for g in _differential_graphs():
        edges = g.sorted_edges
        colorings = list(_colorings(g.n))
        for coloring in rng.sample(colorings, min(3, len(colorings))):
            for size in range(len(edges) + 1):
                for subset in itertools.combinations(edges, size):
                    assert induced_outcome(g, coloring, subset) == _ref_induced_outcome(
                        g, coloring, subset), (edges, coloring, subset)


def test_cert_plus_any_edge_still_certifies():
    # a superset of a certificate is a certificate, which `cert`'s downward walk relies on
    rng = random.Random(7)
    for g in _differential_graphs():
        colorings = list(_colorings(g.n))
        for coloring in rng.sample(colorings, min(4, len(colorings))):
            report = cert(g, coloring)
            for e in g.sorted_edges:
                if e in report.query_set:
                    continue
                out = induced_outcome(g, coloring, report.query_set | {e})
                assert out is not None, (g.sorted_edges, coloring, e)
                assert (out.majority is None) == (report.outcome.majority is None)
                if out.majority is not None:
                    assert coloring[out.majority] == coloring[report.outcome.majority]


# -- reference copy of the Graph-based query-set construction -----------------
# The path graph's sorted edges minus the cut edges, replayed on that graph.


def _ref_query_set(coloring):
    n = len(coloring)
    if n == 1:
        return frozenset()
    signs = [1 if ch == RED else -1 for ch in coloring]
    if sum(signs) < 0:
        signs = [-s for s in signs]
    cut_edges = {(c - 1, c) for c in _query_set_cuts(signs)}
    graph = path_graph(n)
    query_set = frozenset(e for e in graph.sorted_edges if e not in cut_edges)
    outcome = induced_outcome(graph, coloring, query_set)
    assert outcome is not None
    truth = coloring_outcome(coloring)
    assert (outcome.majority is None) == (truth.majority is None)
    if outcome.majority is not None:
        assert coloring[outcome.majority] == coloring[truth.majority]
    return query_set


def test_query_set_matches_the_graph_based_construction():
    colorings = ["".join(c) for n in range(1, 14, 2) for c in itertools.product("RB", repeat=n)]
    rng = random.Random(12)
    for _ in range(200):
        n = rng.choice(range(3, 202, 2))
        colorings.append("".join(rng.choice("RB") for _ in range(n)))
    for coloring in colorings:
        assert nondet_query_set(coloring) == _ref_query_set(coloring), coloring
