"""Non-deterministic (verification) complexity.

Here the coloring is claimed in advance by an unreliable source and the
querier only has to verify the answer: choose a cheapest query set whose
coloring-induced state already pins the outcome down.  ``cert`` finds a
minimum certificate by brute force, testing each edge subset by its
components' signed sums alone.  A superset of a certificate is a
certificate, and every spanning forest certifies a solvable graph, so
``cert`` walks the sizes down from a spanning forest's, n - #components,
keeps the first certificate of each size, and stops at the first size
with none: only the size just below the minimum is searched in full.
``tree_cert`` finds the same certificate on any tree by a dynamic program
over subtrees; ``min_cert`` picks between the two, and ``path_cert`` is
the program on a path.  ``nondet_query_set`` builds the explicit
near-optimal certificates for odd paths.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core import (
    BLUE,
    Edge,
    Graph,
    InputError,
    Outcome,
    RED,
    coloring_outcome,
    parse_coloring,
    settled,
)
from .generators import is_tree, path_graph, rooted_order
from .graphsolver import check_solvable

MAX_CERT_EDGES = 24  # cert tries up to 2**24 edge subsets
MAX_MND_N = 16  # m_nd runs a certificate search for each of 2**(n-1) colorings


@dataclass(frozen=True)
class CertReport:
    coloring: str
    query_set: frozenset[Edge]
    outcome: Outcome
    size: int

    def to_json(self) -> dict:
        return {
            "coloring": self.coloring,
            "query_set": sorted(self.query_set),
            "outcome": str(self.outcome),
            "size": self.size,
        }


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _merge(signs: list[int], query_set) -> tuple[list[int], list[int]]:
    """Union-find over the answered queries.  Returns (parent, sums):
    `_find(parent, v)` is the root of v's component, each root holds its
    component's signed sum (+1 per red vertex, -1 per blue one) and every
    other vertex holds 0.  `cert` calls this for every edge subset it
    tries, so `_find` is inlined here."""
    parent = list(range(len(signs)))
    sums = signs[:]
    for u, v in query_set:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            sums[v] += sums[u]
            sums[u] = 0
    return parent, sums


def _signs(coloring: str) -> list[int]:
    return [1 if ch == RED else -1 for ch in coloring]


def induced_outcome(graph: Graph, coloring: str, query_set) -> Outcome | None:
    """Terminal outcome of the state obtained by answering `query_set`
    according to `coloring`, or None if that state is not terminal."""
    return _outcome(coloring[: graph.n], query_set)


def _outcome(coloring: str, query_set) -> Outcome | None:
    """`induced_outcome` on the graph whose vertices are the coloring's."""
    parent, sums = _merge(_signs(coloring), query_set)
    weights = list(map(abs, sums))
    if not settled(weights):
        return None
    top = max(weights)
    if top == 0:
        return Outcome.no_majority()
    root = weights.index(top)
    want = RED if sums[root] > 0 else BLUE
    return Outcome.majority_vertex(
        next(v for v, ch in enumerate(coloring) if ch == want and _find(parent, v) == root))


def cert(graph: Graph, coloring: str) -> CertReport:
    """Minimum certificate by exhaustive search, walking the sizes down.

    Two facts make the walk sound.  A superset of a certificate is a
    certificate: merging two components never un-settles a state (balanced
    plus balanced stays balanced, a heavy part that absorbs another still
    outweighs the rest, and a merge of two other parts never raises their
    total weight).  And every spanning forest certifies a solvable graph:
    it leaves one part, or two parts with an odd total, whose weights
    differ.  So the walk starts at a spanning forest's size, n - #components
    (never above the edge count), takes the first settled subset of each
    size in `combinations` order, and stops at the first size that has
    none; only that size is searched in full.  The last subset found is
    the first minimum one in `combinations` order.  Each subset is tested
    by the signed sums of the components it induces.
    """
    coloring = parse_coloring(coloring, graph.n)
    check_solvable(graph)
    edges = graph.sorted_edges
    if len(edges) > MAX_CERT_EDGES:
        raise InputError(f"brute-force certificate limited to {MAX_CERT_EDGES} edges, "
                         f"got {len(edges)}")
    signs = _signs(coloring)
    best = None
    for size in range(graph.n - len(graph.components()), -1, -1):
        subset = next((qs for qs in itertools.combinations(edges, size)
                       if settled(list(map(abs, _merge(signs, qs)[1])))), None)
        if subset is None:
            break
        best = subset
    return CertReport(coloring, frozenset(best), _outcome(coloring, best), len(best))


def min_cert(graph: Graph, coloring: str) -> CertReport:
    """Minimum certificate: the dynamic program on a tree, brute force on
    any other graph.  Both give the same report."""
    return tree_cert(graph, coloring) if is_tree(graph) else cert(graph, coloring)


def colorings(n: int):
    """Every coloring of n >= 1 vertices up to a global flip, each with
    vertex 0 red; bit i of the counter colours vertex i + 1 red."""
    for bits in range(1 << (n - 1)):
        yield RED + "".join(RED if (bits >> i) & 1 else BLUE for i in range(n - 1))


def m_nd(graph: Graph) -> int:
    """Worst-case certificate size over all colorings (up to global flip)."""
    n = graph.n
    if n > MAX_MND_N:
        raise InputError(f"coloring enumeration limited to n <= {MAX_MND_N}, got n = {n}")
    check_solvable(graph)
    upper = n - len(graph.components())
    best = 0
    for coloring in colorings(n):
        size = min_cert(graph, coloring).size
        if size > best:
            best = size
            if best == upper:
                break
    return best


# -- exact certificates on trees -------------------------------------------


def tree_cert(graph: Graph, coloring: str) -> CertReport:
    """Minimum certificate on a tree by one dynamic program over subtrees;
    its report equals `cert`'s.

    On a tree the answered queries cut the vertices into parts, one more
    than the edges left unasked, so a minimum certificate cuts the most
    edges whose parts settle the outcome.  Orient the coloring so that its
    signed total T is >= 0 and let the parts have signed sums s_i.  A part
    h outweighs all the others (s_h > sum of |s_i| over i != h) exactly
    when 2 * sum{s_i > 0, i != h} s_i < T.  So the heavy part costs
    nothing, and only the positive sums of the other parts spend a budget
    of B = (T - 1) // 2.  When T = 0 no part is heavy and B = 0, which
    leaves every part balanced.

    Each vertex keeps a table keyed by (open part's sum, budget used,
    heavy part placed) over its subtree, and each child folds in by one
    of three moves: keep the edge, cut it as an ordinary part, or cut it
    as the heavy part.  A table value is parts * 2**E - cut mask, with
    the lowest edge in the highest of E bits, so the largest value has
    the most parts and, among those, leaves uncut the lowest edge where
    two candidates differ: the first minimum subset in `combinations`
    order, which is the one `cert` reports.
    """
    if not is_tree(graph):
        check_solvable(graph)  # a graph with no vertices is unsolvable, not malformed
        raise InputError("the certificate dynamic program needs a tree")
    return _tree_dp(parse_coloring(coloring, graph.n), graph.sorted_edges, *rooted_order(graph))


def _tree_dp(coloring: str, edges, order, parent) -> CertReport:
    """`tree_cert` on the tree with the sorted `edges`, given a preorder of
    its vertices from the root 0 and each vertex's parent in it."""
    signs = _signs(coloring)
    total = sum(signs)
    if total < 0:
        signs = [-s for s in signs]
        total = -total
    budget = max(total - 1, 0) // 2
    top = len(edges) - 1
    part = 1 << len(edges)
    index = {e: i for i, e in enumerate(edges)}
    tables = [{(s, 0, 0): 0} for s in signs]
    for x in reversed(order[1:]):
        y = parent[x]
        cut = part - (1 << (top - index[min(x, y), max(x, y)]))
        moves: dict = {}
        for (s, used, heavy), value in tables[x].items():
            options = [((s, used, heavy), value), ((0, used + max(s, 0), heavy), value + cut)]
            if total and not heavy:
                options.append(((0, used, 1), value + cut))
            for key, option in options:
                if key[1] <= budget and option > moves.get(key, -1):
                    moves[key] = option
        merged: dict = {}
        for (s, used, heavy), value in tables[y].items():
            for (s2, used2, heavy2), value2 in moves.items():
                key = (s + s2, used + used2, heavy | heavy2)
                if key[1] <= budget and not heavy & heavy2 and value + value2 > merged.get(key, -1):
                    merged[key] = value + value2
        tables[y] = merged
    # the root's open part closes as the heavy part if none is placed, else as an ordinary one
    best = max(value for (s, used, heavy), value in tables[0].items()
               if (total and not heavy) or used + max(s, 0) <= budget)
    cuts = -best % part
    query_set = frozenset(e for i, e in enumerate(edges) if not cuts >> (top - i) & 1)
    return CertReport(coloring, query_set, _outcome(coloring, query_set), len(query_set))


def path_cert(coloring: str) -> CertReport:
    """Minimum certificate on the path 0-1-...-(n-1), n = len(coloring).
    The dynamic program takes the path's edges and its preorder from
    vertex 0 as they are, so no graph is built."""
    coloring = parse_coloring(coloring)
    n = len(coloring)
    if not n:
        check_solvable(path_graph(0))  # raises: a graph with no vertices is unsolvable
    return _tree_dp(coloring, [(i - 1, i) for i in range(1, n)], range(n), range(-1, n - 1))


# -- explicit constructions on odd paths -----------------------------------


def nondet_hard_coloring(k: int) -> str:
    """The batch coloring of P_{k*k+1} needing about n-2k verification
    queries: k batches of k vertices, red exactly in odd batches, final
    vertex blue."""
    if k < 2 or k % 2 != 0:
        raise InputError("k must be even and at least 2")
    out = []
    for i in range(1, k + 1):
        out.append((RED if i % 2 == 1 else BLUE) * k)
    out.append(BLUE)
    return "".join(out)


def nondet_query_set(coloring: str) -> frozenset[Edge]:
    """A certifying query set of size n - Omega(sqrt(n)) on an odd path.

    Three cases: a large red/blue surplus d allows dropping ceil(d/2)-1
    trailing edges; otherwise either some prefix-difference value repeats
    often (pigeonhole) and each repeat donates a balanced interval, or the
    prefix difference has a high peak and the descent after it is split at
    unit drops.  The returned set is replay-validated before returning.
    """
    coloring = parse_coloring(coloring)
    n = len(coloring)
    if n % 2 == 0:
        raise InputError("construction defined for odd paths")
    if n == 1:
        return frozenset()
    signs = _signs(coloring)
    if sum(signs) < 0:
        signs = [-s for s in signs]
    cuts = _query_set_cuts(signs)
    query_set = frozenset((i - 1, i) for i in range(1, n) if i not in cuts)
    outcome = _outcome(coloring, query_set)
    assert outcome is not None, "constructed query set failed to certify"
    truth = coloring_outcome(coloring)
    assert (outcome.majority is None) == (truth.majority is None)
    if outcome.majority is not None:
        assert coloring[outcome.majority] == coloring[truth.majority]
    return query_set


def _query_set_cuts(signs: list[int]) -> set[int]:
    """Cut positions (1-based, between vertex i-1 and i) for a positive-
    surplus sign vector on an odd path."""
    n = len(signs)
    d = sum(signs)
    assert d > 0
    if d * d >= n:
        q = n - math.ceil(d / 2)
        return set(range(q + 1, n))
    D = list(itertools.accumulate(signs, initial=0))
    delta = max(abs(x) for x in D[1:])
    j = next(i for i in range(1, n + 1) if abs(D[i]) == delta)
    if D[j] < 0:
        rev = _query_set_cuts(signs[::-1])
        return {n - c for c in rev}
    if delta * delta < 4 * n:
        freq: dict[int, int] = {}
        for i in range(1, n):
            freq[D[i]] = freq.get(D[i], 0) + 1
        v = min(freq, key=lambda x: (-freq[x], x))
        return {i for i in range(1, n) if D[i] == v}
    s = math.isqrt(n)
    cuts = {j}
    need = delta - 1
    i = j
    for _ in range(s):
        while D[i] != need:
            i += 1
            assert i <= n, "descent walk ran off the path"
        cuts.add(i)
        need -= 1
    assert all(1 <= c <= n - 1 for c in cuts)
    return cuts
