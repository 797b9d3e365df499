"""Non-deterministic (verification) complexity.

Here the coloring is claimed in advance by an unreliable source and the
querier only has to verify the answer: choose a cheapest query set whose
coloring-induced state already pins the outcome down.  ``cert`` finds a
minimum certificate by brute force: it tries the edge subsets in order of
size and tests each by its components' signed sums alone.  ``path_cert``
solves paths exactly by an interval dynamic program over prefix sums, and
``nondet_query_set`` builds the explicit near-optimal certificates for odd
paths.
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
)
from .generators import is_path_in_order, path_graph
from .graphsolver import check_solvable

NEG = -(10 ** 9)
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


def _settled(sums: list[int]) -> bool:
    """A state is terminal iff every component is balanced or one outweighs
    all the others together."""
    weights = list(map(abs, sums))
    total = sum(weights)
    return total == 0 or 2 * max(weights) > total


def _signs(coloring: str) -> list[int]:
    return [1 if ch == RED else -1 for ch in coloring]


def induced_outcome(graph: Graph, coloring: str, query_set) -> Outcome | None:
    """Terminal outcome of the state obtained by answering `query_set`
    according to `coloring`, or None if that state is not terminal."""
    parent, sums = _merge(_signs(coloring[: graph.n]), query_set)
    if not _settled(sums):
        return None
    weights = list(map(abs, sums))
    top = max(weights)
    if top == 0:
        return Outcome.no_majority()
    root = weights.index(top)
    want = RED if sums[root] > 0 else BLUE
    return Outcome.majority_vertex(
        next(v for v, ch in enumerate(coloring) if ch == want and _find(parent, v) == root))


def cert(graph: Graph, coloring: str) -> CertReport:
    """Minimum certificate by exhaustive search in order of size: each edge
    subset is tested by the signed sums of the components it induces."""
    check_solvable(graph)
    coloring = parse_coloring(coloring, graph.n)
    edges = graph.sorted_edges
    if len(edges) > MAX_CERT_EDGES:
        raise InputError(f"brute-force certificate limited to {MAX_CERT_EDGES} edges, "
                         f"got {len(edges)}")
    signs = _signs(coloring)
    for size in range(len(edges) + 1):
        for subset in itertools.combinations(edges, size):
            if _settled(_merge(signs, subset)[1]):
                outcome = induced_outcome(graph, coloring, subset)
                return CertReport(coloring, frozenset(subset), outcome, size)
    raise AssertionError("querying every edge certifies any solvable graph")


def m_nd(graph: Graph) -> int:
    """Worst-case certificate size over all colorings (up to global flip)."""
    check_solvable(graph)
    n = graph.n
    if n > MAX_MND_N:
        raise InputError(f"coloring enumeration limited to n <= {MAX_MND_N}, got n = {n}")
    use_path_dp = is_path_in_order(graph)
    upper = n - len(graph.components())
    best = 0
    for bits in range(2 ** (n - 1)):
        coloring = RED + "".join(RED if (bits >> i) & 1 else BLUE for i in range(n - 1))
        size = path_cert(coloring).size if use_path_dp else cert(graph, coloring).size
        if size > best:
            best = size
            if best == upper:
                break
    return best


# -- exact certificates on paths ------------------------------------------


def _partition_tables(D: list[int]) -> tuple[list[list[int]], list[list[int]]]:
    """pre[i][w] (suf[i][w]): most intervals a partition of the first i
    (last n-i) vertices can have with total interval weight at most w."""
    n = len(D) - 1
    pre = [[NEG] * (n + 1) for _ in range(n + 1)]
    pre[0] = [0] * (n + 1)
    for i in range(1, n + 1):
        row = pre[i]
        for j in range(i):
            cost = abs(D[i] - D[j])
            prev = pre[j]
            for w in range(cost, n + 1):
                cand = prev[w - cost]
                if cand != NEG and cand + 1 > row[w]:
                    row[w] = cand + 1
    suf = [[NEG] * (n + 1) for _ in range(n + 1)]
    suf[n] = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        row = suf[i]
        for j in range(i + 1, n + 1):
            cost = abs(D[j] - D[i])
            nxt = suf[j]
            for w in range(cost, n + 1):
                cand = nxt[w - cost]
                if cand != NEG and cand + 1 > row[w]:
                    row[w] = cand + 1
    return pre, suf


def _rebuild_prefix_cuts(D, pre, a: int, w: int) -> list[int]:
    cuts = []
    i = a
    while i > 0:
        for j in range(i):
            cost = abs(D[i] - D[j])
            if cost <= w and pre[j][w - cost] == pre[i][w] - 1:
                cuts.append(j)
                w -= cost
                i = j
                break
        else:  # pragma: no cover
            raise AssertionError("prefix reconstruction failed")
    return [c for c in cuts if c != 0]


def _rebuild_suffix_cuts(D, suf, b: int, w: int) -> list[int]:
    n = len(D) - 1
    cuts = []
    i = b
    while i < n:
        for j in range(i + 1, n + 1):
            cost = abs(D[j] - D[i])
            if cost <= w and suf[j][w - cost] == suf[i][w] - 1:
                cuts.append(j)
                w -= cost
                i = j
                break
        else:  # pragma: no cover
            raise AssertionError("suffix reconstruction failed")
    return [c for c in cuts if c != n]


def path_cert(coloring: str) -> CertReport:
    """Exact minimum certificate on a path, via interval partitions.

    A query set on a path is determined by its omitted (cut) edges; the
    state is terminal iff every interval is balanced or one interval
    outweighs the rest.  Maximizing the number of cuts is a dynamic
    program over prefix sums.
    """
    coloring = parse_coloring(coloring)
    n = len(coloring)
    graph = path_graph(n)
    if n == 1:
        return CertReport(coloring, frozenset(), coloring_outcome(coloring), 0)
    D = list(itertools.accumulate(_signs(coloring), initial=0))
    best_cuts: list[int] | None = None
    if D[n] == 0:
        best_cuts = [i for i in range(1, n) if D[i] == 0]
    pre, suf = _partition_tables(D)
    best_r = 1 + len(best_cuts) if best_cuts is not None else NEG
    best_dom = None
    for a in range(n):
        for b in range(a + 1, n + 1):
            w_dom = abs(D[b] - D[a])
            if w_dom == 0:
                continue
            budget = min(w_dom - 1, n)
            count = NEG
            arg = None
            for w1 in range(budget + 1):
                if pre[a][w1] == NEG or suf[b][budget - w1] == NEG:
                    continue
                c = pre[a][w1] + suf[b][budget - w1]
                if c > count:
                    count, arg = c, w1
            if count == NEG:
                continue
            r = count + 1
            if r > best_r:
                best_r = r
                best_dom = (a, b, arg)
    if best_dom is not None:
        a, b, w1 = best_dom
        budget = min(abs(D[b] - D[a]) - 1, n)
        cuts = _rebuild_prefix_cuts(D, pre, a, w1)
        cuts += [a] if a != 0 else []
        cuts += [b] if b != n else []
        cuts += _rebuild_suffix_cuts(D, suf, b, budget - w1)
        best_cuts = sorted(set(cuts))
    assert best_cuts is not None
    cut_edges = {(c - 1, c) for c in best_cuts}
    query_set = frozenset(e for e in graph.sorted_edges if e not in cut_edges)
    outcome = induced_outcome(graph, coloring, query_set)
    assert outcome is not None, "reconstructed cut set must certify"
    return CertReport(coloring, query_set, outcome, len(query_set))


# -- explicit constructions on odd paths -----------------------------------


def nondet_hard_coloring(k: int) -> str:
    """The batch coloring of P_{k*k+1} needing about n-2k verification
    queries: k batches of k vertices, red exactly in odd batches, final
    vertex blue."""
    if k < 2 or k % 2 != 0:
        raise ValueError("k must be even and at least 2")
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
        raise ValueError("construction defined for odd paths")
    if n == 1:
        return frozenset()
    signs = _signs(coloring)
    if sum(signs) < 0:
        signs = [-s for s in signs]
    cuts = _query_set_cuts(signs)
    cut_edges = {(c - 1, c) for c in cuts}
    graph = path_graph(n)
    query_set = frozenset(e for e in graph.sorted_edges if e not in cut_edges)
    outcome = induced_outcome(graph, coloring, query_set)
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
