"""Instance generators: named families, random instances, free trees.

Free trees are enumerated by generating canonical level sequences of rooted
trees (the Beyer-Hedetniemi successor walk) and deduplicating by a
centroid-rooted canonical form, so every isomorphism class appears exactly
once.  All randomized generators are deterministic for a fixed seed.
"""

from __future__ import annotations

import random

from .core import Graph, InputError

FREE_TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """Star with center 0 and n-1 leaves."""
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def is_path_in_order(graph: Graph) -> bool:
    """True when the edge set is exactly 0-1-2-...-(n-1)."""
    expected = frozenset((i, i + 1) for i in range(graph.n - 1))
    return graph.edges == expected


def is_tree(graph: Graph) -> bool:
    return len(graph.edges) == graph.n - 1 and len(graph.components()) == 1


def tree_from_pruefer(seq: list[int], n: int) -> Graph:
    if n == 1:
        return Graph.from_edges(1, [])
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph.from_edges(n, edges)


def random_tree(n: int, seed: int = 0) -> Graph:
    rng = random.Random(seed)
    if n <= 2:
        return path_graph(n)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return tree_from_pruefer(seq, n)


def random_graph(n: int, p: float, seed: int = 0) -> Graph:
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def _rooted_level_sequences(n: int):
    """All canonical level sequences of rooted trees on n vertices."""
    if n == 1:
        yield [0]
        return
    seq = list(range(n))
    while True:
        yield list(seq)
        p = max((i for i in range(n) if seq[i] > 1), default=None)
        if p is None:
            return
        q = max(i for i in range(p) if seq[i] == seq[p] - 1)
        for i in range(p, n):
            seq[i] = seq[i - (p - q)]


def _graph_from_levels(levels: list[int]) -> Graph:
    n = len(levels)
    parent_at_level: dict[int, int] = {}
    edges = []
    for v, lv in enumerate(levels):
        parent_at_level[lv] = v
        if lv > 0:
            edges.append((parent_at_level[lv - 1], v))
    return Graph.from_edges(n, edges)


def rooted_order(graph: Graph) -> tuple[list[int], list[int]]:
    """Depth-first preorder of the vertices reachable from vertex 0, and
    each vertex's parent in that search (-1 for the root and unreached
    vertices)."""
    adj = graph.adjacency
    parent = [-1] * graph.n
    seen = [False] * graph.n
    seen[0] = True
    order = []
    stack = [0]
    while stack:
        x = stack.pop()
        order.append(x)
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                parent[y] = x
                stack.append(y)
    return order, parent


def _centroids(graph: Graph) -> list[int]:
    n = graph.n
    if n == 1:
        return [0]
    adj = graph.adjacency
    size = [1] * n
    order, parent = rooted_order(graph)
    for x in reversed(order):
        if parent[x] >= 0:
            size[parent[x]] += size[x]
    best, cents = n, []
    for v in range(n):
        heaviest = n - size[v]
        for y in adj[v]:
            if parent[y] == v:
                heaviest = max(heaviest, size[y])
        if heaviest < best:
            best, cents = heaviest, [v]
        elif heaviest == best:
            cents.append(v)
    return cents


def _ahu_code(graph: Graph, root: int, blocked: int = -1) -> tuple:
    adj = graph.adjacency
    def rec(v: int, parent: int) -> tuple:
        subs = sorted(rec(y, v) for y in adj[v] if y != parent and y != blocked)
        return tuple(subs)
    return rec(root, -1)


def tree_certificate(graph: Graph) -> tuple:
    """Canonical form of a free tree (equal iff isomorphic)."""
    cents = _centroids(graph)
    if len(cents) == 1:
        return ("c", _ahu_code(graph, cents[0]))
    a, b = cents
    code_a = _ahu_code(graph, a, blocked=b)
    code_b = _ahu_code(graph, b, blocked=a)
    return ("bc",) + tuple(sorted((code_a, code_b)))


def free_trees(n: int):
    """Yield one representative per isomorphism class of trees on n vertices."""
    if n < 1:
        raise InputError(f"free trees need n >= 1, got {n}")
    seen = set()
    for levels in _rooted_level_sequences(n):
        g = _graph_from_levels(levels)
        cert = tree_certificate(g)
        if cert not in seen:
            seen.add(cert)
            yield g


def generate(kind: str, n: int, seed: int = 0, p: float = 0.5):
    """Dispatch used by the CLI; returns a Graph or an iterator of Graphs."""
    from .constructions import build_minedge_graph

    if kind == "path":
        return path_graph(n)
    if kind == "star":
        return star_graph(n)
    if kind == "complete":
        return complete_graph(n)
    if kind == "free-trees":
        return free_trees(n)
    if kind == "random-tree":
        return random_tree(n, seed)
    if kind == "random-graph":
        return random_graph(n, p, seed)
    if kind == "minedge":
        return build_minedge_graph(n).graph
    raise ValueError(f"unknown instance kind: {kind}")
