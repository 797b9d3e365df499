"""Instance generators: named families, random instances, free trees, and
``tree_key``, the canonical form of labelled trees: the centre-rooted AHU
code (Aho, Hopcroft and Ullman, *The Design and Analysis of Computer
Algorithms*, 1974) over ints from an intern table the caller passes, so a
key is comparable only with keys made with the same table.

Free trees are enumerated by generating canonical level sequences of rooted
trees (the Beyer-Hedetniemi successor walk) and deduplicating by
``tree_key`` with one constant label, so every isomorphism class appears
exactly once.  All randomized generators are deterministic for a fixed
seed.  ``KINDS`` names the instance kinds that ``generate`` builds and the
command line offers.
"""

from __future__ import annotations

import random

from .core import Graph, InputError

FREE_TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551,
                    13: 1301, 14: 3159, 15: 7741, 16: 19320}


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
    if not 0 <= p <= 1:
        raise InputError(f"the edge probability must lie in [0, 1], got {p}")
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


def _rooted_code(labels, adj, root: int, blocked: int, interned: dict) -> int:
    """The interned AHU code of the tree hanging from ``root`` away from
    ``blocked``: a node's code is that of its label and its children's
    codes in sorted order."""
    parent = [-1] * len(labels)
    parent[root] = blocked
    order = [root]
    for v in order:  # breadth first; the list grows as it is read
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    kids: list[list[int]] = [[] for _ in labels]
    for v in reversed(order):
        shape = (labels[v], tuple(sorted(kids[v])))
        code = interned.get(shape)
        if code is None:
            code = interned[shape] = len(interned)
        if v != root:
            kids[parent[v]].append(code)
    return code


def tree_key(labels, edges, interned: dict) -> int | tuple[int, int]:
    """Canonical form of a labelled tree on the nodes 0..len(labels) - 1,
    equal for two trees keyed with one ``interned`` table exactly when a
    label-preserving isomorphism maps one onto the other: the code of the
    tree rooted at its centre, or the sorted codes of the two halves when
    it has two centres.  ``interned`` maps (label, sorted child codes) to
    a code and grows with every rooted subtree not seen before."""
    adj: list[list[int]] = [[] for _ in labels]
    for x, y in edges:
        adj[x].append(y)
        adj[y].append(x)
    degree = [len(a) for a in adj]
    layer = [v for v, d in enumerate(degree) if d <= 1]
    left = len(labels)
    while left > 2:  # peel the leaves until the centre is left
        left -= len(layer)
        peeled = []
        for v in layer:
            for u in adj[v]:
                degree[u] -= 1
                if degree[u] == 1:
                    peeled.append(u)
        layer = peeled
    if len(layer) == 1:
        return _rooted_code(labels, adj, layer[0], -1, interned)
    a, b = layer
    ca, cb = _rooted_code(labels, adj, a, b, interned), _rooted_code(labels, adj, b, a, interned)
    return (ca, cb) if ca <= cb else (cb, ca)


def free_trees(n: int):
    """Yield one representative per isomorphism class of trees on n vertices:
    the first level sequence of each class, in the walk's order."""
    if n < 1:
        raise InputError(f"free trees need n >= 1, got {n}")
    labels = (0,) * n
    interned: dict = {}  # a fresh table: no other caller can renumber its codes
    seen = set()
    for levels in _rooted_level_sequences(n):
        last = [0] * n  # last[d]: the latest vertex at depth d, the parent of the next at d + 1
        edges = []
        for v, d in enumerate(levels):
            if d:
                edges.append((last[d - 1], v))
            last[d] = v
        key = tree_key(labels, edges, interned)
        if key not in seen:
            seen.add(key)
            yield Graph.from_edges(n, edges)


def _minedge_graph(n: int, seed: int, p: float) -> Graph:
    from .constructions import build_minedge_graph

    return build_minedge_graph(n).graph


KINDS = {  # each instance kind's builder, called as builder(n, seed, p)
    "path": lambda n, seed, p: path_graph(n),
    "star": lambda n, seed, p: star_graph(n),
    "complete": lambda n, seed, p: complete_graph(n),
    "free-trees": lambda n, seed, p: free_trees(n),
    "random-tree": lambda n, seed, p: random_tree(n, seed),
    "random-graph": lambda n, seed, p: random_graph(n, p, seed),
    "minedge": _minedge_graph,
}


def generate(kind: str, n: int, seed: int = 0, p: float = 0.5):
    """The instance of a kind in ``KINDS``: a Graph, or an iterator of
    Graphs for free-trees."""
    if kind not in KINDS:
        raise InputError(f"unknown instance kind: {kind}")
    return KINDS[kind](n, seed, p)
