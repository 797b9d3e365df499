"""Constructive adversary strategies and tree decompositions.

Every adversary implements ``choose_merge(view, edge) -> int``: given a
state snapshot and a cross-component query it returns the weight of the
merged component, which must be the sum or the absolute difference of the
endpoint component weights.  ``core.require_merge`` is the one check of
that rule; it raises ``StrategyError``, as does ``OddpathAdversary`` when
its discipline breaks.  ``graphsolver.play`` translates the chosen weight
into SAME/DIFF for the concrete splits.

An adversary may also opt in to the label protocol with two methods.
``component_label(mask, weight)`` returns a hashable label of a component
whose first entry is its weight, and the static or bound
``merge_labels(a, b, full)`` returns the label of the union of two
adjacent components from theirs alone, ``full`` saying whether the union
is the whole graph.  The label must be closed under merges:
``component_label(mask_a | mask_b, w)`` equals ``merge_labels(a, b, full)``
when w is the weight ``choose_merge`` picks, and ``choose_merge`` returns
``merge_labels(...)[0]``.  Then the adversary's play on a tree depends only
on the labelled quotient tree.  ``graphsolver`` picks the walk for both
fixed-adversary jobs, ``forced_queries`` and ``all_orders_hold``: labelled
quotient trees on a tree, with one memo per merge rule shared by every
tree, and the levels of packed states elsewhere.
``verify_treelemma_all_orders`` is ``all_orders_hold`` with the
discipline written as one predicate on a component's label.
``TreelemmaAdversary`` opts in; the colouring, covering and exact-minimax
adversaries read masks or the whole weight multiset, and do not.

The covering-set adversaries (star covers, odd paths, general odd trees)
follow a weight-discipline phase and, once the total weight falls to their
switch threshold, hand over to exact minimax on the residual weight
vector.  The endgame guarantee usually argued by counting is
non-constructive; exact minimax is a sound stand-in at desk scale and
never weaker on instances it can evaluate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import weighted
from .core import BLUE, RED, GameError, Graph, InputError, QueryState, StrategyError, merge_weights
from .core import parse_coloring, require_merge
from .generators import is_path_in_order, is_tree, rooted_order
from .graphsolver import Game, GameView, all_orders_hold


class ExactWeightedAdversary:
    """Answers by exact minimax over the weight multiset; the universal
    endgame of the covering-set adversaries."""

    def choose_merge(self, view: GameView, edge) -> int:
        u, v = edge
        wx = view.weights[view.comp_of(u)]
        wy = view.weights[view.comp_of(v)]
        return weighted.adversarial_merge_weight(view.weights, wx, wy)


class AlwaysSameAdversary:
    """Degenerate baseline: weights always add."""

    def choose_merge(self, view: GameView, edge) -> int:
        u, v = edge
        return view.weights[view.comp_of(u)] + view.weights[view.comp_of(v)]


class ColoringAdversary:
    """Answers according to a coloring fixed in advance.  Only valid in
    games it answers from the start (its merge weights are the coloring's
    class differences)."""

    def __init__(self, coloring: str):
        self.coloring = parse_coloring(coloring)
        self.signs = tuple(1 if ch == RED else -1 for ch in self.coloring)

    def _csum(self, mask: int) -> int:
        s = 0
        while mask:
            v = (mask & -mask).bit_length() - 1
            s += self.signs[v]
            mask &= mask - 1
        return s

    def choose_merge(self, view: GameView, edge) -> int:
        u, v = edge
        mx = view.masks[view.comp_of(u)]
        my = view.masks[view.comp_of(v)]
        target = abs(self._csum(mx) + self._csum(my))
        wx = view.weights[view.comp_of(u)]
        wy = view.weights[view.comp_of(v)]
        return require_merge(target, wx, wy)


def eventrees_coloring(tree: Graph) -> str:
    """A balanced coloring of an even tree in which every edge cuts the
    tree into two unbalanced halves.

    Starts from an arbitrary balanced coloring and repeatedly repairs a
    balanced-cutting edge; each repair strictly lowers the number of such
    edges, so the loop terminates.  The side of edge (u, v) that holds u is
    a subtree of one ``rooted_order`` pass, or its complement, and the red
    vertices are one mask.
    """
    n = tree.n
    if n % 2 != 0:
        raise InputError("the construction needs an even number of vertices")
    if not is_tree(tree):
        raise InputError("input must be a tree")
    order, parent = rooted_order(tree)
    below = [1 << x for x in range(n)]  # each vertex's subtree
    for x in reversed(order[1:]):
        below[parent[x]] |= below[x]
    full = (1 << n) - 1
    sides = [below[u] if parent[u] == v else full ^ below[v] for u, v in tree.sorted_edges]
    red = (1 << n // 2) - 1

    def balanced_cut(side: int) -> bool:
        return 2 * (red & side).bit_count() == side.bit_count()

    for _ in range(n * n):
        bad = next((e for e, side in enumerate(sides) if balanced_cut(side)), None)
        if bad is None:
            break
        u, v = tree.sorted_edges[bad]
        if (red >> u ^ red >> v) & 1 == 0:  # one colour: flip u's side
            red ^= sides[bad]
        red ^= 1 << u | 1 << v  # swap the two endpoints' colours, which differ
    else:  # pragma: no cover
        raise AssertionError("balanced-cut repair failed to terminate")

    assert 2 * red.bit_count() == n
    assert not any(map(balanced_cut, sides))
    return "".join(RED if red >> x & 1 else BLUE for x in range(n))


def _odd_degree_mask(edges) -> int:
    """The vertices of odd degree in an edge list, as a bitmask."""
    m = 0
    for u, v in edges:
        m ^= (1 << u) ^ (1 << v)
    return m


def _boundary_parity(mask: int, odd_degree_mask: int) -> int:
    """Parity of the number of edges leaving the vertex set ``mask``.  Its
    degree sum counts every inner edge twice and every leaving edge once,
    so the parity is that of its odd-degree vertices."""
    return (mask & odd_degree_mask).bit_count() & 1


def _treelemma_target(sx: int, sy: int, wx: int, wy: int, delta_union: int, full: bool) -> int:
    if (sx + sy) % 2 == 1:
        target = 1
    else:
        target = 2 * delta_union
    if full:
        # no proper-subset condition applies; do not gift a terminal state
        candidates = merge_weights(wx, wy)
        return next((w for w in (target, *candidates) if w in candidates and w != 0), target)
    return require_merge(target, wx, wy)


class TreelemmaAdversary:
    """Keeps every proper q-component X at weight <= 2, with w(X) = 1 for
    odd |X| and w(X) = 2*(boundary-edge parity) for even |X|.

    Follows the label protocol: its answer reads only the two components'
    labels and whether their union is the whole graph."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.full_mask = (1 << graph.n) - 1
        self.odd_degree_mask = _odd_degree_mask(graph.edges)

    def component_label(self, mask: int, weight: int) -> tuple[int, int, int]:
        """(weight, size parity, odd-degree parity) of a component; the
        odd-degree parity is that of its boundary edges."""
        return weight, mask.bit_count() & 1, _boundary_parity(mask, self.odd_degree_mask)

    @staticmethod
    def merge_labels(a: tuple[int, int, int], b: tuple[int, int, int], full: bool) -> tuple[int, int, int]:
        """The label of the union of two adjacent components: the weight the
        discipline picks, and the parities, which add over disjoint sets."""
        (wa, sa, da), (wb, sb, db) = a, b
        return _treelemma_target(sa, sb, wa, wb, da ^ db, full), sa ^ sb, da ^ db

    def choose_merge(self, view: GameView, edge) -> int:
        u, v = edge
        i, j = view.comp_of(u), view.comp_of(v)
        mi, mj = view.masks[i], view.masks[j]
        return self.merge_labels(
            self.component_label(mi, view.weights[i]),
            self.component_label(mj, view.weights[j]),
            mi | mj == self.full_mask,
        )[0]


def _meets_discipline(label: tuple[int, int, int]) -> bool:
    """The weight discipline on a proper component's tree-lemma label:
    weight 1 on an odd size, 2 * (boundary-edge parity) on an even one, so
    never outside [0, 2]."""
    w, odd, delta = label
    return w == (1 if odd else 2 * delta)


def centroid_decomposition(tree: Graph, p: int) -> frozenset[int]:
    """A vertex set U of at most 2n/p vertices whose removal leaves tree
    pieces with at most p edges each, counting their edges into U.

    Depth-first accumulation: a vertex is cut when the pending edge load of
    its piece (children loads plus the edge to its parent) would exceed p.
    """
    if p < 1:
        raise InputError("p must be positive")
    if not is_tree(tree):
        raise InputError("centroid decomposition expects a tree")
    n = tree.n
    if n <= 1:
        return frozenset()
    adj = tree.adjacency
    order, parent = rooted_order(tree)
    pending = [0] * n
    cut: set[int] = set()
    for x in reversed(order):
        load = sum(pending[c] for c in adj[x] if parent[c] == x)
        if parent[x] < 0:
            if load > p:
                cut.add(x)
        elif 1 + load > p:
            cut.add(x)
            pending[x] = 1
        else:
            pending[x] = 1 + load
    u = frozenset(cut)
    assert len(u) <= 2 * n / p
    return u


def _mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class _CoveringAdversary:
    """A covering-set adversary: its own weight discipline while the total
    weight is above ``switch_total``, exact minimax on the weights after."""

    switch_total: int
    endgame = ExactWeightedAdversary()

    def discipline_active(self, view: GameView) -> bool:
        return view.total > self.switch_total

    def choose_merge(self, view: GameView, edge) -> int:
        if not self.discipline_active(view):
            return self.endgame.choose_merge(view, edge)
        return self._discipline_merge(view, edge)


class Lefogo1Adversary(_CoveringAdversary):
    """Covering-set adversary for graphs whose edges all touch a small set
    U.  First-touch discipline: a fresh outside vertex joining a component
    of weight >= 2 lowers it by one, otherwise weights add; switches to
    exact minimax when the total weight reaches the power-of-two mark."""

    def __init__(self, graph: Graph, cover: frozenset[int] | set[int]):
        self.graph = graph
        self.cover = frozenset(cover)
        n = graph.n
        k = n.bit_length() - 1
        if k < 2 or len(self.cover) > 2 ** (k - 2):
            raise InputError("cover too large: need |U| <= 2^(k-2) where 2^k <= n")
        for u, v in graph.edges:
            if u not in self.cover and v not in self.cover:
                raise InputError(f"edge ({u},{v}) misses the cover")
        self.cover_mask = _mask_of(self.cover)
        self.switch_total = 2 ** k + (n % 2)
        self.max_drop = 2

    def _discipline_merge(self, view: GameView, edge) -> int:
        u, v = edge
        i, j = view.comp_of(u), view.comp_of(v)
        wi, wj = view.weights[i], view.weights[j]
        # a fresh singleton weighs 1, so two fresh endpoints fall through
        for vert, idx, other in ((u, i, wj), (v, j, wi)):
            if vert not in self.cover and view.size(idx) == 1 and other >= 2:
                return other - 1
        return wi + wj


class OddpathAdversary(_CoveringAdversary):
    """Stride-cover adversary for odd paths: off-cover components stay at
    weight <= 1, cover components in [1, 2], endgame at 2^floor(log n)+1."""

    def __init__(self, graph: Graph, stride: int = 9):
        if stride not in (8, 9):
            raise InputError("stride must be 8 or 9")
        if not is_path_in_order(graph):
            raise InputError("expects the path 0-1-...-(n-1)")
        n = graph.n
        if n % 2 == 0:
            raise InputError("odd path adversary needs odd n")
        self.graph = graph
        self.stride = stride
        cover = set(range(1, n, stride))
        if n >= 2:
            cover.add(n - 2)
        self.cover = frozenset(x for x in cover if 0 <= x < n)
        self.cover_mask = _mask_of(self.cover)
        self.switch_total = 2 ** (n.bit_length() - 1) + 1
        self.max_drop = 4

    def _discipline_merge(self, view: GameView, edge) -> int:
        u, v = edge
        i, j = view.comp_of(u), view.comp_of(v)
        wi, wj = view.weights[i], view.weights[j]
        s, d = merge_weights(wi, wj)
        if not ((view.masks[i] | view.masks[j]) & self.cover_mask):
            return s if s <= 1 else d
        legal = [w for w in (d, s) if w >= 1]
        if not legal:  # both components balanced; cannot happen on-cover
            raise StrategyError("cover component reached weight 0")
        in_band = [w for w in legal if w <= 2]
        return in_band[0] if in_band else legal[0]


@dataclass(frozen=True)
class HangingPart:
    mask: int
    root: int | None
    augmented: bool
    odd_degree_mask: int  # in the part's edges and the imaginary pendant


class Lefogo2Adversary(_CoveringAdversary):
    """General odd-tree adversary: centroid cover, connecting/hanging
    decomposition of the residual pieces, per-part weight discipline with
    an imaginary degree-one vertex on even hanging parts, and exact-minimax
    endgame at total weight 2^k+3 (or 2^k+1)."""

    def __init__(self, tree: Graph, p: int = 32):
        if not is_tree(tree):
            raise InputError("expects a tree")
        if tree.n % 2 == 0:
            raise InputError("even trees are handled by the plain weight discipline")
        self.graph = tree
        self.p = p
        self.cover = centroid_decomposition(tree, p)
        self.cover_mask = _mask_of(self.cover)
        k = tree.n.bit_length() - 1
        self.switch_total = 2 ** k + 3
        self.max_drop = 4
        self.connecting_mask, self.parts = self._decompose()

    def _decompose(self) -> tuple[int, tuple[HangingPart, ...]]:
        tree, cover = self.graph, self.cover
        n = tree.n
        adj = tree.adjacency
        order, parent = rooted_order(tree)
        sub_u = [0] * n
        for x in reversed(order):
            sub_u[x] = (1 if x in cover else 0) + sum(
                sub_u[c] for c in adj[x] if parent[c] == x
            )
        total_u = len(cover)
        connecting = set()
        for x in range(n):
            if x in cover:
                continue
            dirs = sum(1 for c in adj[x] if parent[c] == x and sub_u[c] > 0)
            if total_u - sub_u[x] > 0:
                dirs += 1
            if dirs >= 2:
                connecting.add(x)
        blocked = cover | connecting
        free = Graph.from_edges(n, [e for e in tree.edges if not blocked.intersection(e)])
        parts = []
        for comp in free.components():  # by least vertex
            if comp & blocked:  # a blocked vertex, alone
                continue
            boundary = sorted(x for x in comp if any(y in blocked for y in adj[x]))
            part_root = boundary[0] if boundary else None
            augmented = len(comp) % 2 == 0
            odd = _odd_degree_mask(e for e in free.edges if e[0] in comp)
            if augmented:
                odd ^= 1 << part_root  # the imaginary pendant vertex hangs there
            parts.append(HangingPart(_mask_of(comp), part_root, augmented, odd))
        return _mask_of(connecting), tuple(parts)

    def _discipline_merge(self, view: GameView, edge) -> int:
        u, v = edge
        i, j = view.comp_of(u), view.comp_of(v)
        wi, wj = view.weights[i], view.weights[j]
        mi, mj = view.masks[i], view.masks[j]
        ti, tj = mi & self.cover_mask, mj & self.cover_mask
        if ti and tj:
            return wi + wj
        if ti or tj:
            w_cov, w_out = (wi, wj) if ti else (wj, wi)
            if w_cov >= 3:
                return abs(w_cov - w_out)
            return wi + wj
        union = mi | mj
        for part in self.parts:
            if union & ~part.mask == 0:
                return _treelemma_target(
                    view.size(i),
                    view.size(j),
                    wi,
                    wj,
                    _boundary_parity(union, part.odd_degree_mask),
                    False,  # the augmented pendant keeps every subset proper
                )
        s, d = merge_weights(wi, wj)
        return s if s <= 2 else d


# -- queriers for playback ----------------------------------------------


def random_querier(seed: int = 0):
    rng = random.Random(seed)

    def pick(state: QueryState):
        owner = state.owner
        options = [e for e in state.graph.sorted_edges if owner[e[0]] != owner[e[1]]]
        return rng.choice(options)

    return pick


def spanning_querier(graph: Graph):
    """Asks a fixed breadth-first spanning forest in order."""
    order = []
    seen = [False] * graph.n
    for s in range(graph.n):
        if seen[s]:
            continue
        seen[s] = True
        queue = [s]
        while queue:
            x = queue.pop(0)
            for y in graph.adjacency[x]:
                if not seen[y]:
                    seen[y] = True
                    order.append((x, y) if x < y else (y, x))
                    queue.append(y)

    def pick(state: QueryState):
        for e in order:
            if e not in state.queried:
                return e
        raise GameError("spanning order exhausted before the game ended")

    return pick


# -- instrumented playback ------------------------------------------------


@dataclass
class PlaybackReport:
    transcript_length: int
    violations: list[str]
    switch_seen_at: int | None
    transcript: object = None  # graphsolver.Transcript


def covering_playback(graph: Graph, adversary, querier) -> PlaybackReport:
    """Play a full game and check the covering-adversary invariants: the
    total weight never increases (and drops by at most the adversary's cap
    during the discipline phase), and no cover-touching component is
    balanced before the endgame."""
    game = Game(graph, adversary)
    violations: list[str] = []
    switch_at = None
    while game.outcome() is None:
        view = game.view
        disciplined = adversary.discipline_active(view)
        game.ask(*querier(game.state))
        new_view = game.view
        moves = len(game.moves)
        if new_view.total > view.total:
            violations.append(f"move {moves}: total weight increased")
        if disciplined and view.total - new_view.total > adversary.max_drop:
            violations.append(f"move {moves}: total dropped by more than {adversary.max_drop}")
        if disciplined:
            for idx, mask in enumerate(new_view.masks):
                if mask & adversary.cover_mask and new_view.weights[idx] == 0:
                    violations.append(f"move {moves}: cover component balanced before endgame")
        if switch_at is None and not adversary.discipline_active(new_view):
            switch_at = new_view.total
    return PlaybackReport(len(game.moves), violations, switch_at, game.transcript())


def verify_treelemma_all_orders(graph: Graph) -> bool:
    """Exhaustively walk every query order against the weight-discipline
    adversary and check its conditions in every reached state.

    The walk goes on past terminal states, whose proper components the
    conditions still cover.  ``graphsolver.all_orders_hold`` picks the
    walk: labelled quotient trees on a tree, each checked once per process
    (until ``clear_quotient_cache()``), and packed states level by level on
    any other graph.
    """
    return all_orders_hold(graph, TreelemmaAdversary(graph), _meets_discipline)
