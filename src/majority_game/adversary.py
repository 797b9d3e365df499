"""Constructive adversary strategies and tree decompositions.

Every adversary implements ``choose_merge(view, edge) -> int``: given a
state snapshot and a cross-component query it returns the weight of the
merged component, which must be the sum or the absolute difference of the
endpoint component weights.  ``graphsolver.play`` translates the chosen
weight into SAME/DIFF for the concrete splits.

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
from .core import BLUE, RED, GameError, Graph, QueryState, parse_coloring
from .generators import is_path_in_order, is_tree
from .graphsolver import Game, GameView, adversary_successors, root_codes


class AdversaryInvariantError(GameError):
    pass


def _merge_candidates(wx: int, wy: int) -> tuple[int, int]:
    return wx + wy, abs(wx - wy)


def _require_candidate(target: int, wx: int, wy: int) -> int:
    if target not in _merge_candidates(wx, wy):
        raise AdversaryInvariantError(
            f"no answer realizes merged weight {target} from ({wx}, {wy})"
        )
    return target


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
        return _require_candidate(target, wx, wy)


def eventrees_coloring(tree: Graph) -> str:
    """A balanced coloring of an even tree in which every edge cuts the
    tree into two unbalanced halves.

    Starts from an arbitrary balanced coloring and repeatedly repairs a
    balanced-cutting edge; each repair strictly lowers the number of such
    edges, so the loop terminates.
    """
    n = tree.n
    if n % 2 != 0:
        raise ValueError("the construction needs an even number of vertices")
    if not is_tree(tree):
        raise ValueError("input must be a tree")
    adj = tree.adjacency

    sides = {}
    for u, v in tree.sorted_edges:
        seen = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if (x, y) == (u, v):
                    continue
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        sides[(u, v)] = frozenset(seen)

    colors = [RED] * (n // 2) + [BLUE] * (n // 2)

    def balanced_cut(edge) -> bool:
        part = sides[edge]
        reds = sum(1 for x in part if colors[x] == RED)
        return 2 * reds == len(part)

    for _ in range(n * n):
        bad = next((e for e in tree.sorted_edges if balanced_cut(e)), None)
        if bad is None:
            break
        u, v = bad
        if colors[u] == colors[v]:
            for x in sides[bad]:
                colors[x] = RED if colors[x] == BLUE else BLUE
        colors[u], colors[v] = colors[v], colors[u]
    else:  # pragma: no cover
        raise AssertionError("balanced-cut repair failed to terminate")

    assert 2 * colors.count(RED) == n
    assert not any(balanced_cut(e) for e in tree.sorted_edges)
    return "".join(colors)


def _delta(graph: Graph, mask: int) -> int:
    """Parity of the number of graph edges leaving the vertex set."""
    cnt = 0
    for u, v in graph.sorted_edges:
        if ((mask >> u) & 1) != ((mask >> v) & 1):
            cnt += 1
    return cnt & 1


def _treelemma_target(sx: int, sy: int, wx: int, wy: int, delta_union: int, full: bool) -> int:
    if (sx + sy) % 2 == 1:
        target = 1
    else:
        target = 2 * delta_union
    if full:
        # no proper-subset condition applies; do not gift a terminal state
        for cand in (target, *(w for w in _merge_candidates(wx, wy) if w != target)):
            if cand in _merge_candidates(wx, wy) and cand != 0:
                return cand
        return target
    return _require_candidate(target, wx, wy)


class TreelemmaAdversary:
    """Keeps every proper q-component X at weight <= 2, with w(X) = 1 for
    odd |X| and w(X) = 2*(boundary-edge parity) for even |X|."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.full_mask = (1 << graph.n) - 1

    def choose_merge(self, view: GameView, edge) -> int:
        u, v = edge
        i, j = view.comp_of(u), view.comp_of(v)
        union = view.masks[i] | view.masks[j]
        return _treelemma_target(
            view.size(i),
            view.size(j),
            view.weights[i],
            view.weights[j],
            _delta(self.graph, union),
            union == self.full_mask,
        )


def check_treelemma_conditions(graph: Graph, view: GameView) -> list[str]:
    """Violations of the weight-discipline conditions on proper components."""
    full = (1 << graph.n) - 1
    out = []
    for i, mask in enumerate(view.masks):
        if mask == full:
            continue
        w, size = view.weights[i], view.size(i)
        if not 0 <= w <= 2:
            out.append(f"component {i}: weight {w} outside [0, 2]")
        if size % 2 == 1 and w != 1:
            out.append(f"component {i}: odd size {size} but weight {w}")
        if size % 2 == 0 and w != 2 * _delta(graph, mask):
            out.append(f"component {i}: even size {size}, weight {w} != 2*delta")
    return out


def centroid_decomposition(tree: Graph, p: int) -> frozenset[int]:
    """A vertex set U of at most 2n/p vertices whose removal leaves tree
    pieces with at most p edges each, counting their edges into U.

    Depth-first accumulation: a vertex is cut when the pending edge load of
    its piece (children loads plus the edge to its parent) would exceed p.
    """
    if p < 1:
        raise ValueError("p must be positive")
    if not is_tree(tree):
        raise ValueError("centroid decomposition expects a tree")
    n = tree.n
    if n <= 1:
        return frozenset()
    adj = tree.adjacency
    parent = [-1] * n
    order = []
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        x = stack.pop()
        order.append(x)
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                parent[y] = x
                stack.append(y)
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


class Lefogo1Adversary:
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
            raise ValueError("cover too large: need |U| <= 2^(k-2) where 2^k <= n")
        for u, v in graph.edges:
            if u not in self.cover and v not in self.cover:
                raise ValueError(f"edge ({u},{v}) misses the cover")
        self.cover_mask = _mask_of(self.cover)
        self.switch_total = 2 ** k + (n % 2)
        self.max_drop = 2
        self.endgame = ExactWeightedAdversary()

    def discipline_active(self, view: GameView) -> bool:
        return view.total > self.switch_total

    def choose_merge(self, view: GameView, edge) -> int:
        if not self.discipline_active(view):
            return self.endgame.choose_merge(view, edge)
        u, v = edge
        i, j = view.comp_of(u), view.comp_of(v)
        wi, wj = view.weights[i], view.weights[j]
        fresh = None
        for vert, idx in ((u, i), (v, j)):
            if vert not in self.cover and view.size(idx) == 1:
                fresh = idx
        if fresh is not None:
            other_w = wj if fresh == i else wi
            if other_w >= 2:
                return other_w - 1
            return wi + wj
        return wi + wj


class OddpathAdversary:
    """Stride-cover adversary for odd paths: off-cover components stay at
    weight <= 1, cover components in [1, 2], endgame at 2^floor(log n)+1."""

    def __init__(self, graph: Graph, stride: int = 9):
        if stride not in (8, 9):
            raise ValueError("stride must be 8 or 9")
        if not is_path_in_order(graph):
            raise ValueError("expects the path 0-1-...-(n-1)")
        n = graph.n
        if n % 2 == 0:
            raise ValueError("odd path adversary needs odd n")
        self.graph = graph
        self.stride = stride
        cover = set(range(1, n, stride))
        if n >= 2:
            cover.add(n - 2)
        self.cover = frozenset(x for x in cover if 0 <= x < n)
        self.cover_mask = _mask_of(self.cover)
        self.switch_total = 2 ** (n.bit_length() - 1) + 1
        self.max_drop = 4
        self.endgame = ExactWeightedAdversary()

    def discipline_active(self, view: GameView) -> bool:
        return view.total > self.switch_total

    def choose_merge(self, view: GameView, edge) -> int:
        if not self.discipline_active(view):
            return self.endgame.choose_merge(view, edge)
        u, v = edge
        i, j = view.comp_of(u), view.comp_of(v)
        wi, wj = view.weights[i], view.weights[j]
        s, d = _merge_candidates(wi, wj)
        if not ((view.masks[i] | view.masks[j]) & self.cover_mask):
            return s if s <= 1 else d
        legal = [w for w in (d, s) if w >= 1]
        if not legal:  # both components balanced; cannot happen on-cover
            raise AdversaryInvariantError("cover component reached weight 0")
        in_band = [w for w in legal if w <= 2]
        return in_band[0] if in_band else legal[0]


@dataclass(frozen=True)
class HangingPart:
    mask: int
    root: int | None
    augmented: bool
    edges: tuple[tuple[int, int], ...]


class Lefogo2Adversary:
    """General odd-tree adversary: centroid cover, connecting/hanging
    decomposition of the residual pieces, per-part weight discipline with
    an imaginary degree-one vertex on even hanging parts, and exact-minimax
    endgame at total weight 2^k+3 (or 2^k+1)."""

    def __init__(self, tree: Graph, p: int = 32):
        if not is_tree(tree):
            raise ValueError("expects a tree")
        if tree.n % 2 == 0:
            raise ValueError("even trees are handled by the plain weight discipline")
        self.graph = tree
        self.p = p
        self.cover = centroid_decomposition(tree, p)
        self.cover_mask = _mask_of(self.cover)
        k = tree.n.bit_length() - 1
        self.switch_total = 2 ** k + 3
        self.max_drop = 4
        self.endgame = ExactWeightedAdversary()
        self.connecting_mask, self.parts = self._decompose()

    def _decompose(self) -> tuple[int, tuple[HangingPart, ...]]:
        tree, cover = self.graph, self.cover
        n = tree.n
        adj = tree.adjacency
        if not cover:
            part_mask = (1 << n) - 1
            edges = tree.sorted_edges
            return 0, (HangingPart(part_mask, None, False, edges),)
        parent = [-1] * n
        order = []
        root = next(iter(range(n)))
        seen = [False] * n
        seen[root] = True
        stack = [root]
        while stack:
            x = stack.pop()
            order.append(x)
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    parent[y] = x
                    stack.append(y)
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
        seen2 = [False] * n
        parts = []
        for s in range(n):
            if s in blocked or seen2[s]:
                continue
            comp = {s}
            seen2[s] = True
            stack = [s]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in blocked and not seen2[y]:
                        seen2[y] = True
                        comp.add(y)
                        stack.append(y)
            boundary = sorted(x for x in comp if any(y in blocked for y in adj[x]))
            part_root = boundary[0] if boundary else None
            edges = tuple(e for e in tree.sorted_edges if e[0] in comp and e[1] in comp)
            parts.append(
                HangingPart(_mask_of(comp), part_root, len(comp) % 2 == 0, edges)
            )
        return _mask_of(connecting), tuple(parts)

    def discipline_active(self, view: GameView) -> bool:
        return view.total > self.switch_total

    def _part_delta(self, part: HangingPart, mask: int) -> int:
        cnt = sum(
            1 for a, b in part.edges if ((mask >> a) & 1) != ((mask >> b) & 1)
        )
        if part.augmented and (mask >> part.root) & 1:
            cnt += 1  # the imaginary pendant vertex is never inside mask
        return cnt & 1

    def choose_merge(self, view: GameView, edge) -> int:
        if not self.discipline_active(view):
            return self.endgame.choose_merge(view, edge)
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
                    self._part_delta(part, union),
                    False,  # the augmented pendant keeps every subset proper
                )
        s, d = _merge_candidates(wi, wj)
        return s if s <= 2 else d


# -- queriers for playback ----------------------------------------------


def random_querier(seed: int = 0):
    rng = random.Random(seed)

    def pick(state: QueryState):
        comp_of = {}
        for idx, comp in enumerate(state.components):
            for x in comp.side_a + comp.side_b:
                comp_of[x] = idx
        options = [e for e in state.graph.sorted_edges if comp_of[e[0]] != comp_of[e[1]]]
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


def treelemma_random_order_check(graph: Graph, adversary, seed: int = 0, plays: int = 3) -> list[str]:
    """Full random-order plays against a weight-discipline adversary,
    checking the lemma conditions after every answer."""
    violations: list[str] = []
    for t in range(plays):
        querier = random_querier(seed + t)
        game = Game(graph, adversary)
        while game.outcome() is None:
            game.ask(*querier(game.state))
            problems = check_treelemma_conditions(graph, game.view)
            violations += [f"play {t} move {len(game.moves)}: {p}" for p in problems]
    return violations


def verify_treelemma_all_orders(graph: Graph) -> bool:
    """Exhaustively walk every query order against the weight-discipline
    adversary and check its conditions in every reached state.

    Each distinct state is checked once, on entry; the walk goes on past
    terminal states, whose proper components the conditions still cover.
    """
    adversary = TreelemmaAdversary(graph)
    seen: set[tuple[int, ...]] = set()
    stack = [root_codes(graph.n)]
    while stack:
        codes = stack.pop()
        if codes in seen:
            continue
        seen.add(codes)
        view = GameView(graph, codes)
        if check_treelemma_conditions(graph, view):
            return False
        stack += adversary_successors(view, adversary)
    return True
