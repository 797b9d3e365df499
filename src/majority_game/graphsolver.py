"""Exact m(G) by canonicalized minimax with a transposition table.

States are kept as sorted tuples of packed components: the vertex bitmask
above a weight field of ``n.bit_length()`` bits, which holds any weight,
since a component's weight never exceeds n.  Two successor weights are reachable from any
cross-component query (the sum and the absolute difference), and the game
value of a state depends only on the component partition and the weights,
so states that differ in their internal splits share one table entry.
This module owns the packed format; other modules reach it only through
``GameView``, ``root_codes``, ``adversary_successors``, ``adversary_levels``
and ``Game``.  Every query merges two components, so a state with k
components lies on level n - k of ``adversary_levels`` and on no other.

On the path 0-1-...-(n-1) every component is an interval and sorted codes
list them left to right, so the value depends only on the sequence of
component weights up to reversal: path mode keys the table by that
sequence.  Zero weights stay in it, because they still separate their
neighbours.

The search carries two more things with the codes, each updated by a
merge in place of being rebuilt at every node.  A tuple parallel to the
codes holds each component's neighbour mask, the vertices adjacent to it:
a merge ORs the two masks and clears the union's own vertices, and the
other masks, being vertex sets, stay as they are.  The moves are the pairs
i < j with ``nbrs[i] & mask[j]``.  A weight-count integer holds, in the
field at bit ``w * shift``, the number of components of weight w: a merge
takes two units off and puts one on.  Shifted right by one field, which
drops the zero weights, it keys the solver's cache of weighted-game values,
so a bound costs one dict lookup.  ``_carried`` derives both from a state's
components where the search is entered: at the root and at each state
``best_query`` is asked about.

Pruning: the search is fail-high.  ``_value(codes, nbrs, cnt, beta)``
returns the exact value when it is below beta and otherwise a proven lower
bound of at least beta: a node's best starts at beta (or at ub, below),
and both answers of a move are searched with the cutoff best - 1, since a
child worth that much or more cannot improve the move.  The weighted game
on the current component weights is a relaxation of the graph game (it
allows every pair), so its exact value lb is a lower bound; a node
returns at once when lb reaches beta, and the querier loop stops as soon
as a move meets lb.  The upper bound ub = k - 1 - (n & 1) - z, for k
components, is the cost of one strategy: merge the components along the
graph's edges until one is left, or two on an odd total (the total has
the parity of n, and two weights with an odd sum differ, so one outweighs
the rest).  It skips the z zero-weight components whose neighbours lie
inside at most one other component: such a component connects no two
others, now or after any merge, so the rest merge without it, and it
weighs nothing at the end.  z is counted before the moves are scanned:
each zero component's neighbour mask is tested against the other
components' masks up to the first it meets, whose mask must then hold it
whole.  (Counting z from the scan of the moves, by tallying each
component's adjacent pairs, measured slower, as most nodes hold one zero
component or none.)  A node with lb >= ub is exact at ub and is closed
with no scan of its moves (``closed_by_upper`` counts these); otherwise
its best starts at min(ub, beta), and a search that finds no move below
ub proves ub exact.  A move's second answer is searched only when its
first does not already cut the move.

One table holds two kinds of entry, told apart by their sign: an exact
value v is stored as v and answers every lookup, and a lower bound b from
a node that found no move below its beta is stored as -b; it answers a
lookup whose cutoff it reaches and otherwise seeds the re-search.  Every
tabled value is at least 1, since terminal states are never tabled, so one
probe reads either kind.  A store replaces the key's entry, and writes a
new key only while the table holds fewer than ``table_cap`` entries.

Where a child is decided: the parent's move loop, not a call.  ``_value``
is the entry, used at the root and by ``best_query``; it reads the table
and the weighted bound, and calls ``_expand`` only when they leave the
state open.  ``_expand`` decides each child of its own moves in the loop:
an exact entry is the child's value (``exact_hits``), a weighted bound of
0 marks a terminal child worth 0, and a lower-bound entry that reaches the
cutoff best - 1 refutes the move (``bound_hits``).  The child's own
weighted bound never refutes it there, since the moves are ordered by it
and the loop has stopped before a move whose bound reaches the cutoff.
Only a child left open costs a call, which is handed the key computed for
the probe and the better of the two bounds; its neighbour masks are merged
then, once for both answers.  So every ``_expand`` call opens a node: it
is expanded, or closed by lb >= ub.

``best_query`` names the move: it first takes the state's exact value V,
then walks the graph's edges in sorted order, one per component pair, and
returns the first edge whose both answers leave a state below V, each
searched with the cutoff V.  That is the smallest edge across an optimal
pair, and no pair after it is searched.

``forced_queries`` counts the queries a fixed adversary forces, and
``all_orders_hold`` checks a predicate on the label of every proper
component in every state some query order reaches.  Both pick their walk
here: labelled quotient trees on a tree, the levels of
``adversary_levels`` elsewhere.  An adversary may opt in to a label
protocol (see ``adversary``): a ``component_label(mask, weight)`` whose
first entry is the weight, and a ``merge_labels(a, b, full)`` that gives
the label of two adjacent components' union from theirs alone.  On a tree
every component is a subtree, so a state is a quotient tree with a label
on each node, and the adversary's answers depend on nothing else.  The
walks recurse over quotient trees, contracting one edge per query, and
key their memos by ``generators.tree_key`` over one intern table kept
here.  The forced-query memo is kept per merge rule and shared by every
tree; one call also keeps its values under the exact (labels, edges)
tuple, which two query orders reaching one partition share, so it keys
such a tree once.  ``all_orders_hold`` checks only the merged node's label
after each contraction, past terminal trees; the keys of the trees from
which everything reachable passed form a visited set kept per merge rule
and predicate, shared the same way, and one call keeps the exact tuples
that passed, so it too keys such a tree once.  ``quotient_cache_info`` and
``clear_quotient_cache`` read and empty both.  Any other graph, or an
adversary without the protocol, takes the levels.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass

from . import weighted
from .core import (
    Answer,
    Edge,
    Graph,
    IllegalQueryError,
    InputError,
    Outcome,
    QueryState,
    StrategyError,
    UnsolvableGraphError,
    apply_query,
    initial_state,
    merge_weights,
    normalize_edge,
    query_line,
    require_merge,
    settled,
    terminal_outcome,
)
from .generators import is_path_in_order, is_tree, tree_key

MAX_SOLVER_N = 128  # the minimax is out of reach far below this


def check_solvable(graph: Graph) -> None:
    if not graph.is_majority_solvable():
        raise UnsolvableGraphError(
            "majority is not determinable: graph must be connected (even n) "
            "or have at most two components (odd n)"
        )


@dataclass
class SolveResult:
    value: int
    nodes_expanded: int
    runtime_ms: float
    canonical: str
    table_entries: int  # exact values and lower bounds together
    bound_entries: int
    closed_by_upper: int  # nodes closed, unexpanded, by lb >= ub
    exact_hits: int  # children decided by an exact entry, without a call
    bound_hits: int  # children whose lower-bound entry refuted their move


@dataclass(frozen=True)
class Transcript:
    graph: Graph
    moves: tuple[tuple[Edge, Answer], ...]
    outcome: Outcome

    def __len__(self) -> int:
        return len(self.moves)

    def to_text(self) -> str:
        lines = [query_line(e, a) for e, a in self.moves]
        lines.append(str(self.outcome))
        return "\n".join(lines) + "\n"

    def replay(self) -> QueryState:
        state = initial_state(self.graph)
        for edge, ans in self.moves:
            state = apply_query(state, edge, ans)
        return state


# -- packed states -------------------------------------------------------


def root_codes(n: int) -> tuple[int, ...]:
    """The packed start state: n singletons of weight 1, in sorted order."""
    shift = n.bit_length()
    return tuple(((1 << v) << shift) | 1 for v in range(n))


def encode_state(state: QueryState) -> tuple[int, ...]:
    shift = state.graph.n.bit_length()
    return tuple(sorted(((c.mask_a | c.mask_b) << shift) | c.weight for c in state.components))


def _vertex_comp(n: int, codes) -> list[int]:
    """Index in ``codes`` of the component holding each vertex."""
    shift = n.bit_length()
    vc = [0] * n
    for i, c in enumerate(codes):
        m = c >> shift
        while m:
            v = (m & -m).bit_length() - 1
            vc[v] = i
            m &= m - 1
    return vc


def _terminal(codes, wmask: int) -> bool:
    return settled([c & wmask for c in codes])


def _merge_codes(codes, i: int, j: int, w: int, shift: int) -> tuple[int, ...]:
    """Merge components i and j (either order) into one of weight w.  The
    codes are sorted by their disjoint masks, so by highest bit: the merged
    code takes the place of the larger of the two and the order holds."""
    if i > j:
        i, j = j, i
    out = list(codes)
    out[j] = ((codes[i] | codes[j]) >> shift << shift) | w
    del out[i]
    return tuple(out)


def _merge_nbrs(nbrs, i: int, j: int, merged: int) -> tuple[int, ...]:
    """The neighbour masks after components i < j merge into ``merged``."""
    out = list(nbrs)
    out[j] = (nbrs[i] | nbrs[j]) & ~merged
    del out[i]
    return tuple(out)


class GameView:
    """Cheap read-only snapshot of a packed state for strategy code:
    component bitmasks and weights, no splits."""

    __slots__ = ("graph", "codes", "masks", "weights", "vertex_comp", "total")

    def __init__(self, graph: Graph, codes: tuple[int, ...]):
        shift = graph.n.bit_length()
        wmask = (1 << shift) - 1
        self.graph = graph
        self.codes = codes
        self.masks = tuple(c >> shift for c in codes)
        self.weights = tuple(c & wmask for c in codes)
        self.vertex_comp = tuple(_vertex_comp(graph.n, codes))
        self.total = sum(self.weights)

    def comp_of(self, v: int) -> int:
        return self.vertex_comp[v]

    def size(self, i: int) -> int:
        return self.masks[i].bit_count()


class _CountBounds(dict):
    """Weighted-game values keyed by a weight count with its zero field
    dropped: the field at bit ``(w - 1) * shift`` counts the weights w.
    A miss solves the multiset through ``weighted._solve``."""

    def __init__(self, shift: int):
        super().__init__()
        self.shift = shift

    def __missing__(self, key: int) -> int:
        ws: list[int] = []
        fields, w = key, 1
        while fields:
            ws += [w] * (fields & ((1 << self.shift) - 1))
            fields >>= self.shift
            w += 1
        value = self[key] = weighted._solve(tuple(reversed(ws)))
        return value


class GraphSolver:
    def __init__(self, graph: Graph, canonical: str = "auto", table_cap: int | None = None):
        if graph.n >= MAX_SOLVER_N:
            raise InputError(f"solver supports n < {MAX_SOLVER_N}, got n = {graph.n}")
        check_solvable(graph)
        if table_cap is not None and table_cap < 0:
            raise InputError(f"the table cap must be non-negative, got {table_cap}")
        self.graph = graph
        self.n = graph.n
        self.shift = graph.n.bit_length()
        self.wmask = (1 << self.shift) - 1
        self.edges = graph.sorted_edges
        self.adj = [sum(1 << u for u in nb) for nb in graph.adjacency]
        # units[w] adds one component of weight w to a weight count; a count
        # is at most n < 2 ** shift, so no field carries into the next
        self.units = [1 << (w * self.shift) for w in range(graph.n + 1)]
        self.bounds = _CountBounds(self.shift)
        if canonical == "path" and not is_path_in_order(graph):
            raise InputError("path canonical mode requires the 0-1-...-(n-1) path")
        if canonical == "auto":
            canonical = "path" if is_path_in_order(graph) else "generic"
        if canonical not in ("path", "generic"):
            raise InputError(f"unknown canonical mode: {canonical}")
        self.canonical = canonical
        # an exact value v as v, a lower bound b as -b; every tabled value
        # is at least 1, as terminal states are never tabled
        self.table: dict[tuple[int, ...], int] = {}
        self.table_cap = table_cap
        self.nodes = 0
        self.closed = 0  # nodes whose lower bound met the upper bound
        self.exact_hits = 0
        self.bound_hits = 0

    def _key(self, codes: tuple[int, ...]) -> tuple[int, ...]:
        if self.canonical == "generic":
            return codes
        ws = tuple(c & self.wmask for c in codes)
        return min(ws, ws[::-1])

    # -- search --------------------------------------------------------

    def _carried(self, view: GameView) -> tuple[tuple[int, ...], int]:
        """The neighbour masks and the weight count of a state, which the
        search carries from there on."""
        nbrs = [0] * len(view.codes)
        for v, i in enumerate(view.vertex_comp):
            nbrs[i] |= self.adj[v]
        cnt = sum(self.units[w] for w in view.weights)
        return tuple(nb & ~m for nb, m in zip(nbrs, view.masks)), cnt

    def _search(self, codes: tuple[int, ...], beta: int) -> int:
        """``_value`` on a packed state given by its codes alone."""
        return self._value(codes, *self._carried(GameView(self.graph, codes)), beta)

    def _value(self, codes: tuple[int, ...], nbrs: tuple[int, ...], cnt: int, beta: int) -> int:
        """The state's exact value if it is below beta, else a proven lower
        bound on it that is at least beta.  ``nbrs[i]`` holds the vertices
        adjacent to component i, and ``cnt`` the weight counts."""
        key = self._key(codes)
        hit = self.table.get(key, 0)
        if hit > 0:
            return hit
        lb = self.bounds[cnt >> self.shift]
        if not lb:  # the weighted value is 0 on exactly the terminal states
            return 0
        lb = max(-hit, lb)  # hit is 0 or a negated lower bound here
        if lb >= beta:
            return lb
        return self._expand(key, codes, nbrs, cnt, lb, beta)

    def _expand(self, key, codes: tuple[int, ...], nbrs: tuple[int, ...], cnt: int, lb: int, beta: int) -> int:
        """``_value`` of a non-terminal state that the table leaves open:
        ``key`` is its table key and ``lb`` its best lower bound, below beta.
        The loop decides a child from the table itself, and calls this only
        for a child that must be searched."""
        wmask, shift, units, bounds = self.wmask, self.shift, self.units, self.bounds
        weights = [c & wmask for c in codes]
        masks = [c >> shift for c in codes]
        # ub = k - 1 - (n & 1) - z, z the zero components whose neighbours
        # lie inside at most one other component, the first one they meet
        ub = len(codes) - 1 - (self.n & 1)
        if 0 in weights:
            for w, nb in zip(weights, nbrs):
                if not w:
                    for m in masks:
                        if m & nb:
                            if not nb & ~m:
                                ub -= 1
                            break
                    else:  # no neighbours at all
                        ub -= 1
        if lb >= ub:
            self.closed += 1
            return self._store(key, ub, True)
        self.nodes += 1
        moves = []
        for j, mj in enumerate(masks):
            for i in range(j):
                if nbrs[i] & mj:
                    wi, wj = weights[i], weights[j]
                    plus, minus = wi + wj, abs(wi - wj)
                    rest = cnt - units[wi] - units[wj]
                    lb_plus = bounds[(rest + units[plus]) >> shift]
                    lb_minus = bounds[(rest + units[minus]) >> shift]
                    # the answer with the higher bound is searched first
                    if lb_minus >= lb_plus:
                        moves.append((1 + lb_minus, -plus, i, j, minus, plus, lb_plus))
                    else:
                        moves.append((1 + lb_plus, -plus, i, j, plus, minus, lb_minus))
        moves.sort()
        table, expand = self.table, self._expand
        path_key = self._key if self.canonical == "path" else None
        exact_hits = bound_hits = 0
        # only a move below beta is of use to the caller, and only one below
        # ub can change the value; a search that finds none proves ub exact
        best = min(ub, beta)
        for est, _, i, j, first, second, lb_second in moves:
            if est >= best:  # ordered by est: no later move can improve
                break
            cut = best - 1  # a child worth this much cannot improve the move
            child_nbrs = None  # both answers leave the same neighbour masks
            worst = 0
            for w, child_lb in ((first, est - 1), (second, lb_second)):
                child = _merge_codes(codes, i, j, w, shift)
                child_key = path_key(child) if path_key else child
                v = table.get(child_key, 0)
                if v > 0:
                    exact_hits += 1
                elif not child_lb:  # terminal
                    v = 0
                else:
                    v = -v  # the child's tabled lower bound, or 0
                    if v >= cut:
                        bound_hits += 1
                        break
                    if child_nbrs is None:
                        child_nbrs = _merge_nbrs(nbrs, i, j, masks[i] | masks[j])
                    child_cnt = cnt - units[weights[i]] - units[weights[j]] + units[w]
                    v = expand(child_key, child, child_nbrs, child_cnt, max(v, child_lb), cut)
                if v >= cut:  # the second answer is searched only if this one does not cut the move
                    break
                if v > worst:
                    worst = v
            else:
                best = 1 + worst
                if best <= lb:
                    break
        self.exact_hits += exact_hits
        self.bound_hits += bound_hits
        return self._store(key, best, best < beta)

    def _store(self, key: tuple[int, ...], value: int, exact: bool) -> int:
        """Table an exact value or a lower bound, replacing any bound the
        key had, unless the table is at the cap and the key is new."""
        table = self.table
        if self.table_cap is None or key in table or len(table) < self.table_cap:
            table[key] = value if exact else -value
        return value

    def solve(self) -> SolveResult:
        t0 = time.perf_counter()
        value = self._search(root_codes(self.n), self.n)  # every value is below n
        ms = (time.perf_counter() - t0) * 1000.0
        bounds = sum(1 for v in self.table.values() if v < 0)
        return SolveResult(
            value, self.nodes, ms, self.canonical, len(self.table), bounds, self.closed,
            self.exact_hits, self.bound_hits,
        )

    def best_query(self, state: QueryState) -> Edge:
        """Optimal move in a state; ties go to the smallest canonical edge.

        A component pair meets the state's value V iff both of its answers
        leave a state worth less than V, so each child is searched with the
        cutoff V, and the first edge in sorted order across such a pair is
        returned."""
        codes = encode_state(state)
        if _terminal(codes, self.wmask):
            raise StrategyError("state is terminal; no query needed")
        view = GameView(self.graph, codes)
        nbrs, cnt = self._carried(view)
        value = self._value(codes, nbrs, cnt, self.n)  # every value is below n
        vc, units = view.vertex_comp, self.units
        tried: set[tuple[int, int]] = set()
        for u, v in self.edges:
            i, j = (vc[u], vc[v]) if vc[u] < vc[v] else (vc[v], vc[u])
            if i == j or (i, j) in tried:
                continue
            tried.add((i, j))
            wi, wj = view.weights[i], view.weights[j]
            child_nbrs = _merge_nbrs(nbrs, i, j, view.masks[i] | view.masks[j])
            rest = cnt - units[wi] - units[wj]
            if all(
                self._value(_merge_codes(codes, i, j, w, self.shift), child_nbrs, rest + units[w], value) < value
                for w in merge_weights(wi, wj)
            ):
                return (u, v)
        raise StrategyError("no query meets the state's value")


def solve_graph(graph: Graph, canonical: str = "auto", table_cap: int | None = None) -> SolveResult:
    """Exact minimum worst-case query count for the majority game on G."""
    return GraphSolver(graph, canonical, table_cap).solve()


def optimal_querier(graph: Graph):
    """A deterministic querier achieving m(G) against every adversary."""
    return GraphSolver(graph).best_query


def answer_for_target(state: QueryState, edge: Edge, target: int) -> Answer:
    """Translate an adversary's chosen merge weight into SAME or DIFF for
    the concrete splits of the state; SAME is preferred on ties."""
    u, v = edge
    du = state.component_of(u).excess(u)
    dv = state.component_of(v).excess(v)
    if abs(du + dv) == target:
        return Answer.SAME
    if abs(du - dv) == target:
        return Answer.DIFF
    raise StrategyError(f"merge weight {target} unreachable for query {edge}")


# -- games against a fixed adversary -------------------------------------


class Game:
    """A game in progress against an adversary: the split-level state, its
    packed view and the moves so far."""

    def __init__(self, graph: Graph, adversary):
        self.adversary = adversary
        self.state = initial_state(graph)
        self.view = GameView(graph, root_codes(graph.n))
        self.moves: list[tuple[Edge, Answer]] = []

    def ask(self, u: int, v: int) -> Answer:
        """Query the edge u-v: the adversary picks the merged weight, which
        becomes SAME or DIFF and is applied."""
        edge = normalize_edge(u, v)
        graph = self.state.graph
        if edge not in graph.edges:
            raise IllegalQueryError(f"edge {edge} is not in the graph")
        a, b = self.view.vertex_comp[u], self.view.vertex_comp[v]
        if a == b:
            raise IllegalQueryError(f"edge {edge} lies inside one q-component")
        target = self.adversary.choose_merge(self.view, edge)
        ans = answer_for_target(self.state, edge, target)
        self.state = apply_query(self.state, edge, ans)
        merged = _merge_codes(self.view.codes, a, b, target, graph.n.bit_length())
        self.view = GameView(graph, merged)
        self.moves.append((edge, ans))
        return ans

    def outcome(self) -> Outcome | None:
        return terminal_outcome(self.state)

    def transcript(self) -> Transcript:
        return Transcript(self.state.graph, tuple(self.moves), self.outcome())


def play(graph: Graph, querier, adversary) -> Transcript:
    """Run a full deterministic game; terminates because every query merges
    two components."""
    game = Game(graph, adversary)
    while game.outcome() is None:
        game.ask(*querier(game.state))
    return game.transcript()


def adversary_successors(view: GameView, adversary) -> list[tuple[int, ...]]:
    """The packed state after each cross-component edge of the view's
    graph, answered by the adversary."""
    codes, vc, ws = view.codes, view.vertex_comp, view.weights
    shift = view.graph.n.bit_length()
    out = []
    for u, v in view.graph.sorted_edges:
        a, b = vc[u], vc[v]
        if a != b:
            target = require_merge(adversary.choose_merge(view, (u, v)), ws[a], ws[b])
            out.append(_merge_codes(codes, a, b, target, shift))
    return out


def adversary_levels(graph: Graph, adversary) -> Iterator[list[GameView]]:
    """For d = 0, 1, 2, ... the views of the distinct states that some
    query order reaches after d answers of the adversary, terminal states
    included and walked past.  Only two levels are held at a time."""
    level = {root_codes(graph.n)}
    while level:
        views = [GameView(graph, codes) for codes in level]
        yield views
        level = {succ for view in views for succ in adversary_successors(view, adversary)}


def _walks_quotients(graph: Graph, adversary) -> bool:
    """Whether the fixed-adversary walks take labelled quotient trees."""
    return hasattr(adversary, "merge_labels") and is_tree(graph)


def forced_queries(graph: Graph, adversary) -> int:
    """Fewest queries any querier needs against the fixed adversary.

    On labelled quotient trees (see the module docstring) this is a
    memoized recursion, ``_quotient_value``.  Otherwise it is the first
    level of ``adversary_levels`` that holds a terminal state.  A terminal
    state reached only through an earlier one lies on a later level, so
    walking past terminals cannot lower the answer.

    Walking packed states is sound because every adversary here answers
    as a function of the component partition and weights alone.
    """
    check_solvable(graph)
    if _walks_quotients(graph, adversary):
        labels = _root_labels(graph, adversary)
        if _terminal_labels(labels):
            return 0
        memo = _quotient_memo.setdefault(adversary.merge_labels, {})
        return _quotient_value(adversary.merge_labels, memo, {}, labels, graph.sorted_edges)
    wmask = (1 << graph.n.bit_length()) - 1
    # the walk ends in states with no cross edge, which a solvable graph
    # makes terminal, so some level holds one
    return next(
        d
        for d, views in enumerate(adversary_levels(graph, adversary))
        if any(_terminal(view.codes, wmask) for view in views)
    )


# -- fixed-adversary walks on labelled quotient trees ---------------------

# merge rule -> {canonical key: forced queries}; like ``weighted._memo`` it
# grows across a process until ``clear_quotient_cache()``
_quotient_memo: dict = {}
# (merge rule, label check) -> canonical keys of the trees from which every
# reachable tree passed the check; shared the same way
_visited: dict = {}
# ``tree_key``'s intern table for both walks: (label, sorted child codes)
# -> code, the rooted subtrees seen so far
_interned: dict = {}


def quotient_cache_info() -> dict[str, int]:
    """The sizes of the quotient-tree memo ``forced_queries`` shares across
    calls, over all merge rules, of the visited set ``all_orders_hold``
    shares, and of their table of rooted subtrees."""
    return {
        "states": sum(map(len, _quotient_memo.values())),
        "visited": sum(map(len, _visited.values())),
        "interned": len(_interned),
    }


def clear_quotient_cache() -> None:
    """Empty the memo, the visited set and the subtree table; later walks
    refill them with the same values."""
    _quotient_memo.clear()
    _visited.clear()
    _interned.clear()


def all_orders_hold(graph: Graph, adversary, holds) -> bool:
    """Whether ``holds`` is true of the ``component_label`` of every proper
    component in every state that some query order reaches against
    ``adversary``, terminal states walked past.  A labelled quotient tree
    is checked once per merge rule and check; the levels stop at the first
    failure, so the adversary never answers from a broken state."""
    if not _walks_quotients(graph, adversary):
        full = (1 << graph.n) - 1
        return all(
            holds(adversary.component_label(mask, w))
            for views in adversary_levels(graph, adversary)
            for view in views
            for mask, w in zip(view.masks, view.weights)
            if mask != full
        )
    labels = _root_labels(graph, adversary)
    if len(labels) < 2:  # the one component is the whole graph
        return True
    seen = _visited.setdefault((adversary.merge_labels, holds), set())
    return all(map(holds, labels)) and _quotient_states_hold(
        adversary.merge_labels, holds, seen, set(), labels, graph.sorted_edges
    )


def _root_labels(graph: Graph, adversary) -> tuple:
    return tuple(adversary.component_label(1 << v, 1) for v in range(graph.n))


def _merged_label(rule, a, b, full: bool):
    """``rule``'s label for the union of two adjacent nodes, whose weight
    must be the sum or the difference of theirs."""
    merged = rule(a, b, full)
    require_merge(merged[0], a[0], b[0])
    return merged


def _terminal_labels(labels) -> bool:
    return settled([label[0] for label in labels])


def _contract(labels, edges, e: int, label):
    """The quotient tree after edge ``e`` contracts into one node with
    ``label``: it takes the place of the edge's lower end, and the nodes
    above its upper end move down by one."""
    a, b = edges[e]
    if a > b:
        a, b = b, a
    child_labels = list(labels)
    child_labels[a] = label
    del child_labels[b]
    child_edges = tuple(
        (a if x == b else x - (x > b), a if y == b else y - (y > b))
        for f, (x, y) in enumerate(edges)
        if f != e
    )
    return tuple(child_labels), child_edges


def _quotient_value(rule, memo: dict, met: dict, labels, edges) -> int:
    """Fewest queries to a terminal state from a non-terminal labelled
    quotient tree when ``rule`` answers each query: 1 + the fewest over the
    contractions of one edge, where a terminal contraction counts 0.
    ``memo`` holds the values of the trees met so far under their
    ``tree_key``, and ``met`` those of this walk under the exact
    (labels, edges) tuple, which spares the key of a tree met again."""
    value = met.get((labels, edges))
    if value is not None:
        return value
    key = tree_key(labels, edges, _interned)
    value = memo.get(key)
    if value is None:
        full = len(labels) == 2  # the last query merges the whole graph
        children = []
        for e, (a, b) in enumerate(edges):
            child = _contract(labels, edges, e, _merged_label(rule, labels[a], labels[b], full))
            if _terminal_labels(child[0]):  # 1, the least a non-terminal tree needs
                value = 1
                break
            children.append(child)
        else:
            value = 1 + min(_quotient_value(rule, memo, met, *child) for child in children)
        memo[key] = value
    met[labels, edges] = value
    return value


def _quotient_states_hold(rule, holds, seen: set, passed: set, labels, edges) -> bool:
    """Whether every tree that contractions reach from this labelled
    quotient tree, itself included, has ``holds`` true of each proper node's
    label, given that its own labels pass.  Only the merged node's label is
    new in a contraction, so only it is checked; ``seen`` holds the keys of
    the trees already found to pass, and ``passed`` those of this walk as
    exact (labels, edges) tuples, which spares the key of a tree met again."""
    if (labels, edges) in passed:
        return True
    key = tree_key(labels, edges, _interned)
    if key not in seen:
        full = len(labels) == 2  # the last query merges the whole graph
        for e, (a, b) in enumerate(edges):
            merged = _merged_label(rule, labels[a], labels[b], full)
            if full:
                continue  # the whole graph is no proper component
            child = _contract(labels, edges, e, merged)
            if not holds(merged) or not _quotient_states_hold(rule, holds, seen, passed, *child):
                return False
        seen.add(key)
    passed.add((labels, edges))
    return True
