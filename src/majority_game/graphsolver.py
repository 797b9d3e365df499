"""Exact m(G) by canonicalized minimax with a transposition table.

States are kept as sorted tuples of packed components: the vertex bitmask
above a weight field of ``n.bit_length()`` bits, which holds any weight,
since a component's weight never exceeds n.  Two successor weights are reachable from any
cross-component query (the sum and the absolute difference), and the game
value of a state depends only on the component partition and the weights,
so states that differ in their internal splits share one table entry.
This module owns the packed format; other modules reach it only through
``GameView``, ``root_codes``, ``adversary_successors`` and ``Game``.

On the path 0-1-...-(n-1) every component is an interval and sorted codes
list them left to right, so the value depends only on the sequence of
component weights up to reversal: path mode keys the table by that
sequence.  Zero weights stay in it, because they still separate their
neighbours.

Pruning: the weighted game on the current component weights is a
relaxation of the graph game (it allows every pair), so its exact value is
a lower bound; the querier loop stops as soon as a move meets it.
Evaluation of a move's second answer is skipped when its first answer
already makes the move no better than the current best.  Both cuts leave
table entries exact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import weighted
from .core import (
    Answer,
    Edge,
    Graph,
    IllegalQueryError,
    Outcome,
    QueryState,
    StrategyError,
    UnsolvableGraphError,
    apply_query,
    initial_state,
    normalize_edge,
    terminal_outcome,
)
from .generators import is_path_in_order

MAX_SOLVER_N = 128  # the minimax is out of reach far below this


def _weighted_value(ws) -> int:
    return weighted._solve(tuple(sorted((x for x in ws if x > 0), reverse=True)))


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
    table_entries: int


@dataclass(frozen=True)
class Transcript:
    graph: Graph
    moves: tuple[tuple[Edge, Answer], ...]
    outcome: Outcome

    def __len__(self) -> int:
        return len(self.moves)

    def to_text(self) -> str:
        lines = [f"QUERY {u} {v} -> {a.value}" for (u, v), a in self.moves]
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
    codes = []
    for comp in state.components:
        m = 0
        for v in comp.side_a + comp.side_b:
            m |= 1 << v
        codes.append((m << shift) | comp.weight)
    return tuple(sorted(codes))


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
    total = wmax = 0
    for c in codes:
        w = c & wmask
        total += w
        if w > wmax:
            wmax = w
    return total == 0 or wmax > total - wmax


def _merge_codes(codes, i: int, j: int, w: int, shift: int) -> tuple[int, ...]:
    merged = (((codes[i] >> shift) | (codes[j] >> shift)) << shift) | w
    rest = [c for t, c in enumerate(codes) if t != i and t != j]
    rest.append(merged)
    rest.sort()
    return tuple(rest)


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
        return bin(self.masks[i]).count("1")

    @staticmethod
    def from_state(state: QueryState) -> "GameView":
        return GameView(state.graph, encode_state(state))


class GraphSolver:
    def __init__(self, graph: Graph, canonical: str = "auto", table_cap: int | None = None):
        check_solvable(graph)
        if graph.n >= MAX_SOLVER_N:
            raise ValueError(f"solver supports n < {MAX_SOLVER_N}")
        self.graph = graph
        self.n = graph.n
        self.shift = graph.n.bit_length()
        self.wmask = (1 << self.shift) - 1
        self.edges = graph.sorted_edges
        if canonical == "path" and not is_path_in_order(graph):
            raise ValueError("path canonical mode requires the 0-1-...-(n-1) path")
        if canonical == "auto":
            canonical = "path" if is_path_in_order(graph) else "generic"
        if canonical not in ("path", "generic"):
            raise ValueError(f"unknown canonical mode: {canonical}")
        self.canonical = canonical
        self.table: dict[tuple[int, ...], int] = {}
        self.table_cap = table_cap
        self.nodes = 0

    def _key(self, codes: tuple[int, ...]) -> tuple[int, ...]:
        if self.canonical == "generic":
            return codes
        ws = tuple(c & self.wmask for c in codes)
        return min(ws, ws[::-1])

    def _cross_pairs(self, codes) -> dict[tuple[int, int], Edge]:
        """Each pair of components joined by an edge, with its smallest edge."""
        vc = _vertex_comp(self.n, codes)
        pairs: dict[tuple[int, int], Edge] = {}
        for e in self.edges:
            a, b = vc[e[0]], vc[e[1]]
            if a != b:
                pairs.setdefault((a, b) if a < b else (b, a), e)
        return pairs

    # -- search --------------------------------------------------------

    def _value(self, codes: tuple[int, ...]) -> int:
        key = self._key(codes)
        hit = self.table.get(key)
        if hit is not None:
            return hit
        wmask, shift = self.wmask, self.shift
        if _terminal(codes, wmask):
            self.table[key] = 0
            return 0
        self.nodes += 1
        weights = [c & wmask for c in codes]
        lb = _weighted_value(weights)
        moves = []
        for i, j in self._cross_pairs(codes):
            wi, wj = weights[i], weights[j]
            rest = list(weights)
            rest.remove(wi)
            rest.remove(wj)
            lb_plus = _weighted_value(rest + [wi + wj])
            lb_minus = _weighted_value(rest + [abs(wi - wj)])
            est = 1 + max(lb_plus, lb_minus)
            moves.append((est, -(wi + wj), i, j, lb_plus, lb_minus))
        moves.sort()
        best = self.n  # any value is below n
        for est, _, i, j, lb_plus, lb_minus in moves:
            if est >= best:  # ordered by est: no later move can improve
                break
            wi, wj = weights[i], weights[j]
            plus = _merge_codes(codes, i, j, wi + wj, shift)
            minus = _merge_codes(codes, i, j, abs(wi - wj), shift)
            first, second = (minus, plus) if lb_minus >= lb_plus else (plus, minus)
            v1 = self._value(first)
            if 1 + v1 >= best:
                continue
            v2 = self._value(second)
            mv = 1 + max(v1, v2)
            if mv < best:
                best = mv
                if best <= lb:
                    break
        if self.table_cap is None or len(self.table) < self.table_cap:
            self.table[key] = best
        return best

    def solve(self) -> SolveResult:
        t0 = time.perf_counter()
        value = self._value(root_codes(self.n))
        ms = (time.perf_counter() - t0) * 1000.0
        return SolveResult(value, self.nodes, ms, self.canonical, len(self.table))

    def best_query(self, state: QueryState) -> Edge:
        """Optimal move in a state; ties go to the smallest canonical edge."""
        codes = encode_state(state)
        if _terminal(codes, self.wmask):
            raise StrategyError("state is terminal; no query needed")
        weights = [c & self.wmask for c in codes]
        pair_value: dict[Edge, int] = {}
        for (i, j), edge in self._cross_pairs(codes).items():
            wi, wj = weights[i], weights[j]
            plus = self._value(_merge_codes(codes, i, j, wi + wj, self.shift))
            minus = self._value(_merge_codes(codes, i, j, abs(wi - wj), self.shift))
            pair_value[edge] = 1 + max(plus, minus)
        target = min(pair_value.values())
        return min(edge for edge, value in pair_value.items() if value == target)


def solve_graph(graph: Graph, canonical: str = "auto", table_cap: int | None = None) -> SolveResult:
    """Exact minimum worst-case query count for the majority game on G."""
    return GraphSolver(graph, canonical, table_cap).solve()


def optimal_querier(graph: Graph, canonical: str = "auto"):
    """A deterministic querier achieving m(G) against every adversary."""
    solver = GraphSolver(graph, canonical)
    solver.solve()
    return solver.best_query


def answer_for_target(state: QueryState, edge: Edge, target: int) -> Answer:
    """Translate an adversary's chosen merge weight into SAME or DIFF for
    the concrete splits of the state; SAME is preferred on ties."""
    u, v = edge
    cu = state.component_of(u)
    cv = state.component_of(v)
    du = (len(cu.side_a) - len(cu.side_b)) * (1 if u in cu.side_a else -1)
    dv = (len(cv.side_a) - len(cv.side_b)) * (1 if v in cv.side_a else -1)
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
            target = adversary.choose_merge(view, (u, v))
            if target != ws[a] + ws[b] and target != abs(ws[a] - ws[b]):
                raise StrategyError(f"merge weight {target} unreachable for query {(u, v)}")
            out.append(_merge_codes(codes, a, b, target, shift))
    return out


def forced_queries(graph: Graph, adversary) -> int:
    """Fewest queries any querier needs against the fixed adversary.

    Memoized on the packed state; sound because every adversary here
    answers as a function of the component partition and weights alone.
    """
    check_solvable(graph)
    memo: dict[tuple[int, ...], int] = {}

    wmask = (1 << graph.n.bit_length()) - 1

    def rec(codes: tuple[int, ...]) -> int:
        if _terminal(codes, wmask):
            return 0
        hit = memo.get(codes)
        if hit is not None:
            return hit
        best = graph.n
        for succ in adversary_successors(GameView(graph, codes), adversary):
            best = min(best, 1 + rec(succ))
        memo[codes] = best
        return best

    return rec(root_codes(graph.n))
