"""Sparse graphs that attain the unrestricted optimum, with their querier.

The graph on n vertices is a half-length path with a pendant leaf on every
path vertex, plus a few high-degree hub vertices at the top of the path
that are adjacent to everything (and one extra leftover vertex when n is
odd).  The querier works in steps anchored at the hubs: each step runs a
doubling merge schedule on a power-of-two sub-copy of the leaf-path shape;
a DIFF answer always joins two monochromatic components of equal size, so
it closes the step with a balanced component, while an all-SAME step ends
in a dominant monochromatic component.  After the hub steps the untouched
remainder gets the same doubling treatment, which keeps every component
order a power of two (n is no sum of fewer than b(n) powers of two, so at
most n - b(n) queries can ever be asked), and the few leftover components
are finished by exact play of the residual position.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bounds import popcount
from .core import (
    Answer,
    Edge,
    Graph,
    InputError,
    QueryState,
    apply_query,
    initial_state,
    normalize_edge,
    outcome_valid,
    query_line,
    terminal_outcome,
)


@dataclass(frozen=True)
class LabeledConstruction:
    graph: Graph
    path_vertices: tuple[int, ...]
    leaf_vertices: tuple[int, ...]
    hubs: tuple[int, ...]
    leftover: int | None


def build_F(k: int) -> Graph:
    """Path on k vertices with a degree-one leaf attached to each."""
    if k < 1:
        raise InputError("k must be positive")
    edges = [(i, i + 1) for i in range(k - 1)]
    edges += [(i, k + i) for i in range(k)]
    return Graph.from_edges(2 * k, edges)


def build_minedge_graph(n: int) -> LabeledConstruction:
    """The n-vertex construction with at most n(1+b(n)) edges."""
    if n < 2:
        raise InputError("n must be at least 2")
    k = n // 2
    b = popcount(n)
    hubs_count = min(b, k)
    base = build_F(k)
    edges = set(base.edges)
    leftover = 2 * k if n % 2 == 1 else None
    hubs = tuple(range(k - hubs_count, k))
    for h in hubs:
        for x in range(n):
            if x != h:
                edges.add(normalize_edge(h, x))
    graph = Graph.from_edges(n, edges)
    return LabeledConstruction(
        graph=graph,
        path_vertices=tuple(range(k)),
        leaf_vertices=tuple(range(k, 2 * k)),
        hubs=hubs,
        leftover=leftover,
    )


def algorithm_a_queries(graph: Graph, path_vs, leaf_vs) -> list[Edge]:
    """Query schedule of the doubling merge algorithm on a leaf-path copy.

    The copy has 2^r path vertices, each with its own leaf.  The schedule
    recursively handles the two halves and then joins them; every query
    connects two monochromatic components of equal power-of-two size, so
    the first DIFF ends the run with a balanced component, and an all-SAME
    run certifies the copy monochromatic.  Only a prefix of the copy is
    touched at any point.
    """
    path_vs, leaf_vs = tuple(path_vs), tuple(leaf_vs)
    size = len(path_vs)
    if size == 0 or size & (size - 1) != 0 or len(leaf_vs) != size:
        raise InputError("copy must have a power-of-two path with matching leaves")
    for i in range(size - 1):
        if not graph.has_edge(path_vs[i], path_vs[i + 1]):
            raise InputError(f"missing path edge ({path_vs[i]},{path_vs[i + 1]})")
    for pv, lv in zip(path_vs, leaf_vs):
        if not graph.has_edge(pv, lv):
            raise InputError(f"missing leaf edge ({pv},{lv})")

    def rec(ps, ls) -> list[Edge]:
        if len(ps) == 1:
            return [normalize_edge(ps[0], ls[0])]
        h = len(ps) // 2
        out = rec(ps[:h], ls[:h])
        out += rec(ps[h:], ls[h:])
        out.append(normalize_edge(ps[h - 1], ps[h]))
        return out

    return rec(path_vs, leaf_vs)


def _was_diff(state: QueryState, edge: Edge) -> bool:
    """Whether an asked edge's endpoints lie on opposite sides."""
    u, v = edge
    side = state.components[state.owner[u]].mask_a
    return bool((side >> u ^ side >> v) & 1)


class MinedgeQuerier:
    """Deterministic querier for the hub construction, replayable from the
    query log alone.

    One walk, ``_walk``, replays the doubling schedule of a block of path
    positions against the answers so far.  Hub step s walks the hub at path
    position k + 1 - s followed by the lowest positions no step has asked,
    the largest power-of-two block that fits below the hub; a DIFF moves
    the next step past the positions it asked, and an all-SAME step ends
    the steps.  The run of positions between the last step's block and its
    hub is then walked in largest power-of-two blocks first, and the exact
    endgame finishes what is left."""

    def __init__(self, n: int):
        self.construction = build_minedge_graph(n)
        self.k = n // 2
        self.b_eff = len(self.construction.hubs)
        self._endgame_solver = None
        self._schedules: dict[tuple[int, ...], tuple[list[Edge], list[int]]] = {}

    def _walk(self, state: QueryState, positions: tuple[int, ...]) -> tuple[Edge | None, int, bool]:
        """Walk the schedule of the block at 1-based path ``positions``, each
        with its leaf, through the answers in ``state``.

        Returns the block's first unasked query, or else ``None``, the number
        of positions asked up to and including the first DIFF (all of them
        if every answer was SAME), and whether a DIFF came.  The schedule
        asks the block's positions in order, so the asked ones are a prefix.
        """
        cached = self._schedules.get(positions)
        if cached is None:
            k = self.k
            seq = algorithm_a_queries(
                self.construction.graph, [p - 1 for p in positions], [k + p - 1 for p in positions])
            # each asked position brings its path vertex and its leaf
            touched: set[int] = set()
            reach = []
            for q in seq:
                touched.update(q)
                reach.append(len(touched) // 2)
            cached = self._schedules[positions] = (seq, reach)
        seq, reach = cached
        for t, q in enumerate(seq):
            if q not in state.queried:
                return q, 0, False
            if _was_diff(state, q):
                return None, reach[t], True
        return None, reach[-1], False

    def __call__(self, state: QueryState) -> Edge:
        j, end = 1, self.k
        for anchor in range(self.k, self.k - self.b_eff, -1):
            if j > anchor:
                break  # hub consumed by an earlier block: steps are over
            end = anchor - 1
            size = 1 << ((anchor + 1 - j).bit_length() - 1)
            query, asked, diff = self._walk(state, (anchor, *range(j, j + size - 1)))
            if query is not None:
                return query
            j += asked - 1  # the hub itself is the block's first position
            if not diff:
                # all SAME: a monochromatic copy normally dominates and ends
                # the play; when leftovers outweigh it, finish below
                break
        # positions 1..j-1 and end+1..k are asked, so j..end is the one run
        # the steps never touched
        while j <= end:
            size = 1 << ((end + 1 - j).bit_length() - 1)
            query, asked, _ = self._walk(state, tuple(range(j, j + size)))
            if query is not None:
                return query
            j += asked
        return self._pairing_query(state)

    def _pairing_query(self, state: QueryState) -> Edge:
        """Endgame: play the residual position exactly.

        The hub steps and the remainder schedule keep every component
        order a power of two, so at most n - b(n) queries are ever asked;
        finishing the leftovers (unbalanced stragglers from interrupted
        runs, the odd extra vertex) inside that budget is a small exact
        search, mirroring the exact-minimax endgame of the adversaries.
        The residual solver is shared across calls, so the whole answer
        tree of one construction reuses one table.
        """
        from .graphsolver import GraphSolver

        if self._endgame_solver is None:
            self._endgame_solver = GraphSolver(self.construction.graph)
        return self._endgame_solver.best_query(state)


def minedge_querier(n: int) -> MinedgeQuerier:
    return MinedgeQuerier(n)


@dataclass
class VerifyReport:
    max_queries: int
    budget: int
    passed: bool
    leaves_checked: int
    failure_path: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "max_queries": self.max_queries,
            "budget": self.budget,
            "pass": self.passed,
            "leaves_checked": self.leaves_checked,
            "failure_path": self.failure_path,
        }


def verify_querier(graph: Graph, strategy, budget: int) -> VerifyReport:
    """Walk the full binary answer tree of a querier strategy.

    Passes iff every leaf is reached within the budget and its outcome is
    valid for every coloring consistent with the leaf state.  The walk
    keeps its answer path as (edge, answer) pairs; on failure the report
    carries it as ``query_line`` lines.
    """
    report = VerifyReport(max_queries=0, budget=budget, passed=True, leaves_checked=0)
    path: list[tuple[Edge, Answer]] = []

    def fail(*last: str) -> bool:
        report.passed = False
        report.failure_path = [query_line(e, ans) for e, ans in path] + list(last)
        return False

    def rec(state: QueryState, depth: int) -> bool:
        outcome = terminal_outcome(state)
        if outcome is not None:
            report.leaves_checked += 1
            report.max_queries = max(report.max_queries, depth)
            if depth > budget or not outcome_valid(state, outcome):
                return fail()
            return True
        if depth >= budget:
            return fail("<budget exhausted before terminal>")
        try:
            edge = normalize_edge(*strategy(state))
        except Exception as exc:  # noqa: BLE001 - strategy errors are findings
            return fail(f"<strategy error: {exc}>")
        for ans in (Answer.SAME, Answer.DIFF):
            path.append((edge, ans))
            ok = rec(apply_query(state, edge, ans), depth + 1)
            path.pop()
            if not ok:
                return False
        return True

    rec(initial_state(graph), 0)
    return report
