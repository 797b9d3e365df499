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
    Edge,
    Graph,
    QueryState,
    apply_query,
    initial_state,
    normalize_edge,
    outcome_valid,
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
        raise ValueError("k must be positive")
    edges = [(i, i + 1) for i in range(k - 1)]
    edges += [(i, k + i) for i in range(k)]
    return Graph.from_edges(2 * k, edges)


def build_minedge_graph(n: int) -> LabeledConstruction:
    """The n-vertex construction with at most n(1+b(n)) edges."""
    if n < 2:
        raise ValueError("n must be at least 2")
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
        raise ValueError("copy must have a power-of-two path with matching leaves")
    for i in range(size - 1):
        if not graph.has_edge(path_vs[i], path_vs[i + 1]):
            raise ValueError(f"missing path edge ({path_vs[i]},{path_vs[i + 1]})")
    for pv, lv in zip(path_vs, leaf_vs):
        if not graph.has_edge(pv, lv):
            raise ValueError(f"missing leaf edge ({pv},{lv})")

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
    u, v = edge
    comp = state.component_of(u)
    return (u in comp.side_a) != (v in comp.side_a)


class MinedgeQuerier:
    """Deterministic querier for the hub construction, replayable from the
    query log alone: hub steps are re-derived from which scheduled queries
    have been asked and which of them came back DIFF."""

    def __init__(self, n: int):
        self.construction = build_minedge_graph(n)
        self.n = n
        self.k = n // 2
        self.b_eff = len(self.construction.hubs)
        self._endgame_solver = None

    def _copy_for(self, anchor_pos: int, j: int) -> tuple[list[int], list[int]]:
        """Copy anchored at path position anchor_pos (1-based) with the
        largest power-of-two block of fresh positions starting at j."""
        k = self.k
        cap = anchor_pos + 1 - j
        size = 1
        while size * 2 <= cap:
            size *= 2
        positions = [anchor_pos] + list(range(j, j + size - 1))
        path_vs = [p - 1 for p in positions]
        leaf_vs = [k + p - 1 for p in positions]
        return path_vs, leaf_vs

    def __call__(self, state: QueryState) -> Edge:
        graph = self.construction.graph
        queried = state.queried
        used_by_steps: set[int] = set()
        j = 1
        for step in range(1, self.b_eff + 1):
            anchor_pos = self.k - step + 1
            anchor_v = anchor_pos - 1
            if anchor_v in used_by_steps and j > anchor_pos:
                break  # hub consumed by an earlier block: steps are over
            path_vs, leaf_vs = self._copy_for(anchor_pos, j)
            seq = algorithm_a_queries(graph, path_vs, leaf_vs)
            ended = False
            for t, q in enumerate(seq):
                if q not in queried:
                    return q
                if _was_diff(state, q):
                    touched = set()
                    for qq in seq[: t + 1]:
                        touched.update(qq)
                    used_by_steps |= touched
                    block_touched = [p + 1 for p in path_vs[1:] if p in touched or p + self.k in touched]
                    if block_touched:
                        j = max(block_touched) + 1
                    ended = True
                    break
            if not ended:
                # all SAME: a monochromatic copy normally dominates and ends
                # the play; when leftovers outweigh it, finish below
                for q in seq:
                    used_by_steps.update(q)
                break
        nxt = self._remainder_schedule_query(state, used_by_steps)
        if nxt is not None:
            return nxt
        return self._pairing_query(state)

    def _remainder_schedule_query(self, state: QueryState, used_steps: set[int]) -> Edge | None:
        """Process the path positions the hub steps never touched with the
        same doubling schedule, largest power-of-two blocks first.  This
        keeps every component order a power of two, which is what bounds
        the total number of queries by n - b(n)."""
        graph = self.construction.graph
        queried = state.queried
        k = self.k
        fresh = [p for p in range(1, k + 1) if (p - 1) not in used_steps]
        i = 0
        while i < len(fresh):
            run_start = run_end = fresh[i]
            while i + 1 < len(fresh) and fresh[i + 1] == run_end + 1:
                i += 1
                run_end = fresh[i]
            i += 1
            j = run_start
            while j <= run_end:
                size = 1
                while size * 2 <= run_end - j + 1:
                    size *= 2
                positions = list(range(j, j + size))
                path_vs = [p - 1 for p in positions]
                leaf_vs = [k + p - 1 for p in positions]
                seq = algorithm_a_queries(graph, path_vs, leaf_vs)
                advanced = None
                for t, q in enumerate(seq):
                    if q not in queried:
                        return q
                    if _was_diff(state, q):
                        touched = set()
                        for qq in seq[: t + 1]:
                            touched.update(qq)
                        hit = [p for p in positions if p - 1 in touched or k + p - 1 in touched]
                        advanced = max(hit) + 1 if hit else j + size
                        break
                j = advanced if advanced is not None else j + size
        return None

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
    valid for every coloring consistent with the leaf state.  On failure
    the report carries the answer path verbatim.
    """
    from .core import Answer

    report = VerifyReport(max_queries=0, budget=budget, passed=True, leaves_checked=0)

    def rec(state: QueryState, depth: int, path: list[str]) -> bool:
        outcome = terminal_outcome(state)
        if outcome is not None:
            report.leaves_checked += 1
            report.max_queries = max(report.max_queries, depth)
            if depth > budget or not outcome_valid(state, outcome):
                report.passed = False
                report.failure_path = list(path)
                return False
            return True
        if depth >= budget:
            report.passed = False
            report.failure_path = list(path) + ["<budget exhausted before terminal>"]
            return False
        try:
            edge = normalize_edge(*strategy(state))
        except Exception as exc:  # noqa: BLE001 - strategy errors are findings
            report.passed = False
            report.failure_path = list(path) + [f"<strategy error: {exc}>"]
            return False
        for ans in (Answer.SAME, Answer.DIFF):
            nxt = apply_query(state, edge, ans)
            path.append(f"QUERY {edge[0]} {edge[1]} -> {ans.value}")
            ok = rec(nxt, depth + 1, path)
            path.pop()
            if not ok:
                return False
        return True

    rec(initial_state(graph), 0, [])
    return report
