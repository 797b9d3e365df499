"""Game-state semantics for the majority query game.

Vertices of a graph carry an unknown red/blue coloring.  The querier asks
edges and learns whether the endpoints share a color (SAME) or not (DIFF).
The answered queries partition the vertices into q-components; inside each
component the color classes are known up to a global flip, so a component
is stored as an unordered split into two sides, each a vertex bitmask.  The
weight of a component is the size difference of its sides, a difference of
popcounts.  A state lists its components by lowest vertex and maps each
vertex to its component's index, so finding a vertex's component is one
lookup and finding its side is one bit test.  All types here are immutable
values and all operations are pure functions.

``settled`` and ``merge_weights`` write two rules of the game on weights
once for every layer: when a position is over, and the sum and the
difference a query can leave (the weighted game of Saks and Werman).
``require_merge`` is the one check that an adversary's or a merge rule's
weight is one of the two; it raises ``StrategyError``.
``outcome_valid`` checks a claimed outcome by the same rule, from the
weights alone.  Nothing here counts sign vectors; only ``weighted`` does,
and this module imports no other module of the package.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

RED = "R"
BLUE = "B"


class GameError(Exception):
    pass


class IllegalQueryError(GameError):
    pass


class UnsolvableGraphError(GameError):
    pass


class StrategyError(GameError):
    pass


class InputError(GameError, ValueError):
    """Malformed or out-of-range input from outside the program."""


class Answer(enum.Enum):
    SAME = "SAME"
    DIFF = "DIFF"


Edge = tuple[int, int]


def query_line(edge: Edge, answer: Answer) -> str:
    """A query and its answer as one transcript line, ``QUERY u v -> ANSWER``."""
    u, v = edge
    return f"QUERY {u} {v} -> {answer.value}"


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset[Edge]

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        if n < 0:
            raise InputError(f"n must be non-negative, got {n}")
        norm = set()
        for u, v in edges:
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            norm.add(normalize_edge(u, v))
        return Graph(n, frozenset(norm))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.edges

    def components(self) -> list[frozenset[int]]:
        seen = [False] * self.n
        out = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack, comp = [s], {s}
            seen[s] = True
            while stack:
                x = stack.pop()
                for y in self.adjacency[x]:
                    if not seen[y]:
                        seen[y] = True
                        comp.add(y)
                        stack.append(y)
            out.append(frozenset(comp))
        return out

    def is_majority_solvable(self) -> bool:
        """The game has an answer for every coloring iff the graph is
        connected (n even) or has at most two components (n odd)."""
        k = len(self.components())
        return k == 1 if self.n % 2 == 0 else k <= 2

    def to_text(self) -> str:
        lines = [f"{self.n} {len(self.edges)}"]
        lines += [f"{u} {v}" for u, v in self.sorted_edges]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Graph":
        tokens = text.split()
        if len(tokens) < 2:
            raise InputError("graph text needs a header line 'n m'")
        bad = next((t for t in tokens if not (t.isascii() and t.isdigit())), None)
        if bad is not None:
            raise InputError(f"graph text: {bad!r} is not a non-negative integer")
        n, m, *vals = (int(t) for t in tokens)
        if len(vals) != 2 * m:
            raise InputError(f"expected {m} edges, found {len(vals) // 2}")
        return Graph.from_edges(n, zip(vals[::2], vals[1::2]))


def parse_coloring(text: str, n: int | None = None) -> str:
    c = text.strip().upper()
    if n is not None and len(c) != n:
        raise InputError(f"coloring has length {len(c)}, expected {n}")
    if set(c) - {RED, BLUE}:
        raise InputError(f"coloring {text!r} must use only characters R and B")
    return c


def _mask_vertices(m: int) -> tuple[int, ...]:
    """The vertices of a mask, in increasing order."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


@dataclass(frozen=True, slots=True)
class Component:
    """A q-component: the two color-class sides as vertex masks, stored
    canonically.

    Canonical form puts the empty side first, if there is one, and else
    the side holding the component's lowest vertex, so states equal up to
    a color flip compare equal.
    """

    mask_a: int
    mask_b: int

    @staticmethod
    def from_masks(a: int, b: int) -> "Component":
        if a and (not b or b & -b < a & -a):
            a, b = b, a
        return Component(a, b)

    @property
    def side_a(self) -> tuple[int, ...]:
        return _mask_vertices(self.mask_a)

    @property
    def side_b(self) -> tuple[int, ...]:
        return _mask_vertices(self.mask_b)

    @property
    def weight(self) -> int:
        return abs(self.mask_a.bit_count() - self.mask_b.bit_count())

    def excess(self, v: int) -> int:
        """The size of v's side minus the size of the other side."""
        d = self.mask_a.bit_count() - self.mask_b.bit_count()
        return d if self.mask_a >> v & 1 else -d

    def min_vertex(self) -> int:
        m = self.mask_a | self.mask_b
        return (m & -m).bit_length() - 1


@dataclass(frozen=True)
class Outcome:
    """Either a majority vertex or the statement that none exists."""

    majority: int | None

    @staticmethod
    def majority_vertex(v: int) -> "Outcome":
        return Outcome(v)

    @staticmethod
    def no_majority() -> "Outcome":
        return Outcome(None)

    def __str__(self) -> str:
        return "OUTCOME NONE" if self.majority is None else f"OUTCOME MAJORITY {self.majority}"


@dataclass(frozen=True)
class QueryState:
    """Partition into q-components plus the set of answered queries.

    The components are sorted by their lowest vertex; ``owner`` maps each
    vertex to the index of its component.
    """

    graph: Graph
    components: tuple[Component, ...]
    queried: frozenset[Edge]
    owner: tuple[int, ...] = field(compare=False, repr=False)

    def component_of(self, v: int) -> Component:
        return self.components[self.component_index(v)]

    def component_index(self, v: int) -> int:
        if not 0 <= v < self.graph.n:
            raise InputError(f"vertex {v} not in any component")
        return self.owner[v]


def initial_state(graph: Graph) -> QueryState:
    comps = tuple(Component(0, 1 << v) for v in range(graph.n))
    return QueryState(graph, comps, frozenset(), tuple(range(graph.n)))


def apply_query(state: QueryState, edge: Edge, answer: Answer) -> QueryState:
    """Merge the two endpoint components according to the answer.

    SAME unions the sides containing the endpoints; DIFF unions each with
    the opposite side.  Queries inside one component are rejected: their
    answer is already forced by transitivity.  The merged component keeps
    the place of the one with the lower vertex, so the order holds.
    """
    u, v = edge
    e = normalize_edge(u, v)
    if e not in state.graph.edges:
        raise IllegalQueryError(f"edge {e} is not in the graph")
    owner = state.owner
    i, j = owner[u], owner[v]
    if i == j:
        raise IllegalQueryError(f"edge {e} lies inside one q-component")
    comps = state.components
    cu, cv = comps[i], comps[j]
    # orient each component as (the endpoint's side, the other side)
    su, ou = (cu.mask_a, cu.mask_b) if cu.mask_a >> u & 1 else (cu.mask_b, cu.mask_a)
    sv, ov = (cv.mask_a, cv.mask_b) if cv.mask_a >> v & 1 else (cv.mask_b, cv.mask_a)
    if answer is Answer.DIFF:
        sv, ov = ov, sv
    merged = Component.from_masks(su | sv, ou | ov)
    if i > j:
        i, j = j, i
    comps = (*comps[:i], merged, *comps[i + 1 : j], *comps[j + 1 :])
    owner = tuple([o if o < j else i if o == j else o - 1 for o in owner])
    return QueryState(state.graph, comps, state.queried | {e}, owner)


def component_weights(state: QueryState) -> tuple[int, ...]:
    """Multiset of component weights, sorted descending.

    The sum is congruent to n mod 2 after every query.
    """
    return tuple(sorted((c.weight for c in state.components), reverse=True))


def settled(weights) -> bool:
    """Whether a position with these component weights is over: every
    component is balanced, or one outweighs all the others together."""
    total = sum(weights)
    return total == 0 or 2 * max(weights) > total


def merge_weights(a: int, b: int) -> tuple[int, int]:
    """The weights a query can leave from components of weights a and b:
    the sum and the difference."""
    return a + b, abs(a - b)


def require_merge(target: int, a: int, b: int) -> int:
    """``target``, if a query can leave it from weights a and b."""
    if target not in merge_weights(a, b):
        raise StrategyError(f"merge weight {target} unreachable from weights ({a}, {b})")
    return target


def terminal_outcome(state: QueryState) -> Outcome | None:
    """The game's outcome if it is decided, else None.

    NoMajority iff every component is balanced; a majority vertex exists
    iff one component outweighs all others combined, in which case any
    vertex of its heavy side works (we return the smallest).
    """
    weights = [c.weight for c in state.components]
    if not settled(weights):
        return None
    if not any(weights):
        return Outcome.no_majority()
    c = state.components[weights.index(max(weights))]
    heavy = c.mask_a if c.mask_a.bit_count() > c.mask_b.bit_count() else c.mask_b
    return Outcome.majority_vertex((heavy & -heavy).bit_length() - 1)


def coloring_outcome(coloring: str) -> Outcome:
    """True outcome of a fully known coloring."""
    r = coloring.count(RED)
    b = len(coloring) - r
    if r == b:
        return Outcome.no_majority()
    want = RED if r > b else BLUE
    return Outcome.majority_vertex(coloring.index(want))


def outcome_valid(state: QueryState, outcome: Outcome) -> bool:
    """Check an outcome claim against every consistent coloring, by the
    rule of the weighted game.

    A consistent coloring picks the red side of each component, so its
    red-minus-blue difference is a signed sum of the component weights.
    No majority holds iff that sum is 0 for every choice, that is, iff
    every component is balanced.  Vertex v's color is the majority iff
    d + s > 0 for every signed sum s of the other components' weights,
    where d is the size of v's side of its component minus the other's;
    the least such s is minus the others' total.
    """
    weights = [c.weight for c in state.components]
    if outcome.majority is None:
        return not any(weights)
    i = state.component_index(outcome.majority)
    return state.components[i].excess(outcome.majority) > sum(weights) - weights[i]
