"""The benchmark's workloads: inputs, the public calls each instance makes,
and the exact value or oracle that checks it.

An instance is one input passed through its workload's calls and checked.
`WORKLOADS[name](seed, call)` makes the inputs (the set-up phase) and
returns the instances in a fixed order.  Every call into the workbench
goes through `call(span_name, fn, *args)`, so a traced pass can wrap it
in a span.
Expected values come from the paper's results, as the acceptance criteria
in `majority_game.suites` state them, or from oracles written here.  Times
quoted below were measured on a 2-vCPU Intel Xeon virtual machine with
Python 3.11.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

from majority_game import adversary, bounds, constructions, generators, nondet
from majority_game.core import coloring_outcome
from majority_game.graphsolver import forced_queries, solve_graph
from majority_game.weighted import solve_weighted

# Exact counters summed over a pass.  They repeat exactly for one commit and seed.
COUNTS = (
    "graphsolver.nodes",
    "graphsolver.table_entries",
    "bounds.vectors",
    "bounds.certificates",
    "bounds.tight",
    "constructions.leaves_checked",
)


class Mismatch(Exception):
    """An instance's result disagrees with its known value or oracle."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


@dataclass
class Instance:
    label: str  # the input, printed with any failure
    run: Callable  # run(call, counts) makes the public calls and checks them


def b(n: int) -> int:
    return bin(n).count("1")


def solve_instance(graph, canonical: str, want: int, label: str) -> Instance:
    def run(call, counts):
        r = call("graphsolver.solve_graph", solve_graph, graph, canonical)
        counts["graphsolver.nodes"] += r.nodes_expanded
        counts["graphsolver.table_entries"] += r.table_entries
        expect(r.value == want, f"solve_graph gave {r.value}, want {want}")

    return Instance(label, run)


# -- paths ------------------------------------------------------------------

# m(P_n) = n - 1 for even n and n - b(n) for odd n (criterion C2).
# The searches stop at P_13: P_14, P_15 and P_17 take 3 to 25 s each, and
# an instance that long cannot be timed steadily on a shared host whose
# speed can swing by 2x within seconds.
PATH_VALUES = {n: n - 1 if n % 2 == 0 else n - b(n) for n in range(2, 14)}


def paths(seed: int, call) -> list[Instance]:
    """One path-mode search per n from 2 to 13; the seed is not used."""
    out = []
    for n, want in PATH_VALUES.items():
        g = call("generators.path_graph", generators.path_graph, n)
        out.append(solve_instance(g, "path", want, f"path_graph({n}), canonical='path'"))
    return out


# -- trees ------------------------------------------------------------------


def _free_trees(n: int) -> list:
    return list(generators.free_trees(n))


def tree_instance(graph) -> Instance:
    """A 10-vertex free tree: solved with generic keys, and walked against
    the weight-discipline adversary; both give n - 1."""
    want = graph.n - 1
    solve = solve_instance(graph, "generic", want, "")

    def run(call, counts):
        solve.run(call, counts)
        got = call("graphsolver.forced_queries", forced_queries, graph, adversary.TreelemmaAdversary(graph))
        expect(got == want, f"forced_queries gave {got}, want {want}")

    return Instance(f"free tree n={graph.n} edges={sorted(graph.edges)}", run)


def all_orders_instance(graph) -> Instance:
    def run(call, counts):
        ok = call("adversary.verify_treelemma_all_orders", adversary.verify_treelemma_all_orders, graph)
        expect(ok is True, f"verify_treelemma_all_orders gave {ok!r}")

    return Instance(f"all orders, free tree n={graph.n} edges={sorted(graph.edges)}", run)


def trees(seed: int, call) -> list[Instance]:
    """The 106 free trees on 10 vertices, four random 12-vertex trees drawn
    from `seed` (a 14-vertex tree takes about 3 s, too long to time steadily),
    and every free tree on at most 8 vertices."""
    rng = random.Random(seed)
    out = [tree_instance(g) for g in call("generators.free_trees", _free_trees, 10)]
    for _ in range(4):
        s = rng.randrange(10**6)
        g = call("generators.random_tree", generators.random_tree, 12, s)
        out.append(solve_instance(g, "generic", 11, f"random_tree(12, seed={s}), canonical='generic'"))
    for n in range(1, 9):
        out += [all_orders_instance(g) for g in call("generators.free_trees", _free_trees, n)]
    return out


# -- weights ----------------------------------------------------------------


def balanced_colorings(w) -> int:
    """Oracle for p: sign vectors of w that sum to zero, by enumeration."""
    return sum(1 for signs in itertools.product((1, -1), repeat=len(w)) if sum(s * x for s, x in zip(signs, w)) == 0)


def weight_instance(w: tuple[int, ...]) -> Instance:
    def run(call, counts):
        m = call("weighted.solve_weighted", solve_weighted, w)
        dectree = call("bounds.dectree_bound", bounds.dectree_bound, w)
        certs = call("bounds.certify_lower_bound", bounds.certify_lower_bound, w)
        counts["bounds.vectors"] += 1
        counts["bounds.certificates"] += len(certs)
        counts["bounds.tight"] += bool(certs) and max(c.bound for c in certs) == m
        unsound = [c.to_json() for c in [dectree, *certs] if c.bound > m]
        expect(not unsound, f"certificates above m={m}: {unsound}")
        upper = bounds.hardness_upper_bound(w)
        expect(m <= upper, f"m={m} above the trivial upper bound {upper}")
        p = balanced_colorings(w)
        mu = (p & -p).bit_length() - 1 if p else None
        if mu is not None and mu <= 2:
            expect(m == len(w) - mu, f"m={m}, want k - mu(p) = {len(w) - mu}")

    return Instance(f"weights {w}", run)


def c5_vectors() -> list[tuple[int, ...]]:
    """The 500 vectors criterion C5 draws at its default seed 0: k in 1..8, entries 0..10."""
    rng = random.Random(0)
    out = []
    for _ in range(500):
        k = rng.randint(1, 8)
        out.append(tuple(sorted((rng.randint(0, 10) for _ in range(k)), reverse=True)))
    return out


def weights(seed: int, call) -> list[Instance]:
    """C5's own 500 vectors, in an order drawn from `seed`.

    certify_lower_bound's cost is heavy-tailed: the ten costliest vectors
    of a draw take about half to two thirds of its time, so a pass over a
    fresh draw took 7.5 s to 16 s depending on the seed.  A fixed set keeps
    runs comparable across seeds; the seed decides the order in which the
    cold memo fills.
    """
    vectors = c5_vectors()
    random.Random(seed).shuffle(vectors)
    return [weight_instance(w) for w in vectors]


# -- certificates -----------------------------------------------------------


def path_cert_instance(graph, coloring: str) -> Instance:
    def run(call, counts):
        dp = call("nondet.path_cert", nondet.path_cert, coloring).size
        brute = call("nondet.cert", nondet.cert, graph, coloring).size
        expect(dp == brute, f"path_cert size {dp}, brute-force cert size {brute}")

    return Instance(f"path_cert vs cert, coloring {coloring}", run)


def query_set_instance(graph, coloring: str) -> Instance:
    n = len(coloring)

    def run(call, counts):
        qs = call("nondet.nondet_query_set", nondet.nondet_query_set, coloring)
        got = nondet.induced_outcome(graph, coloring, qs)
        truth = coloring_outcome(coloring)
        expect(got is not None, "query set does not certify")
        expect((got.majority is None) == (truth.majority is None), f"outcome {got}, truth {truth}")
        if got.majority is not None:
            expect(coloring[got.majority] == coloring[truth.majority], f"outcome {got}, truth {truth}")
        limit = n - math.isqrt(n) / 5
        expect(len(qs) <= limit, f"query set size {len(qs)} above n - isqrt(n)/5 = {limit}")

    return Instance(f"nondet_query_set, coloring {coloring}", run)


def querier_instance(n: int, graph) -> Instance:
    budget = n - b(n)

    def run(call, counts):
        report = call("constructions.verify_querier", constructions.verify_querier, graph, constructions.minedge_querier(n), budget)
        counts["constructions.leaves_checked"] += report.leaves_checked
        expect(report.passed, f"max queries {report.max_queries} of budget {budget}; path {report.failure_path[:3]}")

    return Instance(f"verify_querier(minedge n={n}, budget={budget})", run)


def certificates(seed: int, call) -> list[Instance]:
    """path_cert against brute force on all 1,023 colourings of P_n, n <= 10;
    query sets for 1,000 seeded odd-path colourings, n <= 201; the minedge
    querier's answer tree for n = 4..16.  Brute force on P_11 would triple
    the pass and leave too few passes per run to time it steadily."""
    out = []
    for n in range(1, 11):
        g = call("generators.path_graph", generators.path_graph, n)
        for bits in range(2 ** (n - 1)):
            coloring = "R" + "".join("R" if (bits >> i) & 1 else "B" for i in range(n - 1))
            out.append(path_cert_instance(g, coloring))
    rng = random.Random(seed)
    paths = {}
    for _ in range(1000):
        n = rng.choice(range(3, 202, 2))
        coloring = "".join(rng.choice("RB") for _ in range(n))
        if n not in paths:
            paths[n] = call("generators.path_graph", generators.path_graph, n)
        out.append(query_set_instance(paths[n], coloring))
    for n in range(4, 17):
        g = call("constructions.build_minedge_graph", constructions.build_minedge_graph, n).graph
        out.append(querier_instance(n, g))
    return out


WORKLOADS = {
    "paths": paths,
    "trees": trees,
    "weights": weights,
    "certificates": certificates,
}
