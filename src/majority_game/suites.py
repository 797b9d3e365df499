"""Acceptance check suites, shared by the CLI and the test suite.

Each criterion function returns a list of check records; a record carries
a standalone reproduction command.  Values asserted here are exact
integers.  Suites group the criteria: paper-values (1-4), properties
(5, 6, 10), adversaries (7), constructions (8), nondet (9).
"""

from __future__ import annotations

import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations_with_replacement

from . import adversary as adv
from . import bounds, constructions, generators, nondet, weighted
from .bounds import CertificateSource, popcount
from .core import Graph
from .graphsolver import forced_queries, solve_graph


@dataclass
class CheckRecord:
    suite: str
    name: str
    ok: bool
    detail: str
    repro: str

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}  (repro: {self.repro})"


def _rec(suite, name, ok, detail, repro) -> CheckRecord:
    return CheckRecord(suite, name, bool(ok), detail, repro)


def _partitions_up_to(total: int):
    """All positive-weight multisets with sum <= total (sorted descending)."""
    out = []
    for s in range(0, total + 1):
        for k in range(1, s + 1):
            for combo in combinations_with_replacement(range(1, s + 1), k):
                if sum(combo) == s:
                    out.append(tuple(sorted(combo, reverse=True)))
    return out


def _tree_value(edges: tuple, n: int) -> int:
    return solve_graph(Graph.from_edges(n, edges)).value


def _pool_size(threads: int | None) -> int:
    if threads is None:
        threads = int(os.environ.get("MAJORITY_GAME_THREADS", "1"))
    return max(1, threads)


def _tree_values(trees: list[Graph], threads: int | None) -> list[int]:
    jobs = [(tuple(g.sorted_edges), g.n) for g in trees]
    workers = _pool_size(threads)
    if workers <= 1:
        return [_tree_value(e, n) for e, n in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_tree_value, *zip(*jobs)))


# -- criterion 1: complete graphs / all-ones vectors -----------------------


def criterion_1() -> list[CheckRecord]:
    recs = []
    bad = [
        k for k in range(1, 19)
        if weighted.solve_weighted((1,) * k) != k - popcount(k)
    ]
    recs.append(
        _rec(
            "paper-values",
            "C1 all-ones vectors",
            not bad,
            f"m(1^k) = k-b(k) for k=1..18; mismatches: {bad}",
            "majority-game solve-weighted 1,1,1,1,1,1,1",
        )
    )
    bad = [
        n for n in range(1, 11)
        if solve_graph(generators.complete_graph(n)).value != n - popcount(n)
    ]
    recs.append(
        _rec(
            "paper-values",
            "C1 complete graphs",
            not bad,
            f"m(K_n) = n-b(n) for n=1..10; mismatches: {bad}",
            "majority-game generate complete 8 | majority-game solve-graph -",
        )
    )
    return recs


# -- criterion 2: paths -----------------------------------------------------


def criterion_2(full: bool = True) -> list[CheckRecord]:
    recs = []
    bad = []
    for n in range(3, 14, 2):
        got = solve_graph(generators.path_graph(n)).value
        if got != n - popcount(n):
            bad.append((n, got))
    recs.append(
        _rec(
            "paper-values",
            "C2 odd paths n<=13",
            not bad,
            f"m(P_n) = n-b(n) for odd n in 3..13; mismatches: {bad}",
            "majority-game generate path 13 | majority-game solve-graph -",
        )
    )
    bad = []
    for n in range(2, 15, 2):
        got = solve_graph(generators.path_graph(n)).value
        if got != n - 1:
            bad.append((n, got))
    recs.append(
        _rec(
            "paper-values",
            "C2 even paths n<=14",
            not bad,
            f"m(P_n) = n-1 for even n <= 14; mismatches: {bad}",
            "majority-game generate path 14 | majority-game solve-graph -",
        )
    )
    if full:
        got = solve_graph(generators.path_graph(15), canonical="path").value
        recs.append(
            _rec(
                "paper-values",
                "C2 P15",
                got == 12,
                f"m(P_15) = {got}, expected 12",
                "majority-game generate path 15 | majority-game solve-graph - --canonical path",
            )
        )
    return recs


# -- criterion 3: even trees ------------------------------------------------


def criterion_3(threads: int | None = None) -> list[CheckRecord]:
    recs = []
    for n in (4, 6, 8, 10):
        trees = list(generators.free_trees(n))
        values = _tree_values(trees, threads)
        bad = [i for i, v in enumerate(values) if v != n - 1]
        recs.append(
            _rec(
                "paper-values",
                f"C3 even trees n={n}",
                not bad,
                f"{len(trees)} free trees, all m(T) = {n - 1}; failing indices: {bad}",
                f"majority-game run-suite paper-values",
            )
        )
    return recs


# -- criterion 4: named weighted vectors -------------------------------------


def criterion_4() -> list[CheckRecord]:
    recs = []
    w = (1, 2, 3, 4, 5, 6, 7)
    recs.append(
        _rec(
            "paper-values",
            "C4 m(1..7)",
            weighted.solve_weighted(w) == 5 and bounds.count_balanced(w) == 8,
            f"m{w} = {weighted.solve_weighted(w)} (want 5), balanced colorings ="
            f" {bounds.count_balanced(w)} (want 8)",
            "majority-game solve-weighted 1,2,3,4,5,6,7",
        )
    )
    recs.append(
        _rec(
            "paper-values",
            "C4 m(3,3,7,8,9)",
            weighted.solve_weighted((3, 3, 7, 8, 9)) == 4,
            f"m(3,3,7,8,9) = {weighted.solve_weighted((3, 3, 7, 8, 9))} (want 4)",
            "majority-game solve-weighted 3,3,7,8,9",
        )
    )
    m2 = weighted.solve_weighted((3, 3, 5, 5, 5))
    certs1 = {c.source for c in bounds.certify_lower_bound((3, 3, 7, 8, 9))}
    certs2 = {c.source for c in bounds.certify_lower_bound((3, 3, 5, 5, 5))}
    ok = (
        m2 >= 3
        and CertificateSource.SULY1FORMA_I in certs1
        and CertificateSource.SULY1FORMA_II in certs2
    )
    recs.append(
        _rec(
            "paper-values",
            "C4 equal-head certificates",
            ok,
            f"m(3,3,5,5,5) = {m2} >= 3; certificates {sorted(c.value for c in certs1)} /"
            f" {sorted(c.value for c in certs2)}",
            "majority-game certify 3,3,5,5,5",
        )
    )
    return recs


# -- criterion 5: bound soundness -------------------------------------------


def criterion_5(seed: int = 0) -> list[CheckRecord]:
    rng = random.Random(seed)
    unsound = []
    mu_mismatch = []
    for _ in range(500):
        k = rng.randint(1, 8)
        w = tuple(sorted((rng.randint(0, 10) for _ in range(k)), reverse=True))
        m = weighted.solve_weighted(w)
        d = bounds.dectree_bound(w)
        if d.bound > m:
            unsound.append((w, d.to_json()))
        for c in bounds.certify_lower_bound(w):
            if c.bound > m:
                unsound.append((w, c.to_json()))
        mu_p = bounds.two_adic_valuation(bounds.count_balanced(w))
        if mu_p is not bounds.MU_INFINITE and mu_p <= 2 and m != len(w) - mu_p:
            mu_mismatch.append((w, m, mu_p))
    return [
        _rec(
            "properties",
            "C5 certificate soundness",
            not unsound,
            f"500 random vectors (seed {seed}): unsound certificates: {unsound[:3]}",
            f"majority-game run-suite properties --seed {seed}",
        ),
        _rec(
            "properties",
            "C5 mu(p)<=2 equality",
            not mu_mismatch,
            f"m = k - mu(p) whenever mu(p) <= 2; mismatches: {mu_mismatch[:3]}",
            f"majority-game run-suite properties --seed {seed}",
        ),
    ]


# -- criterion 6: terminal/relevance equivalence ----------------------------


def _relevant_count(w) -> int:
    return len(weighted.relevant_indices(w))


def criterion_6() -> list[CheckRecord]:
    vectors = _partitions_up_to(12)
    vectors += [v + (0,) for v in vectors[:200]]
    failures: dict[str, list] = {"equiv": [], "threshold": [], "survival": [], "drop": [], "pair": []}
    for w in vectors:
        term = weighted.weighted_terminal(w) is not None
        rel = weighted.relevant_indices(w)
        if term != (len(rel) <= 1):
            failures["equiv"].append(w)
        t = weighted.relevance_threshold(w)
        for i in range(len(w)):
            if weighted.relevant(w, i) != (w[i] > t):
                failures["threshold"].append((w, i))
        if len(rel) == 2 and w[rel[0]] != w[rel[1]]:
            failures["pair"].append(w)
        if term:
            continue
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                outside = [x for x in rel if x not in (i, j)]
                checked_survival = bool(outside)
                min_out = min((w[x] for x in outside), default=None)
                survived = False
                dropped_ok = False
                for merged in (w[i] + w[j], abs(w[i] - w[j])):
                    succ = tuple(w[t] for t in range(len(w)) if t not in (i, j)) + (merged,)
                    succ_rel = weighted.relevant_indices(succ)
                    if checked_survival:
                        pos = [t for t in range(len(w)) if t not in (i, j)]
                        keep = [s for s, t in enumerate(pos) if w[t] == min_out]
                        if any(s in succ_rel for s in keep):
                            survived = True
                    if len(succ_rel) >= len(rel) - 2:
                        dropped_ok = True
                if checked_survival and not survived:
                    failures["survival"].append((w, i, j))
                if not dropped_ok:
                    failures["drop"].append((w, i, j))
    recs = []
    for key, label in (
        ("equiv", "terminal iff at most one relevant ball"),
        ("threshold", "relevance threshold"),
        ("pair", "two relevant balls have equal weight"),
        ("survival", "min relevant ball outside a query survives some answer"),
        ("drop", "some answer loses at most two relevant balls"),
    ):
        recs.append(
            _rec(
                "properties",
                f"C6 {label}",
                not failures[key],
                f"{len(vectors)} vectors with sum <= 12; failures: {failures[key][:3]}",
                "majority-game run-suite properties",
            )
        )
    return recs


# -- criterion 7: adversary strategies --------------------------------------


def criterion_7(seed: int = 0) -> list[CheckRecord]:
    recs = []
    bad = []
    for n in range(2, 9):
        for g in generators.free_trees(n):
            if not adv.verify_treelemma_all_orders(g):
                bad.append((n, g.sorted_edges))
    rng = random.Random(seed)
    for n in range(9, 15):
        for trial in range(4):
            g = generators.random_tree(n, seed=rng.randrange(10 ** 6))
            strat = adv.TreelemmaAdversary(g)
            report = adv.treelemma_random_order_check(g, strat, seed=rng.randrange(10 ** 6))
            if report:
                bad.append((n, trial, report))
    recs.append(
        _rec(
            "adversaries",
            "C7 weight-discipline conditions",
            not bad,
            f"lemma conditions hold on all plays; failures: {bad[:2]}",
            f"majority-game run-suite adversaries --seed {seed}",
        )
    )
    bad = []
    for n in (2, 4, 6, 8, 10):
        for g in generators.free_trees(n):
            got = forced_queries(g, adv.TreelemmaAdversary(g))
            if got != n - 1:
                bad.append((n, got, g.sorted_edges))
    recs.append(
        _rec(
            "adversaries",
            "C7 forced queries on even trees",
            not bad,
            f"weight-discipline adversary forces n-1 on even free trees n <= 10; failures: {bad[:2]}",
            f"majority-game run-suite adversaries --seed {seed}",
        )
    )
    bad = []
    for n in (4, 6, 8, 10, 12):
        for g in generators.free_trees(n):
            try:
                adv.eventrees_coloring(g)
            except AssertionError:
                bad.append((n, g.sorted_edges))
    recs.append(
        _rec(
            "adversaries",
            "C7 even-tree colorings",
            not bad,
            "balanced colorings with every edge-cut unbalanced on all even free trees n <= 12"
            f"; failures: {bad[:2]}",
            f"majority-game run-suite adversaries --seed {seed}",
        )
    )
    rng = random.Random(seed + 1)
    violations = []
    for trial in range(100):
        n = rng.choice(range(3, 32, 2))
        g = generators.random_tree(n, seed=rng.randrange(10 ** 6))
        strat = adv.Lefogo2Adversary(g)
        querier = adv.random_querier(seed=rng.randrange(10 ** 6))
        report = adv.covering_playback(g, strat, querier)
        if report.violations:
            violations.append((trial, n, report.violations[:2]))
    recs.append(
        _rec(
            "adversaries",
            "C7 odd-tree adversary playback",
            not violations,
            f"100 random trees (n <= 31, seed {seed + 1}): violations: {violations[:2]}",
            f"majority-game run-suite adversaries --seed {seed}",
        )
    )
    return recs


# -- criterion 8: the sparse construction ------------------------------------


def criterion_8() -> list[CheckRecord]:
    recs = []
    bad_budget, bad_verify = [], []
    for n in range(4, 17):
        built = constructions.build_minedge_graph(n)
        if len(built.graph.edges) > n * (1 + popcount(n)):
            bad_budget.append(n)
        report = constructions.verify_querier(
            built.graph, constructions.minedge_querier(n), n - popcount(n)
        )
        if not report.passed:
            bad_verify.append((n, report.max_queries, report.failure_path[:3]))
    recs.append(
        _rec(
            "constructions",
            "C8 edge budget",
            not bad_budget,
            f"|E| <= n(1+b(n)) for n=4..16; failures: {bad_budget}",
            "majority-game construct minedge 12 --emit graph",
        )
    )
    recs.append(
        _rec(
            "constructions",
            "C8 querier within n-b(n)",
            not bad_verify,
            f"exhaustive answer-tree verification for n=4..16; failures: {bad_verify[:2]}",
            "majority-game construct minedge 12 --emit verify",
        )
    )
    bad = []
    for n in range(4, 13):
        got = solve_graph(constructions.build_minedge_graph(n).graph).value
        if got != n - popcount(n):
            bad.append((n, got))
    recs.append(
        _rec(
            "constructions",
            "C8 exact value",
            not bad,
            f"m(G_n) = n-b(n) for n=4..12; failures: {bad}",
            "majority-game generate minedge 12 | majority-game solve-graph -",
        )
    )
    return recs


# -- criterion 9: non-deterministic complexity --------------------------------


def criterion_9(seed: int = 0) -> list[CheckRecord]:
    recs = []
    bad = []
    for n in range(2, 13, 2):
        got = nondet.m_nd(generators.path_graph(n))
        if got != n - 1:
            bad.append((n, got))
    recs.append(
        _rec(
            "nondet",
            "C9 even paths",
            not bad,
            f"m_nd(P_n) = n-1 for even n <= 12; failures: {bad}",
            "majority-game generate path 12 | majority-game nondet mnd -",
        )
    )
    bad = []
    for n in range(1, 12):
        g = generators.path_graph(n)
        for bits in range(2 ** max(0, n - 1)):
            coloring = "R" + "".join("R" if (bits >> i) & 1 else "B" for i in range(n - 1))
            a = nondet.path_cert(coloring).size
            b = nondet.cert(g, coloring).size
            if a != b:
                bad.append((coloring, a, b))
    recs.append(
        _rec(
            "nondet",
            "C9 path DP agrees with brute force",
            not bad,
            f"all colorings of P_n, n <= 11; mismatches: {bad[:3]}",
            "majority-game nondet cert - RRBRR  (with a path graph on stdin)",
        )
    )
    hard = nondet.nondet_hard_coloring(4)
    size = nondet.path_cert(hard).size
    recs.append(
        _rec(
            "nondet",
            "C9 hard coloring lower bound",
            size >= 8,
            f"cert(P_17, batch coloring) = {size} >= 8",
            "majority-game nondet path-table --odd-n 17..17",
        )
    )
    rng = random.Random(seed)
    bad = []
    for trial in range(1000):
        n = rng.choice(range(3, 202, 2))
        coloring = "".join(rng.choice("RB") for _ in range(n))
        try:
            qs = nondet.nondet_query_set(coloring)
        except AssertionError as exc:
            bad.append((trial, n, f"invalid: {exc}"))
            continue
        if len(qs) > n - math.isqrt(n) / 5:
            bad.append((trial, n, len(qs)))
    recs.append(
        _rec(
            "nondet",
            "C9 constructed query sets",
            not bad,
            f"1000 random odd paths (n <= 201, seed {seed}): all certify and save"
            f" >= floor(sqrt(n))/5 queries; failures: {bad[:3]}",
            f"majority-game run-suite nondet --seed {seed}",
        )
    )
    return recs


# -- criterion 10: monotonicity ----------------------------------------------


def criterion_10(seed: int = 0) -> list[CheckRecord]:
    rng = random.Random(seed)
    bad = []
    done = 0
    while done < 200:
        n = rng.randint(2, 8)
        g_sub = generators.random_graph(n, rng.uniform(0.3, 0.9), seed=rng.randrange(10 ** 6))
        extra = [e for e in generators.complete_graph(n).sorted_edges if e not in g_sub.edges]
        rng.shuffle(extra)
        g_super = Graph.from_edges(n, list(g_sub.edges) + extra[: rng.randint(0, len(extra))])
        if not g_sub.is_majority_solvable() or not g_super.is_majority_solvable():
            continue
        done += 1
        if solve_graph(g_super).value > solve_graph(g_sub).value:
            bad.append((n, sorted(g_sub.edges), sorted(g_super.edges)))
    recs = [
        _rec(
            "properties",
            "C10 edge monotonicity",
            not bad,
            f"200 nested solvable pairs (seed {seed}); violations: {bad[:1]}",
            f"majority-game run-suite properties --seed {seed}",
        )
    ]
    bad_scale, bad_zero = [], []
    for w in _partitions_up_to(12):
        m = weighted.solve_weighted(w)
        if weighted.solve_weighted(w + (0,)) != m:
            bad_zero.append(w)
        for c in (2, 3):
            if weighted.solve_weighted(tuple(c * x for x in w)) != m:
                bad_scale.append((w, c))
    recs.append(
        _rec(
            "properties",
            "C10 scale and zero-removal invariance",
            not (bad_scale or bad_zero),
            f"all vectors with sum <= 12; scale failures: {bad_scale[:3]},"
            f" zero failures: {bad_zero[:3]}",
            "majority-game run-suite properties",
        )
    )
    return recs


SUITES = {
    "paper-values": lambda seed, full, threads: (
        criterion_1() + criterion_2(full=full) + criterion_3(threads=threads) + criterion_4()
    ),
    "properties": lambda seed, full, threads: (
        criterion_5(seed=seed) + criterion_6() + criterion_10(seed=seed)
    ),
    "adversaries": lambda seed, full, threads: criterion_7(seed=seed),
    "constructions": lambda seed, full, threads: criterion_8(),
    "nondet": lambda seed, full, threads: criterion_9(seed=seed),
}


def run_suite(name: str, seed: int = 0, full: bool = True, threads: int | None = None) -> list[CheckRecord]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    return SUITES[name](seed, full, threads)
