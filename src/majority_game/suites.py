"""Acceptance check suites, shared by the CLI and the test suite.

Each criterion function takes the suite's seed, which a criterion with no
random draws ignores, and returns a list of check records; a record
carries a standalone reproduction command.  Values asserted here are
exact integers.  ``SUITES`` is the one place that groups the criteria
into suites: the command line's suite names, ``run_suite`` and the
repro commands that rerun a whole suite all read it.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from . import adversary as adv
from . import bounds, constructions, generators, nondet, weighted
from .bounds import CertificateSource, popcount
from .core import Graph, InputError, merge_weights
from .graphsolver import forced_queries, solve_graph


@dataclass
class CheckRecord:
    name: str
    ok: bool
    detail: str
    repro: str
    done_at: float = field(default_factory=time.perf_counter)  # when the check finished

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}  (repro: {self.repro})"


def _rerun(criterion, seed: int | None = None) -> str:
    """The command that reruns the suite holding ``criterion``."""
    name = next(name for name, criteria in SUITES.items() if criterion in criteria)
    return f"majority-game run-suite {name}" + ("" if seed is None else f" --seed {seed}")


# -- criterion 1: complete graphs / all-ones vectors -----------------------


def criterion_1(seed: int = 0) -> list[CheckRecord]:
    recs = []
    bad = [
        k for k in range(1, 19)
        if weighted.solve_weighted((1,) * k) != k - popcount(k)
    ]
    recs.append(
        CheckRecord(
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
        CheckRecord(
            "C1 complete graphs",
            not bad,
            f"m(K_n) = n-b(n) for n=1..10; mismatches: {bad}",
            "majority-game generate complete 8 | majority-game solve-graph -",
        )
    )
    return recs


# -- criterion 2: paths -----------------------------------------------------


def criterion_2(seed: int = 0) -> list[CheckRecord]:
    recs = []
    bad = []
    for n in range(3, 14, 2):
        got = solve_graph(generators.path_graph(n)).value
        if got != n - popcount(n):
            bad.append((n, got))
    recs.append(
        CheckRecord(
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
        CheckRecord(
            "C2 even paths n<=14",
            not bad,
            f"m(P_n) = n-1 for even n <= 14; mismatches: {bad}",
            "majority-game generate path 14 | majority-game solve-graph -",
        )
    )
    got = solve_graph(generators.path_graph(15)).value
    recs.append(
        CheckRecord(
            "C2 P15",
            got == 12,
            f"m(P_15) = {got}, expected 12",
            "majority-game generate path 15 | majority-game solve-graph -",
        )
    )
    return recs


# -- criterion 3: even trees ------------------------------------------------


def criterion_3(seed: int = 0) -> list[CheckRecord]:
    recs = []
    for n in (4, 6, 8, 10):
        trees = list(generators.free_trees(n))
        values = [solve_graph(g).value for g in trees]
        bad = [i for i, v in enumerate(values) if v != n - 1]
        recs.append(
            CheckRecord(
                f"C3 even trees n={n}",
                not bad,
                f"{len(trees)} free trees, all m(T) = {n - 1}; failing indices: {bad}",
                _rerun(criterion_3),
            )
        )
    return recs


# -- criterion 4: named weighted vectors -------------------------------------


def criterion_4(seed: int = 0) -> list[CheckRecord]:
    recs = []
    w = (1, 2, 3, 4, 5, 6, 7)
    recs.append(
        CheckRecord(
            "C4 m(1..7)",
            weighted.solve_weighted(w) == 5 and bounds.count_balanced(w) == 8,
            f"m{w} = {weighted.solve_weighted(w)} (want 5), balanced colorings ="
            f" {bounds.count_balanced(w)} (want 8)",
            "majority-game solve-weighted 1,2,3,4,5,6,7",
        )
    )
    recs.append(
        CheckRecord(
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
        CheckRecord(
            "C4 equal-head certificates",
            ok,
            f"m(3,3,5,5,5) = {m2} >= 3; certificates {sorted(c.value for c in certs1)} /"
            f" {sorted(c.value for c in certs2)}",
            "majority-game certify 3,3,5,5,5",
        )
    )
    return recs


# -- criterion 5: bound soundness -------------------------------------------


def c5_vectors(seed: int = 0) -> list[tuple[int, ...]]:
    """Criterion 5's 500 random vectors: k in 1..8, entries 0..10."""
    rng = random.Random(seed)
    out = []
    for _ in range(500):
        k = rng.randint(1, 8)
        out.append(tuple(sorted((rng.randint(0, 10) for _ in range(k)), reverse=True)))
    return out


def criterion_5(seed: int = 0) -> list[CheckRecord]:
    unsound = []
    mu_mismatch = []
    for w in c5_vectors(seed):
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
        CheckRecord(
            "C5 certificate soundness",
            not unsound,
            f"500 random vectors (seed {seed}): unsound certificates: {unsound[:3]}",
            _rerun(criterion_5, seed),
        ),
        CheckRecord(
            "C5 mu(p)<=2 equality",
            not mu_mismatch,
            f"m = k - mu(p) whenever mu(p) <= 2; mismatches: {mu_mismatch[:3]}",
            _rerun(criterion_5, seed),
        ),
    ]


# -- criterion 6: terminal/relevance equivalence ----------------------------


def criterion_6(seed: int = 0) -> list[CheckRecord]:
    vectors = weighted.weight_multisets(12)
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
                for merged in merge_weights(w[i], w[j]):
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
            CheckRecord(
                f"C6 {label}",
                not failures[key],
                f"{len(vectors)} vectors with sum <= 12; failures: {failures[key][:3]}",
                _rerun(criterion_6),
            )
        )
    return recs


# -- criterion 7: adversary strategies --------------------------------------


def c7_random_trees(seed: int = 0) -> list:
    """C7's 24 seeded random trees, four for each n = 9..14."""
    rng = random.Random(seed)
    return [generators.random_tree(n, seed=rng.randrange(10 ** 6)) for n in range(9, 15) for _ in range(4)]


def criterion_7(seed: int = 0) -> list[CheckRecord]:
    recs = []
    trees = [g for n in range(2, 9) for g in generators.free_trees(n)] + c7_random_trees(seed)
    bad = [(g.n, g.sorted_edges) for g in trees if not adv.verify_treelemma_all_orders(g)]
    recs.append(
        CheckRecord(
            "C7 weight-discipline conditions",
            not bad,
            f"lemma conditions hold in every state of every query order on all free trees"
            f" n <= 8 and 24 random trees n = 9..14; failures: {bad[:2]}",
            _rerun(criterion_7, seed),
        )
    )
    bad = []
    for n in range(2, 13, 2):
        for g in generators.free_trees(n):
            got = forced_queries(g, adv.TreelemmaAdversary(g))
            if got != n - 1:
                bad.append((n, got, g.sorted_edges))
    recs.append(
        CheckRecord(
            "C7 forced queries on even trees",
            not bad,
            f"weight-discipline adversary forces n-1 on all even free trees n <= 12; failures: {bad[:2]}",
            _rerun(criterion_7, seed),
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
        CheckRecord(
            "C7 even-tree colorings",
            not bad,
            "balanced colorings with every edge-cut unbalanced on all even free trees n <= 12"
            f"; failures: {bad[:2]}",
            _rerun(criterion_7, seed),
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
        CheckRecord(
            "C7 odd-tree adversary playback",
            not violations,
            f"100 random trees (n <= 31, seed {seed + 1}): violations: {violations[:2]}",
            _rerun(criterion_7, seed),
        )
    )
    return recs


# -- criterion 8: the sparse construction ------------------------------------


def criterion_8(seed: int = 0) -> list[CheckRecord]:
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
        CheckRecord(
            "C8 edge budget",
            not bad_budget,
            f"|E| <= n(1+b(n)) for n=4..16; failures: {bad_budget}",
            "majority-game generate minedge 12",
        )
    )
    recs.append(
        CheckRecord(
            "C8 querier within n-b(n)",
            not bad_verify,
            f"exhaustive answer-tree verification for n=4..16; failures: {bad_verify[:2]}",
            "majority-game verify minedge --n 12",
        )
    )
    bad = []
    for n in range(4, 13):
        got = solve_graph(constructions.build_minedge_graph(n).graph).value
        if got != n - popcount(n):
            bad.append((n, got))
    recs.append(
        CheckRecord(
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
        CheckRecord(
            "C9 even paths",
            not bad,
            f"m_nd(P_n) = n-1 for even n <= 12; failures: {bad}",
            "majority-game generate path 12 | majority-game nondet mnd -",
        )
    )
    bad = []
    for n in range(1, 12):
        g = generators.path_graph(n)
        for coloring in nondet.colorings(n):
            a = nondet.path_cert(coloring)
            b = nondet.cert(g, coloring)
            if a != b:
                bad.append((coloring, a.size, b.size))
    recs.append(
        CheckRecord(
            "C9 path DP agrees with brute force",
            not bad,
            f"path_cert(c) == cert(P_n, c) on all colorings of P_n, n <= 11;"
            f" mismatches (coloring, sizes): {bad[:3]}",
            "majority-game generate path 5 | majority-game nondet cert - RRBRR",
        )
    )
    hard = nondet.nondet_hard_coloring(4)
    size = nondet.path_cert(hard).size
    recs.append(
        CheckRecord(
            "C9 hard coloring lower bound",
            size >= 8,
            f"cert(P_17, batch coloring) = {size} >= 8",
            f"majority-game generate path 17 | majority-game nondet cert - {hard}",
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
        CheckRecord(
            "C9 constructed query sets",
            not bad,
            f"1000 random odd paths (n <= 201, seed {seed}): all certify and save"
            f" >= floor(sqrt(n))/5 queries; failures: {bad[:3]}",
            _rerun(criterion_9, seed),
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
        CheckRecord(
            "C10 edge monotonicity",
            not bad,
            f"200 nested solvable pairs (seed {seed}); violations: {bad[:1]}",
            _rerun(criterion_10, seed),
        )
    ]
    bad_scale, bad_zero = [], []
    for w in weighted.weight_multisets(12):
        m = weighted.solve_weighted(w)
        if weighted.solve_weighted(w + (0,)) != m:
            bad_zero.append(w)
        for c in (2, 3):
            if weighted.solve_weighted(tuple(c * x for x in w)) != m:
                bad_scale.append((w, c))
    recs.append(
        CheckRecord(
            "C10 scale and zero-removal invariance",
            not (bad_scale or bad_zero),
            f"all vectors with sum <= 12; scale failures: {bad_scale[:3]},"
            f" zero failures: {bad_zero[:3]}",
            _rerun(criterion_10),
        )
    )
    return recs


SUITES = {
    "paper-values": (criterion_1, criterion_2, criterion_3, criterion_4),
    "properties": (criterion_5, criterion_6, criterion_10),
    "adversaries": (criterion_7,),
    "constructions": (criterion_8,),
    "nondet": (criterion_9,),
}


def run_suite(name: str, seed: int = 0) -> list[CheckRecord]:
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    return [r for criterion in SUITES[name] for r in criterion(seed=seed)]
