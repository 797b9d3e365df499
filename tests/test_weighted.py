"""Weighted-game solver against an independent brute-force oracle."""

import itertools
import math
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    fixed_ball_parities,
    gf2_factors,
    gf2_product,
    gf2_quotient,
    reference_adversarial_merge_weight,
    reference_optimal_query,
    reference_solve,
    signed_sum_parity,
)

from majority_game import weighted
from majority_game.bounds import count_balanced, popcount
from majority_game.generators import path_graph
from majority_game.graphsolver import solve_graph
from majority_game.suites import c5_vectors
from majority_game.weighted import (
    adversarial_merge_weight,
    optimal_query,
    relevance_threshold,
    relevant,
    relevant_indices,
    signed_sum_counts,
    solve_weighted,
    strip_zeros,
    weight_multisets,
    weighted_terminal,
)


@lru_cache(maxsize=None)
def naive_value(w: tuple) -> int:
    """Reference minimax over index pairs, no state reductions at all."""
    total = sum(w)
    if total == 0:
        return 0
    if max(w) > total - max(w):
        return 0
    best = None
    for i, j in itertools.combinations(range(len(w)), 2):
        rest = tuple(w[t] for t in range(len(w)) if t not in (i, j))
        down = max(
            naive_value(tuple(sorted(rest + (w[i] + w[j],)))),
            naive_value(tuple(sorted(rest + (abs(w[i] - w[j]),)))),
        )
        best = down if best is None else min(best, down)
    return 1 + best


def all_vectors(max_sum):
    for s in range(max_sum + 1):
        for k in range(1, s + 1):
            for combo in itertools.combinations_with_replacement(range(1, s + 1), k):
                if sum(combo) == s:
                    yield tuple(sorted(combo, reverse=True))


def test_solver_matches_naive_oracle():
    # from a cold memo, so no entry left by another test can hide a wrong one,
    # largest first, so that the recursion, not this loop, fills the memo
    weighted.clear()
    for w in reversed(list(all_vectors(10))):
        for v in (w, w + (0,)):
            assert solve_weighted(v) == naive_value(tuple(sorted(v))), v
    for w in [(0,), (0, 0), (1, 1, 1, 0, 0)]:
        assert solve_weighted(w) == naive_value(w)
    # the SAME child is skipped when a move cannot win, never solved in part
    for key, value in weighted._memo.items():
        assert value == naive_value(tuple(sorted(key))), key


@pytest.mark.parametrize("vectors", [c5_vectors(), [(1,) * 24]], ids=["C5", "ones24"])
def test_cold_memo_matches_the_sorting_reference(vectors):
    # spliced children, same move order, and the counting bound on top: a
    # subset of the reference's states, each with the reference's value
    weighted.clear()
    memo = {}
    for w in vectors:
        assert solve_weighted(w) == reference_solve(strip_zeros(tuple(sorted(w, reverse=True))), memo), w
    assert all(memo.get(key) == value for key, value in weighted._memo.items())
    if len(vectors) > 1:  # C5: the bound closes and cuts searches, so fewer states
        assert len(weighted._memo) < len(memo)


K11_ROWS = [(7, 7, 1, 5, 9, 8, 7, 5, 8, 6, 10), (3, 10, 2, 5, 2, 8, 8, 8, 11, 7, 4), (1, 2, 2, 6, 3, 12, 11, 5, 5, 10, 4)]


def test_solver_matches_the_unpruned_reference():
    # the solver reads the counting bound, so only a search without it is an
    # independent check: from a cold memo, largest first, every value and
    # every memo entry against the reference's
    weighted.clear()
    memo = {}
    vectors = weight_multisets(24) + c5_vectors() + K11_ROWS + [(1,) * k for k in range(1, 33)]
    for w in sorted(vectors, key=lambda v: (sum(v), len(v)), reverse=True):
        assert solve_weighted(w) == reference_solve(strip_zeros(tuple(sorted(w, reverse=True))), memo), w
    assert all(memo.get(key) == value for key, value in weighted._memo.items())


def test_optimal_query_and_merge_match_the_sorting_reference():
    memo = {}
    for base in weight_multisets(12):
        for v in (base, base + (0,), base + (0, 0)):
            assert optimal_query(v) == reference_optimal_query(v, memo), v
            for a in set(v):
                for b in set(v):
                    if a == b and v.count(a) < 2:
                        continue
                    assert adversarial_merge_weight(v, a, b) == reference_adversarial_merge_weight(v, a, b, memo)


@pytest.mark.parametrize("k", range(1, 49))
def test_all_ones_value(k):
    assert solve_weighted((1,) * k) == k - popcount(k)


def test_paper_vectors():
    assert solve_weighted((1, 2, 3, 4, 5, 6, 7)) == 5
    assert solve_weighted((3, 3, 7, 8, 9)) == 4


def test_small_vector_by_full_minimax():
    assert solve_weighted((2, 1, 1)) == 2
    assert naive_value((1, 1, 2)) == 2


def test_terminal_classification():
    assert weighted_terminal((0, 0)).winner is None
    assert weighted_terminal((5, 1, 1, 1)).winner == 0
    assert weighted_terminal((3, 1, 1, 1)) is None  # 3 equals the rest
    assert weighted_terminal(()).winner is None


def test_relevance_examples():
    assert not relevant((3, 1), 1)
    assert relevant((3, 1), 0)
    assert all(relevant((2, 1, 1), i) for i in range(3))
    assert relevant((4, 2, 2), 0)


def test_relevance_by_enumeration():
    # brute-force the definition: some coloring of the others flips the outcome
    def brute(w, i):
        others = [w[t] for t in range(len(w)) if t != i]
        for signs in itertools.product((1, -1), repeat=len(others)):
            s = sum(a * b for a, b in zip(others, signs))
            red, blue = s + w[i], s - w[i]
            if (red > 0) != (blue > 0) or (red == 0) != (blue == 0):
                return True
        return False

    for w in all_vectors(9):
        for i in range(len(w)):
            assert relevant(w, i) == brute(w, i), (w, i)


def test_weight_multisets_in_filter_order():
    assert weight_multisets(10) == list(all_vectors(10))
    assert weight_multisets(0) == []


def test_signed_sum_counts_by_enumeration():
    # up to two zero balls; on the all-zero vectors one count reaches 2^k
    for base in [()] + list(all_vectors(10)):
        for zeros in range(3):
            w = base + (0,) * zeros
            sums = Counter(
                sum(s * x for s, x in zip(signs, w))
                for signs in itertools.product((1, -1), repeat=len(w))
            )
            assert signed_sum_counts(w) == dict(sums), w


def test_signed_sum_counts_on_huge_weights_and_wide_fields():
    # a few huge weights: 2^k sign vectors, whatever the total
    assert signed_sum_counts((10**9, 10**9 - 1, 3)) == {
        s: 1 for s in (-2 * 10**9 + 4, -2 * 10**9 - 2, -4, 2, -2, 4, 2 * 10**9 + 2, 2 * 10**9 - 4)
    }
    assert count_balanced((10**6, 10**6 - 3, 3)) == 2
    assert count_balanced((10**6, 10**6 - 1, 3)) == 0
    assert relevant((10**6, 3, 1), 0) and not relevant((10**6, 3, 1), 1)
    # a count of 2^63 fills a 64-bit word; 2^64 and up are kept as dict terms
    assert signed_sum_counts((0,) * 63) == {0: 2**63}
    assert signed_sum_counts((0,) * 64) == {0: 2**64}
    assert signed_sum_counts((1,) * 62 + (0,)) == {2 * j - 62: 2 * math.comb(62, j) for j in range(63)}
    assert signed_sum_counts((1,) * 64) == {2 * j - 64: math.comb(64, j) for j in range(65)}


def test_signed_sum_parity_matches_the_counts():
    # the plain vectors and the zero-ball ones take the one-integer form;
    # scaled by 10^4 they take the exponent-set form, and scaled by 10^20
    # no integer could hold the product, so only that form can answer
    for base in [()] + weight_multisets(12):
        for w in (base, base + (0,), tuple(10**4 * x for x in base), tuple(10**20 * x for x in base)):
            counts = signed_sum_counts(w)
            ends = sorted({e for s in counts for e in (s - 1, s)})
            windows = [(lo, hi) for lo in ends for hi in ends if lo < hi]
            outside = max(ends) + 1
            windows += [(-outside - 2, -outside), (outside, outside + 2), (outside, -outside)]
            for lo, hi in windows:
                inside = sum(c for s, c in counts.items() if lo < s <= hi)
                assert signed_sum_parity(w, lo, hi) == inside % 2, (w, lo, hi)


def test_fixed_ball_parities_match_the_counts():
    # the one-integer product, zero balls (t = 0 too), and weights scaled
    # past what one integer holds
    for base in weight_multisets(9):
        for w, scale in [(base, 1), (base + (0,), 1), (base + (0, 0), 1), (tuple(10**20 * x for x in base), 10**20)]:
            for lo, hi in [(-scale, 0), (-3 * scale, 3 * scale), (0, 5 * scale), (-len(w) * scale, 2 * scale)]:
                want = []
                for t in sorted(set(w), reverse=True):
                    others = list(w)
                    others.remove(t)
                    inside = sum(c for s, c in signed_sum_counts(others).items() if lo < t + s <= hi)
                    want.append((t, inside % 2))
                assert list(fixed_ball_parities(w, lo, hi)) == want, (w, lo, hi)


def test_gf2_quotient_removes_one_factor():
    for w in weight_multisets(12):
        total = sum(w)
        poly = gf2_product(gf2_factors(w), total)
        for t in set(w):
            others = list(w)
            others.remove(t)
            want = gf2_product(gf2_factors(tuple(others)), total - t)
            got = gf2_quotient(poly, t, total - t) & ((1 << (total - t + 1)) - 1)
            assert got == want, (w, t)


def test_relevance_threshold_examples():
    assert relevance_threshold((3, 1)) == 1
    assert relevance_threshold((1, 1, 1)) == 0
    assert relevance_threshold((0, 0)) == 0
    assert relevant_indices((0, 0)) == ()


def test_optimal_query_is_smallest_optimal_pair():
    assert optimal_query((1, 1, 1, 1)) == (0, 1)
    assert optimal_query((5, 1, 1, 1)) is None


def test_adversarial_merge_is_a_legal_choice():
    w = (3, 2, 2, 1)
    got = adversarial_merge_weight(w, 2, 2)
    assert got in (4, 0)


@given(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=6))
def test_permutation_invariance(ws):
    base = solve_weighted(tuple(ws))
    assert solve_weighted(tuple(reversed(ws))) == base
    assert solve_weighted(tuple(sorted(ws))) == base


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=6))
def test_upper_bounds(ws):
    w = tuple(ws)
    k = len(w)
    m = solve_weighted(w)
    assert 0 <= m <= max(0, k - 1)
    if sum(w) % 2 == 1 and k >= 2:
        assert m <= k - 2


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5),
       st.integers(min_value=2, max_value=3))
def test_scale_invariance(ws, c):
    w = tuple(ws)
    assert solve_weighted(tuple(c * x for x in w)) == solve_weighted(w)


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5))
def test_zero_removal(ws):
    w = tuple(ws)
    assert solve_weighted(w + (0,)) == solve_weighted(w)


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=6))
def test_relevant_ball_stays_relevant_after_same(ws):
    # a SAME answer folds a relevant queried ball into a still-relevant one
    w = tuple(ws)
    for i in range(len(w)):
        if not relevant(w, i):
            continue
        for j in range(len(w)):
            if j == i:
                continue
            rest = tuple(w[t] for t in range(len(w)) if t not in (i, j))
            succ = rest + (w[i] + w[j],)
            assert relevant(succ, len(rest))


def test_memo_can_be_cleared():
    weighted.clear()
    assert weighted.cache_info()["size"] == 0
    value = solve_graph(path_graph(9)).value  # the graph search's bounds fill it
    assert weighted.cache_info()["size"] > 0
    weighted.clear()
    assert weighted.cache_info()["size"] == 0 and not weighted._memo
    assert solve_graph(path_graph(9)).value == value
    assert weighted.cache_info()["size"] > 0
