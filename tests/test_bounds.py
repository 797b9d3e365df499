"""Counting bounds and lemma-based certificates."""

import collections
import itertools
import math
import random
import tracemalloc

import pytest
from oracles import (
    HEAD_SOURCES,
    base_hard_certificate_both_parts,
    equal_heads,
    gf2_factors,
    gf2_product,
    has_sub_multiset,
    head_certificates,
    obs_reduction,
    reference_certify_lower_bound,
    reference_count_balanced,
    reference_count_majority_with,
    reference_dectree_bound,
    reference_solve,
    suly1forma_both_parts,
)

from majority_game import bounds, nondet, weighted
from majority_game.bounds import (
    MU_INFINITE,
    Certificate,
    CertificateSource,
    certify_lower_bound,
    count_balanced,
    dectree_bound,
    hardness_upper_bound,
    is_hard,
    popcount,
    search_obs_reverse_counterexample,
    two_adic_valuation,
)
from majority_game.core import InputError
from majority_game.suites import c5_vectors
from majority_game.weighted import (
    counting_bound,
    majority_counts,
    normalize,
    signed_sum_counts,
    solve_weighted,
    strip_zeros,
    weight_multisets,
    weighted_terminal,
)


@pytest.mark.parametrize("n,expected", [(7, 3), (8, 1), (13, 3), (0, 0), (1, 1)])
def test_popcount(n, expected):
    assert popcount(n) == expected


@pytest.mark.parametrize("k,expected", [(8, 3), (6, 1), (1, 0), (12, 2)])
def test_two_adic_valuation(k, expected):
    assert two_adic_valuation(k) == expected


def test_valuation_of_zero_is_the_infinite_sentinel():
    assert two_adic_valuation(0) is MU_INFINITE
    assert math.isinf(two_adic_valuation(0))


def test_count_balanced_examples():
    assert count_balanced((1, 2, 3, 4, 5, 6, 7)) == 8
    assert count_balanced((1, 1, 1, 1)) == 6
    assert count_balanced((1, 2)) == 0
    assert count_balanced((0,)) == 2


def _majority_with(w):
    """Each distinct weight x of the zero-free descending w with its p_x
    from `majority_counts`."""
    counts = majority_counts(w)
    next(counts)  # p
    return dict(zip(dict.fromkeys(w), counts))


def test_count_majority_examples():
    assert _majority_with((1, 1))[1] == 2
    assert _majority_with((3, 1))[3] == 4
    assert _majority_with((3, 1))[1] == 2


def test_counting_identity():
    for w in [(1, 1, 1), (2, 1, 1), (3, 2, 2, 1), (1, 2, 3, 4)]:
        counts = signed_sum_counts(w)
        unbalanced = sum(c for s, c in counts.items() if s != 0)
        assert count_balanced(w) == 2 ** len(w) - unbalanced


LARGE_COUNTING = [(10**6, 10**6 - 1, 3, 5, 7), (10**5, 10**5 - 1, 3), (10**9, 10**9 - 1, 3, 3), (10**9, 10**9 - 1, 3)]


def test_counts_match_the_references():
    # p from count_balanced and each p_x from majority_counts on the balls of
    # positive weight, against the signed-sum counts of the whole vector:
    # each of the z zero balls doubles every count
    vectors = [(0,) * 3] + weight_multisets(20) + c5_vectors() + LARGE_COUNTING
    for w in vectors:
        assert count_balanced(w) == reference_count_balanced(w), w
        w = normalize(w)
        z = w.count(0)
        for x, count in _majority_with(w[: len(w) - z]).items():
            assert count << z == reference_count_majority_with(w, w.index(x)), (w, x)
    assert count_balanced(()) == reference_count_balanced(()) == 1


def test_counting_bound_matches_the_reference():
    # zero balls scale the witness counts; the C5 vectors hold some
    vectors = [(), (0,), (0, 0, 0)] + weight_multisets(20) + c5_vectors() + LARGE_COUNTING
    for w in vectors:
        want = reference_dectree_bound(w)
        assert dectree_bound(w) == want, w
        v = strip_zeros(normalize(w))
        assert counting_bound(v)[0] == want.bound, w


def test_large_weights_solve_without_a_total_sized_integer():
    # packed at X = 2^(k + 1), the product for the first vector would be a
    # 1.5 MB integer; the dict route keeps the counts to 2^k terms, and only
    # with it may the 10^9 vectors run
    weighted.clear()
    tracemalloc.start()
    try:
        assert solve_weighted(LARGE_COUNTING[0]) == reference_solve(LARGE_COUNTING[0], {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19, peak
    for w in LARGE_COUNTING[1:]:
        assert solve_weighted(w) == reference_solve(w, {}), w


def test_dectree_examples():
    cert = dectree_bound((1, 1, 1, 1))
    assert cert.bound == 3 and cert.source == CertificateSource.DECTREE_P
    w = (1, 2, 3, 4, 5, 6, 7)
    p = count_balanced(w)
    assert len(w) - two_adic_valuation(p) == 4  # the balanced-count route alone
    assert dectree_bound(w).bound <= solve_weighted(w)
    assert dectree_bound((0,)).bound == 0


def test_lemma_certificates_on_named_vectors():
    sources = {c.source: c.bound for c in certify_lower_bound((3, 3, 7, 8, 9))}
    assert sources[CertificateSource.SULY1FORMA_I] == 4
    sources = {c.source: c.bound for c in certify_lower_bound((3, 3, 5, 5, 5))}
    assert sources[CertificateSource.SULY1FORMA_II] == 3
    sources = {c.source: c.bound for c in certify_lower_bound((2, 1, 1))}
    assert sources[CertificateSource.SULY1_I] == 2
    assert solve_weighted((2, 1, 1)) == 2


def test_equal_head_certificate_on_large_weights():
    # the equal-head parity checks' cost follows the number of factors, not
    # the size of the weights
    assert certify_lower_bound((10**6, 10**6 - 1, 3)) == [
        Certificate(1, CertificateSource.SULY1FORMA_II, {"n": 0, "head": 10**6, "fixed_ball": 10**6 - 1})
    ]


def test_unit_head_exactness():
    # vectors matching the unit-head hypotheses attain the bound exactly
    for w, expected in [((2, 1, 1), 2), ((1, 1, 1, 1), 3), ((2, 2, 1, 1, 1, 1), 5)]:
        sources = {c.source for c in certify_lower_bound(w)}
        assert CertificateSource.SULY1_I in sources
        assert solve_weighted(w) == expected == len(w) - 1

    w = (2, 1, 1, 1)  # total 5 = 2^2 + 1 with two unit balls
    sources = {c.source: c.bound for c in certify_lower_bound(w)}
    assert sources[CertificateSource.SULY1_II] == 2
    assert solve_weighted(w) == 2


def test_zero_weights_are_stripped_before_lemma_checks():
    # literal unit-head premises break on zero balls; stripped they are sound
    certs = certify_lower_bound((1, 1, 1, 0))
    assert all(c.bound <= solve_weighted((1, 1, 1, 0)) for c in certs)
    assert certify_lower_bound((0, 0)) == []


def test_dominant_vector_gets_no_lower_bound_certificate():
    assert weighted_terminal((5, 1, 1)) is not None
    assert certify_lower_bound((5, 1, 1)) == []


def test_reveal_pairs_corollary():
    # six unit balls: reveal one red/blue pair, then the unit-head lemma
    # on the remaining four gives k - 1 - s = 4, which is exact
    sources = {c.source: c.bound for c in certify_lower_bound((1,) * 6)}
    assert sources[CertificateSource.SULY1COR_I] == 4
    assert solve_weighted((1,) * 6) == 4
    sources = {c.source: c.bound for c in certify_lower_bound((1,) * 7)}
    assert sources[CertificateSource.SULY1COR_II] == 4
    assert solve_weighted((1,) * 7) == 4


def test_power_of_two_head_certificates():
    sources = {c.source: c.bound for c in certify_lower_bound((4, 2, 2, 4, 2, 1, 1))}
    assert CertificateSource.SULY2_I in sources or CertificateSource.SULY1FORMA_I in sources
    # corollary with a spare unit ball: total 2^(n+1)+3
    w = (2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 2)  # sum 19 = 2*8 + 3, head 8
    sources = {c.source: c.bound for c in certify_lower_bound(w)}
    if CertificateSource.SULY2COR in sources:
        assert sources[CertificateSource.SULY2COR] == len(w) - 3


def test_hard_examples():
    assert is_hard((1, 1))
    # total 28 is even, so hard would need m = k-1 = 6; the true value is 5
    assert solve_weighted((1, 2, 3, 4, 5, 6, 7)) == 5
    assert not is_hard((1, 2, 3, 4, 5, 6, 7))
    assert is_hard((1, 1, 1, 1))
    assert is_hard((1, 1, 1))
    assert not is_hard((1, 1, 3))  # dominated: m = 0 < k - 2


def test_obs_reduction_confirmed_by_solver():
    fired = 0
    rng = random.Random(7)
    for _ in range(120):
        k = rng.randint(2, 6)
        w = tuple(sorted((rng.randint(1, 8) for _ in range(k)), reverse=True))
        for c in certify_lower_bound(w):
            if c.source == CertificateSource.OBS_REDUCTION:
                fired += 1
                assert is_hard(w), (w, c.to_json())
    assert fired > 0


def test_upper_bound_helper():
    assert hardness_upper_bound((3, 3)) == 1
    assert hardness_upper_bound((1, 2)) == 0
    assert hardness_upper_bound((4,)) == 0


def test_obs_reverse_search_runs():
    # evidence gathering only; no claim either way about the open direction
    result = search_obs_reverse_counterexample(max_total=8)
    if result is not None:
        w, merged = result
        assert is_hard(merged) and not is_hard(w)


def test_hardness_base_check_matches_both_equal_head_parts():
    # the base check runs only the equal-head part that can reach the hard
    # level; running both must give the same certificate, or None, on every
    # vector the split search could visit from a C5 vector
    visited = [vec for w in dict.fromkeys(strip_zeros(v) for v in c5_vectors()) for vec in _split_closure(w)]
    assert len(visited) > 1000
    base = bounds._base_hard_certificate
    for w in dict.fromkeys(weight_multisets(14) + visited):
        assert base(w) == base_hard_certificate_both_parts(w), w


def test_equal_head_part_ii_matches_the_counting_oracle():
    # both total parities, the C5 vectors, and large weights whose product
    # does not fit one integer and takes the exponent-set path
    large = [(10**5, 10**5 - 1, 3), (10**5, 10**5, 7, 3)]
    assert gf2_product(gf2_factors((10**5 - 1, 3)), 10**5 + 2) is None
    assert gf2_product(gf2_factors((10**5, 7, 3)), 10**5 + 10) is None
    fired = 0
    for w in dict.fromkeys(weight_multisets(14) + [strip_zeros(v) for v in c5_vectors()] + large):
        got, both = [], []
        bounds._suly1forma_ii(w, got)
        suly1forma_both_parts(w, both)
        assert got == [c for c in both if c.source is CertificateSource.SULY1FORMA_II], w
        fired += bool(got)
    assert fired > 100
    got = []
    bounds._suly1forma_ii(large[0], got)
    assert got == [Certificate(1, CertificateSource.SULY1FORMA_II, {"n": 0, "head": 10**5, "fixed_ball": 10**5 - 1})]


def test_greedy_head_matches_the_brute_force_sub_multiset():
    # every pool of powers of two <= 16 with at most 8 balls, against every
    # power-of-two target <= 32
    for size in range(9):
        for pool in itertools.combinations_with_replacement((16, 8, 4, 2, 1), size):
            for target in (1, 2, 4, 8, 16, 32):
                head = bounds._fill_head(pool, target)
                if has_sub_multiset(pool, target):
                    assert head is not None and sum(head) == target, (pool, target)
                    assert not collections.Counter(head) - collections.Counter(pool), (pool, target, head)
                else:
                    assert head is None, (pool, target, head)


def test_head_rule_matches_the_reference_lemmas():
    fired = collections.Counter()
    for v in weight_multisets(20) + c5_vectors() + [(10**5, 10**5 - 1, 3)]:
        got = [c for c in certify_lower_bound(v) if c.source in HEAD_SOURCES]
        assert got == head_certificates(strip_zeros(normalize(v))), v
        fired.update(c.source for c in got)
    # each of the eight sources fires, so a rule that dies fails here
    assert set(fired) == HEAD_SOURCES, fired


LARGE_VECTORS = [(10**5, 10**5 - 1, 3), (10**5, 10**5, 7, 3), (10**9, 10**9 - 1, 3)]
# the reference walk from this vector reaches its cap of OBS_MAX_STATES
CAPPED = (2**31 - 127, 128)
SINGLE_BALLS = [(x,) for x in range(1, 25)]


def test_certify_matches_the_per_vector_reference():
    # the reference computes every split vector's equal-head parities from
    # its own GF(2) products and copies its chain into every frontier entry
    fired = 0
    for w in weight_multisets(18) + c5_vectors() + LARGE_VECTORS + [CAPPED] + SINGLE_BALLS:
        got = certify_lower_bound(w)
        assert got == reference_certify_lower_bound(w), w
        fired += any(c.source is CertificateSource.OBS_REDUCTION for c in got)
    assert fired > 100


def test_one_split_matches_the_reference_walk():
    # the hardness search base-checks one split vector, the reference walk
    # every split vector it visits up to its cap: both emit the same
    # certificate, or none, on every vector; a single ball is split twice,
    # as (12,) certifies only through [6, 6] -> [6, 3, 3]
    fired = 0
    for v in weight_multisets(24) + c5_vectors() + LARGE_VECTORS + [CAPPED] + SINGLE_BALLS:
        w = strip_zeros(normalize(v))
        if not w:
            continue
        got, want = [], []
        bounds._obs_reduction(w, got)
        obs_reduction(w, want)
        assert got == want, w
        fired += bool(got)
    assert fired > 2000
    got = []
    bounds._obs_reduction((12,), got)
    assert [c.witness["chain"] for c in got] == [[[12], [6, 6], [6, 3, 3]]]


def _split_closure(w):
    """Every vector reached from the descending w by splitting a ball 2a
    into two balls a, w first."""
    out, todo = {w: None}, [w]
    while todo:
        vec = todo.pop()
        for x in set(vec):
            if x % 2 == 0:
                rest = list(vec)
                rest.remove(x)
                nv = tuple(sorted(rest + [x // 2, x // 2], reverse=True))
                if nv not in out:
                    out[nv] = None
                    todo.append(nv)
    return list(out)


def _gf2_divide(poly, d):
    """poly / (1 + X^d) over GF(2) by long division; 1 + X^d must divide it."""
    quotient = 0
    while poly:
        top = poly.bit_length() - 1
        assert top >= d, (poly, d)
        quotient |= 1 << (top - d)
        poly ^= (1 << top) | (1 << (top - d))
    return quotient


def _odd_sums(balls, lo, hi):
    """Parity of the number of sign vectors of balls with signed sum in (lo, hi]."""
    return sum(c for s, c in signed_sum_counts(balls).items() if lo < s <= hi) % 2


def _odd_window(poly, total, lo, hi):
    """The same parity read off the balls' GF(2) product poly: bit j counts
    the sign vectors whose plus balls weigh j, signed sum 2j - total."""
    return sum(poly >> j & 1 for j in range(total + 1) if lo < 2 * j - total <= hi) % 2


def test_equal_head_parities_are_constant_on_the_split_closure():
    # a split leaves the GF(2) product of (1 + X^x) and the total alone, so
    # each head's parity on any vector of w's split closure is read off w's
    # product divided by 1 + X^h, h = a*2^n, and by 1 + X^t for a fixed ball t
    keys = 0
    for w in weight_multisets(16):
        total = sum(w)
        product = sum(1 << (s + total) // 2 for s, c in signed_sum_counts(w).items() if c % 2)
        for vec in _split_closure(w):
            for a, p2, n, rest in equal_heads(vec):
                h = a * p2
                on_w = _gf2_divide(product, h)
                if total % 2 == 0:
                    assert _odd_sums(rest, h - 1, h) == _odd_window(on_w, total - h, h - 1, h), (w, vec, a, n)
                for t in set(rest):
                    others = list(rest)
                    others.remove(t)
                    want = _odd_window(_gf2_divide(on_w, t), total - h - t, -h - t, h - t)
                    assert _odd_sums(others, -h - t, h - t) == want, (w, vec, a, n, t)
                    keys += 1
    assert keys > 10000


def test_large_weights_certify_in_few_parity_calls(monkeypatch):
    # the hardness search base-checks one split vector, and the equal-head
    # parities of w serve it, so large weights cost a few parity calls:
    # (10^9, 10^9 - 1, 3) certifies directly, and (2^31 - 127, 128), whose
    # split closure the reference walk visits up to its cap, certifies
    # nothing
    base_calls, parity_calls = [], []
    base, parity = bounds._base_hard_certificate, weighted.majority_counts

    def counting_base(w, *parities):
        base_calls.append(w)
        return base(w, *parities)

    def counting_parity(*args):
        parity_calls.append(args)
        return parity(*args)

    monkeypatch.setattr(bounds, "_base_hard_certificate", counting_base)
    monkeypatch.setattr(bounds, "majority_counts", counting_parity)
    monkeypatch.setattr(weighted, "majority_counts", counting_parity)
    assert certify_lower_bound((10**9, 10**9 - 1, 3)) == [
        Certificate(1, CertificateSource.SULY1FORMA_II, {"n": 0, "head": 10**9, "fixed_ball": 10**9 - 1})
    ]
    assert len(base_calls) == 1
    assert 0 < len(parity_calls) < 100
    base_calls.clear()
    parity_calls.clear()
    assert certify_lower_bound((2147483521, 128)) == []
    assert len(base_calls) == 1
    assert 0 < len(parity_calls) < 100


def test_bad_library_input_is_an_input_error():
    for call, args in [
        (is_hard, ((),)),
        (popcount, (-1,)),
        (weighted.relevance_threshold, ((),)),
        (nondet.nondet_hard_coloring, (3,)),
        (nondet.nondet_query_set, ("RRBB",)),
    ]:
        with pytest.raises(InputError):
            call(*args)
