"""Counting bounds and lemma-based certificates."""

import collections
import itertools
import math
import random

import pytest
from oracles import (
    HEAD_SOURCES,
    base_hard_certificate_both_parts,
    has_sub_multiset,
    head_certificates,
    suly1forma_both_parts,
)

from majority_game import bounds
from majority_game.bounds import (
    MU_INFINITE,
    Certificate,
    CertificateSource,
    certify_lower_bound,
    count_balanced,
    count_majority_with,
    dectree_bound,
    hardness_upper_bound,
    is_hard,
    popcount,
    search_obs_reverse_counterexample,
    signed_sum_counts,
    two_adic_valuation,
)
from majority_game.suites import c5_vectors
from majority_game.weighted import (
    _gf2_factors,
    _gf2_product,
    normalize,
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


def test_count_majority_examples():
    assert count_majority_with((1, 1), 0) == 2
    assert count_majority_with((3, 1), 0) == 4
    assert count_majority_with((3, 1), 1) == 2


def test_counting_identity():
    for w in [(1, 1, 1), (2, 1, 1), (3, 2, 2, 1), (1, 2, 3, 4)]:
        counts = signed_sum_counts(w)
        unbalanced = sum(c for s, c in counts.items() if s != 0)
        assert count_balanced(w) == 2 ** len(w) - unbalanced


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


def test_hardness_base_check_matches_both_equal_head_parts(monkeypatch):
    # the base check runs only the equal-head part that can reach the hard
    # level; running both must give the same certificate, or None
    visited = []
    base = bounds._base_hard_certificate

    def recording(w):
        visited.append(w)
        return base(w)

    monkeypatch.setattr(bounds, "_base_hard_certificate", recording)
    for w in c5_vectors():
        certify_lower_bound(w)
    monkeypatch.undo()
    assert len(visited) > 1000
    for w in dict.fromkeys(weight_multisets(14) + visited):
        assert base(w) == base_hard_certificate_both_parts(w), w


def test_equal_head_part_ii_matches_the_counting_oracle():
    # both total parities, the C5 vectors, and large weights whose product
    # does not fit one integer and takes the exponent-set path
    large = [(10**5, 10**5 - 1, 3), (10**5, 10**5, 7, 3)]
    assert _gf2_product(_gf2_factors((10**5 - 1, 3)), 10**5 + 2) is None
    assert _gf2_product(_gf2_factors((10**5, 7, 3)), 10**5 + 10) is None
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
