"""Exact solver for the weighted majority game, signed-sum counts and
relevance analysis.

Balls carry non-negative integer weights.  A query compares two balls and
merges them into one of weight w_i + w_j (SAME) or |w_i - w_j| (DIFF); the
adversary picks the answer.  The game ends when either all weights are zero
(no majority) or one ball outweighs all others combined (that ball's color
class is the majority).  `solve_weighted` computes the exact worst-case
query count by memoized minimax over weight multisets; a move's SAME
child is not searched once its DIFF child shows that the move cannot win,
and the memo holds only exact values.  `signed_sum_counts` counts signed
sums exactly: relevance here and the counting bounds in `bounds` read it.
The equal-head checks in `bounds` read only the parity of a count of
signed sums in a window, and take it from `signed_sum_parity`, which works
over GF(2).  Every signed sum has the parity of the total, so the hardness
search in `bounds` checks the equal-head lemma's part (i), which needs a
signed sum a*2^n of the balls outside the head, only on an even total.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from operator import neg

from .core import InputError, merge_weights, settled

WeightVector = tuple[int, ...]


def normalize(weights) -> WeightVector:
    w = tuple(sorted((int(x) for x in weights), reverse=True))
    if w and w[-1] < 0:
        raise InputError(f"weights must be non-negative, got {w[-1]}")
    return w


def strip_zeros(w: WeightVector) -> WeightVector:
    return tuple(x for x in w if x > 0)


def weight_multisets(max_total: int) -> list[WeightVector]:
    """Every multiset of positive weights with sum <= max_total, each a
    descending tuple, ordered by sum, then size, then ascending tuple."""

    def below(room: int, top: int):
        for x in range(1, min(room, top) + 1):
            yield (x,)
            for tail in below(room - x, x):
                yield (x,) + tail

    return sorted(below(max_total, max_total), key=lambda w: (sum(w), len(w), w[::-1]))


@dataclass(frozen=True)
class WeightedOutcome:
    """Winner index into the given vector, or None for 'no majority'."""

    winner: int | None


def weighted_terminal(w) -> WeightedOutcome | None:
    """Terminal classification: all zeros, or one dominant ball, else None."""
    w = tuple(w)
    if not settled(w):
        return None
    if not any(w):
        return WeightedOutcome(None)
    return WeightedOutcome(max(range(len(w)), key=w.__getitem__))


def _merged(w: WeightVector, i: int, j: int, x: int) -> WeightVector:
    """The descending vector w with its balls i < j replaced by one ball of
    weight x, or by none when x is 0: the two balls are cut out and x is
    inserted at its sorted place."""
    rest = list(w)
    del rest[j]
    del rest[i]
    if x:
        rest.insert(bisect_left(rest, -x, key=neg), x)
    return tuple(rest)


_memo: dict[WeightVector, int] = {}  # grows across a process until clear()


def cache_info() -> dict[str, int]:
    """The size of the memo `_solve` shares across calls."""
    return {"size": len(_memo)}


def clear() -> None:
    """Empty the memo; later solves refill it with the same values."""
    _memo.clear()


def hard_level(w) -> int:
    """The trivial upper bound on m(w), which a hard vector attains: k - 1
    on an even total and k - 2 on an odd one (see `_solve`)."""
    return len(w) - 1 - (sum(w) & 1)


def _solve(w: WeightVector) -> int:
    """Minimax value on a sorted, zero-free weight multiset.

    The search starts from `hard_level(w)`: merging all k balls into one
    ends the game, and on an odd total merging them into two already does,
    as two weights with an odd sum differ.  Only a move below that level is
    of use, and a search that finds none proves the level exact.

    Moves are taken per pair of weight values, as distinct balls of equal
    weight give identical children: a descending, then b descending from a
    itself, with a == b only when two balls weigh a.  The move removes the
    first ball of weight a and the last of weight b.  Each move solves its
    DIFF child first: when that child alone already makes the move no
    better than `best`, the SAME child is neither built nor searched.
    Every child that is searched is solved in full, so the memo holds only
    exact values.  Children of a zero-free vector are zero-free.
    """
    memo = _memo  # a local name: the loop reads it twice per move
    cached = memo.get(w)
    if cached is not None:
        return cached
    if not w or 2 * w[0] > sum(w):  # core.settled: a sorted vector's head is its max
        memo[w] = 0
        return 0
    best = hard_level(w)
    k = len(w)
    ends = [j for j in range(k - 1) if w[j] != w[j + 1]] + [k - 1]  # last ball of each value
    i = 0
    for s, end in enumerate(ends):
        a = w[i]
        for j in ends[s:]:
            if j == i:  # a single ball of weight a
                continue
            b = w[j]
            child = _merged(w, i, j, a - b)
            m = memo.get(child)
            if m is None:
                m = _solve(child)
            if 1 + m >= best:
                continue
            child = _merged(w, i, j, a + b)
            p = memo.get(child)
            if p is None:
                p = _solve(child)
            if 1 + p < best:
                best = 1 + max(m, p)
        i = end + 1
    memo[w] = best
    return best


def solve_weighted(weights) -> int:
    """Exact m(w): optimal worst-case query count for the weight multiset."""
    return _solve(strip_zeros(normalize(weights)))


def optimal_query(weights) -> tuple[int, int] | None:
    """Lexicographically smallest optimal index pair into the sorted vector,
    or None on terminal vectors."""
    w = normalize(weights)
    if weighted_terminal(w) is not None:
        return None
    target = solve_weighted(w)
    z = strip_zeros(w)  # the zero balls sort last, so indices into z are indices into w
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            a, b = z[i], z[j]
            if 1 + max(_solve(_merged(z, i, j, a + b)), _solve(_merged(z, i, j, a - b))) == target:
                return (i, j)
    return None


def adversarial_merge_weight(w, a: int, b: int) -> int:
    """Merged weight an exact-minimax adversary chooses when weights a and b
    are queried within multiset w: the child of larger game value wins,
    ties keep the sum (no weight is given away)."""
    w = normalize(w)
    i = w.index(a)
    i, j = sorted((i, w.index(b, i + 1) if b == a else w.index(b)))
    plus, minus = merge_weights(a, b)
    if _solve(strip_zeros(_merged(w, i, j, minus))) > _solve(strip_zeros(_merged(w, i, j, plus))):
        return minus
    return plus


def signed_sum_counts(weights) -> dict[int, int]:
    """Count, for every achievable signed sum, the number of sign vectors
    producing it.  A zero weight doubles every count.

    The counts are the coefficients of the product of (1 + X^w) over the
    weights: the coefficient of X^j counts the sign vectors whose plus
    balls weigh j, that is, whose signed sum is 2j - total.  At most
    `subsets` exponents occur, one per sub-multiset of the weights.  While
    the total is below that, the product is held in one integer at
    X = 2^64 and its total + 1 fields are read off as machine words: a
    count never exceeds 2^k, so for k < 64 no field carries into the next.
    Otherwise the product keeps only its nonzero terms, as a dict keyed by
    signed sum.  Either way time and memory grow with `subsets` (at most
    2^k), never with the size of the weights.
    """
    w = tuple(weights)
    total = sum(w)
    subsets = math.prod(w.count(x) + 1 for x in set(w))
    if len(w) < 64 and total < subsets:
        poly = 1
        for x in w:
            poly += poly << (64 * x)
        fields = memoryview(poly.to_bytes(8 * (total + 1), sys.byteorder)).cast("Q")
        return {2 * j - total: c for j, c in enumerate(fields) if c}
    counts = {-total: 1}
    for x in w:
        nxt = dict(counts)
        for s, c in counts.items():
            nxt[s + 2 * x] = nxt.get(s + 2 * x, 0) + c
        counts = nxt
    return counts


def _gf2_factors(w: WeightVector) -> list[int]:
    """The shifts d of the factors (1 + X^d) whose product over GF(2) is the
    product of (1 + X^x) over w: (1 + X^x)^c is the product of
    (1 + X^(x*2^i)) over the set bits i of c, so one shift per set bit of
    each value's multiplicity.  A zero weight gives the factor 1 + 1 = 0."""
    shifts = []
    for x in set(w):
        c = w.count(x)
        while c:
            shifts.append(x * (c & -c))
            c &= c - 1
    return shifts


def _gf2_product(shifts: list[int], total: int) -> int | None:
    """The product of the factors (1 + X^d) over GF(2) as one integer, bit
    j the parity of the number of sign vectors whose plus balls weigh j; or
    None when the total is at least 64 << factors, where the integer would
    be long next to the at most 2^factors exponents it holds."""
    if total >= 64 << len(shifts):
        return None
    poly = 1
    for d in shifts:
        poly ^= poly << d
    return poly


def _plus_window(total: int, lo: int, hi: int) -> tuple[int, int]:
    """The plus-ball weights j whose signed sum 2j - total lies in (lo, hi],
    as the ends (jlo, jhi) of a closed range."""
    return max((lo + total) // 2 + 1, 0), min((hi + total) // 2, total)


def _window_parity(poly: int, jlo: int, jhi: int) -> int:
    """Parity of the set bits jlo..jhi of poly; 0 on an empty range."""
    if jlo > jhi:
        return 0
    return ((poly >> jlo) & ((1 << (jhi - jlo + 1)) - 1)).bit_count() & 1


def signed_sum_parity(weights, lo: int, hi: int) -> int:
    """Parity of the number of sign vectors whose signed sum lies in the
    half-open window (lo, hi].

    The parity is read off the product of (1 + X^w) over GF(2), built from
    one shift-XOR factor per set bit of each value's multiplicity (see
    `_gf2_factors`); a zero weight makes every parity even.  While the
    total is below 64 << factors the product is one integer and the window
    is one masked `bit_count`; otherwise it is the set of its exponents,
    updated by symmetric difference, and an exponent past the window is
    dropped, as no factor lowers it.  Cost grows with the number of
    factors, never with the size of the weights.
    """
    w = tuple(weights)
    total = sum(w)
    jlo, jhi = _plus_window(total, lo, hi)
    if jlo > jhi:
        return 0
    shifts = _gf2_factors(w)
    poly = _gf2_product(shifts, total)
    if poly is not None:
        return _window_parity(poly, jlo, jhi)
    exps = {0}
    for d in shifts:
        exps ^= {e + d for e in exps if e + d <= jhi}
    return len([e for e in exps if e >= jlo]) & 1


def relevant(weights, i: int) -> bool:
    """A ball is relevant iff some coloring of the others lets its color
    change the outcome.  Equivalently (for weight v > 0): the others admit a
    signed sum S with |S| <= v."""
    w = tuple(weights)
    v = w[i]
    return v > 0 and any(abs(s) <= v for s in signed_sum_counts(w[:i] + w[i + 1:]))


def relevant_indices(weights) -> tuple[int, ...]:
    w = tuple(weights)
    return tuple(i for i in range(len(w)) if relevant(w, i))


def relevance_threshold(weights) -> int:
    """Threshold t with: ball i relevant iff w_i > t.

    t is the largest weight among non-relevant balls, 0 when every
    positive-weight ball is relevant.
    """
    w = tuple(weights)
    if not w:
        raise InputError("empty weight vector")
    non_rel = [w[i] for i in range(len(w)) if not relevant(w, i)]
    return max(non_rel, default=0)
