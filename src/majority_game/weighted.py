"""Exact solver for the weighted majority game, signed-sum counts and
relevance analysis.

Balls carry non-negative integer weights.  A query compares two balls and
merges them into one of weight w_i + w_j (SAME) or |w_i - w_j| (DIFF); the
adversary picks the answer.  The game ends when either all weights are zero
(no majority) or one ball outweighs all others combined (that ball's color
class is the majority).  `solve_weighted` computes the exact worst-case
query count by memoized minimax over weight multisets; a move's SAME
child is not searched once its DIFF child shows that the move cannot win,
and the memo holds only exact values.

Sign vectors are counted here and nowhere else in the package.
`signed_sum_counts` counts signed sums exactly: `relevant` reads them, and
so does `majority_counts` when its weights are too large to pack.
`majority_counts` counts the balanced sign vectors p and, per weight, the
sign vectors p_i that put ball i on the heavier side, and `counting_bound`
turns them into Saks and Werman's bound max(k - mu(p), k - 1 - mu(p_i)),
mu the 2-adic valuation.  The bound is computed here and only here:
`_solve` reads it to close a state or cut its move loop,
`bounds.dectree_bound` reports it as a certificate, `bounds.count_balanced`
reads p, and the equal-head checks in `bounds` read the parities of p/2
and p_t/2 from the same counts.  `core.outcome_valid` needs no count: it
checks a claim by the rule of the game.
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
_bound_hits = {"closed": 0, "cut": 0}  # what the counting bound saved since clear()


def cache_info() -> dict[str, int]:
    """The size of the memo `_solve` shares across calls, the states the
    counting bound closed before any move and the move loops it cut."""
    return {"size": len(_memo), "bound_closed": _bound_hits["closed"], "bound_cut": _bound_hits["cut"]}


def clear() -> None:
    """Empty the memo and zero its counters; later solves refill it with
    the same values."""
    _memo.clear()
    _bound_hits.update(closed=0, cut=0)


def hard_level(w) -> int:
    """The trivial upper bound on m(w), which a hard vector attains: k - 1
    on an even total and k - 2 on an odd one (see `_solve`)."""
    return len(w) - 1 - (sum(w) & 1)


def _solve(w: WeightVector) -> int:
    """Minimax value on a sorted, zero-free weight multiset.

    The search starts from `hard_level(w)`: merging all k balls into one
    ends the game, and on an odd total merging them into two already does,
    as two weights with an odd sum differ.  Only a move below that level is
    of use, and a search that finds none proves the level exact.  From
    below, `counting_bound` limits the value: a state whose bound meets
    the level is closed before any move, and the move loop stops as soon
    as the best move found reaches the bound.

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
    floor = counting_bound(w)[0]
    if floor >= best:
        _bound_hits["closed"] += 1
        memo[w] = best
        return best
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
                if best <= floor:
                    break
        if best <= floor:
            _bound_hits["cut"] += 1
            break
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
    producing it.  A zero weight doubles every count.  Its callers are
    `relevant` and the dict route of `majority_counts`.

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


def majority_counts(w: WeightVector):
    """Yield p, the number of sign vectors of the zero-free descending w
    with signed sum 0, then, for each distinct weight x from the largest
    down, p_x: the sign vectors in which a ball of weight x lies on the
    strictly heavier side, both of its signs counted.  Lazily, so a reader
    that has what it needs stops the work.

    The counts are read off the product of (1 + X^x) over w, packed into
    one integer at X = 2^(k + 1): a field counts at most 2^k sign vectors,
    so none carries into the next, and integer products are polynomial
    products.  p is the middle field.  The product of the other balls is
    the packed product divided by 1 + 2^((k + 1)x), and the plus-ball
    weights j <= (total - 2x) / 2 of those balls are the ones that leave x
    on the lighter side or level; their fields, summed as the low part
    taken mod 2^(k + 1) - 1, are at most 2^(k - 1), so the mod is exact.
    When the total is at least 64 times the number of sub-multisets, the
    integer would be long next to the dict of nonzero terms that
    `signed_sum_counts` keeps, and the counts are read from those dicts:
    either way the cost never grows with the size of the weights.
    """
    k, total = len(w), sum(w)
    values = list(dict.fromkeys(w))
    if total < 64 * math.prod(w.count(x) + 1 for x in values):
        f = k + 1
        field = (1 << f) - 1
        poly = 1
        for x in w:
            poly += poly << (f * x)
        yield 0 if total & 1 else poly >> (f * (total // 2)) & field
        for x in values:
            others = poly // (1 + (1 << (f * x)))
            low = others & ((1 << (f * max(total // 2 - x + 1, 0))) - 1)
            yield (1 << k) - 2 * (low % field)
        return
    yield signed_sum_counts(w).get(0, 0)
    for x in values:
        others = list(w)
        others.remove(x)
        yield 2 * sum(c for s, c in signed_sum_counts(others).items() if x + s > 0)


def counting_bound(w: WeightVector) -> tuple[int, int | None, int, int]:
    """The counting bound of Saks and Werman on the zero-free descending w,
    max(k - mu(p), k - 1 - mu(p_i)) over the first ball i of each weight,
    mu the 2-adic valuation and a count of 0 ignored, each route at least
    0, as (bound, i, count, mu) for the first route that attains it: i is
    None on the route through p.  p is even (a sign vector and its negation
    are distinct) and so is every p_i, so no p_i route beats k - 2 and the
    search stops there.  `_solve` reads the bound, `bounds.dectree_bound`
    the whole tuple; the empty vector gives (0, None, 1, 0)."""
    k = len(w)
    firsts = [None] + [i for i in range(k) if not i or w[i] != w[i - 1]]
    best = None
    for i, count in zip(firsts, majority_counts(w)):
        if count:
            mu = (count & -count).bit_length() - 1
            bound = max(0, k - mu - (i is not None))
            if best is None or bound > best[0]:
                best = (bound, i, count, mu)
                if bound >= k - 2:
                    break
    return best


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
