"""Counting lower bounds and lemma-based hardness certificates.

Certificates are hypothesis checkers: each evaluates the premise of one
lower-bound lemma on a weight vector and, when it holds, records the
concluded bound.  Bounds are always sound; the tests check them
against the independent oracles in `tests/oracles.py`: the unpruned
minimax for m(w), and each bound and lemma computed directly from its
statement.  The lemmas themselves are not re-proved here.  Nothing here
counts sign vectors: `count_balanced`, the counting bound and the
equal-head parities all read the counts of `weighted.majority_counts`.
The counting bound is computed in `weighted`, which also reads it to prune
its own search; `dectree_bound` only reports it.

The eight power-of-two-head sources (SULY1_I/II, SULY1COR_I/II, SULY2_I/II,
SULY2COR and O1G) are one rule, `_head_rule`, with c in {0, 1, 3}: a total
of 2*p2 + c with p2 = 2^n, more than p2 + d balls for d = (c + 1) // 2 when
c > 0, and a head of weight p2 drawn from a pool of power-of-two balls give
the bound k - 1 - d.  The sources differ in c and the pool, and the
pair-revealing ones apply the rule after setting unit balls aside.  The head
is filled greedily from the largest ball down, which is exact: each ball of
at most p2 divides p2 and every gap left, so the fill fails only when the
pool's balls of at most p2 sum to less than p2.

The equal-head lemma (SULY1FORMA_I/II) reads the parity of a count of
signed sums of the balls outside a head of 2^n balls of weight a, and
that parity does not depend on the head: part (i)'s is the parity of p/2
and part (ii)'s, for the fixed ball t, the parity of p_t/2, the counts of
the counting bound, which both read from `weighted.majority_counts`.  So
part (i) fires exactly when k >= 3 and mu(p) = 1, part (ii) at t exactly
when mu(p_t) = 1, and the witness head is always one ball.  Over GF(2),
(1 + X^a)^2 = 1 + X^2a, so splitting a ball 2a into two balls a leaves
the product of (1 + X^x) over the balls, and the total, unchanged; both
parities are read off that product (with one ball that the split leaves
alone, or t, divided out), so they are the same on every vector of w's
split closure that has the ball t, or at least two balls.  Each
`certify_lower_bound` call keeps one dict from t to p_t/2 mod 2, with
p/2 mod 2 under None, filled on first use and shared by the direct checks
on w and the hardness search; nothing outlives the call.

A chain of splits that ends in a base-certified vector is sound by the
pair-merge observation, so the hardness search may check any split vector;
it checks one, w with its largest even ball split (a single ball split
twice), and over every multiset of total at most 36, the C5 vectors of
seeds 0 and 1, the large test vectors and single balls up to 512 it emits
exactly what the breadth-first walk of w's split closure in
`tests/oracles.py` emits.

All counting uses unbounded integers.  Zero-weight balls are stripped
before any lemma hypothesis is evaluated: removing a weight-0 ball never
changes the game value, and the lemma premises silently assume positive
weights (a zero ball breaks their parity counts).
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import neg

from .core import InputError
from .weighted import (
    WeightVector,
    counting_bound,
    hard_level,
    majority_counts,
    normalize,
    solve_weighted,
    strip_zeros,
    weight_multisets,
    weighted_terminal,
)

MU_INFINITE = math.inf


class CertificateSource(str, enum.Enum):
    DECTREE_P = "DECTREE_P"
    DECTREE_PI = "DECTREE_PI"
    SULY1_I = "SULY1_I"
    SULY1_II = "SULY1_II"
    SULY1FORMA_I = "SULY1FORMA_I"
    SULY1FORMA_II = "SULY1FORMA_II"
    SULY1COR_I = "SULY1COR_I"
    SULY1COR_II = "SULY1COR_II"
    SULY2_I = "SULY2_I"
    SULY2_II = "SULY2_II"
    SULY2COR = "SULY2COR"
    O1G = "O1G"
    OBS_REDUCTION = "OBS_REDUCTION"
    TRIVIAL = "TRIVIAL"


@dataclass(frozen=True)
class Certificate:
    bound: int
    source: CertificateSource
    witness: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"bound": self.bound, "source": self.source.value, "witness": self.witness}


def popcount(n: int) -> int:
    """Number of 1 bits in the binary representation."""
    if n < 0:
        raise InputError("popcount is defined for non-negative integers")
    return bin(n).count("1")


def two_adic_valuation(k: int):
    """Largest l with 2^l dividing k; infinite for k = 0."""
    if k == 0:
        return MU_INFINITE
    return (k & -k).bit_length() - 1


def count_balanced(weights) -> int:
    """Number p of balanced colorings (sign vectors summing to zero), read
    from `weighted.majority_counts` on the balls of positive weight; each
    zero ball doubles it."""
    w = normalize(weights)
    z = w.count(0)  # the zero balls sort last
    return next(majority_counts(w[: len(w) - z])) << z


def dectree_bound(weights) -> Certificate:
    """Best counting bound: k - mu(p), or k - 1 - mu(p_i) over all i, as
    `weighted.counting_bound` computes it on the balls of positive weight.

    Each of the z zero balls adds one to k and doubles every count, so the
    bound is the same and the witness count gains a factor 2^z and its
    valuation z.  A zero ball's own p_i route never beats the route through
    p, which comes first."""
    w = normalize(weights)
    z = w.count(0)  # the zero balls sort last
    bound, i, count, mu = counting_bound(w[: len(w) - z])
    if i is None:
        return Certificate(bound, CertificateSource.DECTREE_P, {"p": count << z, "mu": mu + z})
    return Certificate(bound, CertificateSource.DECTREE_PI, {"i": i, "p_i": count << z, "mu": mu + z})


def _fill_head(pool, p2: int):
    """A sub-multiset of the power-of-two balls in `pool` summing to the
    power of two p2, filled greedily from the largest ball down, or None."""
    head, gap = [], p2
    for x in sorted(pool, reverse=True):
        if x <= gap:
            head.append(x)
            gap -= x
    return None if gap else head


def _head_rule(w: WeightVector, c: int, pool):
    """The power-of-two-head rule with c in {0, 1, 3}: (k - 1 - d, n, head)
    when total - c = 2*p2 for p2 = 2^n >= 1, k > p2 + d with d = (c + 1) // 2
    (no count when c = 0) and `pool` holds a head of weight p2; else None."""
    p2, odd = divmod(sum(w) - c, 2)
    d = (c + 1) // 2
    if odd or p2 < 1 or p2 & (p2 - 1) or (c and len(w) <= p2 + d):
        return None
    head = _fill_head(pool, p2)
    return None if head is None else (len(w) - 1 - d, p2.bit_length() - 1, head)


# each lemma's two parts, indexed by c = total mod 2
_UNIT_HEAD = (CertificateSource.SULY1_I, CertificateSource.SULY1_II)
_UNIT_HEAD_PAIRS = (CertificateSource.SULY1COR_I, CertificateSource.SULY1COR_II)
_POWER_HEAD = (CertificateSource.SULY2_I, CertificateSource.SULY2_II)


def _suly1(w: WeightVector, certs: list[Certificate]) -> None:
    """Unit-head lemma: the head rule with c = total mod 2 and the head
    taken from the unit balls, the tail of the descending w."""
    r = sum(w) & 1
    hit = _head_rule(w, r, w[len(w) - w.count(1):])
    if hit is not None:
        certs.append(Certificate(hit[0], _UNIT_HEAD[r], {"n": hit[1]}))


def _half_parity(w: WeightVector, parities: dict, t: int | None = None) -> int:
    """p/2 mod 2 on w (t None) or p_t/2 mod 2 for a ball t of w, from
    `majority_counts`; a miss fills `parities` with p/2 and, when t is a
    ball, p_x/2 for every weight x of w (see the module docstring)."""
    if t not in parities:
        counts = majority_counts(w)
        parities.setdefault(None, next(counts) >> 1 & 1)
        if t is not None:
            for x, count in zip(dict.fromkeys(w), counts):
                parities.setdefault(x, count >> 1 & 1)
    return parities[t]


def _suly1forma_i(w: WeightVector, certs: list[Certificate], parities: dict | None = None) -> None:
    """Equal-head lemma, part (i): an odd number of signed partitions of the
    balls outside a head of 2^n balls of weight a hits difference a*2^n.
    With a one-ball head a, the balanced sign vectors of w are those of the
    rest that sum to a, with a negative, and their negations, so the count
    is p/2; a larger head reads a count of the same parity.  The first head,
    one ball of weight w[0], is the witness; it leaves two other balls when
    k >= 3.  On an odd total p = 0 and nothing fires."""
    if len(w) > 2 and _half_parity(w, {} if parities is None else parities):
        certs.append(Certificate(len(w) - 1, CertificateSource.SULY1FORMA_I, {"n": 0, "head": w[0]}))


def _suly1forma_ii(w: WeightVector, certs: list[Certificate], parities: dict | None = None) -> None:
    """Equal-head lemma, part (ii): with one ball t held fixed, an odd
    number of signed sums of the rest lands in the half-open window
    (-h - t, h - t], h = a*2^n; this is the exact condition under which the
    proof's majority count is odd.  Over GF(2) the head's factor
    (1 + X^a)^(2^n) is 1 + X^h, one ball of weight h, and the sign vectors
    of w without t with t + s > 0 are, mod 2, those of the rest with t + s
    in (-h, h] plus twice those above h: the parity is that of p_t/2,
    whatever the head.  The first head, one ball of weight w[0], is tried
    with each t of w[1:] from the largest down; when w[0] is a single ball,
    the head w[1] adds t = w[0].  Every head needs k >= 3."""
    if len(w) < 3:
        return
    parities = {} if parities is None else parities
    pairs = [(w[0], t) for t in dict.fromkeys(w[1:])]
    if w[1] != w[0]:
        pairs.append((w[1], w[0]))
    for head, t in pairs:
        if _half_parity(w, parities, t):
            witness = {"n": 0, "head": head, "fixed_ball": t}
            certs.append(Certificate(len(w) - 2, CertificateSource.SULY1FORMA_II, witness))
            return


def _suly1cor(w: WeightVector, certs: list[Certificate]) -> None:
    """Reveal 2s unit balls, s >= 1, in color-balanced pairs and apply the
    unit-head lemma to the rest; its bound k - 2s - 1 - d plus the s pair
    queries gives k - 1 - d - s.  The rest's head p2 = (total - r)/2 - s,
    r = total mod 2, must be a power of two, and the rule needs p2 + 2s of
    the unit balls, more as p2 shrinks: only the largest p2 that leaves
    s >= 1 can hold, and it gives the best bound."""
    k, ones, total = len(w), w.count(1), sum(w)
    r, half = total & 1, total // 2
    if half < 2:
        return
    s = half - (1 << ((half - 1).bit_length() - 1))  # p2 is the largest power of two below half
    hit = _head_rule(w[: k - 2 * s], r, w[k - ones: k - 2 * s]) if 2 * s <= ones else None
    if hit is not None:
        certs.append(Certificate(hit[0] + s, _UNIT_HEAD_PAIRS[r], {"n": hit[1], "s": s}))


def _suly2(w: WeightVector, certs: list[Certificate]) -> None:
    """Power-of-two-head lemma: the head rule with c = total mod 2 and the
    head taken from the power-of-two balls."""
    r = sum(w) & 1
    hit = _head_rule(w, r, [x for x in w if x & (x - 1) == 0])
    if hit is not None:
        certs.append(Certificate(hit[0], _POWER_HEAD[r], {"n": hit[1], "head": hit[2]}))


def _suly2_corollaries(w: WeightVector, certs: list[Certificate]) -> None:
    """The head rule with c = 3.  SULY2COR takes the head from the
    power-of-two balls but one unit ball, which w must hold (w is
    descending, so that is its last ball, and without it the pool is empty);
    O1G takes the head from the 1s and 2s."""
    spare = [x for x in w[:-1] if x & (x - 1) == 0] if w[-1] == 1 else []
    for source, pool in ((CertificateSource.SULY2COR, spare), (CertificateSource.O1G, [x for x in w if x <= 2])):
        hit = _head_rule(w, 3, pool)
        if hit is not None:
            certs.append(Certificate(hit[0], source, {"n": hit[1], "head": hit[2]}))


def _base_hard_certificate(w: WeightVector, parities: dict | None = None) -> Certificate | None:
    """A certificate proving the zero-free vector w is hard, if one of the
    equality-grade lemma hypotheses holds.

    Only a bound equal to `hard_level` counts.  The equal-head lemma's part
    (i) concludes k-1 and holds only on an even total; part (ii) concludes
    k-2, the level of an odd total, so it is checked only there.  The part
    that runs reads and fills `parities`."""
    certs: list[Certificate] = []
    _suly1(w, certs)
    _suly1forma_i(w, certs, parities)
    if sum(w) % 2:
        _suly1forma_ii(w, certs, parities)
    _suly2(w, certs)
    level = hard_level(w)
    return next((c for c in certs if c.bound == level), None)


def _obs_reduction(w: WeightVector, certs: list[Certificate], parities: dict | None = None) -> None:
    """Forward hardness propagation: splitting a ball of weight 2a into two
    balls of weight a undoes one merge of equal weights, and hardness of the
    split vector implies hardness of the merged one.  Split the largest even
    ball, the first even one of the descending w, into two halves spliced
    in at their sorted place, and base-check that vector; a single ball, whose
    split leaves two balls, is split once more the same way.  The witness
    chain runs from w to the certified vector.

    A split leaves the GF(2) product of (1 + X^x) over the balls, and the
    total, unchanged, so the split vectors' equal-head parities are w's and
    one `parities` dict serves them (see the module docstring)."""
    parities = {} if parities is None else parities
    chain = [w]
    for _ in range(1 if len(w) > 1 else 2):
        vec = chain[-1]
        i = next((i for i, x in enumerate(vec) if x % 2 == 0), None)
        if i is None:
            return
        half = vec[i] // 2
        rest = vec[:i] + vec[i + 1:]
        at = bisect_left(rest, -half, key=neg)
        chain.append(rest[:at] + (half, half) + rest[at:])
        base = _base_hard_certificate(chain[-1], parities)
        if base is not None:
            witness = {"chain": [list(v) for v in chain], "base": base.source.value}
            certs.append(Certificate(hard_level(w), CertificateSource.OBS_REDUCTION, witness))
            return


def certify_lower_bound(weights) -> list[Certificate]:
    """Certificates from every satisfied lemma hypothesis, best bound per
    source.  Empty when nothing applies."""
    w = strip_zeros(normalize(weights))
    if not w:
        return []
    certs: list[Certificate] = []
    parities: dict = {}  # equal-head parities, shared by w and its split vectors
    _suly1(w, certs)
    _suly1forma_i(w, certs, parities)
    _suly1forma_ii(w, certs, parities)
    _suly1cor(w, certs)
    _suly2(w, certs)
    _suly2_corollaries(w, certs)
    _obs_reduction(w, certs, parities)
    best: dict[CertificateSource, Certificate] = {}
    for c in certs:
        if c.source not in best or c.bound > best[c.source].bound:
            best[c.source] = c
    return sorted(best.values(), key=lambda c: (-c.bound, c.source.value))


def is_hard(weights) -> bool:
    """A vector is hard when it attains the trivial upper bound."""
    w = normalize(weights)
    if not w:
        raise InputError("hardness needs at least one ball")
    return solve_weighted(w) == hard_level(w)


def hardness_upper_bound(weights) -> int:
    """Trivial upper bound m(w) <= k-1, improved to k-2 for odd totals."""
    return max(0, hard_level(normalize(weights)))


def search_obs_reverse_counterexample(max_total: int = 14, allow_terminal: bool = True):
    """Search for a counterexample to the reverse of the pair-merge
    observation: a non-hard (a, a, rest) whose merge (2a, rest) is hard.
    Returns the first one found, or None.  Terminal merges are vacuously
    hard for odd totals; pass allow_terminal=False to skip those degenerate
    witnesses.  The toolkit takes no position on the open question; this is
    evidence-gathering only."""
    for w in weight_multisets(max_total):
        for a in set(w):
            if w.count(a) < 2:
                continue
            merged = normalize(w[: w.index(a)] + w[w.index(a) + 2:] + (2 * a,))
            if not allow_terminal and weighted_terminal(strip_zeros(merged)) is not None:
                continue
            if is_hard(merged) and not is_hard(w):
                return w, merged
    return None
