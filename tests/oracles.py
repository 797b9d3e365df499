"""Slow, independent oracles that the tests compare the library against,
and the atlas inputs that several differential tests share.

* the string enumeration of the colorings consistent with a state, and the
  outcome check that counts the reds of each one;
* the all-pairs ``best_query``: search both answers of every component pair
  exactly, then take the smallest edge across a pair of least value;
* the hardness base check that runs both parts of the equal-head lemma on
  every vector, whatever the parity of its total;
* the counts p and p_i and the counting bound, each p_i from the
  signed-sum counts of the other balls, zero balls included;
* the lemma certificates with each split vector's equal-head parities
  computed from scratch, head by head: the equal-head parts, the hardness
  base check and the split search that copies its chain into every
  frontier entry and re-sorts every split child, over signed-sum parities
  read from the GF(2) product of (1 + X^w), one per window, and the
  fixed-ball parities read from one product per head divided by (1 + X^t);
* the eight power-of-two-head sources as five lemma functions, each with
  its own premise, the head found by a subset-sum DP, and a brute-force
  search over every sub-multiset;
* the weighted solver that builds each move's children by copying, removing
  and sorting, with its own memo, and the optimal query and adversarial
  merge read from it;
* the split state as sorted side tuples, with its per-vertex component
  scan, its tuple-rebuilding merge, its outcome checks and the per-vertex
  packing of its components;
* the canonical form of a labelled graph as the least relabelling over
  every vertex permutation;
* the graph solver's strategy upper bound, its zero components found from
  the graph's edges;
* the tree lemma's weight discipline on a state, each component's boundary
  edges counted one by one;
* the end of the game read off every sign vector of the weights.
"""

import functools
import itertools
from collections import deque
from dataclasses import dataclass

import pytest

from majority_game.bounds import Certificate, CertificateSource, hard_level, two_adic_valuation
from majority_game.core import BLUE, RED, Answer, Graph, IllegalQueryError, Outcome, QueryState, normalize_edge
from majority_game.graphsolver import GameView, _merge_codes, _merge_nbrs, encode_state
from majority_game.weighted import normalize, signed_sum_counts, strip_zeros, weighted_terminal


def count_consistent(state: QueryState) -> int:
    return 2 ** len(state.components)


def consistent_colorings(state: QueryState):
    """Yield every coloring consistent with the answers, each exactly once.

    One coloring per per-component flip choice; 2^(#components) in total.
    """
    comps = state.components
    for flips in itertools.product((False, True), repeat=len(comps)):
        colors = [RED] * state.graph.n
        for comp, flip in zip(comps, flips):
            a_color, b_color = (BLUE, RED) if flip else (RED, BLUE)
            for x in comp.side_a:
                colors[x] = a_color
            for x in comp.side_b:
                colors[x] = b_color
        yield "".join(colors)


def outcome_valid_by_enumeration(state: QueryState, outcome) -> bool:
    """Check an outcome claim against every consistent coloring."""
    n = state.graph.n
    for coloring in consistent_colorings(state):
        r = coloring.count(RED)
        if outcome.majority is None:
            if 2 * r != n:
                return False
        else:
            mine = coloring[outcome.majority]
            cnt = r if mine == RED else n - r
            if 2 * cnt <= n:
                return False
    return True


def all_pairs_best_query(solver, state: QueryState):
    """Optimal move in a non-terminal state; ties go to the smallest edge."""
    codes = encode_state(state)
    view = GameView(solver.graph, codes)
    nbrs, cnt = solver._carried(view)
    vc, units = view.vertex_comp, solver.units
    pairs = {}  # the smallest edge across each pair
    for u, v in solver.edges:
        a, b = vc[u], vc[v]
        if a != b:
            pairs.setdefault((a, b) if a < b else (b, a), (u, v))
    pair_value = {}
    for (i, j), edge in pairs.items():
        wi, wj = view.weights[i], view.weights[j]
        child_nbrs = _merge_nbrs(nbrs, i, j, view.masks[i] | view.masks[j])
        rest = cnt - units[wi] - units[wj]
        pair_value[edge] = 1 + max(
            solver._value(_merge_codes(codes, i, j, w, solver.shift), child_nbrs, rest + units[w], solver.n)
            for w in (wi + wj, abs(wi - wj))
        )
    target = min(pair_value.values())
    return min(edge for edge, value in pair_value.items() if value == target)


def reference_upper(graph: Graph, view: GameView) -> int:
    """k - 1 - (n & 1) - z for a non-terminal state of k components, z the
    zero-weight components that the graph's edges join to at most one other
    component."""
    k = len(view.codes)
    joined = [set() for _ in range(k)]
    for u, v in graph.sorted_edges:
        a, b = view.comp_of(u), view.comp_of(v)
        if a != b:
            joined[a].add(b)
            joined[b].add(a)
    z = sum(1 for w, others in zip(view.weights, joined) if not w and len(others) <= 1)
    return k - 1 - (graph.n & 1) - z


def discipline_holds(graph: Graph, view: GameView) -> bool:
    """The tree lemma's weight discipline on every proper component of a
    state: weight 1 on an odd size, and on an even size 2 * the parity of
    the number of edges leaving it, counted edge by edge."""
    full = (1 << graph.n) - 1
    for mask, w in zip(view.masks, view.weights):
        if mask == full:
            continue
        leaving = sum(1 for u, v in graph.sorted_edges if (mask >> u & 1) != (mask >> v & 1))
        if w != (1 if mask.bit_count() % 2 else 2 * (leaving % 2)):
            return False
    return True


def settled_by_signs(weights) -> bool:
    """Whether every colouring of components with these weights gives one
    outcome, by every sign vector: every signed sum is 0 (no majority), or
    some ball's sign is the sign of every signed sum, none of which is 0
    (that ball's heavier side holds the majority)."""
    sums = [
        (signs, sum(s * w for s, w in zip(signs, weights)))
        for signs in itertools.product((1, -1), repeat=len(weights))
    ]
    if all(total == 0 for _, total in sums):
        return True
    return any(all(signs[i] * total > 0 for signs, total in sums) for i in range(len(weights)))


def atlas_graphs(max_n):
    """The solvable graphs of the networkx atlas (every graph on at most
    seven vertices, up to isomorphism) with at most max_n vertices."""
    nx = pytest.importorskip("networkx")
    out = []
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        graph = Graph.from_edges(n, g.edges())
        if n <= max_n and graph.is_majority_solvable():
            out.append(graph)
    return out


def suly1forma_both_parts(w, certs):
    """Equal-head lemma, both parts in one pass over the heads."""
    k = len(w)
    got_i = got_ii = False
    for a, p2, n, rest in equal_heads(w):
        counts = signed_sum_counts(rest)
        if not got_i and counts.get(a * p2, 0) % 2 == 1:
            certs.append(Certificate(k - 1, CertificateSource.SULY1FORMA_I, {"n": n, "head": a}))
            got_i = True
        if not got_ii:
            lo, hi = -a * p2, a * p2
            for t in sorted(set(rest), reverse=True):
                others = list(rest)
                others.remove(t)
                inside = sum(c for s, c in signed_sum_counts(others).items() if lo < t + s <= hi)
                if inside % 2 == 1:
                    certs.append(
                        Certificate(k - 2, CertificateSource.SULY1FORMA_II, {"n": n, "head": a, "fixed_ball": t})
                    )
                    got_ii = True
                    break
        if got_i and got_ii:
            return


def equal_heads(w):
    """Each head of 2^n equal balls of weight a that leaves at least two
    other balls, as (a, p2, n, rest)."""
    for a in sorted(set(w), reverse=True):
        for p2 in _powers_of_two_up_to(w.count(a)):
            if len(w) > p2 + 1:
                rest = list(w)
                for _ in range(p2):
                    rest.remove(a)
                yield a, p2, p2.bit_length() - 1, tuple(rest)


def _powers_of_two_up_to(limit: int):
    p = 1
    while p <= limit:
        yield p
        p *= 2


def has_sub_multiset(pool, target: int) -> bool:
    """Whether some sub-multiset of `pool` sums to `target`, trying every
    count of every distinct value."""
    values = sorted(set(pool))
    choices = itertools.product(*(range(pool.count(v) + 1) for v in values))
    return any(sum(v * c for v, c in zip(values, counts)) == target for counts in choices)


def subset_sum_multiset(values, target: int):
    """A sub-multiset of `values` summing to `target`, or None."""
    if target == 0:
        return []
    reach: dict[int, list[int]] = {0: []}
    for v in sorted(values, reverse=True):
        for s in sorted(reach):
            t = s + v
            if t <= target and t not in reach:
                reach[t] = reach[s] + [v]
        if target in reach:
            return sorted(reach[target], reverse=True)
    return reach.get(target)


def suly1(w, certs):
    """Unit-head lemma: a total of 2^(n+1) + r, r = 0 or 1, with at least
    2^n unit balls and more than 2^n + r balls, concludes k - 1 - r."""
    k, total = len(w), sum(w)
    r = total & 1
    p2 = (total - r) // 2
    if p2 and p2 & (p2 - 1) == 0 and w.count(1) >= p2 and k > p2 + r:
        source = CertificateSource.SULY1_II if r else CertificateSource.SULY1_I
        certs.append(Certificate(k - 1 - r, source, {"n": p2.bit_length() - 1}))


def suly1cor(w, certs):
    """Reveal 2s unit balls in color-balanced pairs, then fall back to the
    unit-head lemma on the remainder; the best bound of each part."""
    k, total = len(w), sum(w)
    ones = w.count(1)
    best_i = best_ii = None
    for p2 in _powers_of_two_up_to(max(ones, 1)):
        n = p2.bit_length() - 1
        rem = total - 2 * p2
        if rem >= 2 and rem % 2 == 0:
            s = rem // 2
            if ones >= p2 + 2 * s:
                cand = Certificate(k - 1 - s, CertificateSource.SULY1COR_I, {"n": n, "s": s})
                if best_i is None or cand.bound > best_i.bound:
                    best_i = cand
        rem = total - 2 * p2 - 1
        if rem >= 2 and rem % 2 == 0:
            s = rem // 2
            if ones >= p2 + 2 * s and (not w or w[0] != p2 + 1):
                cand = Certificate(k - 2 - s, CertificateSource.SULY1COR_II, {"n": n, "s": s})
                if best_ii is None or cand.bound > best_ii.bound:
                    best_ii = cand
    for cand in (best_i, best_ii):
        if cand is not None and cand.bound > 0:
            certs.append(cand)


def suly2(w, certs):
    """Power-of-two-head lemma, a total of 2^(n+1) (part i) or 2^(n+1) + 1
    (part ii), the head from the power-of-two balls."""
    k, total = len(w), sum(w)
    pow2_balls = [x for x in w if x & (x - 1) == 0]
    if total >= 2 and total & (total - 1) == 0:
        p2 = total // 2
        head = subset_sum_multiset(pow2_balls, p2)
        if head is not None:
            certs.append(Certificate(k - 1, CertificateSource.SULY2_I, {"n": p2.bit_length() - 1, "head": head}))
    if total >= 3 and (total - 1) & (total - 2) == 0:
        p2 = (total - 1) // 2
        if k > p2 + 1:
            head = subset_sum_multiset(pow2_balls, p2)
            if head is not None:
                certs.append(Certificate(k - 2, CertificateSource.SULY2_II, {"n": p2.bit_length() - 1, "head": head}))


def suly2cor(w, certs):
    """A total of 2^(n+1) + 3: the head from the power-of-two balls with one
    unit ball kept out."""
    k, total = len(w), sum(w)
    if total < 5 or (total - 3) & (total - 4) != 0:
        return
    p2 = (total - 3) // 2
    if k <= p2 + 2 or 1 not in w:
        return
    pow2_balls = [x for x in w if x & (x - 1) == 0]
    pow2_balls.remove(1)
    head = subset_sum_multiset(pow2_balls, p2)
    if head is not None:
        certs.append(Certificate(k - 3, CertificateSource.SULY2COR, {"n": p2.bit_length() - 1, "head": head}))


def o1g(w, certs):
    """A total of 2^(n+1) + 3: the head from the 1s and 2s."""
    k, total = len(w), sum(w)
    if total < 5 or (total - 3) & (total - 4) != 0:
        return
    p2 = (total - 3) // 2
    if k <= p2 + 2:
        return
    small = [x for x in w if x in (1, 2)]
    head = subset_sum_multiset(small, p2)
    if head is not None:
        certs.append(Certificate(k - 3, CertificateSource.O1G, {"n": p2.bit_length() - 1, "head": head}))


HEAD_SOURCES = frozenset(
    CertificateSource[name]
    for name in ("SULY1_I", "SULY1_II", "SULY1COR_I", "SULY1COR_II", "SULY2_I", "SULY2_II", "SULY2COR", "O1G")
)


def head_certificates(w):
    """The five head lemmas' certificates on the zero-free descending w, in
    `certify_lower_bound`'s order; each source gives at most one."""
    certs = []
    for lemma in (suly1, suly1cor, suly2, suly2cor, o1g):
        lemma(w, certs)
    return sorted(certs, key=lambda c: (-c.bound, c.source.value))


def base_hard_certificate_both_parts(w):
    """The first certificate at the hard level among the unit-head lemma,
    both equal-head parts and the power-of-two-head lemma, or None."""
    certs = []
    suly1(w, certs)
    suly1forma_both_parts(w, certs)
    suly2(w, certs)
    level = hard_level(w)
    return next((c for c in certs if c.bound == level), None)


# -- the counting bound from the signed-sum counts of each ball's others ---


def reference_count_balanced(weights) -> int:
    """p: the sign vectors of the normalized weights summing to zero."""
    return signed_sum_counts(normalize(weights)).get(0, 0)


def reference_count_majority_with(weights, i: int) -> int:
    """p_i: the sign vectors in which ball i sits in the strict-majority
    class, both colors of ball i counted."""
    w = tuple(weights)
    others = w[:i] + w[i + 1:]
    counts = signed_sum_counts(others)
    above = sum(c for s, c in counts.items() if w[i] + s > 0)
    return 2 * above


def reference_dectree_bound(weights):
    """The counting bound k - mu(p), or k - 1 - mu(p_i), on the normalized
    vector, zero balls included: p from the signed-sum counts of w, each
    p_i from those of the other balls, the first best route kept."""
    w = normalize(weights)
    k = len(w)
    candidates = []
    p = signed_sum_counts(w).get(0, 0)
    if p:
        mu = two_adic_valuation(p)
        candidates.append(Certificate(max(0, k - mu), CertificateSource.DECTREE_P, {"p": p, "mu": mu}))
    seen = set()
    for i, x in enumerate(w):
        if x in seen:
            continue
        seen.add(x)
        others = w[:i] + w[i + 1:]
        pi = 2 * sum(c for s, c in signed_sum_counts(others).items() if x + s > 0)
        if pi:
            mu = two_adic_valuation(pi)
            candidates.append(Certificate(max(0, k - 1 - mu), CertificateSource.DECTREE_PI, {"i": i, "p_i": pi, "mu": mu}))
    return max(candidates, key=lambda c: c.bound, default=Certificate(0, CertificateSource.TRIVIAL, {}))


# -- the lemma certificates, each split vector's parities from scratch -----


def gf2_factors(w: tuple) -> list[int]:
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


def gf2_product(shifts: list[int], total: int) -> int | None:
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
    `gf2_factors`); a zero weight makes every parity even.  While the
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
    shifts = gf2_factors(w)
    poly = gf2_product(shifts, total)
    if poly is not None:
        return _window_parity(poly, jlo, jhi)
    exps = {0}
    for d in shifts:
        exps ^= {e + d for e in exps if e + d <= jhi}
    return len([e for e in exps if e >= jlo]) & 1


def gf2_quotient(poly: int, t: int, top: int) -> int:
    """poly / (1 + X^t) over GF(2) in the degrees up to top, for a poly
    that 1 + X^t divides and t > 0.  1 / (1 + X^t) is the product of
    (1 + X^t)(1 + X^2t)(1 + X^4t)..., and the factors with shift above top
    leave those degrees alone; bits above top are left over, not zero."""
    d = t
    while d <= top:
        poly ^= poly << d
        d <<= 1
    return poly


def fixed_ball_parities(weights, lo: int, hi: int):
    """For each distinct weight t, in descending order, the pair (t, parity)
    where parity is `signed_sum_parity` of the other balls over the window
    (lo - t, hi - t], read from the GF(2) product of all the balls divided
    by (1 + X^t); when the total does not fit one integer, or t is 0, each t
    takes `signed_sum_parity` of the others instead."""
    w = tuple(weights)
    total = sum(w)
    poly = gf2_product(gf2_factors(w), total)
    for t in sorted(set(w), reverse=True):
        if poly is None or not t:
            others = list(w)
            others.remove(t)
            yield t, signed_sum_parity(others, lo - t, hi - t)
            continue
        top = total - t
        yield t, _window_parity(gf2_quotient(poly, t, top), *_plus_window(top, lo - t, hi - t))


def suly1forma_i(w, certs):
    """Equal-head lemma, part (i), on an even total: the parity of the
    signed sums a*2^n of the rest, from the rest's own GF(2) product."""
    if sum(w) % 2:
        return
    for a, p2, n, rest in equal_heads(w):
        if signed_sum_parity(rest, a * p2 - 1, a * p2):
            certs.append(Certificate(len(w) - 1, CertificateSource.SULY1FORMA_I, {"n": n, "head": a}))
            return


def suly1forma_ii(w, certs):
    """Equal-head lemma, part (ii): one ball t fixed, the parity of the
    signed sums of the rest in (-a*2^n, a*2^n], one product per head."""
    for a, p2, n, rest in equal_heads(w):
        for t, odd in fixed_ball_parities(rest, -a * p2, a * p2):
            if odd:
                certs.append(
                    Certificate(len(w) - 2, CertificateSource.SULY1FORMA_II, {"n": n, "head": a, "fixed_ball": t})
                )
                return


def base_hard_certificate(w):
    """The first certificate at the hard level among the unit-head lemma,
    the equal-head part that can reach it and the power-of-two-head lemma,
    or None."""
    certs = []
    suly1(w, certs)
    suly1forma_i(w, certs)
    if sum(w) % 2:
        suly1forma_ii(w, certs)
    suly2(w, certs)
    level = hard_level(w)
    return next((c for c in certs if c.bound == level), None)


OBS_MAX_STATES = 4000  # split vectors the reference walk visits at most


def obs_reduction(w, certs):
    """The split search, breadth first from the descending w, each frontier
    entry carrying a copy of its chain and each split child sorted anew."""
    level = hard_level(w)
    frontier = deque([(w, [])])
    seen = {w}
    while frontier and len(seen) < OBS_MAX_STATES:
        vec, chain = frontier.popleft()
        if chain:
            base = base_hard_certificate(vec)
            if base is not None:
                witness = {"chain": [list(v) for v in chain + [vec]], "base": base.source.value}
                certs.append(Certificate(level, CertificateSource.OBS_REDUCTION, witness))
                return
        for x in sorted(set(vec), reverse=True):
            if x % 2 != 0 or x == 0:
                continue
            nxt = list(vec)
            nxt.remove(x)
            nxt.extend([x // 2, x // 2])
            nv = tuple(sorted(nxt, reverse=True))
            if nv not in seen:
                seen.add(nv)
                frontier.append((nv, chain + [vec]))


def reference_certify_lower_bound(weights):
    """`certify_lower_bound` with the reference lemmas above: the best
    bound per source, by bound and then source name."""
    w = strip_zeros(normalize(weights))
    if not w:
        return []
    certs = []
    suly1(w, certs)
    suly1forma_i(w, certs)
    suly1forma_ii(w, certs)
    suly1cor(w, certs)
    suly2(w, certs)
    suly2cor(w, certs)
    o1g(w, certs)
    obs_reduction(w, certs)
    best = {}
    for c in certs:
        if c.source not in best or c.bound > best[c.source].bound:
            best[c.source] = c
    return sorted(best.values(), key=lambda c: (-c.bound, c.source.value))


# -- the weighted solver with sorted successors ---------------------------


def successors(w, a, b):
    """The two merge results of querying one ball of weight a against one of
    weight b: weights add, or cancel to the absolute difference."""
    rest = list(w)
    rest.remove(a)
    rest.remove(b)
    plus = tuple(sorted(rest + [a + b], reverse=True))
    d = abs(a - b)
    minus = tuple(sorted(rest + ([d] if d else []), reverse=True))
    return plus, minus


def value_pairs(w):
    """Unordered pairs of positive weight values present in w, each once:
    a descending, then b descending from a itself."""
    values = sorted(set(w), reverse=True)
    for i, a in enumerate(values):
        if a == 0:
            continue
        for b in values[i:]:
            if b == 0:
                continue
            if a == b and w.count(a) < 2:
                continue
            yield a, b


def reference_solve(w, memo):
    """``weighted._solve`` on a sorted, zero-free vector, with the same
    move order and pruning, filling ``memo`` in the same order."""
    cached = memo.get(w)
    if cached is not None:
        return cached
    if not w or 2 * w[0] > sum(w):
        memo[w] = 0
        return 0
    best = hard_level(w)
    for a, b in value_pairs(w):
        plus, minus = successors(w, a, b)
        m = reference_solve(minus, memo)
        if 1 + m >= best:
            continue
        p = reference_solve(plus, memo)
        if 1 + p < best:
            best = 1 + max(m, p)
    memo[w] = best
    return best


def reference_optimal_query(weights, memo):
    w = normalize(weights)
    if weighted_terminal(w) is not None:
        return None
    target = reference_solve(strip_zeros(w), memo)
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if w[i] == 0 or w[j] == 0:
                continue
            plus, minus = successors(w, w[i], w[j])
            if 1 + max(reference_solve(strip_zeros(plus), memo), reference_solve(strip_zeros(minus), memo)) == target:
                return (i, j)
    return None


def reference_adversarial_merge_weight(w, a, b, memo):
    plus, minus = successors(normalize(w), a, b)
    if reference_solve(strip_zeros(minus), memo) > reference_solve(strip_zeros(plus), memo):
        return abs(a - b)
    return a + b


# -- the split state as sorted side tuples -------------------------------


@dataclass(frozen=True)
class TupleComponent:
    """The two sides as sorted tuples, the lexicographically smaller first."""

    side_a: tuple[int, ...]
    side_b: tuple[int, ...]

    @staticmethod
    def make(side1, side2) -> "TupleComponent":
        a, b = tuple(sorted(side1)), tuple(sorted(side2))
        if b < a:
            a, b = b, a
        return TupleComponent(a, b)

    @property
    def weight(self) -> int:
        return abs(len(self.side_a) - len(self.side_b))

    @property
    def heavy_side(self) -> tuple[int, ...]:
        return self.side_a if len(self.side_a) > len(self.side_b) else self.side_b

    def min_vertex(self) -> int:
        return min(itertools.chain(self.side_a, self.side_b))


@dataclass(frozen=True)
class TupleState:
    graph: Graph
    components: tuple[TupleComponent, ...]
    queried: frozenset


def tuple_initial_state(graph: Graph) -> TupleState:
    return TupleState(graph, tuple(TupleComponent.make((v,), ()) for v in range(graph.n)), frozenset())


def tuple_component_index(state: TupleState, v: int) -> int:
    for i, comp in enumerate(state.components):
        if v in comp.side_a or v in comp.side_b:
            return i
    raise ValueError(f"vertex {v} not in any component")


def tuple_apply_query(state: TupleState, edge, answer: Answer) -> TupleState:
    u, v = edge
    e = normalize_edge(u, v)
    if e not in state.graph.edges:
        raise IllegalQueryError(f"edge {e} is not in the graph")
    iu = tuple_component_index(state, u)
    iv = tuple_component_index(state, v)
    if iu == iv:
        raise IllegalQueryError(f"edge {e} lies inside one q-component")
    cu, cv = state.components[iu], state.components[iv]
    u_side, u_other = (cu.side_a, cu.side_b) if u in cu.side_a else (cu.side_b, cu.side_a)
    v_side, v_other = (cv.side_a, cv.side_b) if v in cv.side_a else (cv.side_b, cv.side_a)
    if answer is Answer.SAME:
        merged = TupleComponent.make(u_side + v_side, u_other + v_other)
    else:
        merged = TupleComponent.make(u_side + v_other, u_other + v_side)
    rest = [c for i, c in enumerate(state.components) if i not in (iu, iv)]
    rest.append(merged)
    comps = tuple(sorted(rest, key=lambda c: c.min_vertex()))
    return TupleState(state.graph, comps, state.queried | {e})


def tuple_terminal_outcome(state: TupleState):
    weights = [c.weight for c in state.components]
    total = sum(weights)
    if total == 0:
        return Outcome.no_majority()
    i = max(range(len(weights)), key=weights.__getitem__)
    if weights[i] > total - weights[i]:
        return Outcome.majority_vertex(min(state.components[i].heavy_side))
    return None


def tuple_outcome_valid(state: TupleState, outcome) -> bool:
    if outcome.majority is None:
        return set(signed_sum_counts(c.weight for c in state.components)) == {0}
    i = tuple_component_index(state, outcome.majority)
    comp = state.components[i]
    d = len(comp.side_a) - len(comp.side_b)
    if outcome.majority in comp.side_b:
        d = -d
    others = (c.weight for j, c in enumerate(state.components) if j != i)
    return all(d + s > 0 for s in signed_sum_counts(others))


def tuple_encode_state(state: TupleState) -> tuple[int, ...]:
    """The packed codes of ``graphsolver.encode_state``, built vertex by
    vertex."""
    shift = state.graph.n.bit_length()
    codes = []
    for comp in state.components:
        m = 0
        for v in comp.side_a + comp.side_b:
            m |= 1 << v
        codes.append((m << shift) | comp.weight)
    return tuple(sorted(codes))


@functools.cache
def _least_edges(n: int, edges: tuple) -> tuple[tuple, list]:
    """The least sorted edge list over every renumbering of the vertices,
    and the renumberings that reach it."""
    forms: dict[tuple, list] = {}
    for perm in itertools.permutations(range(n)):
        form = tuple(sorted((min(perm[x], perm[y]), max(perm[x], perm[y])) for x, y in edges))
        forms.setdefault(form, []).append(perm)
    least = min(forms)
    return least, forms[least]


def brute_canonical_form(labels, edges):
    """The least (sorted edges, labels) over every renumbering of the
    vertices: equal for two labelled graphs exactly when they are
    isomorphic with their labels."""
    least, perms = _least_edges(len(labels), tuple(edges))
    order = range(len(labels))
    return least, min(tuple(labels[v] for v in sorted(order, key=perm.__getitem__)) for perm in perms)
