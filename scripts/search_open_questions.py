#!/usr/bin/env python3
"""Evidence gathering for the open questions.  Takes no position; reports
whatever the search finds.

  * reverse pair-merge: a non-hard (a, a, rest) whose merge (2a, rest) is
    hard would refute the reverse of the forward hardness propagation;
  * odd paths: for odd n, the game value m(P_n), the verification
    complexity m_nd(P_n) and the savings n - m_nd(P_n) (which grows like
    sqrt(n)), with the search's expanded nodes, the row's seconds and the
    process's peak resident memory so far, one tab-separated row each;
  * tree floor: search small odd trees for m(T) < n - 3; each row gives
    the tree count, the histogram of n - m(T) and the seconds;
  * even trees: the weight-discipline adversary against every even free
    tree, any tree it holds below n - 1 listed, and its conditions checked
    in every state of every query order, any tree that breaks them listed;
    each row gives the tree count, then the seconds and the size so far of
    the shared quotient memo for the forced queries and of the shared
    visited set for the all-orders check;
  * sparse optima: an exhaustive walk of the hub construction's querier's
    answer tree for n = 4..N, which proves m(G_n) <= n - b(n) wherever it
    passes; each row gives the walk's seconds and the process's peak
    resident memory so far;
  * verification complexity: the histogram of m_nd(T) over odd free trees,
    by the tree DP's minimum certificates; a --max-mnd-n above
    nondet.MAX_MND_N (16) is a usage error, reported before any section runs.

Usage: python3 scripts/search_open_questions.py [--max-tree-n 11] [--max-total 34]
           [--max-path-n 13] [--max-even-n 12] [--max-mnd-n 9] [--max-verify-n 16]
"""

import argparse
import resource
import time
from collections import Counter

from majority_game.adversary import TreelemmaAdversary, verify_treelemma_all_orders
from majority_game.bounds import popcount, search_obs_reverse_counterexample
from majority_game.constructions import build_minedge_graph, minedge_querier, verify_querier
from majority_game.generators import free_trees, path_graph
from majority_game.graphsolver import forced_queries, quotient_cache_info, solve_graph
from majority_game.nondet import MAX_MND_N, m_nd


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-tree-n", type=int, default=11)
    parser.add_argument("--max-total", type=int, default=34)
    parser.add_argument("--max-path-n", type=int, default=13)
    parser.add_argument("--max-even-n", type=int, default=12)
    parser.add_argument("--max-mnd-n", type=int, default=9)
    parser.add_argument("--max-verify-n", type=int, default=16)
    args = parser.parse_args(argv)
    if args.max_mnd_n > MAX_MND_N:
        parser.error(f"--max-mnd-n is limited to {MAX_MND_N}: m_nd enumerates 2**(n-1) colorings")

    t0 = time.time()
    print(f"reverse pair-merge search (totals <= {args.max_total}):")
    for allow, label in ((True, "any"), (False, "non-terminal merges only")):
        found = search_obs_reverse_counterexample(max_total=args.max_total, allow_terminal=allow)
        if found is None:
            print(f"  [{label}] no counterexample found")
        else:
            w, merged = found
            print(f"  [{label}] counterexample: {w} is not hard but its merge {merged} is")

    print(f"\nodd paths (n <= {args.max_path_n}):")
    print("  n\tm\tm_nd\tn-m_nd\tnodes\tseconds\tpeak_rss_mb")
    for n in range(3, args.max_path_n + 1, 2):
        start = time.time()
        path = path_graph(n)
        res = solve_graph(path)
        nd = m_nd(path) if n <= MAX_MND_N else "-"
        saving = n - nd if isinstance(nd, int) else "-"
        print(f"  {n}\t{res.value}\t{nd}\t{saving}\t{res.nodes_expanded}"
              f"\t{time.time() - start:.1f}\t{_peak_rss_mb():.0f}", flush=True)

    print(f"\nodd-tree floor search (n <= {args.max_tree_n}):")
    for n in range(3, args.max_tree_n + 1, 2):
        start = time.time()
        gaps = Counter()
        for tree in free_trees(n):
            m = solve_graph(tree).value
            gaps[n - m] += 1
            if m < n - 3:
                print(f"  n={n}: m(T) = {m} < n-3 for {tree.sorted_edges}")
        histogram = ", ".join(f"{gaps[g]} with n - m = {g}" for g in sorted(gaps))
        print(f"  n={n}: {sum(gaps.values())} trees, {histogram} ({time.time() - start:.1f}s)", flush=True)

    print(f"\neven trees against the weight-discipline adversary (n <= {args.max_even_n}):")
    for n in range(2, args.max_even_n + 1, 2):
        start = time.time()
        trees = list(free_trees(n))
        below = [t.sorted_edges for t in trees if forced_queries(t, TreelemmaAdversary(t)) < n - 1]
        verdict = f"{len(below)} below n - 1: {below[:3]}" if below else "none below n - 1"
        forced_s, start = time.time() - start, time.time()
        broken = [t.sorted_edges for t in trees if not verify_treelemma_all_orders(t)]
        verdict += f", all orders break on {len(broken)}: {broken[:3]}" if broken else ", all orders hold"
        info = quotient_cache_info()
        print(f"  n={n}: {len(trees)} trees, {verdict} ({forced_s:.1f}s, memo {info['states']} states;"
              f" {time.time() - start:.1f}s, visited {info['visited']} states)", flush=True)

    print(f"\nhub construction answer trees (n <= {args.max_verify_n}):")
    for n in range(4, args.max_verify_n + 1):
        start = time.time()
        budget = n - popcount(n)
        report = verify_querier(build_minedge_graph(n).graph, minedge_querier(n), budget)
        verdict = "pass" if report.passed else f"FAIL at {report.failure_path}"
        print(f"  n={n}: {verdict}, {report.leaves_checked} leaves,"
              f" max {report.max_queries} queries vs n - b(n) = {budget}"
              f" ({time.time() - start:.1f}s, peak RSS {_peak_rss_mb():.0f} MB)", flush=True)

    print(f"\nm_nd over odd free trees (n <= {args.max_mnd_n}):")
    for n in range(3, args.max_mnd_n + 1, 2):
        start = time.time()
        counts = Counter(m_nd(tree) for tree in free_trees(n))
        histogram = ", ".join(f"{counts[v]} with m_nd = {v}" for v in sorted(counts))
        print(f"  n={n}: {histogram} ({time.time() - start:.1f}s)")
    print(f"\ntotal {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
