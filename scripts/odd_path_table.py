#!/usr/bin/env python3
"""Exact game values and verification complexities of short odd paths.

Prints, for odd n, the game value m(P_n), the verification complexity
m_nd(P_n), and the savings n - m_nd(P_n) (which grows like sqrt(n)), with
the search's expanded nodes, the row's wall time and the process's peak
resident memory so far.

Usage: python3 scripts/odd_path_table.py [max_n]   (default 13)
"""

import argparse
import resource
import time

from majority_game.generators import path_graph
from majority_game.graphsolver import solve_graph
from majority_game.nondet import MAX_MND_N, m_nd


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("max_n", type=int, nargs="?", default=13, help="largest n (default 13)")
    max_n = parser.parse_args(argv).max_n
    print("n\tm\tm_nd\tn-m_nd\tnodes\tseconds\tpeak_rss_mb")
    for n in range(3, max_n + 1, 2):
        t0 = time.perf_counter()
        g = path_graph(n)
        res = solve_graph(g)
        nd = m_nd(g) if n <= MAX_MND_N else "-"
        saving = n - nd if isinstance(nd, int) else "-"
        seconds = time.perf_counter() - t0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB
        print(f"{n}\t{res.value}\t{nd}\t{saving}\t{res.nodes_expanded}\t{seconds:.1f}\t{rss_mb:.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
