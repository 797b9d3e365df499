#!/usr/bin/env python3
"""Exact game values and verification complexities of short odd paths.

Prints, for odd n, the game value m(P_n), the verification complexity
m_nd(P_n), and the savings n - m_nd(P_n) (which grows like sqrt(n)).

Usage: python3 scripts/odd_path_table.py [max_n]   (default 13)
"""

import argparse
import time

from majority_game.generators import path_graph
from majority_game.graphsolver import solve_graph
from majority_game.nondet import m_nd


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("max_n", type=int, nargs="?", default=13, help="largest n (default 13)")
    max_n = parser.parse_args().max_n
    print("n\tm\tm_nd\tn-m_nd\tseconds")
    for n in range(3, max_n + 1, 2):
        t0 = time.time()
        g = path_graph(n)
        value = solve_graph(g, canonical="path").value
        nd = m_nd(g) if n <= 16 else "-"
        saving = n - nd if isinstance(nd, int) else "-"
        print(f"{n}\t{value}\t{nd}\t{saving}\t{time.time() - t0:.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
