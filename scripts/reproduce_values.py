#!/usr/bin/env python3
"""Reproduce every exact value table: complete graphs, paths (including
P_15), even trees, and the named weighted vectors.

Usage: python3 scripts/reproduce_values.py [--quick]
  --quick skips P_15 and the even-tree batch.
"""

import argparse
import time

from majority_game import suites


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="skip P_15 and the even-tree batch")
    quick = parser.parse_args(argv).quick
    t0 = time.time()
    records = []
    records += suites.criterion_1()
    records += suites.criterion_2(full=not quick)
    if not quick:
        records += suites.criterion_3()
    records += suites.criterion_4()
    for r in records:
        print(r.line())
    failed = [r for r in records if not r.ok]
    print(f"\n{len(records) - len(failed)}/{len(records)} checks passed "
          f"in {time.time() - t0:.1f}s")
    return 0 if not failed else 1


if __name__ == "__main__":
    raise SystemExit(main())
