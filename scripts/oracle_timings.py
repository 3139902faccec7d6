#!/usr/bin/env python3
"""Time the brute-force machinery: Weyl enumeration and orbit walks.

Usage: python scripts/oracle_timings.py [A3 D4 D5 D6 E6]
"""

import sys
import time

from rootforge import build_root_system, enhanced_basis, subset_orbit_bfs, weyl_order


def main(argv):
    labels = argv or ["A3", "D4", "D5", "D6", "E6"]
    for text in labels:
        system = build_root_system(text[0].upper(), int(text[1:]))
        t = time.time()
        order = weyl_order(system)
        t_enum = time.time() - t
        eb = enhanced_basis(system)
        t = time.time()
        orbit = subset_orbit_bfs(system, eb.moset)
        t_orbit = time.time() - t
        print(
            f"{system.name:4} |W| = {order:>9,}  enumerated in {t_enum:6.2f}s;"
            f" moset orbit {len(orbit):>6,} sets in {t_orbit:6.2f}s"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
