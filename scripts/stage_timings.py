#!/usr/bin/env python3
"""Time the classification pipeline stage by stage, in one process.

Usage: python scripts/stage_timings.py [SYSTEM ...]    (default: E7 E8 D10)

Prints the import time once, then per system the seconds spent building
the root system and enhanced basis, in core_group_model, in _pi_table
(the labelled walk over Pi-subsets), in enumerate_pi_orbits and in
hasse_diagram over all orbits, each stage on the caches the earlier ones
filled, as `rootforge classify` and `rootforge order` run them.  Times
are time.perf_counter, unscaled.
"""

import sys
import time

start = time.perf_counter()
import rootforge  # noqa: E402
from rootforge.classify import _pi_table, enumerate_pi_orbits, hasse_diagram  # noqa: E402
from rootforge.coregroups import core_group_model  # noqa: E402

IMPORT_S = time.perf_counter() - start


def timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


def build(text):
    system = rootforge.parse_system(text)
    rootforge.enhanced_basis(system)
    return system


def main(argv):
    print(f"import {IMPORT_S:.3f}s")
    for text in argv or ["E7", "E8", "D10"]:
        system, t_build = timed(build, text)
        _, t_core = timed(core_group_model, system)
        table, t_table = timed(_pi_table, system)
        orbits, t_orbits = timed(enumerate_pi_orbits, system)
        hasse, t_hasse = timed(hasse_diagram, system)
        print(
            f"{system.name:4} {len(system.roots):>4} roots {len(table.nodes):>3} nodes"
            f" {len(table.masks):>8,} Pi-subsets {len(orbits):>5} orbits"
            f" {len(hasse.edges):>6,} edges | build {t_build:6.3f}s"
            f"  core_group_model {t_core:6.3f}s  _pi_table {t_table:6.3f}s"
            f"  enumerate_pi_orbits {t_orbits:6.3f}s  hasse_diagram {t_hasse:6.3f}s"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
