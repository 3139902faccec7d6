#!/usr/bin/env python3
"""Time the brute-force oracle loop by loop: Weyl enumeration (with the
sizes |X_1|, ..., |X_n| of the coset transversals it multiplies), the moset
orbit size from its canonical image, the moset stabilizer and the orbit map
of the Pi-subsets, both read from the stabilizer tree, then the process's
peak RSS after each system.

Usage: python scripts/oracle_timings.py [A3 D4 D5 D6 E6 E7]

E7 enumerates all 2,903,040 elements of W(E7) and holds them at once
(about 0.65 GB); it is left out unless named.
"""

import resource
import sys
import time

from rootforge import build_root_system, enhanced_basis
from rootforge.classify import pi_node_subsets
from rootforge.oracle import (
    DEFAULT_CAP,
    _transversals,
    canonical_image,
    enumerate_weyl,
    orbit_id_map,
    set_stabilizer,
)


def timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


def main(argv):
    labels = argv or ["A3", "D4", "D5", "D6", "E6"]
    for text in labels:
        system = build_root_system(text[0].upper(), int(text[1:]))
        eb = enhanced_basis(system)
        elements, t_enum = timed(enumerate_weyl, system)
        sizes = " x ".join(str(len(x)) for x in _transversals(system, DEFAULT_CAP))
        (_, moset_size), t_orbit = timed(canonical_image, system, eb.moset)
        stab, t_stab = timed(set_stabilizer, system, eb.moset, elements)
        order = len(elements)
        del elements
        subsets = pi_node_subsets(eb)
        ids, t_ids = timed(orbit_id_map, system, subsets)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(
            f"{system.name:4} |W| = {order:>9,}"
            f"  enumerate_weyl {t_enum:6.2f}s ({sizes})"
            f"  moset orbit {moset_size:>6,} sets {t_orbit:6.2f}s"
            f"  set_stabilizer {len(stab):>6,} {t_stab:6.2f}s"
            f"  orbit_id_map {len(subsets):>6,} Pi-subsets -> {len(set(ids.values())):>4} orbits {t_ids:6.2f}s"
            f"  peak RSS {peak_mib:6.1f} MiB"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
