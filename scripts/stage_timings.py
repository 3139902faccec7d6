#!/usr/bin/env python3
"""Time the classification pipeline stage by stage, in one process.

Usage: python scripts/stage_timings.py [SYSTEM ...]    (default: E7 E8 D10)

Prints the import time once, then per system the seconds spent building
the root system and enhanced basis, in core_group_model, in _pi_table
(the labelled walk over Pi-subsets), in enumerate_pi_orbits and in
hasse_diagram over all orbits, each stage on the caches the earlier ones
filled, as `rootforge classify` and `rootforge order` run them, and the
process's peak RSS so far.  Next to hasse_diagram it counts the children
of the descent through maximal subsystems that gives the lower sets: Levi
children, extended children that are table subsets, and extended children
labelled by _orbit_label because their highest root is off the enhanced
diagram.  A second line splits core_group_model into its
steps, run on a fresh copy of the system with cold caches before the
cached system's core group is built, and freed first, so at most one core
group is alive: the Weyl-generated closure (subsystems, their local
closures and the closure of what they give), the labeling, the check
against the series model and the span check of the structured generators.
Times are time.perf_counter, unscaled.
"""

import gc
import resource
import sys
import time

start = time.perf_counter()
import rootforge  # noqa: E402
from rootforge.classify import (  # noqa: E402
    _first_masks,
    _maximal_children,
    _pi_table,
    enumerate_pi_orbits,
    hasse_diagram,
)
from rootforge.coregroups import (  # noqa: E402
    _close_group,
    _derive_labeling,
    _model_element_set,
    _model_generators,
    _weyl_core_elements,
    core_group_model,
)

IMPORT_S = time.perf_counter() - start


def timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


def build(text):
    system = rootforge.parse_system(text)
    rootforge.enhanced_basis(system)
    return system


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def core_steps(system):
    """core_group_model's steps on system, each check made as
    core_group_model makes it."""
    eb = rootforge.enhanced_basis(system)
    closed, t_closure = timed(_weyl_core_elements, system, eb)
    labeling, t_labeling = timed(_derive_labeling, system, eb, closed)
    model, t_model = timed(_model_element_set, system, labeling, eb.moset)
    generators = _model_generators(system, labeling, eb.moset)
    span, t_span = timed(_close_group, dict.fromkeys(generators, ()), len(eb.moset))
    if model != closed.keys() or span.keys() != closed.keys():
        raise SystemExit(f"{system.name}: core group checks fail")
    return t_closure, t_labeling, t_model, t_span


def descent_children(system, table):
    """(Levi, extended in the table, extended labelled) children of the
    descent over the table's orbit representatives."""
    inside = set(table.nodes)
    counts = [0, 0, 0]
    for mask in _first_masks(table):
        for _, theta in _maximal_children(system, table.subset(mask)):
            counts[0 if theta is None else 1 if theta in inside else 2] += 1
    return tuple(counts)


def main(argv):
    print(f"import {IMPORT_S:.3f}s")
    for text in argv or ["E7", "E8", "D10"]:
        system, t_build = timed(build, text)
        # The cold copy's core group is built and collected before the
        # cached system grows its own, so at most one is alive.
        steps = core_steps(rootforge.build_root_system.__wrapped__(system.series, system.rank))
        gc.collect()
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
            f"  peak RSS {peak_rss_mib():,.0f} MiB"
        )
        print(
            "     descent children: {:,} Levi, {:,} extended in the table,"
            " {:,} extended labelled".format(*descent_children(system, table))
        )
        print(
            "     core_group_model steps: closure {:6.3f}s  labeling {:6.3f}s"
            "  model-set check {:6.3f}s  span check {:6.3f}s".format(*steps)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
