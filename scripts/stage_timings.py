#!/usr/bin/env python3
"""Time the classification pipeline stage by stage, in one process.

Usage: python scripts/stage_timings.py [--no-core-group] [SYSTEM ...]
(default: E7 E8 D10)

Prints the import time once, then per system the seconds spent building
the root system and enhanced basis, in _orbits (the descent through
maximal subsystems from the simple basis, then the walk over Pi-subsets
that meets each label's least representative), in enumerate_pi_orbits and
in hasse_diagram over all orbits, each stage on the caches the earlier
ones filled, as `rootforge classify` and `rootforge order` run them, and
the process's peak RSS after them.  A second line times _orbits' two
passes apart, on a fresh copy of the system with cold caches, and says
what they did: the subsets the walk visited, the subset it stopped at
(the least representative of the last label to be met), the children of
the descent that it labelled (Levi children and extended children), the
distinct masks whose components it split to label them (each is split
once, _PiWalk.splits) and the nodes it placed past the enhanced diagram on
the walk's view: the highest roots that are not diagram nodes.

A third line times core_group_model, which neither command runs, and
splits it into its steps, run on a fresh copy of the system with cold
caches, and freed first, so at most one core group is alive: the
Weyl-generated closure (subsystems, their local closures and the closure
of what they give), the labeling and the order check of the structured
generators (each lies in the group, and their Schreier-Sims chain has its
order); then the peak RSS again.

A fourth line, for systems whose moset has two or more members, times
Weyl membership (is_weyl_embedding) on a seeded stream of positive
embeddings w1(S) -> w2(S), S a least representative of a random orbit and
w1, w2 random reflection words.  It runs on a fresh copy of the system
whose enhanced basis and core group are built first, untimed, and freed
before the cached system builds its core group.  It splits the time into
cartan_links (built at the first query), weyl_into_moset,
extend_partial_map and the rest: peeling the domain to its perfect moset
and replaying the witness word.  It counts the moset walks run and the
memo hits (walks answered from system.memo, keyed on scope and start).

--no-core-group leaves the third and fourth lines out: the core group of
D16 has 5,160,960 elements.  Times are time.perf_counter, unscaled.
"""

import gc
import random
import resource
import sys
import time

start = time.perf_counter()
import rootforge  # noqa: E402
from rootforge import classify  # noqa: E402
from rootforge.classify import (  # noqa: E402
    _apply,
    _descent,
    _first_subsets,
    _mask_nodes,
    _orbits,
    _PiWalk,
    enumerate_pi_orbits,
    hasse_diagram,
)
from rootforge.coregroups import (  # noqa: E402
    _derive_labeling,
    _generated_order,
    _model_generators,
    _weyl_core_elements,
    core_group_model,
)
from rootforge.rootsystem import cartan_links  # noqa: E402

MEMBERSHIP_QUERIES = 40

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


def generates(generators, closed):
    """The order check of core_group_model: the generators lie in closed
    and generate a group of its order."""
    return all(bytes(g) in closed for g in generators) and _generated_order(generators) == len(closed)


def core_steps(system):
    """core_group_model's steps on system, each check made as
    core_group_model makes it."""
    eb = rootforge.enhanced_basis(system)
    closed, t_closure = timed(_weyl_core_elements, system, eb)
    labeling, t_labeling = timed(_derive_labeling, system, eb, closed)
    generators = _model_generators(system, labeling, eb.moset)
    ok, t_order = timed(generates, generators, closed)
    if not ok:
        raise SystemExit(f"{system.name}: core group checks fail")
    return t_closure, t_labeling, t_order


def membership_stream(system, representatives, seed=0):
    """Seeded positive embeddings w1(S) -> w2(S) as node -> node maps."""
    rng = random.Random(seed)

    def moved(nodes):
        word = [rng.choice(system.positive) for _ in range(rng.randint(1, 20))]
        return [system.proj_rep(_apply(system, word, n)) for n in nodes]

    out = []
    for _ in range(MEMBERSHIP_QUERIES):
        nodes = rng.choice(representatives)
        out.append(dict(zip(moved(nodes), moved(nodes))))
    return out


def membership_steps(system, maps):
    """is_weyl_embedding on each map, on system, timed in parts: seconds in
    cartan_links, weyl_into_moset, extend_partial_map and the rest, then
    the moset walks run and the calls answered from the memo.  The parts
    are timed by wrapping the classify functions that is_weyl_embedding
    and weyl_into_moset call, and restored afterwards."""
    spent = {"weyl_into_moset": 0.0, "extend_partial_map": 0.0}
    calls = [0]
    originals = {name: getattr(classify, name) for name in (*spent, "_walk_to")}

    def clocked(name):
        def run(*args):
            t = time.perf_counter()
            try:
                return originals[name](*args)
            finally:
                spent[name] += time.perf_counter() - t

        return run

    def counted(*args):
        calls[0] += 1
        return originals["_walk_to"](*args)

    embeddings = [rootforge.EmbeddingMap(system, m) for m in maps]
    _, t_links = timed(cartan_links, system)
    for name in spent:
        setattr(classify, name, clocked(name))
    classify._walk_to = counted
    try:
        t_total = 0.0
        for emb in embeddings:
            decision, t = timed(rootforge.is_weyl_embedding, emb)
            t_total += t
            if not decision.is_weyl:
                raise SystemExit(f"{system.name}: a positive embedding was refused")
    finally:
        for name, fn in originals.items():
            setattr(classify, name, fn)
    runs = sum(1 for key in system.memo if key[0] is originals["_walk_to"].__wrapped__)
    t_rest = t_total - sum(spent.values())
    return t_links, spent["weyl_into_moset"], spent["extend_partial_map"], t_rest, runs, calls[0] - runs


def main(argv):
    core = "--no-core-group" not in argv
    print(f"import {IMPORT_S:.3f}s")
    for text in [a for a in argv if a != "--no-core-group"] or ["E7", "E8", "D10"]:
        system, t_build = timed(build, text)
        found, t_walk = timed(_orbits, system)
        orbits, t_orbits = timed(enumerate_pi_orbits, system)
        hasse, t_hasse = timed(hasse_diagram, system)
        print(
            f"{system.name:4} {len(system.roots):>4} roots {len(found.nodes):>3} nodes"
            f" {len(orbits):>5} orbits {len(hasse.edges):>6,} edges | build {t_build:6.3f}s"
            f"  _orbits {t_walk:6.3f}s  enumerate_pi_orbits {t_orbits:6.3f}s"
            f"  hasse_diagram {t_hasse:6.3f}s  peak RSS {peak_rss_mib():,.0f} MiB"
        )
        names = rootforge.enhanced_basis(system).names
        # The walk's depth-first order is the lexicographic order of the
        # sorted node tuples, so it stopped at the greatest representative.
        last = max(_mask_nodes(found.nodes, mask) for mask in found.first)
        levi, extended = found.children
        walk = _PiWalk(rootforge.build_root_system.__wrapped__(system.series, system.rank))
        (below, _), t_descent = timed(_descent, walk)
        _, t_first = timed(_first_subsets, walk, below)
        print(
            f"     descent {t_descent:6.3f}s: {levi:,} Levi children, {extended:,} extended,"
            f" {len(walk.splits):,} distinct component splits,"
            f" {len(walk.nodes) - walk.size} nodes placed past the diagram;"
            f" walk {t_first:6.3f}s: {found.visited:,} subsets visited, stopped at"
            f" {{{','.join(names[n] for n in last)}}}"
        )
        if not core:
            continue
        # Each cold copy's core group is built and collected before the
        # next one, and before the cached system grows its own, so at most
        # one is alive.
        steps = core_steps(rootforge.build_root_system.__wrapped__(system.series, system.rank))
        gc.collect()
        member = None
        if len(rootforge.enhanced_basis(system).moset) >= 2:
            maps = membership_stream(system, [_mask_nodes(found.nodes, mask) for mask in found.first])
            cold = rootforge.build_root_system.__wrapped__(system.series, system.rank)
            rootforge.enhanced_basis(cold)
            core_group_model(cold)
            member = membership_steps(cold, maps)
            del cold
            gc.collect()
        _, t_core = timed(core_group_model, system)
        t_closure, t_labeling, t_order = steps
        print(
            f"     core_group_model {t_core:6.3f}s: closure {t_closure:6.3f}s"
            f"  labeling {t_labeling:6.3f}s  order check {t_order:6.3f}s  peak RSS {peak_rss_mib():,.0f} MiB"
        )
        if member is not None:
            t_links, t_into, t_extend, t_rest, runs, hits = member
            print(
                f"     membership {MEMBERSHIP_QUERIES} embeddings: cartan_links {t_links:6.3f}s"
                f"  weyl_into_moset {t_into:6.3f}s  extend_partial_map {t_extend:6.3f}s"
                f"  peel and replay {t_rest:6.3f}s; {runs:,} walks run, {hits:,} memo hits"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
