"""Core group building steps kept as an independent reference for the tests.

The package finds the moset roots a subsystem touches against its basis,
keeps a local element when the touched positions' images leave nothing
after deleting the touched positions, builds its permutation with one
translate, reads a subsystem straight from the reflection closure of its
seed, and takes a group orbit of k-subsets with itemgetter.  These are the
earlier forms: touched against every root of the subsystem, set equality,
a permutation filled in position by position, the subsystem through
subsystem_generated, and each image set built element by element.
"""

from rootforge.coregroups import _reach
from rootforge.oracle import _closure, _table
from rootforge.rootsystem import RootSet, subsystem_basis, subsystem_generated


def local_stabilizer_perms(system, sub, moset):
    """(moset position permutation as a tuple, reflection word) for each
    element of the local closure that maps the moset onto itself."""
    touched = [m for m in moset if any(system.cartan(m, r) != 0 for r in sub) or m in sub]
    if len(touched) < 2:
        return []
    pos = {n: k for k, n in enumerate(moset)}
    basis = subsystem_basis(system, sub)
    start = tuple(basis) + tuple(touched)
    reach = _reach(system, basis, start)
    local = {x: k for k, x in enumerate(reach)}
    gens = [(_table(bytes(local[system.reflect(x, g)] for x in reach)), (g,)) for g in basis]
    seen = _closure(bytes(local[x] for x in start), gens)
    outside = len(moset)
    where = _table(bytes(pos.get(system.proj_rep(x), outside) for x in reach))
    tpos = [pos[m] for m in touched]
    tset = set(tpos)
    out = []
    for state, word in seen.items():
        images = state[len(basis):].translate(where)
        if set(images) == tset:
            perm = list(range(len(moset)))
            for p, q in zip(tpos, images):
                perm[p] = q
            out.append((tuple(perm), word))
    return out


def subsystems(system, seeds):
    """The distinct subsystems the seeds generate, in first-seen order."""
    out = {}
    for seed in seeds:
        out.setdefault(subsystem_generated(RootSet(system, seed)).members)
    return list(out)


def orbit_partition(elements, subsets):
    """The group orbits of the subsets, each from its least member."""
    remaining = set(subsets)
    orbits = []
    while remaining:
        start = min(remaining, key=sorted)
        orbit = {frozenset(perm[i] for i in start) for perm in elements}
        orbits.append(orbit)
        remaining -= orbit
    return orbits
