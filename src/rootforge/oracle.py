"""Brute-force Weyl group machinery used as ground truth at small rank.

Elements are stored as permutations of the root index list, packed into
bytes (every supported system has fewer than 256 roots).  Full enumeration
is only feasible up to W(E7); orbit questions about subsets are answered
by a generator walk that never materializes the whole group.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass

from .errors import CapExceeded
from .rootsystem import RootSystem, system_memo

CACHE_ENV = "ROOTFORGE_CACHE_DIR"
CACHE_VERSION = 1
DEFAULT_CAP = 10**7


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element as a permutation of root indices."""

    perm: bytes

    def apply(self, i: int) -> int:
        return self.perm[i]

    def apply_set(self, subset) -> frozenset:
        return frozenset(self.perm[i] for i in subset)


def simple_reflection_perms(system: RootSystem) -> list[bytes]:
    return [reflection_perm(system, j) for j in system.simple_basis]


@system_memo
def reflection_perm(system: RootSystem, j: int) -> bytes:
    return bytes(system.reflect(i, j) for i in range(len(system.roots)))


def compose(outer: bytes, inner: bytes) -> bytes:
    """Permutation sending i to outer[inner[i]]."""
    return bytes(outer[x] for x in inner)


def identity_perm(system: RootSystem) -> bytes:
    return bytes(range(len(system.roots)))


def perm_from_word(system: RootSystem, word) -> bytes:
    """Compose reflections in the listed roots, first entry applied first."""
    out = identity_perm(system)
    for j in word:
        out = compose(reflection_perm(system, j), out)
    return out


def enumerate_weyl(system: RootSystem, cap: int = DEFAULT_CAP) -> list[WeylElement]:
    """All Weyl group elements by breadth-first closure of the simple
    reflections.  Raises CapExceeded when the group outgrows the cap."""
    cached = _cache_load(system)
    if cached is not None:
        if len(cached) > cap:
            raise CapExceeded(f"|W| = {len(cached)} exceeds cap {cap}")
        return [WeylElement(p) for p in cached]
    gens = simple_reflection_perms(system)
    ident = identity_perm(system)
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                x = compose(g, w)
                if x not in seen:
                    seen.add(x)
                    new.append(x)
                    if len(seen) > cap:
                        raise CapExceeded(f"Weyl enumeration exceeded cap {cap}")
        frontier = new
    perms = sorted(seen)
    _cache_store(system, perms)
    return [WeylElement(p) for p in perms]


def weyl_order(system: RootSystem, cap: int = DEFAULT_CAP) -> int:
    return len(enumerate_weyl(system, cap))


def subset_orbit(subset, elements) -> set[frozenset]:
    """Orbit of a projective/root index set under explicitly listed elements."""
    base = frozenset(subset)
    return {w.apply_set(base) for w in elements}


def subset_orbit_bfs(system: RootSystem, subset, cap: int = 10**7) -> set[frozenset]:
    """Orbit of an index set under the full Weyl group, walked with the
    simple reflections only.  Sets are tracked as canonical frozensets of
    projective representatives."""
    gens = simple_reflection_perms(system)

    def canon(s) -> frozenset:
        return frozenset(system.proj_rep(i) for i in s)

    start = canon(subset)
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for s in frontier:
            for g in gens:
                img = canon(g[i] for i in s)
                if img not in seen:
                    seen.add(img)
                    new.append(img)
                    if len(seen) > cap:
                        raise CapExceeded("subset orbit exceeded cap")
        frontier = new
    return seen


def orbit_id_map(system: RootSystem, subsets, cap: int = 10**7) -> dict:
    """Map each given subset (canonical projective frozenset) to a stable
    orbit identifier (the lexicographically least member of its orbit)."""
    out: dict[frozenset, tuple] = {}
    pending = [frozenset(system.proj_rep(i) for i in s) for s in subsets]
    for s in pending:
        if s in out:
            continue
        orbit = subset_orbit_bfs(system, s, cap=cap)
        rep = min(tuple(sorted(x)) for x in orbit)
        for member in orbit:
            if member in out:
                assert out[member] == rep
            out[member] = rep
    return out


def set_stabilizer(system: RootSystem, subset, elements) -> list[WeylElement]:
    """Elements mapping the projective subset onto itself."""
    base = frozenset(system.proj_rep(i) for i in subset)

    def stabilizes(w: WeylElement) -> bool:
        return frozenset(system.proj_rep(w.perm[i]) for i in base) == base

    return [w for w in elements if stabilizes(w)]


def induced_action(system: RootSystem, subset, stabilizer) -> set[tuple[int, ...]]:
    """Permutations induced on the sorted projective subset by a stabilizer."""
    base = system.projective(subset)
    pos = {n: k for k, n in enumerate(base)}
    out = set()
    for w in stabilizer:
        out.add(tuple(pos[system.proj_rep(w.perm[n])] for n in base))
    return out


# -- cache ------------------------------------------------------------------


def _cache_path(system: RootSystem) -> str | None:
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    os.makedirs(root, exist_ok=True)
    return os.path.join(
        root, f"weyl-{system.series}{system.rank}-v{CACHE_VERSION}.pkl"
    )


def _cache_load(system: RootSystem):
    path = _cache_path(system)
    if path and os.path.exists(path):
        with open(path, "rb") as fh:
            return pickle.load(fh)
    return None


def _cache_store(system: RootSystem, perms) -> None:
    path = _cache_path(system)
    if path:
        with open(path, "wb") as fh:
            pickle.dump(perms, fh, protocol=pickle.HIGHEST_PROTOCOL)
