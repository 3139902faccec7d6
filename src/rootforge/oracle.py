"""Brute-force Weyl group machinery used as ground truth at small rank.

Elements are stored as permutations of the root index list, packed into
bytes, so the oracle serves systems of at most 256 roots (E8 has 240; A16
and D12 are the first systems beyond it).  Full enumeration is only
feasible up to W(E7); orbit questions about subsets are answered by a
generator walk that never materializes the whole group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, InvariantViolation, Unsupported
from .rootsystem import RootSystem, system_memo

DEFAULT_CAP = 10**7
MAX_ROOTS = 256  # a byte holds root indices 0..255


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


def _check_size(system: RootSystem) -> None:
    if len(system.roots) > MAX_ROOTS:
        raise Unsupported(
            f"{system.name} has {len(system.roots)} roots; permutations are"
            f" packed into bytes and hold at most {MAX_ROOTS}"
        )


@system_memo
def reflection_perm(system: RootSystem, j: int) -> bytes:
    _check_size(system)
    return bytes(system.reflect(i, j) for i in range(len(system.roots)))


def compose(outer: bytes, inner: bytes) -> bytes:
    """Permutation sending i to outer[inner[i]]."""
    return bytes(outer[x] for x in inner)


def identity_perm(system: RootSystem) -> bytes:
    _check_size(system)
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
    return [WeylElement(p) for p in sorted(seen)]


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
            if out.get(member, rep) != rep:
                raise InvariantViolation("one subset lies in two orbits")
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
