"""Brute-force Weyl group machinery used as ground truth at small rank.

Elements are stored as permutations of the root index list, packed into
bytes, so the oracle serves systems of at most 256 roots (E8 has 240; A16
and D12 are the first systems beyond it).  Every step is a permutation
lookup, done in C by ``bytes.translate`` on a permutation padded to a
256-entry table.  Full enumeration is only feasible up to W(E7), whose
2,903,040 elements take 16-19 s and 0.7 GB on one core of a 2 vCPU host;
orbit questions about subsets are answered by a generator walk that never
materializes the whole group.

One breadth-first closure over bytes states (``_closure``) serves both the
Weyl group here and the core groups of ``coregroups``: a state is a
permutation or a tuple of root images, a generator a translate table with
its reflection word, and each state keeps the first word that reaches it.

The walk holds each projective subset as a position form, one byte per
projective root, so that a reflection is two ``bytes.translate`` calls and
no sort (``_orbit``).  It goes level by level and keeps the forms of only
three levels; every member it returns, and every key of ``orbit_id_map``,
is the sorted bytes of the subset's root indices.  The map keeps each
orbit member once in that form: one bytes object and one dict slot, under
120 bytes a member at the traced peak on D5, D6 and E6, where a frozenset
key took 400-630.  The map reads like a dict keyed by frozensets.  The
orbits of E7's 1,433 Pi-subsets have 9,555,471 members; their map takes
about 60 s and an 852 MiB peak RSS on 2 vCPU, 6.3 us a member against 2.4
on E6.
"""

from __future__ import annotations

import gc
from collections.abc import Mapping
from dataclasses import dataclass

from .errors import CapExceeded, InvariantViolation, MixedAmbient, Unsupported
from .rootsystem import RootSystem, system_memo

DEFAULT_CAP = 10**7
MAX_ROOTS = 256  # a byte holds root indices 0..255


@dataclass(frozen=True, slots=True)
class WeylElement:
    """A Weyl group element as a permutation of root indices."""

    perm: bytes

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


def _table(perm: bytes) -> bytes:
    """The permutation as a ``bytes.translate`` table: indices past its end
    map to 0, so callers check lengths first."""
    return perm.ljust(MAX_ROOTS, b"\0")


def _check_length(perm: bytes, n: int) -> None:
    if len(perm) != n:
        raise MixedAmbient(f"a permutation of {len(perm)} roots meets one of {n}")


def compose(outer: bytes, inner: bytes) -> bytes:
    """Permutation sending i to outer[inner[i]]."""
    _check_length(outer, len(inner))
    return inner.translate(_table(outer))


def identity_perm(system: RootSystem) -> bytes:
    _check_size(system)
    return bytes(range(len(system.roots)))


def perm_from_word(system: RootSystem, word) -> bytes:
    """Compose reflections in the listed roots, first entry applied first."""
    out = identity_perm(system)
    for j in word:
        out = compose(reflection_perm(system, j), out)
    return out


def _closure(start: bytes, generators, cap: int | None = None) -> dict:
    """Breadth-first closure of the bytes start under the (translate table,
    word) pairs of generators, mapping each state to the first word that
    reaches it.  enumerate_weyl and every closure of coregroups run here.
    The cap is checked once a level: CapExceeded when more than cap states
    are reached."""
    words = {start: ()}
    frontier = [start]
    while frontier:
        new = []
        for cur in frontier:
            cur_word = words[cur]
            for g, gword in generators:
                nxt = cur.translate(g)
                if nxt not in words:
                    words[nxt] = cur_word + gword
                    new.append(nxt)
        if cap is not None and len(words) > cap:
            raise CapExceeded(f"closure exceeded cap {cap}")
        frontier = new
    return words


def enumerate_weyl(system: RootSystem, cap: int = DEFAULT_CAP) -> list[WeylElement]:
    """All Weyl group elements, the closure of the identity under the
    simple reflections.  Raises CapExceeded when the group outgrows the
    cap.  Every word is the empty tuple, shared, so a state costs one dict
    slot."""
    seen = _closure(identity_perm(system), [(_table(g), ()) for g in simple_reflection_perms(system)], cap)
    ordered = sorted(seen)
    seen.clear()  # freed before the elements are built, to lower peak memory
    # The elements are millions of acyclic objects; a running cyclic
    # collector would rescan all of them many times over.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return [WeylElement(p) for p in ordered]
    finally:
        if collecting:
            gc.enable()


def weyl_order(system: RootSystem, cap: int = DEFAULT_CAP) -> int:
    return len(enumerate_weyl(system, cap))


def subset_orbit(subset, elements) -> set[frozenset]:
    """Orbit of a projective/root index set under explicitly listed elements."""
    base = frozenset(subset)
    return {w.apply_set(base) for w in elements}


@system_memo
def _proj_table(system: RootSystem) -> bytes:
    """Translate table sending each root index to its projective
    representative."""
    _check_size(system)
    return _table(bytes(system.proj_rep(i) for i in range(len(system.roots))))


def _key(system: RootSystem, subset) -> bytes:
    """A projective subset as the sorted bytes of its representatives;
    NoSuchRoot unless each index is one of the system's roots."""
    return bytes(sorted({system.proj_rep(i) for i in system.check_indices(subset)}))


_ABSENT = 255  # a position form's byte for a root outside the subset


@system_memo
def _position_reflections(system: RootSystem) -> tuple[tuple[bytes, bytes], ...]:
    """For each simple root j, the pair (g, rename) that reflects a
    position form in j.  g[k] is the position of the projective image of
    positive[k] under s_j; rename is a translate table sending positive[k]
    to positive[g[k]] and every other byte to itself."""
    _check_size(system)
    if len(system.roots) > _ABSENT:
        raise Unsupported(
            f"{system.name} has {len(system.roots)} roots; position forms mark"
            f" an absent root with byte {_ABSENT}, so they hold at most {_ABSENT}"
        )
    positive = system.positive
    at = {r: k for k, r in enumerate(positive)}
    out = []
    for j in system.simple_basis:
        g = bytes(at[system.proj_rep(system.reflect(r, j))] for r in positive)
        rename = bytearray(range(256))
        for r, k in zip(positive, g):
            rename[r] = positive[k]
        out.append((g, bytes(rename)))
    return tuple(out)


def _orbit(system: RootSystem, start_key: bytes, cap: int) -> set[bytes]:
    """Weyl orbit of a projective subset, each member returned as the
    sorted bytes of its root indices.

    The walk holds each member as a position form: one byte per projective
    root, in system.positive order, the root's index if it is in the
    subset and _ABSENT if not.  Reflecting a form x in s_j is
    g.translate(x.ljust(256)).translate(rename) with (g, rename) from
    _position_reflections: byte k of the first result is byte g[k] of x,
    the root positive[g[k]] or _ABSENT, and rename turns that root into
    positive[k], its image under the involution s_j.  Two C calls and no
    sort per edge; the sorted key is x.translate(None, absent), since
    system.positive is ascending.

    The walk goes level by level, the level being the distance from the
    start in the graph whose edges are the simple reflections.  Each
    reflection is an involution, so the edges are undirected and a
    member's neighbours lie in its own level or the next one either way:
    a new level is the images of the current one less the current and
    previous levels, and no older form is kept.  Each finished level goes
    into the result as sorted keys; the cap is checked once a level.  A
    level whose keys are not all new would mean a table is no involution,
    and the walk could then circle without end: it raises instead."""
    gens = _position_reflections(system)
    absent = bytes([_ABSENT])
    before: set[bytes] = set()
    level = {bytes(r if r in start_key else _ABSENT for r in system.positive)}
    out: set[bytes] = set()
    while level:
        size = len(out)
        out.update(x.translate(None, absent) for x in level)
        if len(out) != size + len(level):
            raise InvariantViolation("an orbit member met on two levels: a reflection is no involution")
        if len(out) > cap:
            raise CapExceeded("subset orbit exceeded cap")
        images: set[bytes] = set()
        add = images.add
        for x in level:
            padded = x.ljust(256)  # a translate table needs 256 entries
            for g, rename in gens:
                add(g.translate(padded).translate(rename))
        images -= level
        images -= before
        before, level = level, images
    return out


def subset_orbit_bfs(system: RootSystem, subset, cap: int = DEFAULT_CAP) -> set[frozenset]:
    """Orbit of an index set under the full Weyl group, walked with the
    simple reflections only.  Sets are returned as canonical frozensets of
    projective representatives."""
    return {frozenset(s) for s in _orbit(system, _key(system, subset), cap)}


class _OrbitIds(Mapping):
    """Read-only orbit map over sorted-bytes keys.  Lookups take any
    iterable of distinct root indices, iteration yields frozensets, and a
    key that cannot be a member (an index below 0 or above 255, a
    non-integer) is missing like any other."""

    __slots__ = ("_ids",)

    def __init__(self, ids: dict[bytes, tuple]):
        self._ids = ids

    def __getitem__(self, subset) -> tuple:
        try:
            key = bytes(sorted(subset))
        except (TypeError, ValueError):
            raise KeyError(subset) from None
        return self._ids[key]

    def __iter__(self):
        return map(frozenset, self._ids)

    def __len__(self) -> int:
        return len(self._ids)


def orbit_id_map(system: RootSystem, subsets, cap: int = DEFAULT_CAP) -> Mapping:
    """Map every member of the given subsets' orbits (a set of projective
    representatives) to a stable orbit identifier, the lexicographically
    least member as a sorted tuple.  The result is a read-only mapping
    keyed like a dict of frozensets; it stores each member once, as sorted
    bytes, at under 120 bytes a member where a frozenset key took 400-630."""
    out: dict[bytes, tuple] = {}
    for subset in subsets:
        key = _key(system, subset)
        if key in out:
            continue
        orbit = _orbit(system, key, cap)
        if not out.keys().isdisjoint(orbit):
            raise InvariantViolation("one subset lies in two orbits")
        out.update(dict.fromkeys(orbit, tuple(min(orbit))))
    return _OrbitIds(out)


def set_stabilizer(system: RootSystem, subset, elements) -> list[WeylElement]:
    """Elements mapping the projective subset onto itself."""
    n = len(system.roots)
    proj = _proj_table(system)
    key = _key(system, subset)
    base = frozenset(key)

    def stabilizes(w: WeylElement) -> bool:
        _check_length(w.perm, n)
        return frozenset(key.translate(_table(w.perm)).translate(proj)) == base

    return [w for w in elements if stabilizes(w)]


def induced_action(system: RootSystem, subset, stabilizer) -> set[tuple[int, ...]]:
    """Permutations induced on the sorted projective subset by a stabilizer."""
    base = system.projective(subset)
    pos = {n: k for k, n in enumerate(base)}
    out = set()
    for w in stabilizer:
        out.add(tuple(pos[system.proj_rep(w.perm[n])] for n in base))
    return out
