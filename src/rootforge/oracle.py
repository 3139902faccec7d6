"""Brute-force Weyl group machinery used as ground truth at small rank.

Elements are stored as permutations of the root index list, packed into
bytes, so the oracle serves systems of at most 256 roots (E8 has 240; A16
and D12 are the first systems beyond it).  Every step is a permutation
lookup, done in C by ``bytes.translate`` on a permutation padded to a
256-entry table.  ``enumerate_weyl`` lists W as a product of coset
transversals of the parabolic chain W_1 < ... < W_n, one translate per
element and no hashing.  Its elements are ``WeylElement``s, a ``bytes``
subclass whose ``perm`` is the element itself: each is made by a C copy
inside the product ``map``, with no Python frame, in 175 bytes on E7's
126 roots.  Full enumeration is only feasible up to W(E7), whose
2,903,040 elements take 2-3 s and 0.54 GB on one core of a 2 vCPU host;
W(E8) is refused from the transversals' sizes alone.

One breadth-first closure over bytes states (``_closure``) serves the core
groups of ``coregroups``: a state is a permutation or a tuple of root
images, a generator a translate table with its reflection word, and each
state keeps the first word that reaches it.

Orbit questions about subsets have one engine, which lists neither the
group nor an orbit: a Schreier-Sims stabilizer tree (Sims 1970; Seress
2003) of the group W induces on the projective roots, and a smallest-image
search down it (Linton 2004).  ``canonical_image`` gives a subset's least
conjugate and orbit size, E7's 1,433 Pi-subsets in about 0.1 s where
walking their 9,555,471 members took 60 s and 852 MiB, and
``orbit_id_map`` keys those ids on the subsets it is given.  A point is a
position in ``system.positive`` held in a byte, so the tree reaches every
system with at most 256 positive roots (D16 and A21), past the 256 roots
a permutation holds.
"""

from __future__ import annotations

import gc
from itertools import compress, islice, repeat
from math import prod
from operator import eq, itemgetter

from .errors import CapExceeded, InvariantViolation, MixedAmbient, Unsupported
from .rootsystem import RootSystem, _reflection_closure, system_memo

DEFAULT_CAP = 10**7
MAX_ROOTS = 256  # a byte holds root indices 0..255


class WeylElement(bytes):
    """A Weyl group element as a permutation of root indices: entry i is
    the index of the image of root i, and perm is the element itself."""

    __slots__ = ()

    @property
    def perm(self) -> bytes:
        return self

    def apply_set(self, subset) -> frozenset:
        return frozenset(map(self.__getitem__, subset))

    def __repr__(self) -> str:
        return f"WeylElement(perm={bytes(self)!r})"


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
    reaches it.  Every closure of coregroups runs here.  The cap is checked
    once a level: CapExceeded when more than cap states are reached."""
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


def _transversals(system: RootSystem, cap: int) -> list[list[bytes]]:
    """X_1, ..., X_n: X_k holds one element of each left coset of W_{k-1}
    in W_k, where W_k is generated by the first k simple roots.

    Let P_k be the positive roots of W_k, the closure of the first k simple
    roots under their reflections less the negative roots, and S_k the
    roots of P_k outside P_{k-1}, as a set of signed roots.  The stabilizer
    of S_k in W_k is W_{k-1}: each of W_{k-1}'s simple reflections permutes
    P_k less its own root and keeps P_{k-1}, so it permutes S_k; and a w in
    W_k keeping S_k positive has its inversion set in P_{k-1}, so w lies in
    W_{k-1} (Humphreys, Reflection Groups and Coxeter Groups, 1.10).  So the
    W_k-orbit of S_k, walked breadth first with one element u per member
    (u(S_k) the member), gives X_k, and |X_k| = |W_k| / |W_{k-1}|.  Each u
    is a word as long as its member's distance from S_k, and no element of
    its coset is shorter, so u is the coset's minimal representative.

    The product of the sizes so far is a lower bound on |W|: CapExceeded as
    soon as it exceeds the cap, so a walk never outgrows it."""
    basis, tables = system.simple_basis, [_table(g) for g in simple_reflection_perms(system)]
    identity, positive = identity_perm(system), set(system.positive)
    out, below, size = [], set(), 1
    for k in range(1, len(basis) + 1):
        roots = positive.intersection(_reflection_closure(system, basis[:k], basis[:k]))
        start = bytes(sorted(roots - below))
        reps, orbit = {start: identity}, [start]
        for t in orbit:  # grows while it is walked
            u = reps[t]
            for table in tables[:k]:
                image = bytes(sorted(t.translate(table)))
                if image not in reps:
                    reps[image] = u.translate(table)
                    orbit.append(image)
                    if size * len(reps) > cap:
                        raise CapExceeded(f"W({system.name}) has more than cap {cap} elements")
        out.append(list(reps.values()))
        below, size = roots, size * len(reps)
    return out


def enumerate_weyl(system: RootSystem, cap: int = DEFAULT_CAP) -> list[WeylElement]:
    """All Weyl group elements, sorted by permutation, as the products
    u_n ... u_1 with u_k in the coset transversal X_k of _transversals
    (W_k = X_k W_{k-1}; Bjorner-Brenti, Combinatorics of Coxeter Groups,
    2.4).  Raises CapExceeded when the product of the |X_k| exceeds the
    cap, before any element of W is built.

    Each level is one bytes.translate and one WeylElement copy per
    element, run in C by map, and nothing is hashed.  Each product is a
    word in the simple reflections, so the list lies in W;
    InvariantViolation if two are equal, checked on the sorted list's
    neighbours, so a list of |W| elements is W."""
    transversals = _transversals(system, cap)
    # The elements are millions of acyclic objects; a running cyclic
    # collector would rescan all of them many times over.
    collecting = gc.isenabled()
    gc.disable()
    try:
        elements = [identity_perm(system)]
        for transversal in transversals:
            new: list[WeylElement] = []
            for u in transversal:
                new.extend(map(WeylElement, map(bytes.translate, elements, repeat(_table(u)))))
            elements = new
    finally:
        if collecting:
            gc.enable()
    elements.sort()
    if any(map(eq, elements, islice(elements, 1, None))):
        raise InvariantViolation("two products of the coset transversals are one element")
    return elements


def weyl_order(system: RootSystem, cap: int = DEFAULT_CAP) -> int:
    return len(enumerate_weyl(system, cap))


# Degrees of the basic invariants of the exceptional Weyl groups; |W| is
# the product of the degrees (Humphreys, Reflection Groups and Coxeter
# Groups, 3.7).
E_DEGREES = {
    6: (2, 5, 6, 8, 9, 12),
    7: (2, 6, 8, 10, 12, 14, 18),
    8: (2, 8, 12, 14, 18, 20, 24, 30),
}


def _degrees(series: str, rank: int):
    """2..n+1 for A_n, 2, 4, ..., 2n-2 and n for D_n."""
    if series == "A":
        return range(2, rank + 2)
    if series == "D":
        return [*range(2, 2 * rank - 1, 2), rank]
    return E_DEGREES[rank]


def weyl_order_by_degrees(series: str, rank: int) -> int:
    """|W| as the product of the degrees."""
    return prod(_degrees(series, rank))


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


@system_memo
def _position_of(system: RootSystem) -> tuple[int, ...]:
    """Entry i is the position in system.positive of root i's projective
    representative: the tree's point for root i."""
    at = {r: k for k, r in enumerate(system.positive)}
    return tuple(at[system.proj_rep(i)] for i in range(len(system.roots)))


@system_memo
def _position_tables(system: RootSystem) -> tuple[bytes, ...]:
    """For each simple root j, the table g with g[k] the position in
    system.positive of the projective image of positive[k] under s_j.  It
    needs only the positions in a byte, so systems of up to 256 positive
    roots (D16, A21) fit."""
    positive = system.positive
    if len(positive) > MAX_ROOTS:
        raise Unsupported(
            f"{system.name} has {len(positive)} positive roots; position tables are"
            f" packed into bytes and hold at most {MAX_ROOTS}"
        )
    position = _position_of(system)
    return tuple(bytes(position[system.reflect(r, j)] for r in positive) for j in system.simple_basis)


# -- stabilizer tree ------------------------------------------------------------
# The points are positions in system.positive, one a projective root.  A
# permutation is a 256-byte translate table fixing the bytes past the
# points: p.translate(q) applies p, then q; bytes.maketrans(p, _IDENTITY)
# inverts p.

_IDENTITY = bytes(range(256))


class _Level:
    """A Schreier-Sims level: a base point, generators fixing the base
    points above, and for each x in the base point's orbit (u, u^-1) with
    u sending the base point to x."""

    __slots__ = ("point", "gens", "orbit", "below")

    def __init__(self, point: int, gens=(), orbit=None):
        self.point, self.gens, self.below = point, list(gens), None
        self.orbit = orbit or {point: (_IDENTITY, _IDENTITY)}


def _close(level: _Level, pairs: list) -> None:
    """Deterministic Schreier-Sims (Sims 1970; Seress 2003, ch. 4): follow
    each (point, generator) pair of the level, extending its orbit, and
    add to the level below each Schreier generator that does not sift
    through it.  pairs grows while it is walked, by each new point's."""
    orbit = level.orbit
    for x, s in pairs:
        u, y = orbit[x][0].translate(s), s[x]
        if y not in orbit:
            orbit[y] = (u, bytes.maketrans(u, _IDENTITY))
            pairs.extend((y, t) for t in level.gens)
            continue
        h = g = u.translate(orbit[y][1])
        sift = level.below
        while sift is not None and g[sift.point] in sift.orbit:
            g, sift = g.translate(sift.orbit[g[sift.point]][1]), sift.below
        if g != _IDENTITY:
            if level.below is None:
                level.below = _Level(next(i for i, v in enumerate(h) if i != v))
            level.below.gens.append(h)
            _close(level.below, [(z, h) for z in level.below.orbit])


class _Node:
    """G_P, the pointwise stabilizer of a sequence P of points: generators,
    order and, for every point, its G_P-orbit's least point, an element
    sending it there (to_least) and that element's inverse (from_least)."""

    __slots__ = ("gens", "order", "least", "to_least", "from_least", "children")

    def __init__(self, gens: list, order: int, n: int):
        self.gens, self.order, self.children = gens, order, {}
        least, from_least = [None] * n, [None] * n
        for r in range(n):
            if least[r] is None:
                least[r], from_least[r], orbit = r, _IDENTITY, [r]
                for x in orbit:  # grows while it is walked
                    for s in gens:
                        y = s[x]
                        if least[y] is None:
                            least[y], from_least[y] = r, from_least[x].translate(s)
                            orbit.append(y)
        self.least, self.from_least = bytes(least), from_least
        self.to_least = [bytes.maketrans(u, _IDENTITY) for u in from_least]

    def child(self, m: int) -> _Node:
        """G_{P+m}, m least in its orbit, memoised: the level below m in a
        Schreier-Sims chain of G_P with base prefix (m), whose first level
        is this node's orbit of m.  The chain's order must be G_P's."""
        if m in self.children:
            return self.children[m]
        orbit = {x: (self.from_least[x], self.to_least[x]) for x, r in enumerate(self.least) if r == m}
        top = _Level(m, self.gens, orbit)
        _close(top, [(x, s) for x in orbit for s in self.gens])
        order, level = 1, top.below
        while level is not None:
            order, level = order * len(level.orbit), level.below
        if order * len(orbit) != self.order:
            raise InvariantViolation(f"|G_P+m| * |orbit(m)| = {order} * {len(orbit)} != {self.order}")
        child = self.children[m] = _Node(top.below.gens if top.below else [], order, len(self.least))
        return child


@system_memo
def _tree(system: RootSystem) -> _Node:
    """The group W induces on the projective roots, by _position_tables, of
    order |W| / |W n {1, -1}|: -1 acts trivially, and lies in W when every
    degree is even (A1, D_even, E7, E8)."""
    gens = [g + _IDENTITY[len(g) :] for g in _position_tables(system)]
    degrees = _degrees(system.series, system.rank)
    order = prod(degrees) // (2 if all(d % 2 == 0 for d in degrees) else 1)
    return _Node(gens, order, len(system.positive))


def _least_image(tree: _Node, points: bytes) -> tuple[bytes, int]:
    """The lexicographically least member C of W.S, for S the sorted
    points, and |W.S|, by a smallest-image search (Linton, ISSAC 2004).

    The candidates, {S: 1} at first, are images of S with multiplicities,
    each beginning with the points P fixed so far.  Every member of W.S
    beginning with P is a G_P-image of a candidate, and the w in W with
    w(S) = C number the sum of count(T) * |{h in G_P : h(T) = C}|.  A step
    takes m, the least orbit-least point of the candidates' points outside
    P, and replaces each T by g_t(T) for every t in T \\ P whose orbit-least
    point is m; both facts then hold for P + m.  At the end P is C and
    |Stab(S)| = count(C) * |G_C|."""
    node, candidates, prefix = tree, {points: 1}, bytearray()
    for p in range(len(points)):
        least, to_least = node.least, node.to_least
        m = min(least[t] for c in candidates for t in c[p:])
        images: dict[bytes, int] = {}
        for c, count in candidates.items():
            for t in c[p:]:
                if least[t] == m:
                    image = bytes(sorted(c.translate(to_least[t])))
                    images[image] = images.get(image, 0) + count
        candidates, node = images, node.child(m)
        prefix.append(m)
    image = bytes(prefix)
    size, rest = divmod(tree.order, candidates[image] * node.order)
    if rest:
        raise InvariantViolation(f"|Stab(S)| = {candidates[image] * node.order} does not divide {tree.order}")
    return image, size


def canonical_image(system: RootSystem, subset) -> tuple[tuple[int, ...], int]:
    """The lexicographically least member of the projective subset's Weyl
    orbit, as a sorted tuple of root indices, and the orbit's size, both
    from _least_image; NoSuchRoot unless each index is one of the
    system's roots."""
    tree, position = _tree(system), _position_of(system)
    image, size = _least_image(tree, bytes(sorted({position[i] for i in system.check_indices(subset)})))
    return tuple(map(system.positive.__getitem__, image)), size


def orbit_id_map(system: RootSystem, subsets, cap: int = DEFAULT_CAP) -> dict:
    """Map each given subset, as a frozenset of its projective
    representatives, to its orbit's id, the least member from
    canonical_image.  CapExceeded when an orbit has more than cap members."""
    out: dict[frozenset, tuple] = {}
    for subset in subsets:
        key = frozenset(map(system.proj_rep, system.check_indices(subset)))
        if key not in out:
            out[key], size = canonical_image(system, key)
            if size > cap:
                raise CapExceeded(f"subset orbit of {size} members exceeded cap {cap}")
    return out


def set_stabilizer(system: RootSystem, subset, elements) -> list[WeylElement]:
    """The listed elements mapping the projective subset onto itself: those
    sending each of its representatives to a root whose representative is
    in it, as an element permutes the projective roots.  The lengths are
    checked once over the whole list, and the filter runs in C."""
    n = len(system.roots)
    _check_size(system)
    key = _key(system, subset)
    elements = list(elements)  # walked twice
    wrong = set(map(len, elements)) - {n}
    if wrong:
        raise MixedAmbient(f"a permutation of {min(wrong)} roots meets one of {n}")
    if not key:
        return elements
    allowed = frozenset(i for i in range(n) if system.proj_rep(i) in key)
    get = itemgetter(*key, *key[:1])  # a tuple even for one entry
    return list(compress(elements, map(allowed.issuperset, map(get, elements))))


def induced_action(system: RootSystem, subset, stabilizer) -> set[tuple[int, ...]]:
    """Permutations induced on the sorted projective subset by a stabilizer."""
    base = system.projective(subset)
    pos = {n: k for k, n in enumerate(base)}
    out = set()
    for w in stabilizer:
        out.add(tuple(pos[system.proj_rep(w[n])] for n in base))
    return out
