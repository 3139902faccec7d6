"""Exact construction of ADE root systems and elementary root operations.

Coordinates are stored doubled (all entries multiplied by 2) so that the
half-integer roots of E8 become odd integers and every computation stays in
plain integer arithmetic.  With doubled coordinates a root has squared
length 8, and the Cartan pairing of roots a, b is dot(a, b) // 4.
"""

from __future__ import annotations

import operator
from functools import lru_cache, wraps
from itertools import combinations, product
from operator import mul, sub
from typing import NamedTuple

from .errors import (
    InvariantViolation,
    NoSuchRoot,
    NotIrreducibleParent,
    NotOrthogonal,
    UnsupportedType,
)

SERIES = ("A", "D", "E")

Vec = tuple[int, ...]


def dot(u: Vec, v: Vec) -> int:
    return sum(map(mul, u, v))


def neg(u: Vec) -> Vec:
    return tuple(-a for a in u)


class RootSystem:
    """An ADE root system with a fixed coordinate model and root order.

    Roots are sorted lexicographically on their (doubled) coordinate
    vectors; all set-valued results elsewhere in the package are reported
    in terms of these indices, which makes every output reproducible.
    """

    def __init__(self, series: str, rank_: int, roots: list[Vec], ambient_dim: int):
        self.series = series
        self.rank = rank_
        self.roots: tuple[Vec, ...] = tuple(sorted(roots))
        self.ambient_dim = ambient_dim
        self._index = {r: i for i, r in enumerate(self.roots)}
        self._neg = tuple(self._index[neg(r)] for r in self.roots)
        # proj_rep of every root: the membership walks read it per step.
        self._proj = tuple(
            i if _lex_positive(r) else self._neg[i] for i, r in enumerate(self.roots)
        )
        self._cartan: dict[tuple[int, int], int] = {}
        self._reflect: dict[tuple[int, int], int] = {}
        self.positive = tuple(i for i, p in enumerate(self._proj) if p == i)
        self.simple_basis = subsystem_basis(self, range(len(self.roots)))
        # Results of the functions decorated with system_memo.
        self.memo: dict = {}

    # -- basic queries -------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover
        return f"RootSystem({self.series}{self.rank}, {len(self.roots)} roots)"

    @property
    def name(self) -> str:
        return f"{self.series}{self.rank}"

    def index(self, coords: Vec) -> int | None:
        return self._index.get(coords)

    def negative(self, i: int) -> int:
        return self._neg[i]

    def cartan(self, i: int, j: int) -> int:
        """Cartan pairing <r_i | r_j>; symmetric for ADE (all roots equal length)."""
        key = (i, j) if i <= j else (j, i)
        c = self._cartan.get(key)
        if c is None:
            c = dot(self.roots[key[0]], self.roots[key[1]]) // 4
            self._cartan[key] = c
        return c

    def reflect(self, i: int, j: int) -> int:
        """Index of s_{r_j}(r_i) = r_i - <r_i|r_j> r_j."""
        out = self._reflect.get((i, j))
        if out is None:
            c = self.cartan(i, j)
            if c == 0:
                out = i
            else:
                img = tuple(a - c * b for a, b in zip(self.roots[i], self.roots[j]))
                out = self._index[img]
            self._reflect[(i, j)] = out
        return out

    def check_indices(self, indices) -> list[int]:
        """The indices as ints; NoSuchRoot unless each one is an integer
        that indexes a root of the system.  A negative index would wrap to
        the end of the table."""
        try:
            out = list(map(operator.index, indices))
        except TypeError as exc:
            raise NoSuchRoot(f"{self.name} has no root with a non-integer index: {exc}") from None
        if out and not 0 <= min(out) <= max(out) < len(self.roots):
            bad = min(out) if min(out) < 0 else max(out)
            raise NoSuchRoot(f"{self.name} has no root with index {bad}")
        return out

    def proj_rep(self, i: int) -> int:
        """Canonical representative of the projective root {r_i, -r_i}.

        The representative is the member whose first nonzero coordinate is
        positive, i.e. the lexicographically positive one.
        """
        return self._proj[i]

    def projective(self, members) -> tuple[int, ...]:
        """Sorted canonical representatives of the projective roots of members."""
        return tuple(sorted({self.proj_rep(i) for i in members}))

    def symmetrize(self, members: tuple[int, ...]) -> tuple[int, ...]:
        out = set(members)
        out.update(self._neg[i] for i in members)
        return tuple(sorted(out))

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        return {
            "schema": "rootforge/1",
            "series": self.series,
            "rank": self.rank,
            "roots": [list(r) for r in self.roots],
            "basis": list(self.simple_basis),
        }


def _lex_positive(v: Vec) -> bool:
    for x in v:
        if x != 0:
            return x > 0
    return False


class _RootSet(NamedTuple):
    system: RootSystem
    members: tuple[int, ...]


class RootSet(_RootSet):
    """An ordered set of root indices inside a fixed parent system: the
    members are sorted, without repeats, and each one indexes a root.  It
    iterates, sizes and tests membership over its members."""

    __slots__ = ()

    def __new__(cls, system: RootSystem, members):
        return tuple.__new__(cls, (system, tuple(sorted(set(system.check_indices(members))))))

    def __getnewargs__(self):
        return self.system, self.members

    @property
    def symmetric(self) -> bool:
        m = set(self.members)
        return all(self.system.negative(i) in m for i in self.members)

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, i) -> bool:
        return i in self.members

    def to_json(self) -> dict:
        return {
            "schema": "rootforge/1",
            "system": self.system.name,
            "members": list(self.members),
        }


def system_memo(fn):
    """Memoise fn(system, *args) in system.memo, so that every result lives
    exactly as long as the system it describes.

    The key is fn followed by the full positional arguments: keywords are
    folded into their positions and defaults filled in, so every spelling
    of one call shares one entry.  Calls that pass every argument by
    position skip the binding; they are the hot ones.  One flat tuple per
    key, not fn with an argument tuple, saves a tuple per entry: E8 keeps
    22,910 orbit labels.
    """
    code = fn.__code__
    names = code.co_varnames[1 : code.co_argcount]
    arity = len(names)
    defaults = dict(zip(reversed(names), reversed(fn.__defaults__ or ())))

    @wraps(fn)
    def memoised(system: RootSystem, *args, **kwargs):
        if kwargs or len(args) != arity:
            # Bind as the call would, TypeError where it would raise one.
            rest, values = names[len(args) :], {**defaults, **kwargs}
            if len(args) > arity or not kwargs.keys() <= set(rest) or not set(rest) <= values.keys():
                raise TypeError(
                    f"{fn.__name__}() takes (system, {', '.join(names)}); got {len(args) + 1}"
                    f" positional arguments and the keywords {sorted(kwargs)}"
                )
            args = (*args, *map(values.__getitem__, rest))
        key = (fn, *args)
        try:
            return system.memo[key]
        except KeyError:
            out = system.memo[key] = fn(system, *args)
            return out

    return memoised


# -- construction -------------------------------------------------------


@lru_cache(maxsize=None)
def build_root_system(series: str, rank_: int) -> RootSystem:
    """Build the root system of the given ADE type in its fixed model.

    A_n lives in dimension n+1 as {e_i - e_j}; D_n as {+-e_i +- e_j};
    E8 as the D8 roots plus all half-integer vectors with an even number
    of minus signs.  E7 and E6 are cut out of E8 as the orthogonal
    complements of the lexicographically least A1 (resp. A2) subset.
    """
    if series == "A":
        if rank_ < 1:
            raise UnsupportedType(f"A{rank_}: rank must be >= 1")
        n = rank_ + 1
        roots = []
        for i in range(n):
            for j in range(n):
                if i != j:
                    v = [0] * n
                    v[i] = 2
                    v[j] = -2
                    roots.append(tuple(v))
        return RootSystem("A", rank_, roots, n)
    if series == "D":
        if rank_ < 4:
            raise UnsupportedType(
                f"D{rank_}: rank must be >= 4 (D2 = A1+A1 and D3 = A3 are"
                " reachable through series A)"
            )
        roots = []
        for i, j in combinations(range(rank_), 2):
            for si, sj in product((2, -2), repeat=2):
                v = [0] * rank_
                v[i] = si
                v[j] = sj
                roots.append(tuple(v))
        return RootSystem("D", rank_, roots, rank_)
    if series == "E":
        if rank_ not in (6, 7, 8):
            raise UnsupportedType(f"E{rank_}: rank must be 6, 7 or 8")
        e8 = _e8_roots()
        if rank_ == 8:
            return RootSystem("E", 8, e8, 8)
        e8_sorted = sorted(e8)
        alpha = e7_cut_root()
        if rank_ == 7:
            roots = [r for r in e8_sorted if dot(r, alpha) == 0]
            return RootSystem("E", 7, roots, 8)
        beta = next(r for r in e8_sorted if dot(r, alpha) // 4 == -1)
        roots = [r for r in e8_sorted if dot(r, alpha) == 0 and dot(r, beta) == 0]
        return RootSystem("E", 6, roots, 8)
    raise UnsupportedType(f"unknown series {series!r}")


@lru_cache(maxsize=None)
def e7_cut_root() -> Vec:
    """The E8 root alpha whose orthogonal complement is the E7 model: the
    lexicographically least E8 root."""
    return min(_e8_roots())


def _e8_roots() -> list[Vec]:
    roots: list[Vec] = []
    for i, j in combinations(range(8), 2):
        for si, sj in product((2, -2), repeat=2):
            v = [0] * 8
            v[i] = si
            v[j] = sj
            roots.append(tuple(v))
    for signs in product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.append(signs)
    return roots


def parse_system(text: str) -> RootSystem:
    """Parse a label like 'E7' or 'd5' into a root system."""
    text = text.strip()
    # isdecimal, not isdigit: int refuses a superscript digit.
    if text[:1].upper() in SERIES and text[1:].isdecimal():
        try:
            return build_root_system(text[0].upper(), int(text[1:]))
        except (ValueError, OverflowError):  # more digits than int converts; a rank past the longest list
            pass
    raise UnsupportedType(f"cannot parse system label {text!r}")


# -- elementary operations ----------------------------------------------


@system_memo
def cartan_links(system: RootSystem) -> tuple[int, ...]:
    """Row i is an int mask of the roots not orthogonal to root i, itself
    and its negative included.  Only Weyl membership walks on these rows,
    so classification never builds them.

    Each unordered pair of positive roots is paired once: a pairing sets
    the bits of both signs of each root in the other's row, and a negative
    root's row is its positive's, since -r pairs to zero with what r does.
    """
    roots, negative = system.roots, system._neg
    rows = [0] * len(roots)
    pos = system.positive
    for k, i in enumerate(pos):
        r = roots[i]
        for j in pos[k:]:
            if sum(map(mul, r, roots[j])):
                rows[i] |= 1 << j | 1 << negative[j]
                rows[j] |= 1 << i | 1 << negative[i]
    for i in pos:
        rows[negative[i]] = rows[i]
    return tuple(rows)


@system_memo
def positive_mask(system: RootSystem) -> int:
    """Int mask of the positive roots: the scope a Weyl membership walk
    starts from, next to the cartan_links rows it narrows."""
    return sum(1 << i for i in system.positive)


@system_memo
def _support_masks(system: RootSystem) -> tuple[int, ...]:
    """Row i is the int mask of the coordinates that root i touches."""
    return tuple(sum(1 << c for c, x in enumerate(r) if x) for r in system.roots)


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _adjacency(system: RootSystem, nodes) -> list[int]:
    """Row i is the int mask of the positions j != i whose nodes[j] is not
    orthogonal to nodes[i]: the diagram of nodes on positions, the one
    table every pairing of a root set is read from."""
    adj = [0] * len(nodes)
    for (i, a), (j, b) in combinations(enumerate(nodes), 2):
        if system.cartan(a, b):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def _component_masks(mask: int, adj) -> list[int]:
    """Connected components of the positions in mask, as int masks, in the
    order of their lowest positions; adj[i] is the int mask of the
    neighbours of position i."""
    out = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            reach = 0
            for i in _bits(frontier):
                reach |= adj[i]
            frontier = reach & mask & ~comp
            comp |= frontier
        out.append(comp)
        mask &= ~comp
    return out


def components(system: RootSystem, members: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Connected components under the non-orthogonality relation, each
    sorted, in the order of their first members."""
    nodes = tuple(dict.fromkeys(members))
    comps = _component_masks((1 << len(nodes)) - 1, _adjacency(system, nodes))
    return [tuple(sorted(nodes[i] for i in _bits(comp))) for comp in comps]


def orthogonal(system: RootSystem, nodes) -> bool:
    """True iff the roots of nodes are pairwise orthogonal."""
    return all(system.cartan(a, b) == 0 for a, b in combinations(nodes, 2))


def subsystem_basis(system: RootSystem, members) -> tuple[int, ...]:
    """Simple basis of a closed subsystem: indecomposable positive members.

    The positive members are walked in index order, which is lexicographic
    order.  A positive root that is not simple is a positive root plus a
    simple root s (Bourbaki, Lie Groups and Lie Algebras, ch. VI, 1.6), and
    s is then lexicographically smaller; so a member is decomposable
    exactly when it minus some simple root already found is a positive
    member, and each member is tested against at most rank simple roots.
    """
    roots = system.roots
    pos = sorted(i for i in members if system.proj_rep(i) == i)
    posset = set(pos)
    out: list[int] = []
    for i in pos:
        r = roots[i]
        if not any(
            system.index(tuple(map(sub, r, roots[s]))) in posset for s in out
        ):
            out.append(i)
    return tuple(out)


def subsystem_generated(rs: RootSet) -> RootSet:
    """Intersection of the parent system with the integer span of the set.

    Computed as the orbit R of the set S under W(S), walked with the
    reflections in S's own members.  R holds -s = s_s(s) for each s in S,
    and with x = w(s) it holds -x = w(-s), so it is symmetric.  R is the
    additive closure C of the symmetrized set: C holds S and is closed
    under each s_a for a in C (s_a(b) is b, b + a, b - a or -b as <b|a>
    is 0, -1, 1 or +-2), so R lies in C; and for a, b in R, s_a lies in
    W(S) (s_{w(s)} = w s_s w^-1), while a + b is a root exactly when
    <a|b> = -1 in a simply laced system, and then a + b = s_a(b) lies in
    R, so R is additively closed and C lies in R.

    C is closed under reflections, so it is a root system spanning the
    same lattice L as the set, and L is the orthogonal sum of the root
    lattices of C's irreducible components.  Every root has norm 2, and in
    a simply laced root lattice the norm-2 vectors are exactly the roots
    (Conway-Sloane, Sphere Packings, Lattices and Groups, ch. 4); as norms
    add over an orthogonal sum, a norm-2 vector of L lies in a single
    component's lattice, so the roots in L are exactly C.
    """
    return RootSet(rs.system, tuple(_reflection_closure(rs.system, rs.members, rs.members)))


def _reflection_closure(system: RootSystem, gens, start) -> list[int]:
    """The roots that the reflections in gens carry start to, start first
    and then in the order found."""
    reach = list(dict.fromkeys(start))
    reached = set(reach)
    for x in reach:  # grows until closed under the reflections
        for g in gens:
            y = system.reflect(x, g)
            if y not in reached:
                reached.add(y)
                reach.append(y)
    return reach


def _highest_root(system: RootSystem, members: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Highest root of the subsystem that an irreducible Pi-system
    generates, with respect to the set itself taken as the basis, and its
    marks: the coefficients of the members in it, in the order of members.

    The walk starts at a member and adds a member c while one pairs to -1
    with the current root: cur + c = s_c(cur) is then a positive root one
    higher, so the marks count the steps per member.  It stops at a
    dominant root, and in a simply laced irreducible system the highest
    root is the only dominant one (Bourbaki, Lie Groups and Lie Algebras,
    ch. VI, 1.8), of height h - 1 for the Coxeter number h.  Callers check
    the set first: on a dependent set such as an extended diagram the walk
    need not stop.
    """
    cur = members[0]
    marks = [1] + [0] * (len(members) - 1)
    while True:
        step = next((k for k, c in enumerate(members) if system.cartan(cur, c) < 0), None)
        if step is None:
            return cur, tuple(marks)
        marks[step] += 1
        cur = system.reflect(cur, members[step])


def orthogonal_complement(system: RootSystem, x: tuple[int, ...], scope: tuple[int, ...]) -> tuple[int, ...]:
    """All members of scope orthogonal to every element of x."""
    return tuple(
        i for i in scope if all(system.cartan(i, j) == 0 for j in x)
    )


def theta_component(system: RootSystem, o: tuple[int, ...]) -> tuple[int, ...]:
    """The unique irreducible component of the orthogonal complement of o
    that is not of type A1, or the empty tuple when every component is A1."""
    if not orthogonal(system, o):
        raise NotOrthogonal("theta component needs an orthogonal subset")
    if len(components(system, system.simple_basis)) != 1:
        raise NotIrreducibleParent("theta component needs an irreducible parent")
    psi = orthogonal_complement(system, o, tuple(range(len(system.roots))))
    big = [c for c in components(system, psi) if len(c) > 2]
    if not big:
        return ()
    if len(big) != 1:
        raise InvariantViolation("orthogonal complement has two non-A1 components")
    return big[0]
