"""Maximal orthogonal subsets (mosets), perfect mosets and their counts."""

from __future__ import annotations

from typing import NamedTuple

from .diagrams import _NodeView, subsystem_type
from .errors import (
    CapExceeded,
    InvariantViolation,
    NotIrreducible,
    NotOrthogonalSeed,
    NotPiSystem,
    OracleCapExceeded,
)
from .oracle import DEFAULT_CAP, canonical_image
from .rootsystem import (
    RootSet,
    RootSystem,
    components,
    orthogonal,
    orthogonal_complement,
)


class Moset(NamedTuple):
    """A maximal orthogonal subset of a scope, at the projective level."""

    system: RootSystem
    members: tuple[int, ...]
    scope: tuple[int, ...]


def extend_to_moset(system: RootSystem, seed, scope) -> Moset:
    """Greedy completion of an orthogonal seed to a moset of the scope.

    Candidates are taken in the deterministic root order, so the result is
    reproducible; by conjugacy of mosets the choice is immaterial for any
    classification question.
    """
    scope_p = system.projective(scope)
    seed_p = system.projective(seed)
    if not orthogonal(system, seed_p):
        raise NotOrthogonalSeed("seed must be pairwise orthogonal")
    members = list(seed_p)
    for cand in scope_p:
        if cand in members:
            continue
        if all(system.cartan(cand, m) == 0 for m in members):
            members.append(cand)
    return Moset(system, tuple(sorted(members)), scope_p)


def mu(system: RootSystem) -> int:
    """Common cardinality of the mosets of an irreducible system.

    Computed from the series formula and cross-checked against the
    recursion through the orthogonal complement of a root, whose type
    names its components.
    """
    value = _mu_formula(system.series, system.rank)
    alpha = system.simple_basis[0]
    psi = orthogonal_complement(system, (alpha,), tuple(range(len(system.roots))))
    recursed = 1 + sum(_mu_formula(p.series, p.rank) for p in subsystem_type(system, psi).parts)
    if value != recursed:
        raise InvariantViolation("moset cardinality recursion failed")
    return value


def _mu_formula(series: str, rank: int) -> int:
    if series == "A":
        return (rank + 1) // 2
    if series == "D":
        return 2 * (rank // 2)
    return {6: 4, 7: 7, 8: 8}[rank]


def perfect_moset(rs: RootSet) -> Moset:
    """A perfect moset of a Pi-system: an orthogonal subset whose
    complement inside the set is orthogonal and not larger.

    Per irreducible component the two color classes of the (bipartite)
    diagram are the candidates; the larger one is taken, ties resolved
    toward the class containing the smallest node.
    """
    sysm = rs.system
    view = _NodeView(sysm, sysm.projective(rs.members))
    comps, multiset = view.split(view.every)
    if multiset is None:
        raise NotPiSystem("perfect mosets are defined for Pi-systems")
    return Moset(sysm, view.moset(comps), tuple(rs.members))


def all_mosets(system: RootSystem, scope=None) -> list[tuple[int, ...]]:
    """Every moset of the scope (default: the whole system).

    Mosets are the maximal cliques of the orthogonality graph on projective
    roots, enumerated by Bron-Kerbosch with pivoting.
    """
    scope_p = system.projective(scope or range(len(system.roots)))
    orth = {
        a: {b for b in scope_p if b != a and system.cartan(a, b) == 0}
        for a in scope_p
    }
    out: list[tuple[int, ...]] = []

    def bron_kerbosch(current: set, candidates: set, excluded: set):
        if not candidates and not excluded:
            out.append(tuple(sorted(current)))
            return
        pivot = max(candidates | excluded, key=lambda x: len(orth[x] & candidates))
        for v in sorted(candidates - orth[pivot]):
            bron_kerbosch(current | {v}, candidates & orth[v], excluded & orth[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    bron_kerbosch(set(), set(scope_p), set())
    return sorted(out)


def all_mosets_conjugate_check(system: RootSystem, cap: int = DEFAULT_CAP) -> bool:
    """Enumerate all mosets, verify the uniform cardinality, and verify
    that they form a single Weyl orbit: one canonical image, whose orbit
    has as many members as there are mosets (CapExceeded past the cap)."""
    if len(system.roots) > 130:
        raise OracleCapExceeded("moset conjugacy scan is limited to small ranks")
    if len(components(system, system.simple_basis)) != 1:
        raise NotIrreducible("moset conjugacy check expects an irreducible system")
    mosets = all_mosets(system)
    m = mu(system)
    if any(len(x) != m for x in mosets):
        return False
    images = {canonical_image(system, x) for x in mosets}
    size = max(size for _, size in images)
    if size > cap:
        raise CapExceeded(f"moset orbit of {size} members exceeded cap {cap}")
    return len(images) == 1 and size == len(mosets)
