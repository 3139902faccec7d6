"""Completion of symmetric root sets and enhanced bases.

A symmetric set is complete when every D4-type subset contains its
extension root.  The completion, the least complete superset, is grown in
rounds: each round adds every extension root that the current set's D4
subsets lack, with its negative, until none is missing.  For an
irreducible system the completion of a simple basis is the enhanced
basis, whose projective diagram carries canonical node names ("1".."n"
for basis nodes, "l1","l2",... for the extra nodes of the E series,
primed labels for the D series).
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .diagrams import ProjectiveDiagram, projective_diagram_of
from .errors import (
    InvariantViolation,
    NotD4,
    NotIrreducible,
    NotSymmetric,
    RootForgeError,
    Unsupported,
)
from .rootsystem import (
    RootSet,
    RootSystem,
    _adjacency,
    _bits,
    _support_masks,
    components,
    orthogonal,
    system_memo,
)


# -- D4 stars and extension roots -----------------------------------------


def d4_stars(system: RootSystem, nodes: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """All D4-type subdiagrams of the projective node set, as (center, ends)."""
    adj = _adjacency(system, nodes)
    stars = []
    for c, row in zip(nodes, adj):
        # Ends a < b < e among the centre's neighbours, each orthogonal to
        # the ones before it: -(2 << a) masks the positions above a.
        for a in _bits(row):
            after_a = row & ~adj[a] & -(2 << a)
            for b in _bits(after_a):
                for e in _bits(after_a & ~adj[b] & -(2 << b)):
                    stars.append((c, tuple(sorted((nodes[a], nodes[b], nodes[e])))))
    return stars


def extension_root(system: RootSystem, center: int, ends: tuple[int, ...]) -> int:
    """Root index completing a D4 set {ends, center} to its extended set.

    With signs normalized so that every end pairs to -1 with the center,
    the star is a basis of a D4 subsystem, and the returned root d is its
    lowest root, -(ends + 2*center), which makes {ends, d} the four ends of
    the extended star around the center.  This public form checks that the
    ends are three orthogonal neighbours of the center, then takes the root
    by the completion's one lookup (_star_root).
    """
    if len(ends) != 3:
        raise NotD4("a D4 set has exactly three end roots")
    c = system.proj_rep(center)
    if any(abs(system.cartan(e, c)) != 1 for e in ends):
        raise NotD4("end root not adjacent to the center")
    if not orthogonal(system, ends):
        raise NotD4("end roots of a D4 set must be orthogonal")
    return _star_root(system, c, ends)


def _star_root(system: RootSystem, center: int, ends: tuple[int, ...]) -> int:
    """extension_root of a star of d4_stars, whose ends are orthogonal
    neighbours of the centre, in one lookup: each end e turned to pair to
    -1 with the centre is -<e|c> e, so -(ends + 2*center) is the sum of
    <e|c> e over the ends, less 2c."""
    (a, b, d), c = (system.roots[e] for e in ends), system.roots[center]
    pa, pb, pd = (system.cartan(e, center) for e in ends)
    root = system.index(tuple(pa * x + pb * y + pd * z - 2 * w for x, y, z, w in zip(a, b, d, c)))
    if root is None:
        raise InvariantViolation(f"the star at {center} with ends {ends} has no extension root")
    return root


def is_complete(rs: RootSet) -> bool:
    """True iff every D4-type subset has its extension root in the set."""
    if not rs.symmetric:
        raise NotSymmetric("completeness is defined for symmetric sets")
    return _completion(rs.system, rs.members) == rs.members


def elementary_extension(
    system: RootSystem, nodes: tuple[int, ...], center: int, ends: tuple[int, ...]
) -> tuple[tuple[int, ...], int]:
    """Extend one D4 subdiagram of the projective node set by its extra node.

    Returns the enlarged node tuple and the new node.  The new node's bonds
    are those of the actual extension root; they are checked against the
    parity rule: outside the D4 star it connects exactly the nodes having
    one or three neighbors among the star's ends.
    """
    delta = system.proj_rep(extension_root(system, center, ends))
    if delta in nodes:
        raise NotD4("the D4 set is already extended inside this node set")
    for x in nodes:
        if x in ends or x == center:
            continue
        adjacent = system.cartan(delta, x) != 0
        among_ends = sum(1 for e in ends if system.cartan(x, e) != 0)
        if adjacent != (among_ends % 2 == 1):
            raise RootForgeError(
                "extension root adjacency violates the odd-neighbor rule"
            )
    if system.cartan(delta, center) == 0:
        raise RootForgeError("extension root must neighbor the branching node")
    return tuple(sorted(nodes + (delta,))), delta


def _completion(system: RootSystem, members) -> tuple[int, ...]:
    """Sorted members of the least complete symmetric superset of members.

    Each round adds every extension root missing from the current set's D4
    subdiagrams, with its negative, and the loop stops when a round finds
    none missing.  A complete superset of the current set holds each
    missing root, so by induction on the rounds every added root lies in
    every complete superset of members: the result is the least one, and
    no order of single extensions could give another.

    After the first round only the stars with a node added in the round
    before are looked at.  Whether four nodes form a star depends on those
    nodes alone, so every other star was a star of the previous round's
    set, and its extension root went in then.  A set that holds every root
    is complete, so the loop stops there without another round.
    """
    members = set(system.symmetrize(tuple(members)))
    added = None  # the nodes of the last round; None before the first
    while True:
        stars = d4_stars(system, system.projective(members))
        if added is not None:
            stars = [(c, ends) for c, ends in stars if c in added or not added.isdisjoint(ends)]
        missing = {_star_root(system, c, ends) for c, ends in stars} - members
        if not missing:
            break
        members |= missing
        members.update(system.negative(d) for d in missing)
        if len(members) == len(system.roots):
            break  # every root: no star lacks its root
        added = {system.proj_rep(d) for d in missing}
    return tuple(sorted(members))


def complete(rs: RootSet) -> RootSet:
    """Minimal complete symmetric superset of the given set.

    Complete sets are closed under intersection, so a least complete
    superset exists; _completion reaches it in rounds, each adding only
    roots that every complete superset must hold.
    """
    return RootSet(rs.system, _completion(rs.system, rs.members))


def completion_nodes(rs: RootSet) -> tuple[int, ...]:
    """Projective node set of the completion."""
    return rs.system.projective(_completion(rs.system, rs.members))


# -- enhanced bases --------------------------------------------------------


class _EnhancedBasis(NamedTuple):
    system: RootSystem
    nodes: tuple[int, ...]
    names: dict
    moset: tuple[int, ...]


class EnhancedBasis(_EnhancedBasis):
    """Completion of a simple basis with canonical node names.

    nodes are canonical projective representatives; names maps node ->
    label string; moset is the boldfaced maximal orthogonal subset shown
    on the enhanced diagram.  It keeps an instance dict (no __slots__)
    for its cached view.
    """

    @cached_property
    def name_to_node(self) -> dict:
        return {v: k for k, v in self.names.items()}

    @property
    def full(self) -> RootSet:
        return RootSet(self.system, self.system.symmetrize(self.nodes))

    def diagram(self) -> ProjectiveDiagram:
        return projective_diagram_of(self.system, self.nodes)

    def node(self, label: str) -> int:
        try:
            return self.name_to_node[label]
        except KeyError:
            raise RootForgeError(f"no node named {label!r} in {self.system.name}")

    def subset(self, labels) -> tuple[int, ...]:
        return tuple(sorted(self.node(l) for l in labels))

    def neighbors(self, node: int) -> tuple[int, ...]:
        return tuple(
            x for x in self.nodes if x != node and self.system.cartan(node, x) != 0
        )

    def columns(self) -> list[tuple[int, int]]:
        """Twin columns of a D-series enhanced diagram, ordered by label."""
        if self.system.series != "D":
            raise Unsupported("twin columns exist in D-series enhanced diagrams")
        return [(self.node(str(i)), self.node(f"{i}'")) for i in range(1, self.system.rank, 2)]

    def to_json(self) -> dict:
        n2n = self.name_to_node
        labels = sorted(n2n, key=_label_key)
        adjacency = {
            label: sorted(
                (self.names[x] for x in self.neighbors(n2n[label])), key=_label_key
            )
            for label in labels
        }
        return {
            "schema": "rootforge/1",
            "system": self.system.name,
            "nodes": labels,
            "adjacency": adjacency,
            "moset": sorted((self.names[x] for x in self.moset), key=_label_key),
            "roots": {label: list(self.system.roots[n2n[label]]) for label in labels},
        }


def _label_key(label: str):
    if label.endswith("'"):
        return (0, int(label[:-1]), 1)
    if label.isdigit():
        return (0, int(label), 0)
    return (1, int(label[1:]), 0)


def _path(adj, prev, cur) -> list:
    """Nodes of the unbranched path entered from prev at cur, in order, up
    to its far end; adj maps each node of a tree to its neighbours."""
    out = [cur]
    while True:
        nxt = [x for x in adj[cur] if x != prev]
        if not nxt:
            return out
        prev, cur = cur, nxt[0]
        out.append(cur)


def _name_basis(system: RootSystem) -> dict:
    """Canonical labels for the simple basis nodes of an irreducible system."""
    basis = system.simple_basis
    rows = _adjacency(system, basis)
    adj = {b: [basis[j] for j in _bits(row)] for b, row in zip(basis, rows)}
    names: dict = {}
    if system.series == "A":
        ends = [b for b in basis if len(adj[b]) <= 1]
        start = min(ends, key=lambda b: system.roots[b])
        for k, node in enumerate(_path(adj, None, start), start=1):
            names[node] = str(k)
    elif system.series == "D":
        support = _support_masks(system)
        twins = [(a, b) for a, b in combinations(basis, 2) if support[a] == support[b]]
        if len(twins) != 1:
            raise InvariantViolation(f"{len(twins)} twin pairs in the basis of {system.name}")
        a, b = twins[0]
        if system.roots[b] < system.roots[a]:
            a, b = b, a
        names[a] = "1"
        names[b] = "1'"
        common = [x for x in adj[a] if x in adj[b]]
        if len(common) != 1:
            raise InvariantViolation(f"the twins of {system.name} share {len(common)} neighbours")
        prev, cur = None, common[0]
        names[cur] = "2"
        for k in range(3, len(basis)):
            nxt = [x for x in adj[cur] if x != prev and x not in (a, b)]
            prev, cur = cur, nxt[0]
            names[cur] = str(k)
    else:
        branch = next(b for b in basis if len(adj[b]) == 3)
        names[branch] = "4"
        arms = [_path(adj, branch, first) for first in adj[branch]]
        arms.sort(key=lambda arm: (len(arm), system.roots[arm[-1]]))
        short = arms[0]
        if len(short) != 1:
            raise InvariantViolation(f"the short arm of {system.name} has {len(short)} nodes")
        names[short[0]] = "2"
        if system.rank == 6:
            two_a, two_b = arms[1], arms[2]
            names[two_a[0]], names[two_a[1]] = "3", "1"
            names[two_b[0]], names[two_b[1]] = "5", "6"
        else:
            two = next(a for a in arms[1:] if len(a) == 2)
            longer = next(a for a in arms[1:] if len(a) > 2)
            names[two[0]], names[two[1]] = "3", "1"
            for k, node in enumerate(longer):
                names[node] = str(5 + k)
    return names


# The extra nodes of the enhanced E diagrams, in naming order: each label
# goes to the one unnamed extra node joined to every named neighbour.
_E_EXTRA = {
    6: (("l1", ("1", "4", "6")), ("l2", ())),
    7: (("l1", ("1", "4", "6")), ("l2", ("l1",)), ("l3", ("1", "6")), ("l4", ("1", "l2"))),
}
_E_EXTRA[8] = _E_EXTRA[7] + (
    ("l5", ("8",)),
    ("l6", ("l4",)),
    ("l7", ("7",)),
    ("l8", ("l3", "3")),
)


def _name_added(system: RootSystem, nodes, names) -> dict:
    """Extend basis names to the extra nodes of the completion: in the D
    series each extra node is its basis support twin primed, in the E
    series _E_EXTRA names them, each label one node.  InvariantViolation
    unless every extra node is named."""
    base, names = names, dict(names)
    added = [n for n in nodes if n not in names]
    if system.series == "D":
        support = _support_masks(system)
        for n in added:
            twins = [x for x in base if support[x] == support[n]]
            if len(twins) == 1:
                names[n] = base[twins[0]] + "'"
    elif system.series == "E":
        by_name = {v: k for k, v in names.items()}
        for label, near in _E_EXTRA[system.rank]:
            found = [
                n for n in added if n not in names and all(system.cartan(n, by_name[x]) for x in near)
            ]
            if len(found) != 1:
                raise InvariantViolation(f"{len(found)} candidates for {label} in {system.name}")
            names[found[0]] = label
            by_name[label] = found[0]
    if len(names) != len(nodes):
        raise InvariantViolation(f"an extra node of {system.name} is left unnamed")
    return names


def _moset_nodes(system: RootSystem, names: dict) -> tuple[int, ...]:
    """Boldfaced nodes of the enhanced diagram: a moset of the system."""
    by_name = {v: k for k, v in names.items()}
    if system.series == "A":
        labels = [str(k) for k in range(1, system.rank + 1, 2)]
    elif system.series == "D":
        labels = [l for l in by_name if l.endswith("'") or int(l) % 2 == 1]
    elif system.rank == 6:
        labels = ["2", "3", "5", "l1"]
    elif system.rank == 7:
        labels = ["2", "3", "5", "7", "l1", "l3", "l4"]
    else:
        labels = ["2", "3", "5", "7", "l1", "l3", "l4", "l5"]
    nodes = tuple(sorted(by_name[l] for l in labels))
    if not orthogonal(system, nodes):
        raise InvariantViolation("boldfaced nodes must be orthogonal")
    return nodes


@system_memo
def enhanced_basis(system: RootSystem) -> EnhancedBasis:
    """Enhanced basis of an irreducible system: the completion of its
    simple basis, with canonical node names and the boldfaced moset."""
    if len(components(system, system.simple_basis)) != 1:
        raise NotIrreducible("enhanced bases are defined for irreducible systems")
    nodes = system.projective(_completion(system, system.simple_basis))
    names = _name_added(system, nodes, _name_basis(system))
    return EnhancedBasis(system, nodes, names, _moset_nodes(system, names))
