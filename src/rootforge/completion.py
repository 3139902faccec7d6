"""Completion of symmetric root sets and enhanced bases.

A symmetric set is complete when every D4-type subset contains its
extension root.  The completion is computed by repeated elementary
extensions; for an irreducible system the completion of a simple basis is
the enhanced basis, whose projective diagram carries canonical node names
("1".."n" for basis nodes, "l1","l2",... for the extra nodes of the E
series, primed labels for the D series).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .diagrams import ProjectiveDiagram, projective_diagram_of
from .errors import (
    InvariantViolation,
    NotD4,
    NotIrreducible,
    NotSymmetric,
    RootForgeError,
    Unsupported,
)
from .rootsystem import RootSet, RootSystem, _highest_root, _support_masks, components, system_memo


# -- D4 stars and extension roots -----------------------------------------


def d4_stars(system: RootSystem, nodes: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """All D4-type subdiagrams of the projective node set, as (center, ends)."""
    nodeset = list(nodes)
    stars = []
    for c in nodeset:
        nbrs = [x for x in nodeset if x != c and system.cartan(c, x) != 0]
        if len(nbrs) < 3:
            continue
        for ends in combinations(nbrs, 3):
            if all(system.cartan(a, b) == 0 for a, b in combinations(ends, 2)):
                stars.append((c, tuple(sorted(ends))))
    return stars


def extension_root(system: RootSystem, center: int, ends: tuple[int, ...]) -> int:
    """Root index completing a D4 set {ends, center} to its extended set.

    Signs are normalized so that every end pairs to -1 with the center;
    the star is then a basis of a D4 subsystem, and the returned root d is
    its lowest root, -(ends + 2*center), which makes {ends, d} the four
    ends of the extended star around the center.
    """
    if len(ends) != 3:
        raise NotD4("a D4 set has exactly three end roots")
    c = system.proj_rep(center)
    fixed = []
    for e in ends:
        pairing = system.cartan(e, c)
        if pairing == -1:
            fixed.append(e)
        elif pairing == 1:
            fixed.append(system.negative(e))
        else:
            raise NotD4("end root not adjacent to the center")
    for a, b in combinations(fixed, 2):
        if system.cartan(a, b) != 0:
            raise NotD4("end roots of a D4 set must be orthogonal")
    return system.negative(_highest_root(system, (c, *fixed))[0])


def is_complete(rs: RootSet) -> bool:
    """True iff every D4-type subset has its extension root in the set."""
    if not rs.symmetric:
        raise NotSymmetric("completeness is defined for symmetric sets")
    return next(_d4_extensions(rs.system, rs.members, _star_nodes), None) is None


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


def _d4_extensions(system: RootSystem, members, key, pick=min):
    """Complete the symmetrized set one elementary extension at a time.

    Among the D4 subdiagrams lacking their extension root, pick(..., key=key)
    chooses the star (center, ends) to extend; the projective node of each
    added root is yielded in turn.  key is applied afresh after every step,
    so it may depend on what the caller has seen yielded.
    """
    members = set(system.symmetrize(tuple(members)))
    while True:
        nodes = system.projective(members)
        missing = []
        for center, ends in d4_stars(system, nodes):
            delta = extension_root(system, center, ends)
            if delta not in members:
                missing.append(((center, ends), delta))
        if not missing:
            return
        delta = pick(missing, key=lambda item: key(item[0]))[1]
        members.add(delta)
        members.add(system.negative(delta))
        yield system.proj_rep(delta)


def _star_nodes(star) -> tuple[int, ...]:
    return tuple(sorted(star[1] + (star[0],)))


def complete(rs: RootSet) -> RootSet:
    """Minimal complete symmetric superset of the given set.

    The set is symmetrized first; then the D4 subdiagram with the least
    sorted node tuple that lacks its extension root is extended, until none
    remains.  Every added root lies in every complete superset, so the
    result is the least complete superset (complete sets are closed under
    intersection), whatever order the extensions take.
    """
    sysm = rs.system
    added = tuple(_d4_extensions(sysm, rs.members, _star_nodes))
    return RootSet(sysm, sysm.symmetrize(rs.members + added))


def completion_nodes(rs: RootSet) -> tuple[int, ...]:
    """Projective node set of the completion."""
    return rs.system.projective(complete(rs).members)


# -- enhanced bases --------------------------------------------------------


@dataclass(frozen=True)
class EnhancedBasis:
    """Completion of a simple basis with canonical node names.

    nodes are canonical projective representatives; names maps node ->
    label string; moset is the boldfaced maximal orthogonal subset shown
    on the enhanced diagram.
    """

    system: RootSystem
    nodes: tuple[int, ...]
    names: dict
    moset: tuple[int, ...]
    added_order: tuple[int, ...]

    @property
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
        m = self.system.rank // 2
        out = []
        for i in range(1, m + 1):
            out.append((self.node(str(2 * i - 1)), self.node(f"{2 * i - 1}'")))
        return out

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
    basis = list(system.simple_basis)
    adj = {
        b: [x for x in basis if x != b and system.cartan(b, x) != 0] for b in basis
    }
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


def _unique(candidates, what: str):
    if len(candidates) != 1:
        raise RootForgeError(f"cannot identify {what}: {len(candidates)} candidates")
    return candidates[0]


def _name_added(system: RootSystem, nodes, names) -> dict:
    """Extend basis names to the extra nodes of the completion."""
    names = dict(names)
    added = [n for n in nodes if n not in names]

    def nbrs(n):
        return {x for x in nodes if x != n and system.cartan(n, x) != 0}

    if system.series == "A":
        if added:
            raise InvariantViolation(f"the completion of {system.name} added nodes")
        return names
    if system.series == "D":
        support = _support_masks(system)
        for n in added:
            twin = _unique(
                [x for x in nodes if x != n and x in names and support[x] == support[n]],
                f"support twin of an extra node in {system.name}",
            )
            names[n] = names[twin] + "'"
        return names

    def named(label):
        return next(k for k, v in names.items() if v == label)

    def pick(label, what, pred=lambda n: True):
        node = _unique([n for n in added if n not in names and pred(n)], what)
        names[node] = label
        return node

    l1 = pick(
        "l1",
        "the extra node joined to basis nodes 1, 4 and 6",
        lambda n: {named("1"), named("4"), named("6")} <= nbrs(n),
    )
    if system.rank == 6:
        pick("l2", "the second extra node of E6")
        return names
    l2 = pick("l2", "the extra node joined to l1", lambda n: l1 in nbrs(n))
    l3 = pick(
        "l3",
        "the extra node joined to 1 and 6",
        lambda n: named("1") in nbrs(n) and named("6") in nbrs(n),
    )
    l4 = pick(
        "l4",
        "the extra node joined to 1 and l2",
        lambda n: named("1") in nbrs(n) and l2 in nbrs(n),
    )
    if system.rank == 7:
        if len(names) != len(nodes):
            raise InvariantViolation("an extra node of E7 is left unnamed")
        return names
    pick("l5", "the extra node joined to 8", lambda n: named("8") in nbrs(n))
    pick("l6", "the extra node joined to l4", lambda n: l4 in nbrs(n))
    pick("l7", "the extra node joined to 7", lambda n: named("7") in nbrs(n))
    l8 = pick("l8", "the last extra node of E8")
    if not {l3, named("3")} <= nbrs(l8):
        raise InvariantViolation("l8 is not joined to l3 and 3")
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
    for a, b in combinations(nodes, 2):
        if system.cartan(a, b) != 0:
            raise InvariantViolation("boldfaced nodes must be orthogonal")
    return nodes


@system_memo
def enhanced_basis(system: RootSystem, policy: str = "least") -> EnhancedBasis:
    """Enhanced basis of an irreducible system: the completion of its
    simple basis, with canonical node names and the boldfaced moset.

    policy picks which extendable D4 subdiagram is used first ("least" or
    "greatest" by node labels).  The completion is the least complete
    superset either way, so both policies give the same nodes; only the
    names of the added nodes may differ.
    """
    if len(components(system, system.simple_basis)) != 1:
        raise NotIrreducible("enhanced bases are defined for irreducible systems")
    base_names = _name_basis(system)
    temp = dict(base_names)

    def star_key(star):
        center, ends = star
        return tuple(sorted(_label_key(temp[x]) for x in ends + (center,)))

    pick = max if policy == "greatest" else min
    added_order = []
    for delta in _d4_extensions(system, system.simple_basis, star_key, pick):
        added_order.append(delta)
        temp[delta] = f"l{len(added_order)}"
    nodes = tuple(sorted(system.simple_basis + tuple(added_order)))
    names = _name_added(system, nodes, base_names)
    moset = _moset_nodes(system, names)
    return EnhancedBasis(system, nodes, names, moset, tuple(added_order))
