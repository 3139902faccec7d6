"""Classification of root subsystems into Weyl orbits.

Every Pi-system is conjugate to a node subset of the enhanced diagram, so
orbits are enumerated there.  An orbit is named by its isomorphism type
plus a discriminator: the (d2, d3) tag and, for distinguished diagrams,
a side bit in the D series; the charge and parity of the perfect moset
for the special types of E7 and E8.  Weyl membership of explicit
embeddings is decided constructively, producing a reflection word that
replays on actual roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .completion import EnhancedBasis, _support, completion_nodes, enhanced_basis
from .coregroups import (
    SPECIAL_SIZES,
    core_group_model,
    extend_partial_map,
    parity as moset_parity,
)
from .diagrams import (
    TypeLabel,
    classify_components,
    dynkin_type,
    is_dynkin_shape,
    projective_diagram_of,
    subsystem_type,  # re-exported, as is subsystem_basis below
    _embeddings,
)
from .errors import (
    InvariantViolation,
    MixedAmbient,
    NotEmbedding,
    NotInEnhancedBasis,
    NotOrthogonal,
    NotPiSystem,
    Unsupported,
)
from .mosets import perfect_moset
from .oracle import perm_from_word
from .rootsystem import (
    RootSet,
    RootSystem,
    build_root_system,
    cartan_neighbours,
    components,
    e7_cut_root,
    subsystem_basis,
    system_memo,
    walk,
)

E7_SPECIAL = {"A5": 3, "A3+A1": 3, "3A1": 3, "A5+A1": 4, "A3+2A1": 4, "4A1": 4}
E8_SPECIAL = {"A7": 4, "A5+A1": 4, "2A3": 4, "A3+2A1": 4, "4A1": 4}


# -- types of subsystems and subsets ----------------------------------------


def pi_type(system: RootSystem, members) -> TypeLabel:
    """Isomorphism type of a Pi-system (the type of its diagram)."""
    return classify_components(projective_diagram_of(system, members))


def significant_part(rs: RootSet) -> RootSet:
    """Union of the components of type A with odd rank (A1 included)."""
    sysm = rs.system
    keep: list[int] = []
    for comp in components(sysm, rs.members):
        label = pi_type(sysm, comp)
        part = label.parts[0]
        if part.series == "A" and part.rank % 2 == 1 and not part.extended:
            keep.extend(comp)
    return RootSet(sysm, tuple(sorted(keep)))


# -- D-series statistics ------------------------------------------------------


def _sum_form(vec) -> bool:
    nz = [x for x in vec if x != 0]
    return len(nz) == 2 and nz[0] * nz[1] > 0


@dataclass(frozen=True)
class DnTag:
    d2: int
    d3: int
    thin: bool
    width: int
    distinguished: bool
    side: int | None


def dn_tag(rs: RootSet) -> DnTag:
    """Tag statistics of a Pi-system inside a D-series system.

    A thick pair is two members supported on the same coordinate pair
    (the {i, i'} twins of the enhanced diagram); d2 counts thick pairs and
    d3 counts thick pairs together with a common neighbor in the set.
    Width is the number of coordinates the set touches.  Thin significant
    sets of full width are distinguished and carry a side bit: the parity
    of the number of sum-form members of the perfect moset.  Those
    members' supports tile the coordinates exactly once, so an even number
    of sign flips cannot change the parity, while any single twin swap
    does.
    """
    sysm = rs.system
    assert sysm.series == "D"
    members = sysm.projective(rs.members)
    supports = {i: _support(sysm.roots[i]) for i in members}
    thick_pairs = [
        (a, b)
        for a, b in combinations(members, 2)
        if supports[a] == supports[b]
    ]
    d2 = len(thick_pairs)
    d3 = 0
    for a, b in thick_pairs:
        for c in members:
            if c in (a, b):
                continue
            if sysm.cartan(a, c) != 0 and sysm.cartan(b, c) != 0:
                d3 += 1
    width = len(frozenset().union(*supports.values())) if members else 0
    thin = d2 == 0
    # Only thin sets of full width can be distinguished; only they need the type.
    distinguished = thin and width == sysm.rank and all(
        p.series == "A" and p.rank % 2 == 1
        for p in pi_type(sysm, members).parts
    )
    side = None
    if distinguished:
        core = perfect_moset(RootSet(sysm, members)).members
        side = sum(1 for i in core if _sum_form(sysm.roots[i])) % 2
    return DnTag(d2, d3, thin, width, distinguished, side)


# -- orbit labels --------------------------------------------------------------


@dataclass(frozen=True, order=True)
class OrbitLabel:
    """Canonical name of a Weyl orbit of Pi-systems."""

    ambient: str
    type_text: str
    kind: str  # "plain" | "dn" | "dn_dist" | "ep"
    data: tuple

    def render(self) -> str:
        if self.kind == "ep":
            return f"[{self.type_text}]^{self.data[1]}"
        if self.kind == "dn_dist":
            return f"[{self.type_text}]^s{self.data[0]}"
        if self.kind == "dn" and self.data != (0, 0):
            return f"{self.type_text}[tag=({self.data[0]},{self.data[1]})]"
        return self.type_text

    def __str__(self) -> str:  # pragma: no cover
        return self.render()

    def to_json(self) -> dict:
        out = {"label": self.render(), "type": self.type_text}
        if self.kind == "ep":
            out["charge"] = self.data[0]
            out["parity"] = self.data[1]
        if self.kind == "dn":
            out["tag"] = list(self.data)
        if self.kind == "dn_dist":
            out["distinguished_side"] = self.data[0]
        return out


def orbit_label(rs: RootSet) -> OrbitLabel:
    """Orbit name of a Pi-system anywhere in its parent system."""
    return _orbit_label(rs.system, rs.system.projective(rs.members))


@system_memo
def _orbit_label(sysm: RootSystem, nodes: tuple[int, ...]) -> OrbitLabel:
    """orbit_label of the sorted projective nodes; its diagram is built and
    classified once."""
    ttype = dynkin_type(projective_diagram_of(sysm, nodes))
    if ttype is None:
        raise NotPiSystem("orbit labels are defined for Pi-systems")
    ttext = ttype.render()
    rs = RootSet(sysm, nodes)
    if sysm.series == "D":
        tag = dn_tag(rs)
        if tag.distinguished:
            label = OrbitLabel(sysm.name, ttext, "dn_dist", (tag.side,))
        else:
            label = OrbitLabel(sysm.name, ttext, "dn", (tag.d2, tag.d3))
    else:
        label = OrbitLabel(sysm.name, ttext, "plain", ())
        if sysm.series == "E" and sysm.rank in (7, 8):
            table = E7_SPECIAL if sysm.rank == 7 else E8_SPECIAL
            if ttext in table:
                om = perfect_moset(rs)
                charge = len(om.members)
                if charge != table[ttext]:
                    raise InvariantViolation(
                        f"{ttext} in {sysm.name} has charge {charge},"
                        f" expected {table[ttext]}"
                    )
                par = parity_of_orthogonal(sysm, om.members)
                label = OrbitLabel(sysm.name, ttext, "ep", (charge, par))
    return _interned(sysm, label)


@system_memo
def _interned(system: RootSystem, label: OrbitLabel) -> OrbitLabel:
    """The system's one copy of an equal label: the 22,910 Pi-subsets of
    E8 then share the objects of its 76 orbit labels."""
    return label


def are_conjugate(rs1: RootSet, rs2: RootSet) -> bool:
    """Weyl conjugacy of two Pi-systems, decided by orbit label equality."""
    assert rs1.system is rs2.system
    return orbit_label(rs1) == orbit_label(rs2)


# -- constructive conjugation of orthogonal sets into the moset ----------------


def weyl_into_moset(system: RootSystem, subset) -> tuple[tuple[int, ...], dict]:
    """A reflection word moving an orthogonal set into the model moset.

    Returns (word, mapping); the word lists roots whose reflections,
    applied first to last, realize the mapping projectively.  Built by
    placing one element at a time inside the subsystem orthogonal to the
    already placed targets, walking roots with reflections.
    """
    model = core_group_model(system)
    nodes = system.projective(subset)
    for a, b in combinations(nodes, 2):
        if system.cartan(a, b) != 0:
            raise NotOrthogonal("only orthogonal sets can enter the moset")
    moset = set(model.moset)
    scope = set(range(len(system.roots)))
    word: list[int] = []
    images = {n: n for n in nodes}
    for n in nodes:
        cur = images[n]
        targets = {m for m in moset if m in scope or system.negative(m) in scope}
        if system.proj_rep(cur) in targets:
            target = system.proj_rep(cur)
        else:
            comp = walk(cur, cartan_neighbours(system, scope))
            local_targets = {t for t in targets if t in comp or system.negative(t) in comp}
            if not local_targets:
                raise InvariantViolation("moset misses a component of the complement")
            step_word, landed = _walk_to(system, comp, cur, local_targets)
            word.extend(step_word)
            for k in images:
                img = images[k]
                for j in step_word:
                    img = system.reflect(img, j)
                images[k] = img
            target = system.proj_rep(images[n])
            if target not in local_targets:
                raise InvariantViolation("walk landed outside the moset targets")
        moset.discard(target)
        scope = {
            r
            for r in scope
            if system.cartan(r, target) == 0
        }
    mapping = {n: system.proj_rep(images[n]) for n in nodes}
    return tuple(word), mapping


def _walk_to(system: RootSystem, comp, start: int, targets: set):
    """Breadth-first walk from a root to any target by reflections in the
    component's roots; returns (word, landing root)."""
    parents: dict[int, tuple[int, int] | None] = {start: None}
    frontier = [start]
    gens = sorted(g for g in comp if system.proj_rep(g) == g)
    landed = None
    while frontier and landed is None:
        new = []
        for cur in frontier:
            for g in gens:
                nxt = system.reflect(cur, g)
                if nxt not in parents:
                    parents[nxt] = (cur, g)
                    if system.proj_rep(nxt) in targets:
                        landed = nxt
                        break
                    new.append(nxt)
            if landed is not None:
                break
        frontier = new
    if landed is None:
        raise InvariantViolation("target unreachable inside the component")
    word = []
    cur = landed
    while parents[cur] is not None:
        prev, g = parents[cur]
        word.append(g)
        cur = prev
    word.reverse()
    return tuple(word), landed


def parity_of_orthogonal(system: RootSystem, subset) -> int:
    """Parity of an orthogonal 3- or 4-set in E7 or 4-set in E8.

    The parity is that of the F2^3 label sum (`coregroups.parity`) of any
    Weyl-conjugate copy inside the model moset, and is read off the roots
    directly: a 4-set has parity 0 exactly when half the sum of its roots
    lies in the E8 lattice, which contains the E7 lattice; a 3-set in E7
    is first completed to a 4-set in E8 by the root that E7 is cut out of
    (`rootsystem.e7_cut_root`).  The test ignores the signs of the roots
    and is Weyl-invariant, and every orthogonal set is conjugate into the
    moset, so agreement on the moset's k-subsets (checked in the tests)
    proves it.  At every other size the orthogonal k-sets form a single
    orbit, so parity is no invariant there and Unsupported is raised.
    """
    if system.series != "E" or system.rank not in SPECIAL_SIZES:
        raise Unsupported("parity is defined for orthogonal sets in E7 and E8")
    nodes = system.projective(subset)
    for a, b in combinations(nodes, 2):
        if system.cartan(a, b) != 0:
            raise NotOrthogonal("parity is defined for orthogonal sets")
    if len(nodes) not in SPECIAL_SIZES[system.rank]:
        raise Unsupported(
            f"parity is not an orbit invariant of {len(nodes)}-sets in {system.name}"
        )
    vecs = [system.roots[i] for i in nodes]
    if len(vecs) == 3:
        vecs.append(e7_cut_root())
    # Doubled coordinates: half the sum is y / 4, so it lies in E8 when the
    # entries of y are all 0 or all 2 mod 4 and their sum is 0 mod 8.
    y = [sum(col) for col in zip(*vecs)]
    residue = y[0] % 4
    in_e8 = residue in (0, 2) and all(v % 4 == residue for v in y) and sum(y) % 8 == 0
    return 0 if in_e8 else 1


# -- the moset embedding of the enhanced diagram's orthogonal subsets ----------


RESIDUAL_TABLES = {
    "E6": {"1": "3", "4": "l1", "6": "5", "l2": "2"},
    "E7": {"1": "3", "4": "l1", "6": "5", "l2": "2"},
    "E8": {
        "1": "3",
        "4": "l1",
        "6": "5",
        "8": "l5",
        "l2": "2",
        "l6": "l4",
        "l7": "7",
        "l8": "l3",
    },
}


def _residual_table(eb: EnhancedBasis) -> dict:
    """name -> name images of the nodes outside the moset, per series."""
    sysm = eb.system
    if sysm.series == "E":
        return RESIDUAL_TABLES[sysm.name]
    if sysm.series == "A":
        return {
            str(k): str(k - 1) for k in range(2, sysm.rank + 1, 2)
        }
    m = sysm.rank // 2
    top = 2 * m - 2 if sysm.rank % 2 == 0 else 2 * m
    return {str(k): str(k - 1) for k in range(2, top + 1, 2)}


@system_memo
def _component_match(system: RootSystem, comp_nodes: tuple, moset_nodes: tuple):
    """Identify an enhanced-diagram component with its model diagram.

    Returns (model EnhancedBasis, node map model -> component) where the
    map carries the model moset onto the component's share of the ambient
    moset.
    """
    comp_diagram = projective_diagram_of(system, comp_nodes)
    count = len(comp_nodes)
    # The enhanced diagram of A_n has n nodes; that of D_n has 3(n // 2) - 1
    # (n even) or 3(n // 2) (n odd), more than n; E6, E7, E8 have 8, 11, 16.
    candidates = [("A", count)]
    candidates += [
        ("D", r)
        for r in range(4, count)
        if 3 * (r // 2) - (r % 2 == 0) == count
    ]
    candidates += [("E", r) for r in (6, 7, 8) if {6: 8, 7: 11, 8: 16}[r] == count]
    m_set = set(moset_nodes)
    for series, rank_ in candidates:
        model_eb = enhanced_basis(build_root_system(series, rank_))
        model_d = model_eb.diagram()
        if len(model_d.nodes) != count:
            continue
        for emb in _embeddings(model_d, comp_diagram, induced=True):
            if {emb[n] for n in model_eb.moset} == m_set & set(comp_nodes):
                return model_eb, dict(emb)
    raise NotInEnhancedBasis("component is not an enhanced diagram copy")


def moset_embedding(eb: EnhancedBasis, subset) -> dict:
    """A map in W(subset, moset) for an orthogonal subset of the enhanced
    basis: identity on the moset part, the series residual table on the
    rest (transported along the component identification)."""
    sysm = eb.system
    nodes = tuple(sorted(subset))
    nodeset = set(eb.nodes)
    if not all(n in nodeset for n in nodes):
        raise NotInEnhancedBasis("subset must consist of enhanced basis nodes")
    for a, b in combinations(nodes, 2):
        if sysm.cartan(a, b) != 0:
            raise NotOrthogonal("moset embeddings take orthogonal subsets")
    m_set = set(eb.moset)
    inside = [n for n in nodes if n in m_set]
    outside = [n for n in nodes if n not in m_set]
    mapping = {n: n for n in inside}
    if not outside:
        return mapping
    scope = [
        x
        for x in eb.nodes
        if all(sysm.cartan(x, i) == 0 for i in inside)
    ]
    for comp in components(sysm, tuple(scope)):
        local = [n for n in outside if n in comp]
        if not local:
            continue
        model_eb, emb = _component_match(sysm, tuple(sorted(comp)), eb.moset)
        table = _residual_table(model_eb)
        back = {v: k for k, v in emb.items()}
        for n in local:
            model_node = back[n]
            model_name = model_eb.names[model_node]
            image_name = table[model_name]
            mapping[n] = emb[model_eb.node(image_name)]
    if not all(mapping[n] in m_set for n in nodes):
        raise InvariantViolation("moset embedding leaves the moset")
    return mapping


# -- Weyl membership of embeddings ---------------------------------------------


@dataclass(frozen=True)
class EmbeddingMap:
    """A pairing-preserving assignment between projective root sets."""

    system: RootSystem
    mapping: dict  # node -> node, canonical projective representatives

    def __post_init__(self):
        sysm = self.system
        fixed = {
            sysm.proj_rep(k): sysm.proj_rep(v) for k, v in self.mapping.items()
        }
        object.__setattr__(self, "mapping", fixed)
        src = sorted(fixed)
        for a, b in combinations(src, 2):
            if abs(sysm.cartan(a, b)) != abs(sysm.cartan(fixed[a], fixed[b])):
                raise NotEmbedding("map does not preserve absolute pairings")
        if len({fixed[a] for a in src}) != len(src):
            raise NotEmbedding("map is not injective")

    @property
    def source(self) -> tuple[int, ...]:
        return tuple(sorted(self.mapping))


@dataclass(frozen=True)
class WeylDecision:
    is_weyl: bool
    mode: str
    witness_word: tuple[int, ...] | None = None
    reason: str | None = None

    def witness_perm(self, system: RootSystem) -> bytes:
        assert self.witness_word is not None
        return perm_from_word(system, self.witness_word)


def _reduction_schedule(system: RootSystem, members, core):
    """Deletion order (a, e) peeling the set down to its perfect moset:
    at each step a is the unique neighbor of an end e that lies in the
    core, and a is removed."""
    current = set(members)
    out = []
    while current != set(core):
        step = None
        for e in sorted(current & set(core)):
            nbrs = [
                x for x in current if x != e and system.cartan(e, x) != 0
            ]
            if len(nbrs) == 1 and nbrs[0] not in core:
                step = (nbrs[0], e)
                break
        if step is None:
            raise InvariantViolation("reduction stalled before the perfect moset")
        current.discard(step[0])
        out.append(step)
    return out


def is_weyl_embedding(emb: EmbeddingMap) -> WeylDecision:
    """Decide whether some Weyl element agrees with the embedding, with a
    replayable reflection word when the answer is yes.

    The domain is reduced to its perfect moset by deleting neighbors of
    ends; both orthogonal sets are steered into the model moset; the
    remaining question is membership in the core group, answered by scan.
    A negative answer at the special sizes of E7/E8 is reported as a
    parity mismatch.
    """
    sysm = emb.system
    src = RootSet(sysm, emb.source)
    if not is_dynkin_shape(projective_diagram_of(sysm, src.members)):
        raise NotPiSystem("Weyl membership is decided for Pi-system domains")
    model = core_group_model(sysm)
    core = perfect_moset(src).members
    schedule = _reduction_schedule(sysm, src.members, core)
    f_core = {n: emb.mapping[n] for n in core}
    word1, map1 = weyl_into_moset(sysm, core)
    word2, map2 = weyl_into_moset(sysm, tuple(f_core.values()))
    partial = {map1[n]: map2[f_core[n]] for n in core}
    ok, gword = extend_partial_map(model, partial)
    if not ok:
        reason = "no core group element extends the moset map"
        if model.labeling.kind == "f2cube":
            p1 = moset_parity(model, list(partial.keys()))
            p2 = moset_parity(model, list(partial.values()))
            if p1 != p2:
                reason = f"parity mismatch ({p1} vs {p2})"
        return WeylDecision(False, "constructive", None, reason)
    # Word realizing f on the perfect moset: word1, then the core word,
    # then word2 reversed (reflections are involutive).
    word = tuple(word1) + tuple(gword) + tuple(reversed(word2))
    perm = perm_from_word(sysm, word)
    inv = _invert(perm)
    for a, e in reversed(schedule):
        fa = emb.mapping[a]
        g_img = inv[fa]
        if sysm.proj_rep(g_img) == sysm.proj_rep(a):
            continue
        if sysm.cartan(a, g_img) == 0:
            gamma = _join_root(sysm, a, sysm.reflect(g_img, e))
            extra = (gamma, sysm.proj_rep(e))
        else:
            gamma = _join_root(sysm, a, g_img)
            extra = (gamma,)
        word = extra + word
        perm = perm_from_word(sysm, word)
        inv = _invert(perm)
    for n in emb.source:
        if sysm.proj_rep(perm[n]) != sysm.proj_rep(emb.mapping[n]):
            raise InvariantViolation(f"witness word does not replay on node {n}")
    return WeylDecision(True, "constructive", word, None)


def _invert(perm: bytes) -> bytes:
    out = bytearray(len(perm))
    for i, v in enumerate(perm):
        out[v] = i
    return bytes(out)


def _join_root(system: RootSystem, a: int, b: int) -> int:
    """Root gamma with s_gamma swapping the projective roots of a and b,
    fixing everything orthogonal to both: gamma = a + b after flipping b
    so the pairing is negative."""
    c = system.cartan(a, b)
    if c == 0:
        raise InvariantViolation(f"roots {a} and {b} are orthogonal")
    bb = system.negative(b) if c > 0 else b
    coords = tuple(x + y for x, y in zip(system.roots[a], system.roots[bb]))
    idx = system.index(coords)
    if idx is None:
        raise InvariantViolation(f"roots {a} and {b} do not sum to a root")
    return system.proj_rep(idx)


# -- orbit enumeration over the enhanced diagram --------------------------------


def pi_node_subsets(eb: EnhancedBasis) -> list[tuple[int, ...]]:
    """All node subsets of the enhanced diagram that are Pi-systems, in
    depth-first (lexicographic) order, as a list of the caller's own.

    Both completion policies give the same node set, so the table of the
    system's default enhanced basis serves every policy.
    """
    return list(_pi_table(eb.system)[0])


@system_memo
def _pi_table(system: RootSystem) -> tuple[list, list]:
    """The enhanced diagram's Pi-subsets in depth-first (lexicographic)
    order and their orbit labels, as two parallel lists (one tuple per
    subset would cost more memory).

    Pi-ness is closed under taking subsets, so growth over sorted nodes
    that stops at each candidate orbit_label rejects visits exactly the
    family, and labels each member in the walk that finds it.
    """
    nodes = sorted(enhanced_basis(system).nodes)
    subsets: list[tuple[int, ...]] = []
    labels: list[OrbitLabel] = []

    def grow(current: tuple[int, ...], start: int):
        for k in range(start, len(nodes)):
            cand = current + (nodes[k],)
            try:
                label = orbit_label(RootSet(system, cand))
            except NotPiSystem:
                continue
            subsets.append(cand)
            labels.append(label)
            grow(cand, k + 1)

    grow((), 0)
    return subsets, labels


@system_memo
def enumerate_pi_orbits(system: RootSystem) -> tuple[tuple[OrbitLabel, tuple[int, ...]], ...]:
    """All Weyl orbits of nonempty Pi-systems, each with its least
    representative inside the enhanced basis: the first in the table,
    whose depth-first order is lexicographic."""
    reps: dict[OrbitLabel, tuple[int, ...]] = {}
    for subset, label in zip(*_pi_table(system)):
        reps.setdefault(label, subset)
    return tuple(sorted(reps.items()))


# -- order between orbits --------------------------------------------------------


@system_memo
def _labels_below(system: RootSystem, rep: tuple[int, ...]) -> frozenset:
    """Labels of every Pi-system inside the subsystem generated by rep.

    The enhanced basis is complete, so rep's completion stays among its
    nodes, and the Pi-systems of the completion are read off the one table.
    """
    inside = frozenset(completion_nodes(RootSet(system, rep)))
    if not inside <= frozenset(enhanced_basis(system).nodes):
        raise InvariantViolation(f"completion of {rep} leaves the enhanced basis")
    subsets, labels = _pi_table(system)
    return frozenset(l for s, l in zip(subsets, labels) if inside.issuperset(s))


def order_between_orbits(l1: OrbitLabel, l2: OrbitLabel, system: RootSystem) -> bool:
    """True iff a member of orbit l1 is contained in the subsystem
    generated by a member of orbit l2 (reflexive by convention)."""
    if l1.ambient != system.name or l2.ambient != system.name:
        raise MixedAmbient("orbit labels come from different ambient systems")
    if l1 == l2:
        return True
    reps = dict(enumerate_pi_orbits(system))
    return l1 in _labels_below(system, reps[l2])


@dataclass(frozen=True)
class HasseDiagram:
    """Cover relations of the orbit order: an edge u -> v means v < u."""

    system_name: str
    labels: tuple[OrbitLabel, ...]
    edges: tuple[tuple[OrbitLabel, OrbitLabel], ...]

    def to_json(self) -> dict:
        return {
            "schema": "rootforge/1",
            "system": self.system_name,
            "orbits": [l.render() for l in self.labels],
            "edges": [[a.render(), b.render()] for a, b in self.edges],
        }

    def to_dot(self) -> str:
        lines = ["digraph orbit_order {"]
        for l in self.labels:
            lines.append(f'  "{l.render()}";')
        for a, b in self.edges:
            lines.append(f'  "{a.render()}" -> "{b.render()}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def hasse_diagram(system: RootSystem, labels=None) -> HasseDiagram:
    """Transitive reduction of the orbit order over the given labels
    (default: all orbits)."""
    reps = dict(enumerate_pi_orbits(system))
    labels = list(reps if labels is None else labels)
    if any(l.ambient != system.name for l in labels):
        raise MixedAmbient("orbit labels come from different ambient systems")
    below = {l: _labels_below(system, reps[l]).intersection(labels) - {l} for l in labels}
    edges = []
    for upper in labels:
        for lower in below[upper]:
            if not any(lower in below[mid] for mid in below[upper] if mid != lower):
                edges.append((upper, lower))
    return HasseDiagram(system.name, tuple(sorted(labels)), tuple(sorted(edges)))
