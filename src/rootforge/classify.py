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

from itertools import combinations
from typing import NamedTuple

from .completion import EnhancedBasis, enhanced_basis
from .coregroups import (
    SPECIAL_SIZES,
    core_group_model,
    extend_partial_map,
    parity as moset_parity,
)
from .diagrams import (
    TypeLabel,
    _NodeView,
    _embeddings,
    _mask_nodes,
    _projective_rows,
    subsystem_type,  # re-exported, as is subsystem_basis below
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
from .oracle import perm_from_word
from .rootsystem import (
    RootSet,
    RootSystem,
    _bits,
    _component_masks,
    build_root_system,
    cartan_links,
    components,
    e7_cut_root,
    orthogonal,
    orthogonal_complement,
    positive_mask,
    subsystem_basis,
    system_memo,
)

E7_SPECIAL = {"A5": 3, "A3+A1": 3, "3A1": 3, "A5+A1": 4, "A3+2A1": 4, "4A1": 4}
E8_SPECIAL = {"A7": 4, "A5+A1": 4, "2A3": 4, "A3+2A1": 4, "4A1": 4}
# The special types of each system, with the charge of their perfect moset.
_SPECIAL = {"E7": E7_SPECIAL, "E8": E8_SPECIAL}


# -- types of subsystems and subsets ----------------------------------------


def pi_type(system: RootSystem, members) -> TypeLabel:
    """Isomorphism type of a Pi-system (the type of its diagram); of other
    sets the type of their diagram when each component is ADE or extended
    ADE, and UnrecognizedComponent otherwise."""
    return _NodeView(system, system.projective(system.check_indices(members))).type_label()


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


class DnTag(NamedTuple):
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
    if sysm.series != "D":
        raise Unsupported(f"D-series tags are defined in D systems, not {sysm.name}")
    _, (d2, d3, width), tag = _label_data(sysm, sysm.projective(rs.members), "D-series tags")
    side = None if tag is None else tag[0]
    return DnTag(d2, d3, d2 == 0, width, tag is not None, side)


# -- orbit labels --------------------------------------------------------------


class OrbitLabel(NamedTuple):
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
    """orbit_label of the sorted projective nodes."""
    return _label_of(sysm, *_label_data(sysm, nodes, "orbit labels"))


def _label_data(sysm: RootSystem, nodes: tuple[int, ...], what: str) -> tuple:
    """(type text, D counts (d2, d3, width), _moset_tag or None) of a
    Pi-system on sorted projective nodes, read off their view as the walk
    reads a Pi-subset: each component is classified once.  NotPiSystem,
    naming what is defined, for any other set."""
    view = _NodeView(sysm, nodes)
    comps, multiset = view.split(view.every)
    if multiset is None:
        raise NotPiSystem(f"{what} are defined for Pi-systems")
    d2, d3, width = view.dcounts(view.every)
    parts, ttext = view.type_of(multiset)
    counts = (d2, d3, width.bit_count())
    if not _needs_moset(sysm, parts, ttext, counts):
        return ttext, counts, None
    return ttext, counts, _moset_tag(sysm, ttext, view.moset(comps))


def _needs_moset(sysm: RootSystem, parts, ttext: str | None, counts) -> bool:
    """Whether the label of a Pi-system with component shapes parts, type
    text ttext and D counts (d2, d3, width) depends on its perfect moset:
    in E7 and E8 when the type is special, in a D system when the set is
    thin, of full width and all its components are of type A with odd
    rank (the set is then distinguished)."""
    if sysm.series == "D":
        d2, _, width = counts
        return d2 == 0 and width == sysm.rank and all(
            p.series == "A" and p.rank % 2 == 1 for p in parts
        )
    return ttext in _SPECIAL.get(sysm.name, ())


def _moset_tag(sysm: RootSystem, ttext: str, core) -> tuple:
    """The label data read off the perfect moset core of a Pi-system of
    type ttext for which _needs_moset holds: (side,) in a D system, the
    parity of the number of its sum-form members (dn_tag), and (charge,
    parity) in E7 and E8."""
    if sysm.series == "D":
        return (sum(1 for i in core if _sum_form(sysm.roots[i])) % 2,)
    charge, expected = len(core), _SPECIAL[sysm.name][ttext]
    if charge != expected:
        raise InvariantViolation(
            f"{ttext} in {sysm.name} has charge {charge}, expected {expected}"
        )
    return (charge, _half_sum_parity(sysm, core))


def _label_of(sysm: RootSystem, ttext: str, counts, tag) -> OrbitLabel:
    """The orbit label of a Pi-system of type ttext: counts is its (d2, d3,
    width) when sysm is a D system, tag its _moset_tag when _needs_moset
    holds and None otherwise.  orbit_label and the walk over Pi-subsets
    both label here."""
    if tag is not None:
        label = OrbitLabel(sysm.name, ttext, "dn_dist" if sysm.series == "D" else "ep", tag)
    elif sysm.series == "D":
        label = OrbitLabel(sysm.name, ttext, "dn", counts[:2])
    else:
        label = OrbitLabel(sysm.name, ttext, "plain", ())
    return _interned(sysm, label)


@system_memo
def _interned(system: RootSystem, label: OrbitLabel) -> OrbitLabel:
    """The system's one copy of an equal label: orbit_label and the walk
    over Pi-subsets give one object per orbit, such as E8's 76."""
    return label


def are_conjugate(rs1: RootSet, rs2: RootSet) -> bool:
    """Weyl conjugacy of two Pi-systems, decided by orbit label equality."""
    if rs1.system is not rs2.system:
        raise MixedAmbient("conjugacy is decided inside one root system")
    return orbit_label(rs1) == orbit_label(rs2)


# -- constructive conjugation of orthogonal sets into the moset ----------------


def weyl_into_moset(system: RootSystem, subset) -> tuple[tuple[int, ...], dict]:
    """A reflection word moving an orthogonal set into the model moset.

    Returns (word, mapping); the word lists roots whose reflections,
    applied first to last, realize the mapping projectively.  Built by
    placing one element at a time inside the subsystem orthogonal to the
    already placed targets, walking roots with reflections.  That scope
    is an int mask over the positive roots (`rootsystem.cartan_links`).
    A step's reflections are in scope roots, orthogonal to every placed
    target, so they fix the placed images and only the others are moved.
    """
    nodes = system.projective(system.check_indices(subset))
    if not orthogonal(system, nodes):
        raise NotOrthogonal("only orthogonal sets can enter the moset")
    links = cartan_links(system)
    moset = _moset_mask(system)
    proj = system.proj_rep
    scope = positive_mask(system)
    word: list[int] = []
    images = list(nodes)
    for k in range(len(nodes)):
        targets = moset & scope
        target = proj(images[k])
        if not targets >> target & 1:
            step_word = _walk_to(system, scope, images[k])
            word.extend(step_word)
            images[k:] = [_apply(system, step_word, img) for img in images[k:]]
            target = proj(images[k])
            if not targets >> target & 1:
                raise InvariantViolation("walk landed outside the moset targets")
        scope &= ~links[target]
    return tuple(word), {n: proj(img) for n, img in zip(nodes, images)}


@system_memo
def _moset_mask(system: RootSystem) -> int:
    """Int mask of the model moset's members: the enhanced basis's moset,
    which the core group model is built on, read without building it."""
    return sum(1 << m for m in enhanced_basis(system).moset)


@system_memo
def _walk_to(system: RootSystem, scope: int, start: int) -> tuple[int, ...]:
    """Breadth-first walk from a root to any model moset member in scope by
    reflections in the positive roots of scope; returns the word.  Each
    root is reflected only in the scope roots not orthogonal to it, lowest
    first: the generators of its component of scope that move it.  The
    targets are fixed by scope, since weyl_into_moset drops each placed
    target from it, so the word depends on (scope, start) alone."""
    links = cartan_links(system)
    targets = _moset_mask(system) & scope
    proj = system.proj_rep
    parents: dict[int, tuple[int, int] | None] = {start: None}
    frontier = [start]
    while frontier:
        new = []
        for cur in frontier:
            for g in _bits(links[cur] & scope):
                nxt = system.reflect(cur, g)
                if nxt in parents:
                    continue
                parents[nxt] = (cur, g)
                if targets >> proj(nxt) & 1:
                    word = []
                    while parents[nxt] is not None:
                        nxt, g = parents[nxt]
                        word.append(g)
                    return tuple(reversed(word))
                new.append(nxt)
        frontier = new
    raise InvariantViolation("no moset target is reachable inside the scope")


def _apply(system: RootSystem, word, root: int) -> int:
    """Image of a root under the reflections of word, first entry applied
    first."""
    for j in word:
        root = system.reflect(root, j)
    return root


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
    nodes = system.projective(system.check_indices(subset))
    if not orthogonal(system, nodes):
        raise NotOrthogonal("parity is defined for orthogonal sets")
    if len(nodes) not in SPECIAL_SIZES[system.rank]:
        raise Unsupported(
            f"parity is not an orbit invariant of {len(nodes)}-sets in {system.name}"
        )
    return _half_sum_parity(system, nodes)


def _half_sum_parity(system: RootSystem, nodes) -> int:
    """parity_of_orthogonal of projective nodes already known to form an
    orthogonal set of a special size."""
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
    comp_rows = _projective_rows(system, comp_nodes)
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
        if len(model_eb.nodes) != count:
            continue
        model_rows = _projective_rows(model_eb.system, tuple(sorted(model_eb.nodes)))
        for emb in _embeddings(model_rows, comp_rows):
            if {emb[n] for n in model_eb.moset} == m_set & set(comp_nodes):
                return model_eb, emb
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
    if not orthogonal(sysm, nodes):
        raise NotOrthogonal("moset embeddings take orthogonal subsets")
    m_set = set(eb.moset)
    inside = [n for n in nodes if n in m_set]
    outside = [n for n in nodes if n not in m_set]
    mapping = {n: n for n in inside}
    if not outside:
        return mapping
    scope = orthogonal_complement(sysm, tuple(inside), eb.nodes)
    for comp in components(sysm, scope):
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


class _EmbeddingMap(NamedTuple):
    system: RootSystem
    mapping: dict  # node -> node, canonical projective representatives


class EmbeddingMap(_EmbeddingMap):
    """A pairing-preserving assignment between projective root sets: a
    root and its negative share one image, and the map is kept on the
    canonical representatives."""

    __slots__ = ()

    def __new__(cls, system: RootSystem, mapping):
        keys = system.check_indices(mapping)
        values = system.check_indices(mapping.values())
        fixed: dict = {}
        for k, v in zip(keys, values):
            v = system.proj_rep(v)
            # A root and its negative are one projective root: one image.
            if fixed.setdefault(system.proj_rep(k), v) != v:
                raise NotEmbedding(f"root {k} and its negative are given different images")
        src = sorted(fixed)
        for a, b in combinations(src, 2):
            if abs(system.cartan(a, b)) != abs(system.cartan(fixed[a], fixed[b])):
                raise NotEmbedding("map does not preserve absolute pairings")
        if len({fixed[a] for a in src}) != len(src):
            raise NotEmbedding("map is not injective")
        return tuple.__new__(cls, (system, fixed))

    @property
    def source(self) -> tuple[int, ...]:
        return tuple(sorted(self.mapping))


class WeylDecision(NamedTuple):
    is_weyl: bool
    mode: str
    witness_word: tuple[int, ...] | None = None
    reason: str | None = None

    def witness_perm(self, system: RootSystem) -> bytes:
        if self.witness_word is None:
            raise Unsupported("the decision carries no witness word")
        return perm_from_word(system, self.witness_word)


def _reduction_schedule(view: _NodeView, core) -> list:
    """Deletion order (a, e) peeling the view's nodes down to their perfect
    moset core: at each step a is the unique neighbor of an end e that lies
    in the core, and a is removed."""
    nodes, adj = view.nodes, view.adj
    keep = sum(1 << view.position[c] for c in core)
    current, out = view.every, []
    while current != keep:
        for e in _bits(current & keep):
            near = adj[e] & current
            if near & (near - 1) == 0 and near & ~keep:
                break
        else:
            raise InvariantViolation("reduction stalled before the perfect moset")
        current &= ~near
        out.append((nodes[near.bit_length() - 1], nodes[e]))
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
    view = _NodeView(sysm, emb.source)
    comps, multiset = view.split(view.every)
    if multiset is None:
        raise NotPiSystem("Weyl membership is decided for Pi-system domains")
    model = core_group_model(sysm)
    core = view.moset(comps)
    schedule = _reduction_schedule(view, core)
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
    for a, e in reversed(schedule):
        # The word's preimage of f(a): the reversed word carries it back.
        g_img = _apply(sysm, word[::-1], emb.mapping[a])
        if sysm.proj_rep(g_img) == sysm.proj_rep(a):
            continue
        if sysm.cartan(a, g_img) == 0:
            gamma = _join_root(sysm, a, sysm.reflect(g_img, e))
            extra = (gamma, sysm.proj_rep(e))
        else:
            gamma = _join_root(sysm, a, g_img)
            extra = (gamma,)
        word = extra + word
    for n in emb.source:
        if sysm.proj_rep(_apply(sysm, word, n)) != emb.mapping[n]:
            raise InvariantViolation(f"witness word does not replay on node {n}")
    return WeylDecision(True, "constructive", word, None)


def _join_root(system: RootSystem, a: int, b: int) -> int:
    """Root gamma with s_gamma swapping the projective roots of a and b,
    fixing everything orthogonal to both: gamma = s_a(b) = b - <b|a> a,
    which is a + b, or -(a - b), as the pairing is -1 or 1."""
    c = system.cartan(a, b)
    if c not in (1, -1):
        # s_a(b) would be a itself for b = +-a, and b for orthogonal roots.
        raise InvariantViolation(f"roots {a} and {b} pair to {c}, not +-1")
    return system.proj_rep(system.reflect(b, a))


# -- orbit enumeration over the enhanced diagram --------------------------------


class _Closed(Exception):
    """Raised by a visitor of _PiWalk.run to end the walk."""


class _PiWalk(_NodeView):
    """The depth-first walk over the Pi-subsets of the enhanced diagram, the
    only one, with the state that labels them, on the view of the diagram's
    sorted nodes.

    Pi-ness is closed under taking subsets, so growth over sorted nodes
    that stops at each candidate that is not a Pi-system visits exactly the
    family, in lexicographic order.  The walk keeps the components of a
    subset as int masks.  A new node merges exactly the components it
    touches, so only the merged one is classified, once per component mask,
    and one that is not plain ADE prunes the candidate.  In a D system the
    tag counts grow along by dstep.

    A label depends only on the key (shape multiset, d2, d3, full width),
    and on the perfect moset when _needs_moset holds, so each such key is
    labelled once.  index maps the labels met so far to their codes, which
    count up in order of appearance.  The descent (_descent) places each
    highest root off the diagram on the same view, after the diagram's
    size nodes, so every Pi-system it labels is a mask here; the walk
    grows subsets over the first size positions only.
    """

    def __init__(self, system: RootSystem):
        super().__init__(system, sorted(enhanced_basis(system).nodes))
        self.size = len(self.nodes)
        # key -> label code, or -1 when the label needs the moset; such a key
        # is then looked up again with its moset tag.
        self.found: dict[tuple, int] = {}
        self.index: dict[OrbitLabel, int] = {}
        # mask -> (its component masks, their shape multiset): the descent
        # splits one mask again for each parent it is a child's part of.
        self.splits: dict[int, tuple[list[int], int]] = {}

    def label_code(self, key: tuple, width: int, tag) -> int:
        """Code of the label of a first-seen key, or -1 when tag is None and
        the label needs the moset."""
        multiset, d2, d3, _ = key
        parts, ttext = self.type_of(multiset)
        counts = (d2, d3, width.bit_count())
        if tag is None and _needs_moset(self.system, parts, ttext, counts):
            return -1
        index = self.index
        return index.setdefault(_label_of(self.system, ttext, counts, tag), len(index))

    def code(self, key: tuple, comps, width: int) -> int:
        """Code of the label of a Pi-subset with key key, component masks
        comps and coordinate support width."""
        found = self.found
        code = found.get(key)
        if code is None:
            code = found[key] = self.label_code(key, width, None)
        if code < 0:
            tag = _moset_tag(self.system, self.types[key[0]][1], self.moset(comps))
            code = found.get((key, tag))
            if code is None:
                code = found[key, tag] = self.label_code(key, width, tag)
        return code

    def run(self, visit, more=None) -> None:
        """Walk the Pi-subsets in lexicographic order, calling
        visit(mask, code, comps, multiset, d2, d3, width) on each, until the
        walk ends or visit raises _Closed.  With more, the walk grows a
        subset whose label has code code only while more(code) holds;
        without it, every subset."""
        n, adj, support, full = self.size, self.adj, self.support, self.full
        weights, shapes, found = self.weights, self.shapes, self.found
        shape, dstep, code_of, tagged = self.shape, self.dstep, self.code, self.tagged

        def grow(mask, comps, multiset, d2, d3, width, start):
            for k in range(start, n):
                near = adj[k]
                merged, rest, child_set = 1 << k, [], multiset
                for comp in comps:
                    if comp & near:
                        merged |= comp
                        child_set -= weights[shapes[comp]]
                    else:
                        rest.append(comp)
                kind = shapes.get(merged, -1)
                if kind == -1:
                    kind = shape(merged)
                if kind is None:
                    continue
                rest.append(merged)
                child_set += weights[kind]
                c2, c3 = d2, d3
                if tagged:
                    s2, s3 = dstep(k, mask)
                    c2 += s2
                    c3 += s3
                cwidth = width | support[k]
                key = (child_set, c2, c3, cwidth == full)
                code = found.get(key)
                if code is None or code < 0:
                    code = code_of(key, rest, cwidth)
                child = mask | 1 << k
                visit(child, code, rest, child_set, c2, c3, cwidth)
                if more is None or more(code):
                    grow(child, rest, child_set, c2, c3, cwidth, k + 1)

        try:
            grow(0, [], 0, 0, 0, 0, 0)
        except _Closed:
            pass
        finally:
            # grow refers to itself through its closure: break that cycle,
            # so its frames go now rather than at the next cyclic collection.
            del grow

    def child_codes(self, mask: int, comps, multiset: int, d2: int, d3: int, width: int, counts: list) -> list:
        """The maximal children (_maximal_children) of the Pi-subset mask,
        whose walk state is comps, multiset, d2, d3 and width, as (code,
        child mask) pairs; theta is placed on the view when it is not on it.

        Each child is keyed from its parent: only the component of x is
        split again, x's dstep is taken off and theta's put on.  counts
        gathers the Levi children and the extended ones, in that order."""
        support = self.support
        # width without x: the coordinates that x alone covers go.
        once = twice = 0
        for i in _bits(mask):
            twice |= once & support[i]
            once |= support[i]
        out: list = []
        for comp in comps:
            theta, marks = self.highest(comp)
            others = [c for c in comps if c != comp]
            base = multiset - self.weights[self.shapes[comp]]
            for x, mark in zip(_bits(comp), marks):
                parent = mask & ~(1 << x)
                s2, s3 = self.dstep(x, parent)
                pwidth = width & ~(support[x] & ~twice)
                if parent:
                    counts[0] += 1
                    code = self._child_code(others, base, comp & ~(1 << x), d2 - s2, d3 - s3, pwidth)
                    out.append((code, parent))
                if mark < 2:
                    continue
                counts[1] += 1
                at = self.place(theta)
                t2, t3 = self.dstep(at, parent)
                rest = comp & ~(1 << x) | 1 << at
                code = self._child_code(others, base, rest, d2 - s2 + t2, d3 - s3 + t3, pwidth | support[at])
                out.append((code, parent | 1 << at))
        return out

    def _child_code(self, others, base: int, rest: int, d2: int, d3: int, width: int) -> int:
        """Code of the child whose components are others and those of the
        mask rest, and whose multiset is base plus the shapes of the
        latter.  rest is split into components once (splits)."""
        split = self.splits.get(rest)
        if split is None:
            pieces = _component_masks(rest, self.adj)
            split = self.splits[rest] = (pieces, sum(self.weights[self.shape(p)] for p in pieces))
        pieces, multiset = split
        return self.code((base + multiset, d2, d3, width == self.full), others + pieces, width)


def pi_node_subsets(eb: EnhancedBasis) -> list[tuple[int, ...]]:
    """All node subsets of the enhanced diagram that are Pi-systems, in
    depth-first (lexicographic) order, as a list of the caller's own.

    The walk is the system's own: the completion is canonical, so every
    enhanced basis of the system has the walk's nodes.
    """
    walk = _PiWalk(eb.system)
    nodes, subsets = walk.nodes, []
    walk.run(lambda mask, *_: subsets.append(_mask_nodes(nodes, mask)))
    return subsets


class _Orbits(NamedTuple):
    """The Weyl orbits of nonempty Pi-systems, found by _orbits.

    index maps each label to its code; first[c] is the least Pi-subset
    (an int mask over nodes, the enhanced diagram's sorted nodes) with the
    label of code c.  below[c] is the bitset over codes of the labels of
    c's maximal children in the descent, c itself left out, and lower[c]
    the bitset of the labels of every Pi-system inside the subsystem c's
    representative generates: the closure of below, c included.  Every
    label strictly below c is thus reached from c by a path of children,
    which is what hasse_diagram reads its covers off.  visited counts the
    subsets the walk visited, children the maximal children of the descent
    (Levi and extended).
    """

    nodes: tuple[int, ...]
    index: dict
    first: list[int]
    below: list[int]
    lower: list[int]
    visited: int
    children: tuple[int, int]

    @property
    def orbits(self) -> list[OrbitLabel]:
        return list(self.index)


def _descent(walk: _PiWalk) -> tuple[list[int], tuple[int, int]]:
    """The descent of _orbits on the walk's index: (below, children), where
    below[c] is the bitset of the codes of the maximal children of label c
    other than c and children counts the children by kind
    (_PiWalk.child_codes).  A label's representative is the first child
    mask that carried it, read on the walk's own tables."""
    system = walk.system
    reps = [sum(1 << walk.place(v) for v in system.projective(system.simple_basis))]
    below: list[int] = []
    counts = [0, 0]
    while len(below) < len(reps):
        code, mask = len(below), reps[len(below)]
        comps, multiset = walk.split(mask)
        d2, d3, width = walk.dcounts(mask)
        if walk.code((multiset, d2, d3, width == walk.full), comps, width) != code:
            raise InvariantViolation(f"a representative in {system.name} has another label than its own")
        bits = 0
        for c, child in walk.child_codes(mask, comps, multiset, d2, d3, width, counts):
            if c == len(reps):  # codes count up in order of appearance
                reps.append(child)
            bits |= 1 << c
        below.append(bits & ~(1 << code))
    return below, tuple(counts)


def _first_subsets(walk: _PiWalk, below: list[int]) -> tuple[list[int], int]:
    """The first subset the walk meets with each label of the descent, and
    the number of subsets it visits: it grows a subset of label c only
    while a label not met yet lies above c (by below; visit has met c
    itself by then), and stops when every label is met."""
    system, n = walk.system, len(below)
    parents = [0] * n
    for p, children in enumerate(below):
        for c in _bits(children):
            parents[c] |= 1 << p
    upper = _lower_bits(parents)
    first = [0] * n
    pending, visited = (1 << n) - 1, 0

    def visit(mask, code, *_):
        nonlocal pending, visited
        visited += 1
        if code >= n:
            raise InvariantViolation(
                f"the walk over {system.name} meets {list(walk.index)[code].render()},"
                " which the descent from the simple basis does not reach"
            )
        if pending >> code & 1:
            first[code] = mask
            pending ^= 1 << code
            if not pending:
                raise _Closed

    walk.run(visit, lambda code: pending & upper[code])
    if pending:
        missing = list(walk.index)[(pending & -pending).bit_length() - 1].render()
        raise InvariantViolation(
            f"no Pi-subset of the enhanced diagram of {system.name} has the label {missing}"
        )
    return first, visited


@system_memo
def _orbits(system: RootSystem) -> _Orbits:
    """Every orbit with its least representative and lower set, in two
    passes on the enhanced diagram's walk state.

    The descent (_descent) starts from the simple basis, which generates
    the whole system, and labels the maximal children (_maximal_children)
    of one representative of each label.  Every proper subsystem lies in a
    maximal one, so the descent reaches every orbit, and each lower set is
    the label itself and the lower sets of its children.

    The walk (_first_subsets) then finds each label's first subset, its
    least representative, as the walk's order is lexicographic.  It grows
    a subset of label c only while some pending label (first subset not
    met yet) lies above c, and stops when no label is pending.  No first
    subset is lost: let R be the least representative of a pending label
    p.  Every proper prefix P of R in sorted order is a Pi-system inside
    the subsystem R generates, of smaller rank, so its label lies below p
    and is not p; the walk reaches R through its prefixes and grows each
    of them.

    Every Pi-system is conjugate to a subset of the enhanced diagram (the
    paper's main claim), so a label that the descent reaches and the walk
    never meets is an InvariantViolation, and so is a label that the walk
    meets and the descent does not reach.
    """
    walk = _PiWalk(system)
    below, children = _descent(walk)
    first, visited = _first_subsets(walk, below)
    return _Orbits(tuple(walk.nodes[: walk.size]), walk.index, first, below, _lower_bits(below), visited, children)


@system_memo
def _ranked(system: RootSystem) -> list[int]:
    """The codes of _orbits in the order of their labels, sorted once by
    the tuple that OrbitLabel's own order compares."""
    orbits = _orbits(system).orbits
    keys = [(l.ambient, l.type_text, l.kind, l.data) for l in orbits]
    return sorted(range(len(keys)), key=keys.__getitem__)


@system_memo
def enumerate_pi_orbits(system: RootSystem) -> tuple[tuple[OrbitLabel, tuple[int, ...]], ...]:
    """All Weyl orbits of nonempty Pi-systems in label order, each with its
    least representative inside the enhanced basis: the first that the
    walk, whose depth-first order is lexicographic, meets."""
    found = _orbits(system)
    orbits = found.orbits
    return tuple((orbits[c], _mask_nodes(found.nodes, found.first[c])) for c in _ranked(system))


# -- order between orbits --------------------------------------------------------


def _maximal_children(system: RootSystem, nodes: tuple[int, ...]):
    """Proper subsystems of the subsystem that a Pi-system on projective
    nodes generates, among them a conjugate of every maximal one, as
    Pi-systems: (x, None) for the Levi child, the nodes without x, and
    (x, theta) for the extended child, the nodes without x and with theta,
    the projective highest root of x's component.  The Levi child of a
    single node, the empty set, is left out.

    Every proper subsystem lies in a maximal one, and a subsystem of a
    product is a product of subsystems of the factors.  A maximal closed
    subsystem of an irreducible system is W-conjugate to a Levi subsystem
    or to the extended diagram minus a node (Borel and de Siebenthal, 1949;
    Dynkin, Semisimple subalgebras of semisimple Lie algebras, 1952), and
    in a simply laced system every subsystem is closed.  Removing a node of
    mark 1 from the extended diagram gives back a basis of the whole
    component, and removing one of a larger mark gives a proper subsystem
    (a maximal one when the mark is prime), so the extended child is given
    for marks of 2 or more; every node of a component of type A has mark 1.
    The marks are read off the nodes' view (_NodeView.highest), whose signs
    make tree neighbours pair to -1: the basis the marks refer to.
    _PiWalk.child_codes gives the same children on the walk's view.
    """
    view = _NodeView(system, nodes)
    for comp in view.split(view.every)[0]:
        theta, marks = view.highest(comp)
        for x, mark in zip(_bits(comp), marks):
            if len(nodes) > 1:
                yield nodes[x], None
            if mark > 1:
                yield nodes[x], theta


def _lower_bits(children: list[int]) -> list[int]:
    """lower[i]: the bitset of i and of everything below it, where the
    bitset children[i] holds what lies directly below i.  The relation
    points strictly down, so the recursion ends; its depth is the longest
    chain."""
    lower = [0] * len(children)

    def visit(i: int) -> int:
        if not lower[i]:
            bits = 1 << i
            for k in _bits(children[i]):
                bits |= visit(k)
            lower[i] = bits
        return lower[i]

    for i in range(len(children)):
        visit(i)
    del visit  # it refers to itself through its closure
    return lower


def order_between_orbits(l1: OrbitLabel, l2: OrbitLabel, system: RootSystem) -> bool:
    """True iff a member of orbit l1 is contained in the subsystem
    generated by a member of orbit l2 (reflexive by convention)."""
    low, high = _orbit_codes(system, (l1, l2))
    return _orbits(system).lower[high] >> low & 1 == 1


def _orbit_codes(system: RootSystem, labels) -> list[int]:
    """The codes of orbit labels in _orbits; NotPiSystem for a label of
    system that no Pi-system of it carries."""
    if any(l.ambient != system.name for l in labels):
        raise MixedAmbient("orbit labels come from different ambient systems")
    index = _orbits(system).index
    missing = [l.render() for l in labels if l not in index]
    if missing:
        raise NotPiSystem(f"no Pi-system of {system.name} has the label {missing[0]}")
    return [index[l] for l in labels]


class HasseDiagram(NamedTuple):
    """Cover relations of the orbit order: an edge u -> v means v < u."""

    system_name: str
    labels: tuple[OrbitLabel, ...]
    edges: tuple[tuple[OrbitLabel, OrbitLabel], ...]

    def to_json(self) -> dict:
        name = {l: l.render() for l in self.labels}
        return {
            "schema": "rootforge/1",
            "system": self.system_name,
            "orbits": list(name.values()),
            "edges": [[name[a], name[b]] for a, b in self.edges],
        }

    def to_dot(self) -> str:
        nodes = [f'  "{l.render()}";' for l in self.labels]
        edges = [f'  "{a.render()}" -> "{b.render()}";' for a, b in self.edges]
        return "\n".join(["digraph orbit_order {", *nodes, *edges, "}"]) + "\n"


def hasse_diagram(system: RootSystem, labels=None) -> HasseDiagram:
    """Transitive reduction of the orbit order over the given labels
    (default: all orbits), labels and edges in label order.

    The covers are read off the descent's children (_Orbits.below), as
    bitsets over the codes of _orbits, one way for every label set.  With L
    the chosen labels, the frontier F(c) of a label c is the OR over its
    children k of k itself when k is in L and of F(k) otherwise: the first
    labels of L on the paths of children down from c.  F(u) holds only
    labels of L below u.  It holds every cover v of u: lower is the closure
    of below, so a path of children leads from u down to v, and the first
    label of L on it lies between v and u, so it is v, as nothing of L lies
    strictly between.  The covers of u are thus F(u) less the labels
    strictly below a member of F(u).  For the full set F(u) is u's
    children.  Labels are ranked once (_ranked) and each label's covers
    are emitted in rank order, so the edges come out sorted.
    """
    found = _orbits(system)
    below, lower, orbits = found.below, found.lower, found.orbits
    rank = _ranked(system)
    if labels is None:
        codes = rank
    else:
        wanted = set(_orbit_codes(system, list(labels)))
        codes = [c for c in rank if c in wanted]
    chosen = sum(1 << c for c in codes)
    frontier: dict[int, int] = {}

    def front(c: int) -> int:
        bits = frontier.get(c)
        if bits is None:
            bits = 0
            for k in _bits(below[c]):
                bits |= 1 << k if chosen >> k & 1 else front(k)
            frontier[c] = bits
        return bits

    position = [0] * len(rank)
    for i, c in enumerate(rank):
        position[c] = i
    edges = []
    for u in codes:
        near = front(u)
        covered = 0
        for f in _bits(near):
            covered |= lower[f] ^ 1 << f
        upper = orbits[u]
        edges.extend((upper, orbits[v]) for v in sorted(_bits(near & ~covered), key=position.__getitem__))
    del front  # it refers to itself through its closure
    return HasseDiagram(system.name, tuple(orbits[c] for c in codes), tuple(edges))
