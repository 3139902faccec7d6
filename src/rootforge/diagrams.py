"""Diagrams of root sets, ADE shape recognition and graph isomorphism.

Two diagram kinds appear: the plain diagram of a root set (single bonds
between non-orthogonal non-opposite roots, quadruple bonds between a root
and its negative) and the projective diagram obtained after identifying
each root with its negative.  Both are small labeled graphs, kept as
frozenset objects for callers and DOT export.  Shape recognition and the
searches read either kind once, into int-mask bond rows (_rows): one
backtracking embedding search (_embeddings) compares masks, bond
multiplicity included, and backs subdiagram search, isomorphism,
automorphism groups and classify's match of a component with its model
enhanced diagram.  A node set of a root system is read through its own
int-mask view (_NodeView).
"""

from __future__ import annotations

from itertools import combinations, groupby
from typing import NamedTuple

from .errors import NotIrreducible, NotPiSystem, TooLarge, UnrecognizedComponent
from .rootsystem import (
    RootSet,
    RootSystem,
    _adjacency,
    _bits,
    _component_masks,
    _highest_root,
    _support_masks,
    components,
    subsystem_basis,
)

MAX_NODES = 64


class Diagram(NamedTuple):
    """Multigraph on opaque node ids with bond multiplicities in {1, 4}."""

    nodes: tuple
    bonds: frozenset  # of (frozenset({a, b}), multiplicity)

    def multiplicity(self, a, b) -> int:
        key = frozenset((a, b))
        return next((m for pair, m in self.bonds if pair == key), 0)


class ProjectiveDiagram(NamedTuple):
    """Simple graph on projective-root ids; a bond joins non-orthogonal roots."""

    nodes: tuple
    adjacency: frozenset  # of frozenset({a, b})

    def adjacent(self, a, b) -> bool:
        return frozenset((a, b)) in self.adjacency

    def induced(self, nodes) -> "ProjectiveDiagram":
        ns = set(nodes)
        adj = frozenset(p for p in self.adjacency if p <= ns)
        return ProjectiveDiagram(tuple(sorted(ns, key=_node_key)), adj)


def _node_key(x):
    return (0, x) if isinstance(x, int) else (1, str(x))


class Irreducible(NamedTuple):
    """One irreducible diagram shape: series, rank and an extended flag."""

    series: str
    rank: int
    extended: bool = False

    def render(self) -> str:
        return f"{self.series}{'~' if self.extended else ''}{self.rank}"


class _TypeLabel(NamedTuple):
    parts: tuple[Irreducible, ...]


class TypeLabel(_TypeLabel):
    """Multiset of irreducible shapes with a canonical rendering: the parts
    are sorted by falling rank, then series, then the extended flag."""

    __slots__ = ()

    def __new__(cls, parts):
        return tuple.__new__(cls, (tuple(sorted(parts, key=lambda p: (-p.rank, p.series, p.extended))),))

    def render(self) -> str:
        runs = [(part.render(), len(list(equal))) for part, equal in groupby(self.parts)]
        return "+".join(text if n == 1 else f"{n}{text}" for text, n in runs) or "0"

    def __str__(self) -> str:  # pragma: no cover
        return self.render()


def type_label(*parts: tuple[str, int] | Irreducible) -> TypeLabel:
    return TypeLabel(Irreducible(*p) for p in parts)


# -- building diagrams ----------------------------------------------------


def gamma_diagram(rs: RootSet) -> Diagram:
    sysm, nodes = rs.system, rs.members
    # Each bond is met from both ends; the frozenset keeps it once.
    bonds = frozenset(
        (frozenset((a, nodes[j])), 4 if sysm.negative(a) == nodes[j] else 1)
        for a, row in zip(nodes, _adjacency(sysm, nodes))
        for j in _bits(row)
    )
    return Diagram(tuple(nodes), bonds)


def delta_diagram(rs: RootSet) -> ProjectiveDiagram:
    sysm = rs.system
    nodes = sysm.projective(rs.members)
    adj = frozenset(
        frozenset((a, nodes[j]))
        for a, row in zip(nodes, _adjacency(sysm, nodes))
        for j in _bits(row)
    )
    return ProjectiveDiagram(nodes, adj)


def projective_diagram_of(system: RootSystem, nodes: tuple[int, ...]) -> ProjectiveDiagram:
    return delta_diagram(RootSet(system, nodes))


class _Rows(NamedTuple):
    """A diagram on positions: bit j of adj[i] is set when nodes[i] and
    nodes[j] are bonded, and of quad[i] when that bond is quadruple."""

    nodes: tuple
    adj: list[int]
    quad: list[int]


def _rows(d: Diagram | ProjectiveDiagram) -> _Rows:
    """The bond rows of either diagram kind, on the positions of d.nodes:
    the one reader of its bonds for shape recognition and the searches."""
    pos = {n: i for i, n in enumerate(d.nodes)}
    bonds = d.bonds if isinstance(d, Diagram) else [(p, 1) for p in d.adjacency]
    adj, quad = [0] * len(pos), [0] * len(pos)
    for pair, m in bonds:
        a, b = (pos[x] for x in pair)
        adj[a] |= 1 << b
        adj[b] |= 1 << a
        if m == 4:
            quad[a] |= 1 << b
            quad[b] |= 1 << a
    return _Rows(tuple(d.nodes), adj, quad)


def _projective_rows(system: RootSystem, nodes: tuple[int, ...]) -> _Rows:
    """The rows of the projective diagram on nodes (canonical projective
    representatives) in their given order: rootsystem._adjacency, and no
    quadruple bond."""
    return _Rows(nodes, _adjacency(system, nodes), [0] * len(nodes))


# -- shape recognition -----------------------------------------------------


def _tree_parity(comp: int, adj, flip) -> int:
    """Int mask of the positions of a tree component comp at odd parity
    from its lowest position, where the parity changes across the edge from
    position i to j exactly when bit j of flip[i] is set; adj[i] is the int
    mask of the neighbours of position i.  With flip = adj the two parities
    are the colour classes."""
    odd = 0
    seen = frontier = comp & -comp
    while frontier:
        grown = 0
        for i in _bits(frontier):
            new = adj[i] & comp & ~seen
            odd |= new & ~flip[i] if odd >> i & 1 else new & flip[i]
            seen |= new
            grown |= new
        frontier = grown
    return odd


def classify_components(d: Diagram | ProjectiveDiagram) -> TypeLabel:
    """Recognize every connected component as an ADE or extended ADE shape."""
    return TypeLabel(tuple(_parts(d)))


def _parts(d: Diagram | ProjectiveDiagram) -> list[Irreducible]:
    """The shape of each component of d; UnrecognizedComponent for any
    that is not ADE or extended ADE."""
    _, adj, quad = _rows(d)
    quads = sum(1 << i for i, row in enumerate(quad) if row)
    return [_classify_one(comp, adj, quads) for comp in _component_masks((1 << len(adj)) - 1, adj)]


_BRANCHED = {
    (1, 2, 2): Irreducible("E", 6),
    (1, 2, 3): Irreducible("E", 7),
    (1, 2, 4): Irreducible("E", 8),
    (2, 2, 2): Irreducible("E", 6, extended=True),
    (1, 3, 3): Irreducible("E", 7, extended=True),
    (1, 2, 5): Irreducible("E", 8, extended=True),
}


def _classify_one(comp: int, adj, quads: int = 0) -> Irreducible:
    """Shape of a connected component, the one ADE recognizer.

    comp is an int mask over node positions, adj[i] the int mask of the
    neighbours of position i (it may reach outside comp) and quads the
    mask of positions on a quadruple bond.  Raises UnrecognizedComponent
    unless the shape is ADE or extended ADE.
    """
    n = comp.bit_count()
    if comp & quads:
        # Both ends of a quadruple bond are adjacent, so a two-node
        # component holding one is that bond alone.
        if n == 2:
            return Irreducible("A", 1, extended=True)
        raise UnrecognizedComponent("quadruple bond inside a larger component")
    degs = []
    rest = comp
    while rest:
        low = rest & -rest
        degs.append((adj[low.bit_length() - 1] & comp).bit_count())
        rest ^= low
    edges, top = sum(degs) // 2, max(degs)
    if edges == n and n >= 3 and top == 2:
        return Irreducible("A", n - 1, extended=True)
    if edges != n - 1:
        raise UnrecognizedComponent(f"component with {n} nodes and {edges} bonds")
    # Tree shapes.
    if top <= 2:
        return Irreducible("A", n)
    if top == 4:
        if n == 5:
            return Irreducible("D", 4, extended=True)
        raise UnrecognizedComponent("degree-4 node outside the extended D4 star")
    if top > 4:
        raise UnrecognizedComponent(f"node of degree {top}")
    members = _bits(comp)
    branch = [i for i, deg in zip(members, degs) if deg == 3]
    if len(branch) == 1:
        centre = branch[0]
        arms = []
        for first in _bits(adj[centre] & comp):
            # Past the centre every degree is at most 2, so each step of
            # an arm meets at most one node not yet on it.
            arm, cur = 1 << centre, 1 << first
            while cur:
                arm |= cur
                cur = adj[cur.bit_length() - 1] & comp & ~arm
            arms.append(arm.bit_count() - 1)
        arms.sort()
        if arms[0] == arms[1] == 1:
            return Irreducible("D", n)
        if tuple(arms) in _BRANCHED:
            return _BRANCHED[tuple(arms)]
        raise UnrecognizedComponent(f"branching tree with arms {arms}")
    if len(branch) == 2:
        # Extended D: each branch node carries two leaves.
        leaves = sum(1 << i for i, deg in zip(members, degs) if deg == 1)
        if all((adj[i] & leaves).bit_count() == 2 for i in branch):
            return Irreducible("D", n - 1, extended=True)
    raise UnrecognizedComponent("tree with more than one branching node")


def is_dynkin_shape(d: ProjectiveDiagram) -> bool:
    """True iff every component is a plain (non-extended) ADE diagram."""
    try:
        parts = _parts(d)
    except UnrecognizedComponent:
        return False
    return not any(p.extended for p in parts)


def subsystem_type(system: RootSystem, members) -> TypeLabel:
    """Isomorphism type of a closed subsystem."""
    return _NodeView(system, subsystem_basis(system, system.check_indices(members))).type_label()


# -- the int-mask view of a node set ------------------------------------------


def _mask_nodes(nodes: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """The nodes[i] for the set bits i of mask, in order."""
    return tuple(nodes[i] for i in _bits(mask))


class _NodeView:
    """The projective diagram of projective nodes as int-mask tables: the
    one way a node set is read.  The walk over Pi-subsets
    (classify._PiWalk) is built on it; orbit labels, D tags, perfect mosets,
    Pi-system types and maximal children read their own nodes through it.
    Callers check the indices first (RootSet, RootSystem.check_indices).

    Bit i of a mask stands for nodes[i], position[v] is the position of
    node v, and adj[i] masks the neighbours of position i.  shape
    classifies a component mask once; a shape multiset is an int with one
    count per shape.  In a D system support[i] masks the coordinates
    nodes[i] touches, twin[i] the position on the same coordinate pair,
    and around[k] the thick pairs whose ends both neighbour k: dstep reads
    the tag counts off them.  The view grows one node at a time (place),
    and every table and memo keeps its meaning for the masks over the
    positions already placed.
    """

    def __init__(self, system: RootSystem, nodes):
        self.system = system
        self.nodes: list[int] = []
        self.position: dict[int, int] = {}  # node -> its position
        self.adj: list[int] = []
        self.every = 0  # the mask of every node
        self.tagged = system.series == "D"
        # No tag outside the D series: supports and twins stay 0, so do the counts.
        self.full = (1 << system.rank) - 1 if self.tagged else -1
        self.covers = _support_masks(system) if self.tagged else ()
        self.owners: dict[int, int] = {}  # a support -> the positions with it
        self.support, self.twin, self.around = [], [], []
        # Bits per shape count: the components of a Pi-system span
        # orthogonal subspaces, so it has at most rank of them.
        self.slot = system.rank.bit_length()
        self.kinds: dict = {}  # component shape -> its index, in order of appearance
        self.weights: list[int] = []  # index -> the multiset of one component of that shape
        self.shapes: dict[int, int | None] = {}  # component mask -> index of its shape
        self.types: dict[int, tuple] = {}  # shape multiset -> (its parts, its type text)
        self.tops: dict[int, tuple] = {}  # component mask -> highest(comp)
        for v in nodes:
            self.place(v)

    def place(self, v: int) -> int:
        """The position of projective node v, put after the others when it
        is not in the view yet.

        Placement order cannot change a label.  The shapes, the D counts
        and the projective theta of a node set are functions of the set.
        The perfect moset's tie rule (the class of the lowest position)
        never applies where a label reads it: _needs_moset holds only when
        every component is of type A with odd rank, an odd number of nodes
        whose two colour classes differ in size.
        """
        at = self.position.get(v)
        if at is not None:
            return at
        system, nodes, adj = self.system, self.nodes, self.adj
        at, bit, row = len(nodes), 1 << len(nodes), 0
        for j, u in enumerate(nodes):
            if system.cartan(v, u):
                row |= 1 << j
                adj[j] |= bit
        nodes.append(v)
        adj.append(row)
        self.position[v] = at
        self.every |= bit
        cover = twin = 0
        around = []
        if self.tagged:
            cover, twins = self.covers[v], self.twin
            # A node has at most one twin: the other sign on its coordinate pair.
            twin = self.owners.get(cover, 0)
            self.owners[cover] = twin | bit
            # v is a new common neighbour of each thick pair in its row,
            # taken once from its lower end.
            around = [1 << a | twins[a] for a in _bits(row) if twins[a] & row and twins[a] >> a > 1]
            if twin:
                t = twin.bit_length() - 1
                twins[t] |= bit
                for k in _bits(row & adj[t]):
                    self.around[k].append(twin | bit)
        self.support.append(cover)
        self.twin.append(twin)
        self.around.append(around)
        return at

    def shape(self, comp: int) -> int | None:
        """Index of the shape of a component mask; None unless plain ADE."""
        kind = self.shapes.get(comp, -1)
        if kind == -1:
            try:
                part = _classify_one(comp, self.adj)
            except UnrecognizedComponent:
                part = None
            if part is None or part.extended:
                kind = None
            else:
                kind = self.kinds.setdefault(part, len(self.kinds))
                if kind == len(self.weights):
                    self.weights.append(1 << self.slot * kind)
            self.shapes[comp] = kind
        return kind

    def dstep(self, k: int, mask: int) -> tuple[int, int]:
        """The (d2, d3) that node k adds to the D counts of mask, which does
        not hold k; removing k from mask | 1 << k takes it off again.  Node k
        makes a thick pair with each twin t (same coordinate support) in
        mask, counted in d3 once per common neighbour of k and t, and is a
        new common neighbour of each thick pair around it."""
        d2 = d3 = 0
        for pair in self.around[k]:
            if pair & mask == pair:
                d3 += 1
        twins = self.twin[k] & mask
        if twins:
            adj = self.adj
            near = adj[k]
            for t in _bits(twins):
                d2 += 1
                d3 += (near & adj[t] & mask).bit_count()
        return d2, d3

    def type_label(self) -> TypeLabel:
        """Type of the diagram of every node: the shape of each component,
        extended shapes included; UnrecognizedComponent for any other."""
        comps = _component_masks(self.every, self.adj)
        return TypeLabel(tuple(_classify_one(comp, self.adj) for comp in comps))

    def split(self, mask: int) -> tuple[list[int], int | None]:
        """The component masks of the positions in mask, and their shape
        multiset: None unless every component is plain ADE, that is, unless
        they form a Pi-system."""
        comps = _component_masks(mask, self.adj)
        kinds = [self.shape(comp) for comp in comps]
        return comps, None if None in kinds else sum(self.weights[k] for k in kinds)

    def dcounts(self, mask: int) -> tuple[int, int, int]:
        """(d2, d3, width) of the positions in mask: dstep folded over them
        in order, and the union of their supports; all 0 outside the D
        series."""
        d2 = d3 = width = 0
        for k in _bits(mask) if self.tagged else ():
            s2, s3 = self.dstep(k, mask & ((1 << k) - 1))
            d2 += s2
            d3 += s3
            width |= self.support[k]
        return d2, d3, width

    def moset(self, comps) -> tuple[int, ...]:
        """The nodes of the perfect moset of a Pi-subset with component
        masks comps: per component the larger colour class, ties going to
        the class of the lowest position."""
        core = 0
        for comp in comps:
            high = _tree_parity(comp, self.adj, self.adj)
            low = comp & ~high
            core |= low if low.bit_count() >= high.bit_count() else high
        return _mask_nodes(self.nodes, core)

    def type_of(self, multiset: int) -> tuple:
        """(parts, type text) of a shape multiset."""
        types = self.types
        if multiset not in types:
            count = (1 << self.slot) - 1
            ttype = TypeLabel(
                p for p, i in self.kinds.items() for _ in range(multiset >> self.slot * i & count)
            )
            types[multiset] = (ttype.parts, ttype.render())
        return types[multiset]

    def highest(self, comp: int) -> tuple[int, tuple[int, ...]]:
        """(theta, the marks in position order) of a component mask,
        memoised per mask: theta is the projective highest root of the
        subsystem it generates (rootsystem._highest_root), on the
        component's roots with the signs that make tree neighbours pair to
        -1."""
        top = self.tops.get(comp)
        if top is None:
            system, nodes, adj = self.system, self.nodes, self.adj
            # A sign flips across each edge whose ends pair to +1.
            plus = {
                i: sum(1 << j for j in _bits(adj[i]) if system.cartan(nodes[i], nodes[j]) > 0)
                for i in _bits(comp)
            }
            flipped = _tree_parity(comp, adj, plus)
            members = tuple(
                system.negative(nodes[i]) if flipped >> i & 1 else nodes[i] for i in _bits(comp)
            )
            theta, marks = _highest_root(system, members)
            top = self.tops[comp] = (system.proj_rep(theta), marks)
        return top


# -- Pi-systems -------------------------------------------------------------


def is_pi_system(rs: RootSet) -> bool:
    """True iff the set is linearly independent and no difference of two
    members is again a root.

    A difference a - b of two roots is a root exactly when <a|b> = 1, and
    -a pairs to -2 with a, so every pair must pair to 0 or -1.  The Gram
    matrix of such a set is 2I - A for the adjacency matrix A of its
    diagram; it is positive definite, which is linear independence,
    exactly when every component is a plain ADE diagram.
    """
    sysm = rs.system
    if any(sysm.cartan(a, b) not in (0, -1) for a, b in combinations(rs.members, 2)):
        return False
    view = _NodeView(sysm, sysm.projective(rs.members))
    return view.split(view.every)[1] is not None


def minimal_root(rs: RootSet) -> int:
    """Minimal root of the subsystem generated by an irreducible Pi-system,
    with respect to the set itself taken as the basis: the negative of its
    highest root."""
    sysm = rs.system
    if not is_pi_system(rs):
        raise NotPiSystem("minimal root needs a Pi-system")
    if len(components(sysm, rs.members)) != 1:
        raise NotIrreducible("minimal root needs an irreducible Pi-system")
    return sysm.negative(_highest_root(sysm, rs.members)[0])


def extended_pi_system(rs: RootSet) -> RootSet:
    """The set together with the minimal root of the subsystem it generates."""
    extra = minimal_root(rs)
    return RootSet(rs.system, rs.members + (extra,))


# -- subdiagram search and isomorphism -------------------------------------


def find_subdiagrams(d: ProjectiveDiagram, pattern: TypeLabel) -> list[dict]:
    """All node subsets of d whose induced diagram has the given irreducible
    type, each with one explicit isomorphism from a model diagram.

    Results are sorted by node subset; one witness per subset.
    """
    if len(pattern.parts) != 1:
        raise NotIrreducible("pattern must be irreducible")
    model = _model_diagram(pattern.parts[0])
    out = {}
    for emb in _embeddings(_rows(model), _rows(d)):
        key = tuple(sorted(emb.values(), key=_node_key))
        if key not in out:
            out[key] = emb
    return [out[k] for k in sorted(out, key=lambda t: tuple(map(_node_key, t)))]


def _model_diagram(part: Irreducible) -> ProjectiveDiagram:
    """A concrete diagram of the requested irreducible shape on 0..n-1."""
    s, r, ext = part.series, part.rank, part.extended
    edges: list[tuple[int, int]] = []
    if s == "A" and not ext:
        n = r
        edges = [(i, i + 1) for i in range(n - 1)]
    elif s == "A" and ext:
        n = r + 1
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif s == "D" and not ext:
        n = r
        edges = [(i, i + 1) for i in range(n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]
    elif s == "D" and ext and r == 4:
        n = 5
        edges = [(0, i) for i in range(1, 5)]
    elif s == "D" and ext:
        n = r + 1
        chain = list(range(n - 4))
        edges = [(i, i + 1) for i in chain[:-1]]
        edges += [(chain[0], n - 4), (chain[0], n - 3), (chain[-1], n - 2), (chain[-1], n - 1)]
        if len(chain) == 1:
            edges = [(0, n - 4), (0, n - 3), (0, n - 2), (0, n - 1)]
    elif s == "E":
        n = r + (1 if ext else 0)
        base = {6: [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)],
                7: [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)],
                8: [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]}[r]
        edges = list(base)
        if ext:
            extra = {6: (1, r), 7: (0, r), 8: (7, r)}[r]
            edges.append(extra)
    else:  # pragma: no cover
        raise UnrecognizedComponent(str(part))
    nodes = tuple(range(n))
    return ProjectiveDiagram(nodes, frozenset(frozenset(e) for e in edges))


def _embeddings(small: _Rows, big: _Rows):
    """Every embedding of small into big, as node -> node dicts: injective
    maps that keep each pair's bond, with its multiplicity, and each
    non-bond.  small's positions are placed by falling degree, stable on
    position, each on big's free positions in order; a candidate fits when
    its bonds to the placed images are exactly the images of the placed
    positions' bonds, a mask comparison per row."""
    s_nodes, s_adj, s_quad = small
    b_nodes, b_adj, b_quad = big
    order = sorted(range(len(s_nodes)), key=lambda i: -s_adj[i].bit_count())
    image = [0] * len(s_nodes)  # position in small -> the bit of its image
    every = (1 << len(b_nodes)) - 1

    def extend(k, placed, used):
        if k == len(order):
            yield {s_nodes[i]: b_nodes[image[i].bit_length() - 1] for i in order}
            return
        v = order[k]
        want = sum(image[i] for i in _bits(s_adj[v] & placed))
        want4 = sum(image[i] for i in _bits(s_quad[v] & placed))
        for c in _bits(every & ~used):
            if b_adj[c] & used == want and b_quad[c] & used == want4:
                image[v] = 1 << c
                yield from extend(k + 1, placed | 1 << v, used | 1 << c)

    yield from extend(0, 0, 0)


def are_isomorphic(d1, d2) -> tuple[bool, dict | None]:
    """Isomorphism of labeled (multi)graphs, ignoring node ids."""
    r1, r2 = _rows(d1), _rows(d2)
    # The sorted (bonds, quadruple bonds) of every position.
    deg1, deg2 = (sorted(zip(map(int.bit_count, r.adj), map(int.bit_count, r.quad))) for r in (r1, r2))
    if deg1 != deg2:
        return False, None
    for emb in _embeddings(r1, r2):
        return True, emb
    return False, None


def automorphism_group(d: Diagram | ProjectiveDiagram) -> list[dict]:
    """Every automorphism of the diagram, as node -> node mappings."""
    if len(d.nodes) > MAX_NODES:
        raise TooLarge(f"{len(d.nodes)} nodes exceeds the {MAX_NODES}-node bound")
    rows = _rows(d)
    return list(_embeddings(rows, rows))


# -- elementary transformations ---------------------------------------------


class ElementaryTransformation(NamedTuple):
    result: RootSet
    trivial: bool  # isomorphic to the input set


def elementary_transformations(rs: RootSet) -> list[ElementaryTransformation]:
    """All sets obtained by extending one irreducible component and deleting
    a single element of the extension, each flagged as trivial when it is
    isomorphic to the input."""
    sysm = rs.system
    if not is_pi_system(rs):
        raise NotPiSystem("elementary transformations need a Pi-system")
    base = delta_diagram(rs)
    out = []
    for comp in components(sysm, rs.members):
        rest = tuple(i for i in rs.members if i not in comp)
        hat = extended_pi_system(RootSet(sysm, comp)).members
        for drop in hat:
            cand = RootSet(sysm, rest + tuple(i for i in hat if i != drop))
            if is_pi_system(cand):
                trivial = are_isomorphic(base, delta_diagram(cand))[0]
                out.append(ElementaryTransformation(cand, trivial))
    return out


# -- DOT export -------------------------------------------------------------


def to_dot(d: Diagram | ProjectiveDiagram, bold_nodes=(), names=None) -> str:
    """Graphviz source; bold nodes get penwidth=3, quadruple bonds label 4."""
    names = names or {}
    bold = set(bold_nodes)

    def nm(x):
        return str(names.get(x, x))

    lines = ["graph diagram {", "  node [shape=circle];"]
    for n in d.nodes:
        attrs = ["label=\"%s\"" % nm(n)]
        if n in bold:
            attrs.append("penwidth=3")
        lines.append("  \"%s\" [%s];" % (nm(n), ", ".join(attrs)))
    if isinstance(d, ProjectiveDiagram):
        pairs = [(tuple(sorted(p, key=_node_key)), 1) for p in d.adjacency]
    else:
        pairs = [(tuple(sorted(p, key=_node_key)), m) for p, m in d.bonds]
    for (a, b), m in sorted(pairs, key=lambda e: (_node_key(e[0][0]), _node_key(e[0][1]))):
        attr = " [label=\"4\"]" if m == 4 else ""
        lines.append("  \"%s\" -- \"%s\"%s;" % (nm(a), nm(b), attr))
    lines.append("}")
    return "\n".join(lines) + "\n"
