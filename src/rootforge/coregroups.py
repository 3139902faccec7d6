"""Core groups: the Weyl stabilizer of a moset as a permutation group.

The group is generated honestly from Weyl elements of small subsystems
spanned by nodes of the enhanced diagram (D4 stars and three-node paths),
keeping a reflection word for every element so that each permutation can
be replayed on actual roots.  The local closures and the one closure of
the group they give run the oracle's breadth-first closure
(oracle._closure), capped at the order table's value.  The group is the
series model: the full symmetric group for A and E6, column permutations
with row flips for D, the linear group of F2^3 for E7 and the affine
group of F2^3 for E8.  That is checked without listing the model: the
model's structured generators lie in the closed group and generate a
group of its order, from the oracle's Schreier-Sims chain (oracle._close);
see core_group_model.  The F2 labelings themselves are derived from the
orbit structure of the computed group, never transcribed from pictures,
by one rule on both ranks: the zero-sum k-subsets (k = 3 on E7, 4 on E8)
are the smaller group orbit of k-subsets.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import combinations
from math import factorial
from operator import itemgetter, xor
from typing import NamedTuple

from .completion import EnhancedBasis, d4_stars, enhanced_basis, extension_root
from .errors import InvariantViolation, LabelingInfeasible, NotInMoset, Unsupported, UnsupportedType
from .mosets import _mu_formula
from .oracle import _IDENTITY, MAX_ROOTS, _chain_order, _close, _closure, _Level, _table
from .rootsystem import (
    RootSystem,
    _adjacency,
    _bits,
    _reflection_closure,
    subsystem_basis,
    system_memo,
)


# Sizes of the orthogonal sets of E7 and E8 whose Weyl orbit splits in two,
# told apart by the F2^3 label-sum parity.
SPECIAL_SIZES = {7: (3, 4), 8: (4,)}

# The size k of the zero-sum sets of the E7 and E8 labelings, and the sizes
# of the core group's two orbits of k-subsets of the moset.
_ZERO_SUM_ORBITS = {7: (3, [7, 28]), 8: (4, [14, 56])}


class MosetLabeling(NamedTuple):
    """Combinatorial labels on a moset: none, matrix slots, or F2^3 vectors."""

    kind: str  # "plain" | "dn_matrix" | "f2cube"
    labels: dict  # node -> label; (column, row) for dn_matrix, int bitmask for f2cube


class _CoreGroupModel(NamedTuple):
    system: RootSystem
    moset: tuple[int, ...]
    labeling: MosetLabeling
    generators: tuple[tuple[int, ...], ...]
    elements: dict


class CoreGroupModel(_CoreGroupModel):
    """The moset stabilizer as explicit permutations of the moset.

    elements maps each permutation (a tuple over moset positions) to a
    reflection word realizing it inside the Weyl group; generators lists
    the structured generators of the series model.  It keeps an instance
    dict (no __slots__) for its cached views.
    """

    @property
    def order(self) -> int:
        return len(self.elements)

    def position(self, node: int) -> int:
        return self.moset.index(node)

    @cached_property
    def element_list(self) -> list:
        """(permutation, word) pairs in sorted order, the scan order of
        extend_partial_map."""
        return sorted(self.elements.items())

    @cached_property
    def element_index(self) -> dict:
        """(position, image) -> the element_list entries sending position to
        image, in scan order; the buckets share element_list's entries."""
        index: dict = {}
        for entry in self.element_list:
            for key in enumerate(entry[0]):
                index.setdefault(key, []).append(entry)
        return index

    def to_json(self) -> dict:
        eb, labeling = enhanced_basis(self.system), self.labeling
        labels = {
            eb.names[node]: format(lab, "03b") if labeling.kind == "f2cube" else list(lab)
            for node, lab in labeling.labels.items()
        }
        return {
            "schema": "rootforge/1",
            "system": self.system.name,
            "mu": len(self.moset),
            "nu": self.order,
            "moset": [eb.names[n] for n in self.moset],
            "labeling": labels,
            "generators": [_cycles(g) for g in self.generators],
        }


def _cycles(perm: tuple[int, ...]) -> list[list[int]]:
    seen = set()
    out = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            seen.add(start)
            continue
        cyc = [start]
        seen.add(start)
        cur = perm[start]
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            cur = perm[cur]
        out.append(cyc)
    return out


def core_order_formula(series: str, rank: int) -> int:
    """The core group's order from the series model; UnsupportedType for a
    series other than A, D and E, or an E rank other than 6, 7 and 8."""
    if series == "A" or (series == "E" and rank == 6):
        return factorial(_mu_formula(series, rank))
    if series == "D":
        m = rank // 2
        return (2 ** (m - 1) if rank % 2 == 0 else 2**m) * factorial(m)
    if series != "E" or rank not in (7, 8):
        raise UnsupportedType(f"no core group order for {series}{rank}")
    return {7: 168, 8: 1344}[rank]


# -- honest generation from small subsystems --------------------------------


def _reach(system: RootSystem, basis, start) -> list[int]:
    """The roots the basis reflections carry start to, start first: the
    states a local closure steps through, numbered by their list index.

    The closure steps on bytes, so the reach may hold at most MAX_ROOTS
    roots; a larger one raises InvariantViolation."""
    reach = _reflection_closure(system, basis, start)
    if len(reach) > MAX_ROOTS:
        raise InvariantViolation(
            f"a local closure reaches {len(reach)} roots; byte states hold {MAX_ROOTS}"
        )
    return reach


def _local_stabilizer_perms(system: RootSystem, sub: tuple[int, ...], moset):
    """Weyl elements of a small subsystem that map the moset onto itself
    projectively, reported as (moset position permutation as bytes,
    reflection word).

    An element of W(sub) is determined by its images of the basis of sub,
    so the closure runs on the basis followed by the touched moset roots,
    those not orthogonal to the basis (a member of sub pairs with some
    basis root, as it pairs to 2 with itself).
    The roots those states can reach are renumbered 0, 1, ... in reach
    order, so each state is bytes and each basis reflection a translate
    table; a second table sends a local root to the moset position of its
    projective root, or to len(moset) when that lies outside the moset."""
    basis = subsystem_basis(system, sub)
    touched = [m for m in moset if any(system.cartan(m, r) for r in basis)]
    if len(touched) < 2:
        return []
    pos = {n: k for k, n in enumerate(moset)}
    start = tuple(basis) + tuple(touched)
    reach = _reach(system, basis, start)
    local = {x: k for k, x in enumerate(reach)}
    gens = [
        (_table(bytes(local[system.reflect(x, g)] for x in reach)), (g,))
        for g in basis
    ]
    seen = _closure(bytes(local[x] for x in start), gens)
    outside = len(moset)
    where = _table(bytes(pos.get(system.proj_rep(x), outside) for x in reach))
    tpos, ident = bytes(pos[m] for m in touched), bytes(range(len(moset)))
    out = []
    for state, word in seen.items():
        images = state[len(basis):].translate(where)
        # The element fixes the untouched positions and is a bijection on
        # projective roots, so it permutes the moset exactly when no image
        # of a touched position falls outside the touched ones.
        if not images.translate(None, tpos):
            out.append((ident.translate(bytes.maketrans(tpos, images)), word))
    return out


def _generator_pool(system: RootSystem, eb: EnhancedBasis):
    """Seeds of the candidate subsystems: D4 stars of the enhanced diagram
    whose four ends lie in the moset, and A3 paths through two moset nodes."""
    nodes = eb.nodes
    adj = _adjacency(system, nodes)
    m_set = set(eb.moset)
    pools = []
    for center, ends in d4_stars(system, nodes):
        delta = system.proj_rep(extension_root(system, center, ends))
        four = set(ends) | {delta}
        if four <= m_set:
            pools.append(tuple(sorted((center,) + ends)))
    for a, b in combinations(eb.moset, 2):
        common = adj[nodes.index(a)] & adj[nodes.index(b)]
        pools += [tuple(sorted((a, nodes[k], b))) for k in _bits(common)]
    return pools


def _subsystems(system: RootSystem, seeds):
    """The distinct subsystems the seeds generate, in first-seen order."""
    out: dict[tuple[int, ...], None] = {}
    for seed in seeds:
        out.setdefault(tuple(sorted(_reflection_closure(system, seed, seed))))
    return list(out)


def _weyl_core_elements(system: RootSystem, eb: EnhancedBasis) -> dict:
    moset = eb.moset
    target = core_order_formula(system.series, system.rank)
    gens: dict = {}
    for sub in _subsystems(system, _generator_pool(system, eb)):
        for perm, word in _local_stabilizer_perms(system, sub, moset):
            if perm not in gens or len(word) < len(gens[perm]):
                gens[perm] = word
    # The closure of the identity on the moset positions under the local
    # stabilizers, concatenating their words.  Capped at the target, so a
    # faulty local step raises CapExceeded one level past it.
    elements = _closure(bytes(range(len(moset))), [(_table(g), word) for g, word in gens.items()], target)
    if len(elements) != target:
        raise LabelingInfeasible(
            f"core group generation reached order {len(elements)}, expected {target}"
        )
    return elements


# -- labelings ---------------------------------------------------------------


def _orbit_partition(elements, subsets):
    """Partition k-subsets of moset positions into orbits of the group.

    One pass of the whole group over a representative yields its orbit."""
    remaining = set(subsets)
    orbits = []
    while remaining:
        start = min(remaining, key=sorted)
        orbit = set(map(frozenset, map(itemgetter(*start), elements)))
        if not orbit <= remaining:
            raise InvariantViolation("a group orbit leaves the given subsets")
        orbits.append(orbit)
        remaining -= orbit
    return orbits


def _solve_fano(points, lines):
    """Labels in F2^3 \\ {0} for the seven points, spread from one line and
    a point off it along the given lines; LabelingInfeasible unless they
    are seven distinct labels.  The caller checks that the lines are the
    zero-sum triples."""
    if len(points) != 7 or len(lines) != 7:
        raise LabelingInfeasible("a Fano structure needs 7 points and 7 lines")
    first = min(tuple(sorted(l)) for l in lines)
    labels = {first[0]: 1, first[1]: 2, first[2]: 3}
    d = min(p for p in points if p not in labels)
    labels[d] = 4
    changed = True
    while changed:
        changed = False
        for line in lines:
            known = [p for p in line if p in labels]
            if len(known) == 2:
                rest = next(p for p in line if p not in labels)
                labels[rest] = labels[known[0]] ^ labels[known[1]]
                changed = True
    if len(labels) != 7 or sorted(labels.values()) != [1, 2, 3, 4, 5, 6, 7]:
        raise LabelingInfeasible("inconsistent line structure")
    return labels


def _derive_labeling(system: RootSystem, eb: EnhancedBasis, elements) -> MosetLabeling:
    moset = eb.moset
    if system.series == "A" or (system.series == "E" and system.rank == 6):
        return MosetLabeling("plain", {n: (0, 0) for n in moset})
    if system.series == "D":
        labels = {}
        for col, (plain, primed) in enumerate(eb.columns(), start=1):
            labels[plain] = (col, 0)
            labels[primed] = (col, 1)
        return MosetLabeling("dn_matrix", labels)
    # E7 and E8: the zero-sum k-subsets of the F2^3 labels are the smaller
    # group orbit of k-subsets: the 7 lines of the Fano plane on E7, the
    # 14 affine planes on E8.  E8 fixes position 0 at label 0, so the
    # planes through it, less 0, are the lines on the other seven.
    k, expected = _ZERO_SUM_ORBITS[system.rank]
    points = range(len(moset))
    orbits = _orbit_partition(elements, [frozenset(c) for c in combinations(points, k)])
    sizes = sorted(len(o) for o in orbits)
    if sizes != expected:
        raise LabelingInfeasible(f"{k}-subset orbits of sizes {sizes}, expected {expected}")
    zero_sum = min(orbits, key=len)
    if k == 3:
        labels = _solve_fano(points, zero_sum)
    else:
        labels = _solve_fano(points[1:], {plane - {0} for plane in zero_sum if 0 in plane})
        labels[0] = 0
    for subset in combinations(points, k):
        if (reduce(xor, map(labels.__getitem__, subset)) == 0) != (frozenset(subset) in zero_sum):
            raise LabelingInfeasible("labels do not reproduce the zero-sum sets")
    return MosetLabeling("f2cube", {moset[i]: labels[i] for i in points})


# -- structured series models -------------------------------------------------


def _dn_action(labeling: MosetLabeling, moset):
    """The D matrix model as a map (column permutation, row flips) -> moset
    position tuple: column c moves to colperm[c - 1] and its rows swap
    when flips[c - 1] is set."""
    slot_of = {labeling.labels[n]: i for i, n in enumerate(moset)}
    cells = [labeling.labels[n] for n in moset]

    def act(colperm, flips):
        return tuple(slot_of[(colperm[col - 1], row ^ flips[col - 1])] for col, row in cells)

    return act


def _f2_action(labeling: MosetLabeling, moset):
    """The affine maps of F2^3 as a map (columns, translation) -> moset
    position tuple."""
    labels = [labeling.labels[n] for n in moset]
    slot_of = {v: i for i, v in enumerate(labels)}

    def act(cols, t=0):
        out = []
        for x in labels:
            y = t
            for bit, col in zip((1, 2, 4), cols):
                if x & bit:
                    y ^= col
            out.append(slot_of[y])
        return tuple(out)

    return act


def _generated_order(generators) -> int:
    """The order of the group the permutations generate, from a
    Schreier-Sims chain (oracle._close) based at position 0.  Each level's
    orbit lies in its true stabilizer's orbit, so it is never too large."""
    tables = [bytes(g) + _IDENTITY[len(g) :] for g in generators]
    top = _Level(0, tables)
    _close(top, [(0, t) for t in tables])
    return _chain_order(top)


def _model_generators(system: RootSystem, labeling: MosetLabeling, moset):
    """A compact structured generating set, stated in moset positions."""
    k = len(moset)
    if labeling.kind == "plain":
        gens = []
        if k >= 2:
            gens.append(tuple([1, 0] + list(range(2, k))))
        if k >= 3:
            gens.append(tuple(list(range(1, k)) + [0]))
        return tuple(gens)
    if labeling.kind == "dn_matrix":
        m = system.rank // 2
        act = _dn_action(labeling, moset)
        gens = []
        ident_cols = list(range(1, m + 1))
        for i in range(m - 1):
            cp = ident_cols[:]
            cp[i], cp[i + 1] = cp[i + 1], cp[i]
            gens.append(act(cp, (0,) * m))
        if system.rank % 2 == 1:
            gens.append(act(ident_cols, (1,) + (0,) * (m - 1)))
        elif m >= 2:
            gens.append(act(ident_cols, (1, 1) + (0,) * (m - 2)))
        return tuple(gens)
    act = _f2_action(labeling, moset)
    gens = [act((2, 1, 4)), act((2, 4, 1)), act((3, 2, 4))]
    if system.rank == 8:
        gens.append(act((1, 2, 4), 7))
    return tuple(gens)


# -- public interface ----------------------------------------------------------


@system_memo
def core_group_model(system: RootSystem) -> CoreGroupModel:
    """Core group of the system on the enhanced diagram's moset.

    The element set closed is produced by closing Weyl elements of small
    subsystems.  It equals the structured series model, by four facts:
    - _weyl_core_elements checks that |closed| equals core_order_formula;
    - each structured generator lies in closed, and the generators'
      Schreier-Sims chain order equals |closed|, so closed is the group
      the generators generate;
    - the generators are model elements by construction (_dn_action,
      _f2_action, or transpositions and cycles of Sym(mu)), so closed lies
      inside the model;
    - the model's order is core_order_formula, so closed equals the model.
    """
    eb = enhanced_basis(system)
    closed = _weyl_core_elements(system, eb)
    labeling = _derive_labeling(system, eb, closed)
    generators = _model_generators(system, labeling, eb.moset)
    if any(bytes(g) not in closed for g in generators) or _generated_order(generators) != len(closed):
        raise InvariantViolation("structured generators fail to generate")
    elements = {tuple(perm): word for perm, word in closed.items()}
    return CoreGroupModel(system, eb.moset, labeling, generators, elements)


def parity(model: CoreGroupModel, subset) -> int:
    """F2 label-sum parity of a subset of the moset (E7/E8 labelings)."""
    if model.labeling.kind != "f2cube":
        raise Unsupported("parity is defined for the F2-labeled mosets")
    total = 0
    for node in subset:
        if node not in model.labeling.labels:
            raise NotInMoset(f"node {node} is not in the moset")
        total ^= model.labeling.labels[node]
    return 0 if total == 0 else 1


def conjugate_in_moset(model: CoreGroupModel, o1, o2) -> bool:
    """Decide conjugacy of two moset subsets under the core group,
    by the series rules (equal size; plus equal parity at the special
    sizes of E7 and E8; the full orbit test for the D matrix model)."""
    o1 = tuple(sorted(o1))
    o2 = tuple(sorted(o2))
    for o in (o1, o2):
        for node in o:
            if node not in model.labeling.labels:
                raise NotInMoset(f"node {node} is not in the moset")
    if len(o1) != len(o2):
        return False
    kind = model.labeling.kind
    if kind == "plain":
        return True
    if kind == "dn_matrix":
        p1 = frozenset(model.position(n) for n in o1)
        p2 = frozenset(model.position(n) for n in o2)
        return any(frozenset(perm[i] for i in p1) == p2 for perm in model.elements)
    if len(o1) in SPECIAL_SIZES[model.system.rank]:
        return parity(model, o1) == parity(model, o2)
    return True


def extend_partial_map(model: CoreGroupModel, mapping: dict):
    """Find a core group element agreeing with the node mapping, returning
    (found, reflection word).  Only the elements that agree on the first
    pair are scanned, in element_list order, so the match found is the
    first of element_list."""
    items = []
    for src, dst in mapping.items():
        if src not in model.labeling.labels or dst not in model.labeling.labels:
            raise NotInMoset("partial map must stay inside the moset")
        items.append((model.position(src), model.position(dst)))
    pool = model.element_index.get(items[0], ()) if items else model.element_list
    if len(items) < 2:
        # With at most one pair, every element of the pool agrees.
        return next(((True, word) for _, word in pool), (False, None))
    sources, targets = zip(*items)
    images = itemgetter(*sources)
    for perm, word in pool:
        if images(perm) == targets:
            return True, word
    return False, None


def induced_group_on(model: CoreGroupModel, subset) -> set[tuple[int, ...]]:
    """Permutations induced on the sorted subset by its setwise stabilizer
    inside the core group."""
    nodes = sorted(subset)
    if model.system.series != "E" or model.system.rank not in (7, 8):
        raise Unsupported("induced subgroups are reported for E7 and E8")
    if len(nodes) > 4:
        raise Unsupported("induced subgroups are reported for up to 4 nodes")
    pos = [model.position(n) for n in nodes]
    out = set()
    posindex = {p: i for i, p in enumerate(pos)}
    for perm in model.elements:
        if all(perm[p] in posindex for p in pos):
            out.add(tuple(posindex[perm[p]] for p in pos))
    return out
