"""Core groups: the Weyl stabilizer of a moset as a permutation group.

The group is generated honestly from Weyl elements of small subsystems
spanned by nodes of the enhanced diagram (D4 stars and three-node paths),
keeping a reflection word for every element so that each permutation can
be replayed on actual roots.  The result is then matched against the
series model: the full symmetric group for A and E6, column permutations
with row flips for D, the linear group of F2^3 for E7 and the affine
group of F2^3 for E8.  The F2 labelings themselves are derived from the
orbit structure of the computed group, never transcribed from pictures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations, product

from .completion import EnhancedBasis, d4_stars, enhanced_basis, extension_root
from .errors import LabelingInfeasible, NotInMoset, NotMoset, Unsupported
from .mosets import _mu_formula
from .rootsystem import RootSet, RootSystem, is_pi_system


# Sizes of the orthogonal sets of E7 and E8 whose Weyl orbit splits in two,
# told apart by the F2^3 label-sum parity.
SPECIAL_SIZES = {7: (3, 4), 8: (4,)}


@dataclass(frozen=True)
class MosetLabeling:
    """Combinatorial labels on a moset: none, matrix slots, or F2^3 vectors."""

    kind: str  # "plain" | "dn_matrix" | "f2cube"
    labels: dict  # node -> label; (column, row) for dn_matrix, int bitmask for f2cube


@dataclass(frozen=True)
class CoreGroupModel:
    """The moset stabilizer as explicit permutations of the moset.

    elements maps each permutation (a tuple over moset positions) to a
    reflection word realizing it inside the Weyl group; generators lists
    the structured generators of the series model.
    """

    system: RootSystem
    moset: tuple[int, ...]
    labeling: MosetLabeling
    generators: tuple[tuple[int, ...], ...]
    elements: dict

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

    def to_json(self) -> dict:
        eb = enhanced_basis(self.system)
        labels = {}
        for node, lab in self.labeling.labels.items():
            if self.labeling.kind == "f2cube":
                labels[eb.names[node]] = format(lab, "03b")
            else:
                labels[eb.names[node]] = list(lab)
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
    mu_ = _mu_formula(series, rank)
    if series == "A" or (series == "E" and rank == 6):
        out = 1
        for k in range(2, mu_ + 1):
            out *= k
        return out
    if series == "D":
        m = rank // 2
        fact = 1
        for k in range(2, m + 1):
            fact *= k
        return (2 ** (m - 1) if rank % 2 == 0 else 2**m) * fact
    return {7: 168, 8: 1344}[rank]


# -- honest generation from small subsystems --------------------------------


def _closure_roots(system: RootSystem, seeds: tuple[int, ...]) -> tuple[int, ...]:
    """Roots of the subsystem generated by a Pi-set, by additive closure."""
    members = set(seeds)
    members.update(system.negative(i) for i in seeds)
    frontier = list(members)
    while frontier:
        new = []
        for a in list(members):
            for b in frontier:
                s = tuple(x + y for x, y in zip(system.roots[a], system.roots[b]))
                idx = system.index(s)
                if idx is not None and idx not in members:
                    members.add(idx)
                    members.add(system.negative(idx))
                    new.append(idx)
        frontier = new
    return tuple(sorted(members))


def _local_stabilizer_perms(system: RootSystem, sub: tuple[int, ...], moset):
    """Weyl elements of a small subsystem that map the moset onto itself
    projectively, reported as (moset position permutation, reflection word)."""
    m_set = set(moset)
    touched = [
        m
        for m in moset
        if any(system.cartan(m, r) != 0 for r in sub) or m in sub
    ]
    if len(touched) < 2:
        return []
    pos = {n: k for k, n in enumerate(moset)}
    state0 = tuple(sub) + tuple(touched)
    seen = {state0: ()}
    frontier = [state0]
    from .classify import subsystem_basis

    gens = subsystem_basis(system, sub)
    out = []
    while frontier:
        new = []
        for state in frontier:
            word = seen[state]
            for g in gens:
                nxt = tuple(system.reflect(x, g) for x in state)
                if nxt not in seen:
                    seen[nxt] = word + (g,)
                    new.append(nxt)
        frontier = new
    for state, word in seen.items():
        images = state[len(sub):]
        projs = [system.proj_rep(x) for x in images]
        if all(p in m_set for p in projs):
            perm = list(range(len(moset)))
            for m, p in zip(touched, projs):
                perm[pos[m]] = pos[p]
            if len(set(perm)) == len(perm):
                out.append((tuple(perm), word))
    return out


def _generator_pool(system: RootSystem, eb: EnhancedBasis):
    """Candidate subsystems: D4 stars of the enhanced diagram whose four
    ends lie in the moset, and A3 paths through two moset nodes."""
    nodes = eb.nodes
    m_set = set(eb.moset)
    pools = []
    for center, ends in d4_stars(system, nodes):
        delta = system.proj_rep(extension_root(system, center, ends))
        four = set(ends) | {delta}
        if four <= m_set:
            pools.append(tuple(sorted((center,) + ends)))
    for a, b in combinations(eb.moset, 2):
        for c in nodes:
            if c in (a, b):
                continue
            if system.cartan(a, c) != 0 and system.cartan(b, c) != 0:
                pools.append(tuple(sorted((a, c, b))))
    seen: set[tuple[int, ...]] = set()
    out = []
    for seed in pools:
        sub = _closure_roots(system, seed)
        if sub not in seen:
            seen.add(sub)
            out.append(sub)
    return out


def _pi_subdiagram_pool(system: RootSystem, eb: EnhancedBasis, max_size: int = 4):
    """Fallback pool: subsystems spanned by every small Pi-subdiagram."""
    nodes = eb.nodes
    seen: set[tuple[int, ...]] = set()
    out = []
    for size in range(2, max_size + 1):
        for combo in combinations(nodes, size):
            if not is_pi_system(RootSet(system, combo)):
                continue
            sub = _closure_roots(system, combo)
            if len(sub) > 60:
                continue
            if sub not in seen:
                seen.add(sub)
                out.append(sub)
    return out


def _close_group(generators: dict, npoints: int) -> dict:
    """Closure of moset permutations, concatenating reflection words."""
    ident = tuple(range(npoints))
    elements = {ident: ()}
    frontier = [ident]
    while frontier:
        new = []
        for cur in frontier:
            cur_word = elements[cur]
            for gperm, gword in generators.items():
                nxt = tuple(gperm[cur[k]] for k in range(npoints))
                if nxt not in elements:
                    elements[nxt] = cur_word + gword
                    new.append(nxt)
        frontier = new
    return elements


def _weyl_core_elements(system: RootSystem, eb: EnhancedBasis) -> dict:
    moset = eb.moset
    target = core_order_formula(system.series, system.rank)
    gens: dict = {}
    for sub in _generator_pool(system, eb):
        for perm, word in _local_stabilizer_perms(system, sub, moset):
            if perm not in gens or len(word) < len(gens[perm]):
                gens[perm] = word
    elements = _close_group(gens, len(moset))
    if len(elements) != target:
        for sub in _pi_subdiagram_pool(system, eb):
            for perm, word in _local_stabilizer_perms(system, sub, moset):
                if perm not in gens:
                    gens[perm] = word
        elements = _close_group(gens, len(moset))
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
        orbit = {frozenset(perm[i] for i in start) for perm in elements}
        assert orbit <= remaining
        orbits.append(orbit)
        remaining -= orbit
    return orbits


def _solve_fano(points, lines):
    """Labels in F2^3 \\ {0} such that the given triples are the zero-sum ones."""
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
    for triple in combinations(points, 3):
        total = labels[triple[0]] ^ labels[triple[1]] ^ labels[triple[2]]
        if (total == 0) != (frozenset(triple) in lines):
            raise LabelingInfeasible("labels do not reproduce the line structure")
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
    k = len(moset)
    if system.rank == 7:
        orbits = _orbit_partition(elements, [
            frozenset(c) for c in combinations(range(k), 3)
        ])
        sizes = sorted(len(o) for o in orbits)
        if sizes != [7, 28]:
            raise LabelingInfeasible(f"triple orbits of sizes {sizes}, expected 7+28")
        lines = min(orbits, key=len)
        pos_labels = _solve_fano(list(range(k)), lines)
        return MosetLabeling("f2cube", {moset[i]: pos_labels[i] for i in range(k)})
    orbits = _orbit_partition(elements, [
        frozenset(c) for c in combinations(range(k), 4)
    ])
    sizes = sorted(len(o) for o in orbits)
    if sizes != [14, 56]:
        raise LabelingInfeasible(f"quadruple orbits of sizes {sizes}, expected 14+56")
    planes = min(orbits, key=len)
    zero = 0
    others = [i for i in range(k) if i != zero]
    lines = {
        frozenset(t)
        for t in combinations(others, 3)
        if frozenset(t) | {zero} in planes
    }
    pos_labels = _solve_fano(others, lines)
    pos_labels[zero] = 0
    for quad in combinations(range(k), 4):
        total = 0
        for p in quad:
            total ^= pos_labels[p]
        if (total == 0) != (frozenset(quad) in planes):
            raise LabelingInfeasible("labels do not reproduce the plane structure")
    return MosetLabeling("f2cube", {moset[i]: pos_labels[i] for i in range(k)})


# -- structured series models -------------------------------------------------


def _gl3_permutations():
    """All invertible linear maps of F2^3 as permutations of 1..7."""
    mats = []
    vecs = list(range(1, 8))
    for cols in permutations(vecs, 3):
        # invertibility: columns independent
        a, b, c = cols
        if a ^ b == 0 or a ^ b == c or a ^ c == 0 or b ^ c == 0 or a ^ b ^ c == 0:
            continue
        mats.append(cols)

    def apply(cols, x):
        out = 0
        for bit, col in zip((1, 2, 4), cols):
            if x & bit:
                out ^= col
        return out

    return mats, apply


def _model_element_set(system: RootSystem, labeling: MosetLabeling, moset):
    """Every permutation the series model allows, as moset position tuples."""
    k = len(moset)
    if labeling.kind == "plain":
        return {tuple(p) for p in permutations(range(k))}
    if labeling.kind == "dn_matrix":
        m = system.rank // 2
        even_only = system.rank % 2 == 0
        slot_of = {labeling.labels[n]: i for i, n in enumerate(moset)}
        out = set()
        for colperm in permutations(range(1, m + 1)):
            for flips in product((0, 1), repeat=m):
                if even_only and sum(flips) % 2 == 1:
                    continue
                perm = [0] * k
                for i, n in enumerate(moset):
                    col, row = labeling.labels[n]
                    newcol = colperm[col - 1]
                    newrow = row ^ flips[col - 1]
                    perm[i] = slot_of[(newcol, newrow)]
                out.add(tuple(perm))
        return out
    # f2cube: GL3 for E7, affine maps for E8
    label_of = {i: labeling.labels[n] for i, n in enumerate(moset)}
    slot_of = {v: i for i, v in label_of.items()}
    mats, apply = _gl3_permutations()
    out = set()
    translations = [0] if system.rank == 7 else list(range(8))
    for cols in mats:
        for t in translations:
            perm = tuple(
                slot_of[apply(cols, label_of[i]) ^ t] for i in range(len(moset))
            )
            out.add(perm)
    return out


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
        slot_of = {labeling.labels[n]: i for i, n in enumerate(moset)}

        def from_action(colperm, flips):
            perm = [0] * k
            for i, n in enumerate(moset):
                col, row = labeling.labels[n]
                perm[i] = slot_of[(colperm[col - 1], row ^ flips[col - 1])]
            return tuple(perm)

        gens = []
        ident_cols = list(range(1, m + 1))
        for i in range(m - 1):
            cp = ident_cols[:]
            cp[i], cp[i + 1] = cp[i + 1], cp[i]
            gens.append(from_action(cp, (0,) * m))
        if system.rank % 2 == 1:
            gens.append(from_action(ident_cols, (1,) + (0,) * (m - 1)))
        elif m >= 2:
            gens.append(from_action(ident_cols, (1, 1) + (0,) * (m - 2)))
        return tuple(gens)
    label_of = {i: labeling.labels[n] for i, n in enumerate(moset)}
    slot_of = {v: i for i, v in label_of.items()}

    def linear(cols, t=0):
        def apply(x):
            out = 0
            for bit, col in zip((1, 2, 4), cols):
                if x & bit:
                    out ^= col
            return out

        return tuple(slot_of[apply(label_of[i]) ^ t] for i in range(k))

    gens = [linear((2, 1, 4)), linear((2, 4, 1)), linear((3, 2, 4))]
    if system.rank == 8:
        gens.append(linear((1, 2, 4), t=7))
    return tuple(gens)


# -- public interface ----------------------------------------------------------


@lru_cache(maxsize=None)
def core_group_model(system: RootSystem) -> CoreGroupModel:
    """Core group of the system on the enhanced diagram's moset.

    The element set is produced by closing Weyl elements of small
    subsystems and must match both the order table and the structured
    series model exactly.
    """
    eb = enhanced_basis(system)
    elements = _weyl_core_elements(system, eb)
    labeling = _derive_labeling(system, eb, elements)
    model_set = _model_element_set(system, labeling, eb.moset)
    if model_set != set(elements):
        raise LabelingInfeasible(
            "series model and Weyl-generated core group disagree"
        )
    generators = _model_generators(system, labeling, eb.moset)
    span = _close_group({g: () for g in generators}, len(eb.moset))
    assert set(span) == set(elements), "structured generators fail to generate"
    return CoreGroupModel(system, eb.moset, labeling, generators, elements)


def moset_of_model(system: RootSystem) -> tuple[int, ...]:
    return core_group_model(system).moset


def derive_labeling(system: RootSystem) -> MosetLabeling:
    """Labeling of the model moset: matrix slots for D, F2^3 vectors for
    E7/E8 (derived from the core group's orbit structure), plain otherwise."""
    return core_group_model(system).labeling


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
    (found, reflection word)."""
    items = []
    for src, dst in mapping.items():
        if src not in model.labeling.labels or dst not in model.labeling.labels:
            raise NotInMoset("partial map must stay inside the moset")
        items.append((model.position(src), model.position(dst)))
    for perm, word in model.element_list:
        if all(perm[s] == d for s, d in items):
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


def verify_moset(system: RootSystem, members) -> None:
    """Raise NotMoset unless members form a moset of the whole system."""
    nodes = tuple(sorted({system.proj_rep(i) for i in members}))
    for a, b in combinations(nodes, 2):
        if system.cartan(a, b) != 0:
            raise NotMoset("members are not pairwise orthogonal")
    for cand in system.proj_nodes:
        if cand in nodes:
            continue
        if all(system.cartan(cand, m) == 0 for m in nodes):
            raise NotMoset("orthogonal set is not maximal")
