"""Acceptance checks runnable both from the CLI (verify) and from pytest.

Each check returns a Result and is expected to hold exactly, within the
stated wall-clock budget on an ordinary desktop.  The full Weyl group of
E7 is only enumerated when slow mode is requested; by default the E7 and
E8 core groups are checked by word replay and an orbit-stabilizer count.
"""

from __future__ import annotations

import random
import time
from typing import NamedTuple

from .classify import (
    EmbeddingMap,
    _PiWalk,
    _lower_bits,
    _maximal_children,
    _orbits,
    enumerate_pi_orbits,
    hasse_diagram,
    is_weyl_embedding,
    orbit_label,
    order_between_orbits,
    pi_node_subsets,
)
from .completion import complete, d4_stars, elementary_extension, enhanced_basis, extension_root
from .coregroups import core_group_model, core_order_formula
from .diagrams import _mask_nodes, automorphism_group, subsystem_type
from .errors import InvariantViolation
from .mosets import all_mosets, mu, _mu_formula
from .oracle import (  # E_DEGREES and weyl_order_by_degrees are re-exported
    DEFAULT_CAP,
    E_DEGREES,
    canonical_image,
    compose,
    enumerate_weyl,
    identity_perm,
    induced_action,
    set_stabilizer,
    simple_reflection_perms,
    perm_from_word,
    weyl_order_by_degrees,
    _proj_table,
    _table,
)
from .rootsystem import RootSet, build_root_system, orthogonal_complement

SMALL = [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)] + [
    ("E", 6),
    ("E", 7),
    ("E", 8),
]


class Result(NamedTuple):
    name: str
    ok: bool
    detail: str
    seconds: float
    budget: float | None = None

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        budget = f" (budget {self.budget:.0f}s)" if self.budget else ""
        return f"[{status}] {self.name}: {self.detail} [{self.seconds:.1f}s{budget}]"


def _run(name, budget, fn) -> Result:
    start = time.time()
    try:
        ok, detail = fn()
    except Exception as exc:  # pragma: no cover - defensive reporting
        return Result(name, False, f"error: {exc!r}", time.time() - start, budget)
    elapsed = time.time() - start
    if budget is not None and elapsed > budget:
        ok = False
        detail += f"; exceeded {budget:.0f}s budget"
    return Result(name, ok, detail, elapsed, budget)


# -- criterion 1: moset cardinality table ------------------------------------


MU_TABLE = {
    **{("A", n): (n + 1) // 2 for n in range(1, 9)},
    **{("D", n): 2 * (n // 2) for n in range(4, 9)},
    ("E", 6): 4,
    ("E", 7): 7,
    ("E", 8): 8,
}


def check_moset_cardinalities() -> Result:
    def fn():
        bad = []
        for series, rank in SMALL:
            system = build_root_system(series, rank)
            if mu(system) != MU_TABLE[(series, rank)]:
                bad.append((series, rank))
        return not bad, f"mu over {len(SMALL)} systems" + (f"; bad {bad}" if bad else "")

    return _run("1 moset cardinality table", 1.0, fn)


# -- criterion 2: orthogonal complements of roots ------------------------------


def _expected_complement(series: str, rank: int):
    if series == "A":
        return [("A", rank - 2)] if rank >= 3 else []
    if series == "E":
        return {6: [("A", 5)], 7: [("D", 6)], 8: [("E", 7)]}[rank]
    rest = rank - 2
    if rest >= 4:
        return [("D", rest), ("A", 1)]
    if rest == 3:  # D3 realized as A3
        return [("A", 3), ("A", 1)]
    return [("A", 1), ("A", 1), ("A", 1)]  # D2 = A1 + A1


def check_complement_types() -> Result:
    def fn():
        bad = []
        for series, rank in SMALL:
            system = build_root_system(series, rank)
            roots = list(range(len(system.roots)))
            sample = roots if len(roots) <= 80 else roots[:: len(roots) // 7]
            expected = sorted(_expected_complement(series, rank))
            for alpha in sample:
                psi = orthogonal_complement(system, (alpha,), tuple(roots))
                got = sorted(
                    (p.series, p.rank) for p in subsystem_type(system, psi).parts
                )
                if got != expected:
                    bad.append((series, rank, alpha, got))
                    break
        return not bad, "complement types over sampled roots" + (
            f"; bad {bad}" if bad else ""
        )

    return _run("2 orthogonal complement table", 5.0, fn)


# -- criterion 3: core group orders --------------------------------------------


def check_core_orders() -> Result:
    def fn():
        bad = []
        for series, rank in SMALL:
            system = build_root_system(series, rank)
            model = core_group_model(system)
            if model.order != core_order_formula(series, rank):
                bad.append((series, rank, model.order))
        return not bad, "generator closure orders" + (f"; bad {bad}" if bad else "")

    return _run("3a core group order table", 1.0, fn)


def core_order_by_orbit(system, moset) -> int:
    """|W| / (|W.moset| * 2^k), the order of the group the moset's
    stabilizer induces on its k projective roots.

    The moset is maximal, so no root is orthogonal to all of it, and by
    Steinberg's theorem (Humphreys 1.12) no element but 1 fixes it
    pointwise; an element fixing each of its roots up to sign is
    therefore a product of their reflections, a group of order 2^k.
    """
    size = canonical_image(system, moset)[1]
    order, rest = divmod(weyl_order_by_degrees(system.series, system.rank), size * 2 ** len(moset))
    if rest:
        raise InvariantViolation(f"|W.moset| * 2^k does not divide |W({system.name})|")
    return order


def _words_replay(system, model) -> bool:
    """Every element's word, replayed by perm_from_word, sends the moset
    onto the element's permutation of it, projectively."""
    moset = bytes(model.moset)
    proj = _proj_table(system)
    return all(
        moset.translate(_table(perm_from_word(system, word))).translate(proj)
        == bytes(model.moset[i] for i in perm)
        for perm, word in model.elements.items()
    )


def check_core_stabilizer_agreement(slow: bool = False, cap: int = DEFAULT_CAP) -> Result:
    """The core group equals the action the moset stabilizer induces.

    On D4-D6 and E6 (and E7 in slow mode) by enumerating W, where the
    degree product and the orbit formula are checked against the
    enumeration too.  On E7 and E8 without enumeration: every word replays
    into the stabilizer, and the orders agree with core_order_by_orbit."""
    enumerated = [("D", 4), ("D", 5), ("D", 6), ("E", 6)]
    by_orbit = [("E", 7), ("E", 8)]
    if slow:
        enumerated.append(by_orbit.pop(0))
    budget = 1800.0 if slow else 120.0

    def fn():
        bad = []
        for series, rank in enumerated:
            system = build_root_system(series, rank)
            model = core_group_model(system)
            w = enumerate_weyl(system, cap)
            stab = set_stabilizer(system, model.moset, w)
            induced = induced_action(system, model.moset, stab)
            if (
                induced != set(model.elements)
                or len(w) != weyl_order_by_degrees(series, rank)
                or core_order_by_orbit(system, model.moset) != len(induced)
            ):
                bad.append((series, rank))
        for series, rank in by_orbit:
            system = build_root_system(series, rank)
            model = core_group_model(system)
            if not _words_replay(system, model) or model.order != core_order_by_orbit(
                system, model.moset
            ):
                bad.append((series, rank))
        names = ", ".join(f"{s}{r}" for s, r in enumerated)
        orbit_names = ", ".join(f"{s}{r}" for s, r in by_orbit)
        return not bad, (
            f"stabilizer agreement on {names} by enumeration, {orbit_names} by"
            " word replay and orbit order" + (f"; bad {bad}" if bad else "")
        )

    return _run("3b core group vs brute stabilizer", budget, fn)


# -- criterion 4: enhanced diagrams --------------------------------------------


def check_enhanced_diagrams() -> Result:
    def fn():
        problems = []
        e7 = enhanced_basis(build_root_system("E", 7))
        if len(e7.nodes) != 11:
            problems.append("E7 node count")
        nbrs = lambda eb, lab: {
            eb.names[x] for x in eb.neighbors(eb.node(lab))
        }
        if not {"1", "4", "6"} <= nbrs(e7, "l1"):
            problems.append("E7 l1 trace")
        if not {"l1", "2", "7"} <= nbrs(e7, "l2"):
            problems.append("E7 l2 trace")
        e8 = enhanced_basis(build_root_system("E", 8))
        if len(e8.nodes) != 16:
            problems.append("E8 node count")
        if any(len(e8.neighbors(n)) != 4 for n in e8.nodes):
            problems.append("E8 regularity")
        auts = automorphism_group(e8.diagram())
        first = e8.nodes[0]
        if {a[first] for a in auts} != set(e8.nodes):
            problems.append("E8 vertex transitivity")
        for series, rank in SMALL:
            system = build_root_system(series, rank)
            eb = enhanced_basis(system)
            if len(eb.moset) != _mu_formula(series, rank):
                problems.append(f"moset size {series}{rank}")
            if _extended_one_at_a_time(system) != eb.nodes:
                problems.append(f"elementary extensions {series}{rank}")
        return not problems, "diagram shapes; elementary extensions reach every SMALL completion" + (
            f"; bad {problems}" if problems else ""
        )

    return _run("4 enhanced Dynkin diagrams", 20.0, fn)


def _extended_one_at_a_time(system) -> tuple[int, ...]:
    """The simple basis extended by one elementary_extension at a time, the
    greatest D4 star (by its sorted nodes) that lacks its extra node first,
    until none does.  The completion is canonical, so this order must reach
    the nodes of enhanced_basis, which adds every missing root per round."""
    nodes = system.simple_basis
    while True:
        missing = [
            (tuple(sorted(ends + (center,))), center, ends)
            for center, ends in d4_stars(system, nodes)
            if system.proj_rep(extension_root(system, center, ends)) not in nodes
        ]
        if not missing:
            return nodes
        _, center, ends = max(missing)
        nodes = elementary_extension(system, nodes, center, ends)[0]


# -- criterion 5: small-rank classification vs oracle ---------------------------


def check_small_rank_exactness(slow: bool = False) -> Result:
    """The labels partition the Pi-subsets as their Weyl orbits do, on
    A2-A5, D4-D10, E6 and E7, and on E8 in slow mode.  An orbit's id is
    its least member, from canonical_image, which lists neither W nor the
    orbit."""
    systems = [("A", n) for n in range(2, 6)] + [("D", n) for n in range(4, 11)] + [("E", 6), ("E", 7)]
    if slow:
        systems.append(("E", 8))

    def fn():
        for series, rank in systems:
            system = build_root_system(series, rank)
            subsets = pi_node_subsets(enhanced_basis(system))
            label_to_orbit: dict = {}
            orbit_to_label: dict = {}
            for subset in subsets:
                label = orbit_label(RootSet(system, subset))
                oid = canonical_image(system, subset)[0]
                if label_to_orbit.setdefault(label, oid) != oid:
                    return False, f"label splits an orbit in {series}{rank}"
                if orbit_to_label.setdefault(oid, label) != label:
                    return False, f"two labels share an orbit in {series}{rank}"
        return True, f"orbit partitions equal the oracle on {len(systems)} systems"

    return _run("5 small-rank classification vs oracle", 300.0, fn)


# -- criterion 6: E7/E8 special tables ------------------------------------------


E7_TABLE = {
    ("3A1", 0): ["2", "5", "7"],
    ("3A1", 1): ["3", "5", "7"],
    ("A3+A1", 0): ["5", "6", "7", "2"],
    ("A3+A1", 1): ["5", "6", "7", "3"],
    ("A5", 0): ["2", "4", "5", "6", "7"],
    ("A5", 1): ["3", "4", "5", "6", "7"],
    ("4A1", 0): ["3", "5", "7", "l4"],
    ("4A1", 1): ["2", "5", "7", "l4"],
    ("A3+2A1", 0): ["5", "6", "7", "3", "l4"],
    ("A3+2A1", 1): ["5", "6", "7", "2", "l4"],
    ("A5+A1", 0): ["3", "4", "5", "6", "7", "l4"],
    ("A5+A1", 1): ["2", "4", "5", "6", "7", "l4"],
}

E8_TABLE = {
    ("4A1", 0): ["2", "5", "7", "l5"],
    ("4A1", 1): ["3", "5", "7", "l5"],
    ("A3+2A1", 0): ["7", "8", "l5", "5", "2"],
    ("A3+2A1", 1): ["7", "8", "l5", "5", "3"],
    ("2A3", 0): ["7", "8", "l5", "2", "4", "5"],
    ("2A3", 1): ["7", "8", "l5", "3", "4", "5"],
    ("A5+A1", 0): ["5", "6", "7", "8", "l5", "2"],
    ("A5+A1", 1): ["5", "6", "7", "8", "l5", "3"],
    ("A7", 0): ["2", "4", "5", "6", "7", "8", "l5"],
    ("A7", 1): ["3", "4", "5", "6", "7", "8", "l5"],
}


def check_special_orbits() -> Result:
    def fn():
        for rank, table, expected in ((7, E7_TABLE, 12), (8, E8_TABLE, 10)):
            system = build_root_system("E", rank)
            eb = enhanced_basis(system)
            orbits = enumerate_pi_orbits(system)
            special = [l for l, _ in orbits if l.kind == "ep"]
            if len(special) != expected:
                return False, f"E{rank} has {len(special)} special orbits"
            for (ttext, par), labels in table.items():
                got = orbit_label(RootSet(system, eb.subset(labels)))
                if got.kind != "ep" or got.type_text != ttext or got.data[1] != par:
                    return False, f"E{rank} {ttext} parity {par} misread as {got}"
        return True, "12 + 10 special orbits with the expected parities"

    return _run("6 special orbit tables (E7, E8)", 60.0, fn)


# -- criterion 7: worked examples -------------------------------------------------


def check_worked_examples() -> Result:
    def fn():
        e8 = build_root_system("E", 8)
        eb8 = enhanced_basis(e8)
        src = ["2", "4", "5", "6", "7", "8", "l5"]
        dst = ["3", "1", "l1", "l2", "2", "l7", "l5"]
        emb = EmbeddingMap(
            e8, {eb8.node(a): eb8.node(b) for a, b in zip(src, dst)}
        )
        dec = is_weyl_embedding(emb)
        if dec.is_weyl or "parity mismatch" not in (dec.reason or ""):
            return False, f"E8 example gave {dec}"
        e7 = build_root_system("E", 7)
        eb7 = enhanced_basis(e7)
        src = ["7", "6", "l3", "4"]
        dst = ["1", "3", "4", "6"]
        emb7 = EmbeddingMap(
            e7, {eb7.node(a): eb7.node(b) for a, b in zip(src, dst)}
        )
        dec7 = is_weyl_embedding(emb7)
        if not dec7.is_weyl:
            return False, "E7 example not recognized as Weyl"
        perm = perm_from_word(e7, dec7.witness_word)
        for a, b in zip(src, dst):
            if e7.proj_rep(perm[eb7.node(a)]) != eb7.node(b):
                return False, "E7 witness replay failed"
        return True, "E8 rejects by parity, E7 witness replays on roots"

    return _run("7 worked membership examples", 20.0, fn)


# -- criterion 8: order graphs -----------------------------------------------------


E7_ORDER_EDGES = {
    ("[A5+A1]^0", "[A3+2A1]^0"), ("[A3+2A1]^0", "[4A1]^0"),
    ("[A5]^1", "[A3+A1]^1"), ("[A3+A1]^1", "[3A1]^1"),
    ("[A5+A1]^1", "[A3+2A1]^1"), ("[A3+2A1]^1", "[4A1]^1"),
    ("[A5]^0", "[A3+A1]^0"), ("[A3+A1]^0", "[3A1]^0"),
    ("[A5+A1]^0", "[A5]^1"), ("[A3+2A1]^0", "[A3+A1]^1"), ("[4A1]^0", "[3A1]^1"),
    ("[A3+2A1]^1", "[A3+A1]^1"), ("[4A1]^1", "[3A1]^1"),
    ("[A5+A1]^1", "[A5]^0"), ("[A3+2A1]^1", "[A3+A1]^0"), ("[4A1]^1", "[3A1]^0"),
}

E8_ORDER_EDGES = {
    (f"[A7]^{i}", f"[2A3]^{i}") for i in (0, 1)
} | {
    (f"[A7]^{i}", f"[A5+A1]^{i}") for i in (0, 1)
} | {
    (f"[2A3]^{i}", f"[A3+2A1]^{i}") for i in (0, 1)
} | {
    (f"[A5+A1]^{i}", f"[A3+2A1]^{i}") for i in (0, 1)
} | {
    (f"[A3+2A1]^{i}", f"[4A1]^{i}") for i in (0, 1)
}


def _child_nodes(nodes: tuple[int, ...], x: int, theta: int | None) -> tuple[int, ...]:
    """The sorted projective nodes of the child (x, theta) of nodes."""
    rest = [v for v in nodes if v != x]
    if theta is not None:
        rest.append(theta)
    return tuple(sorted(rest))


def descent_lower_sets(system) -> dict:
    """Every orbit reached by descending from the simple basis of the
    system through maximal subsystems, each mapped to its lower set: label
    -> frozenset of labels.  Every child is named by orbit_label; the walk
    over Pi-subsets is not run."""
    top = system.projective(system.simple_basis)
    ids: dict = {orbit_label(RootSet(system, top)): 0}
    children: list[int] = []
    pending = [top]
    while len(children) < len(pending):
        nodes = pending[len(children)]
        below = 0
        for x, theta in _maximal_children(system, nodes):
            child = _child_nodes(nodes, x, theta)
            label = orbit_label(RootSet(system, child))
            if label not in ids:
                ids[label] = len(pending)
                pending.append(child)
            below |= 1 << ids[label]
        children.append(below & ~(1 << len(children)))
    return _label_sets(list(ids), _lower_bits(children))


def _orbits_lower_sets(system) -> dict:
    """The library's lower sets, label -> frozenset of labels."""
    found = _orbits(system)
    return _label_sets(found.orbits, found.lower)


def whole_walk_orbits(system) -> dict:
    """Every label of the walk over Pi-subsets run to its end, with the
    first subset that carries it: label -> least representative."""
    walk = _PiWalk(system)
    first: dict = {}
    walk.run(lambda mask, code, *_: first.setdefault(code, mask))
    labels = list(walk.index)
    return {labels[c]: _mask_nodes(walk.nodes, m) for c, m in first.items()}


def _label_sets(labels, lower) -> dict:
    """labels[i] -> the frozenset of the labels in the bitset lower[i]."""
    return {
        labels[i]: frozenset(labels[k] for k in range(bits.bit_length()) if bits >> k & 1)
        for i, bits in enumerate(lower)
    }


def check_order_graphs() -> Result:
    def fn():
        # The paper's central claim: the enhanced diagram holds a member of
        # every orbit of Pi-systems.  The descent from the simple basis
        # reaches every orbit below the whole system, so _orbits (its own
        # descent, then a pruned walk) must give exactly its orbits and
        # order; and the walk run to its end must find no further label
        # and the same least representatives.
        for series, rank in (("E", 7), ("E", 8), ("D", 10)):
            system = build_root_system(series, rank)
            if descent_lower_sets(system) != _orbits_lower_sets(system):
                return False, f"{series}{rank}: the descent from the simple basis and the walk differ"
            if whole_walk_orbits(system) != dict(enumerate_pi_orbits(system)):
                return False, f"{series}{rank}: the walk run to its end finds other orbits"
        for rank, expected in ((7, E7_ORDER_EDGES), (8, E8_ORDER_EDGES)):
            system = build_root_system("E", rank)
            special = [l for l, _ in enumerate_pi_orbits(system) if l.kind == "ep"]
            h = hasse_diagram(system, special)
            got = {(a.render(), b.render()) for a, b in h.edges}
            if got != expected:
                return False, f"E{rank} special order graph differs: {got ^ expected}"
        e8 = build_root_system("E", 8)
        orbits = dict(enumerate_pi_orbits(e8))
        e6_label = next(l for l in orbits if l.type_text == "E6" and l.kind == "plain")
        four0 = next(l for l in orbits if l.render() == "[4A1]^0")
        four1 = next(l for l in orbits if l.render() == "[4A1]^1")
        if not order_between_orbits(four0, e6_label, e8):
            return False, "[4A1]^0 should lie below E6"
        if order_between_orbits(four1, e6_label, e8) or order_between_orbits(
            e6_label, four1, e8
        ):
            return False, "[4A1]^1 should be incomparable with E6"
        return True, (
            "E7/E8/D10 orbits and order by descent from the simple basis"
            " and by the walk run to its end,"
            " E7/E8 special order graphs and the E6 comparability example"
        )

    return _run("8 order graphs", 120.0, fn)


# -- criterion 9: property suites ---------------------------------------------------


def check_property_suites(seed: int = 0, embeddings_per_system: int = 1000) -> Result:
    def fn():
        # Reflection closure of every system: full scan over all pairs
        # (reflect raises if an image were to leave the root list).
        for series, rank in SMALL:
            system = build_root_system(series, rank)
            n = len(system.roots)
            for j in range(n):
                for i in range(n):
                    system.reflect(i, j)
        # Completion monotonicity on random nested subsets, rank <= 6.
        rng = random.Random(seed)
        for series, rank in [("A", 4), ("D", 4), ("D", 5), ("D", 6), ("E", 6)]:
            system = build_root_system(series, rank)
            n = len(system.roots)
            for _ in range(10):
                y = rng.sample(range(n), rng.randint(2, min(8, n)))
                x = rng.sample(y, rng.randint(1, len(y)))
                cx = set(complete(RootSet(system, tuple(x))).members)
                cy = set(complete(RootSet(system, tuple(y))).members)
                if not cx <= cy:
                    return False, f"completion not monotone in {series}{rank}"
        # Uniform moset cardinality by exhaustive enumeration, rank <= 6.
        for series, rank in [(s, r) for s, r in SMALL if r <= 6]:
            system = build_root_system(series, rank)
            target = MU_TABLE[(series, rank)]
            sizes = {len(m) for m in all_mosets(system)}
            if sizes != {target}:
                return False, f"moset sizes {sizes} in {series}{rank}"
        # Witness replay soundness on randomized embeddings.
        for series, rank in SMALL:
            system = build_root_system(series, rank)
            eb = enhanced_basis(system)
            subsets = [s for s in pi_node_subsets(eb) if s]
            gens = simple_reflection_perms(system)
            for _ in range(embeddings_per_system):
                subset = rng.choice(subsets)
                w = identity_perm(system)
                for _ in range(rng.randint(0, 6)):
                    w = compose(rng.choice(gens), w)
                emb = EmbeddingMap(
                    system, {n: system.proj_rep(w[n]) for n in subset}
                )
                dec = is_weyl_embedding(emb)
                if not dec.is_weyl:
                    return False, f"true embedding rejected in {series}{rank}"
                perm = perm_from_word(system, dec.witness_word)
                for n in subset:
                    if system.proj_rep(perm[n]) != system.proj_rep(w[n]):
                        return False, f"witness replay failed in {series}{rank}"
        return True, "closure, monotonicity, moset sizes, witness replays"

    return _run("9 property suites", None, fn)


def run_all(
    slow: bool = False, seed: int = 0, embeddings: int = 1000, cap: int = DEFAULT_CAP
) -> list[Result]:
    checks = [
        check_moset_cardinalities(),
        check_complement_types(),
        check_core_orders(),
        check_core_stabilizer_agreement(slow=slow, cap=cap),
        check_enhanced_diagrams(),
        check_small_rank_exactness(slow=slow),
        check_special_orbits(),
        check_worked_examples(),
        check_order_graphs(),
        check_property_suites(seed=seed, embeddings_per_system=embeddings),
    ]
    return checks
