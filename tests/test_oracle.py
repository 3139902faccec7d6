import gc
import hashlib
import random
import time
from math import prod

import pytest

from rootforge import (
    RootSet,
    build_root_system,
    enhanced_basis,
    enumerate_weyl,
    set_stabilizer,
    subsystem_generated,
)
from rootforge import oracle
from rootforge.classify import pi_node_subsets
from rootforge.errors import CapExceeded, InvariantViolation, MixedAmbient, NoSuchRoot
from rootforge.mosets import all_mosets
from rootforge.oracle import (
    canonical_image,
    compose,
    identity_perm,
    induced_action,
    orbit_id_map,
    perm_from_word,
    reflection_perm,
    simple_reflection_perms,
    weyl_order_by_degrees,
)

from oracle_reference import sorted_bytes_orbit


def test_weyl_orders():
    for label, order in [(("A", 2), 6), (("A", 3), 24), (("D", 4), 192), (("D", 5), 1920), (("E", 6), 51840)]:
        assert len(enumerate_weyl(build_root_system(*label))) == order == weyl_order_by_degrees(*label)


def test_cap():
    with pytest.raises(CapExceeded):
        enumerate_weyl(build_root_system("D", 5), cap=100)


def test_cap_is_checked_once_a_level_against_the_whole_group():
    # The closure checks its cap after each level, so a cap equal to the
    # order passes and one below it raises, whichever level overflows.
    d4 = build_root_system("D", 4)
    assert len(enumerate_weyl(d4, cap=192)) == 192
    with pytest.raises(CapExceeded):
        enumerate_weyl(d4, cap=191)


def test_every_cap_defaults_to_the_one_constant():
    # Only listing W takes a cap; orbit sizes are counted, not listed.
    import inspect

    from rootforge import verification

    for fn in (
        oracle.enumerate_weyl,
        verification.check_core_stabilizer_agreement,
        verification.run_all,
    ):
        assert inspect.signature(fn).parameters["cap"].default == oracle.DEFAULT_CAP, fn.__name__


def test_enumeration_restores_the_collector_state():
    a3 = build_root_system("A", 3)
    enumerate_weyl(a3)
    assert gc.isenabled()
    gc.disable()
    try:
        enumerate_weyl(a3)
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "label", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5), ("D", 6), ("E", 6)]
)
def test_enumeration_matches_the_closure_reference(label):
    # The product of coset transversals against the breadth-first closure
    # it replaced.  E6's basis order makes W_5 = W(D5), so its chain passes
    # through a D step.
    from oracle_reference import closure_weyl

    s = build_root_system(*label)
    assert [w.perm for w in enumerate_weyl(s)] == closure_weyl(s, oracle.DEFAULT_CAP)


@pytest.mark.parametrize(
    "label, sizes",
    [
        (("A", 5), [2, 3, 4, 5, 6]),
        (("D", 6), [2, 2, 6, 8, 10, 12]),
        (("E", 6), [2, 2, 6, 8, 10, 27]),
        (("E", 7), [2, 2, 6, 8, 10, 12, 126]),
        (("E", 8), [2, 2, 6, 8, 10, 12, 14, 2160]),
    ],
)
def test_transversal_sizes_multiply_to_the_group_order(label, sizes):
    # |X_k| = |W_k| / |W_{k-1}| along the chain of the basis order, so the
    # sizes multiply to |W|, and a cap of |W| - 1 is refused; each X_k
    # starts at the identity and holds distinct elements.
    s = build_root_system(*label)
    order = weyl_order_by_degrees(*label)
    transversals = oracle._transversals(s, order)
    assert [len(x) for x in transversals] == sizes
    assert prod(sizes) == order
    for x in transversals:
        assert x[0] == identity_perm(s) and len(set(x)) == len(x)
    with pytest.raises(CapExceeded):
        oracle._transversals(s, order - 1)


def test_e8_enumeration_refuses_before_building_an_element():
    # |W(E8)| = 696,729,600 exceeds the default cap; the transversals show
    # it before any element is built.
    e8 = build_root_system("E", 8)
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="W\\(E8\\) has more than cap"):
        enumerate_weyl(e8)
    assert time.perf_counter() - start < 2


def test_stabilizer_filter_matches_its_definition():
    # The filter in C against the image of each element, on seeded subsets
    # with negative roots, single roots and the empty set; elements may
    # come as any iterable.
    rng = random.Random(27)
    for label in [("A", 3), ("D", 4), ("D", 5)]:
        s = build_root_system(*label)
        elements = enumerate_weyl(s)
        for size in range(5):
            for _ in range(3):
                subset = rng.sample(range(len(s.roots)), size)
                base = {s.proj_rep(i) for i in subset}
                expected = [w for w in elements if {s.proj_rep(w.perm[i]) for i in base} == base]
                assert set_stabilizer(s, subset, elements) == expected
                assert set_stabilizer(s, subset, iter(elements)) == expected


def test_d4_moset_orbit_size():
    # The walked orbit of a D4 moset is the three mosets of D4.
    d4 = build_root_system("D", 4)
    mosets = all_mosets(d4)
    orbit = sorted_bytes_orbit(d4, oracle._key(d4, mosets[0]), oracle.DEFAULT_CAP)
    assert {frozenset(m) for m in orbit} == {frozenset(m) for m in mosets}
    assert canonical_image(d4, mosets[0]) == (tuple(min(orbit)), 3)


def test_compose_matches_its_definition():
    rng = random.Random(8)
    for label in [("A", 3), ("E", 6), ("E", 8)]:
        s = build_root_system(*label)
        gens = simple_reflection_perms(s)
        outer, inner = identity_perm(s), identity_perm(s)
        for _ in range(30):
            outer = bytes(outer[x] for x in rng.choice(gens))
            inner = bytes(rng.choice(gens)[x] for x in inner)
            assert compose(outer, inner) == bytes(outer[x] for x in inner)


def test_mismatched_permutations_raise_typed_error():
    a2, a3 = build_root_system("A", 2), build_root_system("A", 3)
    p2, p3 = identity_perm(a2), identity_perm(a3)
    with pytest.raises(MixedAmbient):
        compose(p2, p3)
    with pytest.raises(MixedAmbient):
        compose(p3, p2)
    with pytest.raises(MixedAmbient):
        set_stabilizer(a3, a3.simple_basis, enumerate_weyl(a2))
    with pytest.raises(MixedAmbient):
        set_stabilizer(a2, a2.simple_basis, enumerate_weyl(a3))


@pytest.mark.parametrize(
    "label, weyl, stabilizer, orbits, keys",
    [
        (("D", 6), "2291f774e8c14950", "b11ddb8524bf09f5", "437ed4703fca1c45", 57495),
        (("E", 6), "9e2fe437a1be94e0", "6e81f3f2d4dac6de", "0336b7e3ecfa39e5", 133101),
    ],
)
def test_oracle_outputs_are_pinned(label, weyl, stabilizer, orbits, keys):
    # sha256 prefixes of the outputs of the per-root oracle this one replaced
    def digest(text):
        return hashlib.sha256(text).hexdigest()[:16]

    s = build_root_system(*label)
    eb = enhanced_basis(s)
    elements = enumerate_weyl(s)
    assert digest(b"".join(w.perm for w in elements)) == weyl
    stab = set_stabilizer(s, eb.moset, elements)
    assert digest(b"".join(w.perm for w in stab)) == stabilizer
    # the (member, id) pairs of every Pi-subset's orbit, walked, each walk
    # of the canonical image's size and least member
    items = []
    for key, orbit in _walked_orbits(s, pi_node_subsets(eb)).items():
        oid, size = canonical_image(s, key)
        assert (tuple(min(orbit)), len(orbit)) == (oid, size), key
        items += [(tuple(member), oid) for member in orbit]
    assert len(items) == keys
    assert digest(repr(sorted(items)).encode()) == orbits


@pytest.mark.parametrize("label", [("A", 4), ("D", 4), ("D", 5)])
def test_orbit_map_reads_like_a_frozenset_dict(label):
    # One frozenset key per given subset, read as its projective
    # representatives; its id is the least member of its walked orbit.
    s = build_root_system(*label)
    subsets = pi_node_subsets(enhanced_basis(s))
    ids = orbit_id_map(s, subsets)
    assert all(type(k) is frozenset for k in ids)
    assert set(ids) == {frozenset(s.projective(subset)) for subset in subsets}
    for subset in subsets:
        orbit = sorted_bytes_orbit(s, oracle._key(s, subset), oracle.DEFAULT_CAP)
        assert ids[frozenset(s.proj_rep(i) for i in subset)] == tuple(min(orbit))
    off = next(i for i in range(len(s.roots)) if s.proj_rep(i) != i)
    absent = [frozenset({off}), frozenset({256}), frozenset({-1}), frozenset({1.5}), frozenset({0, 256})]
    for key in absent:
        assert key not in ids
        assert ids.get(key) is None
        with pytest.raises(KeyError):
            ids[key]


def test_elements_preserve_pairings():
    rng = random.Random(2)
    s = build_root_system("D", 4)
    elements = enumerate_weyl(s)
    n = len(s.roots)
    for w in elements:
        for _ in range(4):
            i, j = rng.randrange(n), rng.randrange(n)
            assert s.cartan(i, j) == s.cartan(w.perm[i], w.perm[j])


def test_oracle_keys_refuse_raw_indices_that_are_no_roots():
    # Each oracle entry point keys its subset on root indices: a negative
    # index would fail to pack into bytes, one past the table would raise
    # IndexError and a float TypeError.
    e7 = build_root_system("E", 7)
    for subset in [(-1,), (999,), (1.5,), (0, 126)]:
        with pytest.raises(NoSuchRoot):
            canonical_image(e7, subset)
        with pytest.raises(NoSuchRoot):
            orbit_id_map(e7, [(0,), subset])
        with pytest.raises(NoSuchRoot):
            set_stabilizer(e7, subset, [])


def test_stabilizers():
    d4 = build_root_system("D", 4)
    elements = enumerate_weyl(d4)
    full = set_stabilizer(d4, tuple(range(len(d4.roots))), elements)
    assert len(full) == len(elements)
    moset = all_mosets(d4)[0]
    stab = set_stabilizer(d4, moset, elements)
    assert len(induced_action(d4, moset, stab)) == 4


def test_all_bases_conjugate_small():
    # every Weyl image of the simple basis is again a basis, and the orbit
    # of the basis covers every basis obtained from Pi-systems of full rank
    for label in [("A", 3), ("D", 4)]:
        s = build_root_system(*label)
        orbit = sorted_bytes_orbit(s, oracle._key(s, s.simple_basis), oracle.DEFAULT_CAP)
        from itertools import combinations

        from rootforge import is_pi_system

        count = 0
        for combo in combinations(range(len(s.roots)), s.rank):
            rs = RootSet(s, combo)
            if not is_pi_system(rs):
                continue
            if len(subsystem_generated(rs)) != len(s.roots):
                continue
            count += 1
            assert frozenset(s.proj_rep(i) for i in combo) in {
                frozenset(x) for x in orbit
            } or any(
                frozenset(s.proj_rep(i) for i in combo) == frozenset(o)
                for o in orbit
            )
        assert count > 0


def test_all_roots_conjugate_small():
    for label in [("A", 3), ("D", 4), ("D", 5)]:
        s = build_root_system(*label)
        elements = enumerate_weyl(s)
        images = {w.perm[0] for w in elements}
        assert images == set(range(len(s.roots)))


def test_point_stabilizer_generated_by_orthogonal_reflections():
    for label in [("A", 3), ("D", 4)]:
        s = build_root_system(*label)
        elements = enumerate_weyl(s)
        alpha = s.simple_basis[0]
        stab = [w for w in elements if w.perm[alpha] == alpha]
        orth = [
            g
            for g in range(len(s.roots))
            if s.cartan(g, alpha) == 0 and s.proj_rep(g) == g
        ]
        # closure of reflections orthogonal to alpha
        gens = [reflection_perm(s, g) for g in orth]
        seen = {identity_perm(s)}
        frontier = list(seen)
        while frontier:
            new = []
            for w in frontier:
                for g in gens:
                    x = compose(g, w)
                    if x not in seen:
                        seen.add(x)
                        new.append(x)
            frontier = new
        assert seen == {w.perm for w in stab}


def test_extended_basis_node_moving_elements():
    # for an extended basis, deleting two different nodes that leave bases
    # admits a Weyl element preserving the set and moving one node to the other
    from rootforge import extended_pi_system, is_pi_system

    for label in [("A", 2), ("A", 3)]:
        s = build_root_system(*label)
        ext = extended_pi_system(RootSet(s, s.simple_basis))
        elements = enumerate_weyl(s)
        ext_proj = frozenset(s.proj_rep(i) for i in ext.members)
        nodes = sorted(ext_proj)
        stab = [
            w
            for w in elements
            if frozenset(s.proj_rep(w.perm[i]) for i in nodes) == ext_proj
        ]
        for a in nodes:
            for b in nodes:
                rest_a = tuple(x for x in ext.members if s.proj_rep(x) != a)
                rest_b = tuple(x for x in ext.members if s.proj_rep(x) != b)
                if is_pi_system(RootSet(s, rest_a)) and is_pi_system(
                    RootSet(s, rest_b)
                ):
                    assert any(s.proj_rep(w.perm[a]) == b for w in stab)


def test_words_compose_in_application_order():
    s = build_root_system("A", 2)
    i, j = s.simple_basis
    w = perm_from_word(s, (i, j))  # s_i applied first, then s_j
    x = s.reflect(s.reflect(0, i), j)
    assert w[0] == x


def test_reflection_perm_belongs_to_its_system():
    # Systems built directly are freed between calls, so a new one can
    # take the address of the last; its permutations must still be its own.
    from rootforge.rootsystem import RootSystem

    roots = {rank: list(build_root_system("A", rank).roots) for rank in (3, 4)}

    def perm_length(rank):
        s = RootSystem("A", rank, roots[rank], rank + 1)
        return len(reflection_perm(s, 0)), len(s.roots)

    for i in range(40):
        got, expected = perm_length(3 + i % 2)
        assert got == expected


def test_permutations_beyond_a_byte_raise_typed_error():
    # Permutations are packed into bytes; D12 (264 roots) does not fit.
    # Membership replays its witness on roots and answers there.
    from rootforge import EmbeddingMap, enhanced_basis, is_weyl_embedding
    from rootforge.errors import Unsupported

    d12 = build_root_system("D", 12)
    with pytest.raises(Unsupported, match="256"):
        identity_perm(d12)
    with pytest.raises(Unsupported, match="256"):
        reflection_perm(d12, 0)
    node = enhanced_basis(d12).nodes[0]
    decision = is_weyl_embedding(EmbeddingMap(d12, {node: node}))
    assert decision.is_weyl
    with pytest.raises(Unsupported, match="256"):
        decision.witness_perm(d12)
    assert len(identity_perm(build_root_system("E", 8))) == 240


def _walked_orbits(system, subsets):
    # one sorted-bytes key per orbit met among the subsets, with its orbit
    # walked by the reference
    orbits, seen = {}, set()
    for subset in subsets:
        key = oracle._key(system, subset)
        if key not in seen:
            orbits[key] = sorted_bytes_orbit(system, key, oracle.DEFAULT_CAP)
            seen |= orbits[key]
    return orbits


@pytest.mark.parametrize(
    "label, order",
    [
        (("A", 1), 2 // 2),
        (("A", 4), 120),
        (("D", 4), 192 // 2),
        (("D", 5), 1920),
        (("E", 6), 51840),
        (("E", 7), 2903040 // 2),
        (("E", 8), 696729600 // 2),
    ],
)
def test_tree_root_order_is_w_over_w_and_minus_one(label, order):
    # The points are projective roots, so -1 acts trivially: the root's
    # order is |W|/2 when every degree is even, else |W|.  The Schreier-Sims
    # run at the root must agree, and a node whose order disagrees raises.
    s = build_root_system(*label)
    tree = oracle._tree(s)
    assert tree.order == order
    assert tree.order in (weyl_order_by_degrees(*label), weyl_order_by_degrees(*label) // 2)
    assert tree.child(0).order * tree.least.count(0) == order
    with pytest.raises(InvariantViolation):
        oracle._Node(tree.gens, 2 * order, len(tree.least)).child(0)


@pytest.mark.parametrize("label", [("A", 4), ("D", 4), ("D", 5), ("E", 6)])
def test_canonical_image_is_the_least_image_over_the_whole_group(label):
    s = build_root_system(*label)
    elements = enumerate_weyl(s)
    proj = oracle._proj_table(s)
    rng = random.Random(26)
    for size in range(1, 5):
        for _ in range(3):
            key = oracle._key(s, rng.sample(range(len(s.roots)), size))
            images = {
                bytes(sorted(set(key.translate(oracle._table(w.perm)).translate(proj)))) for w in elements
            }
            expected = (tuple(min(images)), len(images))
            assert canonical_image(s, key) == expected, (s.name, key)
            assert canonical_image(s, max(images)) == expected, (s.name, key)


@pytest.mark.parametrize("label", [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5), ("D", 6), ("E", 6)])
def test_tree_orbit_size_is_the_walked_size_on_every_pi_subset(label):
    s = build_root_system(*label)
    subsets = pi_node_subsets(enhanced_basis(s))
    for key, orbit in _walked_orbits(s, subsets).items():
        assert canonical_image(s, key) == (tuple(min(orbit)), len(orbit)), (s.name, key)


def test_position_walk_matches_the_sorted_bytes_walk():
    # The canonical image and orbit size against the sorted-bytes walk, on
    # every Pi-subset orbit of the small systems and on seeded random
    # subsets, negative roots among them.
    rng = random.Random(24)
    cases = []
    for label in [("A", 4), ("D", 4), ("D", 5), ("D", 6), ("E", 6)]:
        s = build_root_system(*label)
        cases += [(s, *walked) for walked in _walked_orbits(s, pi_node_subsets(enhanced_basis(s))).items()]
    for label, sizes in [(("D", 5), 4), (("E", 6), 4), (("E", 7), 2), (("E", 8), 2)]:
        s = build_root_system(*label)
        for size in range(1, sizes + 1):
            for _ in range(4):
                key = oracle._key(s, rng.sample(range(len(s.roots)), size))
                cases.append((s, key, sorted_bytes_orbit(s, key, oracle.DEFAULT_CAP)))
    for s, key, orbit in cases:
        assert canonical_image(s, key) == (tuple(min(orbit)), len(orbit)), (s.name, key)
    assert len(cases) > 120


def test_e6_root_orbit_size():
    # E6's roots form one orbit of 36 projective roots.
    e6 = build_root_system("E", 6)
    root = (e6.simple_basis[0],)
    assert canonical_image(e6, root)[1] == 36
    assert len(orbit_id_map(e6, [root])) == 1


def test_orbit_walks_beyond_a_byte_raise_typed_error():
    # D17 has 272 positive roots: the tree's points do not fit in a byte.
    from rootforge.errors import Unsupported

    d17 = build_root_system("D", 17)
    root = (d17.simple_basis[0],)
    with pytest.raises(Unsupported, match="256"):
        canonical_image(d17, root)
    with pytest.raises(Unsupported, match="256"):
        orbit_id_map(d17, [root])


@pytest.mark.parametrize("label, labels", [(("D", 12), 423), (("A", 16), 296)])
def test_label_representatives_have_distinct_canonical_images_past_255_roots(label, labels):
    # D12 has 264 roots and A16 272, past a byte's 256 root indices, but
    # their 132 and 136 positive roots fit: the tree reaches them.  Distinct
    # labels have distinct canonical images, so they are not conjugate, and
    # a seeded conjugate of each representative keeps its image.
    from rootforge.classify import enumerate_pi_orbits

    s = build_root_system(*label)
    rng = random.Random(27)
    images = set()
    for _, rep in enumerate_pi_orbits(s):
        moved = rep
        for _ in range(8):
            j = rng.choice(s.simple_basis)
            moved = [s.reflect(r, j) for r in moved]
        assert canonical_image(s, moved) == canonical_image(s, rep), rep
        images.add(canonical_image(s, rep)[0])
    assert len(images) == labels
