import functools
import random
from itertools import combinations, permutations

import pytest

from rootforge import (
    EmbeddingMap,
    RootSet,
    are_conjugate,
    build_root_system,
    dn_tag,
    enhanced_basis,
    enumerate_pi_orbits,
    hasse_diagram,
    is_pi_system,
    is_weyl_embedding,
    moset_embedding,
    orbit_label,
    order_between_orbits,
    parity_of_orthogonal,
    perfect_moset,
    significant_part,
)
from rootforge.classify import pi_node_subsets, pi_type, subsystem_type
from rootforge.errors import MixedAmbient, NoSuchRoot, NotEmbedding, NotOrthogonal, NotPiSystem
from rootforge.oracle import (
    compose,
    enumerate_weyl,
    identity_perm,
    orbit_id_map,
    perm_from_word,
    simple_reflection_perms,
)
from rootforge.verification import SMALL


def test_significant_part():
    e7 = build_root_system("E", 7)
    eb = enhanced_basis(e7)
    # A3 + A2: keep the A3
    sub = eb.subset(["5", "6", "7", "1", "3"])
    sig = significant_part(RootSet(e7, sub))
    assert pi_type(e7, sig.members).render() == "A3"
    # D4 alone: empty
    d4_nodes = eb.subset(["2", "3", "4", "5"])
    assert significant_part(RootSet(e7, d4_nodes)).members == ()
    # 4A1 is entirely significant
    four = eb.subset(["2", "5", "7", "l4"])
    assert significant_part(RootSet(e7, four)).members == tuple(sorted(four))


def test_dn_tag_statistics():
    d6 = build_root_system("D", 6)
    eb = enhanced_basis(d6)
    thick = RootSet(d6, eb.subset(["1", "1'"]))
    t = dn_tag(thick)
    assert (t.d2, t.d3, t.thin) == (1, 0, False)
    thick_a3 = RootSet(d6, eb.subset(["1", "2", "1'"]))
    t = dn_tag(thick_a3)
    assert (t.d2, t.d3) == (1, 1)
    thin = RootSet(d6, eb.subset(["1", "3", "5"]))
    t = dn_tag(thin)
    assert (t.d2, t.d3, t.thin, t.width, t.distinguished, t.side) == (
        0, 0, True, 6, True, 0,
    )
    flipped = RootSet(d6, eb.subset(["1'", "3", "5"]))
    assert dn_tag(flipped).side == 1
    narrow = RootSet(d6, eb.subset(["1", "3"]))
    t = dn_tag(narrow)
    assert t.thin and t.width == 4 and not t.distinguished
    # distinguished sets exist only for even rank
    d5 = build_root_system("D", 5)
    eb5 = enhanced_basis(d5)
    for subset in pi_node_subsets(eb5):
        assert not dn_tag(RootSet(d5, subset)).distinguished


def test_d_counts_agree_with_the_reference():
    # The walk and dn_tag fold dstep over int masks; the reference counts
    # pairs directly.  Weyl images of the Pi-subsets lie off the diagram.
    from dn_reference import dn_counts
    from rootforge.classify import _PiWalk, _apply, _mask_nodes

    rng = random.Random(15)
    for rank in range(4, 11):
        s = build_root_system("D", rank)
        walk, seen = _PiWalk(s), []
        walk.run(lambda mask, code, comps, multiset, d2, d3, width: seen.append((mask, (d2, d3, width.bit_count()))))
        subsets = []
        for mask, counts in seen:
            nodes = _mask_nodes(walk.nodes, mask)
            tag = dn_tag(RootSet(s, nodes))
            assert counts == (tag.d2, tag.d3, tag.width) == dn_counts(s, nodes), (s.name, nodes)
            subsets.append(nodes)
        for nodes in rng.choices(subsets, k=300):
            word = [rng.randrange(len(s.roots)) for _ in range(rng.randint(1, 8))]
            image = s.projective(_apply(s, word, n) for n in nodes)
            tag = dn_tag(RootSet(s, image))
            assert (tag.d2, tag.d3, tag.width) == dn_counts(s, image), (s.name, image)


# The systems whose descent places highest roots past the enhanced
# diagram on the walk's view: E8 2 of them, D9 3, D11 4 and D13 5.
GROWN_SYSTEMS = [("D", 9), ("D", 11), ("D", 13), ("E", 8)]


def _grown_walk(series, rank):
    # A walk after its descent, on a system of its own: the view holds
    # the enhanced diagram's nodes, then the nodes the descent placed.
    from rootforge.classify import _PiWalk, _descent
    from rootforge.rootsystem import RootSystem

    reference = build_root_system(series, rank)
    walk = _PiWalk(RootSystem(series, rank, list(reference.roots), reference.ambient_dim))
    _descent(walk)
    return walk


def test_views_in_any_placement_order_read_the_same_sets():
    # Placement order moves positions only: on views of the same nodes
    # placed in seeded random orders, random node sets have the D counts
    # of the reference and the components and type of the sorted view.
    from dn_reference import dn_counts
    from rootforge.diagrams import _NodeView
    from rootforge.rootsystem import _bits

    rng = random.Random(20)
    for series, rank in GROWN_SYSTEMS:
        walk = _grown_walk(series, rank)
        s, nodes = walk.system, sorted(walk.nodes)
        ordered = _NodeView(s, nodes)
        pi_sets = 0
        for _ in range(3):
            order = nodes[:]
            rng.shuffle(order)
            view = _NodeView(s, order)
            for _ in range(150):
                subset = sorted(rng.sample(nodes, rng.randint(1, rank)))
                comps, multiset = view.split(sum(1 << view.position[v] for v in subset))
                o_comps, o_multiset = ordered.split(sum(1 << ordered.position[v] for v in subset))
                as_sets = lambda v, cs: {frozenset(v.nodes[i] for i in _bits(c)) for c in cs}
                assert as_sets(view, comps) == as_sets(ordered, o_comps), (s.name, subset)
                assert (multiset is None) == (o_multiset is None), (s.name, subset)
                if multiset is not None:
                    pi_sets += 1
                    assert view.type_of(multiset) == ordered.type_of(o_multiset), (s.name, subset)
                if series == "D":
                    d2, d3, width = view.dcounts(sum(1 << view.position[v] for v in subset))
                    assert (d2, d3, width.bit_count()) == dn_counts(s, subset), (s.name, subset)
        assert pi_sets >= 50, (s.name, pi_sets)


def test_descent_places_nodes_as_a_fresh_view_would():
    # The tables the descent grows equal those of a view built from the
    # grown node list at once, the positions past the diagram included.
    from rootforge.diagrams import _NodeView

    for series, rank in GROWN_SYSTEMS:
        walk = _grown_walk(series, rank)
        assert len(walk.nodes) > walk.size, walk.system.name
        fresh = _NodeView(walk.system, walk.nodes)
        for table in ("nodes", "position", "every", "adj", "support", "twin", "around"):
            assert getattr(walk, table) == getattr(fresh, table), (walk.system.name, table)


def test_walk_after_the_descent_visits_what_a_fresh_walk_visits():
    # The walk grows subsets over the diagram's positions only, so the
    # nodes placed past them change neither its masks nor their labels.
    from rootforge.classify import _PiWalk

    for series, rank in [("D", 9), ("D", 11), ("E", 8)]:
        walk = _grown_walk(series, rank)
        runs = []
        for w in (walk, _PiWalk(walk.system)):
            seen = []
            w.run(lambda mask, code, *_: seen.append((mask, code)))
            labels = list(w.index)
            runs.append([(mask, labels[code]) for mask, code in seen])
        assert runs[0] == runs[1], walk.system.name


def test_orbit_label_rendering():
    d6 = build_root_system("D", 6)
    eb = enhanced_basis(d6)
    assert orbit_label(RootSet(d6, eb.subset(["1", "3", "5"]))).render() == "[3A1]^s0"
    assert (
        orbit_label(RootSet(d6, eb.subset(["1", "1'"]))).render()
        == "2A1[tag=(1,0)]"
    )
    e7 = build_root_system("E", 7)
    eb7 = enhanced_basis(e7)
    assert (
        orbit_label(RootSet(e7, eb7.subset(["2", "5", "7"]))).render() == "[3A1]^0"
    )
    a4 = build_root_system("A", 4)
    eb4 = enhanced_basis(a4)
    assert orbit_label(RootSet(a4, eb4.subset(["1", "2"]))).render() == "A2"
    with pytest.raises(NotPiSystem):
        from rootforge import extended_pi_system

        d4 = build_root_system("D", 4)
        orbit_label(extended_pi_system(RootSet(d4, d4.simple_basis)))


def test_orbit_counts():
    counts = {}
    for label in [("A", 2), ("A", 3), ("A", 5), ("D", 4), ("D", 6), ("E", 6), ("E", 7), ("E", 8)]:
        s = build_root_system(*label)
        counts[label] = len(enumerate_pi_orbits(s))
    # A_n: one orbit per partition-shaped type
    assert counts[("A", 2)] == 2 and counts[("A", 3)] == 4 and counts[("A", 5)] == 10
    assert counts[("D", 4)] == 11
    e7 = build_root_system("E", 7)
    e8 = build_root_system("E", 8)
    assert sum(1 for l, _ in enumerate_pi_orbits(e7) if l.kind == "ep") == 12
    assert sum(1 for l, _ in enumerate_pi_orbits(e8) if l.kind == "ep") == 10


def test_a7_and_2a3_normal_in_e7():
    # both charge-4 significant types outside the special list form a
    # single orbit whose perfect moset has parity 0
    e7 = build_root_system("E", 7)
    labels = [l for l, _ in enumerate_pi_orbits(e7)]
    for ttext in ("A7", "2A3"):
        found = [l for l in labels if l.type_text == ttext]
        assert len(found) == 1 and found[0].kind == "plain"
    reps = dict(enumerate_pi_orbits(e7))
    from rootforge import perfect_moset

    for ttext in ("A7", "2A3"):
        label = next(l for l in labels if l.type_text == ttext)
        pm = perfect_moset(RootSet(e7, reps[label]))
        assert len(pm.members) == 4
        assert parity_of_orthogonal(e7, pm.members) == 0


def test_an_orbits_are_partitions():
    a5 = build_root_system("A", 5)
    labels = [l for l, _ in enumerate_pi_orbits(a5)]
    assert all(l.kind == "plain" for l in labels)
    types = {l.type_text for l in labels}
    # partitions of k <= 5 into parts (sums of path lengths with gaps)
    assert "A5" in types and "2A2" in types and "A2+A1" in types
    e6 = build_root_system("E", 6)
    labels6 = [l for l, _ in enumerate_pi_orbits(e6)]
    assert all(l.kind == "plain" for l in labels6)
    assert len({l.type_text for l in labels6}) == len(labels6)


def test_distinguished_classes_split_in_two():
    # each isomorphism class of distinguished diagrams is exactly two
    # orbits, one per side
    for rank in (4, 6, 8):
        system = build_root_system("D", rank)
        sides: dict = {}
        for label, _ in enumerate_pi_orbits(system):
            if label.kind == "dn_dist":
                sides.setdefault(label.type_text, set()).add(label.data[0])
        assert sides, f"no distinguished classes found in D{rank}"
        assert all(v == {0, 1} for v in sides.values())


def test_are_conjugate_matches_oracle_sampled():
    rng = random.Random(11)
    for label in [("A", 3), ("D", 4), ("D", 5)]:
        s = build_root_system(*label)
        eb = enhanced_basis(s)
        subsets = pi_node_subsets(eb)
        oracle = orbit_id_map(s, subsets)
        for _ in range(60):
            s1, s2 = rng.choice(subsets), rng.choice(subsets)
            mine = are_conjugate(RootSet(s, s1), RootSet(s, s2))
            theirs = (
                oracle[frozenset(s.proj_rep(i) for i in s1)]
                == oracle[frozenset(s.proj_rep(i) for i in s2)]
            )
            assert mine == theirs


def test_are_conjugate_off_diagram_positions():
    # labels work for Pi-systems that are not subsets of the enhanced basis
    rng = random.Random(23)
    for label in [("D", 6), ("E", 7)]:
        s = build_root_system(*label)
        eb = enhanced_basis(s)
        subsets = [x for x in pi_node_subsets(eb) if len(x) >= 2]
        gens = simple_reflection_perms(s)
        for _ in range(25):
            subset = rng.choice(subsets)
            w = identity_perm(s)
            for _ in range(rng.randint(1, 6)):
                w = compose(rng.choice(gens), w)
            moved = tuple(s.proj_rep(w[i]) for i in subset)
            assert are_conjugate(RootSet(s, subset), RootSet(s, moved))


def test_parity_of_orthogonal_off_moset():
    e7 = build_root_system("E", 7)
    eb = enhanced_basis(e7)
    rng = random.Random(5)
    gens = simple_reflection_perms(e7)
    base = eb.subset(["2", "5", "7"])
    for _ in range(20):
        w = identity_perm(e7)
        for _ in range(rng.randint(0, 7)):
            w = compose(rng.choice(gens), w)
        moved = tuple(e7.proj_rep(w[i]) for i in base)
        assert parity_of_orthogonal(e7, moved) == 0
    with pytest.raises(NotOrthogonal):
        adjacent = next(
            (x, y)
            for x in e7.simple_basis
            for y in e7.simple_basis
            if x != y and e7.cartan(x, y) != 0
        )
        from rootforge.classify import weyl_into_moset

        weyl_into_moset(e7, adjacent)


def test_parity_closed_form_matches_moset_labels():
    # The closed form is Weyl-invariant and every orthogonal set is
    # conjugate into the model moset, so agreeing with the F2^3 label
    # parity on every k-subset of the moset (35 + 35 in E7, 70 in E8)
    # proves it for all orthogonal sets.  Seeded conjugates are also
    # checked against the walk into the moset.
    from rootforge.classify import weyl_into_moset
    from rootforge.coregroups import core_group_model, parity

    rng = random.Random(17)
    for rank, sizes, counts in ((7, (3, 4), (35, 35)), (8, (4,), (70,))):
        s = build_root_system("E", rank)
        model = core_group_model(s)
        gens = simple_reflection_perms(s)
        for k, count in zip(sizes, counts):
            subsets = list(combinations(model.moset, k))
            assert len(subsets) == count
            for subset in subsets:
                expected = parity(model, subset)
                assert parity_of_orthogonal(s, subset) == expected
                flipped = (s.negative(subset[0]),) + subset[1:]
                assert parity_of_orthogonal(s, flipped) == expected
            for _ in range(40):
                w = identity_perm(s)
                for _ in range(rng.randint(1, 12)):
                    w = compose(rng.choice(gens), w)
                moved = tuple(w[i] for i in rng.choice(subsets))
                _, mapping = weyl_into_moset(s, moved)
                walked = parity(model, list(mapping.values()))
                assert parity_of_orthogonal(s, moved) == walked


def test_parity_of_orthogonal_refuses_raw_indices_that_are_no_roots():
    # An index past the table would fail the pairing check with a bare
    # IndexError, and -1 would wrap to the last root.
    from rootforge.coregroups import core_group_model

    e7 = build_root_system("E", 7)
    moset = core_group_model(e7).moset
    for subset in [(500, 0, 5), (-1, *moset[:2]), (1.5, *moset[1:3]), (*moset[:3], 126)]:
        with pytest.raises(NoSuchRoot):
            parity_of_orthogonal(e7, subset)


def test_parity_only_at_special_sizes():
    from rootforge.coregroups import core_group_model
    from rootforge.errors import Unsupported

    e8 = build_root_system("E", 8)
    moset8 = core_group_model(e8).moset
    for k in (1, 2, 3, 5, 8):
        with pytest.raises(Unsupported):
            parity_of_orthogonal(e8, moset8[:k])
    e7 = build_root_system("E", 7)
    moset7 = core_group_model(e7).moset
    for k in (1, 2, 5, 7):
        with pytest.raises(Unsupported):
            parity_of_orthogonal(e7, moset7[:k])
    e6 = build_root_system("E", 6)
    with pytest.raises(Unsupported):
        parity_of_orthogonal(e6, core_group_model(e6).moset[:3])
    adjacent = next(
        (x, y)
        for x in e8.simple_basis
        for y in e8.simple_basis
        if x != y and e8.cartan(x, y) != 0
    )
    with pytest.raises(NotOrthogonal):
        parity_of_orthogonal(e8, adjacent + moset8[:2])


def test_label_memo_belongs_to_its_system():
    # Systems built directly are freed between calls, so a new one can
    # take the address of the last; its labels must still be its own.
    from rootforge.rootsystem import RootSystem

    roots = {rank: list(build_root_system("A", rank).roots) for rank in (3, 4)}

    def label_ambient(rank):
        s = RootSystem("A", rank, roots[rank], rank + 1)
        return orbit_label(RootSet(s, (10,))).ambient, s.name

    for i in range(40):
        ambient, name = label_ambient(3 + i % 2)
        assert ambient == name


def test_wrong_charge_raises_typed_error(monkeypatch):
    from rootforge import classify
    from rootforge.errors import InvariantViolation
    from rootforge.rootsystem import RootSystem

    e8 = build_root_system("E", 8)
    a7 = enhanced_basis(e8).subset(["2", "4", "5", "6", "7", "8", "l5"])
    fresh = RootSystem("E", 8, list(e8.roots), 8)  # same root order, empty memo
    monkeypatch.setitem(classify.E8_SPECIAL, "A7", 3)
    with pytest.raises(InvariantViolation):
        orbit_label(RootSet(fresh, a7))


def test_moset_embedding_tables():
    e7 = build_root_system("E", 7)
    eb7 = enhanced_basis(e7)
    got = moset_embedding(eb7, eb7.subset(["1", "4", "6", "l2"]))
    named = {eb7.names[k]: eb7.names[v] for k, v in got.items()}
    assert named == {"1": "3", "4": "l1", "6": "5", "l2": "2"}
    e8 = build_root_system("E", 8)
    eb8 = enhanced_basis(e8)
    got8 = moset_embedding(
        eb8, eb8.subset(["1", "4", "6", "8", "l2", "l6", "l7", "l8"])
    )
    named8 = {eb8.names[k]: eb8.names[v] for k, v in got8.items()}
    assert named8 == {
        "1": "3", "4": "l1", "6": "5", "8": "l5",
        "l2": "2", "l6": "l4", "l7": "7", "l8": "l3",
    }
    e6 = build_root_system("E", 6)
    eb6 = enhanced_basis(e6)
    got6 = moset_embedding(eb6, eb6.subset(["1", "4", "6", "l2"]))
    named6 = {eb6.names[k]: eb6.names[v] for k, v in got6.items()}
    assert named6 == {"1": "3", "4": "l1", "6": "5", "l2": "2"}
    # identity on moset subsets
    o = eb7.subset(["2", "5"])
    assert moset_embedding(eb7, o) == {n: n for n in o}
    with pytest.raises(NotOrthogonal):
        moset_embedding(eb7, eb7.subset(["1", "3"]))
    from rootforge.errors import NotInEnhancedBasis

    outsider = next(
        i for i in range(len(e7.roots)) if e7.proj_rep(i) not in set(eb7.nodes)
    )
    with pytest.raises(NotInEnhancedBasis):
        moset_embedding(eb7, (e7.proj_rep(outsider),))


def test_moset_embedding_outputs_are_weyl():
    # every produced map extends to a Weyl element (checked via the core
    # machinery on the orthogonal sets themselves)
    from rootforge.coregroups import core_group_model, extend_partial_map
    from rootforge.classify import weyl_into_moset

    for series, rank in [("A", 5), ("D", 6), ("E", 7), ("E", 8)]:
        s = build_root_system(series, rank)
        eb = enhanced_basis(s)
        model = core_group_model(s)
        outside = [n for n in eb.nodes if n not in eb.moset]
        mapping = moset_embedding(eb, tuple(outside))
        word1, map1 = weyl_into_moset(s, tuple(outside))
        partial = {map1[n]: mapping[n] for n in outside}
        ok, _ = extend_partial_map(model, partial)
        assert ok, f"residual table map is not Weyl in {series}{rank}"


def test_moset_embedding_every_orthogonal_subset():
    # exhaustive over all orthogonal node subsets of the enhanced diagram;
    # Weyl membership of the output fully checked on the smaller systems
    from rootforge.coregroups import core_group_model, extend_partial_map
    from rootforge.classify import weyl_into_moset

    rng = random.Random(4)
    for series, rank in [("A", 6), ("D", 6), ("E", 6), ("E", 7), ("E", 8)]:
        s = build_root_system(series, rank)
        eb = enhanced_basis(s)
        model = core_group_model(s)
        nodes = sorted(eb.nodes)
        orthogonal: list[tuple[int, ...]] = []

        def grow(cur, start):
            if cur:
                orthogonal.append(cur)
            for k in range(start, len(nodes)):
                n = nodes[k]
                if all(s.cartan(n, m) == 0 for m in cur):
                    grow(cur + (n,), k + 1)

        grow((), 0)
        for o in orthogonal:
            mapping = moset_embedding(eb, o)
            assert set(mapping.values()) <= set(eb.moset)
            assert len(set(mapping.values())) == len(o)
            if rank <= 7 or rng.random() < 0.15:
                word1, map1 = weyl_into_moset(s, o)
                partial = {map1[n]: mapping[n] for n in o}
                ok, _ = extend_partial_map(model, partial)
                assert ok, (series, rank, o)


def test_dseries_residual_table():
    d6 = build_root_system("D", 6)
    eb = enhanced_basis(d6)
    outside = eb.subset(["2", "4"])
    named = {
        eb.names[k]: eb.names[v] for k, v in moset_embedding(eb, outside).items()
    }
    assert named == {"2": "1", "4": "3"}
    a5 = build_root_system("A", 5)
    eb5 = enhanced_basis(a5)
    named5 = {
        eb5.names[k]: eb5.names[v]
        for k, v in moset_embedding(eb5, eb5.subset(["2", "4"])).items()
    }
    assert named5 == {"2": "1", "4": "3"}


def test_worked_examples():
    e8 = build_root_system("E", 8)
    eb8 = enhanced_basis(e8)
    src = ["2", "4", "5", "6", "7", "8", "l5"]
    dst = ["3", "1", "l1", "l2", "2", "l7", "l5"]
    emb = EmbeddingMap(e8, {eb8.node(a): eb8.node(b) for a, b in zip(src, dst)})
    dec = is_weyl_embedding(emb)
    assert not dec.is_weyl and "parity mismatch" in dec.reason
    e7 = build_root_system("E", 7)
    eb7 = enhanced_basis(e7)
    emb7 = EmbeddingMap(
        e7,
        {
            eb7.node(a): eb7.node(b)
            for a, b in zip(["7", "6", "l3", "4"], ["1", "3", "4", "6"])
        },
    )
    dec7 = is_weyl_embedding(emb7)
    assert dec7.is_weyl and dec7.mode == "constructive"
    perm = perm_from_word(e7, dec7.witness_word)
    for a, b in zip(["7", "6", "l3", "4"], ["1", "3", "4", "6"]):
        assert e7.proj_rep(perm[eb7.node(a)]) == eb7.node(b)


def test_identity_embedding_is_weyl():
    e6 = build_root_system("E", 6)
    eb = enhanced_basis(e6)
    sub = eb.subset(["1", "3", "5"])
    emb = EmbeddingMap(e6, {n: n for n in sub})
    assert is_weyl_embedding(emb).is_weyl


def test_embedding_validation():
    e7 = build_root_system("E", 7)
    eb = enhanced_basis(e7)
    with pytest.raises(NotEmbedding):
        EmbeddingMap(
            e7,
            {eb.node("1"): eb.node("1"), eb.node("3"): eb.node("5")},
        )  # adjacent pair sent to an orthogonal pair


def test_a_root_and_its_negative_get_one_image():
    d4 = build_root_system("D", 4)
    r, a, b = d4.simple_basis[0], d4.simple_basis[0], d4.simple_basis[2]
    with pytest.raises(NotEmbedding):
        EmbeddingMap(d4, {r: a, d4.negative(r): b})
    # The same projective image, given with either sign, is one image.
    emb = EmbeddingMap(d4, {r: a, d4.negative(r): d4.negative(a)})
    assert emb.mapping == {d4.proj_rep(r): d4.proj_rep(a)}


def test_root_indices_out_of_range_are_refused():
    d4 = build_root_system("D", 4)
    last = len(d4.roots) - 1
    # Every index is checked, before any sorting: a wrong type in the middle
    # of the set is caught as well as one at an end.
    for members in [(999,), (-1,), (0, last + 1), (1.5,), ("3",), (0, 2.0, last), (0, "5", last), (0, None, 1)]:
        for check in (orbit_label, perfect_moset, is_pi_system, significant_part, dn_tag):
            with pytest.raises(NoSuchRoot):
                check(RootSet(d4, members))
        # The entry points on raw members check the indices themselves.
        for check in (pi_type, subsystem_type):
            with pytest.raises(NoSuchRoot):
                check(d4, members)
    for mapping in [{999: 1}, {1: 999}, {-1: 1}, {1: -1}, {1.5: 1}, {1: "2"}, {0: 0, "1": 1, 2: 2}, {0: 0, 1: 1.0}]:
        with pytest.raises(NoSuchRoot):
            EmbeddingMap(d4, mapping)
    assert RootSet(d4, (last, 0)).members == (0, last)


def test_is_weyl_agrees_with_oracle_exhaustively_small():
    # every pairing-preserving bijection between same-type subsets of the
    # D4 enhanced diagram is decided exactly as the brute force does
    d4 = build_root_system("D", 4)
    eb = enhanced_basis(d4)
    elements = enumerate_weyl(d4)
    subsets = [x for x in pi_node_subsets(eb) if 2 <= len(x) <= 3]
    rng = random.Random(17)
    checked = 0
    for s1 in subsets:
        for s2 in subsets:
            if len(s1) != len(s2):
                continue
            for image in permutations(s2):
                try:
                    emb = EmbeddingMap(d4, dict(zip(s1, image)))
                except NotEmbedding:
                    continue
                dec = is_weyl_embedding(emb)
                brute = any(
                    all(
                        d4.proj_rep(w.perm[k]) == v
                        for k, v in emb.mapping.items()
                    )
                    for w in elements
                )
                assert dec.is_weyl == brute, (s1, image)
                if dec.is_weyl:
                    perm = perm_from_word(d4, dec.witness_word)
                    for k, v in emb.mapping.items():
                        assert d4.proj_rep(perm[k]) == v
                checked += 1
    assert checked > 200


def test_orbit_types_preserved_by_witness():
    rng = random.Random(31)
    e7 = build_root_system("E", 7)
    eb = enhanced_basis(e7)
    subsets = [x for x in pi_node_subsets(eb) if 2 <= len(x) <= 5]
    gens = simple_reflection_perms(e7)
    for _ in range(30):
        subset = rng.choice(subsets)
        w = identity_perm(e7)
        for _ in range(rng.randint(0, 5)):
            w = compose(rng.choice(gens), w)
        emb = EmbeddingMap(e7, {n: e7.proj_rep(w[n]) for n in subset})
        dec = is_weyl_embedding(emb)
        assert dec.is_weyl
        src = RootSet(e7, subset)
        dst = RootSet(e7, tuple(emb.mapping.values()))
        assert orbit_label(src) == orbit_label(dst)


def test_d8_distinguished_same_side_different_gaps_conjugate():
    # distinguished diagrams of one type whose missing chain nodes differ
    # are conjugate exactly when the sides agree (canonical images)
    from rootforge.oracle import canonical_image

    d8 = build_root_system("D", 8)
    eb = enhanced_basis(d8)
    gap2 = eb.subset(["1", "3", "4", "5", "6", "7"])
    gap6 = eb.subset(["1", "2", "3", "4", "5", "7"])
    gap2_flip = eb.subset(["1'", "3", "4", "5", "6", "7"])
    assert orbit_label(RootSet(d8, gap2)) == orbit_label(RootSet(d8, gap6))
    assert orbit_label(RootSet(d8, gap2)) != orbit_label(RootSet(d8, gap2_flip))
    assert canonical_image(d8, gap6) == canonical_image(d8, gap2)
    assert canonical_image(d8, gap2_flip) != canonical_image(d8, gap2)


def test_order_between_orbits():
    e7 = build_root_system("E", 7)
    orbits = dict(enumerate_pi_orbits(e7))
    l_a5a1_0 = next(l for l in orbits if l.render() == "[A5+A1]^0")
    l_a32a1_0 = next(l for l in orbits if l.render() == "[A3+2A1]^0")
    l_a5_0 = next(l for l in orbits if l.render() == "[A5]^0")
    l_a5_1 = next(l for l in orbits if l.render() == "[A5]^1")
    assert order_between_orbits(l_a32a1_0, l_a5a1_0, e7)
    assert order_between_orbits(l_a5_1, l_a5a1_0, e7)
    assert not order_between_orbits(l_a5_0, l_a5a1_0, e7)
    assert order_between_orbits(l_a5_0, l_a5_0, e7)  # reflexive
    e8 = build_root_system("E", 8)
    with pytest.raises(MixedAmbient):
        order_between_orbits(l_a5_0, l_a5_0, e8)


def test_hasse_a2():
    a2 = build_root_system("A", 2)
    h = hasse_diagram(a2)
    rendered = {(a.render(), b.render()) for a, b in h.edges}
    assert rendered == {("A2", "A1")}


def test_hasse_outputs():
    e7 = build_root_system("E", 7)
    special = [l for l, _ in enumerate_pi_orbits(e7) if l.kind == "ep"]
    h = hasse_diagram(e7, special)
    assert len(h.edges) == 16
    dot = h.to_dot()
    assert dot.startswith("digraph") and "[A5+A1]^0" in dot
    payload = h.to_json()
    assert payload["schema"] == "rootforge/1" and len(payload["edges"]) == 16


def test_system_caches_are_freed_with_the_system():
    import gc
    import weakref

    from rootforge.coregroups import core_group_model
    from rootforge.rootsystem import RootSystem

    s = RootSystem("D", 5, list(build_root_system("D", 5).roots), 5)
    ref = weakref.ref(s)
    enhanced_basis(s)
    core_group_model(s)
    enumerate_pi_orbits(s)
    del s
    gc.collect()
    assert ref() is None


def test_witness_replay_failure_raises_typed_error(monkeypatch):
    # The replay check must hold under python -O too, so it raises rather
    # than asserts; a witness that replays as the identity must trip it.
    # The domain is orthogonal, so the witness is replayed only once.
    from rootforge import classify
    from rootforge.errors import InvariantViolation

    e7 = build_root_system("E", 7)
    eb = enhanced_basis(e7)
    emb = EmbeddingMap(e7, {eb.node("2"): eb.node("5"), eb.node("3"): eb.node("7")})
    assert is_weyl_embedding(emb).is_weyl
    monkeypatch.setattr(classify, "_apply", lambda system, word, root: root)
    with pytest.raises(InvariantViolation, match="does not replay"):
        is_weyl_embedding(emb)


def test_hasse_keeps_one_copy_of_a_repeated_label():
    a3 = build_root_system("A", 3)
    labels = [l for l, _ in enumerate_pi_orbits(a3)]
    h = hasse_diagram(a3, labels + labels[:1])
    assert (len(h.labels), len(h.edges)) == (4, 4)
    assert h == hasse_diagram(a3, labels)


def test_hasse_rejects_labels_of_another_system():
    a3_labels = [l for l, _ in enumerate_pi_orbits(build_root_system("A", 3))]
    with pytest.raises(MixedAmbient):
        hasse_diagram(build_root_system("A", 4), a3_labels)


def _reference_labels_below(system, rep):
    # The depth-first search over the completion's own node subsets that the
    # orbit order used before it read them off the enhanced diagram's table.
    from rootforge.completion import completion_nodes
    from rootforge.diagrams import is_dynkin_shape, projective_diagram_of

    nodes = sorted(completion_nodes(RootSet(system, rep)))
    labels = set()

    def grow(current, start):
        for k in range(start, len(nodes)):
            cand = current + (nodes[k],)
            if is_dynkin_shape(projective_diagram_of(system, cand)):
                labels.add(orbit_label(RootSet(system, cand)))
                grow(cand, k + 1)

    grow((), 0)
    return frozenset(labels)


@functools.lru_cache(maxsize=None)
def _reference_order(series, rank):
    # Every orbit's reference lower set, shared by the two tests below.
    s = build_root_system(series, rank)
    return {label: _reference_labels_below(s, rep) for label, rep in enumerate_pi_orbits(s)}


ORDER_SYSTEMS = SMALL + [("D", 9), ("A", 12)]


def _labels_of_bits(system, bits):
    from rootforge.classify import _orbits

    orbits = _orbits(system).orbits
    return frozenset(orbits[c] for c in range(bits.bit_length()) if bits >> c & 1)


def test_labels_below_matches_search_over_the_completion():
    # The descent through maximal subsystems against the search over every
    # node subset of each representative's completion.
    from rootforge.classify import _orbits

    for series, rank in ORDER_SYSTEMS:
        s = build_root_system(series, rank)
        reference = _reference_order(series, rank)
        found = _orbits(s)
        for label, rep in enumerate_pi_orbits(s):
            assert _labels_of_bits(s, found.lower[found.index[label]]) == reference[label], (s.name, rep)


# In odd D_n the descent places highest roots off the enhanced diagram on
# the walk's view (D13: 5 of them) and takes representatives there.
STOP_SYSTEMS = SMALL + [("D", 9), ("D", 10), ("D", 11), ("A", 12), ("D", 12), ("D", 13)]


def test_descent_from_the_simple_basis_reaches_the_table():
    # Labelled by orbit_label alone, the descent from the simple basis finds
    # exactly the orbits and lower sets of _orbits.
    from rootforge.verification import _orbits_lower_sets, descent_lower_sets

    for series, rank in STOP_SYSTEMS:
        s = build_root_system(series, rank)
        assert descent_lower_sets(s) == _orbits_lower_sets(s), s.name


def test_descent_needs_the_extended_children(monkeypatch):
    # Levi children alone stay inside the subdiagrams of the Dynkin diagram
    # and miss orbits such as 7A1 in E7; criterion 8 must see that.
    from rootforge import verification
    from rootforge.verification import _orbits_lower_sets, descent_lower_sets

    original = verification._maximal_children
    levi = lambda system, nodes: ((x, t) for x, t in original(system, nodes) if t is None)
    monkeypatch.setattr(verification, "_maximal_children", levi)
    e7 = build_root_system("E", 7)
    reached = descent_lower_sets(e7)
    assert set(reached) < set(_orbits_lower_sets(e7))
    assert not verification.check_order_graphs().ok


def test_stopped_walk_equals_the_whole_walk():
    # The walk that stops once every label of the descent is met, and grows
    # a subset only while a pending label lies above it,
    # finds the labels and least representatives of the walk run to its
    # end; the test above checks its lower sets on the same systems.
    from rootforge.verification import whole_walk_orbits

    for series, rank in STOP_SYSTEMS + [("A", 16)]:
        s = build_root_system(series, rank)
        assert dict(enumerate_pi_orbits(s)) == whole_walk_orbits(s), s.name


@pytest.mark.parametrize(
    "series, rank, visited",
    [("E", 7, 94), ("E", 8, 238), ("D", 10, 497), ("A", 12, 224), ("A", 16, 820)],
)
def test_walk_stops_at_the_last_first_occurrence(series, rank, visited):
    # E7 has 1,433 Pi-subsets, E8 22,910, D10 12,695, A12 4,095 and A16
    # 65,535: the walk grows a subset only while a pending label lies above
    # its label, and stops at the first subset of the last label to be
    # met.  These counts measure that prune.
    from rootforge.classify import _orbits

    assert _orbits(build_root_system(series, rank)).visited == visited


def test_hasse_matches_set_based_reduction():
    # Covers of the reference order, found with sets: u -> v when v < u and
    # nothing lies strictly between them.
    for series, rank in ORDER_SYSTEMS:
        below = {u: lower - {u} for u, lower in _reference_order(series, rank).items()}
        edges = sorted(
            (u, v)
            for u in below
            for v in below[u]
            if not any(v in below[w] for w in below[u])
        )
        hasse = hasse_diagram(build_root_system(series, rank))
        assert hasse.labels == tuple(sorted(below)), (series, rank)
        assert list(hasse.edges) == edges, (series, rank)


def test_hasse_covers_from_children_match_the_lower_set_formula():
    # The covers read off the descent's children against the earlier
    # formula over lower sets: on every orbit, on seeded random label
    # subsets (shuffled, with a repeat) and on the special sets.
    from hasse_reference import hasse_edges

    rng = random.Random(23)
    for series, rank in [("E", 8), ("D", 10), ("A", 12), ("D", 13)]:
        s = build_root_system(series, rank)
        labels = [l for l, _ in enumerate_pi_orbits(s)]
        full = hasse_diagram(s)
        assert (full.labels, full.edges) == hasse_edges(s, labels), s.name
        for top in (0, 12, len(labels)):
            subset = rng.sample(labels, rng.randint(0, top))
            h = hasse_diagram(s, subset + subset[:1])
            assert (h.labels, h.edges) == hasse_edges(s, subset), (s.name, len(subset))
    for series, rank in [("E", 7), ("E", 8)]:
        s = build_root_system(series, rank)
        special = [l for l, _ in enumerate_pi_orbits(s) if l.kind == "ep"]
        h = hasse_diagram(s, special)
        assert h.edges and (h.labels, h.edges) == hasse_edges(s, special), s.name


MISSING_CHILD_LABEL = """
import sys
from rootforge import classify
from rootforge.errors import InvariantViolation
from rootforge.rootsystem import RootSystem, build_root_system

# D5 has maximal children whose highest root theta is off the enhanced
# diagram, so the descent places theta past the walk's size nodes; here
# every set on such a position gets a label no Pi-system of D5 has.  The
# walk never meets that label.
s = RootSystem("D", 5, list(build_root_system("D", 5).roots), 5)
d5 = build_root_system("D", 5)
labels = [l for l, _ in classify.enumerate_pi_orbits(d5)]
bogus = classify.OrbitLabel("D5", "E8", "plain", ())
original = classify._PiWalk.code


def code(walk, key, comps, width):
    if any(comp >> walk.size for comp in comps):
        return walk.index.setdefault(bogus, len(walk.index))
    return original(walk, key, comps, width)


classify._PiWalk.code = code
calls = (
    lambda: classify.enumerate_pi_orbits(s),
    lambda: classify.hasse_diagram(s),
    lambda: classify.order_between_orbits(*labels[:2], s),
)
for call in calls:
    try:
        call()
    except InvariantViolation as exc:
        if "no Pi-subset" in str(exc) and "has the label E8" in str(exc):
            continue
        sys.exit(str(exc))
    sys.exit("no InvariantViolation")
"""


WALK_LABEL_MISSING_FROM_THE_DESCENT = """
import sys
from rootforge import classify
from rootforge.errors import InvariantViolation
from rootforge.rootsystem import build_root_system

# With every mark read as 1 the descent takes Levi children only, which
# stay inside the Dynkin diagram and miss orbits such as 7A1 in E7; the
# walk then meets a label that the descent did not reach.
original = classify._PiWalk.highest
classify._PiWalk.highest = lambda walk, comp: (original(walk, comp)[0], (1,) * comp.bit_count())
try:
    classify.enumerate_pi_orbits(build_root_system("E", 7))
except InvariantViolation as exc:
    sys.exit(0 if "does not reach" in str(exc) else str(exc))
sys.exit("no InvariantViolation")
"""


def _exits_0(script, flags):
    # Run script in a fresh interpreter with flags; typed checks hold under
    # python -O too, and the run under -O shows it.
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_maximal_child_missing_from_the_table_raises(flags):
    _exits_0(MISSING_CHILD_LABEL, flags)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_walk_label_missing_from_the_descent_raises(flags):
    _exits_0(WALK_LABEL_MISSING_FROM_THE_DESCENT, flags)


def test_moset_embedding_off_the_moset_raises_typed_error(monkeypatch):
    # A residual table that maps each node to itself leaves the moset; the
    # final check must catch it under python -O too.
    from rootforge import classify
    from rootforge.errors import InvariantViolation

    e7 = build_root_system("E", 7)
    eb = enhanced_basis(e7)
    monkeypatch.setattr(classify, "_residual_table", lambda model_eb: {n: n for n in model_eb.names.values()})
    with pytest.raises(InvariantViolation):
        moset_embedding(eb, eb.subset(["1", "4", "6", "l2"]))


def _reference_pi_table(system):
    # The walk pi_node_subsets made before the table labelled as it walked:
    # is_dynkin_shape over each candidate's diagram, then orbit_label on a
    # fresh system with the same roots, so that no memo entry is shared.
    from rootforge.diagrams import is_dynkin_shape, projective_diagram_of
    from rootforge.rootsystem import RootSystem

    nodes = sorted(enhanced_basis(system).nodes)
    subsets = []

    def grow(current, start):
        for k in range(start, len(nodes)):
            cand = current + (nodes[k],)
            if is_dynkin_shape(projective_diagram_of(system, cand)):
                subsets.append(cand)
                grow(cand, k + 1)

    grow((), 0)
    fresh = RootSystem(system.series, system.rank, list(system.roots), system.ambient_dim)
    return subsets, [orbit_label(RootSet(fresh, s)) for s in subsets]


def _whole_walk(system):
    # The walk run to its end: (the walk, its masks, their label codes).
    from rootforge.classify import _PiWalk

    walk = _PiWalk(system)
    masks, codes = [], []
    walk.run(lambda mask, code, *_: masks.append(mask) or codes.append(code))
    return walk, masks, codes


def test_pi_table_matches_the_separate_walk_and_labels():
    for series, rank in SMALL + [("D", 9), ("A", 12)]:
        s = build_root_system(series, rank)
        walk, _, codes = _whole_walk(s)
        orbits = list(walk.index)
        labels = [orbits[c] for c in codes]
        assert (pi_node_subsets(enhanced_basis(s)), labels) == _reference_pi_table(s), s.name


def test_fresh_label_classifies_its_diagram_once(monkeypatch):
    from rootforge import diagrams
    from rootforge.rootsystem import RootSystem

    # One shape recognition per component of a label not computed before.
    fresh = RootSystem("E", 6, list(build_root_system("E", 6).roots), 8)
    eb = enhanced_basis(fresh)
    original = diagrams._classify_one
    seen = []
    monkeypatch.setattr(diagrams, "_classify_one", lambda *args: seen.append(args) or original(*args))
    for names, text, parts in [(["1", "3", "4"], "A3", 1), (["1", "3", "5", "6"], "2A2", 2)]:
        seen.clear()
        assert orbit_label(RootSet(fresh, eb.subset(names))).render() == text
        assert len(seen) == parts, names


def test_moset_embedding_beyond_d8():
    # Orthogonal 1- and 2-subsets off the moset; D9 and D10 components were
    # once matched against D4-D8 models only.
    for rank in (9, 10):
        s = build_root_system("D", rank)
        eb = enhanced_basis(s)
        subsets = [
            c
            for k in (1, 2)
            for c in combinations(eb.nodes, k)
            if all(s.cartan(a, b) == 0 for a, b in combinations(c, 2))
            and not set(c) <= set(eb.moset)
        ]
        assert subsets
        for c in subsets:
            mapping = moset_embedding(eb, c)
            assert set(mapping.values()) <= set(eb.moset)
            assert is_weyl_embedding(EmbeddingMap(s, mapping)).is_weyl, (s.name, c)


def test_labels_of_one_orbit_share_one_object():
    # One label object per orbit, shared by the walk and orbit_label; equal
    # labels must not each hold their own strings (22,910 subsets of E8
    # against 76 orbits).
    from rootforge.classify import _mask_nodes, _orbits

    s = build_root_system("D", 6)
    walk, masks, codes = _whole_walk(s)
    orbits = list(walk.index)
    for mask, code in zip(masks, codes):
        assert orbit_label(RootSet(s, _mask_nodes(walk.nodes, mask))) is orbits[code]
    assert set(map(id, _orbits(s).orbits)) == set(map(id, orbits))


# Argument checks raise typed errors, so that they hold under python -O too.


def test_dn_tag_outside_the_d_series_raises():
    from rootforge.errors import Unsupported

    e6 = build_root_system("E", 6)
    with pytest.raises(Unsupported):
        dn_tag(RootSet(e6, e6.simple_basis))


def test_dn_tag_of_a_set_that_is_not_a_pi_system_raises():
    # Roots 30, 32 and 40 of D6 pair to -1, -1 and +1: their diagram is the
    # triangle A~2.  The set is thin and touches 4 of the 6 coordinates, so
    # a check made only on thin sets of full width would miss it.
    d6 = build_root_system("D", 6)
    with pytest.raises(NotPiSystem):
        dn_tag(RootSet(d6, (30, 32, 40)))


def test_sets_that_are_not_pi_systems():
    # pi_type names an extended shape and raises on any other that is not
    # ADE, as the type of the frozenset diagram does; such a set is no
    # Pi-system and has no perfect moset.
    from rootforge import extended_pi_system
    from rootforge.diagrams import classify_components, projective_diagram_of
    from rootforge.errors import UnrecognizedComponent

    d4, d6, d8 = (build_root_system("D", rank) for rank in (4, 6, 8))
    cases = [(d6, (30, 32, 40), "A~2"), (d4, extended_pi_system(RootSet(d4, d4.simple_basis)).members, "D~4")]
    rng = random.Random(16)
    while len(cases) < 6:
        members = tuple(rng.sample(d8.positive, 5))
        try:
            classify_components(projective_diagram_of(d8, members))
        except UnrecognizedComponent:
            cases.append((d8, members, None))
    for system, members, text in cases:
        if text is None:
            with pytest.raises(UnrecognizedComponent):
                pi_type(system, members)
        else:
            reference = classify_components(projective_diagram_of(system, members))
            assert pi_type(system, members) == reference and reference.render() == text
        assert not is_pi_system(RootSet(system, members)), members
        with pytest.raises(NotPiSystem):
            perfect_moset(RootSet(system, members))


def test_are_conjugate_across_systems_raises():
    a3, a4 = build_root_system("A", 3), build_root_system("A", 4)
    with pytest.raises(MixedAmbient):
        are_conjugate(RootSet(a3, a3.simple_basis[:1]), RootSet(a4, a4.simple_basis[:1]))


def test_witness_perm_of_a_negative_decision_raises():
    from rootforge.classify import WeylDecision
    from rootforge.errors import Unsupported

    decision = WeylDecision(False, "constructive", None, "parity mismatch (0 vs 1)")
    with pytest.raises(Unsupported):
        decision.witness_perm(build_root_system("E", 7))


def _walk_digest(system):
    import hashlib

    walk, masks, codes = _whole_walk(system)
    text = repr((masks, codes, [l.render() for l in walk.index]))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "series, rank, digest",
    [("D", 10, "93b7dfa32546472b"), ("D", 12, "edb92877b6e7e237"), ("E", 8, "3e8fa2554a7e4eaa")],
)
def test_pi_table_digest(series, rank, digest):
    # Masks, codes and labels of the walk run to its end, as the table of
    # every Pi-subset held them while it still kept the subtree ends that
    # the orbit order once scanned by; codes count up in order of appearance.
    assert _walk_digest(build_root_system(series, rank)) == digest


def test_pi_table_labels_each_key_once(monkeypatch):
    # E8 has 22,910 Pi-subsets and 76 labels: the walk builds one label per
    # shape multiset, D counts and moset tag, not one per subset.
    from rootforge import classify
    from rootforge.rootsystem import RootSystem

    e8 = build_root_system("E", 8)
    fresh = RootSystem("E", 8, list(e8.roots), e8.ambient_dim)
    calls = []
    original = classify._label_of
    monkeypatch.setattr(classify, "_label_of", lambda *args: calls.append(args) or original(*args))
    walk, masks, _ = _whole_walk(fresh)
    assert len(masks) == 22910
    assert len(walk.index) == 76
    assert len(calls) < 200


def test_labels_without_an_orbit_raise_typed_error():
    from rootforge.classify import OrbitLabel

    a3 = build_root_system("A", 3)
    label = enumerate_pi_orbits(a3)[0][0]
    bogus = OrbitLabel("A3", "E8", "plain", ())
    with pytest.raises(NotPiSystem):
        order_between_orbits(label, bogus, a3)
    with pytest.raises(NotPiSystem):
        order_between_orbits(bogus, label, a3)
    with pytest.raises(NotPiSystem):
        hasse_diagram(a3, [bogus, label])
