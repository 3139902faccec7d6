from itertools import combinations

import pytest

from rootforge import (
    RootSet,
    are_isomorphic,
    automorphism_group,
    build_root_system,
    classify_components,
    delta_diagram,
    extended_pi_system,
    find_subdiagrams,
    gamma_diagram,
    to_dot,
    type_label,
)
from rootforge.diagrams import ProjectiveDiagram
from rootforge.errors import TooLarge, UnrecognizedComponent


def test_gamma_diagram_bonds():
    a3 = build_root_system("A", 3)
    d = gamma_diagram(RootSet(a3, a3.simple_basis))
    mults = sorted(m for _, m in d.bonds)
    assert mults == [1, 1]  # a path with two single bonds
    i = a3.simple_basis[0]
    d2 = gamma_diagram(RootSet(a3, (i, a3.negative(i))))
    assert sorted(m for _, m in d2.bonds) == [4]
    # orthogonal pair: no bond
    b = a3.simple_basis
    pair = (b[0], b[2])
    assert a3.cartan(*pair) == 0
    assert not gamma_diagram(RootSet(a3, pair)).bonds


def test_delta_diagram():
    a2 = build_root_system("A", 2)
    i = a2.simple_basis[0]
    d = delta_diagram(RootSet(a2, (i, a2.negative(i))))
    assert len(d.nodes) == 1 and not d.adjacency
    # the projective diagram of the full A2 system is a 3-cycle
    full = delta_diagram(RootSet(a2, tuple(range(6))))
    assert classify_components(full).render() == "A~2"
    # delta of a set equals delta of its symmetrization
    d4 = build_root_system("D", 4)
    sub = RootSet(d4, d4.simple_basis[:3])
    sym = RootSet(d4, d4.symmetrize(sub.members))
    assert delta_diagram(sub) == delta_diagram(sym)


def test_classification_table():
    cases = {
        ("A", 3): "A3",
        ("A", 1): "A1",
        ("D", 4): "D4",
        ("D", 7): "D7",
        ("E", 6): "E6",
        ("E", 7): "E7",
        ("E", 8): "E8",
    }
    for label, text in cases.items():
        s = build_root_system(*label)
        d = delta_diagram(RootSet(s, s.simple_basis))
        assert classify_components(d).render() == text


def test_extended_shapes():
    for label, text in [
        (("D", 4), "D~4"),
        (("D", 5), "D~5"),
        (("A", 2), "A~2"),
        (("A", 4), "A~4"),
        (("E", 6), "E~6"),
        (("E", 7), "E~7"),
        (("E", 8), "E~8"),
    ]:
        s = build_root_system(*label)
        ext = extended_pi_system(RootSet(s, s.simple_basis))
        assert classify_components(delta_diagram(ext)).render() == text


def test_gamma_delta_agree_on_pi_systems():
    for label in [("A", 4), ("D", 5), ("E", 6)]:
        s = build_root_system(*label)
        rs = RootSet(s, s.simple_basis)
        assert (
            classify_components(gamma_diagram(rs)).render()
            == classify_components(delta_diagram(rs)).render()
        )


def test_unrecognized_component():
    # a graph that is no ADE shape: two triangles sharing an edge
    nodes = (0, 1, 2, 3)
    adj = frozenset(
        frozenset(e) for e in [(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)]
    )
    with pytest.raises(UnrecognizedComponent):
        classify_components(ProjectiveDiagram(nodes, adj))


def test_find_subdiagrams():
    d4 = build_root_system("D", 4)
    star = delta_diagram(extended_pi_system(RootSet(d4, d4.simple_basis)))
    hits = find_subdiagrams(star, type_label(("D", 4)))
    # center plus any three of the four ends
    assert len(hits) == 4
    a1_hits = find_subdiagrams(star, type_label(("A", 1)))
    assert len(a1_hits) == len(star.nodes)
    a5 = build_root_system("A", 5)
    path = delta_diagram(RootSet(a5, a5.simple_basis))
    assert find_subdiagrams(path, type_label(("D", 4))) == []


def test_find_subdiagrams_exhaustive_vs_naive():
    d5 = build_root_system("D", 5)
    d = delta_diagram(RootSet(d5, d5.simple_basis))
    for pattern in [type_label(("A", 2)), type_label(("A", 3)), type_label(("D", 4))]:
        fast = {tuple(sorted(e.values())) for e in find_subdiagrams(d, pattern)}
        naive = set()
        k = pattern.parts[0].rank if pattern.parts[0].series == "A" else 4
        for combo in combinations(d.nodes, k):
            induced = d.induced(combo)
            try:
                if classify_components(induced) == pattern:
                    naive.add(tuple(sorted(combo)))
            except UnrecognizedComponent:
                pass
        assert fast == naive


def test_are_isomorphic():
    a3 = build_root_system("A", 3)
    d = delta_diagram(RootSet(a3, a3.simple_basis))
    ok, witness = are_isomorphic(d, d)
    assert ok and witness
    three_a1 = RootSet(a3, (a3.simple_basis[0], a3.simple_basis[2]))
    assert not are_isomorphic(d, delta_diagram(three_a1))[0]
    # quadruple bonds are respected
    i = a3.simple_basis[0]
    quad = gamma_diagram(RootSet(a3, (i, a3.negative(i))))
    pair = gamma_diagram(RootSet(a3, (a3.simple_basis[0], a3.simple_basis[1])))
    assert not are_isomorphic(quad, pair)[0]


def test_automorphism_groups():
    d4 = build_root_system("D", 4)
    star = delta_diagram(RootSet(d4, d4.simple_basis))
    assert len(automorphism_group(star)) == 6  # end permutations
    a4 = build_root_system("A", 4)
    path = delta_diagram(RootSet(a4, a4.simple_basis))
    assert len(automorphism_group(path)) == 2  # reversal
    big = ProjectiveDiagram(tuple(range(65)), frozenset())
    with pytest.raises(TooLarge):
        automorphism_group(big)


def test_symmetric_acyclic_sets_classify():
    # every connected acyclic projective diagram of a symmetric subset is an
    # ADE or extended ADE shape
    import random

    rng = random.Random(1)
    for label in [("A", 3), ("D", 4), ("A", 5)]:
        s = build_root_system(*label)
        n = len(s.roots)
        for _ in range(50):
            sample = rng.sample(range(n), rng.randint(1, min(8, n)))
            rs = RootSet(s, s.symmetrize(tuple(sample)))
            d = delta_diagram(rs)
            try:
                classify_components(d)
            except UnrecognizedComponent:
                # acceptable only when some component contains a cycle that
                # is not a full extended-A cycle; connected acyclic ones must
                # classify, so re-check acyclicity before failing
                comp_edges = len(d.adjacency)
                comp_nodes = len(d.nodes)
                assert comp_edges >= comp_nodes, "acyclic symmetric set failed"


def test_dot_export():
    d4 = build_root_system("D", 4)
    rs = RootSet(d4, d4.simple_basis)
    text = to_dot(delta_diagram(rs), bold_nodes=(d4.simple_basis[0],))
    assert "penwidth=3" in text and text.startswith("graph")
    i = d4.simple_basis[0]
    gtext = to_dot(gamma_diagram(RootSet(d4, (i, d4.negative(i)))))
    assert 'label="4"' in gtext


# Argument checks raise typed errors, so that they hold under python -O too.


def test_component_type_of_a_reducible_subsystem_raises():
    from rootforge.diagrams import component_type
    from rootforge.errors import NotIrreducible

    d4 = build_root_system("D", 4)
    a, b = d4.index((0, 0, 2, -2)), d4.index((0, 0, 2, 2))
    assert d4.cartan(a, b) == 0
    with pytest.raises(NotIrreducible):
        component_type(d4, d4.symmetrize((a, b)))


def test_find_subdiagrams_with_a_reducible_pattern_raises():
    from rootforge.errors import NotIrreducible

    path = ProjectiveDiagram((0, 1, 2), frozenset({frozenset((0, 1)), frozenset((1, 2))}))
    with pytest.raises(NotIrreducible):
        find_subdiagrams(path, type_label(("A", 1), ("A", 1)))
