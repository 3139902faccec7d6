import random
from itertools import combinations, permutations

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
from rootforge.diagrams import Diagram, Irreducible, ProjectiveDiagram, _embeddings, _rows, subsystem_type
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


def test_subsystem_type_of_a_reducible_subsystem_has_one_part_per_component():
    d4 = build_root_system("D", 4)
    a, b = d4.index((0, 0, 2, -2)), d4.index((0, 0, 2, 2))
    assert d4.cartan(a, b) == 0
    assert subsystem_type(d4, d4.symmetrize((a, b))).parts == (Irreducible("A", 1),) * 2


# Argument checks raise typed errors, so that they hold under python -O too.


def test_find_subdiagrams_with_a_reducible_pattern_raises():
    from rootforge.errors import NotIrreducible

    path = ProjectiveDiagram((0, 1, 2), frozenset({frozenset((0, 1)), frozenset((1, 2))}))
    with pytest.raises(NotIrreducible):
        find_subdiagrams(path, type_label(("A", 1), ("A", 1)))


# -- the mask recognizer against the dict-based one it replaced ---------------


def _reference_classify_one(comp, adj, quads):
    # The recognizer before it ran on int masks: comp lists the nodes of a
    # connected component, adj maps each of them to its neighbours.
    from rootforge.diagrams import Irreducible

    n = len(comp)
    comp_quads = [q for q in quads if not q.isdisjoint(comp)]
    if comp_quads:
        if n == 2 and len(comp_quads) == 1:
            return Irreducible("A", 1, extended=True)
        raise UnrecognizedComponent("quadruple bond inside a larger component")
    degs = sorted(len(adj[x]) for x in comp)
    edges = sum(degs) // 2
    if edges == n and n >= 3 and degs == [2] * n:
        return Irreducible("A", n - 1, extended=True)
    if edges != n - 1:
        raise UnrecognizedComponent(f"component with {n} nodes and {edges} bonds")
    if degs[-1] <= 2:
        return Irreducible("A", n)
    if degs[-1] == 4:
        if n == 5 and degs == [1, 1, 1, 1, 4]:
            return Irreducible("D", 4, extended=True)
        raise UnrecognizedComponent("degree-4 node outside the extended D4 star")
    branch = [x for x in comp if len(adj[x]) == 3]
    if len(branch) == 1:

        def path(prev, cur):
            out = [cur]
            while True:
                nxt = [x for x in adj[cur] if x != prev]
                if not nxt:
                    return out
                prev, cur = cur, nxt[0]
                out.append(cur)

        arms = sorted(len(path(branch[0], x)) for x in adj[branch[0]])
        table = {
            (1, 2, 2): Irreducible("E", 6),
            (1, 2, 3): Irreducible("E", 7),
            (1, 2, 4): Irreducible("E", 8),
            (2, 2, 2): Irreducible("E", 6, extended=True),
            (1, 3, 3): Irreducible("E", 7, extended=True),
            (1, 2, 5): Irreducible("E", 8, extended=True),
        }
        if arms[0] == arms[1] == 1:
            return Irreducible("D", n)
        if tuple(arms) in table:
            return table[tuple(arms)]
        raise UnrecognizedComponent(f"branching tree with arms {arms}")
    if len(branch) == 2:
        ok = all(len(adj[x]) <= 2 for x in comp if x not in branch) and all(
            sum(1 for y in adj[x] if len(adj[y]) == 1) == 2 for x in branch
        )
        if ok:
            return Irreducible("D", n - 1, extended=True)
    raise UnrecognizedComponent("tree with more than one branching node")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except UnrecognizedComponent:
        return "unrecognized"


def _connected_masks(adj):
    """Every connected nonempty set of positions, as int masks."""
    from rootforge.rootsystem import _bits

    seen = {1 << i for i in range(len(adj))}
    frontier = list(seen)
    while frontier:
        grown = []
        for mask in frontier:
            reach = 0
            for i in _bits(mask):
                reach |= adj[i]
            for j in _bits(reach & ~mask):
                if mask | 1 << j not in seen:
                    seen.add(mask | 1 << j)
                    grown.append(mask | 1 << j)
        frontier = grown
    return seen


def _agree(adj, comp, quads=()):
    from rootforge.diagrams import _classify_one
    from rootforge.rootsystem import _bits

    members = _bits(comp)
    view = {i: _bits(adj[i] & comp) for i in members}
    quad_mask = sum(1 << i for pair in quads for i in pair)
    ref = _outcome(_reference_classify_one, members, view, [frozenset(q) for q in quads])
    assert _outcome(_classify_one, comp, adj, quad_mask) == ref, (members, view)
    return ref


def test_mask_recognizer_matches_the_dict_one_on_enhanced_diagrams():
    from rootforge import enhanced_basis
    from rootforge.rootsystem import _adjacency
    from rootforge.verification import SMALL

    seen = set()
    for series, rank in SMALL + [("D", 9), ("A", 12)]:
        s = build_root_system(series, rank)
        adj = _adjacency(s, sorted(enhanced_basis(s).nodes))
        for comp in _connected_masks(adj):
            seen.add(_agree(adj, comp))
    # The enhanced diagrams hold every finite and several extended shapes,
    # and connected sets that are none of them.
    assert {"unrecognized", Irreducible("E", 8), Irreducible("D", 8)} <= seen
    assert {p for p in seen if p != "unrecognized" and p.extended} >= {
        Irreducible("A", 3, extended=True),
        Irreducible("D", 4, extended=True),
        Irreducible("E", 7, extended=True),
    }


def _mask_graph(n, edges):
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def _spider(arms):
    """A centre 0 with paths of the given lengths attached: (n, edges)."""
    edges, n = [], 1
    for length in arms:
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
    return n, edges


def test_mask_recognizer_on_extended_and_rejected_shapes():
    from rootforge.diagrams import Irreducible, _model_diagram

    extended = [Irreducible("A", r, True) for r in range(2, 9)]
    extended += [Irreducible("D", r, True) for r in range(4, 10)]
    extended += [Irreducible("E", r, True) for r in (6, 7, 8)]
    for part in extended:
        d = _model_diagram(part)
        adj = _mask_graph(len(d.nodes), [tuple(p) for p in d.adjacency])
        assert _agree(adj, (1 << len(adj)) - 1) == part
    rejected = [
        (4, [(0, 1), (1, 2), (2, 0), (2, 3)]),  # a triangle with a tail
        (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),  # a square with a chord
        _spider((1, 1, 1, 2)),  # a degree-4 node with a longer arm
        _spider((2, 2, 2, 2)),
        (8, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6), (6, 7)]),  # two branch nodes
        (8, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6), (5, 7)]),  # three
        _spider((2, 2, 3)),
        _spider((1, 3, 4)),
        _spider((1, 2, 6)),
    ]
    for n, edges in rejected:
        assert _agree(_mask_graph(n, edges), (1 << n) - 1) == "unrecognized", edges
    for n, edges in (_spider((1, 3, 3)), _spider((1, 2, 5))):
        assert _agree(_mask_graph(n, edges), (1 << n) - 1).extended


def test_mask_recognizer_on_quadruple_bonds():
    # A root and its negative: extended A1 alone, unrecognized with more.
    assert _agree(_mask_graph(2, [(0, 1)]), 0b11, [(0, 1)]) == Irreducible("A", 1, True)
    assert _agree(_mask_graph(3, [(0, 1), (1, 2)]), 0b111, [(0, 1)]) == "unrecognized"
    a2 = build_root_system("A", 2)
    i = a2.simple_basis[0]
    assert classify_components(gamma_diagram(RootSet(a2, (i, a2.negative(i))))).render() == "A~1"


def test_mask_recognizer_rejects_nodes_of_degree_five():
    # No root has five pairwise orthogonal neighbours, so only a hand-built
    # diagram has such a node.  The dict-based recognizer read this tree
    # (a branch node whose third arm runs into a degree-5 node) as D8.
    nodes = tuple(range(8))
    edges = [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (3, 6), (3, 7)]
    d = ProjectiveDiagram(nodes, frozenset(frozenset(e) for e in edges))
    with pytest.raises(UnrecognizedComponent):
        classify_components(d)


def _e(system, i, j):
    """Index of the A-series root e_i - e_j (coordinates are doubled)."""
    coords = [0] * system.ambient_dim
    coords[i - 1], coords[j - 1] = 2, -2
    return system.index(tuple(coords))


def test_quadruple_bonds_keep_gamma_diagrams_apart():
    # A~1+A1 on 3 nodes against A~2+A1 on 4: a pseudo node standing for the
    # quadruple bond once made them look alike.
    a5 = build_root_system("A", 5)
    quad = gamma_diagram(RootSet(a5, (_e(a5, 1, 2), _e(a5, 2, 1), _e(a5, 4, 5))))
    cycle = gamma_diagram(RootSet(a5, (_e(a5, 1, 2), _e(a5, 2, 3), _e(a5, 1, 3), _e(a5, 4, 5))))
    assert classify_components(quad).render() == "A1+A~1"
    assert classify_components(cycle).render() == "A~2+A1"
    assert are_isomorphic(quad, cycle) == (False, None)
    ok, witness = are_isomorphic(quad, quad)
    assert ok and set(witness) == set(quad.nodes)


def test_automorphisms_keep_bond_multiplicity():
    # A triangle with one quadruple bond: only the swap of its two ends.
    a5 = build_root_system("A", 5)
    a, neg, b = _e(a5, 1, 2), _e(a5, 2, 1), _e(a5, 2, 3)
    d = gamma_diagram(RootSet(a5, (a, neg, b)))
    auts = automorphism_group(d)
    assert sorted(tuple(sorted(m.items())) for m in auts) == sorted(
        [tuple(sorted({a: a, neg: neg, b: b}.items())), tuple(sorted({a: neg, neg: a, b: b}.items()))]
    )


def _bond(d, x, y) -> int:
    if isinstance(d, Diagram):
        return d.multiplicity(x, y)
    return int(d.adjacent(x, y))


def _brute_embeddings(small, big) -> set:
    """Every injective node map keeping each pair's bond multiplicity, a
    missing bond included, by trying every arrangement."""
    out = set()
    for images in permutations(big.nodes, len(small.nodes)):
        f = dict(zip(small.nodes, images))
        if all(_bond(small, x, y) == _bond(big, f[x], f[y]) for x, y in combinations(small.nodes, 2)):
            out.add(frozenset(f.items()))
    return out


@pytest.mark.parametrize("kind", [gamma_diagram, delta_diagram])
def test_embeddings_match_brute_force(kind):
    rng = random.Random(2200 if kind is gamma_diagram else 2201)
    checked = quads = 0
    for name in ("A4", "D4", "A5"):
        system = build_root_system(name[0], int(name[1:]))
        roots = range(len(system.roots))
        for _ in range(15):
            picked = rng.sample(roots, rng.randint(2, 4))
            # Half the gamma sets carry a root with its negative.
            if kind is gamma_diagram and rng.random() < 0.5:
                picked.append(system.negative(picked[0]))
            big = RootSet(system, picked)
            for small in (
                RootSet(system, rng.sample(big.members, rng.randint(1, len(big.members)))),
                RootSet(system, rng.sample(roots, rng.randint(1, 3))),
            ):
                ds, db = kind(small), kind(big)
                found = [frozenset(m.items()) for m in _embeddings(_rows(ds), _rows(db))]
                assert len(found) == len(set(found))
                assert set(found) == _brute_embeddings(ds, db)
                checked += bool(found)
                quads += any(m == 4 for _, m in getattr(db, "bonds", ()))
    assert checked >= 30
    assert quads >= 10 or kind is delta_diagram
