import random

import pytest

from rootforge import (
    RootSet,
    build_root_system,
    complete,
    elementary_extension,
    enhanced_basis,
    extended_pi_system,
    extension_root,
    is_complete,
)
from rootforge.completion import d4_stars
from rootforge.errors import NotD4, NotSymmetric
from rootforge.mosets import _mu_formula


def test_is_complete_basics():
    a3 = build_root_system("A", 3)
    sym = RootSet(a3, a3.symmetrize(a3.simple_basis))
    assert is_complete(sym)  # no D4 subsets in a path
    d4 = build_root_system("D", 4)
    sym4 = RootSet(d4, d4.symmetrize(d4.simple_basis))
    assert not is_complete(sym4)
    assert is_complete(RootSet(d4, tuple(range(len(d4.roots)))))
    with pytest.raises(NotSymmetric):
        is_complete(RootSet(d4, d4.simple_basis))


def test_extension_root_matches_minimal_root():
    d4 = build_root_system("D", 4)
    basis = d4.simple_basis
    center = next(
        b for b in basis if sum(1 for x in basis if x != b and d4.cartan(b, x) != 0) == 3
    )
    ends = tuple(x for x in basis if x != center)
    delta = extension_root(d4, center, ends)
    ext = extended_pi_system(RootSet(d4, basis))
    added = next(x for x in ext.members if x not in basis)
    assert delta == added
    assert abs(d4.cartan(delta, center)) == 1
    with pytest.raises(NotD4):
        extension_root(d4, center, ends[:2] + (center,))
    # Every D4 star of the larger enhanced diagrams: the minimal root of
    # the sign-fixed star, the least-coefficient-sum root and the
    # coordinate formula -(ends + 2 center) agree.
    from linalg_reference import least_sum_root
    from rootforge import minimal_root, subsystem_generated

    for series, rank, count in [("E", 7, 20), ("E", 8, 64), ("D", 8, 12)]:
        s = build_root_system(series, rank)
        stars = d4_stars(s, enhanced_basis(s).nodes)
        assert len(stars) == count
        for center, ends in stars:
            c = s.proj_rep(center)
            fixed = tuple(e if s.cartan(e, c) < 0 else s.negative(e) for e in ends)
            star = RootSet(s, (c,) + fixed)
            delta = extension_root(s, center, ends)
            assert delta == minimal_root(star)
            assert delta == least_sum_root(s, star.members, subsystem_generated(star).members)
            coords = [2 * x for x in s.roots[c]]
            for e in fixed:
                coords = [a + b for a, b in zip(coords, s.roots[e])]
            assert s.roots[delta] == tuple(-x for x in coords)


def test_elementary_extension_rule():
    e7 = build_root_system("E", 7)
    eb = enhanced_basis(e7)
    basis_nodes = tuple(sorted(e7.simple_basis))
    stars = d4_stars(e7, basis_nodes)
    assert len(stars) == 1
    center, ends = stars[0]
    new_nodes, new_node = elementary_extension(e7, basis_nodes, center, ends)
    assert len(new_nodes) == len(basis_nodes) + 1
    names = {eb.names[n] for n in eb.neighbors(new_node) if n in basis_nodes}
    assert names >= {"1", "4", "6"} - {"l1"}
    with pytest.raises(NotD4):
        elementary_extension(e7, new_nodes, center, ends)  # already extended


def test_complete_small_cases():
    a4 = build_root_system("A", 4)
    x = RootSet(a4, a4.simple_basis)
    assert set(complete(x).members) == set(a4.symmetrize(a4.simple_basis))
    e7 = build_root_system("E", 7)
    full = complete(RootSet(e7, e7.simple_basis))
    assert len({e7.proj_rep(i) for i in full.members}) == 11
    e8 = build_root_system("E", 8)
    full8 = complete(RootSet(e8, e8.simple_basis))
    assert len({e8.proj_rep(i) for i in full8.members}) == 16
    assert is_complete(full8)


def test_completion_is_minimal_by_exhaustive_scan():
    # the completion equals the intersection of all complete symmetric
    # supersets (full scan over symmetric sets at tiny rank)
    from itertools import combinations

    for label in [("A", 2), ("A", 3), ("D", 4)]:
        s = build_root_system(*label)
        proj = s.proj_nodes
        seeds = [proj[:1], proj[:2], tuple(s.simple_basis)]
        for seed in seeds:
            seed_sym = set(s.symmetrize(seed))
            target = set(complete(RootSet(s, seed)).members)
            meet = None
            for k in range(len(proj) + 1):
                for combo in combinations(proj, k):
                    members = set(s.symmetrize(combo))
                    if not seed_sym <= members:
                        continue
                    if is_complete(RootSet(s, tuple(sorted(members)))):
                        meet = members if meet is None else meet & members
            assert meet == target


def test_completion_monotone_and_equivariant():
    import random

    rng = random.Random(3)
    for label in [("D", 4), ("D", 5), ("A", 4), ("E", 6)]:
        s = build_root_system(*label)
        n = len(s.roots)
        for _ in range(8):
            y = rng.sample(range(n), rng.randint(2, 7))
            x = rng.sample(y, rng.randint(1, len(y)))
            cx = set(complete(RootSet(s, tuple(x))).members)
            cy = set(complete(RootSet(s, tuple(y))).members)
            assert cx <= cy
        # equivariance under a Weyl permutation
        from rootforge.oracle import compose, identity_perm, simple_reflection_perms

        w = identity_perm(s)
        for _ in range(5):
            w = compose(rng.choice(simple_reflection_perms(s)), w)
        x = tuple(rng.sample(range(n), 4))
        moved = tuple(w[i] for i in x)
        assert set(complete(RootSet(s, moved)).members) == {
            w[i] for i in complete(RootSet(s, x)).members
        }


def test_enhanced_basis_node_counts():
    expected = {
        ("A", 5): 5,
        ("D", 4): 5,
        ("D", 5): 6,
        ("D", 6): 8,
        ("D", 7): 9,
        ("D", 8): 11,
        ("E", 6): 8,
        ("E", 7): 11,
        ("E", 8): 16,
    }
    for label, count in expected.items():
        s = build_root_system(*label)
        eb = enhanced_basis(s)
        assert len(eb.nodes) == count
        assert is_complete(eb.full)
        assert len(eb.moset) == _mu_formula(*label)


def test_e7_extension_trace():
    e7 = build_root_system("E", 7)
    eb = enhanced_basis(e7)
    nbrs = lambda lab: {eb.names[x] for x in eb.neighbors(eb.node(lab))}
    assert {"1", "4", "6"} <= nbrs("l1")
    assert {"l1", "2", "7"} <= nbrs("l2")
    assert nbrs("l3") == {"1", "6"}
    assert nbrs("l4") == {"1", "l2"}
    # l1 extends the unique D4 star of the Dynkin diagram
    for rank in (6, 7, 8):
        s = build_root_system("E", rank)
        stars = d4_stars(s, s.simple_basis)
        assert len(stars) == 1
        eb = enhanced_basis(s)
        assert s.proj_rep(extension_root(s, *stars[0])) == eb.node("l1")


def test_e8_diagram_shape():
    e8 = build_root_system("E", 8)
    eb = enhanced_basis(e8)
    assert len(eb.nodes) == 16
    assert all(len(eb.neighbors(n)) == 4 for n in eb.nodes)
    nbrs = lambda lab: {eb.names[x] for x in eb.neighbors(eb.node(lab))}
    assert nbrs("l5") == {"8", "l6", "l7", "l8"}
    assert nbrs("l7") == {"2", "5", "7", "l5"}
    # bipartite: moset nodes only border non-moset nodes
    m = set(eb.moset)
    for n in eb.moset:
        assert not (set(eb.neighbors(n)) & m)


def test_d_series_prime_names():
    d6 = build_root_system("D", 6)
    eb = enhanced_basis(d6)
    for i in (1, 3, 5):
        a, b = eb.node(str(i)), eb.node(f"{i}'")
        assert d6.cartan(a, b) == 0
        sa = {k for k, x in enumerate(d6.roots[a]) if x != 0}
        sb = {k for k, x in enumerate(d6.roots[b]) if x != 0}
        assert sa == sb  # twin columns share a coordinate pair
    assert {eb.names[n] for n in eb.moset} == {"1", "1'", "3", "3'", "5", "5'"}


def _extend_in_random_order(system, members, rng):
    """Projective nodes of the completion of members, grown by one
    elementary_extension at a time on a D4 star that rng picks among those
    lacking their extra node."""
    nodes = system.projective(members)
    while True:
        missing = [
            (center, ends)
            for center, ends in d4_stars(system, nodes)
            if system.proj_rep(extension_root(system, center, ends)) not in nodes
        ]
        if not missing:
            return nodes
        nodes = elementary_extension(system, nodes, *rng.choice(missing))[0]


def test_completion_is_reached_by_elementary_extensions_in_any_order():
    # The completion is canonical: extending one star at a time, in any
    # order, reaches what the round-based loop adds all at once.
    from rootforge.verification import SMALL

    rng = random.Random(19)
    for label in SMALL + [("D", 9), ("D", 10)]:
        s = build_root_system(*label)
        for _ in range(3):
            assert _extend_in_random_order(s, s.simple_basis, rng) == enhanced_basis(s).nodes
    grown = 0
    for label, top in [(("D", 6), 9), (("E", 7), 7), (("E", 8), 7)]:
        s = build_root_system(*label)
        for _ in range(40):
            x = tuple(rng.sample(range(len(s.roots)), rng.randint(2, top)))
            nodes = _extend_in_random_order(s, x, rng)
            assert complete(RootSet(s, x)).members == s.symmetrize(nodes)
            grown += len(nodes) > len(s.projective(x))
    assert grown >= 20


def test_enhanced_bases_conjugate_small():
    # completions of different bases lie in one Weyl orbit (rank <= 4 scan)
    from rootforge.oracle import enumerate_weyl

    for label in [("A", 3), ("D", 4)]:
        s = build_root_system(*label)
        eb_nodes = frozenset(enhanced_basis(s).nodes)
        for w in enumerate_weyl(s)[:200]:
            moved_basis = tuple(w.perm[i] for i in s.simple_basis)
            moved = complete(RootSet(s, moved_basis))
            proj = frozenset(s.proj_rep(i) for i in moved.members)
            expected = frozenset(s.proj_rep(w.perm[i]) for i in enhanced_basis(s).full.members)
            assert proj == expected
        assert eb_nodes  # smoke: nodes nonempty


def test_every_pi_system_reaches_enhanced_basis_small():
    # any Pi-system is conjugate to a node subset of the enhanced diagram
    import random
    from itertools import combinations

    from oracle_reference import sorted_bytes_orbit

    from rootforge import is_pi_system
    from rootforge.oracle import DEFAULT_CAP, _key

    rng = random.Random(5)
    for label in [("A", 3), ("D", 4)]:
        s = build_root_system(*label)
        phi = set(enhanced_basis(s).nodes)
        n = len(s.roots)
        found = 0
        for _ in range(200):
            cand = tuple(rng.sample(range(n), rng.randint(1, 4)))
            if not is_pi_system(RootSet(s, cand)):
                continue
            found += 1
            orbit = sorted_bytes_orbit(s, _key(s, cand), DEFAULT_CAP)
            assert any(set(member) <= phi for member in orbit)
        assert found > 20


def test_bases_inside_phi_conjugate_by_stabilizer():
    # all bases contained in the enhanced basis are conjugate by elements
    # stabilizing it (rank <= 4 brute force)
    from itertools import combinations

    from rootforge import is_pi_system, subsystem_generated
    from rootforge.oracle import enumerate_weyl

    for label in [("A", 3), ("D", 4)]:
        s = build_root_system(*label)
        eb = enhanced_basis(s)
        phi_proj = frozenset(eb.nodes)
        bases = [
            combo
            for combo in combinations(sorted(eb.nodes), s.rank)
            if is_pi_system(RootSet(s, combo))
            and len(subsystem_generated(RootSet(s, combo))) == len(s.roots)
        ]
        stab = [
            w
            for w in enumerate_weyl(s)
            if frozenset(s.proj_rep(w.perm[i]) for i in phi_proj) == phi_proj
        ]
        base0 = frozenset(bases[0])
        for other in bases[1:]:
            target = frozenset(other)
            assert any(
                frozenset(s.proj_rep(w.perm[i]) for i in base0) == target
                for w in stab
            )


def test_name_to_node_is_built_once_per_basis():
    eb = enhanced_basis(build_root_system("E", 8))
    assert eb.name_to_node is eb.name_to_node
    assert {eb.node(label) for label in eb.names.values()} == set(eb.nodes)


def test_columns_outside_the_d_series_raise():
    # Typed, so that it holds under python -O too.
    from rootforge.errors import Unsupported

    with pytest.raises(Unsupported):
        enhanced_basis(build_root_system("E", 6)).columns()


def _stars_by_triples(system, nodes):
    # d4_stars as it was written first: every triple of a centre's
    # neighbours, kept when no two of them are joined.
    from itertools import combinations

    from rootforge.rootsystem import _adjacency, _bits

    adj = _adjacency(system, nodes)
    return [
        (c, tuple(sorted(nodes[e] for e in ends)))
        for c, row in zip(nodes, adj)
        for ends in combinations(_bits(row), 3)
        if not any(adj[a] >> b & 1 for a, b in combinations(ends, 2))
    ]


def _random_sets(rng):
    # Seeded random 9-root sets of E7 and E8, several of which grow to
    # every projective root when completed.
    for label in [("E", 7), ("E", 8)]:
        s = build_root_system(*label)
        for _ in range(6):
            yield s, tuple(rng.sample(range(len(s.roots)), rng.randint(4, 9)))


def test_d4_stars_are_the_unjoined_triples_in_order():
    from rootforge.verification import SMALL

    rng = random.Random(23)
    cases = [(build_root_system(*l).simple_basis, build_root_system(*l)) for l in SMALL]
    cases += [(enhanced_basis(s).nodes, s) for _, s in cases]
    cases += [(s.projective(x), s) for s, x in _random_sets(rng)]
    for nodes, s in cases:
        assert d4_stars(s, nodes) == _stars_by_triples(s, nodes), (s.name, nodes)


def test_star_root_is_the_extension_root_of_every_star_met(monkeypatch):
    # The completion's one-lookup root, which extension_root returns too,
    # against the highest-root walk of the sign-normalised star on every
    # star met while completing the SMALL simple bases and seeded random
    # E7 and E8 sets.
    from completion_reference import walked_extension_root
    from rootforge import completion
    from rootforge.verification import SMALL

    met = []
    star_root = completion._star_root

    def checked(system, center, ends):
        root = star_root(system, center, ends)
        assert root == walked_extension_root(system, center, ends), (system.name, center, ends)
        met.append(root)
        return root

    monkeypatch.setattr(completion, "_star_root", checked)
    cases = [(s, s.simple_basis) for s in (build_root_system(*l) for l in SMALL)]
    cases += list(_random_sets(random.Random(23)))
    for s, members in cases:
        completion._completion(s, members)
    assert len(met) > 10_000


def test_completion_matches_the_every_star_loop():
    # Later rounds look only at stars meeting a node added the round
    # before, and a set holding every root stops: the members must be
    # those of the loop that takes every star's root on every round.
    from completion_reference import every_star_completion
    from rootforge import completion
    from rootforge.verification import SMALL

    cases = [(s, s.simple_basis) for s in (build_root_system(*l) for l in SMALL)]
    cases += list(_random_sets(random.Random(23)))
    cases += list(_random_sets(random.Random(5)))
    grown = 0
    for s, members in cases:
        got = completion._completion(s, members)
        assert got == every_star_completion(s, members), (s.name, members)
        grown += len(got) == len(s.roots)
    assert grown >= 2  # some sets grow to every root
