import pytest

from rootforge import (
    RootSet,
    all_mosets,
    all_mosets_conjugate_check,
    build_root_system,
    enhanced_basis,
    extend_to_moset,
    mu,
    perfect_moset,
    subsystem_generated,
    theta_component,
)
from rootforge.errors import NotOrthogonalSeed, NotPiSystem
from rootforge.rootsystem import components, orthogonal_complement


def test_mu_table():
    expected = {
        ("A", 1): 1, ("A", 2): 1, ("A", 3): 2, ("A", 4): 2, ("A", 5): 3,
        ("A", 6): 3, ("A", 7): 4, ("A", 8): 4,
        ("D", 4): 4, ("D", 5): 4, ("D", 6): 6, ("D", 7): 6, ("D", 8): 8,
        ("E", 6): 4, ("E", 7): 7, ("E", 8): 8,
    }
    for label, value in expected.items():
        assert mu(build_root_system(*label)) == value


def test_extend_to_moset():
    a2 = build_root_system("A", 2)
    m = extend_to_moset(a2, (), range(6))
    assert len(m.members) == 1
    e8 = build_root_system("E", 8)
    m8 = extend_to_moset(e8, (), range(240))
    assert len(m8.members) == 8
    again = extend_to_moset(e8, m8.members, range(240))
    assert again.members == m8.members
    x, y = a2.simple_basis
    with pytest.raises(NotOrthogonalSeed):
        extend_to_moset(a2, (x, y), range(6))


def test_all_mosets_sizes():
    for label in [("A", 2), ("A", 3), ("A", 5), ("D", 4), ("D", 5), ("D", 6), ("E", 6)]:
        s = build_root_system(*label)
        sizes = {len(m) for m in all_mosets(s)}
        assert sizes == {mu(s)}
    a2 = build_root_system("A", 2)
    assert len(all_mosets(a2)) == 3  # one per projective root


def test_all_mosets_conjugate():
    # E8 has 2,025 mosets; their check takes about 0.5 s.
    for label in [("A", 1), ("A", 2), ("A", 3), ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8)]:
        assert all_mosets_conjugate_check(build_root_system(*label))


def test_moset_vs_component_decomposition():
    # a moset of a reducible scope meets every component in a moset
    d6 = build_root_system("D", 6)
    eb = enhanced_basis(d6)
    seed = eb.subset(["1", "1'"])
    scope = orthogonal_complement(d6, seed, tuple(range(len(d6.roots))))
    m = extend_to_moset(d6, (), scope)
    for comp in components(d6, scope):
        comp_m = [x for x in m.members if x in comp or d6.negative(x) in comp]
        # maximality inside the component
        for cand in comp:
            rep = d6.proj_rep(cand)
            if rep in comp_m:
                continue
            assert any(d6.cartan(rep, y) != 0 for y in comp_m)


def test_perfect_mosets():
    a3 = build_root_system("A", 3)
    pm = perfect_moset(RootSet(a3, a3.simple_basis))
    assert len(pm.members) == 2
    ends = [
        b
        for b in a3.simple_basis
        if sum(1 for x in a3.simple_basis if x != b and a3.cartan(b, x) != 0) == 1
    ]
    assert set(pm.members) == set(ends)
    d4 = build_root_system("D", 4)
    pm4 = perfect_moset(RootSet(d4, d4.simple_basis))
    assert len(pm4.members) == 3  # the three ends of the star
    a2 = build_root_system("A", 2)
    pm2 = perfect_moset(RootSet(a2, a2.simple_basis))
    assert len(pm2.members) == 1
    assert pm2.members[0] == min(a2.simple_basis)  # deterministic tie-break
    # an extended set is not a Pi-system
    from rootforge import extended_pi_system

    ext = extended_pi_system(RootSet(d4, d4.simple_basis))
    with pytest.raises(NotPiSystem):
        perfect_moset(ext)


def test_perfect_moset_sizes_match_charge_types():
    e7 = build_root_system("E", 7)
    eb = enhanced_basis(e7)
    cases = {
        ("2", "5", "7"): 3,
        ("5", "6", "7", "2"): 3,
        ("2", "4", "5", "6", "7"): 3,
        ("3", "5", "7", "l4"): 4,
        ("3", "4", "5", "6", "7", "l4"): 4,
    }
    for labels, charge in cases.items():
        pm = perfect_moset(RootSet(e7, eb.subset(labels)))
        assert len(pm.members) == charge


def test_theta_at_most_one_big_component():
    # full scan at small rank: orthogonal subsets leave at most one
    # component that is not A1
    from itertools import combinations

    for label in [("A", 4), ("D", 4), ("D", 5)]:
        s = build_root_system(*label)
        nodes = s.positive
        for k in (1, 2, 3):
            for combo in combinations(nodes[: min(len(nodes), 14)], k):
                if any(s.cartan(a, b) != 0 for a, b in combinations(combo, 2)):
                    continue
                theta_component(s, combo)  # raises if two big components


def test_theta_sampled_at_high_rank():
    import random

    rng = random.Random(8)
    for label in [("E", 7), ("E", 8)]:
        s = build_root_system(*label)
        eb = enhanced_basis(s)
        moset = list(eb.moset)
        for _ in range(60):
            k = rng.randint(1, len(moset) - 1)
            combo = tuple(rng.sample(moset, k))
            theta_component(s, combo)  # raises if two big components


def test_boldfaced_nodes_form_moset():
    for label in [("A", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8)]:
        s = build_root_system(*label)
        eb = enhanced_basis(s)
        m = extend_to_moset(s, eb.moset, range(len(s.roots)))
        assert set(m.members) == set(eb.moset)  # already maximal in the system
        assert len(eb.moset) == mu(s)
