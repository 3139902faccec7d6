import pytest

from rootforge import (
    RootSet,
    build_root_system,
    components,
    elementary_transformations,
    extended_pi_system,
    is_pi_system,
    orthogonal_complement,
    parse_system,
    subsystem_generated,
    theta_component,
)
from rootforge.classify import subsystem_type
from rootforge.errors import NotIrreducible, NotOrthogonal, UnsupportedType
from rootforge.rootsystem import RootSystem, system_memo


def test_root_counts():
    # n(n+1), 2n(n-1), 72, 126, 240: counted from the coordinate models.
    assert len(build_root_system("A", 2).roots) == 6
    assert len(build_root_system("D", 4).roots) == 24
    assert len(build_root_system("E", 8).roots) == 240
    assert len(build_root_system("E", 7).roots) == 126
    assert len(build_root_system("E", 6).roots) == 72
    for n in range(1, 9):
        assert len(build_root_system("A", n).roots) == n * (n + 1)
    for n in range(4, 9):
        assert len(build_root_system("D", n).roots) == 2 * n * (n - 1)


def test_e8_root_breakdown():
    s = build_root_system("E", 8)
    integral = [r for r in s.roots if all(x % 2 == 0 for x in r)]
    half = [r for r in s.roots if all(x % 2 == 1 for x in r)]
    assert len(integral) == 112 and len(half) == 128


def test_rejected_types():
    for series, rank in [("D", 2), ("D", 3), ("E", 5), ("E", 9), ("A", 0), ("B", 2)]:
        with pytest.raises(UnsupportedType):
            build_root_system(series, rank)
    with pytest.raises(UnsupportedType):
        parse_system("F4")


def test_squared_lengths_and_closure():
    for label in [("A", 3), ("D", 4), ("E", 6)]:
        s = build_root_system(*label)
        for r in s.roots:
            assert sum(x * x for x in r) == 8  # doubled coordinates
        n = len(s.roots)
        for i in range(n):
            for j in range(n):
                assert 0 <= s.reflect(i, j) < n
        for i in range(n):
            assert s.negative(s.negative(i)) == i


def test_cartan_pair_values():
    a2 = build_root_system("A", 2)
    i, j = a2.simple_basis
    assert a2.cartan(i, i) == 2
    assert a2.cartan(i, j) == -1  # adjacent simple roots
    d4 = build_root_system("D", 4)
    b = d4.simple_basis
    vals = {d4.cartan(x, y) for x in b for y in b if x != y}
    assert vals <= {0, -1}


def test_reflect_basics():
    a2 = build_root_system("A", 2)
    i, j = a2.simple_basis
    assert a2.reflect(i, i) == a2.negative(i)
    # orthogonal roots are fixed
    d4 = build_root_system("D", 4)
    x, y = d4.simple_basis[0], d4.simple_basis[3]
    if d4.cartan(x, y) == 0:
        assert d4.reflect(x, y) == x
    # s_alpha(beta) = alpha + beta for adjacent simple roots of A2
    img = a2.reflect(j, i)
    expected = tuple(a + b for a, b in zip(a2.roots[i], a2.roots[j]))
    assert a2.roots[img] == expected
    # involutive
    assert a2.reflect(a2.reflect(j, i), i) == j


def test_is_pi_system():
    a2 = build_root_system("A", 2)
    assert is_pi_system(RootSet(a2, a2.simple_basis))
    i = a2.simple_basis[0]
    assert not is_pi_system(RootSet(a2, (i, a2.negative(i))))
    # {alpha, alpha+beta} has a root-valued difference
    i, j = a2.simple_basis
    k = a2.index(tuple(a + b for a, b in zip(a2.roots[i], a2.roots[j])))
    assert not is_pi_system(RootSet(a2, (i, k)))
    for label in [("A", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8)]:
        s = build_root_system(*label)
        assert is_pi_system(RootSet(s, s.simple_basis))


def test_extended_pi_system():
    a2 = build_root_system("A", 2)
    base = RootSet(a2, a2.simple_basis)
    ext = extended_pi_system(base)
    assert len(ext) == len(base) + 1
    i, j = a2.simple_basis
    lowest = tuple(-(a + b) for a, b in zip(a2.roots[i], a2.roots[j]))
    assert a2.index(lowest) in ext.members
    # removing any single element leaves a Pi-system
    for label in [("A", 2), ("A", 4), ("D", 4), ("D", 5), ("E", 6)]:
        s = build_root_system(*label)
        full = extended_pi_system(RootSet(s, s.simple_basis))
        assert len(full) == s.rank + 1
        for drop in full.members:
            rest = tuple(x for x in full.members if x != drop)
            assert is_pi_system(RootSet(s, rest))


def test_extended_d4_sum_rule():
    # ends of the extended set plus twice the center vanish
    d4 = build_root_system("D", 4)
    base = RootSet(d4, d4.simple_basis)
    ext = extended_pi_system(base)
    members = list(ext.members)
    center = next(
        m
        for m in members
        if sum(1 for x in members if x != m and d4.cartan(m, x) != 0) == 4
    )
    total = [0] * d4.ambient_dim
    for m in members:
        w = 2 if m == center else 1
        for k, x in enumerate(d4.roots[m]):
            total[k] += w * x
    assert all(x == 0 for x in total)


def test_extended_requires_irreducible():
    d4 = build_root_system("D", 4)
    b = d4.simple_basis
    pair = (b[0], b[3])  # two orthogonal simple roots
    if d4.cartan(*pair) == 0:
        with pytest.raises(NotIrreducible):
            extended_pi_system(RootSet(d4, pair))


def _sign_fixed(system, nodes):
    # Signs along walks from the first node of each component, so every
    # bond of a forest pairs to -1.
    out = {}
    for start in nodes:
        if start in out:
            continue
        out[start] = start
        stack = [start]
        while stack:
            cur = out[stack.pop()]
            for m in nodes:
                if m not in out and system.cartan(cur, m):
                    out[m] = m if system.cartan(cur, m) < 0 else system.negative(m)
                    stack.append(m)
    return tuple(out.values())


def test_is_pi_system_agrees_with_rank_and_differences():
    # The pairing-and-shape test against linear independence by Fraction
    # elimination plus the root-difference rule, on signed enhanced-diagram
    # subsets (some signs flipped, some +-pairs added), random root sets and
    # the dependent extended diagrams.
    import random

    from linalg_reference import is_pi_system as reference
    from rootforge import enhanced_basis
    from rootforge.verification import SMALL

    rng = random.Random(11)
    checked = accepted = 0
    for series, rank_ in SMALL:
        s = build_root_system(series, rank_)
        nodes = enhanced_basis(s).nodes
        n = len(s.roots)
        sets = [extended_pi_system(RootSet(s, s.simple_basis)).members]
        for _ in range(300):
            size = rng.randint(1, min(len(nodes), rank_ + 1))
            members = list(_sign_fixed(s, rng.sample(nodes, size)))
            kind = rng.random()
            if kind < 0.2:
                k = rng.randrange(size)
                members[k] = s.negative(members[k])
            elif kind < 0.3:
                members.append(s.negative(rng.choice(members)))
            elif kind < 0.4:
                members = rng.sample(range(n), size)
            sets.append(members)
        for members in sets:
            rs = RootSet(s, tuple(members))
            expected = reference(s, rs.members)
            assert is_pi_system(rs) == expected, (s.name, rs.members)
            checked += 1
            accepted += expected
        assert not is_pi_system(RootSet(s, sets[0]))
    assert checked == 16 * 301 and 1000 < accepted < checked - 1000


def test_minimal_root_is_the_least_coefficient_sum_root():
    # The negated highest-root walk against the root of the generated
    # subsystem whose coefficients over the set have the least sum, on
    # every sign-fixed component of sampled Pi-subsets.
    import random

    from linalg_reference import least_sum_root
    from rootforge import enhanced_basis, minimal_root
    from rootforge.classify import pi_node_subsets
    from rootforge.verification import SMALL

    rng = random.Random(12)
    checked = 0
    for series, rank_ in SMALL:
        s = build_root_system(series, rank_)
        subsets = pi_node_subsets(enhanced_basis(s))
        for subset in rng.sample(subsets, min(len(subsets), 25)):
            for comp in components(s, subset):
                comp = RootSet(s, _sign_fixed(s, comp))
                scope = subsystem_generated(comp).members
                assert minimal_root(comp) == least_sum_root(s, comp.members, scope)
                checked += 1
    assert checked > 500


COXETER = {"A": lambda n: n + 1, "D": lambda n: 2 * n - 2, "E": {6: 12, 7: 18, 8: 30}.get}


def test_highest_root_walk_above_rank_8():
    # The highest root is dominant and has height h - 1, read off as half
    # its pairing with the sum of the positive roots; the extended basis
    # is the extended diagram (for A1, alpha and -alpha on a quadruple bond).
    from rootforge import classify_components, gamma_diagram
    from rootforge.diagrams import Irreducible
    from rootforge.rootsystem import _highest_root

    labels = [("A", n) for n in range(1, 21)] + [("D", n) for n in range(4, 17)]
    for series, rank_ in labels + [("E", 6), ("E", 7), ("E", 8)]:
        s = build_root_system(series, rank_)
        theta, marks = _highest_root(s, s.simple_basis)
        assert all(s.cartan(theta, b) >= 0 for b in s.simple_basis)
        height = sum(s.cartan(theta, p) for p in s.positive) // 2
        assert height == COXETER[series](rank_) - 1, s.name
        # The marks are theta's coefficients over the basis.
        combo = [sum(m * s.roots[b][k] for m, b in zip(marks, s.simple_basis)) for k in range(s.ambient_dim)]
        assert tuple(combo) == s.roots[theta] and sum(marks) == height, s.name
        ext = extended_pi_system(RootSet(s, s.simple_basis))
        shape = classify_components(gamma_diagram(ext)).parts
        assert shape == (Irreducible(series, rank_, extended=True),), s.name


def test_subsystem_basis_matches_the_quadratic_search():
    # The lexicographic walk against the test of every positive member
    # against every other, on whole systems and on the closed subsystems
    # that seeded Pi-subsets of the enhanced diagrams generate.
    import random

    from linalg_reference import subsystem_basis as reference
    from rootforge import enhanced_basis
    from rootforge.classify import pi_node_subsets, subsystem_basis
    from rootforge.verification import SMALL

    labels = [("A", n) for n in range(1, 21)] + [("D", n) for n in range(4, 17)]
    for series, rank_ in labels + [("E", 6), ("E", 7), ("E", 8)]:
        s = build_root_system(series, rank_)
        members = range(len(s.roots))
        assert subsystem_basis(s, members) == reference(s, members), s.name
        assert len(s.simple_basis) == rank_, s.name
    rng = random.Random(12)
    for series, rank_ in SMALL + [("D", 10)]:
        s = build_root_system(series, rank_)
        subsets = pi_node_subsets(enhanced_basis(s))
        for subset in rng.sample(subsets, min(40, len(subsets))):
            closed = subsystem_generated(RootSet(s, subset)).members
            assert subsystem_basis(s, closed) == reference(s, closed), (s.name, subset)
            assert len(subsystem_basis(s, closed)) == len(subset), (s.name, subset)


def test_elementary_transformations():
    a1 = build_root_system("A", 1)
    out = elementary_transformations(RootSet(a1, (a1.simple_basis[0],)))
    assert out and all(len(t.result) == 1 and t.trivial for t in out)
    d4 = build_root_system("D", 4)
    outs = elementary_transformations(RootSet(d4, d4.simple_basis))
    assert all(is_pi_system(t.result) for t in outs)
    types = {
        subsystem_type(d4, subsystem_generated(t.result).members).render()
        for t in outs
    }
    assert "4A1" in types  # deleting the branching node of the extended D4
    four = next(t for t in outs if len(subsystem_generated(t.result)) == 8)
    assert not four.trivial


def test_subsystem_generated():
    a2 = build_root_system("A", 2)
    assert len(subsystem_generated(RootSet(a2, a2.simple_basis))) == 6
    i = a2.simple_basis[0]
    assert set(subsystem_generated(RootSet(a2, (i,))).members) == {i, a2.negative(i)}
    e8 = build_root_system("E", 8)
    d8_like = [e8.index(r) for r in e8.roots if all(x % 2 == 0 for x in r)]
    from rootforge.classify import subsystem_basis

    basis = subsystem_basis(e8, tuple(d8_like))
    sub = subsystem_generated(RootSet(e8, basis))
    assert len(sub) == 112


def test_orthogonal_complement_and_theta():
    e8 = build_root_system("E", 8)
    alpha = e8.simple_basis[0]
    psi = orthogonal_complement(e8, (alpha,), tuple(range(len(e8.roots))))
    assert subsystem_type(e8, psi).render() == "E7"
    a4 = build_root_system("A", 4)
    alpha = a4.simple_basis[0]
    psi = orthogonal_complement(a4, (alpha,), tuple(range(len(a4.roots))))
    assert subsystem_type(a4, psi).render() == "A2"
    assert orthogonal_complement(a4, (), tuple(range(20))) == tuple(range(20))

    e7 = build_root_system("E", 7)
    theta = theta_component(e7, (e7.simple_basis[0],))
    assert subsystem_type(e7, theta).render() == "D6"
    assert theta_component(e7, ()) == tuple(range(len(e7.roots)))
    d4 = build_root_system("D", 4)
    from rootforge.mosets import all_mosets

    moset = all_mosets(d4)[0]
    assert theta_component(d4, moset) == ()
    adjacent = next(
        (x, y)
        for x in e7.simple_basis
        for y in e7.simple_basis
        if x != y and e7.cartan(x, y) != 0
    )
    with pytest.raises(NotOrthogonal):
        theta_component(e7, adjacent)


def test_complement_table_rows():
    # full scan per root at small rank
    for series, rank, expected in [("A", 4, "A2"), ("D", 5, "A3+A1"), ("E", 6, "A5")]:
        s = build_root_system(series, rank)
        for alpha in range(len(s.roots)):
            psi = orthogonal_complement(s, (alpha,), tuple(range(len(s.roots))))
            assert subsystem_type(s, psi).render() == expected


def test_simple_basis_properties():
    for label in [("A", 5), ("D", 6), ("E", 7)]:
        s = build_root_system(*label)
        basis = RootSet(s, s.simple_basis)
        assert is_pi_system(basis)
        assert len(subsystem_generated(basis)) == len(s.roots)
        assert len(components(s, s.simple_basis)) == 1


def test_every_root_is_signed_basis_combination():
    from linalg_reference import solve_integer_combination

    for label in [("A", 3), ("D", 4), ("E", 6)]:
        s = build_root_system(*label)
        basis = [s.roots[i] for i in s.simple_basis]
        for r in s.roots:
            coeffs = solve_integer_combination(basis, r)
            assert coeffs is not None
            assert all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)


def test_json_round_trip():
    s = build_root_system("A", 2)
    payload = s.to_json()
    assert payload["schema"] == "rootforge/1"
    assert payload["series"] == "A" and payload["rank"] == 2
    assert len(payload["roots"]) == 6 and len(payload["basis"]) == 2
    rs = RootSet(s, s.simple_basis)
    assert rs.to_json()["members"] == sorted(s.simple_basis)


def test_subsystem_generated_is_the_integer_span():
    # Independent of the additive closure: a root lies in the generated
    # subsystem exactly when it is an integer combination of the seeds
    # (solved for the positive roots; r and -r are in it together).
    from rootforge import enhanced_basis
    from rootforge.classify import pi_node_subsets
    from linalg_reference import solve_integer_combination

    for series, rank in [("D", 6), ("E", 7)]:
        s = build_root_system(series, rank)
        for seed in pi_node_subsets(enhanced_basis(s)):
            if len(seed) > 3:
                continue
            vecs = [s.roots[i] for i in seed]
            positive = [
                i
                for i in s.positive
                if solve_integer_combination(vecs, s.roots[i]) is not None
            ]
            expected = s.symmetrize(tuple(positive))
            assert subsystem_generated(RootSet(s, seed)).members == expected


def _additive_closure(rs: RootSet) -> tuple[int, ...]:
    # The earlier subsystem_generated: a + b joins the symmetrized set
    # whenever it is a root, until nothing new appears.
    sysm = rs.system
    roots = sysm.roots
    members = set(sysm.symmetrize(rs.members))
    frontier = list(members)
    while frontier:
        grown = []
        for a in list(members):
            ra = roots[a]
            for b in frontier:
                idx = sysm.index(tuple(x + y for x, y in zip(ra, roots[b])))
                if idx is not None and idx not in members:
                    members.add(idx)
                    members.add(sysm.negative(idx))
                    grown.append(idx)
        frontier = grown
    return tuple(sorted(members))


def test_reflection_orbit_equals_additive_closure_on_generator_seeds():
    from rootforge import enhanced_basis
    from rootforge.coregroups import _generator_pool
    from rootforge.verification import SMALL

    for series, rank in SMALL + [("D", 9), ("D", 10), ("A", 12), ("D", 12)]:
        s = build_root_system(series, rank)
        seeds = _generator_pool(s, enhanced_basis(s))
        for seed in seeds:
            rs = RootSet(s, seed)
            assert subsystem_generated(rs).members == _additive_closure(rs)


def test_reflection_orbit_equals_additive_closure_on_random_sets():
    import random

    rng = random.Random(10)
    for series, rank in [("A", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8), ("D", 12)]:
        s = build_root_system(series, rank)
        for _ in range(25):
            seed = rng.sample(range(len(s.roots)), rng.randint(1, 4))
            rs = RootSet(s, tuple(seed))
            assert subsystem_generated(rs).members == _additive_closure(rs)
    e8 = build_root_system("E", 8)
    assert subsystem_generated(RootSet(e8, ())).members == ()


def _pool_components(system, members):
    # The earlier components: a breadth-first walk over a pool of members.
    pool = dict.fromkeys(members)
    out = []
    for start in members:
        if start not in pool:
            continue
        del pool[start]
        comp, stack = [start], [start]
        while stack:
            cur = stack.pop()
            found = [x for x in pool if system.cartan(cur, x) != 0]
            for x in found:
                del pool[x]
            comp += found
            stack += found
        out.append(tuple(sorted(comp)))
    return out


def test_components_match_the_pool_walk():
    import random

    rng = random.Random(7)
    for label in [("A", 5), ("D", 6), ("E", 7)]:
        s = build_root_system(*label)
        for _ in range(50):
            # Repeats and negatives included.
            members = [rng.randrange(len(s.roots)) for _ in range(rng.randint(0, 12))]
            members += [s.negative(m) for m in members[:2]] + members[:1]
            rng.shuffle(members)
            assert components(s, tuple(members)) == _pool_components(s, members)


def test_system_memo_spellings_share_one_entry():
    calls = []

    @system_memo
    def scaled(system, factor=2):
        calls.append(factor)
        return len(system.roots) * factor

    a2 = build_root_system("A", 2)
    s = RootSystem("A", 2, list(a2.roots), a2.ambient_dim)  # empty memo
    out = scaled(s)
    assert scaled(s, 2) == scaled(s, factor=2) == out == 12
    assert calls == [2]
    assert sum(1 for key in s.memo if key[0] is scaled.__wrapped__) == 1
    assert scaled(s, factor=3) == scaled(s, 3) == 18
    assert calls == [2, 3]
    with pytest.raises(TypeError):
        scaled(s, 2, factor=2)
    # The binder raises TypeError wherever the call itself would.
    with pytest.raises(TypeError):
        scaled(s, scale=2)  # an unknown keyword
    with pytest.raises(TypeError):
        scaled(s, 2, 3)  # one positional too many

    @system_memo
    def shifted(system, offset, factor=1):
        calls.append((offset, factor))
        return len(system.roots) * factor + offset

    with pytest.raises(TypeError):
        shifted(s)  # a required argument missing
    with pytest.raises(TypeError):
        shifted(s, factor=2)
    assert shifted(s, 1) == shifted(s, offset=1) == shifted(s, 1, factor=1) == shifted(system=s, offset=1) == 7
    assert shifted(s, factor=2, offset=1) == shifted(s, 1, 2) == 13
    assert calls == [2, 3, (1, 1), (1, 2)]
