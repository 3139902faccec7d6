"""Property-based checks over randomly drawn root sets."""

import random

from hypothesis import given, settings, strategies as st

from rootforge import (
    RootSet,
    build_root_system,
    complete,
    delta_diagram,
    classify_components,
    is_complete,
    is_pi_system,
    orbit_label,
    subsystem_generated,
)
from rootforge.diagrams import UnrecognizedComponent
from rootforge.mosets import extend_to_moset
from rootforge.oracle import compose, identity_perm, simple_reflection_perms

SYSTEMS = [("A", 3), ("A", 4), ("D", 4), ("D", 5), ("E", 6)]


def system_strategy():
    return st.sampled_from(SYSTEMS).map(lambda t: build_root_system(*t))


@given(
    data=st.data(),
    label=st.sampled_from(SYSTEMS),
)
@settings(max_examples=60, deadline=None)
def test_symmetric_connected_acyclic_sets_are_recognized(data, label):
    system = build_root_system(*label)
    n = len(system.roots)
    size = data.draw(st.integers(1, min(10, n)))
    sample = data.draw(
        st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True)
    )
    rs = RootSet(system, system.symmetrize(tuple(sample)))
    d = delta_diagram(rs)
    try:
        classify_components(d)
    except UnrecognizedComponent:
        # the recognition theorem covers acyclic components (and full
        # extended-A cycles), so a failure needs a component with a cycle
        from rootforge.rootsystem import components as comps

        found_cycle = False
        for comp in comps(system, d.nodes):
            nodes = set(comp) & set(d.nodes)
            edges = sum(1 for p in d.adjacency if p <= nodes)
            if edges >= len(nodes):
                found_cycle = True
        assert found_cycle, "acyclic symmetric set failed to classify"


@given(data=st.data(), label=st.sampled_from(SYSTEMS))
@settings(max_examples=40, deadline=None)
def test_completion_monotone(data, label):
    system = build_root_system(*label)
    n = len(system.roots)
    big = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=8, unique=True))
    small_size = data.draw(st.integers(1, len(big)))
    small = big[:small_size]
    cx = set(complete(RootSet(system, tuple(small))).members)
    cy = set(complete(RootSet(system, tuple(big))).members)
    assert cx <= cy
    assert is_complete(RootSet(system, tuple(sorted(cy))))


@given(data=st.data(), label=st.sampled_from(SYSTEMS))
@settings(max_examples=40, deadline=None)
def test_moset_extension_is_maximal(data, label):
    system = build_root_system(*label)
    n = len(system.roots)
    seed_pool = data.draw(
        st.lists(st.integers(0, n - 1), min_size=0, max_size=4, unique=True)
    )
    seed = []
    for cand in seed_pool:
        rep = system.proj_rep(cand)
        if all(system.cartan(rep, x) == 0 for x in seed):
            seed.append(rep)
    m = extend_to_moset(system, tuple(seed), range(n))
    assert set(seed) <= set(m.members)
    for cand in system.positive:
        if cand in m.members:
            continue
        assert any(system.cartan(cand, x) != 0 for x in m.members)


@given(data=st.data(), label=st.sampled_from(SYSTEMS))
@settings(max_examples=40, deadline=None)
def test_subsystem_generated_is_closed(data, label):
    system = build_root_system(*label)
    n = len(system.roots)
    seeds = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True)
    )
    sub = subsystem_generated(RootSet(system, tuple(seeds)))
    members = set(sub.members)
    for a in sub.members:
        assert system.negative(a) in members
        for b in sub.members:
            total = tuple(x + y for x, y in zip(system.roots[a], system.roots[b]))
            idx = system.index(total)
            if idx is not None:
                assert idx in members


@given(data=st.data(), label=st.sampled_from(SYSTEMS))
@settings(max_examples=30, deadline=None)
def test_orbit_labels_weyl_invariant(data, label):
    system = build_root_system(*label)
    n = len(system.roots)
    sample = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=5, unique=True)
    )
    picked = []
    for cand in sample:
        if is_pi_system(RootSet(system, tuple(picked + [cand]))):
            picked.append(cand)
    if not picked:
        return
    gens = simple_reflection_perms(system)
    w = identity_perm(system)
    for k in data.draw(st.lists(st.integers(0, len(gens) - 1), max_size=6)):
        w = compose(gens[k], w)
    moved = tuple(system.proj_rep(w[i]) for i in picked)
    assert orbit_label(RootSet(system, tuple(picked))) == orbit_label(
        RootSet(system, moved)
    )


@given(st.sampled_from(SYSTEMS), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_reflection_involution(label, seed):
    system = build_root_system(*label)
    rng = random.Random(seed)
    n = len(system.roots)
    i, j = rng.randrange(n), rng.randrange(n)
    assert system.reflect(system.reflect(i, j), j) == i
