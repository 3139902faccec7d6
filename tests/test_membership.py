"""Weyl membership of embeddings: pinned witness decisions, systems beyond
256 roots, the non-orthogonality rows the witness walk runs on, and the
memoised walk and the core group scan against their earlier forms
(membership_reference)."""

import hashlib
import random

import pytest

from rootforge import (
    EmbeddingMap,
    RootSet,
    are_isomorphic,
    automorphism_group,
    build_root_system,
    core_group_model,
    enhanced_basis,
    is_weyl_embedding,
    orbit_label,
)
from rootforge.classify import pi_node_subsets
from rootforge.diagrams import projective_diagram_of
from rootforge.oracle import perm_from_word
from rootforge.verification import E7_TABLE, E8_TABLE, SMALL

import membership_reference


def _moved(system, word, nodes):
    """Projective images of nodes under the reflections of word, first
    entry applied first."""
    out = []
    for n in nodes:
        for j in word:
            n = system.reflect(n, j)
        out.append(system.proj_rep(n))
    return out


def _word(rng, system, longest=20):
    return [rng.choice(system.positive) for _ in range(rng.randint(1, longest))]


def _stream(seed, positives=15, negatives=2):
    """(system, expected answer, mapping) of a seeded query stream on E7, E8
    and D8: Pi-subsets of the enhanced diagram moved by two random words,
    and on E7/E8 the [T]^0 -> [T]^1 diagram isomorphisms, each composed
    with a random automorphism and moved by two random words."""
    rng = random.Random(seed)
    for name, table in (("E7", E7_TABLE), ("E8", E8_TABLE), ("D8", {})):
        system = build_root_system(name[0], int(name[1:]))
        eb = enhanced_basis(system)
        subsets = pi_node_subsets(eb)
        for _ in range(positives):
            src = rng.choice(subsets)
            pairs = zip(_moved(system, _word(rng, system), src), _moved(system, _word(rng, system), src))
            yield system, True, dict(pairs)
        for ttext in sorted({t for t, _ in table}):
            a, b = eb.subset(table[(ttext, 0)]), eb.subset(table[(ttext, 1)])
            da = projective_diagram_of(system, a)
            _, iso = are_isomorphic(da, projective_diagram_of(system, b))
            autos = automorphism_group(da)
            for _ in range(negatives):
                aut = rng.choice(autos)
                src = sorted(a)
                dst = [iso[aut[n]] for n in src]
                pairs = zip(_moved(system, _word(rng, system), src), _moved(system, _word(rng, system), dst))
                yield system, False, dict(pairs)


def test_witness_decisions_are_pinned():
    # sha256 of every (is_weyl, witness_word, reason) of the stream, taken
    # while membership still replayed whole-word permutations: the witness
    # path may get faster, but it must find the same words.
    decisions = []
    for system, expected, mapping in _stream(5):
        emb = EmbeddingMap(system, mapping)
        decision = is_weyl_embedding(emb)
        assert decision.is_weyl == expected
        if decision.is_weyl:
            perm = perm_from_word(system, decision.witness_word)
            assert all(system.proj_rep(perm[k]) == v for k, v in emb.mapping.items())
        decisions.append((decision.is_weyl, decision.witness_word, decision.reason))
    assert len(decisions) == 67
    digest = hashlib.sha256(repr(decisions).encode()).hexdigest()
    assert digest == "99cffe7c662cff437b0905cd7e1ae0b121a63223ea25acb6a2962bb66c33e588"


def test_join_root_swaps_non_orthogonal_roots_and_rejects_the_rest():
    # s_gamma exchanges the projective roots of a and b for either sign of
    # their pairing; b = a, b = -a and orthogonal b raise.
    from rootforge.classify import _join_root
    from rootforge.errors import InvariantViolation

    s = build_root_system("D", 5)
    for a in range(len(s.roots)):
        for b in range(len(s.roots)):
            if abs(s.cartan(a, b)) == 1:
                gamma = _join_root(s, a, b)
                assert s.proj_rep(s.reflect(a, gamma)) == s.proj_rep(b)
            else:
                with pytest.raises(InvariantViolation):
                    _join_root(s, a, b)


@pytest.mark.parametrize("series, rank", [("D", 12), ("A", 16)])
def test_positives_beyond_256_roots_replay_on_roots(series, rank):
    # Permutations of root indices are packed into bytes (at most 256
    # roots); membership replays its words on the roots alone.
    system = build_root_system(series, rank)
    assert len(system.roots) > 256
    rng = random.Random(rank)
    for _ in range(10):
        src = sorted(rng.sample(system.simple_basis, rng.randint(1, rank)))
        src = _moved(system, _word(rng, system), src)
        dst = _moved(system, _word(rng, system), src)
        decision = is_weyl_embedding(EmbeddingMap(system, dict(zip(src, dst))))
        assert decision.is_weyl
        assert _moved(system, decision.witness_word, src) == dst


def _chain(system, start, stop, flip):
    """Roots e_i - e_{i+1} for start <= i < stop - 1, in doubled
    coordinates; with flip, the last one becomes e_{stop-2} + e_{stop-1}."""
    out = []
    for i in range(start, stop - 1):
        vec = [0] * system.rank
        vec[i] = 2
        vec[i + 1] = 2 if flip and i == stop - 2 else -2
        out.append(system.index(tuple(vec)))
    return out


def _even_partitions(n, largest=None):
    """Partitions of an even n into even parts, largest part first."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -2):
        for rest in _even_partitions(n - part, part):
            yield (part,) + rest


@pytest.mark.parametrize("rank, classes", [(8, 5), (10, 7), (12, 11)])
def test_distinguished_side_isomorphisms_are_rejected(rank, classes):
    # A distinguished Pi-system is a chain A_{2k-1} on each block of a
    # partition of the coordinates into even blocks; flipping the sign of
    # the last root changes its side, and no Weyl element matches the two
    # chains root for root.
    system = build_root_system("D", rank)
    partitions = list(_even_partitions(rank))
    assert len(partitions) == classes
    for parts in partitions:
        ends = [sum(parts[: k + 1]) for k in range(len(parts))]
        a = [r for lo, hi in zip([0] + ends, ends) for r in _chain(system, lo, hi, False)]
        b = [r for lo, hi in zip([0] + ends, ends) for r in _chain(system, lo, hi, hi == rank)]
        la, lb = orbit_label(RootSet(system, a)), orbit_label(RootSet(system, b))
        assert (la.kind, lb.kind) == ("dn_dist", "dn_dist") and la.type_text == lb.type_text
        assert la.data != lb.data
        decision = is_weyl_embedding(EmbeddingMap(system, dict(zip(a, b))))
        assert not decision.is_weyl and decision.witness_word is None


@pytest.mark.parametrize(
    "series, rank", list(dict.fromkeys(SMALL + [("E", 7), ("E", 8), ("D", 8), ("D", 12), ("A", 16)]))
)
def test_cartan_links_rows(series, rank):
    # Row i holds every j with dot(r_i, r_j) != 0, over all roots, so i and
    # -i too; the rows are built from the positive pairs alone.
    from rootforge.rootsystem import cartan_links, dot

    system = build_root_system(series, rank)
    roots = system.roots
    expected = tuple(sum(1 << j for j, s in enumerate(roots) if dot(r, s) != 0) for r in roots)
    assert cartan_links(system) == expected


def test_classify_and_order_build_no_cartan_links(monkeypatch, capsys):
    # The rows serve Weyl membership only; the classification commands run
    # on a fresh E8 and must not build them.
    from rootforge import cli
    from rootforge.rootsystem import RootSystem, cartan_links

    e8 = build_root_system("E", 8)
    fresh = RootSystem("E", 8, list(e8.roots), e8.ambient_dim)
    monkeypatch.setattr(cli, "parse_system", lambda text: fresh)
    for command in ("classify", "order"):
        assert cli.main([command, "E8", "--json", "-"]) == 0
    capsys.readouterr()
    assert fresh.memo
    assert not any(key[0] is cartan_links.__wrapped__ for key in fresh.memo)


def test_positive_mask_is_memoised_on_the_system():
    # Every moset walk starts from the positive roots; their mask is kept
    # on the system rather than rebuilt per query.
    from rootforge.classify import weyl_into_moset
    from rootforge.rootsystem import RootSystem, positive_mask

    e7 = build_root_system("E", 7)
    fresh = RootSystem("E", 7, list(e7.roots), e7.ambient_dim)
    for subset in pi_node_subsets(enhanced_basis(fresh))[:3]:
        weyl_into_moset(fresh, subset[:1])
    keys = [key for key in fresh.memo if key[0] is positive_mask.__wrapped__]
    assert len(keys) == 1
    assert fresh.memo[keys[0]] == sum(1 << i for i in fresh.positive)


def test_weyl_into_moset_builds_no_core_group():
    # The moset targets come from the enhanced basis; the core group, which
    # only is_weyl_embedding needs, is not built for them.
    from rootforge.classify import weyl_into_moset
    from rootforge.rootsystem import RootSystem

    d12 = build_root_system("D", 12)
    fresh = RootSystem("D", 12, list(d12.roots), d12.ambient_dim)
    moset = set(enhanced_basis(fresh).moset)
    picked = []
    for r in fresh.positive:
        if r not in moset and len(picked) < 4 and all(fresh.cartan(r, p) == 0 for p in picked):
            picked.append(r)
    word, images = weyl_into_moset(fresh, picked)
    assert word and set(images.values()) <= moset
    assert fresh.memo
    assert not any(key[0] is core_group_model.__wrapped__ for key in fresh.memo)


def _orthogonal_sets(rng, system, count):
    """count seeded orthogonal sets of raw root indices, either sign, grown
    greedily from random roots to a random size between 1 and mu."""
    mu = len(core_group_model(system).moset)
    for _ in range(count):
        size, picked = rng.randint(1, mu), []
        pool = list(range(len(system.roots)))
        while pool and len(picked) < size:
            r = rng.choice(pool)
            picked.append(r)
            pool = [x for x in pool if system.cartan(x, r) == 0]
        yield picked


@pytest.mark.parametrize("series, rank", [("E", 7), ("E", 8), ("D", 8), ("D", 12)])
def test_weyl_into_moset_matches_the_unmemoised_walk(series, rank, monkeypatch):
    # One system object answers the whole stream, so later sets reuse the
    # walks of earlier ones; each answer must equal, word for word, the
    # walk that moves every image and walks every step afresh, and a call
    # runs at most one new walk per element placed.
    from rootforge.classify import _walk_to, weyl_into_moset

    system = build_root_system(series, rank)
    mu = len(core_group_model(system).moset)
    rng = random.Random(1800 + rank)
    walks, walk_to = [], membership_reference.walk_to

    def counted(*args):
        walks.append(args)
        return walk_to(*args)

    def entries():
        return sum(1 for key in system.memo if key[0] is _walk_to.__wrapped__)

    monkeypatch.setattr(membership_reference, "walk_to", counted)
    before = entries()
    for subset in _orthogonal_sets(rng, system, 200):
        expected = membership_reference.weyl_into_moset(system, subset)
        added = entries()
        assert weyl_into_moset(system, subset) == expected
        assert entries() - added <= mu
    assert entries() - before < len(walks)


@pytest.mark.parametrize("series, rank", [("E", 7), ("E", 8), ("D", 8)])
def test_extend_partial_map_matches_the_pairwise_scan(series, rank):
    # Seeded partial maps of 0 to 4 moset nodes, injective or not: the
    # first element found and its word are the pairwise scan's.
    from rootforge.coregroups import extend_partial_map

    model = core_group_model(build_root_system(series, rank))
    rng = random.Random(rank)
    found = []
    for size in range(5):
        for _ in range(40):
            sources = rng.sample(model.moset, size)
            if rng.random() < 0.8:
                images = rng.sample(model.moset, size)
            else:
                images = [rng.choice(model.moset) for _ in sources]
            mapping = dict(zip(sources, images))
            answer = extend_partial_map(model, mapping)
            assert answer == membership_reference.extend_partial_map(model, mapping)
            found.append(answer[0])
    assert extend_partial_map(model, {}) == (True, model.element_list[0][1])
    assert True in found and False in found


def test_weyl_into_moset_refuses_raw_indices_that_are_no_roots():
    # A negative index would wrap to the end of the table and give a
    # second memo key for one root; a float or an index past the table
    # would fail with a bare Python error.
    from rootforge.classify import _walk_to, weyl_into_moset
    from rootforge.errors import NoSuchRoot
    from rootforge.rootsystem import RootSystem

    e8 = build_root_system("E", 8)
    fresh = RootSystem("E", 8, list(e8.roots), e8.ambient_dim)
    for subset in [(300,), (-1,), (1.5,), ("3",), (0, 240)]:
        with pytest.raises(NoSuchRoot):
            weyl_into_moset(fresh, subset)
    assert not any(key[0] is _walk_to.__wrapped__ for key in fresh.memo)
