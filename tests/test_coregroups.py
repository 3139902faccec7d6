from itertools import combinations

import pytest

from rootforge import (
    build_root_system,
    conjugate_in_moset,
    core_group_model,
    enhanced_basis,
    extend_partial_map,
    induced_group_on,
    parity,
)
from rootforge.coregroups import core_order_formula
from rootforge import coregroups
from rootforge.errors import InvariantViolation, LabelingInfeasible, NotInMoset, NotMoset, Unsupported
from rootforge.coregroups import verify_moset
from rootforge.mosets import _mu_formula
from rootforge.verification import SMALL, core_order_by_orbit, weyl_order_by_degrees
from rootforge.oracle import (
    enumerate_weyl,
    induced_action,
    perm_from_word,
    set_stabilizer,
)


ALL = [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)] + [
    ("E", 6), ("E", 7), ("E", 8),
]


def test_order_table():
    expected = {
        ("A", 5): 6, ("A", 8): 24, ("D", 4): 4, ("D", 5): 8, ("D", 6): 24,
        ("D", 7): 48, ("D", 8): 192, ("E", 6): 24, ("E", 7): 168, ("E", 8): 1344,
    }
    for label, value in expected.items():
        assert core_group_model(build_root_system(*label)).order == value
    # Beyond ALL, the first generator pool still reaches the full order.
    for label in ALL + [("D", 9), ("D", 10), ("A", 12)]:
        model = core_group_model(build_root_system(*label))
        assert model.order == core_order_formula(*label)


def test_order_recursion_through_complement():
    # order(core) = order(core of the complement of a root) * mu
    complement = {
        ("A", n): [("A", n - 2)] for n in range(3, 9)
    }
    complement.update({("A", 1): [], ("A", 2): []})
    complement.update(
        {("D", n): ([("D", n - 2)] if n >= 6 else [("A", 3)] if n == 5 else [("A", 1)] * 3) + [("A", 1)] for n in range(4, 9)}
    )
    complement.update({("E", 6): [("A", 5)], ("E", 7): [("D", 6)], ("E", 8): [("E", 7)]})
    for label, parts in complement.items():
        nu = core_order_formula(*label)
        nu_psi = 1
        for part in parts:
            nu_psi *= core_order_formula(*part)
        assert nu == nu_psi * _mu_formula(*label)


def test_transitive_and_faithful():
    for label in [("A", 5), ("D", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8)]:
        model = core_group_model(build_root_system(*label))
        k = len(model.moset)
        if k > 1:
            images = {perm[0] for perm in model.elements}
            assert images == set(range(k))  # transitivity
        assert sum(1 for p in model.elements if p == tuple(range(k))) == 1


def test_pointwise_fix_is_identity_small():
    # no nontrivial Weyl element fixes every moset root
    for label in [("A", 3), ("D", 4), ("D", 5)]:
        s = build_root_system(*label)
        model = core_group_model(s)
        ident = bytes(range(len(s.roots)))
        for w in enumerate_weyl(s):
            if all(w.perm[m] == m for m in model.moset):
                assert w.perm == ident


def test_oracle_stabilizer_agreement():
    for label in [("D", 4), ("D", 5), ("D", 6), ("E", 6)]:
        s = build_root_system(*label)
        model = core_group_model(s)
        stab = set_stabilizer(s, model.moset, enumerate_weyl(s))
        assert induced_action(s, model.moset, stab) == set(model.elements)


def test_words_replay_as_weyl_elements():
    for label in [("D", 5), ("E", 6), ("E", 7)]:
        s = build_root_system(*label)
        model = core_group_model(s)
        sample = list(model.elements.items())[:40]
        for perm, word in sample:
            p = perm_from_word(s, word)
            for i, m in enumerate(model.moset):
                assert s.proj_rep(p[m]) == model.moset[perm[i]]


def test_labeling_parities_match_tables():
    e7 = build_root_system("E", 7)
    eb7 = enhanced_basis(e7)
    m7 = core_group_model(e7)
    assert parity(m7, eb7.subset(["2", "5", "7"])) == 0
    assert parity(m7, eb7.subset(["3", "5", "7"])) == 1
    assert parity(m7, ()) == 0
    assert parity(m7, m7.moset) == 0  # all nonzero vectors sum to zero
    e8 = build_root_system("E", 8)
    eb8 = enhanced_basis(e8)
    m8 = core_group_model(e8)
    assert parity(m8, eb8.subset(["2", "5", "7", "l5"])) == 0
    assert parity(m8, eb8.subset(["3", "5", "7", "l5"])) == 1
    with pytest.raises(NotInMoset):
        parity(m7, eb7.subset(["1"]))


def test_fano_interpretation():
    # dependent triples form 7 lines meeting pairwise in one point
    e7 = build_root_system("E", 7)
    m = core_group_model(e7)
    labels = m.labeling.labels
    lines = [
        frozenset(t)
        for t in combinations(m.moset, 3)
        if labels[t[0]] ^ labels[t[1]] ^ labels[t[2]] == 0
    ]
    assert len(lines) == 7
    for l1, l2 in combinations(lines, 2):
        assert len(l1 & l2) == 1
    points = set()
    for l in lines:
        points |= l
    assert len(points) == 7


def test_conjugate_in_moset_rules():
    e7 = build_root_system("E", 7)
    eb7 = enhanced_basis(e7)
    m7 = core_group_model(e7)
    pairs = list(combinations(m7.moset, 2))
    assert conjugate_in_moset(m7, pairs[0], pairs[-1])
    o1 = eb7.subset(["2", "5", "7"])
    o2 = eb7.subset(["3", "5", "7"])
    assert not conjugate_in_moset(m7, o1, o2)
    assert conjugate_in_moset(m7, o1, o1)
    e8 = build_root_system("E", 8)
    eb8 = enhanced_basis(e8)
    m8 = core_group_model(e8)
    assert not conjugate_in_moset(
        m8, eb8.subset(["2", "5", "7", "l5"]), eb8.subset(["3", "5", "7", "l5"])
    )
    # rule agrees with a direct orbit scan (sampled sizes)
    for k in (1, 2, 3, 4, 5):
        subs = list(combinations(m7.moset, k))[:12]
        for a in subs:
            for b in subs:
                rule = conjugate_in_moset(m7, a, b)
                pa = frozenset(m7.position(x) for x in a)
                pb = frozenset(m7.position(x) for x in b)
                scan = any(
                    frozenset(p[i] for i in pa) == pb for p in m7.elements
                )
                assert rule == scan


def test_dn_matrix_model():
    d6 = build_root_system("D", 6)
    model = core_group_model(d6)
    assert model.labeling.kind == "dn_matrix"
    cols = {}
    for node, (col, row) in model.labeling.labels.items():
        cols.setdefault(col, set()).add(row)
    assert all(rows == {0, 1} for rows in cols.values())
    # every element moves whole columns and flips rows evenly (D even)
    labels = model.labeling.labels
    moset = model.moset
    for perm in model.elements:
        flips = 0
        for i, node in enumerate(moset):
            col, row = labels[node]
            ncol, nrow = labels[moset[perm[i]]]
            if row == 0:
                flips += nrow
        assert flips % 2 == 0
    d5 = build_root_system("D", 5)
    m5 = core_group_model(d5)
    odd_flip = False
    labels5 = m5.labeling.labels
    for perm in m5.elements:
        flips = sum(
            labels5[m5.moset[perm[i]]][1]
            for i, node in enumerate(m5.moset)
            if labels5[node][1] == 0
        )
        if flips % 2 == 1:
            odd_flip = True
    assert odd_flip  # single row transpositions allowed for D odd


def test_extend_partial_map():
    e7 = build_root_system("E", 7)
    eb7 = enhanced_basis(e7)
    model = core_group_model(e7)
    nodes = model.moset
    ok, word = extend_partial_map(model, {nodes[0]: nodes[0]})
    assert ok and word == ()
    # mapping a line onto a non-line cannot extend
    labels = model.labeling.labels
    line = next(
        t
        for t in combinations(nodes, 3)
        if labels[t[0]] ^ labels[t[1]] ^ labels[t[2]] == 0
    )
    nonline = next(
        t
        for t in combinations(nodes, 3)
        if labels[t[0]] ^ labels[t[1]] ^ labels[t[2]] != 0
    )
    ok, _ = extend_partial_map(model, dict(zip(line, nonline)))
    assert not ok
    e8 = build_root_system("E", 8)
    m8 = core_group_model(e8)
    shift = {
        node: next(
            k for k, v in m8.labeling.labels.items() if v == m8.labeling.labels[node] ^ 7
        )
        for node in m8.moset
    }
    ok, word = extend_partial_map(m8, shift)  # translation by 111
    assert ok
    p = perm_from_word(e8, word)
    for src, dst in shift.items():
        assert e8.proj_rep(p[src]) == dst


def test_induced_groups():
    e7 = build_root_system("E", 7)
    eb7 = enhanced_basis(e7)
    m7 = core_group_model(e7)
    assert len(induced_group_on(m7, eb7.subset(["2", "5", "7"]))) == 6
    assert len(induced_group_on(m7, eb7.subset(["3", "5", "7", "l4"]))) == 24
    g = induced_group_on(m7, eb7.subset(["2", "5", "7", "l4"]))
    assert len(g) == 6
    nodes = sorted(eb7.subset(["2", "5", "7", "l4"]))
    fixed = [
        k
        for k, a in enumerate(nodes)
        if parity(m7, [x for x in nodes if x != a]) == 0
    ]
    assert len(fixed) == 1 and all(p[fixed[0]] == fixed[0] for p in g)
    e8 = build_root_system("E", 8)
    m8 = core_group_model(e8)
    eb8 = enhanced_basis(e8)
    assert len(induced_group_on(m8, eb8.subset(["3", "5", "7", "l5"]))) == 24
    with pytest.raises(Unsupported):
        induced_group_on(m8, m8.moset[:5])
    a5 = build_root_system("A", 5)
    with pytest.raises(Unsupported):
        induced_group_on(core_group_model(a5), core_group_model(a5).moset[:2])


def test_verify_moset():
    e7 = build_root_system("E", 7)
    model = core_group_model(e7)
    verify_moset(e7, model.moset)
    with pytest.raises(NotMoset):
        verify_moset(e7, model.moset[:3])
    adjacent = next(
        (x, y)
        for x in e7.simple_basis
        for y in e7.simple_basis
        if x != y and e7.cartan(x, y) != 0
    )
    with pytest.raises(NotMoset):
        verify_moset(e7, adjacent)


def test_model_json():
    e8 = build_root_system("E", 8)
    payload = core_group_model(e8).to_json()
    assert payload["nu"] == 1344 and payload["mu"] == 8
    assert payload["schema"] == "rootforge/1"
    assert set(payload["labeling"].values()) == {
        format(k, "03b") for k in range(8)
    }
    assert payload["generators"]


@pytest.mark.parametrize(
    "name, digest",
    [
        ("E7", "d09395f1547ee842"),
        ("E8", "693f0134342f25a1"),
        ("D8", "abb31b539baaeadc"),
        ("D10", "40b8a45bd4bafb44"),
        ("D12", "1be1a804762234ac"),
        ("A8", "709f761ffa9c8c29"),
        ("E6", "12823c7172d749a4"),
    ],
)
def test_core_group_digest(name, digest):
    # Moset, labeling, generators and every element with its word, as the
    # closure over whole subsystems gave them before it ran on their bases.
    import hashlib

    m = core_group_model(build_root_system(name[0], int(name[1:])))
    text = repr((m.moset, sorted(m.labeling.labels.items()), m.generators, list(m.elements.items())))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_orbit_order_formula_beyond_criterion_3b():
    # Criterion 3b checks |W| / (|W.moset| * 2^k) against enumeration on
    # D4-D6 and E6 and uses it on E7 and E8; it holds on the other series
    # too, D odd and even and A alike, past 255 roots (D12 on) and past
    # the default cap (A20's moset orbit has 13,749,310,575 members).
    for label in [("A", 8), ("D", 7), ("D", 8), ("D", 10)]:
        s = build_root_system(*label)
        assert core_order_by_orbit(s, core_group_model(s).moset) == core_order_formula(*label)
    for label in [("D", 12), ("D", 14), ("D", 16), ("A", 16), ("A", 20)]:
        s = build_root_system(*label)
        assert core_order_by_orbit(s, enhanced_basis(s).moset) == core_order_formula(*label)
    assert weyl_order_by_degrees("A", 8) == 362880  # 9!
    assert weyl_order_by_degrees("D", 8) == 2**7 * 40320  # 2^(n-1) n!


def test_local_reach_stays_well_below_a_byte(monkeypatch):
    # Each local closure numbers its roots in one byte; record the largest
    # reach the builder meets (24 on these systems, the roots of a D4).
    sizes = []
    real = coregroups._reach

    def recording(system, basis, start):
        reach = real(system, basis, start)
        sizes.append(len(reach))
        return reach

    monkeypatch.setattr(coregroups, "_reach", recording)
    for label in SMALL + [("D", 10), ("D", 12), ("A", 16)]:
        s = build_root_system(*label)
        coregroups._weyl_core_elements(s, enhanced_basis(s))
    assert sizes and max(sizes) <= 64


def test_local_reach_beyond_a_byte_raises_typed_error():
    d12 = build_root_system("D", 12)  # the simple roots reach all 264 roots
    with pytest.raises(InvariantViolation, match="264 roots"):
        coregroups._reach(d12, d12.simple_basis, d12.simple_basis)


def test_labeling_refuses_a_group_with_the_wrong_orbit_sizes():
    # The identity alone leaves every k-subset its own orbit, not the
    # 7 + 28 triples of E7 or the 14 + 56 quadruples of E8.
    for rank, sizes in ((7, "expected [7, 28]"), (8, "expected [14, 56]")):
        s = build_root_system("E", rank)
        eb = enhanced_basis(s)
        with pytest.raises(LabelingInfeasible, match=sizes.replace("[", r"\[")):
            coregroups._derive_labeling(s, eb, [bytes(range(len(eb.moset)))])



def _xor(labels) -> int:
    total = 0
    for x in labels:
        total ^= x
    return total


# The lines of the Fano plane on positions 0..6, position p labelled p + 1.
FANO = {frozenset(t) for t in combinations(range(7), 3) if _xor(p + 1 for p in t) == 0}


def test_solve_fano_refuses_lines_that_label_two_points_alike():
    assert coregroups._solve_fano(range(7), FANO) == {p: p + 1 for p in range(7)}
    consecutive = {frozenset({i, (i + 1) % 7, (i + 2) % 7}) for i in range(7)}
    with pytest.raises(LabelingInfeasible, match="inconsistent"):
        coregroups._solve_fano(range(7), consecutive)


def _patched_orbits(monkeypatch, zero_sum, k, n):
    zero_sum = set(zero_sum)
    rest = {frozenset(c) for c in combinations(range(n), k)} - zero_sum
    monkeypatch.setattr(coregroups, "_orbit_partition", lambda elements, subsets: [zero_sum, rest])


def test_labeling_checks_every_subset_against_the_labels(monkeypatch):
    # Sets of the right sizes that are no Fano plane, or no set of affine
    # planes, can still give _solve_fano seven distinct labels; the check
    # of every k-subset refuses them.  On E7 one line is swapped for a
    # triple whose labels do not sum to zero.
    e7 = build_root_system("E", 7)
    not_fano = FANO - {frozenset({2, 4, 5})} | {frozenset({0, 1, 3})}
    assert coregroups._solve_fano(range(7), not_fano)
    _patched_orbits(monkeypatch, not_fano, 3, 7)
    with pytest.raises(LabelingInfeasible, match="zero-sum"):
        coregroups._derive_labeling(e7, enhanced_basis(e7), [])
    # On E8 (position p labelled p) the planes through 0 are right, so
    # _solve_fano passes, but the seven planes off 0 are swapped for
    # quadruples whose labels do not sum to zero.
    e8 = build_root_system("E", 8)
    quads = [frozenset(q) for q in combinations(range(8), 4)]
    through_0 = [q for q in quads if 0 in q and _xor(q) == 0]
    off_0 = [q for q in quads if 0 not in q and _xor(q) != 0][:7]
    _patched_orbits(monkeypatch, through_0 + off_0, 4, 8)
    with pytest.raises(LabelingInfeasible, match="zero-sum"):
        coregroups._derive_labeling(e8, enhanced_basis(e8), [])
