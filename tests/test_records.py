"""The contract of the package's record types.

A record compares, hashes and orders as the tuple of its fields, in the
declared order; its repr names every field; its fields cannot be
assigned; it can be built by keyword and copied.  Set and dict iteration
orders, and with them the pinned output digests, rest on the hash.
"""

import copy

import pytest

from rootforge import (
    EmbeddingMap,
    Irreducible,
    OrbitLabel,
    RootSet,
    TypeLabel,
    WeylDecision,
    WeylElement,
    build_root_system,
    core_group_model,
    derive_labeling,
    dn_tag,
    enhanced_basis,
    enumerate_pi_orbits,
    extend_to_moset,
    gamma_diagram,
    hasse_diagram,
    is_weyl_embedding,
    orbit_label,
    type_label,
)
from rootforge.diagrams import Diagram, ProjectiveDiagram, projective_diagram_of
from rootforge.errors import NoSuchRoot, NotEmbedding
from rootforge.oracle import perm_from_word
from rootforge.verification import Result

FIELDS = {
    "RootSet": ("system", "members"),
    "Diagram": ("nodes", "bonds"),
    "ProjectiveDiagram": ("nodes", "adjacency"),
    "Irreducible": ("series", "rank", "extended"),
    "TypeLabel": ("parts",),
    "EnhancedBasis": ("system", "nodes", "names", "moset"),
    "Moset": ("system", "members", "scope"),
    "MosetLabeling": ("kind", "labels"),
    "CoreGroupModel": ("system", "moset", "labeling", "generators", "elements"),
    "DnTag": ("d2", "d3", "thin", "width", "distinguished", "side"),
    "OrbitLabel": ("ambient", "type_text", "kind", "data"),
    "EmbeddingMap": ("system", "mapping"),
    "WeylDecision": ("is_weyl", "mode", "witness_word", "reason"),
    "HasseDiagram": ("system_name", "labels", "edges"),
    "Result": ("name", "ok", "detail", "seconds", "budget"),
}


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in FIELDS[type(record).__name__])


def _hash(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


def _records() -> list:
    d5, e7, a3 = (build_root_system(*x) for x in (("D", 5), ("E", 7), ("A", 3)))
    eb = enhanced_basis(d5)
    rs = RootSet(d5, eb.subset(["1", "3", "3'"]))
    label = orbit_label(rs)
    emb = EmbeddingMap(d5, {n: n for n in eb.subset(["1", "2"])})
    return [
        rs,
        gamma_diagram(rs),
        projective_diagram_of(d5, rs.members),
        Irreducible("D", 4),
        Irreducible("E", 6, True),
        type_label(("A", 1), ("D", 4), ("A", 3)),
        eb,
        extend_to_moset(d5, eb.moset, range(len(d5.roots))),
        derive_labeling(e7),
        core_group_model(a3),
        dn_tag(rs),
        label,
        emb,
        is_weyl_embedding(emb),
        hasse_diagram(a3),
        Result("check", True, "fine", 0.25),
        Result("budgeted", False, "too slow", 2.0, 1.0),
    ]


def test_every_record_is_covered():
    assert {type(r).__name__ for r in _records()} == set(FIELDS)


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_record_contract(record):
    name, fields = type(record).__name__, FIELDS[type(record).__name__]
    values = _fields(record)
    rebuilt = type(record)(**dict(zip(fields, values)))
    assert rebuilt == record and not rebuilt != record
    assert _fields(rebuilt) == values
    assert _hash(rebuilt) == _hash(record)
    assert copy.copy(record) == record
    assert repr(record) == f"{name}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    if name != "Result":  # the verification report is built once and read
        assert _hash(record) == _hash(values)
        for field, value in zip(fields, values):
            with pytest.raises(AttributeError):
                setattr(record, field, value)


def test_records_of_one_type_compare_as_their_fields():
    records = _records()
    for a in records:
        for b in records:
            if type(a) is type(b):
                assert (a == b) == (_fields(a) == _fields(b))


def test_defaults():
    assert Irreducible("A", 2).extended is False
    decision = WeylDecision(True, "m")
    assert decision.witness_word is None and decision.reason is None
    assert Result("x", True, "d", 0.0).budget is None


def test_orbit_labels_and_irreducibles_order_as_their_fields():
    labels = [label for label, _ in enumerate_pi_orbits(build_root_system("E", 7))]
    assert sorted(labels) == sorted(labels, key=_fields)
    parts = [Irreducible("D", 4), Irreducible("A", 5), Irreducible("A", 5, True), Irreducible("E", 6)]
    assert sorted(parts) == sorted(parts, key=_fields)
    for a in parts:
        for b in parts:
            assert (a < b) == (_fields(a) < _fields(b))
            assert (a <= b) == (_fields(a) <= _fields(b))
    x = OrbitLabel("E7", "A5", "ep", (3, 0))
    y = OrbitLabel("E7", "A5", "ep", (3, 1))
    assert x < y and max(y, x) is y


def test_root_sets_sort_and_deduplicate_their_members():
    d4 = build_root_system("D", 4)
    rs = RootSet(d4, [5, 1, 5, 3])
    assert rs.members == (1, 3, 5)
    assert list(rs) == [1, 3, 5] and len(rs) == 3
    assert 3 in rs and 2 not in rs
    assert RootSet(system=d4, members=(3, 1)) == RootSet(d4, (1, 3))
    assert not RootSet(d4, ()) and bool(rs)
    copied = copy.copy(rs)
    assert copied == rs and copied.members == (1, 3, 5)
    for bad in ((len(d4.roots),), (-1,), (1.5,), ("3",)):
        with pytest.raises(NoSuchRoot):
            RootSet(d4, bad)


def test_type_labels_sort_their_parts():
    a1, a3, d4 = Irreducible("A", 1), Irreducible("A", 3), Irreducible("D", 4)
    label = TypeLabel((a1, d4, a3, a1))
    assert label.parts == (d4, a3, a1, a1)
    assert label == TypeLabel(parts=(a3, a1, a1, d4))
    assert label.render() == "D4+A3+2A1"


def test_embedding_maps_are_validated():
    d5 = build_root_system("D", 5)
    eb = enhanced_basis(d5)
    one, two = eb.subset(["1"])[0], eb.subset(["2"])[0]
    emb = EmbeddingMap(d5, {d5.negative(one): d5.negative(two)})
    assert emb.mapping == {one: two} and emb.source == (one,)
    with pytest.raises(NotEmbedding, match="its negative are given different images"):
        EmbeddingMap(d5, {one: one, d5.negative(one): two})
    with pytest.raises(NotEmbedding, match="does not preserve absolute pairings"):
        EmbeddingMap(d5, {one: one, two: eb.subset(["4"])[0]})
    with pytest.raises(NoSuchRoot):
        EmbeddingMap(d5, {one: len(d5.roots)})


def test_embedding_map_refuses_two_keys_with_one_image():
    d5 = build_root_system("D", 5)
    one, two = enhanced_basis(d5).subset(["1", "2"])
    for image in (one, two, d5.negative(two)):
        with pytest.raises(NotEmbedding, match="map is not injective"):
            EmbeddingMap(d5, {one: image, two: image})


def test_cached_views_are_computed_once():
    eb = enhanced_basis(build_root_system("E", 6))
    assert eb.name_to_node is eb.name_to_node
    assert eb.name_to_node == {v: k for k, v in eb.names.items()}
    model = core_group_model(build_root_system("D", 5))
    assert model.element_list is model.element_list
    assert model.element_index is model.element_index
    assert model.element_list == sorted(model.elements.items())
    copied = copy.copy(eb)
    assert copied == eb and copied.name_to_node == eb.name_to_node


def test_weyl_elements_are_permutations():
    a3 = build_root_system("A", 3)
    perm = perm_from_word(a3, (a3.simple_basis[0], a3.simple_basis[1]))
    w = WeylElement(perm)
    assert w.perm == perm and bytes(w.perm) == perm
    assert w.apply_set({0, 1, 2}) == frozenset({perm[0], perm[1], perm[2]})
    assert w.apply_set(()) == frozenset()
    assert w == WeylElement(perm) and hash(w) == hash(WeylElement(perm))
    assert w != WeylElement(bytes(range(len(a3.roots))))
    assert repr(w) == f"WeylElement(perm={perm!r})"
    assert copy.copy(w) == w
    with pytest.raises(AttributeError):
        w.perm = perm
