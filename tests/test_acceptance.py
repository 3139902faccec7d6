"""Acceptance suite: one test per criterion, each printing a status line.

Run with -s to see the lines; the same checks back the CLI verify command.
The brute-force W(E7) stabilizer comparison and criterion 5's comparison
on E8 are marked slow.
"""

import pytest

from rootforge import verification as v


def _assert(result):
    print(result.line())
    assert result.ok, result.line()


def test_criterion_1_moset_cardinality_table():
    _assert(v.check_moset_cardinalities())


def test_criterion_2_orthogonal_complement_table():
    _assert(v.check_complement_types())


def test_criterion_3a_core_group_orders():
    _assert(v.check_core_orders())


def test_criterion_3b_core_group_stabilizer_agreement():
    _assert(v.check_core_stabilizer_agreement(slow=False))


@pytest.mark.slow
def test_criterion_3b_core_group_stabilizer_agreement_e7():
    _assert(v.check_core_stabilizer_agreement(slow=True))


def test_criterion_4_enhanced_diagrams():
    _assert(v.check_enhanced_diagrams())


def test_criterion_5_small_rank_classification():
    _assert(v.check_small_rank_exactness())


@pytest.mark.slow
def test_criterion_5_small_rank_classification_e8():
    # E8 adds 22,910 Pi-subsets in 76 orbits
    _assert(v.check_small_rank_exactness(slow=True))


def test_criterion_6_special_orbit_tables():
    _assert(v.check_special_orbits())


def test_criterion_7_worked_examples():
    _assert(v.check_worked_examples())


def test_criterion_8_order_graphs():
    _assert(v.check_order_graphs())


def test_criterion_9_property_suites():
    _assert(v.check_property_suites(seed=0, embeddings_per_system=1000))
