"""Cross-cutting interface checks: caching, determinism, derived views."""

import json
import os
import subprocess
import sys

from rootforge import build_root_system, core_group_model
from rootforge.classify import subsystem_type
from rootforge.oracle import enumerate_weyl
from rootforge.rootsystem import RootSet, orthogonal_complement
from rootforge.diagrams import classify_components, projective_diagram_of
from rootforge import extended_pi_system


def test_oracle_writes_no_cache(tmp_path, monkeypatch):
    # The oracle once pickled its enumerations into ROOTFORGE_CACHE_DIR and
    # loaded them back unchecked; the variable must no longer do anything.
    monkeypatch.setenv("ROOTFORGE_CACHE_DIR", str(tmp_path))
    assert len(enumerate_weyl(build_root_system("A", 3))) == 24
    assert list(tmp_path.iterdir()) == []


def test_derive_labeling_views():
    d6 = build_root_system("D", 6)
    lab = core_group_model(d6).labeling
    assert lab.kind == "dn_matrix" and len(lab.labels) == 6
    e8 = build_root_system("E", 8)
    lab8 = core_group_model(e8).labeling
    assert lab8.kind == "f2cube" and sorted(lab8.labels.values()) == list(range(8))
    a4 = build_root_system("A", 4)
    assert core_group_model(a4).labeling.kind == "plain"


def test_cli_outputs_are_byte_identical():
    cmd = [
        sys.executable, "-m", "rootforge.cli", "classify", "D6", "--json", "-",
    ]
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "random"
    a = subprocess.run(cmd, capture_output=True, env=env, check=True).stdout
    b = subprocess.run(cmd, capture_output=True, env=env, check=True).stdout
    assert a == b
    payload = json.loads(a)
    assert payload["schema"] == "rootforge/1"


def test_complement_type_matches_extended_diagram_deletion():
    # deleting the minimal-root node and its neighbors from the extended
    # diagram leaves the complement's diagram
    for label in [("A", 4), ("A", 5), ("D", 5), ("D", 6), ("E", 6), ("E", 7)]:
        system = build_root_system(*label)
        ext = extended_pi_system(RootSet(system, system.simple_basis))
        minimal = next(x for x in ext.members if x not in system.simple_basis)
        keep = tuple(
            x
            for x in ext.members
            if x != minimal and system.cartan(x, minimal) == 0
        )
        from_diagram = (
            classify_components(projective_diagram_of(system, keep)).render()
            if keep
            else "0"
        )
        alpha = minimal
        psi = orthogonal_complement(
            system, (alpha,), tuple(range(len(system.roots)))
        )
        assert subsystem_type(system, psi).render() == from_diagram
