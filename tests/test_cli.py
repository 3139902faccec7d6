import hashlib
import json

from rootforge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_roots(capsys):
    code, out = run(capsys, "roots", "A", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "rootforge/1"
    assert len(payload["roots"]) == 2


def test_roots_single_token(capsys):
    code, out = run(capsys, "roots", "A2")
    assert code == 0 and len(json.loads(out)["roots"]) == 6


def test_enhance_json_and_dot(tmp_path, capsys):
    dot = tmp_path / "e7.dot"
    js = tmp_path / "e7.json"
    code, _ = run(
        capsys, "enhance", "--series", "E", "--rank", "7",
        "--dot", str(dot), "--json", str(js),
    )
    assert code == 0
    payload = json.loads(js.read_text())
    assert len(payload["nodes"]) == 11
    assert set(payload["moset"]) == {"2", "3", "5", "7", "l1", "l3", "l4"}
    assert sorted(payload["adjacency"]["l1"]) == ["1", "4", "6", "l2"]
    text = dot.read_text()
    assert "penwidth=3" in text


def test_moset(capsys):
    code, out = run(capsys, "moset", "E8")
    assert code == 0
    payload = json.loads(out)
    assert payload["mu"] == 8 and len(payload["members"]) == 8


def test_coregroup(capsys):
    code, out = run(capsys, "coregroup", "E7")
    assert code == 0
    payload = json.loads(out)
    assert payload["nu"] == 168 and payload["mu"] == 7


def test_classify(capsys):
    code, out = run(capsys, "classify", "E7")
    assert code == 0
    payload = json.loads(out)
    special = [row for row in payload["orbits"] if row["special"]]
    assert len(special) == 12
    row = next(r for r in special if r["label"] == "[A5]^0")
    assert row["charge"] == 3 and row["parity"] == 0
    # the representative is the least subset in the orbit; it must carry
    # the row's own label
    from rootforge import RootSet, build_root_system, enhanced_basis, orbit_label

    e7 = build_root_system("E", 7)
    eb = enhanced_basis(e7)
    rep = RootSet(e7, eb.subset(row["representative"]))
    assert orbit_label(rep).render() == "[A5]^0"


def test_conjugate(capsys):
    code, out = run(
        capsys, "conjugate", "E8",
        "--l1", "2,4,5,6,7,8,l5", "--l2", "3,4,5,6,7,8,l5",
    )
    assert code == 0
    assert "not conjugate (parity 0 vs 1)" in out
    code, out = run(
        capsys, "conjugate", "E8",
        "--l1", "2,4,5,6,7,8,l5", "--l2", "2,4,5,6,7,8,l5",
    )
    assert code == 0 and out.startswith("conjugate")


def test_conjugate_d_series_primes(capsys):
    code, out = run(capsys, "conjugate", "D6", "--l1", "1,3,5", "--l2", "1',3,5")
    assert code == 0 and "not conjugate" in out


def test_order_special(capsys):
    code, out = run(capsys, "order", "E8", "--special")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["edges"]) == 10


def test_usage_errors(capsys):
    assert main(["roots", "Q", "9"]) == 2
    assert main(["nonsense"]) == 2
    capsys.readouterr()
    # "2" as a superscript is a digit that int refuses.
    assert main(["classify", "A\u00b2"]) == 2
    assert capsys.readouterr().err == "error: cannot parse system label 'A\u00b2'\n"
    # a rank too long for a list of its coordinates
    assert main(["classify", "A99999999999999999999"]) == 2
    assert capsys.readouterr().err == "error: cannot parse system label 'A99999999999999999999'\n"


def test_verify_counts_below_one_are_usage_errors(capsys, monkeypatch):
    # Refused while parsing: no criterion runs, so none can report a pass
    # over zero witness replays or fail on a cap of 0.
    from rootforge import verification

    def run_all(**kwargs):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(verification, "run_all", run_all)
    for option in ("--embeddings", "--cap"):
        for value in ("0", "-1"):
            assert main(["verify", option, value]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"error: argument {option}: must be at least 1, not {value}\n" in captured.err
    assert main(["verify", "--cap", "many"]) == 2
    assert "error: argument --cap: invalid count value: 'many'" in capsys.readouterr().err


def test_enhance_without_a_system_is_a_usage_error(capsys):
    assert main(["enhance"]) == 2
    assert main(["enhance", "--series", "E"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_series_and_rank_name_the_system_and_override_a_label(capsys):
    e7 = run(capsys, "enhance", "E7", "--json", "-")
    assert e7[0] == 0
    assert run(capsys, "enhance", "--series", "E", "--rank", "7", "--json", "-") == e7
    assert run(capsys, "enhance", "A3", "--series", "E", "--rank", "7", "--json", "-") == e7


def test_an_unwritable_output_path_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "out"
    for argv in (["enhance", "E6", "--json", str(missing)], ["order", "A3", "--dot", str(missing)]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {missing}: ")


def test_main_reuses_one_parser_and_prints_the_same_bytes(capsys):
    # main builds its parser once per process; a second call must print
    # the same bytes and a usage error must still exit 2.
    from rootforge.cli import build_parser

    first = run(capsys, "order", "E7", "--json", "-")
    assert run(capsys, "order", "E7", "--json", "-") == first
    assert first[0] == 0
    assert main(["order"]) == 2
    assert main(["classify", "E7", "--no-such-flag"]) == 2
    assert run(capsys, "order", "E7", "--json", "-") == first
    assert build_parser() is not build_parser()


def test_two_token_system_labels_parse_like_one(capsys):
    # A bad rank token is a usage error (exit 2), not a traceback or a
    # verification failure (exit 1).
    assert main(["classify", "E", "x"]) == 2
    err = capsys.readouterr().err
    assert err == "error: cannot parse system label 'Ex'\n"
    assert main(["classify", "E", "7", "x"]) == 2
    capsys.readouterr()
    joined = run(capsys, "classify", "E7", "--json", "-")
    assert run(capsys, "classify", "E", "7", "--json", "-") == joined
    assert run(capsys, "classify", "e", "7", "--json", "-") == joined
    assert joined[0] == 0


def test_e8_tables_are_pinned(capsys):
    # sha256 of the E8 orbit table and order graph, as pinned by the
    # benchmark's answer check
    expected = {
        "classify": "e6c812c5e2717e87a6b18fe87f0e6fabafaf1d25bc573d3a8628dd1a039ac042",
        "order": "a14769ce8d7db4fd38b650cccbb4dc01a9d20db07e22d5c4a74b5a4b7a0009cf",
    }
    for command, digest in expected.items():
        code, out = run(capsys, command, "E8", "--json", "-")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_d12_order_is_pinned(capsys):
    # sha256 of the D12 order graph (423 orbits), taken before the orbit
    # table was grown over bitmasks
    code, out = run(capsys, "order", "D12", "--json", "-")
    assert code == 0
    digest = "57ac1adaaedc6b48cc4cb8df6a9e8d7b23ee599909a0afcfb8e75750179c902e"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_e7_and_d13_orders_are_pinned(capsys):
    # sha256 of the E7 and D13 order graphs (46 and 604 orbits), taken
    # while lower sets were still found by scanning the Pi-subset table
    expected = {
        "E7": "59446333a63141d1b7431b9ac18938bd0562ee7232d353a7bb86e2befe6b8b06",
        "D13": "2ac86c100a375da28379c0d0c7cc44b738c956cda4a74ab6a713f11a06055de0",
    }
    for system, digest in expected.items():
        code, out = run(capsys, "order", system, "--json", "-")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, system


def test_a12_and_d13_tables_are_pinned(capsys):
    # sha256 of the A12 and D13 orbit tables (100 and 604 orbits), taken
    # while every Pi-subset was still walked and kept before the first
    # representatives were read
    expected = {
        "A12": "c81bca5a1f1bd586e4a52651b99884441bdd1635a3d41924acdaab2f78883343",
        "D13": "c4473168af69cb9e6cc76b4a74438b26e1a7ceceaf2e4338339f2793d792876a",
    }
    for system, digest in expected.items():
        code, out = run(capsys, "classify", system, "--json", "-")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, system


def test_a16_table_and_order_are_pinned(capsys):
    # sha256 of the A16 orbit table and order graph (296 orbits), taken
    # while the walk still grew every subset up to the last first
    # occurrence
    expected = {
        "classify": "b3c3a655dca375109bddc785924a019a2162d83cfefe954e09fe322a360be2e5",
        "order": "5dafc7927bb9175972165f92a4e4086c5b1777318d51aefc132bfa79b537e627",
    }
    for command, digest in expected.items():
        code, out = run(capsys, command, "A16", "--json", "-")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def test_d14_table_and_order_are_pinned(capsys):
    # sha256 of the D14 orbit table and order graph (909 orbits), taken
    # while the walk still labelled maximal children as it met first
    # subsets and pruned by rank and largest component
    expected = {
        "classify": "e69eba8307e538d0421c08175f952e17c7c86417ff93f4a90d06cabc5b3cdef7",
        "order": "f9a1db6366ddeb594bb99ab5a0c8d4b41b54c58c9bb1e810292809ef67bac5b2",
    }
    for command, digest in expected.items():
        code, out = run(capsys, command, "D14", "--json", "-")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command
