"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gen  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def stream():
    return gen.generate(11)


def test_generator_is_deterministic(stream):
    assert gen.generate(11) == stream
    assert gen.generate(12) != stream
    props = gen.properties(stream)
    n = len(gen.SYSTEMS)
    assert props["label_queries"] == gen.LABELS_PER_SYSTEM * n
    assert props["embed_positive"] == gen.POSITIVES_PER_SYSTEM * n
    assert props["embed_negative"] == gen.NEGATIVES_PER_SYSTEM * 2  # E7 and E8 tables
    assert props["label_special_share"] == pytest.approx(gen.SPECIAL_SHARE * 2 / n)
    assert 1 <= props["word_len_p50"] <= props["word_len_max"] == gen.MAX_WORD


def _decide(q):
    from rootforge import EmbeddingMap, is_weyl_embedding
    from rootforge.rootsystem import parse_system

    return is_weyl_embedding(EmbeddingMap(parse_system(q["system"]), dict(q["map"])))


def test_negative_construction_is_rejected(stream):
    negatives = [q for q in stream if q["kind"] == "embed" and not q["expect"]]
    assert negatives
    for q in negatives:
        assert not _decide(q).is_weyl


def test_positives_replay_and_labels_match(stream):
    from rootforge import RootSet, orbit_label
    from rootforge.oracle import perm_from_word
    from rootforge.rootsystem import parse_system

    for q in stream[::4]:
        system = parse_system(q["system"])
        if q["kind"] == "label":
            assert orbit_label(RootSet(system, tuple(q["nodes"]))).render() == q["expect"]
        elif q["expect"]:
            decision = _decide(q)
            assert decision.is_weyl
            perm = perm_from_word(system, decision.witness_word)
            assert all(system.proj_rep(perm[s]) == d for s, d in q["map"])


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_a_synthetic_span_tree():
    # a [0, 10] > b [1, 7] > c [2, 6] (hot) > d [3, 4];  a > c [8, 9];
    # a > e [9.5, 9.75] with a nested e [9.6, 9.7]
    tracer = tracing.Tracer(hot={"c"}, clock=FakeClock([0, 1, 2, 3, 4, 6, 7, 8, 9, 9.5, 9.6, 9.7, 9.75, 10]))
    for step in "a b c d . . . c . e e . . .".split():
        tracer.exit() if step == "." else tracer.enter(step)
    assert [s[0] for s in tracer.spans] == ["a", "b", "e", "e"]  # c and d folded
    got = tracer.summary()
    assert got["a"] == {"calls": 1, "total_s": 10, "self_s": pytest.approx(10 - 6 - 1 - 0.25)}
    assert got["b"] == {"calls": 1, "total_s": 6, "self_s": pytest.approx(2)}
    assert got["c"] == {"calls": 2, "total_s": 5, "self_s": pytest.approx(3 + 1)}
    assert got["d"] == {"calls": 1, "total_s": 1, "self_s": 1}
    assert got["e"]["calls"] == 2
    assert got["e"]["total_s"] == pytest.approx(0.25)  # the outer call only
    assert got["e"]["self_s"] == pytest.approx(0.25)
    assert sum(r["self_s"] for r in got.values()) == pytest.approx(10)


def test_summarize_hand_built_tree():
    spans = [["root", 0.0, 8.0, None], ["x", 1.0, 3.0, 0], ["y", 4.0, 7.0, 0], ["x", 5.0, 6.0, 2]]
    folded = {("leaf", 1): [3, 1.5, 1.5, 1.5], ("leaf", None): [1, 0.5, 0.5, 0.5]}
    got = tracing.summarize(spans, folded)
    assert got["root"]["self_s"] == pytest.approx(8 - 2 - 3)
    assert got["x"] == {"calls": 2, "total_s": 3.0, "self_s": pytest.approx(0.5 + 1)}
    assert got["y"]["self_s"] == pytest.approx(3 - 1)
    assert got["leaf"] == {"calls": 4, "total_s": 2.0, "self_s": 2.0}


def test_wrappers_cover_aliases_and_are_restored():
    import rootforge
    import rootforge.cli
    from rootforge import classify, coregroups

    modules = tracing._rootforge_modules()
    before = {mod.__name__: dict(vars(mod)) for mod in modules}
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        assert classify.orbit_label is not before["rootforge.classify"]["orbit_label"]
        assert rootforge.cli.orbit_label is classify.orbit_label
        assert rootforge.orbit_label is classify.orbit_label
        assert classify.moset_parity is coregroups.parity  # the alias is wrapped too
        assert classify.moset_parity is not before["rootforge.coregroups"]["parity"]
        system = rootforge.build_root_system("A", 3)
        rootforge.orbit_label(rootforge.RootSet(system, system.simple_basis))
    finally:
        installed.restore()
    summary = tracer.summary()
    assert summary["rootsystem.build_root_system"]["calls"] == 1
    assert summary["classify.orbit_label"]["calls"] == 1
    for mod in modules:
        now = vars(mod)
        for attr, value in before[mod.__name__].items():
            assert now[attr] is value, f"{mod.__name__}.{attr} not restored"


def test_op_latency_is_a_median_over_passes_then_a_quantile():
    import run

    passes = [{"ops": [("q", 1.0), ("q", 2.0), ("q", 3.0)]} for _ in range(2)]
    passes.append({"ops": [("q", 9.0), ("q", 9.0), ("q", 9.0)]})  # a slow pass
    assert run.op_medians(passes) == [1.0, 2.0, 3.0]


def test_reference_scaling_covers_every_reported_time():
    import run

    result = {
        "setup_s": 0.5,
        "run_s": 4.0,
        "ref_s": 0.03,
        "ops": [("q", 1.0)],
        "trace": {"functions": {"f": {"calls": 3, "total_s": 2.0, "self_s": 1.0}}},
    }
    run.scale_times(result, 0.5)
    assert (result["setup_s"], result["run_s"], result["ops"]) == (0.25, 2.0, [("q", 0.5)])
    assert result["trace"]["functions"]["f"] == {"calls": 3, "total_s": 1.0, "self_s": 0.5}
    assert result["run_raw_s"] == 4.0


def test_pace_samples_are_not_timed_as_work(monkeypatch):
    import time

    import workloads

    now = [0.0]

    def advance(seconds):
        now[0] += seconds
        return seconds

    monkeypatch.setattr(workloads, "clock", lambda: now[0])
    monkeypatch.setattr(workloads, "reference", lambda: advance(0.02))
    monkeypatch.setattr(workloads, "PACE", workloads.Pace())

    def work():  # a sample lands in the middle, as the timer would put it
        advance(1.0)
        workloads.PACE.sample()
        advance(1.0)

    assert workloads._timed(work) == (2.0, None, None)
    assert workloads.PACE.samples == [0.02]

    workloads.PACE.start()
    try:
        time.sleep(0.6)
    finally:
        workloads.PACE.stop()
    assert len(workloads.PACE.samples) >= 3


def test_benchmark_json_lists_what_run_reports():
    import json

    import run

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    import shutil
    import subprocess

    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "membership", "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
