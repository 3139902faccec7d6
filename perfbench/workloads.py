"""The four workloads: what each sets up, times and checks.

Runs inside a fresh child interpreter (see child.py).  `run` times every
operation of one pass and keeps the answers; `check` judges them after the
clock has stopped, one verdict per operation.  Nothing here imports
rootforge at module level, so the child can time the import itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import signal
import time

clock = time.perf_counter
REFERENCE_EVERY_S = 0.25

# sha256 of `rootforge classify <X> --json -` and `rootforge order <X> --json -`
# as printed by the CLI, with the orbit and cover-edge counts they hold.
CLASSIFY_EXPECTED = {
    "E8": {
        "classify": "e6c812c5e2717e87a6b18fe87f0e6fabafaf1d25bc573d3a8628dd1a039ac042",
        "order": "a14769ce8d7db4fd38b650cccbb4dc01a9d20db07e22d5c4a74b5a4b7a0009cf",
        "orbits": 76,
        "edges": 231,
    },
    "D10": {
        "classify": "a41e85357425f85ec3856f97963e44b20af64e3c00f1e8ea0e8a1efd7652590e",
        "order": "a1724be43c05b20095f792ceef444814304eb3dda52fcaf7dbbf5aeca69103ca",
        "orbits": 187,
        "edges": 699,
    },
}

STABILIZER_SYSTEMS = ("D4", "D5", "D6", "E6")  # criterion 3b
PARTITION_SYSTEMS = ("A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6")  # criterion 5


def reference() -> float:
    """Seconds of a fixed pure-Python computation that imports nothing:
    breadth-first search of the symmetric group S7 (5,040 tuples) under
    adjacent transpositions, the tuple, set and list work rootforge does."""
    start = clock()
    identity = tuple(range(7))
    seen = {identity}
    frontier = [identity]
    while frontier:
        grown = []
        for p in frontier:
            for i in range(6):
                q = p[:i] + (p[i + 1], p[i]) + p[i + 2 :]
                if q not in seen:
                    seen.add(q)
                    grown.append(q)
        frontier = grown
    return clock() - start


class Pace:
    """Reference samples every REFERENCE_EVERY_S of wall time, so that a
    child knows how fast the host ran while it worked.  A SIGALRM handler
    takes them in the main thread, between two bytecodes of whatever runs,
    so they fall inside long operations too; no thread is started.
    `spent` is the time the samples took, which the timed sections
    subtract."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        start = clock()
        self.samples.append(reference())
        self.spent += clock() - start

    def start(self) -> None:
        self.sample()  # the first sample of an interpreter runs cold
        self.samples.clear()
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


PACE = Pace()


def _timed(fn, *args):
    """(seconds, result, error) of one call; an exception is an answer."""
    start = clock()
    spent = PACE.spent
    try:
        result = fn(*args)
    except Exception as exc:  # a failed operation is counted, not fatal
        return clock() - start - (PACE.spent - spent), None, f"{type(exc).__name__}: {exc}"
    return clock() - start - (PACE.spent - spent), result, None


class Classify:
    """`rootforge classify X --json -` then `rootforge order X --json -`."""

    modules = ("rootforge.cli",)

    def __init__(self, system: str):
        self.system = system
        self.systems = (system,)
        self.expected = CLASSIFY_EXPECTED[system]

    def run(self, inputs, seed):
        from rootforge import cli

        def command(name):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main([name, self.system, "--json", "-"])
            return rc, out.getvalue()

        ops, answers = [], []
        for name in ("classify", "order"):
            seconds, result, error = _timed(command, name)
            ops.append((name, seconds))
            answers.append((name, result, error))
        return ops, answers

    def check(self, inputs, answers):
        from rootforge.verification import E8_TABLE

        verdicts = []
        for name, result, error in answers:
            if error is not None:
                verdicts.append(error)
                continue
            rc, text = result
            digest = hashlib.sha256(text.encode()).hexdigest()
            problem = None
            if rc != 0:
                problem = f"{name} exited {rc}"
            elif digest != self.expected[name]:
                problem = f"{name} JSON digest {digest[:12]} differs"
            elif name == "classify":
                rows = json.loads(text)["orbits"]
                if len(rows) != self.expected["orbits"]:
                    problem = f"{len(rows)} orbits"
                elif self.system == "E8":
                    special = {(r["type"], r["parity"]) for r in rows if r["special"]}
                    if special != set(E8_TABLE):
                        problem = f"special orbits {sorted(special)}"
            else:
                edges = json.loads(text)["edges"]
                if len(edges) != self.expected["edges"]:
                    problem = f"{len(edges)} cover edges"
            verdicts.append(problem)
        return verdicts


class Membership:
    """The seeded stream of single label and embedding queries (gen.py)."""

    modules = ()
    systems = ("E7", "E8", "D8")

    def run(self, queries, seed):
        from rootforge import EmbeddingMap, RootSet, is_weyl_embedding, orbit_label
        from rootforge.rootsystem import parse_system

        systems = {name: parse_system(name) for name in self.systems}

        def label(system, nodes):
            return orbit_label(RootSet(system, nodes)).render()

        def embed(system, pairs):
            return is_weyl_embedding(EmbeddingMap(system, dict(pairs)))

        ops, answers = [], []
        for q in queries:
            system = systems[q["system"]]
            if q["kind"] == "label":
                seconds, result, error = _timed(label, system, tuple(q["nodes"]))
            else:
                seconds, result, error = _timed(embed, system, q["map"])
            ops.append((q["kind"], seconds))
            answers.append((result, error))
        return ops, answers

    def check(self, queries, answers):
        from rootforge.oracle import perm_from_word
        from rootforge.rootsystem import parse_system

        verdicts = []
        for q, (result, error) in zip(queries, answers):
            if error is not None:
                verdicts.append(error)
            elif q["kind"] == "label":
                ok = result == q["expect"]
                verdicts.append(None if ok else f"label {result} != {q['expect']}")
            elif result.is_weyl != q["expect"]:
                verdicts.append(f"is_weyl {result.is_weyl} on an expected {q['expect']}")
            elif result.is_weyl:
                system = parse_system(q["system"])
                perm = perm_from_word(system, result.witness_word)
                replayed = all(system.proj_rep(perm[s]) == d for s, d in q["map"])
                verdicts.append(None if replayed else "witness does not replay")
            else:
                verdicts.append(None)
        return verdicts


class Crosscheck:
    """Criteria 3b and 5 against the brute-force Weyl oracle."""

    modules = ()
    systems = tuple(dict.fromkeys(STABILIZER_SYSTEMS + PARTITION_SYSTEMS))

    def run(self, inputs, seed):
        from rootforge import RootSet, core_group_model, enhanced_basis, orbit_label
        from rootforge.classify import pi_node_subsets
        from rootforge.oracle import enumerate_weyl, induced_action, orbit_id_map, set_stabilizer
        from rootforge.rootsystem import parse_system

        rng = random.Random(seed)

        def stabilizer(name):
            system = parse_system(name)
            model = core_group_model(system)
            stab = set_stabilizer(system, model.moset, enumerate_weyl(system))
            return induced_action(system, model.moset, stab) == set(model.elements)

        def partition(name):
            system = parse_system(name)
            subsets = pi_node_subsets(enhanced_basis(system))
            rng.shuffle(subsets)
            oracle = orbit_id_map(system, subsets)
            label_to_orbit, orbit_to_label = {}, {}
            for subset in subsets:
                label = orbit_label(RootSet(system, subset))
                oid = oracle[frozenset(system.proj_rep(i) for i in subset)]
                if label_to_orbit.setdefault(label, oid) != oid:
                    return False
                if orbit_to_label.setdefault(oid, label) != label:
                    return False
            return True

        ops, answers = [], []
        for kind, fn, names in (
            ("stabilizer", stabilizer, STABILIZER_SYSTEMS),
            ("partition", partition, PARTITION_SYSTEMS),
        ):
            for name in names:
                seconds, result, error = _timed(fn, name)
                ops.append((f"{kind}:{name}", seconds))
                answers.append((f"{kind}:{name}", result, error))
        return ops, answers

    def check(self, inputs, answers):
        return [
            error or (None if result else f"{op} disagrees with the oracle")
            for op, result, error in answers
        ]


WORKLOADS = {
    "classify-e8": Classify("E8"),
    "classify-d10": Classify("D10"),
    "membership": Membership(),
    "oracle-crosscheck": Crosscheck(),
}
