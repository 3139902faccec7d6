"""One fresh interpreter: set up, optionally trace, time one pass, check.

Reads a JSON job on stdin and prints one JSON result as its last stdout
line.  Jobs:

  {"mode": "generate", "workload": w, "seed": n}   membership inputs
  {"mode": "setup", "workload": w}                 set-up only
  {"mode": "run", "workload": w, "seed": n, "trace": bool, "inputs": ...}

Set-up is timed from `import rootforge` through `build_root_system`,
`enhanced_basis` and `core_group_model` of the workload's systems, as a
command-line user pays it on every invocation.

Unless it traces, the child also times the reference computation of
workloads.py before set-up, every quarter second until the pass ends and
once after (workloads.Pace), and reports their median as `ref_s`.  The
time those samples take is subtracted from `setup_s`, `run_s` and every
operation.  A traced child takes no samples, so that none falls inside a
traced span; the parent scales it by the untraced child run just before.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
import sys
import time

clock = time.perf_counter


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Counts:
    """Counts read from outside at the traced boundaries."""

    def __init__(self, core_group_model):
        self.core_group_model = core_group_model  # the unwrapped function
        self.subsets = 0
        self.label_calls = 0
        self.labels: set = set()
        self.parity_calls = 0
        self.parity_walks = 0
        self.witness: list[int] = []
        self.models: dict = {}
        self.weyl_sizes: list[int] = []

    def observers(self) -> dict:
        return {
            "classify.pi_node_subsets": self.on_subsets,
            "classify.orbit_label": self.on_label,
            "classify.parity_of_orthogonal": self.on_parity,
            "classify.is_weyl_embedding": self.on_embedding,
            "coregroups.core_group_model": self.on_model,
            "oracle.enumerate_weyl": self.on_weyl,
        }

    def on_subsets(self, args, result):
        self.subsets += len(result)

    def on_label(self, args, result):
        self.label_calls += 1
        self.labels.add(result)

    def on_parity(self, args, result):
        system, subset = args
        moset = self.core_group_model(system).labeling.labels
        self.parity_calls += 1
        self.parity_walks += not all(system.proj_rep(i) in moset for i in subset)

    def on_embedding(self, args, result):
        if result.is_weyl:
            self.witness.append(len(result.witness_word))

    def on_model(self, args, result):
        self.models[id(result)] = result.order

    def on_weyl(self, args, result):
        self.weyl_sizes.append(len(result))

    def metrics(self) -> dict:
        witness = self.witness
        return {
            "classify.pi_node_subsets.subsets": self.subsets,
            "classify.labels_per_orbit": (
                self.label_calls / len(self.labels) if self.labels else 0
            ),
            "classify.parity_of_orthogonal.walk_share": (
                self.parity_walks / self.parity_calls if self.parity_calls else 0
            ),
            "classify.is_weyl_embedding.word_len_p50": statistics.median(witness) if witness else 0,
            "classify.is_weyl_embedding.word_len_max": max(witness, default=0),
            "coregroups.core_group_model.order": sum(self.models.values()),
            "oracle.enumerate_weyl.elements": sum(self.weyl_sizes),
        }


def main() -> int:
    job = json.loads(sys.stdin.read())
    from workloads import PACE, WORKLOADS

    workload = WORKLOADS[job["workload"]]
    if job["mode"] == "generate":
        import gen

        queries = gen.generate(job["seed"])
        print(json.dumps({"queries": queries, "properties": gen.properties(queries)}))
        return 0

    trace = job.get("trace", False)
    if not trace:
        PACE.start()
    start = clock()
    PACE.spent = 0.0
    import rootforge

    for name in workload.modules:
        importlib.import_module(name)
    if trace:
        import tracing
        from rootforge.coregroups import core_group_model

        tracer = tracing.Tracer()
        counts = Counts(core_group_model)
        installed = tracing.install(tracer, counts.observers())
    for name in workload.systems:
        system = rootforge.parse_system(name)
        rootforge.enhanced_basis(system)
        rootforge.core_group_model(system)
    setup_s = clock() - start - PACE.spent
    result = {"setup_s": setup_s, "rootforge": rootforge.__file__}
    if job["mode"] == "run":
        inputs = job.get("inputs")
        begin = clock()
        PACE.spent = 0.0
        ops, answers = workload.run(inputs, job["seed"])
        result["run_s"] = clock() - begin - PACE.spent
    if not trace:
        PACE.stop()
        result["ref_s"] = statistics.median(PACE.samples)
    if job["mode"] == "run":
        if trace:
            installed.restore()
            result["trace"] = {
                "functions": tracer.summary(),
                "derived": counts.metrics(),
                "spans": len(tracer.spans),
                "weyl_sizes": counts.weyl_sizes,
            }
        verdicts = workload.check(inputs, answers)
        result["ops"] = ops
        result["failures"] = [(op[0], v) for op, v in zip(ops, verdicts) if v is not None]
    result["peak_rss_mib"] = _peak_rss_mib()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
