"""rootforge benchmark: times the CLI, single queries and the oracle.

    python3 perfbench/run.py --workload classify-e8 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (the package is imported from
`src/`, nothing is installed).  Every pass runs in a fresh interpreter, one
at a time: a command-line user pays the module import, the lazily filled
caches and the core group on every invocation.  Children get a fixed
PYTHONHASHSEED, cached bytecode and no ROOTFORGE_CACHE_DIR, so no pickled
Weyl group is read from disk.  Nothing pins CPUs.

A shared host runs the same Python code a quarter to a half slower for
minutes at a time.  So every child also times a fixed reference
computation (workloads.reference) between its operations, and every time
it reports is scaled by REFERENCE_S over the median of its own reference
samples: the seconds it would have taken on a host where the reference
takes REFERENCE_S.  A change to rootforge moves the scaled times as it
moves the raw ones; the unscaled run_s and the reference are printed.

With `--trace 0` no wrappers are installed and the end-to-end metrics are
reported; with `--trace 1` traced and untraced passes alternate and the
per-module metrics and the tracing overhead are reported.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (the benchmark's own modules; neither imports rootforge)
from workloads import WORKLOADS  # noqa: E402

GENERATED = {"membership"}
LIMIT_S = 170.0  # the whole run, every child included
MIN_PASSES = 2
SETUPS_PER_PASS = 2
REFERENCE_S = 0.015  # a host on which workloads.reference() takes 15 ms

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}

DERIVED = {
    "classify.pi_node_subsets.subsets": "count",
    "classify.labels_per_orbit": "ratio",
    "classify.parity_of_orthogonal.walk_share": "ratio",
    "classify.is_weyl_embedding.word_len_p50": "count",
    "classify.is_weyl_embedding.word_len_max": "count",
    "coregroups.core_group_model.order": "count",
    "oracle.enumerate_weyl.elements": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracing.TRACED_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    for module in tracing.TRACED:
        units[f"layer.{module}.self_s"] = "s"
    units.update(DERIVED)
    for metric in END_TO_END:
        units[f"trace.overhead.{metric}"] = "ratio"
    return units


class ChildFailed(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + LIMIT_S
        self.env = dict(os.environ)
        self.env.pop("ROOTFORGE_CACHE_DIR", None)
        # Bytecode is cached (by the discarded first child), as it is for an
        # installed package, whatever the caller's environment says.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONHASHSEED"] = "0"
        self.env["PYTHONPATH"] = str(SRC)
        self.inputs = None

    def child(self, mode: str, **job) -> dict:
        job.update(mode=mode, workload=self.workload, seed=self.seed)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py")],
                input=json.dumps(job),
                capture_output=True,
                text=True,
                env=self.env,
                cwd=ROOT,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} child passed the {LIMIT_S:.0f} s limit") from exc
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} child exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        origin = result.get("rootforge")
        if origin is not None and not Path(origin).resolve().is_relative_to(SRC.resolve()):
            raise ChildFailed(f"child imported rootforge from {origin}, not {SRC}")
        if "ref_s" in result:
            scale_times(result, REFERENCE_S / result["ref_s"])
        return result

    def prepare(self) -> dict:
        """Warm the bytecode cache, then make the seeded inputs (untimed)."""
        self.child("setup")
        if self.workload not in GENERATED:
            return {}
        generated = self.child("generate")
        self.inputs = generated["queries"]
        return generated["properties"]

    def run(self, trace: bool = False) -> dict:
        return self.child("run", trace=trace, inputs=self.inputs)

    def repeat(self, seconds: float, body, min_passes: int) -> None:
        """Call body() until the next call would end after `seconds`."""
        begin = time.monotonic()
        passes = 0
        while True:
            start = time.monotonic()
            body()
            passes += 1
            now = time.monotonic()
            last = now - start
            if passes >= min_passes and now - begin + last > seconds:
                return
            if now + last > self.deadline - 5:
                return


# -- statistics ------------------------------------------------------------


def scale_times(result: dict, scale: float) -> None:
    """Multiply every time a child reported by `scale`, in place."""
    result["setup_s"] *= scale
    if "run_s" in result:
        result["run_raw_s"] = result["run_s"]
        result["run_s"] *= scale
        result["ops"] = [(kind, seconds * scale) for kind, seconds in result["ops"]]
    for rec in result.get("trace", {}).get("functions", {}).values():
        rec["total_s"] *= scale
        rec["self_s"] *= scale


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def op_medians(runs: list[dict]) -> list[float]:
    """Each operation's median latency over the passes.

    Every pass replays the same operations in the same order, so the i-th
    op of each pass is one operation; its median drops the passes in which
    the machine happened to be slow while it ran."""
    return [statistics.median(s for _, s in op) for op in zip(*(r["ops"] for r in runs))]


def end_to_end(runs: list[dict], setups: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in runs),
        "op_p90_ms": quantile(op_medians(runs), 0.9) * 1e3,
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in runs),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Per-module metrics; counts must repeat exactly across traced passes."""
    problems = []
    out: dict[str, float] = {}
    for name in tracing.TRACED_NAMES:
        recs = [t["trace"]["functions"].get(name, {}) for t in traced]
        calls = {rec.get("calls", 0) for rec in recs}
        if len(calls) > 1:
            problems.append(f"{name} calls differ between passes: {sorted(calls)}")
        out[f"{name}.calls"] = max(calls)
        out[f"{name}.total_s"] = statistics.median(rec.get("total_s", 0.0) for rec in recs)
        out[f"{name}.self_s"] = statistics.median(rec.get("self_s", 0.0) for rec in recs)
    for module, fns in tracing.TRACED.items():
        out[f"layer.{module}.self_s"] = statistics.median(
            sum(t["trace"]["functions"].get(f"{module}.{fn}", {}).get("self_s", 0.0) for fn in fns)
            for t in traced
        )
    for name in DERIVED:
        values = {t["trace"]["derived"][name] for t in traced}
        if len(values) > 1:
            problems.append(f"{name} differs between passes: {sorted(values)}")
        out[name] = values.pop()
    plain = end_to_end(untraced, [r["setup_s"] for r in untraced])
    wrapped = end_to_end(traced, [r["setup_s"] for r in traced])
    for metric in END_TO_END:
        out[f"trace.overhead.{metric}"] = wrapped[metric] / plain[metric]
    return out, problems


# -- report ----------------------------------------------------------------


def op_times(runs: list[dict], prefix: str) -> list[float]:
    return [s for r in runs for kind, s in r["ops"] if kind.startswith(prefix)]


def named_report(workload: str, runs: list[dict], attempted: int, failed: int) -> list[str]:
    """The end-to-end figures under their per-workload names."""
    lines = []

    def line(name, value, unit, note=""):
        lines.append(f"  {name:<14} {value:12.4f} {unit:<4} {note}".rstrip())

    def tail(values):
        # highest of p99/p90 with at least ten samples beyond it
        q = 0.99 if len(values) >= 1000 else 0.9
        return q, quantile(values, q)

    if workload.startswith("classify-"):
        for cmd in ("classify", "order"):
            values = op_times(runs, cmd)
            line(f"{cmd}_s", statistics.median(values), "s", f"median of {len(values)}")
    elif workload == "membership":
        for kind in ("label", "embed"):
            values = op_times(runs, kind)
            q, value = tail(values)
            line(f"{kind}_p50_ms", statistics.median(values) * 1e3, "ms", f"n={len(values)}")
            line(f"{kind}_p{round(q * 100)}_ms", value * 1e3, "ms", f"n={len(values)}")
        per_pass = len(runs[0]["ops"])
        rate = statistics.median(per_pass / r["run_s"] for r in runs)
        line("queries_per_s", rate, "1/s", f"{per_pass} queries per pass")
    else:
        line("crosscheck_s", statistics.median(r["run_s"] for r in runs), "s")
        kinds = dict.fromkeys(kind for kind, _ in runs[0]["ops"])
        for kind in kinds:
            line(f"  {kind}", statistics.median(op_times(runs, kind)), "s")
    line("peak_rss_mb", statistics.median(r["peak_rss_mib"] for r in runs) * 1.048576, "MB")
    line("fail_rate", failed / attempted if attempted else 1.0, "")
    return lines


def environment() -> list[str]:
    load = os.getloadavg()
    return [
        f"python {platform.python_version()} ({sys.executable}), nproc {os.cpu_count()}",
        f"load average before the run: {load[0]:.2f} {load[1]:.2f} {load[2]:.2f}",
        "children run one at a time, PYTHONHASHSEED=0, ROOTFORGE_CACHE_DIR unset;"
        " no CPU pinning and no cgroup settings",
    ]


def measure(args) -> tuple[bool, int, int, dict, list[str]]:
    runner = Runner(args.workload, args.seed)
    lines = environment()
    props = runner.prepare()
    for key, value in props.items():
        lines.append(f"input {key}: {value:g}")
    runs: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []

    def pass_untraced():
        for _ in range(SETUPS_PER_PASS):
            setups.append(runner.child("setup")["setup_s"])
        runs.append(runner.run())
        setups.append(runs[-1]["setup_s"])

    def pass_traced():
        runs.append(runner.run())
        traced.append(runner.run(trace=True))
        scale_times(traced[-1], REFERENCE_S / runs[-1]["ref_s"])

    if args.trace:
        runner.repeat(args.seconds, pass_traced, 1)
    else:
        runner.repeat(args.seconds, pass_untraced, MIN_PASSES)
    checked = runs + traced
    attempted = sum(len(r["ops"]) for r in checked)
    failed = sum(len(r["failures"]) for r in checked)
    failures = [f"{op}: {why}" for r in checked for op, why in r["failures"]]
    lines.append(f"{len(runs)} untraced and {len(traced)} traced passes")
    ref_ms = statistics.median(r["ref_s"] for r in runs) * 1e3
    raw = statistics.median(r["run_raw_s"] for r in runs)
    lines.append(
        f"reference {ref_ms:.3f} ms (median of the timed children), scaled to"
        f" {REFERENCE_S * 1e3:g} ms; unscaled run_s {raw:.4f} s"
    )
    lines += named_report(args.workload, runs, attempted, failed)
    if args.trace:
        metrics, problems = per_layer(traced, runs)
        last = traced[-1]["trace"]
        lines.append(f"spans kept in the last traced pass: {last['spans']}")
        lines.append(f"enumerate_weyl sizes, call by call: {last['weyl_sizes']}")
        units = per_layer_units()
    else:
        metrics, problems = end_to_end(runs, setups), []
        units = END_TO_END
    lines += [f"FAIL {f}" for f in failures[:20]] + [f"TRACE {p}" for p in problems]
    payload = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    return not failures and not problems, attempted, failed, payload, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rootforge" / "__init__.py").is_file():
        print(f"error: no rootforge sources under {SRC}", file=sys.stderr)
        return 2
    try:
        correct, attempted, failed, metrics, lines = measure(args)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for text in lines:
        print(text)
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:14.6g} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
