"""Spans around rootforge's public entry points, installed from outside.

`install` replaces every binding of a traced function in every loaded
rootforge module (aliases such as `classify.moset_parity` included) with a
wrapper that records a span, and returns a handle whose `restore` puts the
original objects back.

Spans live in memory as [name, start, end, parent] records.  Calls to the
functions in `HOT`, and everything they call, are folded into one record
per (name, nearest recorded ancestor) so that millions of diagram checks
do not each keep a span.  Self time stays exact either way: a span's self
time is its duration minus the part of it covered by its children, and the
folded records carry the covered time of the span they sit under.
"""

from __future__ import annotations

import functools
import sys
import time

TRACED = {
    "rootsystem": ("build_root_system", "components", "orthogonal_complement"),
    "completion": ("enhanced_basis", "completion_nodes"),
    "diagrams": (
        "projective_diagram_of",
        "is_dynkin_shape",
        "classify_components",
        "are_isomorphic",
    ),
    "mosets": ("perfect_moset",),
    "coregroups": ("core_group_model", "extend_partial_map", "parity"),
    "classify": (
        "pi_node_subsets",
        "enumerate_pi_orbits",
        "orbit_label",
        "dn_tag",
        "parity_of_orthogonal",
        "weyl_into_moset",
        "is_weyl_embedding",
        "order_between_orbits",
        "hasse_diagram",
    ),
    "oracle": (
        "enumerate_weyl",
        "set_stabilizer",
        "induced_action",
        "orbit_id_map",
        "perm_from_word",
    ),
    "cli": ("main",),
}

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Called tens or hundreds of thousands of times per workload; folded.
HOT = frozenset(
    {
        "rootsystem.components",
        "rootsystem.orthogonal_complement",
        "diagrams.projective_diagram_of",
        "diagrams.is_dynkin_shape",
        "diagrams.classify_components",
        "coregroups.parity",
        "classify.enumerate_pi_orbits",
        "classify.orbit_label",
        "classify.dn_tag",
        "mosets.perfect_moset",
        "oracle.perm_from_word",
    }
)


class Tracer:
    """Records spans of nested, single-threaded calls."""

    def __init__(self, hot=HOT, clock=time.perf_counter):
        self.hot = frozenset(hot)
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index]
        # (name, anchor span index) -> [calls, total, self, direct]; direct
        # is the time of the calls made straight from the anchor span.
        self.folded: dict[tuple, list] = {}
        self._stack: list[list] = []  # [name, start, child time, span index, anchor]
        self._active: dict[str, int] = {}
        self._folding = 0

    def enter(self, name: str) -> None:
        stack = self._stack
        if stack:
            top = stack[-1]
            anchor = top[3] if top[3] is not None else top[4]
        else:
            anchor = None
        self._active[name] = self._active.get(name, 0) + 1
        if self._folding or name in self.hot:
            self._folding += 1
            stack.append([name, self.clock(), 0.0, None, anchor])
        else:
            index = len(self.spans)
            start = self.clock()
            self.spans.append([name, start, None, anchor])
            stack.append([name, start, 0.0, index, anchor])

    def exit(self) -> None:
        end = self.clock()
        stack = self._stack
        name, start, child, index, anchor = stack.pop()
        duration = end - start
        self._active[name] -= 1
        if stack:
            stack[-1][2] += duration
        if index is not None:
            self.spans[index][2] = end
            return
        self._folding -= 1
        rec = self.folded.get((name, anchor))
        if rec is None:
            rec = self.folded[(name, anchor)] = [0, 0.0, 0.0, 0.0]
        rec[0] += 1
        rec[2] += duration - child
        if self._active[name] == 0:
            rec[1] += duration
        if not stack or stack[-1][3] is not None:
            rec[3] += duration

    def summary(self) -> dict[str, dict]:
        """Per name: calls, total_s (outermost activations) and self_s."""
        return summarize(self.spans, self.folded)


def summarize(spans, folded) -> dict[str, dict]:
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    for (_, anchor), (_, _, _, direct) in folded.items():
        if anchor is not None:
            covered[anchor] += direct
    out: dict[str, dict] = {}

    def record(name):
        return out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    for i, (name, start, end, parent) in enumerate(spans):
        rec = record(name)
        rec["calls"] += 1
        rec["self_s"] += (end - start) - covered[i]
        if not _has_ancestor_named(spans, parent, name):
            rec["total_s"] += end - start
    for (name, _), (calls, total, self_time, _) in folded.items():
        rec = record(name)
        rec["calls"] += calls
        rec["total_s"] += total
        rec["self_s"] += self_time
    return out


def _has_ancestor_named(spans, parent, name) -> bool:
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


class Installed:
    """Handle on installed wrappers; `restore` undoes `install`."""

    def __init__(self, patches):
        self.patches = patches  # (module, attribute, original)

    def restore(self) -> None:
        for module, attr, original in reversed(self.patches):
            setattr(module, attr, original)
        self.patches = []


def _rootforge_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "rootforge" or name.startswith("rootforge."))
    ]


def install(tracer: Tracer, observers=None) -> Installed:
    """Wrap every traced function in every loaded rootforge module.

    `observers` maps a traced name to a callable(args, result) run after
    the call returns, for counts that can be read from outside.
    """
    observers = observers or {}
    modules = _rootforge_modules()
    patches = []
    for qualname in TRACED_NAMES:
        mod_name, fn_name = qualname.split(".")
        home = sys.modules.get(f"rootforge.{mod_name}")
        if home is None:
            continue
        original = getattr(home, fn_name)
        wrapper = _wrap(tracer, qualname, original, observers.get(qualname))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
    return Installed(patches)


def _wrap(tracer: Tracer, qualname: str, fn, observe):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(qualname)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if observe is not None:
            observe(args, result)
        return result

    return traced
