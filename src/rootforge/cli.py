"""Command-line interface.

Subcommands: roots, enhance, moset, coregroup, classify, conjugate,
order, verify.  Node labels follow the enhanced-diagram convention:
digits for basis nodes, a trailing apostrophe for primed nodes of the D
series (3'), and l1..lk for the extra nodes of the E series.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .classify import enumerate_pi_orbits, hasse_diagram, orbit_label
from .completion import enhanced_basis
from .coregroups import core_group_model
from .diagrams import to_dot
from .errors import RootForgeError
from .mosets import extend_to_moset
from .oracle import DEFAULT_CAP
from .rootsystem import RootSet, parse_system


def _sink(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise RootForgeError(f"cannot write {path}: {exc.strerror}") from exc


def _system_from(args) -> "RootSystem":
    """The system a command names: its positional label, one token or two,
    unless --series and --rank (enhance only) are both given."""
    series, rank = getattr(args, "series", None), getattr(args, "rank", None)
    spec = [f"{series}{rank}"] if series and rank else args.system
    if len(spec) not in (1, 2):
        raise RootForgeError("expected a system label like 'E7' or 'E 7'")
    return parse_system("".join(spec))


def _parse_labels(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def cmd_roots(args) -> int:
    system = _system_from(args)
    _sink(args.json, json.dumps(system.to_json(), indent=2))
    return 0


def cmd_enhance(args) -> int:
    system = _system_from(args)
    eb = enhanced_basis(system)
    if args.dot is not None:
        names = {n: eb.names[n] for n in eb.nodes}
        _sink(args.dot, to_dot(eb.diagram(), bold_nodes=eb.moset, names=names))
    if args.json is not None or args.dot is None:
        _sink(args.json, json.dumps(eb.to_json(), indent=2))
    return 0


def cmd_moset(args) -> int:
    system = _system_from(args)
    eb = enhanced_basis(system)
    moset = extend_to_moset(system, eb.moset, range(len(system.roots)))
    payload = {
        "schema": "rootforge/1",
        "system": system.name,
        "mu": len(moset.members),
        "members": [eb.names.get(n, f"#{n}") for n in moset.members],
        "roots": [list(system.roots[n]) for n in moset.members],
    }
    _sink(args.json, json.dumps(payload, indent=2))
    return 0


def cmd_coregroup(args) -> int:
    system = _system_from(args)
    model = core_group_model(system)
    _sink(args.json, json.dumps(model.to_json(), indent=2))
    return 0


def cmd_classify(args) -> int:
    system = _system_from(args)
    eb = enhanced_basis(system)
    rows = []
    for label, rep in enumerate_pi_orbits(system):
        row = label.to_json()
        row["representative"] = [eb.names[n] for n in rep]
        row["special"] = label.kind == "ep"
        rows.append(row)
    payload = {"schema": "rootforge/1", "system": system.name, "orbits": rows}
    _sink(args.json, json.dumps(payload, indent=2))
    return 0


def cmd_conjugate(args) -> int:
    system = _system_from(args)
    eb = enhanced_basis(system)
    l1 = RootSet(system, eb.subset(_parse_labels(args.l1)))
    l2 = RootSet(system, eb.subset(_parse_labels(args.l2)))
    a, b = orbit_label(l1), orbit_label(l2)
    if a == b:
        print(f"conjugate ({a.render()}); decided by orbit labels")
    else:
        if a.kind == "ep" and b.kind == "ep" and a.type_text == b.type_text:
            print(f"not conjugate (parity {a.data[1]} vs {b.data[1]})")
        else:
            print(f"not conjugate ({a.render()} vs {b.render()})")
    return 0


def cmd_order(args) -> int:
    system = _system_from(args)
    labels = None
    if args.special:
        labels = [l for l, _ in enumerate_pi_orbits(system) if l.kind == "ep"]
    h = hasse_diagram(system, labels)
    if args.dot is not None:
        _sink(args.dot, h.to_dot())
    if args.json is not None or args.dot is None:
        _sink(args.json, json.dumps(h.to_json(), indent=2))
    return 0


def cmd_verify(args) -> int:
    from .verification import run_all

    results = run_all(slow=args.slow, seed=args.seed, embeddings=args.embeddings, cap=args.cap)
    for r in results:
        print(r.line())
    return 0 if all(r.ok for r in results) else 1


def count(text: str) -> int:
    """An option value that counts something: an int of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {int(text)}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="rootforge", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def with_system(p):
        p.add_argument("system", nargs="+", help="system label, e.g. E7 or 'E 7'")
        return p

    p = with_system(sub.add_parser("roots", help="dump a root system as JSON"))
    p.add_argument("--json", default=None, help="output path ('-' for stdout)")
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("enhance", help="enhanced Dynkin diagram with moset flags")
    p.add_argument("system", nargs="*", help="system label")
    p.add_argument("--series", default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--json", default=None)
    p.add_argument("--dot", default=None)
    p.set_defaults(fn=cmd_enhance)

    p = with_system(sub.add_parser("moset", help="a maximal orthogonal subset"))
    p.add_argument("--json", default=None)
    p.set_defaults(fn=cmd_moset)

    p = with_system(sub.add_parser("coregroup", help="core group model report"))
    p.add_argument("--json", default=None)
    p.set_defaults(fn=cmd_coregroup)

    p = with_system(sub.add_parser("classify", help="table of Weyl orbits"))
    p.add_argument("--json", default=None)
    p.set_defaults(fn=cmd_classify)

    p = with_system(sub.add_parser("conjugate", help="decide conjugacy of two subsets"))
    p.add_argument("--l1", required=True, help="comma-separated node labels")
    p.add_argument("--l2", required=True, help="comma-separated node labels")
    p.set_defaults(fn=cmd_conjugate)

    p = with_system(sub.add_parser("order", help="order graph between orbits"))
    p.add_argument("--dot", default=None)
    p.add_argument("--json", default=None)
    p.add_argument("--special", action="store_true", help="special orbits only")
    p.set_defaults(fn=cmd_order)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--slow", action="store_true", help="add the W(E7) stabilizer and E8 criterion 5")
    p.add_argument("--cap", type=count, default=DEFAULT_CAP, help="Weyl enumeration cap")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--embeddings", type=count, default=1000, help="random embeddings per system")
    p.set_defaults(fn=cmd_verify)
    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing leaves a parser as it was, so main
    builds it once rather than per call."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except RootForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
