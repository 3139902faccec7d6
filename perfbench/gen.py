"""Seeded query stream for the `membership` workload.

Three kinds of single queries on E7, E8 and D8, shuffled together:

- `label`: `orbit_label` of a Pi-system conjugated by a random reflection
  word.  A fixed share of the sources on E7/E8 are the special-orbit
  representatives of `verification.E7_TABLE`/`E8_TABLE`; the rest are
  random Pi node subsets of the enhanced diagram.  The expected answer is
  the source's label.
- `embed` with `expect` true: a Pi node subset S, two random words w1 and
  w2, and the map w1(n) -> w2(n) on w1(S).  It is w2 w1^-1 on roots.
- `embed` with `expect` false: a diagram isomorphism from [T]^0 to [T]^1 of
  the special tables (composed with a random diagram automorphism), with
  both sides moved by random words.  Source and image lie in different
  Weyl orbits, so no Weyl element realizes the map.

The seed decides which subsets, words and automorphisms are drawn; the
mix is fixed (counts per kind and system, subset sizes in proportion to
how many Pi subsets have each size, word lengths spread evenly over
1..MAX_WORD), so seeds differ in their inputs but not in their cost
profile.  Queries are plain data (root indices into the fixed, sorted root
list), so the timed process receives only the generated inputs.
"""

from __future__ import annotations

import random
import statistics

SYSTEMS = ("E7", "E8", "D8")
LABELS_PER_SYSTEM = 240
SPECIAL_SHARE = 0.25
POSITIVES_PER_SYSTEM = 300
NEGATIVES_PER_SYSTEM = 120  # E7 and E8 only: their tables give the pairs
MAX_WORD = 40


def _spread(rng: random.Random, classes: list[list], count: int) -> list:
    """`count` random picks whose split over `classes` is fixed: each class
    gets its share in proportion to its size (largest remainders first)."""
    if not count:
        return []
    total = sum(len(c) for c in classes)
    quotas = [count * len(c) / total for c in classes]
    shares = [int(q) for q in quotas]
    by_remainder = sorted(range(len(classes)), key=lambda i: shares[i] - quotas[i])
    for i in by_remainder[: count - sum(shares)]:
        shares[i] += 1
    picks = [rng.choice(c) for c, n in zip(classes, shares) for _ in range(n)]
    rng.shuffle(picks)
    return picks


def _by_size(subsets) -> list[list]:
    sizes: dict[int, list] = {}
    for s in subsets:
        sizes.setdefault(len(s), []).append(s)
    return [sizes[k] for k in sorted(sizes)]


class _Words:
    """Random reflection words whose lengths are spread evenly over
    1..MAX_WORD, in random order."""

    def __init__(self, rng: random.Random, system, count: int):
        self.rng = rng
        self.system = system
        self.lengths = [1 + i * MAX_WORD // count for i in range(count)]
        rng.shuffle(self.lengths)

    def __call__(self) -> list[int]:
        return [self.rng.choice(self.system.positive) for _ in range(self.lengths.pop())]


def _moved(system, perm, nodes) -> list[int]:
    return [system.proj_rep(perm[n]) for n in nodes]


def generate(seed: int) -> list[dict]:
    from rootforge import RootSet, automorphism_group, are_isomorphic, enhanced_basis, orbit_label
    from rootforge.classify import pi_node_subsets
    from rootforge.diagrams import projective_diagram_of
    from rootforge.oracle import perm_from_word
    from rootforge.rootsystem import parse_system
    from rootforge.verification import E7_TABLE, E8_TABLE

    rng = random.Random(seed)
    queries: list[dict] = []
    for name in SYSTEMS:
        system = parse_system(name)
        eb = enhanced_basis(system)
        by_size = _by_size(pi_node_subsets(eb))
        table = {"E7": E7_TABLE, "E8": E8_TABLE}.get(name, {})
        special = [eb.subset(v) for v in table.values()]
        n_special = round(LABELS_PER_SYSTEM * SPECIAL_SHARE) if special else 0
        negatives = NEGATIVES_PER_SYSTEM if table else 0
        word = _Words(rng, system, LABELS_PER_SYSTEM + 2 * POSITIVES_PER_SYSTEM + 2 * negatives)
        sources = [(True, s) for s in _spread(rng, [[s] for s in special], n_special)]
        sources += [(False, s) for s in _spread(rng, by_size, LABELS_PER_SYSTEM - n_special)]
        for is_special, src in sources:
            w = word()
            queries.append(
                {
                    "kind": "label",
                    "system": name,
                    "nodes": sorted(set(_moved(system, perm_from_word(system, w), src))),
                    "expect": orbit_label(RootSet(system, src)).render(),
                    "special": is_special,
                    "words": [len(w)],
                }
            )
        for src in _spread(rng, by_size, POSITIVES_PER_SYSTEM):
            w1, w2 = word(), word()
            p1, p2 = perm_from_word(system, w1), perm_from_word(system, w2)
            queries.append(
                {
                    "kind": "embed",
                    "system": name,
                    "map": list(zip(_moved(system, p1, src), _moved(system, p2, src))),
                    "expect": True,
                    "words": [len(w1), len(w2)],
                }
            )
        types = sorted({t for t, _ in table})
        for ttext in _spread(rng, [[t] for t in types], negatives):
            a, b = eb.subset(table[(ttext, 0)]), eb.subset(table[(ttext, 1)])
            da = projective_diagram_of(system, a)
            _, iso = are_isomorphic(da, projective_diagram_of(system, b))
            aut = rng.choice(automorphism_group(da))
            src = sorted(a)
            w1, w2 = word(), word()
            p1, p2 = perm_from_word(system, w1), perm_from_word(system, w2)
            queries.append(
                {
                    "kind": "embed",
                    "system": name,
                    "map": list(
                        zip(
                            _moved(system, p1, src),
                            _moved(system, p2, [iso[aut[n]] for n in src]),
                        )
                    ),
                    "expect": False,
                    "words": [len(w1), len(w2)],
                }
            )
    rng.shuffle(queries)
    return queries


def properties(queries: list[dict]) -> dict:
    """Input properties the cost depends on."""
    labels = [q for q in queries if q["kind"] == "label"]
    embeds = [q for q in queries if q["kind"] == "embed"]
    seen: set = set()
    repeats = 0
    for q in labels:
        key = (q["system"], tuple(q["nodes"]))
        repeats += key in seen
        seen.add(key)
    words = [n for q in queries for n in q["words"]]
    return {
        "label_queries": len(labels),
        "label_special_share": sum(q["special"] for q in labels) / max(1, len(labels)),
        "label_repeat_share": repeats / max(1, len(labels)),
        "embed_positive": sum(q["expect"] for q in embeds),
        "embed_negative": sum(not q["expect"] for q in embeds),
        "word_len_p50": statistics.median(words) if words else 0,
        "word_len_max": max(words, default=0),
    }
