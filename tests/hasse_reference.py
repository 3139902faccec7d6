"""The Hasse covers kept as an independent reference for the tests.

The package reads each label's covers off the descent's children
(classify.hasse_diagram).  This is the earlier formula, which reads only
the lower sets: with B the chosen labels strictly below u, the covers of u
are B less the union of the lower sets of B's members, each without the
member itself.
"""

from rootforge.classify import _orbit_codes, _orbits
from rootforge.rootsystem import _bits


def hasse_edges(system, labels) -> tuple[tuple, tuple]:
    """(sorted labels, sorted cover edges (upper, lower)) of the orbit
    order restricted to labels."""
    labels = list(dict.fromkeys(labels))
    code = dict(zip(labels, _orbit_codes(system, labels)))
    chosen = sum(1 << c for c in code.values())
    found = _orbits(system)
    strictly = {c: found.lower[c] & chosen & ~(1 << c) for c in code.values()}
    edges = []
    for upper in labels:
        below = strictly[code[upper]]
        covered = 0
        for m in _bits(below):
            covered |= strictly[m]
        edges.extend((upper, found.orbits[m]) for m in _bits(below & ~covered))
    return tuple(sorted(labels)), tuple(sorted(edges))
