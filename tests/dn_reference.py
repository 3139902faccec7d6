"""The D-series tag counts kept as an independent reference for the tests.

The package grows (d2, d3) node by node along a node set's int-mask tables
(diagrams._NodeView.dstep); this is the earlier direct count over pairs,
written straight from the definition in dn_tag's docstring.
"""

from itertools import combinations


def dn_counts(system, nodes) -> tuple[int, int, int]:
    """(d2, d3, width) of sorted projective nodes of a D system: the thick
    pairs (two nodes on the same coordinate pair), the thick pairs counted
    once per common neighbour among the nodes, and the number of
    coordinates the nodes touch."""
    supports = {i: frozenset(c for c, x in enumerate(system.roots[i]) if x) for i in nodes}
    thick_pairs = [(a, b) for a, b in combinations(nodes, 2) if supports[a] == supports[b]]
    d3 = 0
    for a, b in thick_pairs:
        for c in nodes:
            if c not in (a, b) and system.cartan(a, c) != 0 and system.cartan(b, c) != 0:
                d3 += 1
    return len(thick_pairs), d3, len(frozenset().union(*supports.values()))
