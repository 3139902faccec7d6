"""The sorted-bytes orbit walk kept as an independent reference for the tests.

The package walks orbits on position forms (oracle._orbit).  This is the
earlier walk: each member is held as the sorted bytes of its root indices,
and each image is translated through a reflection followed by projection,
sorted and packed back into bytes.
"""

from rootforge.errors import CapExceeded
from rootforge.oracle import _proj_table, _table, simple_reflection_perms


def sorted_bytes_orbit(system, start_key: bytes, cap: int) -> set[bytes]:
    """Weyl orbit of a projective subset given as sorted bytes, each member
    as sorted bytes, walked breadth first with the simple reflections."""
    proj = _proj_table(system)
    gens = [_table(g.translate(proj)) for g in simple_reflection_perms(system)]
    seen = {start_key}
    frontier = [start_key]
    while frontier:
        new = []
        for s in frontier:
            for g in gens:
                img = bytes(sorted(s.translate(g)))
                if img not in seen:
                    seen.add(img)
                    new.append(img)
                    if len(seen) > cap:
                        raise CapExceeded("subset orbit exceeded cap")
        frontier = new
    return seen
