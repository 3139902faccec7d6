"""Earlier oracle walks kept as independent references for the tests.

The package answers orbit questions from a stabilizer tree and walks no
orbit (oracle.canonical_image).  sorted_bytes_orbit is the only orbit walk
left, kept as the tree's reference: each member is held as the sorted
bytes of its root indices, and each image is translated through a
reflection followed by projection, sorted and packed back into bytes.

The package enumerates W as a product of coset transversals
(oracle.enumerate_weyl).  closure_weyl is the earlier enumeration, the
breadth-first closure of the identity under the simple reflections.
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


def closure_weyl(system, cap: int) -> list[bytes]:
    """Every Weyl group element as a permutation of root indices, sorted:
    the breadth-first closure of the identity under the simple reflections,
    each new state hashed into a set."""
    gens = [_table(g) for g in simple_reflection_perms(system)]
    identity = bytes(range(len(system.roots)))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for cur in frontier:
            for g in gens:
                nxt = cur.translate(g)
                if nxt not in seen:
                    seen.add(nxt)
                    new.append(nxt)
        if len(seen) > cap:
            raise CapExceeded(f"closure exceeded cap {cap}")
        frontier = new
    return sorted(seen)
