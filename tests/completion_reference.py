"""The completion loop and the extension root kept as independent
references for the tests.

The package looks, after the first round, only at the D4 stars that meet a
node added in the round before, and stops once the set holds every root
(completion._completion).  every_star_completion is the earlier loop,
which takes the extension root of every star on every round.

The package takes a star's extension root by one coordinate lookup
(completion._star_root).  walked_extension_root is the earlier formula: the
negative of the highest root of the sign-normalised star, found by the
highest-root walk over the subsystem the star generates.
"""

from rootforge.completion import _star_root, d4_stars
from rootforge.rootsystem import _highest_root


def every_star_completion(system, members) -> tuple[int, ...]:
    """Sorted members of the least complete symmetric superset of members,
    grown in rounds that add every missing extension root."""
    members = set(system.symmetrize(tuple(members)))
    while True:
        stars = d4_stars(system, system.projective(members))
        missing = {_star_root(system, c, ends) for c, ends in stars} - members
        if not missing:
            return tuple(sorted(members))
        members |= missing
        members.update(system.negative(d) for d in missing)


def walked_extension_root(system, center, ends) -> int:
    """The lowest root of the D4 star whose ends are turned to pair to -1
    with the centre, by the highest-root walk."""
    c = system.proj_rep(center)
    fixed = tuple(e if system.cartan(e, c) == -1 else system.negative(e) for e in ends)
    return system.negative(_highest_root(system, (c, *fixed))[0])
