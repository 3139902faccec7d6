"""The completion loop kept as an independent reference for the tests.

The package looks, after the first round, only at the D4 stars that meet a
node added in the round before, and stops once the set holds every root
(completion._completion).  This is the earlier loop, which takes the
extension root of every star on every round.
"""

from rootforge.completion import _star_root, d4_stars


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
