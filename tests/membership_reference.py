"""Weyl membership steps kept as an independent reference for the tests.

The package memoises each moset walk on (scope, start), moves only the
images not yet placed, and scans core group elements by comparing one
tuple of images.  These are the earlier forms: every step walks afresh
towards an explicit target set, every image is moved by every step word,
and each element is tested pair by pair.
"""

from itertools import combinations

from rootforge.classify import _apply
from rootforge.coregroups import core_group_model
from rootforge.errors import InvariantViolation, NotOrthogonal
from rootforge.rootsystem import _bits, cartan_links, positive_mask


def weyl_into_moset(system, subset):
    """(word, mapping) moving an orthogonal set into the model moset."""
    model = core_group_model(system)
    nodes = system.projective(subset)
    for a, b in combinations(nodes, 2):
        if system.cartan(a, b) != 0:
            raise NotOrthogonal("only orthogonal sets can enter the moset")
    links = cartan_links(system)
    moset = set(model.moset)
    scope = positive_mask(system)
    word = []
    images = {n: n for n in nodes}
    for n in nodes:
        cur = images[n]
        targets = {m for m in moset if scope >> m & 1}
        if system.proj_rep(cur) in targets:
            target = system.proj_rep(cur)
        else:
            step_word = walk_to(system, scope, cur, targets)
            word.extend(step_word)
            images = {k: _apply(system, step_word, img) for k, img in images.items()}
            target = system.proj_rep(images[n])
            if target not in targets:
                raise InvariantViolation("walk landed outside the moset targets")
        moset.discard(target)
        scope &= ~links[target]
    mapping = {n: system.proj_rep(images[n]) for n in nodes}
    return tuple(word), mapping


def walk_to(system, scope, start, targets):
    """Breadth-first word from start to a root whose projective
    representative is in targets, by reflections in the roots of scope."""
    links = cartan_links(system)
    parents = {start: None}
    frontier = [start]
    while frontier:
        new = []
        for cur in frontier:
            for g in _bits(links[cur] & scope):
                nxt = system.reflect(cur, g)
                if nxt in parents:
                    continue
                parents[nxt] = (cur, g)
                if system.proj_rep(nxt) in targets:
                    word = []
                    while parents[nxt] is not None:
                        nxt, g = parents[nxt]
                        word.append(g)
                    return tuple(reversed(word))
                new.append(nxt)
        frontier = new
    raise InvariantViolation("no moset target is reachable inside the scope")


def extend_partial_map(model, mapping):
    """(found, word) of the first element of element_list agreeing with
    the node mapping on every pair."""
    items = [(model.position(src), model.position(dst)) for src, dst in mapping.items()]
    for perm, word in model.element_list:
        if all(perm[s] == d for s, d in items):
            return True, word
    return False, None
