"""Rational linear algebra kept as an independent reference for the tests.

The package decides Pi-systems and minimal roots on Cartan pairings and a
highest-root walk; these are the earlier definitions by Fraction Gaussian
elimination, slow but written straight from the textbook statements.  The
simple basis of a closed subsystem is kept here in its earlier quadratic
form, which tests every positive member against every other.
"""

from fractions import Fraction
from itertools import combinations


def rank(vectors) -> int:
    """Rank over Q by fraction Gaussian elimination."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] / prow[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        r += 1
        if r == len(rows):
            break
    return r


def solve_integer_combination(basis, target) -> list[int] | None:
    """Express target as an integer combination of basis vectors, or None.

    The basis vectors are assumed linearly independent over Q.
    """
    n = len(basis)
    ncols = len(target)
    # Solve x * M = target by Gaussian elimination on the transpose.
    mat = [[Fraction(basis[i][j]) for i in range(n)] for j in range(ncols)]
    vec = [Fraction(x) for x in target]
    pivots: list[tuple[int, int]] = []
    used_rows: set[int] = set()
    for c in range(n):
        pr = next(
            (r for r in range(ncols) if r not in used_rows and mat[r][c] != 0), None
        )
        if pr is None:
            return None
        used_rows.add(pr)
        pivots.append((pr, c))
        pv = mat[pr][c]
        for r in range(ncols):
            if r != pr and mat[r][c] != 0:
                f = mat[r][c] / pv
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[pr])]
                vec[r] = vec[r] - f * vec[pr]
    coeffs = [Fraction(0)] * n
    for pr, c in pivots:
        coeffs[c] = vec[pr] / mat[pr][c]
    for r in range(ncols):
        if r not in used_rows and vec[r] != 0:
            return None
    if any(f.denominator != 1 for f in coeffs):
        return None
    return [int(f) for f in coeffs]


def is_pi_system(system, members) -> bool:
    """Linearly independent, and no difference of two members is a root."""
    if not members:
        return True
    if rank([system.roots[i] for i in members]) != len(members):
        return False
    for a, b in combinations(members, 2):
        diff = tuple(x - y for x, y in zip(system.roots[a], system.roots[b]))
        if system.is_root(diff):
            return False
    return True


def least_sum_root(system, members, scope) -> int:
    """The root of scope whose coefficients over the independent members
    have the least sum: the minimal root when scope is the subsystem the
    members generate."""
    basis = [system.roots[i] for i in members]
    sums = {}
    for i in scope:
        coeffs = solve_integer_combination(basis, system.roots[i])
        if coeffs is not None:
            sums[i] = sum(coeffs)
    return min(sums, key=sums.get)


def subsystem_basis(system, members) -> tuple[int, ...]:
    """Simple basis of a closed subsystem: the positive members that are
    not the sum of two positive members."""
    pos = [i for i in members if system.proj_rep(i) == i]
    posset = set(pos)
    out = []
    for i in pos:
        decomposable = False
        for j in pos:
            if j == i:
                continue
            rest = tuple(a - b for a, b in zip(system.roots[i], system.roots[j]))
            k = system.index(rest)
            if k is not None and k in posset:
                decomposable = True
                break
        if not decomposable:
            out.append(i)
    return tuple(sorted(out))
