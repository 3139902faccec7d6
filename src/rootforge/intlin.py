"""Small exact integer/rational linear algebra helpers.

Everything in the package works on "doubled" integer coordinate vectors,
so plain Python ints are enough; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

Vec = tuple[int, ...]


def dot(u: Vec, v: Vec) -> int:
    return sum(a * b for a, b in zip(u, v))


def neg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def rank(vectors: list[Vec]) -> int:
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


def solve_integer_combination(basis: list[Vec], target: Vec) -> list[int] | None:
    """Express target as an integer combination of basis vectors, or None.

    The basis vectors are assumed linearly independent over Q.
    """
    rows = [[Fraction(x) for x in v] for v in basis]
    rhs = [Fraction(x) for x in target]
    n = len(basis)
    coeffs = [Fraction(0)] * n
    # Solve x * M = target by Gaussian elimination on the transpose.
    ncols = len(target)
    cols = list(range(ncols))
    mat = [[rows[i][j] for i in range(n)] for j in cols]  # ncols x n
    vec = rhs[:]
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
    for pr, c in pivots:
        coeffs[c] = vec[pr] / mat[pr][c]
    for r in range(ncols):
        if r not in used_rows and vec[r] != 0:
            return None
    out = []
    for f in coeffs:
        if f.denominator != 1:
            return None
        out.append(int(f))
    return out
