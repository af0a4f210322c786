"""Dense exact linear algebra over Fraction.

Matrices are plain lists of row lists.  Rank and the exact determinant
share one fraction-free elimination in int (_echelon), which serves the
sizes that occur (at most a few hundred rows).  No inverse is taken: the
quotient algebra reads K_j^-1 off its rewrite.  det alone also takes
float or complex entries, by LU in complex.  charpoly, which no command
calls, runs in numeric.py, modulo word-size primes in int64 numpy arrays.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import UsageError

__all__ = [
    "rank",
    "det",
    "charpoly",
]


def _cleared(mat):
    """(D, D * mat over int) with D the lcm of the denominators of int/Fraction entries."""
    den = math.lcm(*(x.denominator for row in mat for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in mat]


def _echelon(rows):
    """Fraction-free Gauss-Jordan in int.

    Returns (ints, pivots, factor).  Each row is cleared once by the lcm r
    of its denominators.  A row with an entry f in the pivot column becomes
    (p row - q pivot row) / h, p / q = pivot / f in lowest terms and h its
    content (a row that drops to zero stays zero); a row with a zero there
    is left alone, so sparse rows stay cheap.  Row i < len(pivots) of ints
    is zero in every pivot column but pivots[i]; over its entry there it is
    row i of the reduced row echelon form.  Clearing scales det(ints) by r, a
    row operation by p / h and a swap by -1: det(rows) = factor * det(ints).
    """
    ints, num, den = [], 1, 1
    for row in rows:
        r, (line,) = _cleared([row])
        den *= r
        ints.append(line)
    pivots = []
    for c in range(len(ints[0]) if ints else 0):
        top = len(pivots)
        pivot = next((i for i in range(top, len(ints)) if ints[i][c]), None)
        if pivot is None:
            continue
        if pivot != top:
            ints[top], ints[pivot] = ints[pivot], ints[top]
            num = -num
        prow = ints[top]
        for i, row in enumerate(ints):
            f = row[c]
            if f and i != top:
                g = math.gcd(prow[c], f)
                p, q = prow[c] // g, f // g
                row = [p * x - q * y for x, y in zip(row, prow)]
                h = math.gcd(*row)
                if h > 1:
                    row = [x // h for x in row]
                num, den = num * (h or 1), den * p
                ints[i] = row
        pivots.append(c)
    return ints, pivots, Fraction(num, den)


def rank(mat):
    return len(_echelon(mat)[1])


def det(mat):
    """Determinant: exact (_echelon) on int/Fraction entries, else complex LU, partial pivoting."""
    size = len(mat)
    if any(len(row) != size for row in mat):
        raise UsageError("determinant of a non-square matrix")
    if all(isinstance(x, (int, Fraction)) for row in mat for x in row):
        ints, pivots, factor = _echelon(mat)
        if len(pivots) < size:
            return Fraction(0)
        return factor * math.prod(row[i] for i, row in enumerate(ints))
    m = [[complex(x) for x in row] for row in mat]
    det = 1 + 0j
    for c in range(len(m)):
        piv = max(range(c, len(m)), key=lambda r: abs(m[r][c]))
        if m[piv][c] == 0:
            return 0j
        if piv != c:
            m[c], m[piv], det = m[piv], m[c], -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def charpoly(a):
    """Exact [1, c1, .., cm] with det(tI - A) = t^m + c1 t^(m-1) + .. + cm, A square:
    found modulo primes, recombined under a proven bound (numeric.charpoly)."""
    from . import numeric
    return numeric.charpoly(a)
