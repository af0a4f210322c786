"""Dense exact linear algebra over Fraction.

Matrices are plain lists of row lists; nothing here ever touches floats.
This is deliberately small: elimination with exact pivots is all the
package needs, and on the matrix sizes that occur (at most a few hundred
rows) quadratic-to-cubic costs with big rationals stay comfortable.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import DomainError, UsageError

__all__ = [
    "identity",
    "zeros",
    "transpose",
    "mat_mul",
    "mat_vec",
    "rref",
    "rank",
    "solve",
    "nullspace",
    "inverse",
    "det",
    "charpoly",
]


def _copy(mat):
    return [[Fraction(x) for x in row] for row in mat]


def identity(m):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(m)] for i in range(m)]


def zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def _cleared(mat):
    """(D, D * mat over int) with D the lcm of the denominators of int/Fraction entries."""
    den = math.lcm(*(x.denominator for row in mat for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in mat]


def mat_mul(a, b):
    """Exact product, accumulated in int on the denominator-cleared operands."""
    if len(a[0]) != len(b):
        raise UsageError(f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    da, ai = _cleared(a)
    db, bi = _cleared(b)
    den = da * db
    cols = list(zip(*bi))
    return [[Fraction(sum(map(operator.mul, row, col)), den) for col in cols] for row in ai]


def mat_vec(a, v):
    if len(a[0]) != len(v):
        raise UsageError(f"shape mismatch: {len(a)}x{len(a[0])} times vector of length {len(v)}")
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def rref(mat):
    """Reduced row echelon form; returns (new matrix, pivot column list)."""
    m = _copy(mat)
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(mat):
    return len(rref(mat)[1]) if mat else 0


def solve(a, b):
    """One exact solution of A x = b, free coordinates set to zero.

    Raises DomainError when the system is inconsistent.
    """
    if len(a) != len(b):
        raise UsageError("right hand side length does not match row count")
    aug = [[Fraction(x) for x in row] + [Fraction(bi)] for row, bi in zip(a, b)]
    red, pivots = rref(aug)
    cols = len(a[0])
    if cols in pivots:
        raise DomainError("inconsistent linear system")
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][-1]
    return x


def nullspace(a):
    """Basis of the exact kernel, one vector per free column."""
    red, pivots = rref(a)
    cols = len(a[0]) if a else 0
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def inverse(a):
    """Exact inverse by fraction-free Gauss-Jordan in int.

    Row i of A is cleared once by the lcm r_i of its denominators, so
    M = diag(r) A is an integer matrix, and [M | I] is eliminated by
    integer row operations: a row with a nonzero entry in the pivot
    column becomes (pivot * row - entry * pivot row) over their gcds,
    then is divided by its content; a row with a zero there is left
    alone, so sparse rows stay cheap.  That ends at [diag(d) | B] with
    M^-1 = diag(d)^-1 B, so A^-1 = M^-1 diag(r) has entries B_is r_s / d_i.
    """
    m = len(a)
    if any(len(row) != m for row in a):
        raise UsageError("inverse of a non-square matrix")
    scales, aug = [], []
    for i, row in enumerate(a):
        r, ints = _cleared([row])
        scales.append(r)
        aug.append(ints[0] + [int(i == j) for j in range(m)])
    for c in range(m):
        pivot = next((i for i in range(c, m) if aug[i][c]), None)
        if pivot is None:
            raise DomainError("matrix is singular")
        aug[c], aug[pivot] = aug[pivot], aug[c]
        prow = aug[c]
        for i in range(m):
            f = aug[i][c]
            if f and i != c:
                g = math.gcd(prow[c], f)
                p, q = prow[c] // g, f // g
                row = [p * x - q * y for x, y in zip(aug[i], prow)]
                h = math.gcd(*row)
                aug[i] = [x // h for x in row]
    return [[Fraction(x * r, row[i]) for x, r in zip(row[m:], scales)]
            for i, row in enumerate(aug)]


def det(mat):
    m = _copy(mat)
    size = len(m)
    if any(len(row) != size for row in m):
        raise UsageError("determinant of a non-square matrix")
    d = Fraction(1)
    for c in range(size):
        pivot = next((i for i in range(c, size) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            d = -d
        d *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, size):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return d


def charpoly(a):
    """Exact characteristic polynomial of a square matrix, descending coefficients.

    Returns [1, c1, .., cm] with det(tI - A) = t^m + c1 t^(m-1) + .. + cm.
    With D the lcm of the entry denominators, the Faddeev-LeVerrier
    recursion N_0 = I, c_k = -tr(M N_(k-1)) / k, N_k = M N_(k-1) + c_k I
    runs in int on M = D A.  Every division is exact there: the c_k are
    the coefficients of det(tI - M) and the N_k those of its adjugate,
    all integers; a remainder raises rather than rounds.  Scaling back,
    det(tI - A) = D^-m det(D t I - M), so c_i(A) = c_i(M) / D^i.
    """
    m = len(a)
    if any(len(row) != m for row in a):
        raise UsageError("characteristic polynomial of a non-square matrix")
    den, ints = _cleared(a)
    cols = list(zip(*ints))
    coeffs = [1]
    work = [[int(i == j) for j in range(m)] for i in range(m)]
    for k in range(1, m + 1):
        # N_(k-1) is a polynomial in M, so N_(k-1) M = M N_(k-1)
        work = [[sum(map(operator.mul, row, col)) for col in cols] for row in work]
        ck, rem = divmod(-sum(work[i][i] for i in range(m)), k)
        if rem:
            raise ArithmeticError(f"Faddeev-LeVerrier trace not divisible by {k}")
        coeffs.append(ck)
        for i in range(m):
            work[i][i] += ck
    return [Fraction(c, den**i) for i, c in enumerate(coeffs)]
