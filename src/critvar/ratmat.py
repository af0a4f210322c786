"""Dense exact linear algebra over Fraction.

Matrices are plain lists of row lists.  Rank and the exact determinant
share one fraction-free elimination in int (_echelon), which serves the
sizes that occur (at most a few hundred rows).  No inverse is taken: the
quotient algebra reads K_j^-1 off its rewrite.  det alone also takes
float or complex entries, by LU in complex.  The characteristic
polynomial is computed modulo word-size primes in int64 numpy arrays
(imported inside charpoly, so importing this module loads no numpy) and
recombined exactly under a proven bound.
"""

from __future__ import annotations

import math
import operator
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


def _is_prime(n):
    """Miller-Rabin on the bases 2, 3, 5, 7: exact for odd 19 < n < 3,215,031,751."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    d = (n - 1) >> s
    return math.gcd(n, 3 * 5 * 7 * 11 * 13 * 17 * 19) == 1 and all(  # small factors first
        pow(q, d, n) == 1 or any(pow(q, d << r, n) == n - 1 for r in range(s))
        for q in (2, 3, 5, 7))


def _primes(m, den, bound):
    """The largest odd primes p <= isqrt((2^63 - 1) / m) not dividing den, product > bound."""
    primes, prod, p = [], 1, (math.isqrt((2**63 - 1) // m) - 1) | 1
    while prod <= bound:
        if den % p and _is_prime(p):
            primes.append(p)
            prod *= p
        p -= 2
    return primes


def _minor_bound(lines):
    """(sigma, H) over the columns, or the rows, of a matrix; see charpoly."""
    sigma = bound = 1
    for line in lines:
        s = math.lcm(*(x.denominator for x in line))
        sigma *= s
        bound *= s + sum(abs(x.numerator) * (s // x.denominator) for x in line)
    return sigma, bound


def charpoly(a):
    """Exact characteristic polynomial of a square matrix, descending coefficients.

    Returns [1, c1, .., cm] with det(tI - A) = t^m + c1 t^(m-1) + .. + cm,
    found modulo primes and recombined under a proven bound, so exact.

    Bound: with s_j the lcm of the denominators of column j, B = A diag(s)
    is an integer matrix; put beta_j = sum_i |B_ij|, sigma = prod_j s_j and
    H = prod_j (s_j + beta_j).  c_i is +- the sum of the principal minors
    det A_S = det B_S / prod_(j in S) s_j over |S| = i, so sigma c_i is an
    integer, and as Hadamard's inequality gives |det B_S| <= prod_(j in S)
    beta_j, |sigma c_i| <= sum over all S of prod_(j in S) beta_j
    prod_(j not in S) s_j = H.  Rows bound it alike; the smaller H is used.

    Residues: with D the lcm of all denominators and M = D A,
    Faddeev-LeVerrier (N_0 = I, W = M N_(k-1), c_k(M) = -tr(W) / k,
    N_k = W + c_k(M) I) runs modulo all primes of _primes(m, D, 2H) at once
    on one (primes, m, m) int64 array, every partial sum below m p^2 < 2^63.
    As det(tI - A) = D^-m det(D t I - M), sigma c_i = sigma c_i(M) D^-i
    mod p; by the Chinese remainder theorem modulo the primes' product
    Q > 2H, the residue of least absolute value is sigma c_i itself.
    """
    m = len(a)
    if any(len(row) != m for row in a):
        raise UsageError("characteristic polynomial of a non-square matrix")
    if not m:
        return [Fraction(1)]
    import numpy as np
    den, ints = _cleared(a)
    sigma, bound = min(_minor_bound(a), _minor_bound(zip(*a)), key=operator.itemgetter(1))
    primes = _primes(m, den, 2 * bound)
    mods = np.array(primes, dtype=np.int64)
    mat = np.array([[[x % p for x in row] for row in ints] for p in primes], dtype=np.int64)
    work, diag = mat.copy(), np.arange(m)  # work = M N_0
    scale = np.array([sigma % p for p in primes], dtype=np.int64)
    dinv = np.array([pow(den, -1, p) for p in primes], dtype=np.int64)
    residues = []
    for k in range(1, m + 1):
        if k > 1:
            work = np.matmul(mat, work) % mods[:, None, None]
        kinv = np.array([pow(k, -1, p) for p in primes], dtype=np.int64)
        ck = -np.trace(work, axis1=1, axis2=2) % mods * kinv % mods
        work[:, diag, diag] = (work[:, diag, diag] + ck[:, None]) % mods[:, None]
        scale = scale * dinv % mods
        residues.append((ck * scale % mods).tolist())
    total = math.prod(primes)
    weights = [total // p * pow(total // p, -1, p) for p in primes]
    coeffs = [Fraction(1)]
    for res in residues:
        x = sum(map(operator.mul, res, weights)) % total
        coeffs.append(Fraction(x - total if 2 * x > total else x, sigma))
    return coeffs
