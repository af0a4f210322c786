import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critvar import numeric, ratmat
from critvar.errors import DomainError, UsageError


def zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def identity(m):
    return [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def mat_mul(a, b):
    """Exact product, accumulated in int on the denominator-cleared operands."""
    if len(a[0]) != len(b):
        raise UsageError(f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    (da, ai), (db, bi) = ratmat._cleared(a), ratmat._cleared(b)
    cols = list(zip(*bi))
    return [[Fraction(sum(map(operator.mul, row, col)), da * db) for col in cols] for row in ai]


def mat_vec(a, v):
    assert len(a[0]) == len(v)
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def rand_mat(rng, r, c, lo=-6, hi=6):
    return [[Fraction(rng.randint(lo, hi), rng.randint(1, 3)) for _ in range(c)] for _ in range(r)]


def _rref(mat):
    """Reference: reduced row echelon form over Fraction; returns (matrix, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in mat]
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


def _nullspace_by_rref(a):
    """Reference: one kernel vector per free column of the Fraction RREF."""
    red, pivots = _rref(a)
    cols = len(a[0]) if a else 0
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def _det_fraction(mat):
    """Reference: Gaussian elimination over Fraction, first nonzero pivot."""
    m = [[Fraction(x) for x in row] for row in mat]
    size = len(m)
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


def _det_complex_lu(rows):
    """Reference: complex LU with partial pivoting, the float branch of det before it moved."""
    m = [[complex(x) for x in row] for row in rows]
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


def _mat_mul_fraction(a, b):
    """Reference: the plain Fraction triple loop."""
    return [[sum((Fraction(a[i][l]) * Fraction(b[l][j]) for l in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_mat_mul_against_fraction_loop():
    rng = random.Random(29)
    dens = [1, 2, 3, 4, 5, 7, 9, 12, 1024, 3**20]
    for r, m, c in [(1, 1, 1), (3, 4, 2), (5, 5, 5), (6, 6, 1), (7, 3, 7)]:
        for _ in range(3):
            a = [[Fraction(rng.randint(-99, 99), rng.choice(dens)) for _ in range(m)]
                 for _ in range(r)]
            b = [[Fraction(rng.randint(-99, 99), rng.choice(dens)) for _ in range(c)]
                 for _ in range(m)]
            assert mat_mul(a, b) == _mat_mul_fraction(a, b)
            ints = [[rng.randint(-50, 50) for _ in range(c)] for _ in range(m)]
            assert mat_mul(a, ints) == _mat_mul_fraction(a, ints)
            assert mat_mul(zeros(r, m), b) == zeros(r, c)
            assert mat_mul(a, zeros(m, c)) == zeros(r, c)
    with pytest.raises(UsageError):
        mat_mul(zeros(2, 3), zeros(2, 3))


def test_identity_mul():
    rng = random.Random(3)
    a = rand_mat(rng, 4, 4)
    assert mat_mul(identity(4), a) == a
    assert mat_mul(a, identity(4)) == a


def _solve(a, b):
    """Reference: one exact solution of A x = b by rref, free coordinates set to zero.

    Raises DomainError when the system is inconsistent.
    """
    if len(a) != len(b):
        raise UsageError("right hand side length does not match row count")
    aug = [[Fraction(x) for x in row] + [Fraction(bi)] for row, bi in zip(a, b)]
    red, pivots = _rref(aug)
    cols = len(a[0])
    if cols in pivots:
        raise DomainError("inconsistent linear system")
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][-1]
    return x


def test_solve_and_residual():
    rng = random.Random(5)
    for _ in range(25):
        a = rand_mat(rng, 4, 4)
        if ratmat.det(a) == 0:
            continue
        b = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        x = _solve(a, b)
        assert mat_vec(a, x) == b


def test_solve_inconsistent():
    a = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    with pytest.raises(DomainError):
        _solve(a, [Fraction(1), Fraction(3)])
    # consistent singular system still yields a solution
    x = _solve(a, [Fraction(1), Fraction(2)])
    assert mat_vec(a, x) == [Fraction(1), Fraction(2)]


def test_det_multiplicative():
    rng = random.Random(13)
    for _ in range(20):
        a = rand_mat(rng, 3, 3)
        b = rand_mat(rng, 3, 3)
        assert ratmat.det(mat_mul(a, b)) == ratmat.det(a) * ratmat.det(b)


def test_det_known():
    assert ratmat.det([[Fraction(2)]]) == 2
    a = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert ratmat.det(a) == -1
    assert ratmat.det([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 0


def _charpoly_cofactor(a):
    """Reference: expand det(tI - A) with the reference ring in one variable."""
    from ringref import add, const, mul, sub, zvar

    m = len(a)
    t = zvar(1, 1)

    def minor_det(rows, cols):
        if not rows:
            return const(1, 1)
        r, rest = rows[0], rows[1:]
        out = const(1, 0)
        for s, c in enumerate(cols):
            entry = sub(t if r == c else const(1, 0), a[r][c])
            minor = minor_det(rest, cols[:s] + cols[s + 1 :])
            out = add(out, mul((-1) ** s, entry, minor))
        return out

    poly = minor_det(list(range(m)), list(range(m)))
    coeffs = []
    for k in range(m, -1, -1):
        key = ((0, k),) if k else ()
        coeffs.append(poly.terms.get(key, Fraction(0)))
    return coeffs


def test_charpoly_against_cofactor_expansion():
    rng = random.Random(17)
    for _ in range(10):
        a = rand_mat(rng, 4, 4, lo=-4, hi=4)
        assert ratmat.charpoly(a) == _charpoly_cofactor(a)


def _charpoly_fraction(a):
    """Reference: the Faddeev-LeVerrier recursion carried out over Fraction."""
    m = len(a)
    a = [[Fraction(x) for x in row] for row in a]
    coeffs = [Fraction(1)]
    work = identity(m)
    for k in range(1, m + 1):
        work = mat_mul(a, work)
        ck = -Fraction(sum(work[i][i] for i in range(m)), k)
        coeffs.append(ck)
        for i in range(m):
            work[i][i] += ck
    return coeffs


def test_charpoly_against_fraction_recursion():
    rng = random.Random(23)
    for dim in range(1, 13):
        for _ in range(2):
            a = [
                [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 5, 7, 9, 12]))
                 for _ in range(dim)]
                for _ in range(dim)
            ]
            assert ratmat.charpoly(a) == _charpoly_fraction(a)


def _charpoly_int(a):
    """Reference: the Faddeev-LeVerrier recursion in int on M = D A.

    N_0 = I, c_k = -tr(M N_(k-1)) / k, N_k = M N_(k-1) + c_k I; every
    division is exact, since the c_k are the coefficients of det(tI - M),
    and c_i(A) = c_i(M) / D^i.
    """
    m = len(a)
    den, ints = ratmat._cleared(a)
    cols = list(zip(*ints))
    coeffs = [1]
    work = [[int(i == j) for j in range(m)] for i in range(m)]
    for k in range(1, m + 1):
        work = [[sum(map(operator.mul, row, col)) for col in cols] for row in work]
        ck, rem = divmod(-sum(work[i][i] for i in range(m)), k)
        assert not rem
        coeffs.append(ck)
        for i in range(m):
            work[i][i] += ck
    return [Fraction(c, den**i) for i, c in enumerate(coeffs)]


@st.composite
def _square_matrix(draw):
    dim = draw(st.integers(1, 12))
    num = st.integers(-(2**70), 2**70) | st.integers(-9, 9)
    den = st.integers(1, 2**200) | st.sampled_from([1, 2, 3, 7, 2**64])
    entry = st.builds(Fraction, num, den) | st.integers(-50, 50) | st.just(0)
    rows = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                         min_size=dim, max_size=dim))
    for j in draw(st.lists(st.integers(0, dim - 1), max_size=2)):  # zero columns
        for row in rows:
            row[j] = 0
    return rows


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_square_matrix())
def test_charpoly_matches_the_fraction_recursion(a):
    assert ratmat.charpoly(a) == _charpoly_fraction(a)


def test_charpoly_skips_primes_that_divide_a_denominator():
    m = 6
    ceiling = math.isqrt((2**63 - 1) // m)
    first = [p for p in range(ceiling, ceiling - 2000, -1) if numeric._is_prime(p)][:3]
    rng = random.Random(41)
    den = math.prod(first)
    a = [[Fraction(rng.randint(-9, 9), rng.choice([1, den, first[0], first[2]]))
          for _ in range(m)] for _ in range(m)]
    _, bound = numeric._minor_bound(a)
    primes = numeric._primes(m, den, 2 * bound)
    assert not set(first) & set(primes) and primes[0] < first[-1]
    assert ratmat.charpoly(a) == _charpoly_int(a) == _charpoly_fraction(a)


def test_is_prime_against_trial_division():
    def trial(n):
        return all(n % d for d in range(3, math.isqrt(n) + 1, 2))

    windows = [range(21, 3000, 2), range(2**31 - 301, 2**31, 2),
               range(3 * 10**9 + 1, 3 * 10**9 + 301, 2)]
    for n in (n for window in windows for n in window):
        assert numeric._is_prime(n) == trial(n), n
    assert not numeric._is_prime(25326001)  # a strong pseudoprime to the bases 2, 3 and 5


def test_charpoly_of_a_triangular_matrix():
    rng = random.Random(43)
    diag = [Fraction(rng.randint(-30, 30), rng.randint(1, 2**90)) for _ in range(9)]
    a = [[diag[i] if i == j else Fraction(rng.randint(-9, 9), rng.randint(1, 99)) if j > i else 0
          for j in range(9)] for i in range(9)]
    want = [Fraction(1)]
    for d in diag:  # multiply by (t - d)
        want = [x - d * y for x, y in zip(want + [Fraction(0)], [Fraction(0)] + want)]
    assert ratmat.charpoly(a) == want


def test_charpoly_of_a_spectral_large_combination():
    # critvar gen --n 7 --k 3 --seed 5000, the first (7,3) instance of
    # spectral-large seed 5: joint_spectrum's combination, summed over the
    # Fraction operators
    from critvar.arrangement import random_generic, sample_z
    from critvar.quotient import QuotientAlgebra
    from critvar.spectrum import joint_spectrum

    rng = random.Random(5000)
    spec = random_generic(7, 3, rng)
    alg = QuotientAlgebra(spec, sample_z(spec, rng))
    ops = alg.operators()
    coeffs = joint_spectrum(alg, seed=5000).combination
    comb = [[sum(c * op[r][s] for c, op in zip(coeffs, ops))
             for s in range(alg.dim)] for r in range(alg.dim)]
    assert len(comb) == 20
    assert ratmat.charpoly(comb) == _charpoly_int(comb)


def test_charpoly_small():
    a = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]
    assert ratmat.charpoly(a) == [Fraction(1), Fraction(-5), Fraction(6)]
    ints = [[2, -1, 0], [4, 3, 5], [-7, 1, 1]]
    assert ratmat.charpoly(ints) == _charpoly_fraction(ints)
    assert ratmat.charpoly([[Fraction(-3, 7)]]) == [Fraction(1), Fraction(3, 7)]
    assert ratmat.charpoly(zeros(4, 4)) == [Fraction(1)] + [Fraction(0)] * 4
    with pytest.raises(UsageError):
        ratmat.charpoly([[Fraction(1), Fraction(2)]])


def _reduced(a):
    """The kernel's reduced row echelon form: each pivot row over its pivot."""
    ints, pivots, _ = ratmat._echelon(a)
    return [[Fraction(x, row[c]) for x in row] for row, c in zip(ints, pivots)] + [
        [Fraction(x) for x in row] for row in ints[len(pivots):]], pivots


def test_rref_idempotent():
    rng = random.Random(21)
    a = rand_mat(rng, 4, 6)
    red, piv = _reduced(a)
    assert (red, piv) == _rref(a)
    assert _reduced(red) == (red, piv)


def _inverse_by_rref(a):
    """Reference: Gauss-Jordan over Fraction on [A | I]."""
    m = len(a)
    red, pivots = _rref([list(row) + ident for row, ident in zip(a, identity(m))])
    if pivots != list(range(m)):
        raise DomainError("singular")
    return [row[m:] for row in red]


_ENTRY = (st.builds(Fraction, st.integers(-(2**70), 2**70) | st.integers(-9, 9),
                    st.integers(1, 2**200) | st.sampled_from([1, 2, 3, 7, 2**64]))
          | st.integers(-50, 50) | st.just(0))


@st.composite
def _matrix(draw, square=False):
    """Up to 12 x 14 int/Fraction matrices with zero rows and columns and dependent rows."""
    rows = draw(st.integers(0, 12))
    cols = rows if square else draw(st.integers(0, 14))
    mat = draw(st.lists(st.lists(_ENTRY, min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows))
    if not rows:
        return mat
    index = st.integers(0, rows - 1)
    for kind in draw(st.lists(st.sampled_from(["column", "row", "duplicate", "sum"]), max_size=2)):
        i, j, l = draw(index), draw(index), draw(index)
        if kind == "column" and cols:
            c = draw(st.integers(0, cols - 1))
            for row in mat:
                row[c] = 0
        elif kind == "row":
            mat[i] = [0] * cols
        elif kind == "duplicate":
            mat[i] = list(mat[j])
        elif kind == "sum":  # rank deficiency by a combination of two rows
            c = draw(_ENTRY)
            mat[i] = [c * x + y for x, y in zip(mat[j], mat[l])]
    return mat


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_matrix())
def test_rank_matches_the_fraction_rref(a):
    assert ratmat.rank(a) == len(_rref(a)[1])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_matrix(square=True))
def test_det_matches_the_fraction_reference(a):
    assert ratmat.det(a) == _det_fraction(a)


_NUMBER = st.floats(-1e3, 1e3, allow_subnormal=False) | st.complex_numbers(
    max_magnitude=1e3, allow_nan=False, allow_infinity=False) | st.integers(-9, 9)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda m: st.lists(
    st.lists(_NUMBER, min_size=m, max_size=m), min_size=m, max_size=m)))
def test_float_det_is_the_complex_lu(a):
    if all(isinstance(x, int) for row in a for x in row):
        a[0][0] = float(a[0][0])  # an exact matrix takes the other branch
    got = ratmat.det(a)
    assert isinstance(got, complex)
    assert got == _det_complex_lu(a)
