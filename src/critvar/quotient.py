"""The finite-dimensional algebra of functions on one critical fiber.

Fix rational weights and a rational translation z off the discriminant.
The Laurent polynomials in p, taken modulo the first- and second-kind
generators specialized at z, form an algebra of dimension C(n-1, k).
A monomial basis: the products p_I over the k-subsets I of {1..n} that
avoid one chosen index j1 (the smallest hyperplane index by default).

Reduction to the basis is a rewrite with three moves:

  * one p_i, i the first repeated factor or else j1, is traded for fresh
    variables through a first-kind relation whose index set contains the
    rest of the support, so a k-fold product holding j1 lands on basis
    monomials,
  * a squarefree product over k+1 indices J drops to k-fold products by
    the second-kind relation divided by the nonzero scalar f_J(z),
  * p_j^-1 p_I, I a k-subset, is p_(I - j) when j is in I; otherwise the
    second-kind relation f_J(z) p_J = sum_(i in J) a_i c_i p_(J - i) on
    J = I u {j}, (i, c_i) the pairs of discriminant_coeffs(J), divided by
    p_j gives p_j^-1 p_I = (f_J(z) p_I - sum_(i in I) a_i c_i p_(I - i)) /
    (a_j c_j), and a_j c_j = +-a_j d_I is nonzero.

Degrees below k climb by one rule: sum_j z_j p_j = |a| on the fiber, and
for a k-subset I it is (1/d_I) sum_{j not in I} f_(j,I)(z) p_j, nonzero
terms off the discriminant.  With I the smallest k-subset holding the
monomial and j1, each new factor is fresh and not j1, so the unit climbs
straight onto basis monomials.  So every monomial, and by linearity every
polynomial, has a normal form.  Which move applies depends on the
monomial alone, and each move writes it as a fixed rational combination
of other monomials.  So the normal form of a monomial is that
combination of its children's normal forms, whatever order a worklist
would expand them in: the rewrite is linear and the arithmetic exact, so
sharing a child's normal form between its parents gives the same
Fractions as expanding it afresh under each (a worklist that skips a
monomial whose merged coefficient cancels to zero skips a zero term).
reduce_monomial is that recursion, memoised per algebra as a sparse
vector (den, {basis position: int}) in lowest terms per monomial, so the
dim * n products behind the operators share every intermediate monomial.
A monomial met again while its own children are being reduced would make
the rewrite cycle; that raises DomainError naming it.  Every sum of such
vectors, here and below, is one _lincomb: the terms over the lcm of their
denominators, the gcd divided out.

Multiplication by p_j then becomes an exact rational matrix K_j on the
basis; these commuting operators carry the whole structure, and their
joint spectrum recovers the critical points themselves (the numeric side
of that lives in spectrum.py).  Each is stored once, as its columns
(columns): column c is the memoised normal form of p_j p_I, I basis
class c, with no copy and no rescaling, and K_j^-1 is read off the
normal forms of p_j^-1 p_I the same way, with no matrix inverted.  K_j
applied to a sparse vector (_apply) is a _lincomb of its columns, and
bethe_operator is a Fraction view.  The unit u is the normal form of the
empty monomial.  Two certificates from u have one job each.  A certified
K_c (cyclic_operator) makes the operators commute once the n-1
commutators with it vanish (commutator_residual, column by column).
K_I u = e_I for every basis monomial I makes P(K) = 0 follow from
P(K) u = 0 on commuting operators: P(K) e_I = K_I P(K) u.

A Laurent polynomial in p is evaluated on the operators in one way only:
its terms become (c, indices) pairs, unmerged, the z powers taken into c
and an index -j standing for K_j^-1, and _combination sums c K_I over
them, applied to the identity or (on_unit) to the unit u, one _lincomb
per start column (a repeated I is one table entry, a zero c is skipped).
The orbit-table entry for I is K_I applied to the start, a list of
sparse vectors: K_j applied to the entry one index shorter.  The two
tables are kept per algebra, keyed by on_unit.  multiplication_matrix,
normal_form (on the unit) and the operator forms of the first-kind,
second-kind and Euler relations, taken straight from relations.py, all
go through it.  relations.py and laurent.py are imported by the
functions that read them, so the algebra and its operators load neither.

The module also realizes the singular-vector model.  V has one axis e_I
per k-subset I, and Sing V is the kernel of the contraction iota_a e_J =
sum_m (-1)^m a_(j_m) e_(J - j_m), j_0 < j_1 < .. the elements of J.  The
spec refuses a zero weight and |a| = 0, so three theorems hold:

  * Sing V has the basis b_I = iota_a(e_1 ^ e_I) / a_1 = e_I + sum_m
    (-1)^(m+1) (a_(i_m) / a_1) e_({1} u I - i_m), one per k-subset I
    avoiding 1 (a_1 != 0).  iota_a^2 = 0 puts b_I in the kernel; a kernel
    vector minus its b_I parts is e_1 ^ y, y free of 1, and the part of
    iota_a(e_1 ^ y) free of 1 is a_1 y, so y = 0.
  * The diagonal form S, prod_(i in I) a_i, is nondegenerate on Sing V
    (|a| != 0): iota_a is S-adjoint to eps ^, eps = sum_j e_j, so Sing V's
    S-complement is the image of eps ^; iota_a(eps ^ y) + eps ^ iota_a y
    = |a| y, so eps ^ y in Sing V gives |a| y = eps ^ iota_a y and
    eps ^ y = 0.  It is the contravariant form of Schechtman & Varchenko
    (Invent. Math. 106, 1991).
  * No x != 0 in Sing V has (S x)_J = 0 on every k-subset J avoiding j1,
    so mu_is_isomorphism, the rank of the rows b_I^T S on those axes,
    cannot fail: S is diagonal and nonsingular, so x_J = 0 there and
    x = e_j1 ^ y, y free of j1; the part of iota_a x free of j1 is a_j1 y,
    so y = 0.

So G = B^T S B, B the b_I as columns, is invertible, and the map sending
the class of d_I p_I to the S-orthogonal projection P e_I is a
well-defined isomorphism independent of which k-subset represents it.
P = B G^-1 B^T S is never built: B G^-1 is injective, so P x = 0 exactly
when B^T S x = 0, and the map is decided on Y = B^T S D^-1, D = diag(d_J).
B^T S has no weight in it: b_I puts (-1)^(m+1) a_(i_m) / a_1 on the axis
{1} u I - i_m, where S is a_1 S_I / a_(i_m), so row I of B^T S is S_I (e_I
+ sum_m (-1)^(m+1) e_({1} u I - i_m)), k+1 entries +-1 times S_I.  Both
tests below are homogeneous in each row of Y, so they run on the signed
rows against the int normal forms of the p_J: dropping the scale S_I
(negative for some weights) changes neither verdict.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import ratmat
from .arrangement import _perm_sign, k_subsets
from .errors import DomainError, UsageError

__all__ = [
    "eliminate_first_kind",
    "QuotientAlgebra",
    "first_kind_operator_residual",
    "second_kind_operator_residual",
    "euler_operator_residual",
    "weighted_sum_operator_residual",
    "commutator_residual",
    "cyclic_operator",
]


_ZERO = Fraction(0)  # shared by every zero coordinate; Fractions are immutable
_PRIME = 2**31 - 1  # of the cyclic certificate; any prime serves an integer matrix


def eliminate_first_kind(spec, j, forbidden=()):
    """Express p_j through variables outside `forbidden`, as {l: coefficient}.

    Uses the first-kind relation on the lexicographically smallest
    (k-1)-subset I' that contains `forbidden` and avoids j; the relation
    solved for p_j involves only indices outside I' u {j}.  Needs
    len(forbidden) <= k-1, which holds everywhere the rewrite calls it.
    """
    forbidden = sorted(set(forbidden))
    if j in forbidden:
        raise UsageError(f"cannot forbid the index {j} being eliminated")
    if len(forbidden) > spec.k - 1:
        raise UsageError(
            f"forbidden set {forbidden} too large for a (k-1)-subset, k={spec.k}"
        )
    iprime = _smallest_subset(spec.n, spec.k - 1, forbidden, j)
    pivot = spec.plucker((j,) + iprime)
    return {l: -spec.plucker((l,) + iprime) / pivot
            for l in range(1, spec.n + 1) if l != j and l not in iprime}


def _smallest_subset(n, size, held, avoid=None):
    """The lexicographically smallest size-subset of 1..n holding `held`, avoiding `avoid`."""
    free = [i for i in range(1, n + 1) if i != avoid and i not in held]
    return tuple(sorted([*held, *free[: size - len(held)]]))


def _weighted_sum(spec, iset, z):
    """(f_(j,I)(z) / d_I, j) for j outside the k-subset I: sum_j z_j p_j on the fiber."""
    d = spec.plucker(iset)
    return [(_perm_sign(seq) * spec.discriminant_value(tuple(sorted(seq)), z) / d, seq[0])
            for seq in ((j,) + iset for j in range(1, spec.n + 1) if j not in iset)]


class QuotientAlgebra:
    """Exact model of the critical-fiber algebra at one rational z."""

    def __init__(self, spec, z, j1=1):
        spec.require_rational_weights()
        if len(z) != spec.n:
            raise UsageError("z has wrong length")
        z = tuple(Fraction(v) for v in z)
        if not spec.is_off_discriminant(z):
            raise DomainError("z lies on the discriminant; the fiber degenerates")
        if not 1 <= j1 <= spec.n:
            raise UsageError(f"j1 must be a hyperplane index, got {j1}")
        self.spec, self.z, self.j1 = spec, z, j1
        others = [i for i in range(1, spec.n + 1) if i != j1]
        self.basis = tuple(itertools.combinations(others, spec.k))
        self.index = {mono: r for r, mono in enumerate(self.basis)}
        self.dim = len(self.basis)
        assert self.dim == math.comb(spec.n - 1, spec.k)
        self.all_subsets = tuple(k_subsets(spec.n, spec.k))
        self._nf, self._cols, self._orbits = {}, {}, {}
        self._rows = None

    # -- rewriting to the monomial basis ------------------------------------

    def reduce_monomial(self, mono):
        """Coordinates of prod_{i in mono} p_i (repeats allowed) on the basis."""
        mono = tuple(sorted(mono))
        for i in mono:
            if not 1 <= i <= self.spec.n:
                raise UsageError(f"hyperplane index {i} out of range")
        return [row[0] for row in _fractions([self._normal_form(mono)], self.dim)]

    def _normal_form(self, key):
        """(den, {basis position: int}) of a sorted monomial, its children combined.

        Memoised per algebra; a key stays marked None while its children
        are being reduced, so meeting it again means the rewrite cycles.
        """
        memo = self._nf
        if key in memo:
            if memo[key] is None:
                raise DomainError(f"the monomial rewrite returns to p{list(key)}, "
                                  "so it cannot terminate on this instance")
            return memo[key]
        memo[key] = None
        try:
            terms = [(c, self._normal_form(child)) for c, child in self._move(key)]
        except BaseException:
            del memo[key]
            raise
        memo[key] = _lincomb(terms) if terms else (1, {self.index[key]: 1})  # a basis monomial
        return memo[key]

    def _move(self, key):
        """One rewrite step on a sorted monomial: (coefficient, monomial) pairs.

        Empty exactly on the basis monomials.  A key's one negative index
        -j, sorted in front, stands for p_j^-1.
        """
        k = self.spec.k
        if key and key[0] < 0:
            return self._divide(key)
        support = sorted(set(key))
        if len(key) < k:
            return self._raise_degree(key)
        if len(support) > k:
            return self._drop_by_second_kind(key, support)
        i = next((v for v in support if key.count(v) > 1), self.j1)
        return self._eliminate(key, i, support) if i in key else []

    def _raise_degree(self, key):
        # 1 = sum_{j not in I} f_(j,I)(z) / (d_I |a|) p_j, I holding key and j1
        iset = _smallest_subset(self.spec.n, self.spec.k, {*key, self.j1})
        atot = self.spec.weight_total
        return [(c / atot, tuple(sorted(key + (j,))))
                for c, j in _weighted_sum(self.spec, iset, self.z)]

    def _drop_by_second_kind(self, key, support):
        jset = tuple(support[: self.spec.k + 1])
        rest = list(key)
        for j in jset:
            rest.remove(j)
        fj = self.spec.discriminant_value(jset, self.z)
        return [(self.spec.a[j - 1] * d / fj,
                 tuple(sorted(rest + [v for v in jset if v != j])))
                for j, d in self.spec.discriminant_coeffs(jset)]

    def _divide(self, key):
        # p_j^-1 p_I: p_(I - j), or the second-kind relation on I u {j} over p_j
        j, rest = -key[0], key[1:]
        if j in rest:
            return [(Fraction(1), tuple(v for v in rest if v != j))]
        jset = tuple(sorted(rest + (j,)))
        terms = {i: self.spec.a[i - 1] * c for i, c in self.spec.discriminant_coeffs(jset)}
        pivot = terms.pop(j)
        return [(self.spec.discriminant_value(jset, self.z) / pivot, rest)] + [
            (-t / pivot, tuple(v for v in rest if v != i)) for i, t in terms.items()]

    def _eliminate(self, key, i, support):
        # one p_i for fresh variables, off the rest of the support (first kind)
        shorter = list(key)
        shorter.remove(i)
        repl = eliminate_first_kind(self.spec, i, [s for s in support if s != i])
        return [(c, tuple(sorted(shorter + [l]))) for l, c in repl.items()]

    # -- multiplication operators --------------------------------------------

    def columns(self, j):
        """K_j as its columns, cached; j < 0 gives K_|j|^-1 (p_j is a unit).

        Column c is the normal form (den, {row: int}) of p_j p_I, I basis
        class c (of p_|j|^-1 p_I for j < 0), shared with the rewrite's memo:
        replace a column, never change one in place.
        """
        if not 1 <= abs(j) <= self.spec.n:
            raise UsageError(f"hyperplane index {j} out of range")
        if j not in self._cols:
            self._cols[j] = [self._normal_form(tuple(sorted(mono + (j,)))) for mono in self.basis]
        return self._cols[j]

    def bethe_operator(self, j):
        """Matrix of multiplication by p_j on the basis: a fresh Fraction view of columns(j)."""
        if j < 1:
            raise UsageError(f"hyperplane index {j} out of range")
        return _fractions(self.columns(j), self.dim)

    def operators(self):
        return [self.bethe_operator(j) for j in range(1, self.spec.n + 1)]

    def multiplication_matrix(self, poly):
        """P(K_1..K_n) for a Laurent polynomial in p alone (z already frozen)."""
        return _combination(self, _poly_terms(self, poly), False)

    def normal_form(self, poly):
        """Basis coordinates of the class of an arbitrary Laurent polynomial."""
        return [row[0] for row in _combination(self, _poly_terms(self, poly), True)]

    # -- singular-vector model ------------------------------------------------

    def _special_rows(self):
        """Row I of B^T S over S_I, I avoiding 1 in lex order, as {axis: +-1}; cached.

        The closed form of the module docstring, which reads no weight.  No
        rank of G is taken: it is invertible on every instance.
        """
        if self._rows is None:
            sets = itertools.combinations(range(2, self.spec.n + 1), self.spec.k)
            self._rows = [{iset: 1} | {(1, *iset[:m], *iset[m + 1:]): (-1) ** (m + 1)
                                       for m in range(len(iset))} for iset in sets]
        return self._rows

    def mu_consistency(self):
        """Subsets where the defining recipe disagrees with the reduced class.

        For every k-subset J the image of the class of p_J must be P v_J / d_J
        however J relates to the basis: with R holding the reduced p_J as
        columns, column J of P D^-1 must equal column J of P_basis D_basis^-1 R,
        that is column J of Y must equal column J of Y_basis R.  In int, with
        T the signed rows, p_J = sum_I (c_I / e) p_I, each minor d = u / v and
        L the lcm of the u_I, entry i reads (sum_I T_iI c_I v_I L / u_I) u_J =
        T_iJ L e v_J, both sides zero off the rows touching J or an I with
        c_I != 0.  An empty list certifies the map is well defined on V's axes.
        """
        touching = {key: [] for key in self.all_subsets}
        for i, row in enumerate(self._special_rows()):
            for axis, t in row.items():
                touching[axis].append((i, t))
        minors = [self.spec.plucker(key) for key in self.basis]
        bad = []
        for key in self.all_subsets:
            e, coords = self._normal_form(key)
            lcm = math.lcm(*(minors[r].numerator for r in coords))
            dj = self.spec.plucker(key)
            sides = {i: -t * lcm * e * dj.denominator for i, t in touching[key]}
            for r, x in coords.items():
                m = x * minors[r].denominator * (lcm // minors[r].numerator) * dj.numerator
                for i, t in touching[self.basis[r]]:
                    sides[i] = sides.get(i, 0) + t * m
            if any(sides.values()):
                bad.append(key)
        return bad

    def mu_is_isomorphism(self):
        """Full rank: B G^-1 Y_basis has the rank of Y_basis, so of the rows on the basis axes."""
        return ratmat.rank([[row.get(key, 0) for key in self.basis]
                            for row in self._special_rows()]) == self.dim


# -- identities the operators satisfy, as exact residual matrices -------------
#
# Each residual is P(K) for a polynomial identity P, or P(K) u on_unit.


def first_kind_operator_residual(alg, iset, on_unit=False):
    """sum_j d_{j,I} K_j for a (k-1)-subset I; the zero matrix."""
    from . import relations
    poly = relations.first_kind(alg.spec, tuple(sorted(iset)))
    return _combination(alg, _poly_terms(alg, poly), on_unit)


def second_kind_operator_residual(alg, jset, on_unit=False):
    """f_J(z) K_{j_1}..K_{j_{k+1}} minus its expansion into k-fold products."""
    from . import relations
    poly = relations.second_kind(alg.spec, tuple(sorted(jset)))
    return _combination(alg, _poly_terms(alg, poly), on_unit)


def euler_operator_residual(alg, on_unit=False):
    """sum_j z_j K_j - |a| id; the unit relation in operator form."""
    from . import relations
    return _combination(alg, _poly_terms(alg, relations.euler_relation(alg.spec)), on_unit)


def weighted_sum_operator_residual(alg, iset, on_unit=False):
    """sum_j (z_j - f_{(j,I)}(z) / d_I) K_j, f_{(j,I)} = 0 for j in I, I a k-subset."""
    ws = {j: c for c, j in _weighted_sum(alg.spec, tuple(sorted(iset)), alg.z)}
    return _combination(alg, [(zj - ws.get(j, 0), (j,)) for j, zj in enumerate(alg.z, start=1)],
                        on_unit)


def cyclic_operator(alg):
    """(c, p) for the first K_c certified cyclic from u modulo the prime p, else (None, None).

    With A_c = D_c K_c in int (D_c the lcm of its column denominators), u
    the unit's cleared numerators and w fixed (Lehmer's generator from seed
    1, w_r = 48271^(r+1) mod p), sparse products on one vector mod p give
    s_i = w A_c^i u mod p for i < 2m.  A relation sum_(i<m) g_i A_c^i u = 0
    mod p gives sum_i g_i s_(i+j) = 0 for every j, a recurrence of order
    below m, and Berlekamp-Massey on 2m terms (_minimal_polynomial; Massey,
    IEEE Trans. Inf. Theory 15, 1969) finds the least one.  So degree m
    makes u, A_c u, .., A_c^(m-1) u independent mod p, hence an integer
    determinant is nonzero: the K_c^i u span Q^m, so K_c is cyclic.  What
    commutes with a cyclic matrix is a polynomial in it (Horn & Johnson,
    Matrix Analysis, 2nd ed., 3.2.4), so [K_c, K_j] = 0 for every j makes
    all pairs commute.  A lower degree (K_c derogatory, or an unlucky w)
    proves nothing; the next c is tried.
    """
    p, m = _PRIME, alg.dim
    unit = alg._normal_form(())[1]
    w = [pow(48271, r + 1, p) for r in range(m)]
    for c in range(1, alg.spec.n + 1):
        cols = alg.columns(c)
        den = math.lcm(*(d for d, _ in cols))
        op = [[(r, x * (den // d) % p) for r, x in coords.items()] for d, coords in cols]
        vec, seq = [unit.get(r, 0) % p for r in range(m)], []
        for _ in range(2 * m):
            seq.append(sum(x * y for x, y in zip(w, vec)) % p)
            nxt = [0] * m
            for x, col in zip(vec, op):
                for r, y in col:
                    nxt[r] += x * y
            vec = [x % p for x in nxt]
        if len(_minimal_polynomial(seq, p)) > m:
            return c, p
    return None, None


def _minimal_polynomial(seq, p):
    """Berlekamp-Massey: [1, c_1, .., c_L], L least with sum_j c_j s_(i-j) = 0 mod p, L <= i."""
    poly, prev, length, shift, last = [1], [1], 0, 1, 1
    for i in range(len(seq)):
        d = sum(x * y for x, y in zip(poly, seq[i::-1])) % p
        if d:
            new, f = poly + [0] * (len(prev) + shift - len(poly)), d * pow(last, -1, p)
            for j, x in enumerate(prev):
                new[j + shift] = (new[j + shift] - f * x) % p
            if 2 * length <= i:
                length, prev, last, shift = i + 1 - length, poly, d, 0
            poly = new
        shift += 1
    return (poly + [0] * length)[:length + 1]


def commutator_residual(alg, i, j):
    """K_i K_j - K_j K_i, column c the _lincomb of K_i (K_j)_c and -K_j (K_i)_c."""
    cols_i, cols_j = alg.columns(i), alg.columns(j)
    return _fractions([_lincomb([(1, _apply(cols_i, col_j)), (-1, _apply(cols_j, col_i))])
                       for col_i, col_j in zip(cols_i, cols_j)], alg.dim)


def _lincomb(terms, den=1):
    """sum of c v / den over the (c, v) in terms, v = (d, {row: int}), in lowest terms.

    c is an int or a Fraction, den a positive int; the zero vector is (1, {}).
    """
    terms = [(c, d, coords) for c, (d, coords) in terms if c]
    lcm = math.lcm(*(c.denominator * d for c, d, _ in terms))
    acc = {}
    for c, d, coords in terms:
        scale = c.numerator * (lcm // (c.denominator * d))
        for r, x in coords.items():
            acc[r] = acc.get(r, 0) + scale * x
    acc = {r: x for r, x in acc.items() if x}
    g = math.gcd(lcm * den, *acc.values())
    return lcm * den // g, {r: x // g for r, x in acc.items()}


def _apply(cols, vec):
    """K vec in lowest terms, K given by its columns and vec = (den, {row: int})."""
    den, coords = vec
    return _lincomb([(x, cols[r]) for r, x in coords.items()], den)


def _fractions(cols, dim):
    """The dim-row Fraction matrix whose columns are the sparse vectors cols."""
    out = [[_ZERO] * len(cols) for _ in range(dim)]
    for c, (d, coords) in enumerate(cols):
        for r, x in coords.items():
            out[r][c] = Fraction(x, d)
    return out


def _poly_terms(alg, poly):
    """(c, indices) for each term of a Laurent polynomial, its z powers in c; index -j is K_j^-1."""
    from .laurent import LaurentPoly
    n, terms = alg.spec.n, []
    if not isinstance(poly, LaurentPoly) or poly.n != n:
        raise UsageError("expected a Laurent polynomial on the same n variables")
    for key, c in poly.terms.items():
        indices = ()
        for v, e in key:
            if v >= n:  # p_j has variable id n + j - 1
                indices += (v - n + 1 if e > 0 else n - 1 - v,) * abs(e)
            elif e < 0 and not alg.z[v]:
                raise DomainError(f"pole: z_{v + 1} is 0 with exponent {e}")
            else:
                c *= alg.z[v] ** e
        terms.append((c, indices))
    return terms


def _combination(alg, terms, on_unit):
    """sum of c K_I (applied to u on_unit) over the (c, I) in terms, a _lincomb per column."""
    table = _orbit_table(alg, on_unit)
    entries = [(c, _orbit_entry(alg, table, indices)) for c, indices in terms]
    return _fractions([_lincomb([(c, entry[s]) for c, entry in entries])
                       for s in range(len(table[()]))], alg.dim)


def _orbit_table(alg, on_unit):
    """index tuple -> sparse columns of K_I applied to u or to the identity, per algebra."""
    if on_unit not in alg._orbits:
        start = [alg._normal_form(())] if on_unit else [(1, {c: 1}) for c in range(alg.dim)]
        alg._orbits[on_unit] = {(): start}
    return alg._orbits[on_unit]


def _orbit_entry(alg, table, indices):
    """The entry for I: K_{i_r} applied to each column of the entry for I minus i_r."""
    if indices not in table:
        cols = alg.columns(indices[-1])
        table[indices] = [_apply(cols, vec) for vec in _orbit_entry(alg, table, indices[:-1])]
    return table[indices]
