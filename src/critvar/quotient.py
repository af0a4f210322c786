"""The finite-dimensional algebra of functions on one critical fiber.

Fix rational weights and a rational translation z off the discriminant.
The Laurent polynomials in p, taken modulo the first- and second-kind
generators specialized at z, form an algebra of dimension C(n-1, k).
A monomial basis: the products p_I over the k-subsets I of {1..n} that
avoid one chosen index j1 (the smallest hyperplane index by default).

Reduction to the basis is a terminating rewrite with three moves:

  * a repeated factor p_i is traded for fresh variables through a
    first-kind relation whose index set contains the rest of the support,
  * a squarefree product over k+1 indices J drops to k-fold products by
    the second-kind relation divided by the nonzero scalar f_J(z),
  * a k-fold product containing j1 sheds it through a first-kind relation
    again, landing on basis monomials.

Degrees below k climb with sum_j z_j p_j = |a|, so every monomial, and by
linearity every polynomial, has a normal form.  Multiplication by p_j then
becomes an exact rational matrix on the basis; these commuting operators
carry the whole structure, and their joint spectrum recovers the critical
points themselves (the numeric side of that lives in spectrum.py).

The module also realizes the singular-vector model: inside the big
coordinate space V with one axis v_I per k-subset I, the weighted
antisymmetrized sums cut out a subspace Sing V of the same dimension
C(n-1, k), and the map sending the class of d_I p_I to the orthogonal
projection of v_I (orthogonal for the diagonal form S with entries
prod_{i in I} a_i) is a well-defined isomorphism independent of which
k-subset represents it.  mu_consistency checks that exactly.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import ratmat
from .arrangement import _perm_sign, k_subsets, rat_str
from .errors import CritvarError, DomainError, UsageError
from .laurent import LaurentPoly

__all__ = [
    "eliminate_first_kind",
    "QuotientAlgebra",
    "first_kind_operator_residual",
    "second_kind_operator_residual",
    "euler_operator_residual",
    "weighted_sum_operator_residual",
    "commutator_residual",
    "unit_column",
    "unit_orbit",
]


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
    iprime = list(forbidden)
    cursor = 1
    while len(iprime) < spec.k - 1:
        if cursor != j and cursor not in iprime:
            iprime.append(cursor)
        cursor += 1
    iprime = tuple(sorted(iprime))
    pivot = spec.plucker((j,) + iprime)
    repl = {}
    for l in range(1, spec.n + 1):
        if l == j or l in iprime:
            continue
        repl[l] = -spec.plucker((l,) + iprime) / pivot
    return repl


def _signed_disc(spec, seq, z):
    """f on a sequence of k+1 distinct indices: sign of sorting times the form."""
    return _perm_sign(seq) * spec.discriminant_value(tuple(sorted(seq)), z)


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
        self.spec = spec
        self.z = z
        self.j1 = j1
        others = [i for i in range(1, spec.n + 1) if i != j1]
        self.basis = tuple(itertools.combinations(others, spec.k))
        self.index = {mono: r for r, mono in enumerate(self.basis)}
        self.dim = len(self.basis)
        assert self.dim == math.comb(spec.n - 1, spec.k)
        self.all_subsets = tuple(k_subsets(spec.n, spec.k))
        self.v_index = {key: r for r, key in enumerate(self.all_subsets)}
        self._ops = {}
        self._inv_ops = {}
        self._one = None
        self._sing = None
        self._gram_inv = None
        self._mu = None

    # -- rewriting to the monomial basis ------------------------------------

    def reduce_monomial(self, mono):
        """Coordinates of prod_{i in mono} p_i (repeats allowed) on the basis."""
        mono = tuple(sorted(mono))
        for i in mono:
            if not 1 <= i <= self.spec.n:
                raise UsageError(f"hyperplane index {i} out of range")
        out = [Fraction(0)] * self.dim
        work = {mono: Fraction(1)}
        steps = 0
        while work:
            steps += 1
            if steps > 200000:
                raise CritvarError("monomial rewrite exceeded its step budget")
            key, coeff = work.popitem()
            if coeff == 0:
                continue
            size = len(key)
            if size < self.spec.k:
                self._raise_degree(work, key, coeff)
            elif size > self.spec.k:
                support = sorted(set(key))
                if len(support) > self.spec.k:
                    self._drop_by_second_kind(work, key, coeff, support)
                else:
                    self._split_repeat(work, key, coeff, support)
            else:
                support = sorted(set(key))
                if len(support) < size:
                    self._split_repeat(work, key, coeff, support)
                elif self.j1 in key:
                    self._shed_j1(work, key, coeff)
                else:
                    out[self.index[key]] += coeff
        return out

    def _raise_degree(self, work, key, coeff):
        # 1 = (1/|a|) sum_j z_j p_j on the fiber
        atot = self.spec.weight_total
        for j in range(1, self.spec.n + 1):
            zj = self.z[j - 1]
            if zj:
                _bump(work, tuple(sorted(key + (j,))), coeff * zj / atot)

    def _drop_by_second_kind(self, work, key, coeff, support):
        jset = tuple(support[: self.spec.k + 1])
        rest = list(key)
        for j in jset:
            rest.remove(j)
        fj = self.spec.discriminant_value(jset, self.z)
        for m, j in enumerate(jset):
            others = jset[:m] + jset[m + 1 :]
            c = (-1) ** m * self.spec.a[j - 1] * self.spec.plucker(others) / fj
            _bump(work, tuple(sorted(rest + list(others))), coeff * c)

    def _split_repeat(self, work, key, coeff, support):
        i = next(v for v in support if key.count(v) > 1)
        shorter = list(key)
        shorter.remove(i)
        for l, c in eliminate_first_kind(
            self.spec, i, [s for s in support if s != i]
        ).items():
            _bump(work, tuple(sorted(shorter + [l])), coeff * c)

    def _shed_j1(self, work, key, coeff):
        shorter = [v for v in key if v != self.j1]
        for l, c in eliminate_first_kind(self.spec, self.j1, shorter).items():
            _bump(work, tuple(sorted(shorter + [l])), coeff * c)

    # -- multiplication operators --------------------------------------------

    def bethe_operator(self, j):
        """Matrix of multiplication by p_j on the basis (column per basis class)."""
        if not 1 <= j <= self.spec.n:
            raise UsageError(f"hyperplane index {j} out of range")
        if j not in self._ops:
            cols = [self.reduce_monomial(mono + (j,)) for mono in self.basis]
            self._ops[j] = [[cols[c][r] for c in range(self.dim)] for r in range(self.dim)]
        return self._ops[j]

    def operators(self):
        return [self.bethe_operator(j) for j in range(1, self.spec.n + 1)]

    def _op_power(self, j, e):
        if e >= 0:
            return _op_product(self, (j,) * e)
        if j not in self._inv_ops:
            self._inv_ops[j] = ratmat.inverse(self.bethe_operator(j))
        mat = ratmat.identity(self.dim)
        for _ in range(-e):
            mat = ratmat.mat_mul(mat, self._inv_ops[j])
        return mat

    def element_one(self):
        """Coordinates of the unit: the empty monomial, rewritten onto the basis."""
        if self._one is None:
            self._one = self.reduce_monomial(())
        return self._one

    def multiplication_matrix(self, poly):
        """P(K_1..K_n) for a Laurent polynomial in p alone (z already frozen)."""
        if not isinstance(poly, LaurentPoly) or poly.n != self.spec.n:
            raise UsageError("expected a Laurent polynomial on the same n variables")
        poly = poly.substitute_z(self.z)
        total = ratmat.zeros(self.dim, self.dim)
        for key, c in poly.terms.items():
            mat = ratmat.mat_scale(c, ratmat.identity(self.dim))
            for v, e in key:
                mat = ratmat.mat_mul(mat, self._op_power(v - self.spec.n + 1, e))
            total = ratmat.mat_add(total, mat)
        return total

    def normal_form(self, poly):
        """Basis coordinates of the class of an arbitrary Laurent polynomial."""
        return ratmat.mat_vec(self.multiplication_matrix(poly), self.element_one())

    def is_zero_class(self, poly):
        return all(c == 0 for c in self.normal_form(poly))

    # -- singular-vector model ------------------------------------------------

    def sing_constraints(self):
        """One row per (k-1)-subset: weighted antisymmetrized coordinate sums."""
        spec = self.spec
        rows = []
        for iprime in k_subsets(spec.n, spec.k - 1):
            row = [Fraction(0)] * len(self.all_subsets)
            for j in range(1, spec.n + 1):
                if j in iprime:
                    continue
                seq = (j,) + iprime
                row[self.v_index[tuple(sorted(seq))]] += _perm_sign(seq) * spec.a[j - 1]
            rows.append(row)
        return rows

    def sing_basis(self):
        if self._sing is None:
            self._sing = ratmat.nullspace(self.sing_constraints())
            if len(self._sing) != self.dim:
                raise DomainError(
                    f"singular subspace has dimension {len(self._sing)}, expected {self.dim}"
                )
        return self._sing

    def s_diagonal(self):
        """The symmetric form S in the v_I basis: diagonal with prod_{i in I} a_i."""
        return [math.prod(self.spec.a[i - 1] for i in key) for key in self.all_subsets]

    def s_perp(self, vec):
        """S-orthogonal projection of a vector of V onto the singular subspace."""
        if len(vec) != len(self.all_subsets):
            raise UsageError("vector does not live in the big coordinate space")
        basis = self.sing_basis()
        sdiag = self.s_diagonal()
        if self._gram_inv is None:
            gram = [
                [sum(br[i] * sdiag[i] * bc[i] for i in range(len(sdiag))) for bc in basis]
                for br in basis
            ]
            try:
                self._gram_inv = ratmat.inverse(gram)
            except DomainError:
                raise DomainError("the form S degenerates on the singular subspace") from None
        rhs = [sum(br[i] * sdiag[i] * vec[i] for i in range(len(sdiag))) for br in basis]
        coeffs = ratmat.mat_vec(self._gram_inv, rhs)
        out = [Fraction(0)] * len(vec)
        for c, bvec in zip(coeffs, basis):
            for i, x in enumerate(bvec):
                out[i] += c * x
        return out

    def mu_matrix(self):
        """Coordinates in V of the image of each basis class d_I p_I -> s_perp(v_I)."""
        if self._mu is None:
            cols = []
            for mono in self.basis:
                e = [Fraction(0)] * len(self.all_subsets)
                e[self.v_index[mono]] = Fraction(1)
                proj = self.s_perp(e)
                d = self.spec.plucker(mono)
                cols.append([x / d for x in proj])
            self._mu = [
                [cols[c][r] for c in range(self.dim)] for r in range(len(self.all_subsets))
            ]
        return self._mu

    def mu_consistency(self):
        """Subsets where the defining recipe disagrees with the reduced class.

        For every k-subset J the image of the class of p_J must be
        s_perp(v_J) / d_J no matter how J relates to the basis; an empty
        list certifies the map is well defined on all of V's axes.
        """
        mu = self.mu_matrix()
        bad = []
        for key in self.all_subsets:
            coords = self.reduce_monomial(key)
            lhs = ratmat.mat_vec(mu, coords)
            e = [Fraction(0)] * len(self.all_subsets)
            e[self.v_index[key]] = Fraction(1)
            d = self.spec.plucker(key)
            rhs = [x / d for x in self.s_perp(e)]
            if lhs != rhs:
                bad.append(key)
        return bad

    def mu_is_isomorphism(self):
        return ratmat.rank(self.mu_matrix()) == self.dim

    # -- serialization ----------------------------------------------------------

    def describe(self):
        return {
            "n": self.spec.n,
            "k": self.spec.k,
            "z": [rat_str(v) for v in self.z],
            "excluded_index": self.j1,
            "dim": self.dim,
            "basis": [list(mono) for mono in self.basis],
            "operators": {
                str(j): [[rat_str(x) for x in row] for row in self.bethe_operator(j)]
                for j in range(1, self.spec.n + 1)
            },
        }


def _bump(work, key, coeff):
    s = work.get(key, Fraction(0)) + coeff
    if s == 0:
        work.pop(key, None)
    else:
        work[key] = s


# -- identities the operators satisfy, as exact residual matrices -------------
#
# Each residual is P(K) start for a polynomial identity P; start=None stands
# for the identity matrix, so the residual is P(K) itself.


def unit_column(alg):
    """The unit element as an m x 1 block, the start the verify battery uses."""
    return [[x] for x in alg.element_one()]


def unit_orbit(alg):
    """W, with one column K_I u per basis monomial I, u the unit column.

    A certificate that the identities may be checked on u alone.  K_j is
    multiplication by p_j, so P(K) [1] = [P] for every polynomial P, and
    K_I u = [p_I] = e_I: W is the identity matrix.  When the K_j commute
    and W has full rank (u is cyclic), P(K) u = 0 gives
    P(K) K^alpha u = K^alpha P(K) u = 0 for every alpha; the K^alpha u
    span the algebra, so P(K) = 0.
    """
    start = unit_column(alg)
    cols = [_op_product(alg, mono, start) for mono in alg.basis]
    return [[col[r][0] for col in cols] for r in range(alg.dim)]


def first_kind_operator_residual(alg, iset, start=None):
    """(sum_j d_{j,I} K_j) start for a (k-1)-subset I; the zero matrix."""
    spec = alg.spec
    return _combination(alg, [(spec.plucker((j,) + tuple(iset)), (j,))
                              for j in range(1, spec.n + 1) if j not in iset], start)


def second_kind_operator_residual(alg, jset, start=None):
    """f_J(z) K_{j_1}..K_{j_{k+1}} minus its expansion into k-fold products, on start."""
    jset = tuple(sorted(jset))
    spec = alg.spec
    terms = [(spec.discriminant_value(jset, alg.z), jset)]
    for m, j in enumerate(jset):
        others = jset[:m] + jset[m + 1 :]
        terms.append((-((-1) ** m) * spec.a[j - 1] * spec.plucker(others), others))
    return _combination(alg, terms, start)


def euler_operator_residual(alg, start=None):
    """(sum_j z_j K_j - |a| id) start; the unit relation in operator form."""
    return _combination(alg, [(-alg.spec.weight_total, ())] + _euler_terms(alg), start)


def weighted_sum_operator_residual(alg, iset, start=None):
    """(sum_j z_j K_j - (1/d_I) sum_{j not in I} f_{(j,I)}(z) K_j) start, I a k-subset."""
    iset = tuple(sorted(iset))
    spec = alg.spec
    d = spec.plucker(iset)
    terms = _euler_terms(alg) + [
        (-_signed_disc(spec, (j,) + iset, alg.z) / d, (j,))
        for j in range(1, spec.n + 1) if j not in iset
    ]
    return _combination(alg, terms, start)


def commutator_residual(alg, i, j):
    ki, kj = alg.bethe_operator(i), alg.bethe_operator(j)
    return ratmat.mat_add(ratmat.mat_mul(ki, kj), ratmat.mat_scale(-1, ratmat.mat_mul(kj, ki)))


def _euler_terms(alg):
    return [(alg.z[j - 1], (j,)) for j in range(1, alg.spec.n + 1) if alg.z[j - 1]]


def _combination(alg, terms, start):
    """sum of c K_I start over the (c, I) in terms."""
    cols = alg.dim if start is None else len(start[0])
    total = ratmat.zeros(alg.dim, cols)
    for c, indices in terms:
        total = ratmat.mat_add(total, ratmat.mat_scale(c, _op_product(alg, indices, start)))
    return total


def _op_product(alg, indices, start=None):
    """K_{i_r}(..(K_{i_1} start)); start=None is the identity."""
    mat = start
    for i in indices:
        op = alg.bethe_operator(i)
        mat = op if mat is None else ratmat.mat_mul(op, mat)
    return ratmat.identity(alg.dim) if mat is None else mat
