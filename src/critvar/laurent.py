"""Exact Laurent polynomials on phase space, as the relation layer reads them.

Polynomials live in the 2n variables z_1..z_n, p_1..p_n with rational
coefficients and integer (possibly negative) exponents, so 1/p_j is an
ordinary monomial and no rational-function engine is needed.  Internally a
variable is an id in 0..2n-1: id j-1 is z_j, id n+j-1 is p_j.  A term is a
sorted tuple of (id, exponent) pairs with nonzero exponents; the term map
never stores a zero coefficient, which makes equality a plain dict compare.

There is no ring arithmetic: the relation builders write each generator's
term map from its formula, and what the library does with a polynomial is
bracket it (poisson), evaluate it, test it for zero at a rational point
(vanish_at) and print it (to_text).

Values are immutable, so a polynomial may keep tables of itself, which
nothing can make stale: its coefficients as integers over their common
denominator, read by every vanish_at call, and its gradient, var id ->
[(key, int coefficient)] over that denominator, built by the first
bracket taken of it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, UsageError

__all__ = ["LaurentPoly", "poisson", "vanish_at"]


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise UsageError(f"coefficients must be exact rationals, got {type(c).__name__}")


class LaurentPoly:
    __slots__ = ("n", "terms", "_grad", "_ints")

    def __init__(self, n, terms=None):
        """`terms` maps sorted ((var_id, exp), ...) tuples to rational coefficients."""
        if n < 1:
            raise UsageError("need at least one hyperplane variable pair")
        self.n = n
        clean = {}
        for key, coeff in (terms or {}).items():
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            key = tuple(sorted((v, e) for v, e in key if e != 0))
            for v, _ in key:
                if not 0 <= v < 2 * n:
                    raise UsageError(f"variable id {v} out of range for n={n}")
            clean[key] = clean.get(key, Fraction(0)) + coeff
        self.terms = {k: c for k, c in clean.items() if c != 0}
        self._grad = self._ints = None

    @classmethod
    def _raw(cls, n, terms):
        """A polynomial on a canonical term map (nonzero Fractions, sorted keys), unchecked."""
        p = object.__new__(cls)
        p.n, p.terms, p._grad, p._ints = n, terms, None, None
        return p

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.n == other.n and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == ({(): other} if other else {})
        return NotImplemented

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    @property
    def is_zero(self):
        return not self.terms

    # -- integer tables ----------------------------------------------------

    def _numerators(self):
        """(D, [(key, int c)]): the polynomial as sum (c / D) x^key, D the lcm; cached."""
        if self._ints is None:
            den = math.lcm(*(c.denominator for c in self.terms.values()))
            self._ints = den, [(key, c.numerator * (den // c.denominator))
                               for key, c in self.terms.items()]
        return self._ints

    def _gradient(self):
        """(D, {var id: [(key, int c)]}): each partial as sum (c / D) x^key, D the lcm."""
        if self._grad is None:
            den, nums = self._numerators()
            grad = {}
            for key, num in nums:
                for idx, (v, e) in enumerate(key):
                    rest = key[idx + 1 :] if e == 1 else ((v, e - 1),) + key[idx + 1 :]
                    grad.setdefault(v, []).append((key[:idx] + rest, e * num))
            self._grad = (den, grad)
        return self._grad

    # -- evaluation --------------------------------------------------------

    def evaluate(self, zvals, pvals):
        """Evaluate at a point; exact when the inputs are Fractions.

        Raises DomainError when a negative exponent meets a zero coordinate.
        """
        if len(zvals) != self.n or len(pvals) != self.n:
            raise UsageError("point dimension does not match variable count")
        vals = tuple(zvals) + tuple(pvals)
        total = None
        for key, c in self.terms.items():
            factor = c
            for v, e in key:
                base = vals[v]
                if base == 0:
                    if e < 0:
                        raise DomainError(f"pole: variable id {v} is 0 with exponent {e}")
                    factor = 0 * factor
                    break
                factor = factor * base ** e
            total = factor if total is None else total + factor
        if total is None:
            return Fraction(0) if all(isinstance(v, (int, Fraction)) for v in vals) else 0j
        return total

    # -- canonical text ----------------------------------------------------

    def _dense(self, key):
        vec = [0] * (2 * self.n)
        for v, e in key:
            vec[v] = e
        return tuple(vec)

    def sorted_terms(self):
        """Terms in canonical order: graded lexicographic, z_1<..<z_n<p_1<..<p_n, leading first."""
        return sorted(
            self.terms.items(),
            key=lambda item: (sum(e for _, e in item[0]), self._dense(item[0])),
            reverse=True,
        )

    def to_text(self):
        """Canonical serialization used in reports and golden files."""
        if not self.terms:
            return "0"
        parts = []
        for key, c in self.sorted_terms():
            tokens = [f"{c.numerator}/{c.denominator}"]
            for v, e in key:
                name = f"z{v + 1}" if v < self.n else f"p{v - self.n + 1}"
                tokens.append(name if e == 1 else f"{name}^{e}")
            parts.append("*".join(tokens))
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentPoly(n={self.n}, {self.to_text()})"


def _key_product(k1, k2):
    """The key of the product of two monomials."""
    if not k1 or not k2:
        return k1 or k2
    merged = dict(k1)
    for v, e in k2:
        s = merged.get(v, 0) + e
        if s == 0:
            del merged[v]
        else:
            merged[v] = s
    return tuple(sorted(merged.items()))


def vanish_at(polys, zvals, pvals):
    """True when every polynomial is exactly 0 at a rational point; stops at the first not.

    One power table per point maps (var_id, exp) to x^exp as an integer
    pair (top, bottom).  A term is its integer numerator (_numerators,
    kept by the polynomial) times its pairs' product, dropped at the first
    zero coordinate in its key or raising DomainError there at a pole, as
    evaluate does; a polynomial vanishes iff the integer sum of the tops
    over the lcm of the bottoms does.
    """
    vals = [_as_fraction(v) for v in (*zvals, *pvals)]
    table = {}
    for poly in polys:
        if len(zvals) != poly.n or len(pvals) != poly.n:
            raise UsageError("point dimension does not match variable count")
        sums = {}  # bottom -> summed tops
        for key, top in poly._numerators()[1]:
            bottom = 1
            for pair in key:
                entry = table.get(pair)
                if entry is None:
                    x, e = vals[pair[0]], pair[1]
                    entry = table[pair] = ((x.numerator ** e, x.denominator ** e) if e > 0
                                           else (x.denominator ** -e, x.numerator ** -e))
                num, den = entry
                if not den:
                    raise DomainError(f"pole: variable id {pair[0]} is 0 with exponent {pair[1]}")
                top, bottom = top * num, bottom * den
                if not num:
                    break
            sums[bottom] = sums.get(bottom, 0) + top
        common = math.lcm(*sums)
        if sum(t * (common // b) for b, t in sums.items()):
            return False
    return True


def poisson(m, other):
    """Canonical Poisson bracket {M,N} = sum_j (dM/dz_j dN/dp_j - dM/dp_j dN/dz_j).

    One pass over the two cached gradient tables, summing integers over D_M D_N;
    only the terms that survive become Fractions.
    """
    if not isinstance(m, LaurentPoly) or not isinstance(other, LaurentPoly):
        raise UsageError("poisson bracket needs two Laurent polynomials")
    if m.n != other.n:
        raise UsageError(f"variable counts differ: n={m.n} vs n={other.n}")
    n = m.n
    den_m, grad_m = m._gradient()
    den_o, grad_o = other._gradient()
    acc = {}
    for v, left in grad_m.items():
        # z_j pairs with p_j at a plus sign, p_j with z_j at a minus sign
        right = grad_o.get(v + n if v < n else v - n)
        if right is None:
            continue
        sign = 1 if v < n else -1
        for k1, c1 in left:
            c1 *= sign
            for k2, c2 in right:
                key = _key_product(k1, k2)
                acc[key] = acc.get(key, 0) + c1 * c2
    den = den_m * den_o
    return m._raw(n, {key: Fraction(c, den) for key, c in acc.items() if c})
