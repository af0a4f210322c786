"""Generators of the variety swept out by critical points.

Working on phase space C^n x C^n with coordinates z_1..z_n, p_1..p_n,
the critical set of the master function sum_j a_j log f_j(z, t) lands at
p_j = a_j / f_j.  Eliminating t leaves explicit Laurent-polynomial
equations, and this module builds them:

  first kind, one per (k-1)-subset I:
      F_I = sum_j d_{j,I} p_j                      (linear in p)

  second kind, one per (k+1)-subset J = (j_1 < .. < j_{k+1}):
      F_J = f_J(z) p_{j_1}..p_{j_{k+1}}
            + sum_m (-1)^m a_{j_m} d_{J minus j_m} prod_{l != m} p_{j_l}

  single G_j = z_j - a_j / p_j, and the combination over a (k+1)-subset
      G_J = sum_m (-1)^(m-1) d_{J minus j_m} G_{j_m},

with the factorization F_J = p_{j_1}..p_{j_{k+1}} G_J, so the two kinds
of degree-(k+1) generators cut out the same set away from p = 0.  Each
builder writes its term map straight from these formulas, with the signed
minors read from the instance's memo, no polynomial arithmetic and none
of the constructor's checks: every minor and weight is nonzero.

The first-kind family and the G_J family are in involution for the
canonical Poisson bracket, and the brackets vanish as polynomials, not
merely on the common zero set; the cross brackets {G_J, F_I} unwind to
exactly the quadratic minor relations.  involution_suite checks every
pair exactly and reports the offenders, if any; poisson keeps each
generator's gradient, so one used in many pairs is differentiated once.
build_relations keeps every generator and the Euler relation in one
RelationSet, whose all_vanish_at tests a point against all of them.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .arrangement import k_subsets
from .errors import UsageError
from .laurent import LaurentPoly, poisson, vanish_at

__all__ = [
    "first_kind",
    "second_kind",
    "g_single",
    "g_comb",
    "euler_relation",
    "RelationSet",
    "build_relations",
    "BracketReport",
    "involution_suite",
]


def _pkey(n, js):
    """The key of prod_{j in js} p_j, js increasing."""
    return tuple((n + j - 1, 1) for j in js)


def first_kind(spec, iset):
    """F_I for a (k-1)-subset I; the terms with j in I are d_{j,I} = 0."""
    iset = spec._check_subset(iset, spec.k - 1)
    n = spec.n
    return LaurentPoly._raw(n, {((n + j - 1, 1),): spec.plucker((j,) + iset)
                                for j in range(1, n + 1) if j not in iset})


def second_kind(spec, jset):
    """F_J for a (k+1)-subset J."""
    spec.require_rational_weights()
    jset = spec._check_subset(jset, spec.k + 1)
    n = spec.n
    coeffs = spec.discriminant_coeffs(jset)
    full = _pkey(n, jset)
    terms = {((j - 1, 1),) + full: d for j, d in coeffs}
    terms.update((_pkey(n, [l for l in jset if l != j]), -spec.a[j - 1] * d)
                 for j, d in coeffs)
    return LaurentPoly._raw(n, terms)


def g_single(spec, j):
    """G_j = z_j - a_j / p_j."""
    spec.require_rational_weights()
    if not 1 <= j <= spec.n:
        raise UsageError(f"hyperplane index {j} out of range 1..{spec.n}")
    n = spec.n
    terms = {((j - 1, 1),): Fraction(1), ((n + j - 1, -1),): -spec.a[j - 1]}
    return LaurentPoly._raw(n, terms)


def g_comb(spec, jset):
    """G_J = sum_m (-1)^(m-1) d_{J minus j_m} G_{j_m} over a (k+1)-subset."""
    coeffs = spec.discriminant_coeffs(jset)
    spec.require_rational_weights()
    n = spec.n
    terms = {((j - 1, 1),): c for j, c in coeffs}
    terms.update((((n + j - 1, -1),), -spec.a[j - 1] * c) for j, c in coeffs)
    return LaurentPoly._raw(n, terms)


def euler_relation(spec):
    """sum_j z_j p_j - sum_j a_j, which vanishes on the critical set."""
    spec.require_rational_weights()
    n = spec.n
    terms = {((j, 1), (n + j, 1)): Fraction(1) for j in range(n)}
    terms[()] = -spec.weight_total
    return LaurentPoly._raw(n, terms)


class RelationSet(namedtuple("RelationSet", "spec first second g euler")):
    """Every generator of one instance: first maps each (k-1)-subset I to F_I,
    second and g each (k+1)-subset J to F_J and G_J; euler is the Euler relation."""

    __slots__ = ()

    def all_vanish_at(self, z, p):
        """Exact membership test for a rational point (laurent.vanish_at): the first-
        and second-kind generators, then each G_J, then the Euler relation."""
        return vanish_at([*self.first.values(), *self.second.values(), *self.g.values(),
                          self.euler], z, p)


def build_relations(spec):
    first = {iset: first_kind(spec, iset) for iset in k_subsets(spec.n, spec.k - 1)}
    second = {}
    g = {}
    for jset in k_subsets(spec.n, spec.k + 1):
        second[jset] = second_kind(spec, jset)
        g[jset] = g_comb(spec, jset)
    return RelationSet(spec=spec, first=first, second=second, g=g, euler=euler_relation(spec))


class BracketReport(namedtuple("BracketReport", "pair_class left right residual")):
    """{left, right} of pair_class "FF", "GF" or "GG"; residual is their
    Poisson bracket, a LaurentPoly."""

    __slots__ = ()

    @property
    def ok(self):
        return self.residual.is_zero


def involution_suite(spec):
    """Poisson brackets of all pairs from the first-kind and G families.

    Returns one BracketReport per unordered pair (and per GF cross pair);
    every residual should be the zero polynomial.
    """
    rel = build_relations(spec)
    firsts = sorted(rel.first.items())
    gs = sorted(rel.g.items())
    out = []
    for idx, (iset, fi) in enumerate(firsts):
        for jset, fj in firsts[idx:]:
            out.append(BracketReport("FF", iset, jset, poisson(fi, fj)))
    for iset, gi in gs:
        for jset, fj in firsts:
            out.append(BracketReport("GF", iset, jset, poisson(gi, fj)))
    for idx, (iset, gi) in enumerate(gs):
        for jset, gj in gs[idx:]:
            out.append(BracketReport("GG", iset, jset, poisson(gi, gj)))
    return out
