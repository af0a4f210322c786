"""Reference ring arithmetic on Laurent polynomials, for the tests only.

The library has no polynomial ring: relations.py writes term maps from
formulas and laurent.poisson brackets cached integer partials.  These
helpers add and multiply plain term maps, sorted ((var id, exp), ...) keys
to coefficients, and hand the result to the validating constructor, which
drops zero exponents and zero coefficients.  They share no code with
laurent.py, so they stay an independent reference.  A scalar argument
stands for the constant polynomial.
"""

from fractions import Fraction

from critvar.laurent import LaurentPoly


def const(n, c):
    return LaurentPoly(n, {(): Fraction(c)})


def zvar(n, j, exp=1):
    """The monomial z_j^exp, j in 1..n."""
    return LaurentPoly(n, {((j - 1, exp),): 1})


def pvar(n, j, exp=1):
    """The monomial p_j^exp, j in 1..n."""
    return LaurentPoly(n, {((n + j - 1, exp),): 1})


def _terms(x):
    return x.terms if isinstance(x, LaurentPoly) else {(): Fraction(x)}


def _n(args):
    (n,) = {x.n for x in args if isinstance(x, LaurentPoly)}  # one variable count
    return n


def add(*args):
    out = {}
    for x in args:
        for key, c in _terms(x).items():
            out[key] = out.get(key, 0) + c
    return LaurentPoly(_n(args), out)


def sub(a, b):
    return add(a, mul(const(_n((a, b)), -1), b))


def mul(*args):
    out = {(): Fraction(1)}
    for x in args:
        step = {}
        for k1, c1 in out.items():
            for k2, c2 in _terms(x).items():
                exps = dict(k1)
                for v, e in k2:
                    exps[v] = exps.get(v, 0) + e
                key = tuple(sorted(exps.items()))
                step[key] = step.get(key, 0) + c1 * c2
        out = step
    return LaurentPoly(_n(args), out)
