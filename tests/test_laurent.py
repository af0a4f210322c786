import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critvar import lagrangian as lag
from critvar.arrangement import k_subsets, random_generic
from critvar.errors import DomainError, UsageError
from critvar.laurent import LaurentPoly, poisson, vanish_at
from critvar.relations import build_relations, euler_relation
from ringref import add, const, mul, pvar, sub, zvar


def weighted_degrees(poly):
    """Distinct degrees under the grading deg p_j = 1, deg z_j = -1."""
    return sorted({sum(e if v >= poly.n else -e for v, e in key) for key in poly.terms})


def scale_degree(poly, lam):
    """Substitute p_j -> lam*p_j and z_j -> z_j/lam, exactly."""
    if lam == 0:
        raise UsageError("scale factor must be nonzero")
    lam = Fraction(lam)
    return LaurentPoly(poly.n, {key: c * lam ** sum(e if v >= poly.n else -e for v, e in key)
                                for key, c in poly.terms.items()})


def zv(j, n=3):
    return zvar(n, j)


def pv(j, n=3):
    return pvar(n, j)


def rand_poly(rng, n, nterms=4, max_exp=2):
    terms = {}
    for _ in range(nterms):
        key = []
        for v in range(2 * n):
            if rng.random() < 0.4:
                e = rng.randint(-max_exp, max_exp)
                if e:
                    key.append((v, e))
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        key = tuple(key)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return LaurentPoly(n, terms)


def rand_point(rng, n):
    vals = []
    while len(vals) < 2 * n:
        v = Fraction(rng.randint(-7, 7), rng.randint(1, 4))
        if v != 0:
            vals.append(v)
    return vals[:n], vals[n:]


def test_evaluate_is_ring_hom():
    rng = random.Random(23)
    n = 3
    for _ in range(40):
        a, b = rand_poly(rng, n), rand_poly(rng, n)
        zs, ps = rand_point(rng, n)
        assert mul(a, b).evaluate(zs, ps) == a.evaluate(zs, ps) * b.evaluate(zs, ps)
        assert add(a, b).evaluate(zs, ps) == a.evaluate(zs, ps) + b.evaluate(zs, ps)


def test_negative_exponents():
    n = 2
    inv = pvar(n, 1, exp=-1)
    assert mul(inv, pv(1, n)) == 1
    assert inv.evaluate([0, 0], [Fraction(1, 3), 1]) == 3
    with pytest.raises(DomainError):
        inv.evaluate([0, 0], [0, 1])


def _verdicts(poly, zs, ps):
    """(evaluate(...) == 0, vanish_at) at one point, a pole reading as DomainError."""
    out = []
    for decide in (lambda: poly.evaluate(zs, ps) == 0, lambda: vanish_at([poly], zs, ps)):
        try:
            out.append(decide())
        except DomainError:
            out.append(DomainError)
    return out


def test_vanish_at_agrees_with_evaluate():
    rng = random.Random(41)
    cases = []
    for n, k, seed in [(4, 2, 1), (5, 3, 2), (4, 1, 3)]:
        spec = random_generic(n, k, random.Random(seed))
        rels = build_relations(spec)
        polys = [*rels.first.values(), *rels.second.values(), *rels.g.values(),
                 euler_relation(spec)]
        for iset in list(k_subsets(n, k))[:2]:
            z, p = lag.sample_chart_point(spec, iset, rng)
            nudged = (p[0] + Fraction(1, 97),) + p[1:]
            cases += [(poly, z, p) for poly in polys] + [(poly, z, nudged) for poly in polys]
            assert vanish_at(polys, z, p) and not vanish_at(polys, z, nudged)
    n = 2
    zero_z = [Fraction(0), Fraction(3, 2)]
    p = [Fraction(-1, 3), Fraction(0)]
    cases += [
        (add(mul(zv(1, n), pv(1, n)), 3), zero_z, p),  # a zero coordinate, positive exponent
        (mul(zv(1, n), pv(1, n), pv(1, n)), zero_z, p),
        (LaurentPoly(n), zero_z, p),  # the zero polynomial
        (pvar(n, 2, exp=-1), zero_z, p),  # a pole
        # the first zero coordinate in the key decides, as in evaluate
        (mul(zv(1, n), pvar(n, 2, exp=-1)), zero_z, p),
        (mul(zvar(n, 1, exp=-1), pv(2, n)), zero_z, p),
    ]
    verdicts = [_verdicts(poly, zs, ps) for poly, zs, ps in cases]
    assert all(a == b for a, b in verdicts)
    assert {a for a, _ in verdicts} == {True, False, DomainError}
    # polynomials are decided in order: a nonzero one stops before a pole
    pole = pvar(n, 2, exp=-1)
    assert not vanish_at([const(n, 1), pole], zero_z, p)
    with pytest.raises(DomainError):
        vanish_at([LaurentPoly(n), pole], zero_z, p)
    with pytest.raises(UsageError):
        vanish_at([pole], zero_z, p + p)
    with pytest.raises(UsageError):
        vanish_at([pole], [0.5, 1.0], p)


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def _poly_and_point(draw):
    n = draw(st.integers(1, 3))
    exps = st.lists(st.tuples(st.integers(0, 2 * n - 1), st.integers(-2, 2)), max_size=3)
    terms = draw(st.lists(st.tuples(exps, _rationals), max_size=5))
    poly = add(LaurentPoly(n), *(LaurentPoly(n, {tuple(dict(key).items()): c})
                                 for key, c in terms))
    zs = draw(st.lists(_rationals, min_size=n, max_size=n))
    ps = draw(st.lists(_rationals, min_size=n, max_size=n))
    if draw(st.booleans()):
        # shift by the value, when there is one, so that it vanishes
        try:
            poly = sub(poly, poly.evaluate(zs, ps))
        except DomainError:
            pass
    return poly, zs, ps


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_poly_and_point())
def test_vanish_at_property(case):
    poly, zs, ps = case
    expected, got = _verdicts(poly, zs, ps)
    assert expected == got


def test_poisson_canonical_pairs():
    n = 3
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            br = poisson(zv(i), pv(j))
            assert br == (1 if i == j else 0)
            assert poisson(zv(i), zv(j)).is_zero
            assert poisson(pv(i), pv(j)).is_zero


def test_poisson_bilinear_antisymmetric_leibniz_jacobi():
    rng = random.Random(7)
    n = 2
    for _ in range(15):
        a, b, c = (rand_poly(rng, n, nterms=3, max_exp=1) for _ in range(3))
        assert poisson(a, b) == mul(-1, poisson(b, a))
        assert poisson(add(a, b), c) == add(poisson(a, c), poisson(b, c))
        assert poisson(a, mul(b, c)) == add(mul(poisson(a, b), c), mul(b, poisson(a, c)))
        jac = add(poisson(a, poisson(b, c)), poisson(b, poisson(c, a)),
                  poisson(c, poisson(a, b)))
        assert jac.is_zero


def test_scale_degree():
    n = 2
    # deg p = 1, deg z = -1: z1*p1 is degree 0, p1^2/z2 is degree 3
    f = add(mul(zv(1, n), pv(1, n)), LaurentPoly(n, {((1, -1), (2, 2)): Fraction(1)}))
    g = scale_degree(f, Fraction(2))
    expected = add(mul(zv(1, n), pv(1, n)), LaurentPoly(n, {((1, -1), (2, 2)): Fraction(8)}))
    assert g == expected
    with pytest.raises(UsageError):
        scale_degree(f, 0)


def test_weighted_degrees():
    n = 2
    f = add(mul(pv(1, n), pv(2, n)), zv(1, n))
    assert weighted_degrees(f) == [-1, 2]


def test_text_form():
    n = 2
    f = add(sub(mul(3, zv(1, n)), mul(pv(2, n), pv(2, n))), Fraction(1, 2))
    assert f.to_text() == "-1/1*p2^2 + 3/1*z1 + 1/2"
    assert LaurentPoly(n).to_text() == "0"
    assert pvar(n, 1, exp=-2).to_text() == "1/1*p1^-2"


def test_shape_errors():
    with pytest.raises(UsageError):
        LaurentPoly(2, {((4, 1),): 1})  # variable id 4 is out of range for n = 2
    with pytest.raises(UsageError):
        LaurentPoly(2, {(): 0.5})  # a float coefficient
    with pytest.raises(UsageError):
        LaurentPoly(0)
    with pytest.raises(UsageError):
        poisson(const(2, 1), const(3, 1))
