"""The relation layer against the plain constructions it stands for.

relations.py writes each generator's term map straight from its formula,
and laurent.poisson brackets from cached integer partials.  The references
below are the direct constructions: generators summed and multiplied with
the reference arithmetic of ringref, and the bracket as a sum of products
of partials taken term by term.  Every comparison is exact equality.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critvar.arrangement import ArrangementSpec, k_subsets, random_generic
from critvar.errors import UsageError
from critvar.laurent import LaurentPoly, poisson
from critvar.relations import (
    build_relations,
    euler_relation,
    first_kind,
    g_comb,
    g_single,
    involution_suite,
    second_kind,
)
from ringref import add, const, mul, pvar, sub, zvar


# -- references ------------------------------------------------------------------


def ref_diff(poly, var):
    terms = {}
    for key, c in poly.terms.items():
        e = dict(key)
        m = e.get(var, 0)
        if m == 0:
            continue
        if m == 1:
            e.pop(var)
        else:
            e[var] = m - 1
        terms[tuple(sorted(e.items()))] = c * m
    return LaurentPoly(poly.n, terms)


def ref_poisson(m, other):
    n = m.n
    return add(LaurentPoly(n), *(mul(ref_diff(m, j), ref_diff(other, n + j)) for j in range(n)),
               *(mul(-1, ref_diff(m, n + j), ref_diff(other, j)) for j in range(n)))


def ref_discriminant_form(spec, jset):
    return add(LaurentPoly(spec.n),
               *(mul(c, zvar(spec.n, i)) for i, c in spec.discriminant_coeffs(jset)))


def ref_first_kind(spec, iset):
    return add(LaurentPoly(spec.n), *(mul(spec.plucker((j,) + iset), pvar(spec.n, j))
                                      for j in range(1, spec.n + 1) if j not in iset))


def ref_second_kind(spec, jset):
    n = spec.n
    poly = mul(ref_discriminant_form(spec, jset), *(pvar(n, j) for j in jset))
    for j, d in spec.discriminant_coeffs(jset):
        poly = add(poly, mul(const(n, -spec.a[j - 1] * d),
                             *(pvar(n, l) for l in jset if l != j)))
    return poly


def ref_g_single(spec, j):
    n = spec.n
    return sub(zvar(n, j), mul(spec.a[j - 1], pvar(n, j, exp=-1)))


def ref_g_comb(spec, jset):
    return add(LaurentPoly(spec.n),
               *(mul(c, ref_g_single(spec, j)) for j, c in spec.discriminant_coeffs(jset)))


def ref_euler(spec):
    n = spec.n
    return add(-spec.weight_total, *(mul(zvar(n, j), pvar(n, j)) for j in range(1, n + 1)))


def ref_suite(spec):
    firsts = [(i, ref_first_kind(spec, i)) for i in k_subsets(spec.n, spec.k - 1)]
    gs = [(j, ref_g_comb(spec, j)) for j in k_subsets(spec.n, spec.k + 1)]
    out = [("FF", i, j, ref_poisson(fi, fj))
           for idx, (i, fi) in enumerate(firsts) for j, fj in firsts[idx:]]
    out += [("GF", i, j, ref_poisson(gi, fj)) for i, gi in gs for j, fj in firsts]
    out += [("GG", i, j, ref_poisson(gi, gj))
            for idx, (i, gi) in enumerate(gs) for j, gj in gs[idx:]]
    return out


# -- instances -------------------------------------------------------------------


def fraction_spec(n=5, k=2, seed=3):
    """A generic instance whose b and weights are non-integer Fractions."""
    rng = random.Random(seed)
    while True:
        b = [[Fraction(rng.randint(-9, 9), rng.randint(2, 7)) for _ in range(k)]
             for _ in range(n)]
        a = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 5))
             for _ in range(n)]
        try:
            return ArrangementSpec(n=n, k=k, b=b, a=a)
        except UsageError:
            continue


def corrupted_spec():
    """(5,2) with the minor on rows (1,2) off by one: the minor relations fail."""
    spec = random_generic(5, 2, random.Random(52))
    spec._minors[(1, 2)] += 1
    return spec


INSTANCES = {
    "(5,1)": lambda: random_generic(5, 1, random.Random(51)),
    "(5,4)": lambda: random_generic(5, 4, random.Random(54)),
    "(6,3)": lambda: random_generic(6, 3, random.Random(63)),
    "(7,3)": lambda: random_generic(7, 3, random.Random(73)),
    "fractions": fraction_spec,
    "corrupted": corrupted_spec,
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_generators_match_the_arithmetic_construction(name):
    spec = INSTANCES[name]()
    n, k = spec.n, spec.k
    assert any(c.denominator > 1 for row in spec.b for c in row) == (name == "fractions")
    for iset in k_subsets(n, k - 1):
        assert first_kind(spec, iset) == ref_first_kind(spec, iset)
    for jset in k_subsets(n, k + 1):
        assert spec.discriminant_form(jset) == ref_discriminant_form(spec, jset)
        assert second_kind(spec, jset) == ref_second_kind(spec, jset)
        assert g_comb(spec, jset) == ref_g_comb(spec, jset)
    for j in range(1, n + 1):
        assert g_single(spec, j) == ref_g_single(spec, j)
    assert euler_relation(spec) == ref_euler(spec)
    rel = build_relations(spec)
    assert rel.first == {i: ref_first_kind(spec, i) for i in k_subsets(n, k - 1)}
    assert rel.second == {j: ref_second_kind(spec, j) for j in k_subsets(n, k + 1)}
    assert rel.g == {j: ref_g_comb(spec, j) for j in k_subsets(n, k + 1)}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_builders_write_what_the_validating_constructor_makes(name):
    # the builders skip LaurentPoly's checks, so their term maps must already be canonical
    spec = INSTANCES[name]()
    n, k = spec.n, spec.k
    polys = [first_kind(spec, iset) for iset in k_subsets(n, k - 1)]
    polys += [build(spec, jset) for jset in k_subsets(n, k + 1) for build in (second_kind, g_comb)]
    polys += [g_single(spec, j) for j in range(1, n + 1)] + [euler_relation(spec)]
    for poly in polys:
        assert poly == LaurentPoly(n, poly.terms)
        assert all(type(c) is Fraction and c != 0 for c in poly.terms.values())
        assert all(key == tuple(sorted(key)) and all(e for _, e in key) for key in poly.terms)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_involution_suite_matches_the_reference_brackets(name):
    spec = INSTANCES[name]()
    got = [(r.pair_class, r.left, r.right, r.residual) for r in involution_suite(spec)]
    want = ref_suite(spec)
    assert got == want
    bad = [r for r in got if not r[3].is_zero]
    if name == "corrupted":
        # {G_J, F_I} is the Plucker residual of (J, I), a constant
        assert bad and {r[0] for r in bad} == {"GF"}
        for _, jset, iset, residual in bad:
            assert residual == spec.plucker_relation_residual(jset, iset)
    else:
        assert not bad


def ref_plucker_residual(spec, jseq, iseq):
    """The Plucker residual summed as Fraction products."""
    return sum(((-1) ** m * spec.plucker(jseq[:m] + jseq[m + 1 :]) * spec.plucker((j,) + iseq)
                for m, j in enumerate(jseq)), Fraction(0))


@pytest.mark.parametrize("name", ["(6,3)", "fractions", "corrupted"])
def test_plucker_residual_matches_the_fraction_sum(name):
    spec = INSTANCES[name]()
    residuals = []
    for jset in k_subsets(spec.n, spec.k + 1):
        for iset in k_subsets(spec.n, spec.k - 1):
            # sorted, then reversed so that the minors carry signs
            for jseq, iseq in [(jset, iset), (jset[::-1], iset[::-1])]:
                got = spec.plucker_relation_residual(jseq, iseq)
                assert type(got) is Fraction and got == ref_plucker_residual(spec, jseq, iseq)
                residuals.append(got)
    assert any(residuals) == (name == "corrupted")


_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def _poly_pair(draw):
    n = draw(st.integers(1, 3))
    keys = st.lists(st.tuples(st.integers(0, 2 * n - 1), st.integers(-3, 3)), max_size=4)

    def poly():
        terms = draw(st.lists(st.tuples(keys, _coeffs), max_size=5))
        return add(LaurentPoly(n), *(LaurentPoly(n, {tuple(dict(key).items()): c})
                                     for key, c in terms))

    return poly(), poly()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_poly_pair())
def test_poisson_matches_the_reference_and_is_antisymmetric(pair):
    m, other = pair
    want = ref_poisson(m, other)
    assert poisson(m, other) == want
    # a second bracket reads the gradients the first one cached
    assert poisson(other, m) == mul(-1, want)
    assert poisson(m, other) == want

