import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critvar.arrangement import ArrangementSpec, k_subsets, random_generic
from critvar.errors import UsageError
from critvar.lagrangian import sample_chart_point
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
from ringref import mul, pvar, sub, zvar
from test_arrangement import master_gradient
from test_laurent import weighted_degrees


def line_spec():
    return ArrangementSpec(n=2, k=1, b=((1,), (1,)), a=(1, 1))


def plane_spec():
    return ArrangementSpec(n=3, k=2, b=((1, 0), (0, 1), (1, 1)), a=(1, 1, 1))


def test_small_generators_in_closed_form():
    spec = line_spec()
    assert first_kind(spec, ()).to_text() == "1/1*p1 + 1/1*p2"
    f12 = second_kind(spec, (1, 2))
    expect = sub(mul(sub(zvar(2, 1), zvar(2, 2)), pvar(2, 1), pvar(2, 2)),
                 sub(pvar(2, 2), pvar(2, 1)))
    assert f12 == expect
    g12 = g_comb(spec, (1, 2))
    assert g12 == sub(g_single(spec, 1), g_single(spec, 2))


def test_vanishing_at_known_critical_points():
    # two points on a line: critical point of log f1 + log f2 sits midway
    spec = line_spec()
    z = [Fraction(0), Fraction(1)]
    p = spec.momenta(z, [Fraction(-1, 2)])
    assert p == [-2, 2]
    rel = build_relations(spec)
    assert rel.all_vanish_at(z, p)
    assert euler_relation(spec).evaluate(z, p) == 0
    assert rel.g[(1, 2)].evaluate(z, p) == 0

    spec = plane_spec()
    z = [Fraction(0), Fraction(0), Fraction(1)]
    p = spec.momenta(z, [Fraction(-1, 3), Fraction(-1, 3)])
    rel = build_relations(spec)
    assert rel.all_vanish_at(z, p)
    assert euler_relation(spec).evaluate(z, p) == 0
    for jset, g in rel.g.items():
        assert g.evaluate(z, p) == 0


def test_vanishing_along_random_two_point_families():
    # with n=2, k=1 the critical point is rational, so membership is exact
    rng = random.Random(19)
    for _ in range(20):
        spec = random_generic(2, 1, rng)
        z = [Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))]
        if not spec.is_off_discriminant(z):
            continue
        a1, a2 = spec.a
        b1, b2 = spec.b[0][0], spec.b[1][0]
        t = -(a1 * b1 * z[1] + a2 * b2 * z[0]) / (b1 * b2 * (a1 + a2))
        if any(f == 0 for f in spec.hyperplane_values(z, [t])):
            continue
        assert master_gradient(spec, z, [t]) == [0]
        p = spec.momenta(z, [t])
        assert build_relations(spec).all_vanish_at(z, p)


def test_membership_tests_every_generator_and_stops_at_the_first_failing_one(monkeypatch):
    # all_vanish_at reads first kind, second kind, G_J, then Euler: on the
    # variety all of them, off it up to the first that does not vanish
    spec = random_generic(5, 2, random.Random(48))
    rels = build_relations(spec)
    order = [*rels.first.values(), *rels.second.values(), *rels.g.values(), rels.euler]
    assert rels.euler == euler_relation(spec)
    z, p = sample_chart_point(spec, (1, 2), random.Random(49))
    seen = []
    numerators = LaurentPoly._numerators
    monkeypatch.setattr(LaurentPoly, "_numerators",
                        lambda poly: seen.append(poly) or numerators(poly))
    assert rels.all_vanish_at(z, p)
    assert list(map(id, seen)) == list(map(id, order))
    moved = Fraction(1, 10**4)
    for z_off, p_off in [(z, (p[0] + moved,) + p[1:]), ((z[0] + moved,) + z[1:], p)]:
        first_bad = next(i for i, poly in enumerate(order) if poly.evaluate(z_off, p_off))
        seen.clear()
        assert not rels.all_vanish_at(z_off, p_off)
        assert list(map(id, seen)) == list(map(id, order[: first_bad + 1]))


def test_homogeneity():
    # grading: deg p_j = 1, deg z_j = -1
    rng = random.Random(29)
    for n, k in [(3, 1), (4, 2), (5, 2), (5, 3)]:
        spec = random_generic(n, k, rng)
        for iset in k_subsets(n, k - 1):
            assert weighted_degrees(first_kind(spec, iset)) == [1]
        for jset in k_subsets(n, k + 1):
            assert weighted_degrees(second_kind(spec, jset)) == [k]
            assert weighted_degrees(g_comb(spec, jset)) == [-1]
        for j in range(1, n + 1):
            assert weighted_degrees(g_single(spec, j)) == [-1]
        assert weighted_degrees(euler_relation(spec)) == [0]


def test_factorization():
    rng = random.Random(37)
    for n, k in [(3, 1), (4, 2), (5, 3)]:
        spec = random_generic(n, k, rng)
        for jset in k_subsets(n, k + 1):
            prod = mul(*(pvar(n, j) for j in jset))
            assert second_kind(spec, jset) == mul(prod, g_comb(spec, jset))


def test_involution_suite_counts_and_zeros():
    rng = random.Random(47)
    for n, k in [(3, 1), (4, 2), (5, 3)]:
        spec = random_generic(n, k, rng)
        reports = involution_suite(spec)
        nf = len(list(k_subsets(n, k - 1)))
        ng = len(list(k_subsets(n, k + 1)))
        expected = nf * (nf + 1) // 2 + ng * nf + ng * (ng + 1) // 2
        assert len(reports) == expected
        assert {r.pair_class for r in reports} == {"FF", "GF", "GG"}
        assert all(r.ok for r in reports)


# every (n, k) with n <= 12 whose algebra has dimension C(n-1, k) <= 20; the
# bound on n is needed, as k = n-1 has dimension 1 and k = n-2 dimension n-1
_SMALL_ALGEBRAS = [(n, k) for n in range(2, 13) for k in range(1, n)
                   if math.comb(n - 1, k) <= 20]


@pytest.mark.parametrize("n, k", _SMALL_ALGEBRAS)
@settings(derandomize=True, max_examples=2, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from((9, 10**6)))
def test_generators_are_in_involution_on_random_instances(n, k, seed, bound):
    spec = random_generic(n, k, random.Random(seed), coeff_bound=bound)
    reports = involution_suite(spec)
    assert reports and all(r.residual.is_zero for r in reports)


def test_bracket_machinery_detects_nonzero():
    # a single G_j against a first-kind generator has bracket d_{j,I}: the
    # suite's exact zeros are cancellations, not an artifact of the bracket
    spec = plane_spec()
    br = poisson(g_single(spec, 1), first_kind(spec, (2,)))
    assert br == spec.plucker((1, 2))
    assert not br.is_zero


def test_index_validation():
    spec = plane_spec()
    with pytest.raises(UsageError):
        first_kind(spec, (1, 2))
    with pytest.raises(UsageError):
        second_kind(spec, (1, 2))
    with pytest.raises(UsageError):
        g_comb(spec, (2, 1, 3))
    with pytest.raises(UsageError):
        g_single(spec, 4)


def test_complex_weights_blocked_on_exact_paths():
    spec = ArrangementSpec(n=2, k=1, b=((1,), (1,)), a=(1 + 0j, 1 + 0j))
    with pytest.raises(UsageError):
        second_kind(spec, (1, 2))
    with pytest.raises(UsageError):
        g_single(spec, 1)
    # first kind needs no weights at all
    assert first_kind(spec, ()).to_text() == "1/1*p1 + 1/1*p2"
