"""Charts and flows: exact membership, Jacobians, generating function."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critvar.arrangement import ArrangementSpec, k_subsets, random_generic
from critvar.errors import DomainError, UsageError
from critvar import lagrangian as lag
from critvar.relations import build_relations, g_comb, g_single
from critvar.spectrum import jacobian_formula


def line_pair():
    return ArrangementSpec(2, 1, ((Fraction(1),), (Fraction(1),)), (Fraction(1), Fraction(1)))


def plane_triple():
    b = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)))
    return ArrangementSpec(3, 2, b, (Fraction(1), Fraction(1), Fraction(1)))


def on_variety(spec, z, p):
    """Exact check of every defining relation at a rational point."""
    return build_relations(spec).all_vanish_at(z, p)


def test_completion_matches_known_critical_points():
    z, p = lag.chart_complete(line_pair(), (1,), [Fraction(0)], [Fraction(2)])
    assert z == (0, 1) and p == (-2, 2)
    z, p = lag.chart_complete(plane_triple(), (1, 2), [Fraction(0), Fraction(0)], [Fraction(3)])
    assert z == (0, 0, 1) and p == (-3, -3, 3)


def test_completed_points_satisfy_every_relation():
    rng = random.Random(5)
    for n, k, seed in [(3, 1, 0), (4, 2, 1), (5, 2, 2), (5, 3, 3)]:
        spec = random_generic(n, k, random.Random(seed))
        for iset in list(k_subsets(n, k))[:3]:
            for _ in range(4):
                z, p = lag.sample_chart_point(spec, iset, rng)
                assert on_variety(spec, z, p)


def generating_map(spec, iset, z_part, p_part):
    """The dependent z_j (j outside I) straight from the generating function.

    z_j = a_j/p_j + sum_m (a_{i_m}/p_{i_m} - z_{i_m}) dp_{i_m}/dp_j with
    dp_{i_m}/dp_j = (-1)^m d_{(j, I minus i_m)} / d_I; unwinding the signs
    this is the same expression completion uses, so exact agreement is a
    guard on both derivations rather than news.
    """
    iset = spec._check_subset(iset, spec.k)
    z, p = lag.chart_complete(spec, iset, z_part, p_part)
    a, _, minors = spec.tables(z_part, p_part)
    comp, d_full, signed = lag._chart(spec, iset, minors)
    out = []
    for j in comp:
        val = a[j - 1] / p[j - 1]
        for m, (i, c) in enumerate(zip(iset, signed)):
            val = val + (a[i - 1] / p[i - 1] - z[i - 1]) * ((-1) ** (m + 1) * c[j] / d_full)
        out.append(val)
    return out


def test_generating_map_agrees_with_completion():
    rng = random.Random(7)
    spec = random_generic(5, 2, random.Random(11))
    for iset in [(1, 2), (2, 4), (4, 5)]:
        z, p = lag.sample_chart_point(spec, iset, rng)
        z_part, p_part = lag.chart_coords(spec, iset, z, p)
        comp = [j for j in range(1, 6) if j not in iset]
        dependent = generating_map(spec, iset, z_part, p_part)
        assert dependent == [z[j - 1] for j in comp]


def test_chart_transitions_are_exact_and_involutive():
    rng = random.Random(9)
    spec = random_generic(5, 2, random.Random(3))
    z, p = lag.sample_chart_point(spec, (1, 2), rng)
    for target in [(1, 3), (2, 5), (4, 5)]:
        z_part, p_part = lag.chart_coords(spec, target, z, p)
        z2, p2 = lag.chart_complete(spec, target, z_part, p_part)
        assert (z2, p2) == (z, p)


def test_transition_jacobian_matches_minor_ratio():
    rng = random.Random(13)
    for n, k, seed in [(3, 1, 4), (4, 2, 5), (5, 3, 6)]:
        spec = random_generic(n, k, random.Random(seed))
        charts = list(k_subsets(n, k))
        src = charts[0]
        z, p = lag.sample_chart_point(spec, src, rng)
        cols = lag.completion_jacobian(spec, src, z, p)
        for dst in charts[1:3]:
            want = complex(lag.transition_expected(spec, src, dst))
            got = lag.transition_jacobian_fd(spec, dst, cols)
            assert abs(got - want) <= 1e-6 * (1 + abs(want))


def test_generating_function_derivatives_by_finite_differences():
    rng = random.Random(17)
    for n, k, seed in [(3, 1, 8), (4, 2, 9), (5, 3, 10)]:
        spec = random_generic(n, k, random.Random(seed))
        iset = next(iter(k_subsets(n, k)))
        z, p = lag.sample_chart_point(spec, iset, rng)
        cols = lag.completion_jacobian(spec, iset, z, p)
        assert lag.generating_fd_residual(spec, iset, z, p, cols) < 1e-6


def test_generating_residual_sees_a_moved_dependent_coordinate():
    # moving z_j (j outside I) or p_i (i in I) leaves the chart coordinates,
    # and so the completion Jacobian, as they were: only comparing dPsi with
    # the point's own z_j and -p_i can see it
    rng = random.Random(43)
    for n, k, seed in [(4, 2, 44), (5, 2, 45), (6, 3, 46)]:
        spec = random_generic(n, k, random.Random(seed))
        iset = next(iter(k_subsets(n, k)))
        z, p = lag.sample_chart_point(spec, iset, rng)
        cols = lag.completion_jacobian(spec, iset, z, p)
        assert lag.generating_fd_residual(spec, iset, z, p, cols) < 1e-7
        moved = Fraction(1, 10**4)
        z_off = z[:n - 1] + (z[n - 1] + moved,)
        p_off = (p[0] + moved,) + p[1:]
        assert lag.completion_jacobian(spec, iset, z_off, p_off) == cols
        assert lag.generating_fd_residual(spec, iset, z_off, p, cols) > 1e-6
        assert lag.generating_fd_residual(spec, iset, z, p_off, cols) > 1e-6


def test_projection_jacobian_closed_form_and_chart_independence():
    rng = random.Random(19)
    for n, k, seed in [(3, 1, 12), (4, 2, 13), (5, 2, 14)]:
        spec = random_generic(n, k, random.Random(seed))
        z, p = lag.sample_chart_point(spec, next(iter(k_subsets(n, k))), rng)
        want = jacobian_formula(spec, p)
        for iset in k_subsets(n, k):
            d = spec.plucker(iset)
            assert d * d * lag.projection_jacobian(spec, iset, z, p) == want


def test_projection_jacobian_finite_difference_agreement():
    rng = random.Random(23)
    spec = random_generic(4, 2, random.Random(15))
    iset = (1, 3)
    z, p = lag.sample_chart_point(spec, iset, rng)
    want = complex(lag.projection_jacobian(spec, iset, z, p))
    got = lag.projection_jacobian_fd(spec, iset, lag.completion_jacobian(spec, iset, z, p))
    assert abs(got - want) <= 1e-6 * (1 + abs(want))


def test_first_kind_flow_translates_z_and_preserves_the_variety():
    rng = random.Random(29)
    spec = random_generic(4, 2, random.Random(21))
    z, p = lag.sample_chart_point(spec, (1, 2), rng)
    s = Fraction(3, 7)
    for iset in k_subsets(4, 1):
        z2, p2 = lag.flow_f(spec, iset, s, z, p)
        assert p2 == p
        assert any(z2[j] != z[j] for j in range(4))
        assert on_variety(spec, z2, p2)


def test_g_flow_preserves_the_variety_and_each_single_g():
    rng = random.Random(31)
    spec = random_generic(4, 2, random.Random(25))
    z, p = lag.sample_chart_point(spec, (2, 3), rng)
    s = Fraction(1, 5)
    for jset in k_subsets(4, 3):
        z2, p2 = lag.flow_g(spec, jset, s, z, p)
        assert on_variety(spec, z2, p2)
        for j in range(1, 5):
            assert g_single(spec, j).evaluate(z2, p2) == g_single(spec, j).evaluate(z, p)


def test_g_flow_composes_additively():
    rng = random.Random(37)
    spec = random_generic(5, 2, random.Random(27))
    z, p = lag.sample_chart_point(spec, (1, 4), rng)
    jset = (1, 2, 4)
    first = lag.flow_g(spec, jset, Fraction(2, 3), z, p)
    second = lag.flow_g(spec, jset, Fraction(1, 6), *first)
    direct = lag.flow_g(spec, jset, Fraction(2, 3) + Fraction(1, 6), z, p)
    assert second == direct


def test_scaling_preserves_the_variety():
    rng = random.Random(41)
    spec = random_generic(4, 2, random.Random(33))
    z, p = lag.sample_chart_point(spec, (1, 2), rng)
    z2, p2 = lag.scale_action(Fraction(-5, 3), z, p)
    assert on_variety(spec, z2, p2)
    with pytest.raises(UsageError):
        lag.scale_action(0, z, p)


def test_chart_vector_interleaves_by_index():
    spec = plane_triple()
    z, p = (Fraction(7), Fraction(8), Fraction(9)), (Fraction(1), Fraction(2), Fraction(3))
    assert lag.chart_vector(spec, (1, 3), z, p) == [Fraction(7), Fraction(2), Fraction(9)]


def test_degenerate_chart_data_is_rejected():
    spec = plane_triple()
    with pytest.raises(UsageError):
        lag.chart_complete(spec, (1, 1), [Fraction(0), Fraction(0)], [Fraction(1)])
    with pytest.raises(DomainError):
        lag.chart_complete(spec, (1, 2), [Fraction(0), Fraction(0)], [Fraction(0)])
    z, p = lag.chart_complete(spec, (1, 2), [Fraction(0), Fraction(0)], [Fraction(3)])
    with pytest.raises(DomainError):
        lag.flow_g(spec, (1, 2, 3), p[0] / spec.plucker((2, 3)), z, p)


def test_sampling_is_deterministic_given_a_seed():
    spec = random_generic(4, 2, random.Random(44))
    one = lag.sample_chart_point(spec, (1, 2), random.Random(99))
    two = lag.sample_chart_point(spec, (1, 2), random.Random(99))
    assert one == two


def _rational_instance(n, k, seed):
    """A generic instance whose b has non-dyadic entries, so its float image rounds."""
    spec = random_generic(n, k, random.Random(seed))
    b = tuple(tuple(x / (3 + r) for x in row) for r, row in enumerate(spec.b))
    return ArrangementSpec(n, k, b, spec.a)


def _fd_values(spec, rng):
    """Every float figure the flows checks compute from completions, at one point."""
    charts = list(k_subsets(spec.n, spec.k))[:3]
    z, p = lag.sample_chart_point(spec, charts[0], rng)
    zc, pc = [complex(v) + 0.25j for v in z], [complex(v) - 0.5j for v in p]
    z_part, p_part = lag.chart_coords(spec, charts[1], zc, pc)
    cols = {iset: lag.completion_jacobian(spec, iset, z, p) for iset in charts}
    return [
        lag.chart_complete(spec, charts[1], z_part, p_part),
        [lag.transition_jacobian_fd(spec, dst, cols[charts[0]]) for dst in charts[1:]],
        [lag.generating_fd_residual(spec, iset, z, p, cols[iset]) for iset in charts],
        [lag.projection_jacobian_fd(spec, iset, cols[iset]) for iset in charts],
    ]


def test_fd_checks_on_the_float_image_are_bit_identical(monkeypatch):
    # the image rounds each minor as the Fraction-complex fallback did, so
    # with the exact tables forced back in the same floats come out
    for spec in [random_generic(5, 2, random.Random(31)), random_generic(6, 3, random.Random(32)),
                 _rational_instance(5, 2, 33), _rational_instance(4, 1, 34)]:
        fast = _fd_values(spec, random.Random(35))
        with monkeypatch.context() as m:
            m.setattr(ArrangementSpec, "tables", lambda self, *values: self._exact)
            assert _fd_values(spec, random.Random(35)) == fast


def test_generating_map_on_the_float_image(monkeypatch):
    rng = random.Random(36)
    for spec in [random_generic(5, 2, random.Random(37)), _rational_instance(5, 3, 38)]:
        iset = (2, 4) if spec.k == 2 else (1, 3, 4)
        z, p = lag.sample_chart_point(spec, iset, rng)
        z_part, p_part = lag.chart_coords(spec, iset, z, p)
        z_part = [complex(v) + 0.5j for v in z_part]
        p_part = [complex(v) for v in p_part]
        fast = generating_map(spec, iset, z_part, p_part)
        with monkeypatch.context() as m:
            m.setattr(ArrangementSpec, "tables", lambda self, *values: self._exact)
            slow = generating_map(spec, iset, z_part, p_part)
        assert all(abs(u - v) <= 1e-14 * abs(v) for u, v in zip(fast, slow))
        zf, _ = lag.chart_complete(spec, iset, z_part, p_part)
        comp = [j for j in range(1, spec.n + 1) if j not in iset]
        assert all(abs(u - zf[j - 1]) <= 1e-12 * abs(u) for u, j in zip(fast, comp))


@st.composite
def _chart_case(draw):
    """(n, k, instance seed, chart position, point seed) with n <= 7."""
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, n - 1))
    chart = draw(st.integers(0, math.comb(n, k) - 1))
    return n, k, draw(st.integers(0, 10**6)), chart, draw(st.integers(0, 10**6))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_chart_case())
def test_fd_checks_hold_on_random_charts(case):
    n, k, seed, chart, point_seed = case
    spec = random_generic(n, k, random.Random(seed))
    charts = list(k_subsets(n, k))
    iset, target = charts[chart], charts[chart - 1]
    z, p = lag.sample_chart_point(spec, iset, random.Random(point_seed))
    cols = lag.completion_jacobian(spec, iset, z, p)
    assert lag.generating_fd_residual(spec, iset, z, p, cols) <= 1e-7
    want = complex(lag.transition_expected(spec, iset, target))
    got = lag.transition_jacobian_fd(spec, target, cols)
    assert abs(got - want) <= 1e-6 * (1 + abs(want))
    want = complex(lag.projection_jacobian(spec, iset, z, p))
    got = lag.projection_jacobian_fd(spec, iset, cols)
    assert abs(got - want) <= 1e-6 * (1 + abs(want))
    z_part, p_part = lag.chart_coords(spec, iset, z, p)
    comp = [j for j in range(1, n + 1) if j not in iset]
    assert generating_map(spec, iset, z_part, p_part) == [z[j - 1] for j in comp]


def test_chart_tables_are_kept_per_chart_and_per_minor_table():
    spec = random_generic(5, 2, random.Random(7))
    exact, image = spec.tables([Fraction(1)])[2], spec.tables([0.5])[2]
    first = lag._chart(spec, (1, 3), exact)
    assert lag._chart(spec, (1, 3), exact) is first
    floats = lag._chart(spec, (1, 3), image)
    assert floats[0] == first[0] and floats[1] == float(first[1])
    assert floats[2] == [{j: float(c) for j, c in row.items()} for row in first[2]]
    # the weights' kind is decided once, by the constructor
    assert spec.rational_weights
    mixed = ArrangementSpec(spec.n, spec.k, spec.b, (1j, *spec.a[1:]))
    assert not mixed.rational_weights
    with pytest.raises(UsageError):
        lag.chart_complete(mixed, (1, 3), [Fraction(1)] * 2, [Fraction(1)] * 3)
