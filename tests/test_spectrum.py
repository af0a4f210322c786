import math
import random
from fractions import Fraction

import numpy as np
import pytest

from critvar.arrangement import ArrangementSpec, random_generic, sample_z
from critvar.errors import UsageError
from critvar.quotient import QuotientAlgebra
from critvar.spectrum import (
    hessian_direct,
    hessian_formula,
    jacobian_formula,
    joint_spectrum,
    match_point_sets,
    newton_multistart,
    poly_roots,
    smoothness_witness,
)


def line_setup():
    spec = ArrangementSpec(n=2, k=1, b=((1,), (1,)), a=(1, 1))
    return spec, [Fraction(0), Fraction(1)]


def plane_setup():
    spec = ArrangementSpec(n=3, k=2, b=((1, 0), (0, 1), (1, 1)), a=(1, 1, 1))
    return spec, [Fraction(0), Fraction(0), Fraction(1)]


def test_poly_roots_known():
    roots = poly_roots([1, 0, -1])
    assert max(abs(r - e) for r, e in zip(roots, [-1, 1])) < 1e-12
    roots = poly_roots([1, -6, 11, -6])  # (x-1)(x-2)(x-3)
    assert max(abs(r - e) for r, e in zip(roots, [1, 2, 3])) < 1e-10
    assert poly_roots([5]) == []
    with pytest.raises(UsageError):
        poly_roots([0, 0])


def test_poly_roots_random_reconstruction():
    rng = random.Random(3)
    for _ in range(10):
        true = sorted(
            (complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(6)),
            key=lambda r: (r.real, r.imag),
        )
        coeffs = [1 + 0j]
        for r in true:
            coeffs = [c for c in coeffs] + [0j]
            for i in range(len(coeffs) - 1, 0, -1):
                coeffs[i] -= r * coeffs[i - 1]
        got = poly_roots(coeffs)
        assert max(abs(g - t) for g, t in zip(got, true)) < 1e-9


def test_poly_roots_exact_coefficients_resolve_a_far_cluster():
    # ten roots 1000 + j/8: rounding the coefficients to floats leaves no
    # correct digit in them, the exact sweeps recover every one
    true = [Fraction(1000) + Fraction(j, 8) for j in range(10)]
    coeffs = [Fraction(1)]
    for r in true:
        coeffs = coeffs + [Fraction(0)]
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] -= r * coeffs[i - 1]
    got = poly_roots(coeffs)
    assert max(abs(g - float(t)) for g, t in zip(got, true)) < 1e-12


def test_two_point_spectrum():
    spec, z = line_setup()
    res = joint_spectrum(QuotientAlgebra(spec, z), seed=1)
    assert len(res.points) == 1
    pt = res.points[0]
    assert abs(pt.t[0] - (-0.5)) < 1e-10
    assert abs(pt.p[0] - (-2)) < 1e-9 and abs(pt.p[1] - 2) < 1e-9
    assert pt.grad_norm < 1e-9


def test_three_line_spectrum():
    spec, z = plane_setup()
    res = joint_spectrum(QuotientAlgebra(spec, z), seed=1)
    assert len(res.points) == 1
    pt = res.points[0]
    assert max(abs(x - e) for x, e in zip(pt.t, [-1 / 3, -1 / 3])) < 1e-10
    assert max(abs(x - e) for x, e in zip(pt.p, [-3, -3, 3])) < 1e-9


def test_newton_matches_spectrum():
    for n, k, seed in [(3, 1, 5), (4, 2, 6)]:
        rng = random.Random(seed)
        spec = random_generic(n, k, rng, coeff_bound=4)
        z = sample_z(spec, rng, bound=6)
        alg = QuotientAlgebra(spec, z)
        res = joint_spectrum(alg, seed=seed)
        pts = newton_multistart(spec, z, seed=seed)
        assert len(res.points) == math.comb(n - 1, k)
        assert len(pts) == math.comb(n - 1, k)
        ok, worst = match_point_sets(
            [pt.p for pt in res.points], [pt.p for pt in pts], tol=1e-8
        )
        assert ok, f"point sets differ by {worst}"
        assert all(pt.grad_norm < 1e-10 for pt in pts)


def test_separated_draw_is_accepted_first_time():
    # `critvar gen --n 7 --k 2 --seed 5003`: its first draw separates the
    # eigenvalues (gap 0.87) and must not be redrawn
    rng = random.Random(5003)
    spec = random_generic(7, 2, rng)
    z = sample_z(spec, rng)
    res = joint_spectrum(QuotientAlgebra(spec, z), seed=5003)
    assert res.attempts == 1
    assert res.min_gap > 1e-6
    assert len(res.points) == math.comb(6, 2)


def test_spectrum_of_a_clustered_combination_is_read_off_first_time():
    # `critvar gen --n 6 --k 3 --seed 303002`: the eigenvalues of the first
    # draw sit around -26 with gap 0.025, where float-coefficient roots were
    # off by up to 3.4 and their eigenvectors landed on repeated points
    rng = random.Random(303002)
    spec = random_generic(6, 3, rng)
    z = sample_z(spec, rng)
    alg = QuotientAlgebra(spec, z)
    res = joint_spectrum(alg, seed=303002)
    assert res.attempts == 1
    comb = sum(
        c * np.array([[complex(x) for x in row] for row in alg.bethe_operator(j)])
        for j, c in enumerate(res.combination, start=1)
    )
    ok, worst = match_point_sets(
        [(lam,) for lam in res.eigenvalues], [(lam,) for lam in np.linalg.eigvals(comb)], 1e-9
    )
    assert ok, f"eigenvalues off by {worst}"
    momenta = [pt.p for pt in res.points]
    assert min(
        max(abs(u - v) for u, v in zip(p, q))
        for i, p in enumerate(momenta) for q in momenta[i + 1 :]
    ) > 1e-3


def test_route_one_points_satisfy_the_hessian_identity():
    # `critvar gen --n 7 --k 3 --seed 5000`, the instance route one missed
    # by 8.5e-7 before its points were polished
    rng = random.Random(5000)
    spec = random_generic(7, 3, rng)
    z = sample_z(spec, rng)
    points = joint_spectrum(QuotientAlgebra(spec, z), seed=5000).points
    assert len(points) == math.comb(6, 3)
    worst = 0.0
    for pt in points:
        direct = complex(hessian_direct(spec, z, pt.t))
        closed = complex(hessian_formula(spec, pt.p))
        worst = max(worst, abs(direct - closed) / (1 + abs(direct)))
    assert worst <= 1e-8


def test_newton_determinism():
    spec, z = plane_setup()
    first = newton_multistart(spec, z, seed=9)
    second = newton_multistart(spec, z, seed=9)
    assert first == second


def test_match_point_sets_rejects():
    ok, _ = match_point_sets([(0j,)], [(0j,), (1j,)], tol=1.0)
    assert not ok
    ok, worst = match_point_sets([(0j,)], [(0.5 + 0j,)], tol=0.1)
    assert not ok and worst == 0.5


def test_hessian_oracles():
    spec, z = line_setup()
    t = [Fraction(-1, 2)]
    p = spec.momenta(z, t)
    assert hessian_direct(spec, z, t) == -8
    assert hessian_formula(spec, p) == -8
    assert jacobian_formula(spec, p) == Fraction(-1, 2)

    spec, z = plane_setup()
    t = [Fraction(-1, 3), Fraction(-1, 3)]
    p = spec.momenta(z, t)
    assert hessian_direct(spec, z, t) == 243
    assert hessian_formula(spec, p) == 243


def test_hessian_identity_at_numeric_points():
    rng = random.Random(8)
    for n, k in [(4, 2), (5, 2)]:
        spec = random_generic(n, k, rng, coeff_bound=4)
        z = sample_z(spec, rng, bound=6)
        for pt in newton_multistart(spec, z, seed=3):
            direct = hessian_direct(spec, z, list(pt.t))
            closed = hessian_formula(spec, pt.p)
            assert abs(direct - closed) <= 1e-8 * max(1.0, abs(direct))
            # the closed-form projection Jacobian agrees with the quotient
            # of the two determinant formulas
            jac = jacobian_formula(spec, pt.p)
            prod = 1.0 + 0j
            for j in range(n):
                prod *= complex(spec.a[j]) / (pt.p[j] * pt.p[j])
            assert abs(jac - (-1) ** n * direct * prod) <= 1e-8 * max(1.0, abs(jac))


def test_smoothness_witness_is_an_identity():
    # holds at every point off the hyperplanes, critical or not, exactly
    rng = random.Random(12)
    for n, k in [(3, 2), (5, 2), (5, 3)]:
        spec = random_generic(n, k, rng, coeff_bound=4)
        z = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        t = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(k)]
        if any(f == 0 for f in spec.hyperplane_values(z, t)):
            continue
        for iset in [tuple(range(1, k + 1)), tuple(range(n - k + 1, n + 1))]:
            direct, closed = smoothness_witness(spec, z, t, iset)
            assert direct == closed
            assert closed != 0
