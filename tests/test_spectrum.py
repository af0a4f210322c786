import itertools
import json
import math
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critvar import lagrangian as lag
from critvar import numeric, ratmat
from critvar.arrangement import ArrangementSpec, k_subsets, random_generic, sample_z
from critvar.errors import NumericError, UsageError
from critvar.quotient import QuotientAlgebra
from critvar.spectrum import (
    hessian_direct,
    hessian_formula,
    hessian_matrix,
    jacobian_formula,
    joint_spectrum,
    match_point_sets,
    newton_multistart,
    poly_roots,
)
from test_cli import child_env

ROUTE_ONE_9_4 = Path(__file__).resolve().parent / "data" / "route_one_9_4_9040.json"


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
    # eigenvalues (gap 0.50) and must not be redrawn
    rng = random.Random(5003)
    spec = random_generic(7, 2, rng)
    z = sample_z(spec, rng)
    res = joint_spectrum(QuotientAlgebra(spec, z), seed=5003)
    assert res.attempts == 1
    assert res.min_gap > 1e-6
    assert len(res.points) == math.comb(6, 2)


def test_spectrum_of_a_clustered_combination_is_read_off_first_time():
    # `critvar gen --n 6 --k 3 --seed 300029`: two eigenvalues of the first
    # draw lie 0.0068 apart and two of its points 0.021 apart in momenta; the
    # draw is kept, and its eigenvectors must not land on repeated points
    rng = random.Random(300029)
    spec = random_generic(6, 3, rng)
    z = sample_z(spec, rng)
    alg = QuotientAlgebra(spec, z)
    res = joint_spectrum(alg, seed=300029)
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


def _assert_complete(spec, z, seed, route_one_momenta):
    want = math.comb(spec.n - 1, spec.k)
    stats = {}
    got = newton_multistart(spec, z, seed=seed, stats=stats)
    assert len(got) == want and stats["chambers"] == stats["paths"] == want
    ok, worst = match_point_sets(route_one_momenta, [pt.p for pt in got], 1e-9)
    assert ok, f"route two differs from route one by {worst}"


# `critvar gen` instances whose fibers random starts in a disk came back
# short on: bilinear multistart found some points and loops of z the rest
@pytest.mark.parametrize("n,k,seed", [
    (4, 1, 7157), (5, 1, 955102), (5, 1, 955124), (4, 2, 954206),
    (4, 2, 954232), (5, 2, 955203), (6, 1, 956109), (7, 1, 901008),
])
def test_monodromy_completes_short_fibers(n, k, seed):
    rng = random.Random(seed)
    spec = random_generic(n, k, rng)
    z = sample_z(spec, rng)
    points = joint_spectrum(QuotientAlgebra(spec, z), seed=seed).points
    _assert_complete(spec, z, seed, [pt.p for pt in points])


# k = 3 instances whose last point lies far outside any start disk, with
# |t| up to about 130; the loops of z stopped one point short on each
@pytest.mark.parametrize("n,i", [(6, 4), (6, 7), (7, 5), (7, 12), (8, 5)])
def test_route_two_completes_far_fibers(n, i):
    spec = random_generic(n, 3, random.Random(50000 + 100 * n + 30 + i))
    z = sample_z(spec, random.Random(i))
    points = joint_spectrum(QuotientAlgebra(spec, z), seed=i).points
    _assert_complete(spec, z, i, [pt.p for pt in points])


def _dim_70_instance():
    # random_generic(9, 4, Random(9040)) at sample_z(spec, Random(0)), where
    # loops of z stopped at 69 of 70 points.  The stored momenta are the
    # Rayleigh quotients of the eigenvectors of sum_j (-1)^(j-1) (j+1) K_j,
    # each point then refined by 40-digit Newton from the t fitted to them
    spec = random_generic(9, 4, random.Random(9040))
    z = sample_z(spec, random.Random(0))
    stored = json.loads(ROUTE_ONE_9_4.read_text(encoding="utf-8"))
    return spec, z, [tuple(complex(*x) for x in p) for p in stored["p"]]


def test_route_two_completes_a_dim_70_fiber():
    spec, z, stored = _dim_70_instance()
    _assert_complete(spec, z, 0, stored)


def test_route_one_reaches_a_dim_70_fiber():
    # the exact characteristic polynomial's root iteration was still moving
    # after 200 sweeps and minutes here, for seeds 0 and 1 alike
    spec, z, stored = _dim_70_instance()
    res = joint_spectrum(QuotientAlgebra(spec, z), seed=0)
    ok, worst = match_point_sets(stored, [pt.p for pt in res.points], 1e-9)
    assert ok, f"route one differs from the 40-digit momenta by {worst}"


def test_route_two_redraws_a_degenerate_real_fiber():
    # with z purely imaginary every real plane passes through the origin,
    # so the first real fiber has no chamber and the route moves z_r
    rng = random.Random(3)
    spec = random_generic(6, 2, rng)
    z = [1j * float(v) for v in sample_z(spec, rng)]
    stats = {}
    got = newton_multistart(spec, z, seed=1, stats=stats)
    assert len(got) == 10 and stats["redraws"] == 1 and stats["chambers"] == 10
    assert all(pt.grad_norm < 1e-9 for pt in got)
    assert numeric._min_gap([pt.p for pt in got]) > 1e-3


def test_route_two_never_returns_a_short_fiber(monkeypatch):
    # with no damped steps the triangle's start is never certified: the route
    # names the chamber by its lowest vertex in the sweep's height (10, 12),
    # (0, -1) on the planes 1 and 3, and draws no other real fiber
    monkeypatch.setattr(numeric, "_ASCENT_STEPS", 0)
    spec, z = plane_setup()
    stats = {}
    with pytest.raises(NumericError, match=r"^route two certified no maximum in 1 of 1 "
                                           r"bounded chambers, lowest vertices \[\(1, 3\)\]$"):
        newton_multistart(spec, z, seed=9, stats=stats)
    assert stats == {"chambers": 1, "redraws": 0, "paths": 0, "retracked": 0}


def test_newton_determinism():
    spec, z = plane_setup()
    first = newton_multistart(spec, z, seed=9)
    second = newton_multistart(spec, z, seed=9)
    assert first == second


def _gen_instance(n, k, seed):
    """The instance `critvar gen --n n --k k --seed seed` writes."""
    rng = random.Random(seed)
    spec = random_generic(n, k, rng)
    return spec, sample_z(spec, rng)


@pytest.mark.parametrize("n,k", [(5, 2), (6, 3), (7, 1)])
def test_route_seeds_change_the_draws_not_the_points(n, k):
    spec, z = _gen_instance(n, k, 5)
    alg = QuotientAlgebra(spec, z)
    assert joint_spectrum(alg, seed=3) == joint_spectrum(alg, seed=3)
    assert newton_multistart(spec, z, seed=3) == newton_multistart(spec, z, seed=3)
    reference = [pt.p for pt in newton_multistart(spec, z, seed=0)]
    for seed in range(5):
        res = joint_spectrum(alg, seed=seed)
        assert all(type(c) is int and c != 0 and -9 <= c <= 9 for c in res.combination)
        for points in (res.points, newton_multistart(spec, z, seed=seed)):
            ok, worst = match_point_sets(reference, [pt.p for pt in points], 1e-9)
            assert ok, f"seed {seed}: points differ by {worst}"


def test_polish_reports_a_row_that_converges_on_its_last_sweep():
    # count the Newton steps a perturbed root needs, one _polish step at a
    # time, then polish it with exactly that many sweeps
    spec, z = _gen_instance(5, 2, 7)
    a, b, _ = spec.tables(z)
    a, b = np.array(a, dtype=complex), np.array(b, dtype=complex)
    zc = np.array([complex(v) for v in z])
    gtol = numeric._POLISH[1]

    def converged(t):
        f = zc + b @ t
        floor = numeric._gradient_floor(b, a, f[None])[0]
        return bool((np.abs(b.T @ (a / f)) <= gtol * floor).all())

    start = np.array(newton_multistart(spec, z, seed=0)[0].t) + 0.1 * (1 + 1j)
    t, steps = start, 0
    while not converged(t):
        t = numeric._polish(b, a, zc, [t], 1, 0.0)[0][0]
        steps += 1
    assert steps >= 2
    polished, ok = numeric._polish(b, a, zc, [start], steps, gtol)
    assert ok[0] and np.array_equal(polished[0], t)
    assert not numeric._polish(b, a, zc, [start], steps - 1, gtol)[1][0]


def test_the_library_routes_load_no_random_or_relation_layer():
    # numpy.random would bring secrets and _hashlib (libcrypto); the algebra
    # and its operators need neither relations.py nor laurent.py
    script = textwrap.dedent("""
        import json, random, sys
        from critvar.arrangement import random_generic, sample_z
        from critvar.quotient import QuotientAlgebra
        from critvar.spectrum import joint_spectrum, newton_multistart
        rng = random.Random(5)
        spec = random_generic(5, 2, rng)
        z = sample_z(spec, rng)
        joint_spectrum(QuotientAlgebra(spec, z), seed=1)
        newton_multistart(spec, z, seed=1)
        print(json.dumps([m for m in ("numpy", "numpy.random", "secrets", "_hashlib",
                                      "critvar.laurent", "critvar.relations")
                          if m in sys.modules]))
    """)
    out = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert json.loads(out) == ["numpy"]


def test_the_library_route_one_loads_the_numeric_layer_and_no_relation_layer():
    script = textwrap.dedent("""
        import json, random, sys
        from critvar.arrangement import random_generic, sample_z
        from critvar.quotient import QuotientAlgebra
        from critvar.spectrum import joint_spectrum
        rng = random.Random(5)
        spec = random_generic(5, 2, rng)
        joint_spectrum(QuotientAlgebra(spec, sample_z(spec, rng)), seed=1)
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("critvar"))))
    """)
    out = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert json.loads(out) == ["critvar", "critvar.arrangement", "critvar.errors",
                               "critvar.numeric", "critvar.quotient", "critvar.ratmat",
                               "critvar.spectrum"]


def test_match_point_sets_rejects():
    ok, _ = match_point_sets([(0j,)], [(0j,), (1j,)], tol=1.0)
    assert not ok
    ok, worst = match_point_sets([(0j,)], [(0.5 + 0j,)], tol=0.1)
    assert not ok and worst == 0.5


def test_match_point_sets_reports_ambiguity():
    # tol 0.6 is above half the separation of pa: greedy pairs 0 with 0.4
    # and fails, though 0 <-> -0.5 and 1 <-> 0.4 match within tol
    pa, pb = [(0j,), (1 + 0j,)], [(0.4 + 0j,), (-0.5 + 0j,)]
    assert any(all(max(abs(u - v) for u, v in zip(x, pb[j])) <= 0.6 for x, j in zip(pa, perm))
               for perm in itertools.permutations(range(2)))
    ok, _ = match_point_sets(pa, pb, tol=0.6)
    assert not ok
    # every greedy pair lies within tol, but tol cannot tell the points apart
    ok, worst = match_point_sets([(0j,), (1 + 0j,)], [(0.1 + 0j,), (0.9 + 0j,)], tol=0.6)
    assert not ok and worst == pytest.approx(0.1)
    ok, worst = match_point_sets([(0j,), (1 + 0j,)], [(0.1 + 0j,), (0.9 + 0j,)], tol=0.2)
    assert ok and worst == pytest.approx(0.1)


# x^126 + 4100 x^125 + 1: Horner's rule at the starts (radius about 8,200) overflows
_OVERFLOWING = [1, 4100] + [0] * 124 + [1]


@pytest.mark.parametrize("coeffs", [_OVERFLOWING, [float(c) for c in _OVERFLOWING],
                                    [1, 10**400]], ids=["exact", "float", "huge-coefficient"])
def test_poly_roots_outside_float_range_raises_numeric_error(coeffs):
    with pytest.raises(NumericError):
        poly_roots(coeffs)


def test_float_det_matches_numpy():
    # |difference| within 1e-12 of the Hadamard bound, the product of row norms
    rng = np.random.default_rng(21)
    mats = [rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)) for m in range(1, 9)]
    swap = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    swap[0, 0] = 0  # elimination must exchange rows before its first step
    singular = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    singular[3] = 2 * singular[1] - 1j * singular[4]
    for mat in mats + [swap, singular]:
        got = ratmat.det(mat.tolist())
        assert isinstance(got, complex)
        bound = np.prod(np.linalg.norm(mat, axis=1))
        assert abs(got - np.linalg.det(mat)) <= 1e-12 * bound
    assert ratmat.det([[0j, 1], [1, 0]]) == -1
    assert ratmat.det([[1.0, 2.0], [2.0, 4.0]]) == 0


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


@st.composite
def _chart_point_case(draw):
    """(spec, (z, p)): an exact chart point of a generic instance, C(n-1, k) <= 20, any weights."""
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, n - 1).filter(lambda k: math.comb(n - 1, k) <= 20))
    weights = draw(st.lists(st.integers(-5, 5).filter(bool), min_size=n, max_size=n)
                   .filter(lambda a: sum(a) != 0))
    rng = random.Random(draw(st.integers(0, 10**6)))
    spec = random_generic(n, k, rng, coeff_bound=4)
    spec = ArrangementSpec(n=n, k=k, b=spec.b, a=tuple(Fraction(w) for w in weights))
    iset = draw(st.sampled_from(list(k_subsets(n, k))))
    return spec, lag.sample_chart_point(spec, iset, rng)


@settings(derandomize=True, max_examples=35, deadline=None)
@given(_chart_point_case())
def test_the_hessian_identity_is_the_norm_of_the_bethe_vector(case):
    # w = sum_I d_I prod_(i in I) (p_i / a_i) e_I: the coefficient of e_L in
    # iota_a w is prod_(i in L) (p_i / a_i) F_L(p), so w is a singular vector
    # at every point of the variety, and its contravariant norm S(w, w) =
    # sum_I d_I^2 prod_(i in I) p_i^2 / a_i is the Hessian formula up to (-1)^k
    spec, (z, p) = case
    w = {key: spec.plucker(key) * math.prod(p[i - 1] / spec.a[i - 1] for i in key)
         for key in k_subsets(spec.n, spec.k)}
    for lower in k_subsets(spec.n, spec.k - 1):
        keys = {j: tuple(sorted(lower + (j,))) for j in range(1, spec.n + 1) if j not in lower}
        assert sum((-1) ** key.index(j) * spec.a[j - 1] * w[key] for j, key in keys.items()) == 0
    norm = sum(math.prod(spec.a[i - 1] for i in key) * x * x for key, x in w.items())
    assert norm == (-1) ** spec.k * hessian_formula(spec, p)


def smoothness_witness(spec, z, t, iset):
    """The mixed second-derivative determinant over a k-subset, both ways.

    Returns (direct determinant, closed form (-1)^k d_I prod a_j / f_j^2);
    the closed form never vanishes off the hyperplanes, which is the local
    smoothness certificate for the critical-point equations.
    """
    a, b, minors = spec.tables(z, t)
    iset = spec._check_subset(sorted(iset), spec.k)
    fs = spec.hyperplane_values(z, t)
    rows = [[-a[j - 1] * b[j - 1][l] / (fs[j - 1] * fs[j - 1]) for j in iset]
            for l in range(spec.k)]
    direct = ratmat.det(rows)
    closed = (-1) ** spec.k * minors[iset]
    for j in iset:
        closed = closed * a[j - 1] / (fs[j - 1] * fs[j - 1])
    return direct, closed


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


def _second_order(spec, z, t, p):
    """Every second-order figure at one point, in a flat list."""
    iset = tuple(range(1, spec.k + 1))
    return [*(x for row in hessian_matrix(spec, z, t) for x in row),
            hessian_direct(spec, z, t), hessian_formula(spec, p), jacobian_formula(spec, p),
            *smoothness_witness(spec, z, t, iset)]


@pytest.mark.parametrize("n, k, integral", [(5, 2, True), (6, 3, True), (5, 2, False),
                                            (4, 3, False)])
def test_second_order_on_the_float_image(monkeypatch, n, k, integral):
    # complex input runs on the spec's float image: within 1e-14 of the Fraction
    # path, and bit for bit on integer data, where products of entries round
    # nowhere; rational input stays exact either way
    rng = random.Random(40 + n + k)
    spec = random_generic(n, k, rng, coeff_bound=4)
    if not integral:
        b = tuple(tuple(x / (3 + r) for x in row) for r, row in enumerate(spec.b))
        spec = ArrangementSpec(n, k, b, tuple(x / 7 for x in spec.a))
    z = sample_z(spec, rng, bound=6)
    t = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(k)]
    p = spec.momenta(z, t)
    tc = [complex(v) + 0.3j for v in t]
    pc = spec.momenta(z, tc)
    fast, exact = _second_order(spec, z, tc, pc), _second_order(spec, z, t, p)
    with monkeypatch.context() as m:
        m.setattr(ArrangementSpec, "tables", lambda self, *values: self._exact)
        slow = _second_order(spec, z, tc, pc)
        assert _second_order(spec, z, t, p) == exact
    assert all(isinstance(x, Fraction) for x in exact)
    assert all(isinstance(x, complex) for x in fast)
    assert all(abs(u - v) <= 1e-14 * abs(v) for u, v in zip(fast, slow))
    if integral:
        assert fast == slow


def test_combination_from_the_integer_operators_is_the_fraction_sum():
    # joint_spectrum sums the cleared integer operators; the eigenvalues it
    # takes must be those of sum_j c_j K_j over Fraction
    rng = random.Random(63)
    spec = random_generic(6, 2, rng, coeff_bound=4)
    alg = QuotientAlgebra(spec, sample_z(spec, rng, bound=6))
    res = joint_spectrum(alg, seed=4)
    ops = alg.operators()
    comb = [[complex(sum(c * op[r][s] for c, op in zip(res.combination, ops)))
             for s in range(alg.dim)] for r in range(alg.dim)]
    ok, worst = match_point_sets(
        [(lam,) for lam in res.eigenvalues], [(lam,) for lam in np.linalg.eigvals(comb)], 1e-9)
    assert ok, f"eigenvalues off by {worst}"
