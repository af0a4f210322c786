"""Numeric access to the critical points, by two independent routes.

Route one goes through the algebra: the right eigenvectors of a random
integer combination of the multiplication operators, from one float eig,
are their common eigenvectors, so every coordinate p_j of every point is
a Rayleigh quotient on them; the t fitted to those momenta is polished by
the same batched Newton that ends route two.  poly_roots, with
ratmat.charpoly, is the exact library tool for the same eigenvalues, and
no command calls it.

Route two never sees the algebra: for real z and positive weights the
critical points of sum_j a_j log f_j are the maxima of its bounded real
chambers, found by one ascent each, and a parameter homotopy carries
that fiber to the given weights and z, solving the critical equations
sum_j a_j b^m_j / f_j = 0 with their analytic Jacobian along the way.

Both routes should produce the same C(n-1, k) points; the test suite and
the solve command insist on it.  The closed forms for the Hessian and
for the Jacobian of the coordinate projection live here too, next to the
direct determinants they are checked against.  The numpy kernels of both
routes live in numeric.py, which the entry points here import on their
first call, so the exact commands neither compile it nor load numpy; the
generic draws of both routes come from random.Random(seed), not numpy.random.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import ratmat

__all__ = [
    "CriticalPoint",
    "SpectrumResult",
    "poly_roots",
    "joint_spectrum",
    "newton_multistart",
    "match_point_sets",
    "hessian_matrix",
    "hessian_direct",
    "hessian_formula",
    "jacobian_formula",
]


class CriticalPoint(namedtuple("CriticalPoint", "t p grad_norm")):
    """t: position in C^k; p: momenta a_j / f_j, length n; grad_norm: sup
    norm of the critical equations at (z, t)."""

    __slots__ = ()


class SpectrumResult(namedtuple("SpectrumResult", "points combination eigenvalues "
                                                   "attempts min_gap momentum_gap")):
    """points: CriticalPoint, sorted by momenta; combination: the integer
    coefficients c_j that were diagonalized; eigenvalues: those of the float
    combination, by np.linalg.eig, sorted; attempts: how many draws until
    one was accepted; min_gap: smallest eigenvalue spacing of the accepted
    draw; momentum_gap: smallest distance between two points' momenta."""

    __slots__ = ()


def poly_roots(coeffs, max_sweeps=200, tol=1e-13):
    """All complex roots of a polynomial, leading coefficient first.

    Aberth's method, sorted by (real, imag); exact (int or Fraction)
    coefficients get further sweeps whose Newton quotients are evaluated
    without rounding (numeric.poly_roots).  A coefficient outside float
    range, and a Horner value, step or root that overflows, raise
    NumericError; the zero polynomial raises UsageError.
    """
    from . import numeric
    return numeric.poly_roots(coeffs, max_sweeps, tol)


def joint_spectrum(alg, seed=0):
    """Critical points as the joint spectrum of the multiplication operators.

    The right eigenvectors of a generic combination sum_j c_j K_j are
    common eigenvectors of the commuting K_j: K_j v = p_j v, with p the
    momenta of the point v belongs to (numeric.joint_spectrum).  A draw of
    c is accepted when every point converges and no two merge; after
    numeric._REDRAWS rejected draws a NumericError reports the counts and
    gaps, rather than returning a fiber with a repeated or unconverged point.
    """
    from . import numeric
    return numeric.joint_spectrum(alg, seed)


def newton_multistart(spec, z, seed=0, target_count=None, stats=None):
    """All critical points of the master function at z, carried from a real fiber.

    For real z and positive weights the critical points are real, one in
    each bounded chamber (Varchenko, Compositio Math. 1995), and there are
    C(n-1, k) of those (Zaslavsky 1975).  So the route finds that fiber,
    redrawing while fewer than target_count (default C(n-1, k)) chambers
    reach a maximum, and a parameter homotopy carries it to the given
    weights and z (numeric.newton_multistart).  A count still short of
    target_count raises NumericError with the counts; a short list is
    never returned.

    Points come back sorted by momenta.  If stats is a dict it receives
    "vertex_starts" (summed over draws), "chambers" (on the last draw),
    "redraws", "paths" and "retracked" (summed over rounds).
    """
    from . import numeric
    return numeric.newton_multistart(spec, z, seed, target_count, stats)


def match_point_sets(pa, pb, tol):
    """Greedy matching of two momenta lists; (matched fully, worst distance).

    Distances are the largest coordinate difference.  Greedy matching is
    provably right only when tol is below half the smallest separation
    within each list: then each point has at most one partner within tol,
    and the greedy pass finds a matching within tol exactly when one
    exists.  Otherwise the answer is ambiguous (greedy may miss a matching
    that exists, or pair points that tol cannot tell apart), and the
    result is (False, worst) even when every greedy pair was within tol.
    """
    if len(pa) != len(pb):
        return False, math.inf
    unused = list(range(len(pb)))
    worst = 0.0
    for x in pa:
        best, best_d = None, math.inf
        for idx in unused:
            d = max(abs(u - v) for u, v in zip(x, pb[idx]))
            if d < best_d:
                best, best_d = idx, d
        if best is None or best_d > tol:
            return False, best_d
        unused.remove(best)
        worst = max(worst, best_d)
    from . import numeric
    separated = all(2 * tol < numeric._min_gap(pts) for pts in (pa, pb))
    return separated, worst


# -- second-order data --------------------------------------------------------


def hessian_matrix(spec, z, t):
    """The k x k matrix of second t-derivatives of the master function."""
    a, b, _ = spec.tables(z, t)
    fs = spec.hyperplane_values(z, t)
    return [[-sum(a[j] * b[j][m] * b[j][l] / (fs[j] * fs[j]) for j in range(spec.n))
             for l in range(spec.k)] for m in range(spec.k)]


def hessian_direct(spec, z, t):
    return ratmat.det(hessian_matrix(spec, z, t))


def hessian_formula(spec, p):
    """(-1)^k sum over k-subsets of d_I^2 prod_{i in I} p_i^2 / a_i.

    Agrees with the direct determinant exactly on the critical set; the sum
    runs over momenta alone, which is what makes it a function on the fiber.
    """
    a, _, minors = spec.tables(p)
    total = 0
    for iset, d in minors.items():
        term = d * d
        for i in iset:
            term = term * p[i - 1] * p[i - 1] / a[i - 1]
        total = total + term
    return (-1) ** spec.k * total


def jacobian_formula(spec, p):
    """d_M^2 times the Jacobian of the chart projection, as a sum over momenta.

    (-1)^(n-k) sum over (n-k)-subsets L of d_{L complement}^2
    prod_{j in L} a_j / p_j^2; independent of which chart M is projected.
    """
    a, _, minors = spec.tables(p)
    total = 0
    for iset, d in minors.items():  # I = L complement
        term = d * d
        for j in range(1, spec.n + 1):
            if j not in iset:
                term = term * a[j - 1] / (p[j - 1] * p[j - 1])
        total = total + term
    return (-1) ** (spec.n - spec.k) * total

