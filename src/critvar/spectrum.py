"""Numeric access to the critical points, by two independent routes.

Route one goes through the algebra: a random integer combination of the
multiplication operators has an exact characteristic polynomial; its roots
(all of them at once, by Aberth's simultaneous iteration) are the values
of that combination at the critical points, and the joint eigenvectors
hand back every coordinate p_j through Rayleigh quotients.

Route two never sees the algebra: plain Newton iteration on the critical
equations sum_j a_j b^m_j / f_j = 0 from many random starts in a disk,
with the analytic Jacobian, then deduplication.

Both routes should produce the same C(n-1, k) points; the test suite and
the verify command insist on it.  The closed forms for the Hessian and
for the Jacobian of the coordinate projection live here too, next to the
direct determinants they are checked against.  numpy is imported inside
the functions that use it, so the exact commands never load it.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from . import ratmat
from .arrangement import k_subsets
from .errors import NumericError, UsageError

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
    "smoothness_witness",
]


@dataclass(frozen=True)
class CriticalPoint:
    t: tuple  # position in C^k
    p: tuple  # momenta a_j / f_j, length n
    grad_norm: float  # sup norm of the critical equations at (z, t)


@dataclass(frozen=True)
class SpectrumResult:
    points: tuple  # CriticalPoint, sorted by momenta
    combination: tuple  # the integer coefficients c_j that were diagonalized
    eigenvalues: tuple  # roots of the exact characteristic polynomial
    attempts: int  # how many draws until the spectrum separated
    min_gap: float  # smallest eigenvalue spacing of the accepted draw


# -- polynomial roots ---------------------------------------------------------


def poly_roots(coeffs, max_sweeps=200, tol=1e-13):
    """All complex roots of a polynomial, leading coefficient first.

    Aberth's method: every approximation repels the others, so the whole
    root set converges together.  Starts sit on a circle just outside
    Fujiwara's root bound 2 max_i |c_i|^(1/i); a bound linear in the
    coefficients would park the starts so far out that the inward march
    alone could eat the whole sweep budget.  A root counts as placed
    when its step is tiny or when the polynomial value sits below the
    roundoff of its own Horner evaluation, where ill-conditioned
    coefficients make approximations chatter forever.  That floor is only
    as good as the rounded coefficients, and a spectrum clustered far from
    the origin can lose every digit to it; so exact (int or Fraction)
    coefficients get further sweeps whose Newton quotients are evaluated
    without rounding.
    """
    cs = [complex(c) for c in coeffs]
    while cs and cs[0] == 0:
        cs.pop(0)
    if not cs:
        raise UsageError("the zero polynomial has no defined root set")
    deg = len(cs) - 1
    if deg == 0:
        return []
    lead = cs[0]
    cs = [c / lead for c in cs]
    radius = 2.0 * max(abs(c) ** (1.0 / i) for i, c in enumerate(cs[1:], start=1))
    radius = max(radius, 1e-12)
    roots = [
        radius * cmath.exp(2j * cmath.pi * (i + 0.3) / deg + 0.41j) for i in range(deg)
    ]
    eval_eps = (4 * deg + 8) * 2.220446049250313e-16

    def float_newton(x):
        val = der = 0j
        mag = 0.0
        for c in cs:
            der = der * x + val
            val = val * x + c
            mag = mag * abs(x) + abs(c)
        if abs(val) <= eval_eps * mag:
            return None
        return val / der if der != 0 else val

    roots = _aberth(roots, float_newton, max_sweeps, tol)
    if all(isinstance(c, (int, Fraction)) for c in coeffs):
        exact = [Fraction(c) for c in coeffs[len(coeffs) - deg - 1 :]]
        den = math.lcm(*(c.denominator for c in exact))
        ints = [c.numerator * (den // c.denominator) for c in exact]
        roots = _aberth(roots, lambda x: _exact_newton(ints, x), max_sweeps, 1e-15)
    return sorted(roots, key=lambda r: (r.real, r.imag))


def _aberth(roots, newton, max_sweeps, tol):
    """Aberth sweeps until no root moves by tol; newton(x) is p(x)/p'(x), None once placed."""
    for _ in range(max_sweeps):
        moved = 0.0
        new_roots = list(roots)
        for i, x in enumerate(roots):
            w = newton(x)
            if w is None:
                continue
            rep = sum(1.0 / (x - r) for j, r in enumerate(roots) if j != i)
            denom = 1.0 - w * rep
            step = w / denom if denom != 0 else w
            new_roots[i] = x - step
            moved = max(moved, abs(step) / max(1.0, abs(x)))
        roots = new_roots
        if moved < tol:
            return roots
    raise NumericError(f"root iteration still moving after {max_sweeps} sweeps")


def _exact_newton(ints, x):
    """p(x) / p'(x) for integer coefficients, rounded only at the end.

    A float x is X / e, X a Gaussian integer and e a power of two, so
    Horner's rule on the partial values times e^j stays in integers.
    """
    re, im = Fraction(x.real), Fraction(x.imag)
    e = max(re.denominator, im.denominator)
    xr, xi = re.numerator * (e // re.denominator), im.numerator * (e // im.denominator)
    vr = vi = dr = di = 0
    scale = 1
    for c in ints:
        dr, di = dr * xr - di * xi + vr * e, dr * xi + di * xr + vi * e
        vr, vi = vr * xr - vi * xi + c * scale, vr * xi + vi * xr
        scale *= e
    norm = dr * dr + di * di
    if norm == 0:
        return None
    return complex((vr * dr + vi * di) / norm, (vi * dr - vr * di) / norm)


# -- the operator route -------------------------------------------------------

_CLUSTER_TOL = 1e-6  # eigenvalues this close count as one cluster
_REDRAWS = 5  # clustered draws before joint_spectrum gives up


def joint_spectrum(alg, seed=0):
    """Critical points as the joint spectrum of the multiplication operators.

    Draws an integer combination c, computes the exact characteristic
    polynomial of sum_j c_j K_j, and takes its roots.  Only a draw whose
    eigenvalues sit within _CLUSTER_TOL of each other is discarded; after
    _REDRAWS such draws a NumericError reports the clustering, rather
    than silently splitting a true multiple point.  Each eigenvector is the
    last right-singular vector of the combination minus its eigenvalue,
    every p_j is a Rayleigh quotient on it, and the t fitted to those
    momenta is polished by Newton at z (see _point_from_momenta).
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    n = alg.spec.n
    dim = alg.dim
    ops = alg.operators()
    kmats = [np.array(_to_complex(op)) for op in ops]
    tried_gaps = []
    for attempt in range(1, _REDRAWS + 1):
        c = [int(x) for x in rng.integers(1, 10, size=n) * rng.choice([-1, 1], size=n)]
        comb = [[sum(cj * op[r][s] for cj, op in zip(c, ops)) for s in range(dim)]
                for r in range(dim)]
        eigvals = poly_roots(ratmat.charpoly(comb))
        gap = _min_gap(eigvals)
        if dim > 1 and gap <= _CLUSTER_TOL:
            tried_gaps.append(gap)
            continue
        cmat = np.array(_to_complex(comb))
        points = []
        for lam in eigvals:
            vec = np.linalg.svd(cmat - lam * np.eye(dim))[2][-1].conj()
            p = tuple(complex(vec.conj() @ (km @ vec)) for km in kmats)
            points.append(_point_from_momenta(alg.spec, alg.z, p))
        points.sort(key=_momenta_key)
        return SpectrumResult(
            points=tuple(points),
            combination=tuple(c),
            eigenvalues=tuple(eigvals),
            attempts=attempt,
            min_gap=gap,
        )
    raise NumericError(
        f"every one of {_REDRAWS} draws had eigenvalues within {_CLUSTER_TOL} of "
        f"each other (smallest gaps: {sorted(tried_gaps)}); the fiber looks degenerate"
    )


def _to_complex(mat):
    return [[complex(x) for x in row] for row in mat]


def _min_gap(values):
    """Smallest distance between two entries: numbers, or points by largest coordinate."""
    import numpy as np
    if len(values) < 2:
        return math.inf
    arr = np.array(values, dtype=complex).reshape(len(values), -1)
    gaps = np.abs(arr[:, None, :] - arr[None, :, :]).max(axis=2)
    return float(gaps[np.triu_indices(len(arr), 1)].min())


_POLISH = (20, 1e-12)  # sweeps and gradient tolerance of both routes' final polish


def _point_from_momenta(spec, z, p):
    """Rebuild t from momenta by least squares on f_j = a_j / p_j = z_j + (b t)_j.

    Newton at z then polishes t; when it converges, p becomes a / f at the
    polished t, and otherwise the given momenta stand.
    """
    import numpy as np
    b = np.array([[complex(x) for x in row] for row in spec.b])
    a = np.array([complex(x) for x in spec.a])
    zc = np.array([complex(v) for v in z])
    t, *_ = np.linalg.lstsq(b, a / np.array(p) - zc, rcond=None)
    polished = _correct_at(b, a, zc, t, *_POLISH)
    if polished is not None:
        t = polished
        p = a / (zc + b @ t)
    return CriticalPoint(
        t=tuple(complex(x) for x in t),
        p=tuple(complex(x) for x in p),
        grad_norm=float(np.abs(b.T @ (a / (zc + b @ t))).max()),
    )


def _momenta_key(pt):
    return tuple(coord for x in pt.p for coord in (x.real, x.imag))


# -- the direct route ---------------------------------------------------------

_DEFLATION_CHUNK = 256  # starts run at once against one list of found points
_STARTS_PER_POINT = 50  # a round draws this many starts per expected point
_MAX_ITER = 80  # bilinear Newton steps per start (deflated starts get 40 more)


def _apply(mat, rows):
    """mat @ row for every row of a stack.

    numpy takes each product in turn with the routine it uses for one
    vector, so a row comes out bit for bit as a single-start run would
    compute it; one matrix product over the stack rounds differently, and
    the deflated iteration amplifies that into different limits.
    """
    return (mat @ rows[..., None])[..., 0]


def _solve_rows(mats, rhs):
    """np.linalg.solve on a stack; a row whose matrix is singular comes back NaN."""
    import numpy as np
    try:
        return np.linalg.solve(mats, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan, dtype=complex)
        for i, (mat, vec) in enumerate(zip(mats, rhs)):
            try:
                out[i] = np.linalg.solve(mat, vec)
            except np.linalg.LinAlgError:
                pass
        return out


def _bilinear_batch(b, a, zc, kernel, scale, t, s, max_iter, tol, repel=()):
    """Every start of a round at once: bilinear solve, then rational polish.

    Rows of t (B, k) and s (B, n - k) are independent starts.  Returns
    (limits, ok): row i of limits is start i's limit where ok[i] holds;
    a start whose Jacobian turns singular, whose iterate leaves the finite
    numbers, or that runs out of iterations has ok[i] false.  Each Newton
    step stacks the live rows' Jacobians [b w | N f] into one batched
    solve, and rows drop out as they converge or fail.

    With repel nonempty the residual is multiplied by the deflation factor
    prod_r (1 + 1 / |t - r|^2), which turns every known root into a pole
    of the iteration so fresh starts get pushed toward the roots not yet
    seen.  Convergence is still judged on the bare residual, and the
    polish never sees the deflation, so repelling cannot invent a
    solution that was not already there.
    """
    import numpy as np
    k = t.shape[1]
    t, s = t.copy(), s.copy()
    solved = np.zeros(len(t), dtype=bool)
    live = np.arange(len(t))
    for _ in range(max_iter):
        tl, sl = t[live], s[live]
        f = zc + _apply(b, tl)
        w = _apply(kernel, sl)
        base = f * w - a
        done = np.abs(base).max(axis=1) < 1e-13 * scale
        solved[live[done]] = True
        live, tl, sl, f, w, base = (x[~done] for x in (live, tl, sl, f, w, base))
        jac = np.concatenate([b * w[:, :, None], kernel * f[:, :, None]], axis=2)
        resid = base
        if len(repel):
            factor = np.ones(len(live))
            grad_log = np.zeros((len(live), k), dtype=complex)
            on_root = np.zeros(len(live), dtype=bool)  # such a start fails
            with np.errstate(divide="ignore", invalid="ignore"):
                for r in repel:
                    d = tl - r
                    # |d|^2 rounded as np.vdot rounds it for one start
                    q = (np.conj(d)[:, None, :] @ d[:, :, None])[:, 0, 0].real
                    on_root |= q == 0.0
                    factor *= 1.0 + 1.0 / q
                    grad_log += -(1.0 / (q * (q + 1.0)))[:, None] * np.conj(d)
            resid = base * factor[:, None]
            jac = jac * factor[:, None, None]
            jac[:, :, :k] += resid[:, :, None] * grad_log[:, None, :]
            live, tl, sl, resid, jac = (x[~on_root] for x in (live, tl, sl, resid, jac))
        if not live.size:
            break
        step = _solve_rows(jac, -resid)
        tl, sl = tl + step[:, :k], sl + step[:, k:]
        finite = np.isfinite(tl).all(axis=1) & np.isfinite(sl).all(axis=1)
        live = live[finite]
        t[live], s[live] = tl[finite], sl[finite]
    rows = np.flatnonzero(solved)
    t[rows], solved[rows] = _polish(b, a, zc, t[rows], _POLISH[0], tol)
    return t, solved


def _polish(b, a, zc, t, sweeps, gtol):
    """Newton on the bare critical equations at z for every row of t.

    Returns (corrected t, ok): a row is ok when its gradient falls
    below gtol relative to the term scale (see _gradient_floor) within
    `sweeps` steps, with every hyperplane value finite and nonzero on the
    way.  The (B, k, k) Hessians -sum_j a_j b^m_j b^l_j / f_j^2 go through
    one batched solve per sweep.
    """
    import numpy as np
    t = np.array(t, dtype=complex)
    done = np.zeros(len(t), dtype=bool)
    live = np.arange(len(t))
    for _ in range(sweeps):
        tl = t[live]
        f = zc + _apply(b, tl)
        sane = np.isfinite(f).all(axis=1) & (np.abs(f).min(axis=1) != 0.0)
        live, tl, f = live[sane], tl[sane], f[sane]
        g = _apply(b.T, a / f)
        close = (np.abs(g) <= gtol * _gradient_floor(b, a, f)).all(axis=1)
        done[live[close]] = True
        live, tl, f, g = live[~close], tl[~close], f[~close], g[~close]
        if not live.size:
            break
        hess = -(b.T * (a / f**2)[:, None, :]) @ b
        tl = tl + _solve_rows(hess, -g)
        finite = np.isfinite(tl).all(axis=1)
        live = live[finite]
        t[live] = tl[finite]
    return t, done


def _gradient_floor(b, a, f):
    """Componentwise size of the gradient's terms, the scale roundoff sees.

    A root pressed against several hyperplanes has gradient terms of size
    a/|f| that must cancel; no iteration can push the residual below the
    rounding of those terms, so convergence tests are taken relative to
    this scale (which is O(1) at comfortable roots).  f holds one row of
    hyperplane values per point.
    """
    return 1.0 + _apply(abs(b).T, abs(a) / abs(f))


def _correct_at(b, a, zt, t, sweeps=15, gtol=1e-10):
    """Newton on the bare critical equations at fixed z; corrected t or None."""
    out, ok = _polish(b, a, zt, [t], sweeps, gtol)
    return out[0] if ok[0] else None


def _track_paths(b, a, z_from, z_to, roots):
    """Follow critical points along the segment z_from -> z_to.

    Euler predictor from the in-path derivative, a short Newton corrector
    at each step, step size halved on trouble and grown back on success.
    A corrected point that lands far from where the predictor aimed has
    likely hopped onto a neighboring path, so the step is rejected the
    same way; a path that cannot be continued is dropped, never guessed.
    """
    import numpy as np
    dz = z_to - z_from
    survivors = []
    for start in roots:
        tau, dtau = 0.0, 0.1
        cur = np.array(start)
        while True:
            if tau >= 1.0:
                survivors.append(cur)
                break
            ahead = min(1.0, tau + dtau)
            f = z_from + tau * dz + b @ cur
            jac = -(b.T * (a / f**2)) @ b
            rhs = b.T @ ((a / f**2) * dz)
            try:
                velocity = np.linalg.solve(jac, rhs)
            except np.linalg.LinAlgError:
                velocity = None
            corrected = None
            if velocity is not None and np.isfinite(velocity).all():
                predicted_move = velocity * (ahead - tau)
                guess = cur + predicted_move
                corrected = _correct_at(
                    b, a, z_from + ahead * dz, guess, sweeps=6
                )
                if corrected is not None:
                    drift = float(np.abs(corrected - guess).max())
                    allowance = 0.5 * float(np.abs(predicted_move).max()) + 1e-8
                    if drift > allowance:
                        corrected = None
            if corrected is None:
                dtau *= 0.5
                if dtau < 1e-4:
                    break
                continue
            cur, tau = corrected, ahead
            dtau = min(0.25, dtau * 1.4)
    return survivors


def newton_multistart(
    spec,
    z,
    seed=0,
    tol=_POLISH[1],
    dedup_tol=1e-7,
    target_count=None,
    homotopy=True,
    stats=None,
):
    """All critical points of the master function at fixed z, by multistart.

    Starts are uniform in the polydisk of radius 2 (max_j |z_j| + 1).  Raw
    Newton on the rational equations sum_j a_j b^m_j / f_j = 0 has two
    failure modes: points sitting close to a hyperplane get minuscule
    basins, and runs drifting to t = infinity watch the equations flatten
    to zero.  So each start first solves the equivalent bilinear system

        f_j(z, t) (N s)_j = a_j,   j = 1..n,

    where the columns of N span the exact kernel of b^T: the momentum
    vector p = N s satisfies the critical linear relations by construction,
    no denominators appear, and f_j = 0 is impossible at a solution because
    no a_j vanishes.  The initial s is the least-squares fit of a / f at
    the start, from one lstsq call with a column per start of the round.
    Solutions are then polished on the rational form with its analytic
    Jacobian -sum_j a_j b^i_j b^l_j / f_j^2 down to tol relative to the
    componentwise term scale (see _gradient_floor), cross-checked against
    the unit relation sum_j z_j p_j = |a|, and deduplicated at dedup_tol;
    survivors come back sorted by momenta.

    A round draws its starts one by one, always in the same order from the
    seeded generator, and then advances all of them at once
    (_bilinear_batch): every Newton step is one batched solve over the
    starts still running.  The round's limits are then absorbed in start
    order, so the first start to reach a point is the one that keeps it.

    When the caller knows how many points exist, target_count arms three
    escalations, each skipped once the count is reached: extra rounds of
    starts with s drawn at random instead of by least squares (basins
    seen from random s are markedly wider); rounds that deflate the
    residual by every point already found, which digs out roots hiding
    next to hyperplane intersections where uniform starts essentially
    never land; and finally continuation, which solves the same family
    at a fresh random base point, carries that root set through the
    exact scaling equivariance (critical points at g z are g times those
    at z), and tracks it along a complex segment to the requested z.
    A deflated start repels every point found before it, so deflation
    runs speculative chunks of starts against the current list: when a
    start of the chunk adds a point, the starts after it are discarded and
    run again against the longer list.  Candidates from every tier pass
    the same polish and filters at the target, so none of this can invent
    a point.  Runs that never needed help are unchanged, and a short
    result after all rounds is returned as-is for the caller to judge.

    If stats is a dict, each tier that ran ("plain", "random_s",
    "deflation", "continuation") is stored in it as {"starts",
    "converged", "added", "seconds"}, summed over the tier's rounds.
    """
    import numpy as np
    n, k = spec.n, spec.k
    if len(z) != n:
        raise UsageError("z has wrong length")
    n_starts = _STARTS_PER_POINT * math.comb(n - 1, k)
    rng = np.random.default_rng(seed)
    b = np.array([[complex(x) for x in row] for row in spec.b])
    a = np.array([complex(x) for x in spec.a])
    zc = np.array([complex(v) for v in z])
    bt_exact = [[Fraction(spec.b[j][m]) for j in range(n)] for m in range(k)]
    kernel = np.array(
        [[complex(v[j]) for v in ratmat.nullspace(bt_exact)] for j in range(n)]
    )
    radius = 2.0 * (float(np.abs(zc).max()) + 1.0)
    scale = 1.0 + float(np.abs(a).max())
    found = []
    tiers = {}

    def absorb(limits):
        """Indices of the limits kept, in start order: Euler filter, then dedup."""
        f = zc + _apply(b, limits)
        euler = np.abs((zc * (a / f)).sum(axis=1) - np.sum(a))
        rows = np.flatnonzero(euler <= 1e-6 * (1.0 + abs(np.sum(a))))
        if found:
            gaps = np.abs(limits[rows, None, :] - np.array(found)[None]).max(axis=2)
            rows = rows[(gaps >= dedup_tol).all(axis=1)]
        kept = []
        while rows.size:
            kept.append(rows[0])
            rows = rows[np.abs(limits[rows] - limits[rows[0]]).max(axis=1) >= dedup_tol]
        return kept

    def draw(count, random_s):
        ts, ss = [], []
        for _ in range(count):
            mag = radius * np.sqrt(rng.uniform(0.0, 1.0, size=k))
            ang = rng.uniform(0.0, 2.0 * np.pi, size=k)
            t = mag * np.exp(1j * ang)
            if np.abs(zc + b @ t).min() < 1e-9:
                continue
            ts.append(t)
            if random_s:
                ss.append(rng.normal(size=n - k) + 1j * rng.normal(size=n - k))
        t = np.array(ts, dtype=complex).reshape(-1, k)
        if random_s:
            return t, np.array(ss).reshape(-1, n - k)
        rhs = a / (zc + _apply(b, t))
        return t, np.linalg.lstsq(kernel, rhs.T, rcond=None)[0].T

    def record(tier, started, starts, converged, added):
        row = tiers.setdefault(
            tier, dict.fromkeys(("starts", "converged", "added", "seconds"), 0)
        )
        row["starts"] += starts
        row["converged"] += converged
        row["added"] += added
        row["seconds"] += time.perf_counter() - started

    def harvest(count, tier, random_s=False, deflate=False):
        started = time.perf_counter()
        before = len(found)
        t, s = draw(count, random_s)
        iters = _MAX_ITER + 40 if deflate else _MAX_ITER
        pos = converged = 0
        while pos < len(t):
            repel = np.array(found) if deflate else ()
            end = pos + _DEFLATION_CHUNK if deflate else len(t)
            limits, ok = _bilinear_batch(
                b, a, zc, kernel, scale, t[pos:end], s[pos:end], iters, tol, repel
            )
            rows = np.flatnonzero(ok)
            kept = absorb(limits[rows])
            if deflate and kept:
                # the starts after the first new point must repel it too
                rows, kept = rows[: kept[0] + 1], kept[:1]
                end = pos + int(rows[-1]) + 1
            converged += len(rows)
            found.extend(tuple(complex(x) for x in limits[i]) for i in rows[kept])
            pos = end
        record(tier, started, len(t), converged, len(found) - before)

    def continuation_round():
        started = time.perf_counter()
        before = len(found)
        for _ in range(200):
            z0 = tuple(Fraction(int(v)) for v in rng.integers(-9, 10, size=n))
            if spec.is_off_discriminant(z0):
                break
        else:
            return
        base = newton_multistart(
            spec,
            z0,
            seed=int(rng.integers(0, 2**31)),
            tol=tol,
            dedup_tol=dedup_tol,
            target_count=target_count,
            homotopy=False,
        )
        gamma = complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        z0c = np.array([complex(v) for v in z0])
        starts = [gamma * np.array(pt.t) for pt in base]
        ends = np.array(_track_paths(b, a, gamma * z0c, zc, starts)).reshape(-1, k)
        ends, ok = _polish(b, a, zc, ends, 25, tol)
        ends = ends[ok]
        found.extend(tuple(complex(x) for x in ends[i]) for i in absorb(ends))
        record("continuation", started, len(starts), len(ends), len(found) - before)

    harvest(n_starts, "plain")
    if target_count is not None:
        rounds = 0
        while len(found) < target_count and rounds < 2:
            harvest(n_starts, "random_s", random_s=True)
            rounds += 1
        rounds = 0
        while len(found) < target_count and rounds < 3:
            harvest(n_starts, "deflation", deflate=True)
            rounds += 1
        rounds = 0
        while homotopy and len(found) < target_count and rounds < 3:
            continuation_round()
            rounds += 1
    if stats is not None:
        stats.update(tiers)
    points = []
    for t in found:
        f = zc + b @ np.array(t)
        p = tuple(complex(x) for x in a / f)
        g = float(np.abs(b.T @ (a / f)).max())
        points.append(CriticalPoint(t=t, p=p, grad_norm=g))
    points.sort(key=_momenta_key)
    return tuple(points)


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
    separated = all(2 * tol < _min_gap(pts) for pts in (pa, pb))
    return separated, worst


# -- second-order data --------------------------------------------------------


def hessian_matrix(spec, z, t):
    """The k x k matrix of second t-derivatives of the master function."""
    fs = spec.hyperplane_values(z, t)
    rows = []
    for m in range(spec.k):
        row = []
        for l in range(spec.k):
            row.append(-sum(
                spec.a[j] * spec.b[j][m] * spec.b[j][l] / (fs[j] * fs[j])
                for j in range(spec.n)
            ))
        rows.append(row)
    return rows


def _det(rows):
    """Exact determinant for int/Fraction entries, else complex LU, partial pivoting."""
    if all(isinstance(x, (int, Fraction)) for row in rows for x in row):
        return ratmat.det(rows)
    m = [[complex(x) for x in row] for row in rows]
    det = 1 + 0j
    for c in range(len(m)):
        piv = max(range(c, len(m)), key=lambda r: abs(m[r][c]))
        if m[piv][c] == 0:
            return 0j
        if piv != c:
            m[c], m[piv], det = m[piv], m[c], -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def hessian_direct(spec, z, t):
    return _det(hessian_matrix(spec, z, t))


def hessian_formula(spec, p):
    """(-1)^k sum over k-subsets of d_I^2 prod_{i in I} p_i^2 / a_i.

    Agrees with the direct determinant exactly on the critical set; the sum
    runs over momenta alone, which is what makes it a function on the fiber.
    """
    total = 0
    for iset in k_subsets(spec.n, spec.k):
        term = spec.plucker(iset) ** 2
        for i in iset:
            term = term * p[i - 1] * p[i - 1] / spec.a[i - 1]
        total = total + term
    return (-1) ** spec.k * total


def jacobian_formula(spec, p):
    """d_M^2 times the Jacobian of the chart projection, as a sum over momenta.

    (-1)^(n-k) sum over (n-k)-subsets L of d_{L complement}^2
    prod_{j in L} a_j / p_j^2; independent of which chart M is projected.
    """
    total = 0
    universe = set(range(1, spec.n + 1))
    for lset in k_subsets(spec.n, spec.n - spec.k):
        comp = tuple(sorted(universe - set(lset)))
        term = spec.plucker(comp) ** 2
        for j in lset:
            term = term * spec.a[j - 1] / (p[j - 1] * p[j - 1])
        total = total + term
    return (-1) ** (spec.n - spec.k) * total


def smoothness_witness(spec, z, t, iset):
    """The mixed second-derivative determinant over a k-subset, both ways.

    Returns (direct determinant, closed form (-1)^k d_I prod a_j / f_j^2);
    the closed form never vanishes off the hyperplanes, which is the local
    smoothness certificate for the critical-point equations.
    """
    iset = tuple(sorted(iset))
    if len(iset) != spec.k:
        raise UsageError(f"need a k-subset, got {iset}")
    fs = spec.hyperplane_values(z, t)
    rows = []
    for l in range(spec.k):
        rows.append([
            -spec.a[j - 1] * spec.b[j - 1][l] / (fs[j - 1] * fs[j - 1]) for j in iset
        ])
    direct = _det(rows)
    closed = (-1) ** spec.k * spec.plucker(iset)
    for j in iset:
        closed = closed * spec.a[j - 1] / (fs[j - 1] * fs[j - 1])
    return direct, closed
