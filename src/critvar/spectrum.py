"""Numeric access to the critical points, by two independent routes.

Route one goes through the algebra: a random integer combination of the
multiplication operators has an exact characteristic polynomial; its roots
(all of them at once, by Aberth's simultaneous iteration) are the values
of that combination at the critical points, and the joint eigenvectors
hand back every coordinate p_j through Rayleigh quotients.

Route two never sees the algebra: plain Newton iteration on the critical
equations sum_j a_j b^m_j / f_j = 0 from many random starts in a disk,
with the analytic Jacobian, then deduplication; points the starts miss
are reached by monodromy loops of z that carry the found ones along.

Both routes should produce the same C(n-1, k) points; the test suite and
the verify command insist on it.  The closed forms for the Hessian and
for the Jacobian of the coordinate projection live here too, next to the
direct determinants they are checked against.  numpy is imported inside
the functions that use it, so the exact commands never load it.
"""

from __future__ import annotations

import cmath
import math
import operator
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
    polynomial of sum_j c_j K_j, and takes its roots.  The combination is
    summed in int over the cleared operators (int_operator), which also
    give the float operators, each entry rounded once from A_j / D_j.
    Only a draw whose eigenvalues sit within _CLUSTER_TOL of each other is
    discarded; after _REDRAWS such draws a NumericError reports the
    clustering, rather than silently splitting a true multiple point.
    Each eigenvector is the last right-singular vector of the combination
    minus its eigenvalue, every p_j is a Rayleigh quotient on it, and the
    t fitted to those momenta is polished by Newton at z (see
    _point_from_momenta).
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    n = alg.spec.n
    dim = alg.dim
    ops = [alg.int_operator(j) for j in range(1, n + 1)]
    kmats = [_to_complex(den, op) for den, op in ops]
    den = math.lcm(*(d for d, _ in ops))
    tried_gaps = []
    for attempt in range(1, _REDRAWS + 1):
        c = [int(x) for x in rng.integers(1, 10, size=n) * rng.choice([-1, 1], size=n)]
        scales = [cj * (den // d) for cj, (d, _) in zip(c, ops)]
        ints = [[sum(map(operator.mul, scales, entries)) for entries in zip(*rows)]
                for rows in zip(*(op for _, op in ops))]
        eigvals = poly_roots(ratmat.charpoly([[Fraction(x, den) for x in row]
                                              for row in ints]))
        gap = _min_gap(eigvals)
        if dim > 1 and gap <= _CLUSTER_TOL:
            tried_gaps.append(gap)
            continue
        cmat = _to_complex(den, ints)
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


def _to_complex(den, ints):
    """The complex array of ints / den; int / int rounds once, as complex(Fraction) does."""
    import numpy as np
    return np.array([[x / den for x in row] for row in ints], dtype=complex)


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
    a, b, _ = spec.tables(p)
    a, b = np.array(a, dtype=complex), np.array(b, dtype=complex)
    zc = np.array([complex(v) for v in z])
    t, *_ = np.linalg.lstsq(b, a / np.array(p) - zc, rcond=None)
    polished, ok = _polish(b, a, zc, [t], *_POLISH)
    if ok[0]:
        t = polished[0]
        p = a / (zc + b @ t)
    return CriticalPoint(
        t=tuple(complex(x) for x in t),
        p=tuple(complex(x) for x in p),
        grad_norm=float(np.abs(b.T @ (a / (zc + b @ t))).max()),
    )


def _momenta_key(pt):
    return tuple(coord for x in pt.p for coord in (x.real, x.imag))


# -- the direct route ---------------------------------------------------------

_STARTS_PER_POINT = 50  # a round draws this many starts per expected point
_MAX_ITER = 80  # bilinear Newton steps per start
_STALL_LOOPS = 12  # monodromy loops in a row that add no point before the tier stops
_MIN_STEP = 1e-4  # smallest share of a segment that path tracking steps by


def _apply(mat, rows):
    """mat @ row for every row of a stack.

    numpy takes each product in turn with the routine it uses for one
    vector, so a row comes out bit for bit as a single-start run would
    compute it; one matrix product over the stack rounds differently.
    The per-start reference in the tests relies on this to pin the
    batched kernel start by start.
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


def _bilinear_batch(b, a, zc, kernel, scale, t, s, max_iter, tol):
    """Every start of a round at once: bilinear solve, then rational polish.

    Rows of t (B, k) and s (B, n - k) are independent starts.  Returns
    (limits, ok): row i of limits is start i's limit where ok[i] holds;
    a start whose Jacobian turns singular, whose iterate leaves the finite
    numbers, or that runs out of iterations has ok[i] false.  Each Newton
    step stacks the live rows' Jacobians [b w | N f] into one batched
    solve, and rows drop out as they converge or fail.
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
        resid = f * w - a
        done = np.abs(resid).max(axis=1) < 1e-13 * scale
        solved[live[done]] = True
        live, tl, sl, f, w, resid = (x[~done] for x in (live, tl, sl, f, w, resid))
        if not live.size:
            break
        jac = np.concatenate([b * w[:, :, None], kernel * f[:, :, None]], axis=2)
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


def _track(b, a, z_from, z_to, t):
    """Carry critical points at z_from along the segment to z_to, all at once.

    Every row of t is one path, and all paths share one step in the
    segment parameter: an Euler predictor from the stacked Hessians, then
    _polish at the new z as the corrector.  A corrected point that lands
    far from where the predictor aimed has likely hopped onto a
    neighbouring path, so that counts as a failure, like a corrector that
    does not converge.  A failure halves the shared step and retries it;
    at the floor step _MIN_STEP the failing paths are dropped, never
    guessed, and the rest go on.  The step grows back after a success.
    Returns (t at z_to, ok).
    """
    import numpy as np
    dz = z_to - z_from
    t = np.array(t, dtype=complex)
    live = np.arange(len(t))
    tau, dtau = 0.0, 0.1
    while tau < 1.0 and live.size:
        ahead = min(1.0, tau + dtau)
        tl = t[live]
        w = a / (z_from + tau * dz + _apply(b, tl)) ** 2
        velocity = _solve_rows(-(b.T * w[:, None, :]) @ b, _apply(b.T, w * dz))
        move = velocity * (ahead - tau)
        guess = tl + move
        fixed, good = _polish(b, a, z_from + ahead * dz, guess, 6, 1e-10)
        drift = np.abs(fixed - guess).max(axis=1)
        good &= drift <= 0.5 * np.abs(move).max(axis=1) + 1e-8
        if not good.all() and dtau / 2 >= _MIN_STEP:
            dtau /= 2
            continue
        live = live[good]
        t[live] = fixed[good]
        tau = ahead
        dtau = min(0.25, dtau * 1.4)
    ok = np.zeros(len(t), dtype=bool)
    ok[live] = True
    return t, ok


def newton_multistart(
    spec,
    z,
    seed=0,
    tol=_POLISH[1],
    dedup_tol=1e-7,
    target_count=None,
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

    Route two runs plain -> random-s -> monodromy.  When the caller knows
    how many points exist, target_count arms the two escalations, each
    skipped once the count is reached.  First, up to two rounds of starts
    with s drawn at random instead of by least squares (basins seen from
    random s are markedly wider).  Then monodromy: the critical variety is
    irreducible, so loops of z around the discriminant permute a generic
    fiber transitively (Duff, Hill, Jensen, Lee, Leykin & Sommars, IMA J.
    Numer. Anal. 2019).  Each loop draws two random complex base points
    z1, z2 and carries every point found so far around the triangle
    z -> z1 -> z2 -> z as one batch (_track).  A path may come back as
    a point not yet seen.  The tier stops at target_count, or after
    _STALL_LOOPS loops in a row that add nothing.  Returning paths pass
    the same polish and filters at z as every start, so a loop cannot
    invent a point.  Runs that never needed help are unchanged, and a
    short result after all rounds is returned as-is for the caller to
    judge.

    If stats is a dict, each tier that ran ("plain", "random_s",
    "monodromy") is stored in it as {"starts", "converged", "added",
    "seconds"}, summed over the tier's rounds.  For monodromy, starts are
    the paths sent around, converged those that came back and passed the
    polish, and an extra "loops" counts the loops run.
    """
    import numpy as np
    n, k = spec.n, spec.k
    if len(z) != n:
        raise UsageError("z has wrong length")
    n_starts = _STARTS_PER_POINT * math.comb(n - 1, k)
    rng = np.random.default_rng(seed)
    zc = np.array([complex(v) for v in z])
    a, b, _ = spec.tables(zc)
    a, b = np.array(a, dtype=complex), np.array(b, dtype=complex)
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

    def draw(random_s):
        ts, ss = [], []
        for _ in range(n_starts):
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

    def keep(limits):
        """Add the limits that absorb keeps to found; how many that was."""
        kept = absorb(limits)
        found.extend(tuple(complex(x) for x in limits[i]) for i in kept)
        return len(kept)

    def record(tier, started, **counts):
        row = tiers.setdefault(
            tier, dict.fromkeys(("starts", "converged", "added", "seconds"), 0)
        )
        for key, value in counts.items():
            row[key] = row.get(key, 0) + value
        row["seconds"] += time.perf_counter() - started

    def harvest(tier, random_s=False):
        started = time.perf_counter()
        t, s = draw(random_s)
        limits, ok = _bilinear_batch(b, a, zc, kernel, scale, t, s, _MAX_ITER, tol)
        limits = limits[ok]
        record(tier, started, starts=len(t), converged=len(limits), added=keep(limits))

    def monodromy():
        started = time.perf_counter()
        before = len(found)
        loops = idle = sent = back = 0
        size = radius / 2.0
        while len(found) < target_count and idle < _STALL_LOOPS:
            z1, z2 = (size * (rng.normal(size=n) + 1j * rng.normal(size=n))
                      for _ in range(2))
            t = np.array(found, dtype=complex).reshape(-1, k)
            sent += len(t)
            for z_from, z_to in ((zc, z1), (z1, z2), (z2, zc)):
                t, ok = _track(b, a, z_from, z_to, t)
                t = t[ok]
            # the tracker's corrector stops at gradient 1e-10; one full Newton
            # step at z first brings a path as close as a fresh start gets
            t, _ = _polish(b, a, zc, t, 1, 0.0)
            t, ok = _polish(b, a, zc, t, _POLISH[0], tol)
            back += int(ok.sum())
            loops += 1
            idle = 0 if keep(t[ok]) else idle + 1
        record("monodromy", started, starts=sent, converged=back,
               added=len(found) - before, loops=loops)

    harvest("plain")
    if target_count is not None:
        for _ in range(2):
            if len(found) < target_count:
                harvest("random_s", random_s=True)
        if len(found) < target_count:
            monodromy()
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
    a, b, _ = spec.tables(z, t)
    fs = spec.hyperplane_values(z, t)
    return [[-sum(a[j] * b[j][m] * b[j][l] / (fs[j] * fs[j]) for j in range(spec.n))
             for l in range(spec.k)] for m in range(spec.k)]


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
    universe = set(range(1, spec.n + 1))
    for lset in k_subsets(spec.n, spec.n - spec.k):
        d = minors[tuple(sorted(universe - set(lset)))]
        term = d * d
        for j in lset:
            term = term * a[j - 1] / (p[j - 1] * p[j - 1])
        total = total + term
    return (-1) ** (spec.n - spec.k) * total


def smoothness_witness(spec, z, t, iset):
    """The mixed second-derivative determinant over a k-subset, both ways.

    Returns (direct determinant, closed form (-1)^k d_I prod a_j / f_j^2);
    the closed form never vanishes off the hyperplanes, which is the local
    smoothness certificate for the critical-point equations.
    """
    a, b, minors = spec.tables(z, t)
    iset = tuple(sorted(iset))
    if iset not in minors:
        raise UsageError(f"need a k-subset of 1..{spec.n}, got {iset}")
    fs = spec.hyperplane_values(z, t)
    rows = [[-a[j - 1] * b[j - 1][l] / (fs[j - 1] * fs[j - 1]) for j in iset]
            for l in range(spec.k)]
    direct = _det(rows)
    closed = (-1) ** spec.k * minors[iset]
    for j in iset:
        closed = closed * a[j - 1] / (fs[j - 1] * fs[j - 1])
    return direct, closed
