"""Every numpy kernel: route one, route two, their shared Newton polish, poly_roots, charpoly.

The entry points, with their contracts, stay in spectrum.py and ratmat.py
and import this module on their first call, so verify, flows and gen
neither compile it nor load numpy.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np

from .arrangement import k_subsets
from .errors import NumericError, UsageError
from .ratmat import _cleared
from .spectrum import CriticalPoint, SpectrumResult

# -- polynomial roots ---------------------------------------------------------


def poly_roots(coeffs, max_sweeps, tol):
    """spectrum.poly_roots: Aberth's method, every approximation repelling the others.

    Starts sit on a circle just outside Fujiwara's root bound 2 max_i
    |c_i|^(1/i); a bound linear in the coefficients would park them so far
    out that the inward march alone could eat the sweep budget.  A root is
    placed when its step is tiny or the polynomial value sits below the
    roundoff of its own Horner evaluation, where ill-conditioned
    coefficients make approximations chatter forever; that floor can lose
    every digit of a spectrum clustered far from the origin, hence the
    exact sweeps.
    """
    try:
        cs = [complex(c) for c in coeffs]
    except OverflowError:
        raise NumericError("a polynomial coefficient is outside float range") from None
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
        if not math.isfinite(mag):
            raise NumericError(f"polynomial value overflows float range at {x}")
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
            if not cmath.isfinite(new_roots[i]):
                raise NumericError(f"root iteration left float range from {x}")
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


# -- the characteristic polynomial --------------------------------------------


def _is_prime(n):
    """Miller-Rabin on the bases 2, 3, 5, 7: exact for odd 19 < n < 3,215,031,751."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    d = (n - 1) >> s
    return math.gcd(n, 3 * 5 * 7 * 11 * 13 * 17 * 19) == 1 and all(  # small factors first
        pow(q, d, n) == 1 or any(pow(q, d << r, n) == n - 1 for r in range(s))
        for q in (2, 3, 5, 7))


def _primes(m, den, bound):
    """The largest odd primes p <= isqrt((2^63 - 1) / m) not dividing den, product > bound."""
    primes, prod, p = [], 1, (math.isqrt((2**63 - 1) // m) - 1) | 1
    while prod <= bound:
        if den % p and _is_prime(p):
            primes.append(p)
            prod *= p
        p -= 2
    return primes


def _minor_bound(lines):
    """(sigma, H) over the columns, or the rows, of a matrix; see charpoly."""
    sigma = bound = 1
    for line in lines:
        s = math.lcm(*(x.denominator for x in line))
        sigma *= s
        bound *= s + sum(abs(x.numerator) * (s // x.denominator) for x in line)
    return sigma, bound


def charpoly(a):
    """ratmat.charpoly, modulo primes and recombined under a proven bound.

    Bound: with s_j the lcm of the denominators of column j, B = A diag(s)
    is an integer matrix; put beta_j = sum_i |B_ij|, sigma = prod_j s_j and
    H = prod_j (s_j + beta_j).  c_i is +- the sum of the principal minors
    det A_S = det B_S / prod_(j in S) s_j over |S| = i, so sigma c_i is an
    integer, and as Hadamard's inequality gives |det B_S| <= prod_(j in S)
    beta_j, |sigma c_i| <= sum over all S of prod_(j in S) beta_j
    prod_(j not in S) s_j = H.  Rows bound it alike; the smaller H is used.

    Residues: with D the lcm of all denominators and M = D A,
    Faddeev-LeVerrier (N_0 = I, W = M N_(k-1), c_k(M) = -tr(W) / k,
    N_k = W + c_k(M) I) runs modulo all primes of _primes(m, D, 2H) at once
    on one (primes, m, m) int64 array, every partial sum below m p^2 < 2^63.
    As det(tI - A) = D^-m det(D t I - M), sigma c_i = sigma c_i(M) D^-i
    mod p; by the Chinese remainder theorem modulo the primes' product
    Q > 2H, the residue of least absolute value is sigma c_i itself.
    """
    m = len(a)
    if any(len(row) != m for row in a):
        raise UsageError("characteristic polynomial of a non-square matrix")
    if not m:
        return [Fraction(1)]
    den, ints = _cleared(a)
    sigma, bound = min(_minor_bound(a), _minor_bound(zip(*a)), key=operator.itemgetter(1))
    primes = _primes(m, den, 2 * bound)
    mods = np.array(primes, dtype=np.int64)
    mat = np.array([[[x % p for x in row] for row in ints] for p in primes], dtype=np.int64)
    work, diag = mat.copy(), np.arange(m)  # work = M N_0
    scale = np.array([sigma % p for p in primes], dtype=np.int64)
    dinv = np.array([pow(den, -1, p) for p in primes], dtype=np.int64)
    residues = []
    for k in range(1, m + 1):
        if k > 1:
            work = np.matmul(mat, work) % mods[:, None, None]
        kinv = np.array([pow(k, -1, p) for p in primes], dtype=np.int64)
        ck = -np.trace(work, axis1=1, axis2=2) % mods * kinv % mods
        work[:, diag, diag] = (work[:, diag, diag] + ck[:, None]) % mods[:, None]
        scale = scale * dinv % mods
        residues.append((ck * scale % mods).tolist())
    total = math.prod(primes)
    weights = [total // p * pow(total // p, -1, p) for p in primes]
    coeffs = [Fraction(1)]
    for res in residues:
        x = sum(map(operator.mul, res, weights)) % total
        coeffs.append(Fraction(x - total if 2 * x > total else x, sigma))
    return coeffs


# -- the operator route -------------------------------------------------------

_REDRAWS = 5  # draws before a route gives up: unconverged or merged points, or short real fibers


def joint_spectrum(alg, seed):
    """spectrum.joint_spectrum.  A draw is: an integer combination c; column s
    of sum_j c_j K_j as one exact _lincomb of the stored columns s
    (QuotientAlgebra.columns), each entry then rounded once; one
    np.linalg.eig; every p_j of every point as the Rayleigh quotient
    v^H K_j v, all at once over the stacked float K_j; t fitted to all
    momenta by one least squares; and one batched _polish at z.  It is
    accepted when every point converges and no two lie within _DEDUP_TOL,
    the distinctness rule of route two (_unsettled).
    """
    from .quotient import _lincomb
    rng = random.Random(seed)
    spec, n, m = alg.spec, alg.spec.n, alg.dim
    cols = [alg.columns(j) for j in range(1, n + 1)]
    kmats = np.array([_to_complex(op, m) for op in cols])
    zc = np.array([complex(v) for v in alg.z])
    a, b, _ = spec.tables(zc)
    a, b = np.array(a, dtype=complex), np.array(b, dtype=complex)
    rejected = []
    for attempt in range(1, _REDRAWS + 1):
        c = [rng.randint(1, 9) * rng.choice((-1, 1)) for _ in range(n)]
        comb = [_lincomb(zip(c, col)) for col in zip(*cols)]
        eigvals, vecs = np.linalg.eig(_to_complex(comb, m))
        p = np.einsum("ri,jri->ij", vecs.conj(), kmats @ vecs)
        t = np.linalg.lstsq(b, (a / p - zc).T, rcond=None)[0].T
        t, ok = _polish(b, a, zc, t, *_POLISH)
        bad = _unsettled(t, ok)
        gap = _min_gap(eigvals)
        if bad.any():
            rejected.append((int((~ok).sum()), int((bad & ok).sum()), gap))
            continue
        points = _critical_points(b, a, zc, t)
        return SpectrumResult(
            points=points,
            combination=tuple(c),
            eigenvalues=tuple(sorted(map(complex, eigvals), key=lambda r: (r.real, r.imag))),
            attempts=attempt,
            min_gap=gap,
            momentum_gap=_min_gap([pt.p for pt in points]),
        )
    raise NumericError(
        f"route one rejected every one of {_REDRAWS} draws of {alg.dim} points; "
        f"(unconverged, merged, smallest eigenvalue gap) per draw: {rejected}")


def _to_complex(cols, dim):
    """The complex matrix with the sparse columns (den, {row: int}); int / int rounds once."""
    out = np.zeros((dim, len(cols)), dtype=complex)
    for c, (d, coords) in enumerate(cols):
        out[list(coords), c] = [x / d for x in coords.values()]
    return out


def _min_gap(values):
    """Smallest distance between two entries: numbers, or points by largest coordinate."""
    if len(values) < 2:
        return math.inf
    arr = np.array(values, dtype=complex).reshape(len(values), -1)
    gaps = np.abs(arr[:, None, :] - arr[None, :, :]).max(axis=2)
    return float(gaps[np.triu_indices(len(arr), 1)].min())


_POLISH = (20, 1e-12)  # sweeps and gradient tolerance of both routes' final polish


def _unsettled(t, ok):
    """Rows of t that did not converge, or lie within _DEDUP_TOL of another converged row."""
    gaps = np.abs(t[:, None] - t[None]).max(axis=2)
    gaps[~ok], gaps[:, ~ok] = np.inf, np.inf
    np.fill_diagonal(gaps, np.inf)
    return ~ok | (gaps < _DEDUP_TOL).any(axis=1)


def _critical_points(b, a, zc, t):
    """CriticalPoint for every row of t, momenta a / f at t, sorted by momenta."""
    p = a / (zc + _apply(b, t))
    grad = np.abs(_apply(b.T, p)).max(axis=1)
    return tuple(sorted((CriticalPoint(tuple(map(complex, ti)), tuple(map(complex, q)), float(g))
                         for ti, q, g in zip(t, p, grad)), key=_momenta_key))


def _momenta_key(pt):
    return tuple(coord for x in pt.p for coord in (x.real, x.imag))


# -- the direct route ---------------------------------------------------------

_ASCENT_STEPS = 100  # damped Newton steps a chamber's start gets to reach its maximum
_RETRACKS = 2  # rounds that retrack the fiber through a fresh middle point, steps quartered
_MAX_STEP = 0.25  # largest share of a segment that path tracking steps by
_MIN_STEP = 1e-4  # smallest share of a segment that path tracking steps by
_DEDUP_TOL = 1e-7  # two points of either route this close in t count as one (_unsettled)


def _apply(mat, rows):
    """mat @ row for every row of a stack, each rounded as that single product is.

    One matrix product over the stack rounds differently; this way a point
    takes the same polish steps alone (route one) as in a batch (route two).
    """
    return (mat @ rows[..., None])[..., 0]


def _solve_rows(mats, rhs):
    """np.linalg.solve on a stack; a row whose matrix is singular comes back NaN."""
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


def _polish(b, a, zc, t, sweeps, gtol):
    """Newton on the bare critical equations at z for every row of t.

    Returns (corrected t, ok): a row is ok when its gradient falls below
    gtol relative to the term scale (see _gradient_floor) before a step or
    after the last of `sweeps` steps, with every hyperplane value finite and
    nonzero on the way.  The (B, k, k) Hessians -sum_j a_j b^m_j b^l_j / f_j^2
    go through one batched solve per sweep.
    """
    t = np.array(t, dtype=complex)
    done = np.zeros(len(t), dtype=bool)
    live = np.arange(len(t))
    for sweep in range(sweeps + 1):
        tl = t[live]
        f = zc + _apply(b, tl)
        sane = np.isfinite(f).all(axis=1) & (np.abs(f).min(axis=1) != 0.0)
        live, tl, f = live[sane], tl[sane], f[sane]
        g = _apply(b.T, a / f)
        close = (np.abs(g) <= gtol * _gradient_floor(b, a, f)).all(axis=1)
        done[live[close]] = True
        live, tl, f, g = live[~close], tl[~close], f[~close], g[~close]
        if not live.size or sweep == sweeps:
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


def _real_fiber(b, a, z):
    """The maximum of sum_j a_j log|f_j| on every bounded chamber, for real z and a >= 1.

    The planes of a k-subset I meet in the vertex v = -b_I^-1 z_I, and
    v + eps b_I^-1 sigma, for sigma in {-1, 1}^k, lies in the orthant sigma
    of those planes; eps, half the smallest |f_j(v)| / |b_j b_I^-1|_1 over
    the other planes, keeps every other f_j on its side.  Every bounded
    chamber has a vertex, so the starts reach them all, and the first start
    of each sign vector stands for its chamber.  Each climbs by the damped
    Newton step d / (1 + delta), delta = sqrt(g . d): with weights >= 1 the
    negated function is a self-concordant barrier of the chamber, so the
    step keeps the chamber and raises the function (Nesterov & Nemirovski
    1994), and once delta < 1/4 _polish converges quadratically without
    leaving it.  A start that leaves the box of the vertices is in an
    unbounded chamber, which has no maximum, and is dropped, as is one
    still climbing after _ASCENT_STEPS steps.  Returns (maxima, number of
    vertex starts).
    """
    n, k = b.shape
    subsets = np.array(list(k_subsets(n, k))) - 1
    inv = np.linalg.inv(b[subsets])
    vertices = -_apply(inv, z[subsets])
    ratio = np.abs(z + _apply(b, vertices)) / np.abs(b @ inv).sum(axis=2)
    np.put_along_axis(ratio, subsets, np.inf, axis=1)
    orthants = np.array(list(itertools.product((-1.0, 1.0), repeat=k))) @ inv.transpose(0, 2, 1)
    starts = (vertices[:, None] + 0.5 * ratio.min(axis=1)[:, None, None] * orthants).reshape(-1, k)
    f = z + _apply(b, starts)
    off = (f != 0).all(axis=1)  # a start on a plane only where z is not generic
    _, first = np.unique(f[off] > 0, axis=0, return_index=True)
    t = starts[off][np.sort(first)]
    ready, live = np.zeros(len(t), dtype=bool), np.arange(len(t))
    for _ in range(_ASCENT_STEPS):
        f = z + _apply(b, t[live])
        g = _apply(b.T, a / f)
        d = _solve_rows((b.T * (a / f**2)[:, None, :]) @ b, g)
        delta = np.sqrt((g * d).sum(axis=1))
        ready[live[delta < 0.25]] = True
        climb = delta >= 0.25
        live, tl = live[climb], t[live[climb]] + d[climb] / (1.0 + delta[climb, None])
        inside = ((tl >= vertices.min(axis=0)) & (tl <= vertices.max(axis=0))).all(axis=1)
        live = live[inside]
        t[live] = tl[inside]
        if not live.size:
            break
    t, ok = _polish(b, a, z, t[ready], *_POLISH)
    return t[ok], len(starts)


def _track(b, a_from, a_to, z_from, z_to, t, shrink=1.0):
    """Carry critical points at (a_from, z_from) along the segment to (a_to, z_to).

    Every row of t is one path, and all paths share one step in the
    segment parameter s: an Euler predictor dt/ds = H^-1 b^T (a dz / f^2
    - da / f), H the stacked Hessians, then _polish at the new (a, z) as
    the corrector.  A corrected point far from where the predictor aimed
    has likely hopped onto a neighbouring path, so that fails the step,
    like a corrector that does not converge.  A failure halves the shared
    step; at the floor _MIN_STEP * shrink the failing paths are dropped,
    never guessed, and the rest go on.  A success grows the step back, up
    to _MAX_STEP * shrink.  Returns (t at the end, ok).
    """
    da, dz = a_to - a_from, z_to - z_from
    t = np.array(t, dtype=complex)
    live = np.arange(len(t))
    tau, dtau = 0.0, 0.1 * shrink
    while tau < 1.0 and live.size:
        ahead = min(1.0, tau + dtau)
        tl = t[live]
        f = z_from + tau * dz + _apply(b, tl)
        w = (a_from + tau * da) / f**2
        velocity = _solve_rows(-(b.T * w[:, None, :]) @ b, _apply(b.T, w * dz - da / f))
        move = velocity * (ahead - tau)
        guess = tl + move
        fixed, good = _polish(b, a_from + ahead * da, z_from + ahead * dz, guess, 6, 1e-10)
        drift = np.abs(fixed - guess).max(axis=1)
        good &= drift <= 0.5 * np.abs(move).max(axis=1) + 1e-8
        if not good.all() and dtau / 2 >= _MIN_STEP * shrink:
            dtau /= 2
            continue
        live = live[good]
        t[live] = fixed[good]
        tau = ahead
        dtau = min(_MAX_STEP * shrink, dtau * 1.4)
    ok = np.zeros(len(t), dtype=bool)
    ok[live] = True
    return t, ok


def newton_multistart(spec, z, seed, target_count, stats):
    """spectrum.newton_multistart.  The real fiber is at z_r = Re z and weights
    a_r in [1, 2] from the seed, one ascent per chamber (_real_fiber); a
    short one redraws z_r, moved at random, up to _REDRAWS draws, the last
    kept regardless.  A coefficient-parameter homotopy (Morgan & Sommese,
    Appl. Math. Comput. 1989) carries it in one batch along (a_r, z_r) ->
    (a_m, z_m) -> (a, z) (_track).  a_m is random complex, and so is z_m
    after a redraw, so the path misses the discriminant with probability
    one and distinct starts end at distinct points.  Two full Newton steps
    at z and the _POLISH polish finish each path.  A lost or merged path
    redoes the round, up to _RETRACKS times, through a fresh (a_m, z_m),
    tracking the whole fiber with steps a quarter as long: which start ends
    where depends on the middle point, and the leg to (a, z) may pass near
    the discriminant.
    """
    n, k = spec.n, spec.k
    if len(z) != n:
        raise UsageError("z has wrong length")
    want = math.comb(n - 1, k) if target_count is None else target_count
    rng = random.Random(seed)

    def normal():  # n standard normal draws
        return np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
    zc = np.array([complex(v) for v in z])
    a, b, _ = spec.tables(zc)
    a, b = np.array(a, dtype=complex), np.array(b)
    counts = {} if stats is None else stats
    counts.update(vertex_starts=0, chambers=0, redraws=0, paths=0, retracked=0)
    for draw in range(_REDRAWS):
        jolt = (float(np.abs(zc).max()) + 1.0) * min(draw, 1)
        a_r, z_r = np.array([rng.uniform(1.0, 2.0) for _ in range(n)]), zc.real + jolt * normal()
        t_r, starts = _real_fiber(b, a_r, z_r)
        counts["vertex_starts"] += starts
        counts.update(chambers=len(t_r), redraws=draw)
        if len(t_r) == want:
            break

    counts["paths"] = len(t_r)
    for attempt in range(_RETRACKS + 1):
        a_m = np.abs(a).mean() * (normal() + 1j * normal())
        z_m = (z_r + zc) / 2 + 1j * jolt * normal()
        counts["retracked"] += len(t_r) * (attempt > 0)
        ends, ok = t_r.astype(complex), np.zeros(len(t_r), dtype=bool)
        rows = np.arange(len(t_r))
        for leg in ((a_r, a_m, z_r, z_m), (a_m, a, z_m, zc)):
            ends[rows], ok[rows] = _track(b, *leg, ends[rows], 4.0**-attempt)
            rows = rows[ok[rows]]
        # the tracker's corrector stops at gradient 1e-10; two full Newton
        # steps at z first bring a path down to rounding
        ends[rows], _ = _polish(b, a, zc, ends[rows], 2, 0.0)
        ends[rows], ok[rows] = _polish(b, a, zc, ends[rows], *_POLISH)
        bad = _unsettled(ends, ok)
        if not bad.any():
            break
    if bad.any() or len(ends) != want:
        raise NumericError(
            f"route two found {int((~bad).sum())} of {want} points: {counts['vertex_starts']} "
            f"vertex starts, {counts['chambers']} chambers after {counts['redraws']} redraws, "
            f"{len(ends)} paths, {counts['retracked']} retracked, {int((~ok).sum())} lost "
            f"and {int((bad & ok).sum())} merged")
    return _critical_points(b, a, zc, ends)
