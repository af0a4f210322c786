"""Charts, flows and Jacobians on the variety swept out by critical points.

Over the k-subsets I of {1..n} the variety carries an atlas: in chart I
the free coordinates are (z_i for i in I, p_j for j outside I) and the
remaining 2(n-k) + 2k - n = n coordinates are explicit functions of them:

    p_{i_m} = (-1)^m (1/d_I) sum_{j not in I} d_{(j, I minus i_m)} p_j
    z_j     = a_j/p_j
              + (1/d_I) sum_m (-1)^(m-1) d_{(j, I minus i_m)} G_{i_m},

with G_i = z_i - a_i/p_i and minors taken on the index sequences shown,
extra index in front.  Completion is exact over rationals and works just
as well on floats.  A point's chart vector lists, slot j, whichever of
z_j / p_j is free in the chart; this index-interleaved ordering is what
makes the transition determinant between charts I and I' come out as
(d_{I'} / d_I)^2 rather than that value up to sign.

The same data has a generating function Psi = sum_j a_j ln p_j
- sum_{i in I} z_i p_i with dPsi = sum_{j not in I} z_j dp_j
- sum_{i in I} p_i dz_i on the variety.  The checks here read the columns
of completion_jacobian, taken once per point (the logarithm is
differentiated exactly), and the flows of the defining Hamiltonians
integrate in closed form:

    first kind F_I:  z_j -> z_j + d_{(j,I)} s, momenta fixed;
    G_J:             p_{j_m} -> p_{j_m} + (-1)^m d_{J minus j_m} s,
                     z_{j_m} -> z_{j_m} - a_{j_m}/p_{j_m} + a_{j_m}/p'_{j_m};
    scaling:         (z, p) -> (z / lam, lam p).

Each flow maps the variety to itself, exactly; the tests drive points
along them and re-evaluate every relation.
"""

from __future__ import annotations

from fractions import Fraction

from . import ratmat
from .arrangement import _signed_minor
from .errors import DomainError, GenerationError, UsageError

__all__ = [
    "chart_complete",
    "chart_coords",
    "chart_vector",
    "completion_jacobian",
    "generating_fd_residual",
    "transition_expected",
    "transition_jacobian_fd",
    "projection_jacobian",
    "projection_jacobian_fd",
    "flow_f",
    "flow_g",
    "scale_action",
    "sample_chart_point",
]


# The coarser of _derivative's two steps: at 1e-3 the O(h^4) truncation, and at
# 1e-6 the rounding (near eps / h), reach 4e-6 on some generic instances.
_FD_STEP = 3e-4


def _derivative(fun, base, pos, h):
    """d fun / d base[pos] for a list-valued fun, as (4 D(h/2) - D(h)) / 3 (Richardson).

    D(s) = (fun(base + s e_pos) - fun(base - s e_pos)) / 2s; their h^2 error terms cancel.
    """
    def central(s):
        bump, dip = list(base), list(base)
        bump[pos] += s
        dip[pos] -= s
        return [(u - v) / (2 * s) for u, v in zip(fun(bump), fun(dip))]

    return [(4 * fine - coarse) / 3 for coarse, fine in zip(central(h), central(h / 2))]


def _chart(spec, iset, minors):
    """(comp, d_I, c) for chart I: comp lists j outside I, c[m][j] = d_{(j, I minus i_m)}.

    Kept on the spec per chart and minor table (exact or float image).
    """
    key = (iset, minors is spec._image[2])
    if key not in spec._chart_memo:
        comp = [j for j in range(1, spec.n + 1) if j not in iset]
        signed = [{j: _signed_minor(minors, (j,) + iset[:m] + iset[m + 1 :]) for j in comp}
                  for m in range(len(iset))]
        spec._chart_memo[key] = comp, minors[iset], signed
    return spec._chart_memo[key]


def chart_complete(spec, iset, z_part, p_part):
    """Full (z, p) from chart-I data (z_i for i in I, p_j for j outside I).

    Exact on rational input; other input computes with the spec's float
    image, which rounds every minor and weight as mixing it in would.
    """
    spec.require_rational_weights()
    iset = spec._check_subset(iset, spec.k)
    if len(z_part) != len(iset) or len(p_part) != spec.n - spec.k:
        raise UsageError("chart data has wrong lengths")
    a, _, minors = spec.tables(z_part, p_part)
    comp, d_full, signed = _chart(spec, iset, minors)
    p = [None] * spec.n
    for j, val in zip(comp, p_part):
        p[j - 1] = val
    for m, (i, c) in enumerate(zip(iset, signed)):
        p[i - 1] = (-1) ** (m + 1) * sum(c[j] * p[j - 1] for j in comp) / d_full
    z = [None] * spec.n
    for i, val in zip(iset, z_part):
        z[i - 1] = val
    gvals = []
    for i in iset:
        if p[i - 1] == 0:
            raise DomainError(f"chart degenerates: completed p_{i} vanishes")
        gvals.append(z[i - 1] - a[i - 1] / p[i - 1])
    for j in comp:
        if p[j - 1] == 0:
            raise DomainError(f"momentum p_{j} must be nonzero in this chart")
        acc = a[j - 1] / p[j - 1]
        for m, (c, g) in enumerate(zip(signed, gvals)):
            acc = acc + (-1) ** m * c[j] * g / d_full
        z[j - 1] = acc
    return tuple(z), tuple(p)


def chart_coords(spec, iset, z, p):
    """The free coordinates of a full point in chart I."""
    iset = spec._check_subset(iset, spec.k)
    return [z[i - 1] for i in iset], [p[j - 1] for j in range(1, spec.n + 1) if j not in iset]


def chart_vector(spec, iset, z, p):
    """Length-n chart coordinates in index order: slot j holds z_j or p_j."""
    iset = spec._check_subset(iset, spec.k)
    return [z[j - 1] if j in iset else p[j - 1] for j in range(1, spec.n + 1)]


def completion_jacobian(spec, iset, z, p):
    """_derivative columns of chart I's completion at (z, p), one per chart slot.

    Column j holds d(z_1..z_n, p_1..p_n) / d(slot j) on the complex image.
    """
    base = [complex(v) for v in chart_vector(spec, iset, z, p)]

    def completed(vec):
        zf, pf = chart_complete(spec, iset, *chart_coords(spec, iset, vec, vec))
        return zf + pf

    return [_derivative(completed, base, pos, _FD_STEP) for pos in range(spec.n)]


def generating_fd_residual(spec, iset, z, p, cols):
    """Worst error of dPsi, read off chart I's completion_jacobian cols, against its closed form.

    dPsi = sum_j a_j dp_j/p_j - sum_{i in I} (p_i dz_i + z_i dp_i), the
    logarithm differentiated exactly, should be z_l at slot p_l (l outside
    I) and -p_i at slot z_i (i in I).  The values multiplying the
    differentials are the completion's own, so a point off the variety
    shows up in the comparison.
    """
    iset = spec._check_subset(iset, spec.k)
    free = ([complex(v) for v in part] for part in chart_coords(spec, iset, z, p))
    zc, pc = chart_complete(spec, iset, *free)
    n, weights = spec.n, [complex(x) for x in spec.a]
    worst = 0.0
    for slot, col in enumerate(cols, 1):
        dpsi = sum(w * dp / pv for w, dp, pv in zip(weights, col[n:], pc))
        dpsi -= sum(pc[i - 1] * col[i - 1] + zc[i - 1] * col[n + i - 1] for i in iset)
        want = -complex(p[slot - 1]) if slot in iset else complex(z[slot - 1])
        worst = max(worst, abs(dpsi - want))
    return worst


# -- Jacobians ------------------------------------------------------------------


def transition_expected(spec, iset_from, iset_to):
    """The exact transition determinant (d_{I'} / d_I)^2."""
    return (spec.plucker(tuple(iset_to)) / spec.plucker(tuple(iset_from))) ** 2


def transition_jacobian_fd(spec, iset_to, cols):
    """Finite-difference determinant of the chart-I to chart-I' change from chart I's cols."""
    iset_to = spec._check_subset(iset_to, spec.k)
    # slot j of chart I' holds z_j for j in I', else p_j
    rows = [j - 1 if j in iset_to else spec.n + j - 1 for j in range(1, spec.n + 1)]
    return ratmat.det([[col[r] for col in cols] for r in rows])


def projection_jacobian(spec, iset, z, p):
    """det of dz_j/dp_l over j, l outside I: the chart-I projection Jacobian.

    Entries come from differentiating the completion formulas, so this is
    analytic, and d_I^2 times it is the same number in every chart.
    """
    iset = spec._check_subset(iset, spec.k)
    spec.require_rational_weights()
    a, _, minors = spec.tables(p)
    comp, d_full, signed = _chart(spec, iset, minors)
    # dz_j/dp_l = -[j = l] a_j / p_j^2 - sum_m c[m][j] c[m][l] w_m, w_m = a_i / (p_i d_I)^2
    w = [a[i - 1] / (p[i - 1] * p[i - 1] * d_full * d_full) for i in iset]
    rows = [[-sum(c[j] * c[l] * wm for c, wm in zip(signed, w)) for l in comp] for j in comp]
    for r, j in enumerate(comp):
        rows[r][r] -= a[j - 1] / (p[j - 1] * p[j - 1])
    return ratmat.det(rows)


def projection_jacobian_fd(spec, iset, cols):
    """The same determinant from the z_comp x p_comp block of chart I's cols."""
    iset = spec._check_subset(iset, spec.k)
    comp = [j for j in range(1, spec.n + 1) if j not in iset]
    return ratmat.det([[cols[l - 1][j - 1] for l in comp] for j in comp])


# -- flows ----------------------------------------------------------------------


def flow_f(spec, iset, s, z, p):
    """Time-s flow of the first-kind Hamiltonian over a (k-1)-subset."""
    iset = spec._check_subset(iset, spec.k - 1)
    z_new = [
        z[j - 1] + spec.plucker((j,) + iset) * s for j in range(1, spec.n + 1)
    ]
    return tuple(z_new), tuple(p)


def flow_g(spec, jset, s, z, p):
    """Time-s flow of the antisymmetrized G over a (k+1)-subset.

    Momenta inside the subset move linearly; their z partners move so that
    each single G_j = z_j - a_j/p_j stays put.  Everything else is fixed.
    """
    spec.require_rational_weights()
    jset = spec._check_subset(jset, spec.k + 1)
    z_new, p_new = list(z), list(p)
    for m, j in enumerate(jset):
        rest = jset[:m] + jset[m + 1 :]
        if p[j - 1] == 0:
            raise DomainError(f"flow undefined where p_{j} = 0")
        shifted = p[j - 1] + (-1) ** (m + 1) * spec.plucker(rest) * s
        if shifted == 0:
            raise DomainError(f"flow runs into p_{j} = 0 at this time")
        p_new[j - 1] = shifted
        z_new[j - 1] = (
            z[j - 1] - spec.a[j - 1] / p[j - 1] + spec.a[j - 1] / shifted
        )
    return tuple(z_new), tuple(p_new)


def scale_action(lam, z, p):
    """The scaling (z, p) -> (z / lam, lam p) that preserves every relation."""
    if lam == 0:
        raise UsageError("scale factor must be nonzero")
    return tuple(v / lam for v in z), tuple(lam * v for v in p)


# -- sampling -------------------------------------------------------------------


def sample_chart_point(spec, iset, rng, bound=7, tries=300):
    """A random rational point of the variety with every momentum nonzero."""
    iset = spec._check_subset(iset, spec.k)
    for _ in range(tries):
        z_part = [Fraction(rng.randint(-bound, bound)) for _ in iset]
        p_part = []
        while len(p_part) < spec.n - spec.k:
            v = rng.randint(-bound, bound)
            if v:
                p_part.append(Fraction(v))
        try:
            z, p = chart_complete(spec, iset, z_part, p_part)
        except DomainError:
            continue
        if all(v != 0 for v in p):
            return z, p
    raise GenerationError(f"no nondegenerate chart point found in {tries} draws")
