"""Command-line front end: verify identities, solve instances, drive flows.

Subcommands
-----------
verify   algebraic identity battery for one instance (minor relations,
         rank of the discriminant span, brackets of the generators, and,
         when a base point is supplied, the full operator algebra; its
         identities are proved on the unit vector u once the operators
         commute and u spans the algebra under them).
solve    critical points of one instance two ways (commuting-operator
         spectra, and a homotopy from the real chambers), cross-checked
         against each other and the determinant identities.
flows    chart completion, transitions, generating-function derivatives,
         projection Jacobians and the closed-form flows on sampled points.
gen      draw a fresh generic instance and write it as a config file.

Configs are JSON: {"n", "k", "b" (n rows of k rationals), "a" (n
rationals), optional "z" (n rationals, or "sample"), "seed"}.
Rationals may be written 3, "3", or "-2/5".

Every run emits a report_v1 JSON document: command, the resolved config,
one entry per check (name, status pass/fail/skipped, residual, count,
expected), and timing with "stages": for verify and flows the seconds
spent on each check, keyed by check name in run order.  gen has no
checks; its "diagnostics.gen" counts the nonzero minors and the
discriminant forms nonzero at z, of C(n, k) and C(n, k+1).  solve's
stages are the spectral route ("joint_spectrum"), route two ("newton")
and the Hessian and Jacobian checks at route two's points ("second_order");
its "diagnostics.spectrum" gives route one's accepted integer combination,
its number of draws, and the smallest gaps between its eigenvalues and
between its points' momenta (null for a one-point fiber), and its
"diagnostics.newton" gives route two's counts: the bounded chambers of
the real fiber, listed exactly (ArrangementSpec.bounded_chambers), the
redraws of the real z (1 only when it lay on the discriminant), the
paths tracked from the certified maxima, one per chamber, and the
paths tracked again through a fresh middle point after one was lost or
merged; verify's "diagnostics.verify" gives the path its operator
identities took ("unit_orbit", "full_matrix", or null without a base
point), the identities checked out of the total, and "commutators":
the K_c certified cyclic from u ("cyclic") and the prime p of its
certificate (the scalars w K_c^i u mod p satisfy no recurrence shorter
than the dimension), or nulls,
and the commutator "products" computed: all C(n, 2) pairs commute once
[K_c, K_j] = 0 for every j, as the centralizer of a cyclic matrix is its
polynomials; with no K_c certified every pair is computed.  The path is
"unit_orbit" when the operators commute and quotient_dimension passes:
P(K) e_I = K_I P(K) u.
Complex numbers are [re, im] pairs.  Each
command takes only the tolerances it reads: solve --tol-spectral,
--tol-hessian.  verify and flows read none: flows' three *_fd checks read
exact completion Jacobians (lagrangian.completion_jacobian), passing on 0.
Both of solve's routes end in the same fixed Newton polish, which takes
no tolerance.  gen --out writes the config alone.
Exit status:
0 all checks passed, 1 at least one failed, 2 bad usage or bad input
data, 3 a numeric procedure gave up.  A solve that exits 3 writes its
report, with the checks, stages and diagnostics gathered so far and the
failure as "error", to --out when given; without --out it prints none,
so stdout carries whole reports only.  A reader that closes stdout early
(`| head`) cuts the report short but does not change the exit status.
A finished command (the `critvar` script, `python -m critvar.cli`) flushes
stdout and stderr and ends by os._exit, skipping the interpreter's teardown:
its atexit handlers do not run, so a tool that needs them (coverage in a
subprocess, say) should call main() instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

from .arrangement import (
    ArrangementSpec,
    k_subsets,
    parse_rat,
    random_generic,
    rat_str,
    sample_z,
)
from .errors import DomainError, NumericError, UsageError
# euler_relation is unused here; perfbench/tracing.py wraps it by this module's name.
from .relations import euler_relation, g_single, involution_suite  # noqa: F401
from .spectrum import (
    hessian_direct,
    hessian_formula,
    jacobian_formula,
    joint_spectrum,
    match_point_sets,
    newton_multistart,
)

__all__ = ["main", "run"]

_TOLERANCES = {
    "verify": {},
    "flows": {},
    "solve": {"spectral": 1e-9, "hessian": 1e-8},
}


# -- config and report plumbing ---------------------------------------------------


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    return raw


def _seed(args, raw):
    """--seed if given, else the config's "seed" (default 0), which must be an int."""
    if args.seed is not None:
        return args.seed
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise UsageError(f'"seed" must be an integer, got {seed!r}')
    return seed


def _resolve_z(raw, spec, seed):
    z = raw.get("z")
    if z is None:
        return None
    if z == "sample":
        return sample_z(spec, random.Random(seed))
    if not isinstance(z, list) or len(z) != spec.n:
        raise UsageError('"z" must be a list of n rationals or "sample"')
    return tuple(parse_rat(x) for x in z)


def _config_echo(raw, spec, z, seed):
    echo = spec.to_config()
    if z is not None:
        echo["z"] = [rat_str(x) for x in z]
    elif "z" in raw:
        echo["z"] = raw["z"]
    echo["seed"] = seed
    return echo


def _check(name, ok, residual=None, count=None, expected=None):
    return {
        "name": name,
        "status": "pass" if ok else "fail",
        "residual": residual,
        "count": count,
        "expected": expected,
    }


def _skip(name, reason):
    return dict(_check(name, True), status="skipped", expected=reason)


def _mat_residual(mat):
    return float(max((abs(x) for row in mat for x in row if x), default=0))


def _c_pair(x):
    x = complex(x)
    return [x.real, x.imag]


def _say(text):
    """Print a line; a reader that closed stdout early costs the output, not the status."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # as the signal module's docs advise: later flushes, at exit too, go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(report, out_path, part=None):
    """Print the report, or write it to out_path: only report[part] when part is given."""
    if not out_path:
        return _say(json.dumps(report, indent=2))
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report if part is None else report[part], indent=2) + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write report {out_path}: {exc}") from exc
    passed = sum(1 for c in report["checks"] if c["status"] == "pass")
    _say(f"wrote {out_path}: {passed}/{len(report['checks'])} checks passed")


def _recorder(checks, stages):
    """record(check) appends a check, keying the seconds since the last one by its name."""
    last = time.perf_counter()

    def record(check):
        nonlocal last
        now = time.perf_counter()
        stages[check["name"]] = round(now - last, 6)
        last = now
        checks.append(check)

    return record


def _finish(command, raw, spec, z, seed, checks, stages, started, out_path, extra=None,
            part=None):
    report = {
        "report": "report_v1",
        "command": command,
        "config": _config_echo(raw, spec, z, seed),
        "checks": checks,
        "timing": {"seconds": round(time.perf_counter() - started, 6), "stages": stages},
    }
    if extra:
        report.update(extra)
    _emit(report, out_path, part)
    return 0 if all(c["status"] != "fail" for c in checks) else 1


# -- verify -----------------------------------------------------------------------


def _cmd_verify(args):
    from . import quotient as qt

    started = time.perf_counter()
    raw = _load_config(args.config)
    spec = ArrangementSpec.from_config(raw)
    seed = _seed(args, raw)
    z = _resolve_z(raw, spec, seed)
    checks, stages = [], {}
    record = _recorder(checks, stages)

    pairs = 0
    worst = Fraction(0)
    for jseq in k_subsets(spec.n, spec.k + 1):
        for iseq in k_subsets(spec.n, spec.k - 1):
            worst = max(worst, abs(spec.plucker_relation_residual(jseq, iseq)))
            pairs += 1
    record(_check("minor_relations", worst == 0, float(worst), pairs, 0))

    rank = spec.span_rank()
    record(_check("discriminant_span_rank", rank == spec.n - spec.k,
                  None, rank, spec.n - spec.k))

    reports = involution_suite(spec)
    bad = [r for r in reports if not r.ok]
    record(_check("generator_brackets", not bad, None, len(reports), 0))

    # operator identities: commutator pairs, first kind, second kind, Euler, weighted sums
    n, k = spec.n, spec.k
    diag = {"path": None, "identities_checked": 0,
            "identities_total": math.comb(n, 2) + math.comb(n, k - 1)
            + math.comb(n, k + 1) + 1 + math.comb(n, k),
            "commutators": {"cyclic": None, "prime": None, "products": 0}}
    if z is None:
        for name in ("quotient_dimension", "operator_commutators",
                     "first_kind_operators", "second_kind_operators",
                     "euler_operator", "weighted_sum_operators",
                     "special_vector_map"):
            checks.append(_skip(name, 'needs "z" in the config'))
        return _finish("verify", raw, spec, z, seed, checks, stages, started, args.out,
                       {"diagnostics": {"verify": diag}})

    # K_I u = e_I for every basis monomial I: once the identities below hold,
    # P -> P(K) u maps the quotient onto Q^m, and the p_I span the quotient,
    # so its dimension is m = C(n-1, k)
    alg = qt.QuotientAlgebra(spec, z)
    table = qt._orbit_table(alg, True)
    units = sum(qt._orbit_entry(alg, table, key) == [(1, {c: 1})]
                for c, key in enumerate(alg.basis))
    record(_check("quotient_dimension", units == math.comb(n - 1, k),
                  None, units, math.comb(n - 1, k)))

    # u cyclic for K_c (qt.cyclic_operator): all C(n, 2) pairs commute once
    # n - 1 do; on commuting operators with K_I u = e_I for every basis I,
    # P(K) = 0 iff P(K) u = 0
    cyclic, prime = qt.cyclic_operator(alg)
    pairs = ([(cyclic, j) for j in range(1, n + 1) if j != cyclic] if cyclic
             else [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])
    worst = max(_mat_residual(qt.commutator_residual(alg, i, j)) for i, j in pairs)
    record(_check("operator_commutators", worst == 0, worst, math.comb(n, 2), 0))
    diag["identities_checked"] += math.comb(n, 2)
    diag["commutators"] = {"cyclic": cyclic, "prime": prime, "products": len(pairs)}
    on_unit = worst == 0 and units == alg.dim
    diag["path"] = "unit_orbit" if on_unit else "full_matrix"

    families = [
        ("first_kind_operators", qt.first_kind_operator_residual, k_subsets(n, k - 1)),
        ("second_kind_operators", qt.second_kind_operator_residual, k_subsets(n, k + 1)),
        ("euler_operator", lambda a, _, s: qt.euler_operator_residual(a, s), [None]),
        ("weighted_sum_operators", qt.weighted_sum_operator_residual, k_subsets(n, k)),
    ]
    for name, residual, subsets in families:
        worst, count = 0.0, 0
        for sub in subsets:
            worst = max(worst, _mat_residual(residual(alg, sub, on_unit)))
            count += 1
        record(_check(name, worst == 0, worst, count, 0))
        diag["identities_checked"] += count

    bad_subsets = alg.mu_consistency()
    ok = not bad_subsets and alg.mu_is_isomorphism()
    record(_check("special_vector_map", ok, None,
                  len(alg.all_subsets) - len(bad_subsets),
                  len(alg.all_subsets)))

    return _finish("verify", raw, spec, z, seed, checks, stages, started, args.out,
                   {"diagnostics": {"verify": diag}})


# -- solve ------------------------------------------------------------------------


def _cmd_solve(args):
    from . import numeric  # noqa: F401 -- with numpy, before the clock: stages time the routes
    from . import quotient as qt

    started = time.perf_counter()
    raw = _load_config(args.config)
    spec = ArrangementSpec.from_config(raw)
    spec.require_rational_weights()
    seed = _seed(args, raw)
    z = _resolve_z(raw, spec, seed)
    if z is None:
        raise UsageError('solve needs "z" in the config (a vector or "sample")')
    checks, stages, diagnostics = [], {}, {}
    expected = math.comb(spec.n - 1, spec.k)
    try:
        mark = time.perf_counter()
        spectral = joint_spectrum(qt.QuotientAlgebra(spec, z), seed=seed)
        stages["joint_spectrum"] = round(time.perf_counter() - mark, 6)
        diagnostics["spectrum"] = {
            "combination": list(spectral.combination),
            "draws": spectral.attempts,
            # a one-point fiber has no gap; JSON has no infinity
            "eigenvalue_gap": spectral.min_gap if spectral.min_gap < math.inf else None,
            "momentum_gap": spectral.momentum_gap if spectral.momentum_gap < math.inf else None,
        }
        mark = time.perf_counter()
        newton = newton_multistart(spec, z, seed=seed, target_count=expected,
                                   stats=diagnostics.setdefault("newton", {}))
        stages["newton"] = round(time.perf_counter() - mark, 6)
    except NumericError as exc:
        if args.out:  # stdout carries whole reports only
            _finish("solve", raw, spec, z, seed, checks, stages, started, args.out,
                    {"error": str(exc), "diagnostics": diagnostics})
        raise
    checks.append(_check("critical_count_spectral", len(spectral.points) == expected,
                         None, len(spectral.points), expected))
    checks.append(_check("critical_count_newton", len(newton) == expected,
                         None, len(newton), expected))

    ok, worst = match_point_sets(
        [pt.p for pt in spectral.points], [pt.p for pt in newton], args.tol_spectral
    )
    checks.append(_check("spectral_newton_match", ok, worst,
                         min(len(spectral.points), len(newton)), 0))

    mark = time.perf_counter()
    worst_h = worst_j = 0.0
    for pt in newton:
        h_direct = complex(hessian_direct(spec, z, pt.t))
        hess = complex(hessian_formula(spec, pt.p))
        worst_h = max(worst_h, abs(h_direct - hess) / (1 + abs(h_direct)))
        jac = complex(jacobian_formula(spec, pt.p))
        for aj, pj in zip(spec.a, pt.p):
            hess *= complex(aj) / (pj * pj)
        worst_j = max(worst_j, abs(jac - (-1) ** spec.n * hess) / (1 + abs(jac)))
    stages["second_order"] = round(time.perf_counter() - mark, 6)
    for name, worst in (("hessian_identity", worst_h), ("jacobian_from_hessian", worst_j)):
        checks.append(_check(name, worst <= args.tol_hessian,
                             worst, len(newton), args.tol_hessian))

    points = [
        {
            "t": [_c_pair(v) for v in pt.t],
            "p": [_c_pair(v) for v in pt.p],
            "gradient_norm": pt.grad_norm,
        }
        for pt in newton
    ]
    extra = {
        "points": points,
        "eigenvalue_combination": list(spectral.combination),
        "eigenvalues": [_c_pair(v) for v in spectral.eigenvalues],
        "diagnostics": diagnostics,
    }
    return _finish("solve", raw, spec, z, seed, checks, stages, started, args.out, extra)


# -- flows ------------------------------------------------------------------------


def _cmd_flows(args):
    from . import lagrangian as lag
    from .relations import build_relations  # by module lookup, so a patched one is seen

    started = time.perf_counter()
    raw = _load_config(args.config)
    spec = ArrangementSpec.from_config(raw)
    spec.require_rational_weights()
    seed = _seed(args, raw)
    z = _resolve_z(raw, spec, seed)  # flows reads no base point, but its echo is parsed
    rng = random.Random(seed)
    checks, stages = [], {}
    record = _recorder(checks, stages)

    charts = list(k_subsets(spec.n, spec.k))[:4]
    samples = []
    for iset in charts:
        for _ in range(3):
            samples.append((iset, lag.sample_chart_point(spec, iset, rng)))

    rels = build_relations(spec)
    singles = [g_single(spec, j) for j in range(1, spec.n + 1)]

    good = sum(1 for _, (zz, pp) in samples if rels.all_vanish_at(zz, pp))
    record(_check("chart_membership", good == len(samples),
                  None, good, len(samples)))

    ok_trans, count = True, 0
    for iset, (zz, pp) in samples[: 2 * len(charts)]:
        for target in charts:
            if target == iset:
                continue
            z_part, p_part = lag.chart_coords(spec, target, zz, pp)
            try:
                redone = lag.chart_complete(spec, target, z_part, p_part)
            except DomainError:
                continue
            ok_trans = ok_trans and redone == (zz, pp)
            count += 1
    record(_check("chart_transitions_exact", ok_trans, None, count, 0))

    # one exact completion Jacobian per point the _fd checks read
    fd_points = samples[: len(charts)]
    jacobians = [lag.completion_jacobian(spec, iset, zz, pp) for iset, (zz, pp) in fd_points]

    worst, count = 0, 0
    src = charts[0]  # the chart of samples[0]
    for target in charts:
        if target == src:
            continue
        want = lag.transition_expected(spec, src, target)
        worst = max(worst, abs(lag.transition_jacobian_fd(spec, target, jacobians[0]) - want))
        count += 1
    record(_check("transition_jacobian_fd", worst == 0, float(worst), count, 0))

    worst = max(lag.generating_fd_residual(spec, iset, zz, pp, cols)
                for (iset, (zz, pp)), cols in zip(fd_points, jacobians))
    record(_check("generating_function_fd", worst == 0, float(worst), len(charts), 0))

    _, (zz, pp) = samples[0]
    want = jacobian_formula(spec, pp)
    gaps = []
    for iset in k_subsets(spec.n, spec.k):
        d = spec.plucker(iset)
        gaps.append(abs(d * d * lag.projection_jacobian(spec, iset, zz, pp) - want))
    worst = max(gaps)
    record(_check("projection_chart_independence", worst == 0, float(worst), len(gaps), 0))

    want = lag.projection_jacobian(spec, src, zz, pp)
    worst = abs(lag.projection_jacobian_fd(spec, src, jacobians[0]) - want)
    record(_check("projection_jacobian_fd", worst == 0, float(worst), 1, 0))

    ok_flow, count = True, 0
    s = Fraction(3, 7)
    for iset, (zz, pp) in samples[: len(charts)]:
        g_values = [gj.evaluate(zz, pp) for gj in singles]
        for sub in list(k_subsets(spec.n, spec.k - 1))[:3]:
            z2, p2 = lag.flow_f(spec, sub, s, zz, pp)
            ok_flow = ok_flow and rels.all_vanish_at(z2, p2)
            count += 1
        for sub in list(k_subsets(spec.n, spec.k + 1))[:3]:
            try:
                z2, p2 = lag.flow_g(spec, sub, Fraction(1, 5), zz, pp)
            except DomainError:
                continue
            ok_flow = ok_flow and rels.all_vanish_at(z2, p2)
            for gj, value in zip(singles, g_values):
                ok_flow = ok_flow and gj.evaluate(z2, p2) == value
            count += 1
        z2, p2 = lag.scale_action(Fraction(-5, 3), zz, pp)
        ok_flow = ok_flow and rels.all_vanish_at(z2, p2)
        count += 1
    record(_check("flow_invariance", ok_flow, None, count, 0))

    return _finish("flows", raw, spec, z, seed, checks, stages, started, args.out)


# -- gen --------------------------------------------------------------------------


def _cmd_gen(args):
    started = time.perf_counter()
    if args.n is None or args.k is None:
        raise UsageError("gen needs --n and --k")
    seed = args.seed if args.seed is not None else 0
    rng = random.Random(seed)
    spec = random_generic(args.n, args.k, rng, coeff_bound=args.coeff_bound)
    z = sample_z(spec, rng)
    # facts of the draw, which random_generic and sample_z enforce: not checks
    facts = {"nonzero_minors": sum(1 for key in k_subsets(spec.n, spec.k)
                                   if spec.plucker(key)),
             "nonzero_discriminant_forms": sum(1 for key in k_subsets(spec.n, spec.k + 1)
                                               if spec.discriminant_value(key, z))}
    return _finish("gen", {}, spec, z, seed, [], {}, started, args.out,
                   {"diagnostics": {"gen": facts}}, part="config")


# -- entry point ------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="critvar",
        description="critical-set varieties of translated hyperplane families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="instance JSON file")
    common.add_argument("--seed", type=int, default=None,
                        help="seed overriding the config")
    common.add_argument("--out", default=None, help="write the report here")

    for command, func, text in (
        ("verify", _cmd_verify, "run the identity battery for one instance"),
        ("solve", _cmd_solve, "find and cross-check the critical points"),
        ("flows", _cmd_flows, "exercise charts, Jacobians and flows"),
    ):
        p = sub.add_parser(command, parents=[common], help=text)
        for name, default in _TOLERANCES[command].items():
            p.add_argument(f"--tol-{name}", dest=f"tol_{name}", type=float, default=default)
        p.set_defaults(func=func)

    p = sub.add_parser("gen", help="draw a random generic instance")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--coeff-bound", type=int, default=9)
    p.add_argument("--out", default=None, help="write the config here")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def run(argv=None):
    """main(argv) as a whole process: once the report is out, flush and skip the teardown.

    An exception, argparse's SystemExit included, leaves as it would from main.
    """
    rc = main(argv)
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(rc)


if __name__ == "__main__":
    run()
