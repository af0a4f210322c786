"""Route one on its own: the exact spectral route to one instance's critical points.

    PYTHONPATH=src python3 perfbench/route_one.py --config CFG --out REPORT

Loads a `critvar gen` config, builds `QuotientAlgebra(spec, z)`, calls
`joint_spectrum(alg, seed)` with the config's seed, and applies the checks
of `critvar solve` that need no Newton solve (critical_count_spectral,
hessian_identity and jacobian_from_hessian at the route-one points) at
solve's default tolerance, computed as `critvar solve` computes them.
Writes a report_v1 document; the exit status follows the CLI: 0 every check
passed, 1 one failed, 2 bad input, 3 a numeric procedure gave up.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from critvar import quotient as qt
from critvar import spectrum as sp
from critvar.arrangement import ArrangementSpec, parse_rat
from critvar.errors import DomainError, NumericError, UsageError

TOL_HESSIAN = 1e-8  # `critvar solve --tol-hessian` default


def check(name, ok, residual=None, count=None, expected=None):
    return {"name": name, "status": "pass" if ok else "fail",
            "residual": residual, "count": count, "expected": expected}


def route_one(spec, z, seed):
    spec.require_rational_weights()
    if not spec.is_off_discriminant(z):
        raise DomainError("the base point lies on the discriminant")
    expected = math.comb(spec.n - 1, spec.k)
    points = sp.joint_spectrum(qt.QuotientAlgebra(spec, z), seed=seed).points
    checks = [check("critical_count_spectral", len(points) == expected,
                    None, len(points), expected)]

    worst = 0.0
    for pt in points:
        h_direct = complex(sp.hessian_direct(spec, z, pt.t))
        h_formula = complex(sp.hessian_formula(spec, pt.p))
        worst = max(worst, abs(h_direct - h_formula) / (1 + abs(h_direct)))
    checks.append(check("hessian_identity", worst <= TOL_HESSIAN,
                        worst, len(points), TOL_HESSIAN))

    worst = 0.0
    for pt in points:
        jac = complex(sp.jacobian_formula(spec, pt.p))
        hess = complex(sp.hessian_formula(spec, pt.p))
        for aj, pj in zip(spec.a, pt.p):
            hess *= complex(aj) / (pj * pj)
        worst = max(worst, abs(jac - (-1) ** spec.n * hess) / (1 + abs(jac)))
    checks.append(check("jacobian_from_hessian", worst <= TOL_HESSIAN,
                        worst, len(points), TOL_HESSIAN))
    return checks


def main(argv=None):
    parser = argparse.ArgumentParser(prog="route_one")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        spec = ArrangementSpec.from_config(raw)
        seed = raw.get("seed", 0)
        checks = route_one(spec, tuple(parse_rat(x) for x in raw["z"]), seed)
    except (OSError, ValueError, KeyError, UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    report = {
        "report": "report_v1",
        "command": "route-one",
        "config": {"n": spec.n, "k": spec.k, "seed": seed},
        "checks": checks,
        "timing": {"seconds": round(time.perf_counter() - started, 6)},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=2) + "\n")
    return 0 if all(c["status"] == "pass" for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
