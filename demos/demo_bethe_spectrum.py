"""Find critical points two independent ways and compare.

At a fixed generic translation z the functions on the critical set form an
algebra of dimension C(n-1, k).  Multiplication by each momentum class gives
a commuting family of matrices; their joint eigenvalues are the momenta of
the critical points.  A homotopy on the original equations, started from
the real chambers of the arrangement, must land on the same points — and
the Hessian at each point must match the closed momentum formula.
"""

import math
import random
from fractions import Fraction

from critvar import (
    QuotientAlgebra,
    hessian_formula,
    jacobian_formula,
    joint_spectrum,
    match_point_sets,
    newton_multistart,
    rat_str,
)
from critvar.arrangement import ArrangementSpec

F = Fraction


def main():
    b = ((F(1), F(0)), (F(0), F(1)), (F(1), F(1)), (F(1), F(-1)))
    spec = ArrangementSpec(4, 2, b, (F(1), F(2), F(1), F(1)))
    z = (F(0), F(0), F(1), F(2))

    alg = QuotientAlgebra(spec, z)
    print(f"algebra dimension: {alg.dim} = C({spec.n - 1}, {spec.k})")
    print(f"monomial basis (k-subsets avoiding hyperplane {alg.j1}): {alg.basis}")
    print("\nmultiplication by the first momentum class:")
    for row in alg.bethe_operator(1):
        print("  [" + "  ".join(f"{rat_str(x):>6}" for x in row) + "]")

    sp = joint_spectrum(alg, seed=0)
    nw = newton_multistart(spec, z, seed=0, target_count=alg.dim)
    ok, worst = match_point_sets([pt.p for pt in sp.points], [pt.p for pt in nw], 1e-8)
    print(f"\nspectral route found {len(sp.points)} points "
          f"(separating combination c = {sp.combination})")
    print(f"homotopy route found {len(nw)} points")
    print(f"the point sets match: {ok}  (worst momentum gap {worst:.2e})")

    print("\nper-point checks:")
    for pt in nw:
        hess = hessian_formula(spec, pt.p)
        jac = jacobian_formula(spec, pt.p)
        ratio = hess * (-1) ** spec.n * math.prod(
            complex(a) / (p * p) for a, p in zip(spec.a, pt.p)
        )
        print(f"  t = ({', '.join(f'{v:.6f}' for v in pt.t)})"
              f"  |grad| = {pt.grad_norm:.1e}"
              f"  jacobian/hessian identity gap = {abs(jac - ratio):.1e}")


if __name__ == "__main__":
    main()
