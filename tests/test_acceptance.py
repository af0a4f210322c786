"""Acceptance battery: one criterion per test, one printed verdict line each.

Every criterion states its tolerance inline; "exact" means equality of
rationals, no floating point involved.
"""

import json
import math
import random
from fractions import Fraction

from critvar.arrangement import ArrangementSpec, k_subsets, random_generic, sample_z
from critvar.cli import main
from critvar import lagrangian as lag
from critvar import quotient as qt
from critvar.relations import build_relations, g_single, involution_suite
from critvar.spectrum import (
    hessian_direct,
    hessian_formula,
    jacobian_formula,
    joint_spectrum,
    match_point_sets,
    newton_multistart,
)
from test_spectrum import smoothness_witness

F = Fraction


def report(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


def twenty_specs():
    specs = []
    for n in range(3, 8):
        for k in range(1, min(4, n)):
            specs.append(random_generic(n, k, random.Random(100 * n + k)))
    for extra, (n, k) in enumerate([(4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (7, 2)]):
        specs.append(random_generic(n, k, random.Random(9000 + extra)))
    return specs


def line_pair():
    return ArrangementSpec(2, 1, ((F(1),), (F(1),)), (F(1), F(1)))


def plane_triple():
    b = ((F(1), F(0)), (F(0), F(1)), (F(1), F(1)))
    return ArrangementSpec(3, 2, b, (F(1), F(1), F(1)))


def solved_instances():
    out = []
    for n, k, seed, zseed in [(4, 2, 101, 11), (5, 2, 102, 12), (6, 3, 103, 13)]:
        spec = random_generic(n, k, random.Random(seed))
        z = sample_z(spec, random.Random(zseed))
        out.append((spec, z))
    return out


def test_criterion_01_minor_relations_vanish():
    pairs = 0
    for spec in twenty_specs():
        for jseq in k_subsets(spec.n, spec.k + 1):
            for iseq in k_subsets(spec.n, spec.k - 1):
                assert spec.plucker_relation_residual(jseq, iseq) == 0
                pairs += 1
    report(1, "minor relations", True, f"20 instances, {pairs} identities, exact")


def test_criterion_02_discriminant_span_rank():
    for spec in twenty_specs():
        assert spec.span_rank() == spec.n - spec.k
    report(2, "discriminant span rank n-k", True, "20 instances, exact")


def test_criterion_03_generators_in_involution():
    total = 0
    for n, k, seed in [(5, 2, 52), (6, 3, 63)]:
        spec = random_generic(n, k, random.Random(seed))
        reports = involution_suite(spec)
        assert all(r.ok for r in reports)
        total += len(reports)
    report(3, "generator brackets vanish", True, f"{total} brackets, exact")


def test_criterion_04_count_and_two_route_match():
    details = []
    for spec, z in solved_instances():
        want = math.comb(spec.n - 1, spec.k)
        alg = qt.QuotientAlgebra(spec, z)
        assert alg.dim == want
        sp = joint_spectrum(alg, seed=1)
        nw = newton_multistart(spec, z, seed=1, target_count=want)
        assert len(sp.points) == want and len(nw) == want
        ok, worst = match_point_sets(
            [p.p for p in sp.points], [p.p for p in nw], 1e-8
        )
        assert ok
        details.append(f"({spec.n},{spec.k})={want}@{worst:.1e}")
    report(4, "critical count and route match at 1e-8", True, ", ".join(details))


def test_criterion_05_operator_relations_exact():
    checked = 0
    for n, k, seed, zseed in [(4, 2, 101, 11), (5, 3, 104, 14)]:
        spec = random_generic(n, k, random.Random(seed))
        z = sample_z(spec, random.Random(zseed))
        alg = qt.QuotientAlgebra(spec, z)
        zero = [[F(0)] * alg.dim for _ in range(alg.dim)]
        for i in range(1, spec.n + 1):
            for j in range(i + 1, spec.n + 1):
                assert qt.commutator_residual(alg, i, j) == zero
                checked += 1
        for iset in k_subsets(spec.n, spec.k - 1):
            assert qt.first_kind_operator_residual(alg, iset) == zero
            checked += 1
        for jset in k_subsets(spec.n, spec.k + 1):
            assert qt.second_kind_operator_residual(alg, jset) == zero
            checked += 1
        assert qt.euler_operator_residual(alg) == zero
        for iset in k_subsets(spec.n, spec.k):
            assert qt.weighted_sum_operator_residual(alg, iset) == zero
            checked += 1
    report(5, "operator relations", True, f"{checked} matrix identities, exact")


def test_criterion_06_special_vector_map():
    cases = [(4, 2, 101, 11, 1), (4, 2, 101, 11, 3), (5, 2, 102, 12, 1),
             (5, 3, 104, 14, 2)]
    for n, k, seed, zseed, j1 in cases:
        spec = random_generic(n, k, random.Random(seed))
        z = sample_z(spec, random.Random(zseed))
        alg = qt.QuotientAlgebra(spec, z, j1=j1)
        assert alg.mu_consistency() == []
        assert alg.mu_is_isomorphism()
    report(6, "special vector map is a consistent isomorphism", True,
           f"{len(cases)} instances x all index subsets, exact")


def test_criterion_07_worked_examples():
    spec_a = line_pair()
    za = (F(0), F(1))
    alg_a = qt.QuotientAlgebra(spec_a, za)
    assert alg_a.bethe_operator(1) == [[F(-2)]]
    assert alg_a.bethe_operator(2) == [[F(2)]]
    assert alg_a.reduce_monomial(()) == [F(1, 2)]
    assert alg_a.reduce_monomial((2, 2)) == [F(2)]
    assert alg_a.reduce_monomial((1, 2)) == [F(-2)]
    assert hessian_direct(spec_a, za, (F(-1, 2),)) == F(-8)
    assert hessian_formula(spec_a, (F(-2), F(2))) == F(-8)
    assert jacobian_formula(spec_a, (F(-2), F(2))) == F(-1, 2)

    spec_b = plane_triple()
    zb = (F(0), F(0), F(1))
    alg_b = qt.QuotientAlgebra(spec_b, zb)
    pb = (F(-3), F(-3), F(3))
    for j in range(1, 4):
        assert alg_b.bethe_operator(j) == [[pb[j - 1]]]
    assert hessian_direct(spec_b, zb, (F(-1, 3), F(-1, 3))) == F(243)
    assert hessian_formula(spec_b, pb) == F(243)
    assert spec_b.discriminant_form((1, 2, 3)).to_text() == "-1/1*z1 + -1/1*z2 + 1/1*z3"
    assert lag.chart_complete(spec_b, (1, 2), [F(0), F(0)], [F(3)]) == (zb, pb)
    report(7, "worked examples", True, "two closed-form instances, exact")


def test_criterion_08_hessian_identity():
    worst = 0.0
    points = 0
    for spec, z in solved_instances()[:2]:
        for pt in newton_multistart(spec, z, seed=1,
                                    target_count=math.comb(spec.n - 1, spec.k)):
            direct = complex(hessian_direct(spec, z, pt.t))
            formula = complex(hessian_formula(spec, pt.p))
            worst = max(worst, abs(direct - formula) / (1 + abs(direct)))
            points += 1
    report(8, "hessian agrees with momentum formula at 1e-8", worst <= 1e-8,
           f"{points} critical points, worst {worst:.1e}")


def test_criterion_09_jacobian_identities():
    worst = 0.0
    for spec, z in solved_instances()[:2]:
        for pt in newton_multistart(spec, z, seed=1,
                                    target_count=math.comb(spec.n - 1, spec.k)):
            jac = complex(jacobian_formula(spec, pt.p))
            hess = complex(hessian_formula(spec, pt.p)) * (-1) ** spec.n
            for aj, pj in zip(spec.a, pt.p):
                hess *= complex(aj) / (pj * pj)
            worst = max(worst, abs(jac - hess) / (1 + abs(jac)))
    assert worst <= 1e-8

    rng = random.Random(77)
    spec = random_generic(4, 2, random.Random(101))
    z, p = lag.sample_chart_point(spec, (1, 2), rng)
    values = {
        iset: spec.plucker(iset) ** 2 * lag.projection_jacobian(spec, iset, z, p)
        for iset in k_subsets(4, 2)
    }
    assert len(set(values.values())) == 1
    assert next(iter(values.values())) == jacobian_formula(spec, p)

    cols = lag.completion_jacobian(spec, (1, 2), z, p)
    assert lag.projection_jacobian_fd(spec, (1, 2), cols) == lag.projection_jacobian(spec, (1, 2),
                                                                                     z, p)

    witnesses = 0
    for n, k, seed in [(4, 2, 101), (5, 3, 104)]:
        wspec = random_generic(n, k, random.Random(seed))
        wrng = random.Random(5)
        wz = sample_z(wspec, wrng)
        while True:
            t = tuple(F(wrng.randint(-5, 5), wrng.randint(1, 4)) for _ in range(k))
            if all(v != 0 for v in wspec.hyperplane_values(wz, t)):
                break
        for iset in list(k_subsets(n, k))[:4]:
            direct, closed = smoothness_witness(wspec, wz, t, iset)
            assert direct == closed
            witnesses += 1
    report(9, "jacobian identities", True,
           f"corollary 1e-8, chart-independence exact, completion Jacobian exact, "
           f"{witnesses} smoothness witnesses exact")


def test_criterion_10_charts_cover_the_variety():
    rng = random.Random(55)
    checked = transitions = 0
    for n, k, seed in [(4, 2, 101), (5, 3, 104)]:
        spec = random_generic(n, k, random.Random(seed))
        rels = build_relations(spec)
        charts = list(k_subsets(n, k))
        points = []
        for i in range(100):
            iset = charts[i % len(charts)]
            z, p = lag.sample_chart_point(spec, iset, rng)
            assert rels.all_vanish_at(z, p)
            points.append((z, p))
            checked += 1
        for z, p in points[:5]:
            for target in charts[:3]:
                z_part, p_part = lag.chart_coords(spec, target, z, p)
                assert lag.chart_complete(spec, target, z_part, p_part) == (z, p)
                transitions += 1
        z, p = points[0]
        cols = lag.completion_jacobian(spec, charts[0], z, p)
        for target in charts[1:3]:
            want = lag.transition_expected(spec, charts[0], target)
            assert lag.transition_jacobian_fd(spec, target, cols) == want
    report(10, "charts", True,
           f"200 points exact, {transitions} transitions exact, transition Jacobians exact")


def test_criterion_11_flows_preserve_the_variety():
    rng = random.Random(66)
    moves = 0
    for n, k, seed in [(4, 2, 101), (5, 3, 104)]:
        spec = random_generic(n, k, random.Random(seed))
        member = build_relations(spec).all_vanish_at

        for iset in list(k_subsets(n, k))[:2]:
            z, p = lag.sample_chart_point(spec, iset, rng)
            for sub in list(k_subsets(n, k - 1))[:3]:
                z2, p2 = lag.flow_f(spec, sub, F(3, 7), z, p)
                assert p2 == p and member(z2, p2)
                moves += 1
            for sub in list(k_subsets(n, k + 1))[:3]:
                z2, p2 = lag.flow_g(spec, sub, F(1, 5), z, p)
                assert member(z2, p2)
                for j in range(1, n + 1):
                    assert (g_single(spec, j).evaluate(z2, p2)
                            == g_single(spec, j).evaluate(z, p))
                moves += 1
            z2, p2 = lag.scale_action(F(-5, 3), z, p)
            assert member(z2, p2)
            moves += 1
    report(11, "flows preserve the variety", True, f"{moves} flow moves, exact")


def test_criterion_12_determinism(tmp_path):
    spec, z = solved_instances()[0]
    alg = qt.QuotientAlgebra(spec, z)
    assert joint_spectrum(alg, seed=4).eigenvalues == joint_spectrum(alg, seed=4).eigenvalues
    assert (newton_multistart(spec, z, seed=4, target_count=3)
            == newton_multistart(spec, z, seed=4, target_count=3))

    from critvar.arrangement import rat_str

    cfg = {
        "n": spec.n, "k": spec.k,
        "b": [[rat_str(x) for x in row] for row in spec.b],
        "a": [rat_str(x) for x in spec.a],
        "z": [rat_str(x) for x in z],
    }
    path = tmp_path / "det.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for run in range(2):
        out = tmp_path / f"r{run}.json"
        assert main(["solve", "--config", str(path), "--seed", "9",
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        del rep["timing"]
        outs.append(rep)
    assert outs[0] == outs[1]
    report(12, "determinism", True,
           "spectra, point sets and reports repeat bit-for-bit under a seed")
