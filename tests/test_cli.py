"""End-to-end runs of the command-line front end."""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import critvar
from critvar import quotient as qt
from critvar import cli, numeric
from critvar import lagrangian as lag
from critvar.arrangement import ArrangementSpec, random_generic, rat_str, sample_z
from critvar.cli import main
from test_ratmat import identity


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "n": 4,
        "k": 2,
        "b": [["1", "0"], ["0", "1"], ["1", "1"], ["1", "-1"]],
        "a": ["1", "2", "1", "1"],
        "z": ["0", "0", "1", "2"],
        "seed": 1,
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_verify_reports_every_identity(config_path, capsys):
    rc, report = run_json(capsys, ["verify", "--config", config_path])
    assert rc == 0
    assert report["report"] == "report_v1"
    assert report["command"] == "verify"
    names = {c["name"] for c in report["checks"]}
    assert {"minor_relations", "generator_brackets", "operator_commutators",
            "special_vector_map"} <= names
    assert all(c["status"] == "pass" for c in report["checks"])
    # one entry per check, in run order
    assert list(report["timing"]["stages"]) == [c["name"] for c in report["checks"]]
    # 6 commutator pairs (from 3 products with K_1), 4 + 4 first and second
    # kind, 1 Euler, 6 weighted sums
    assert report["diagnostics"] == {"verify": {
        "path": "unit_orbit", "identities_checked": 21, "identities_total": 21,
        "commutators": {"cyclic": 1, "prime": 2**31 - 1, "products": 3}}}


@pytest.mark.parametrize("attr, fake, rc, statuses, commutators, path", [
    ("cyclic_operator", lambda alg: (None, None), 0,
     {}, {"cyclic": None, "prime": None, "products": 6}, "unit_orbit"),
    ("commutator_residual", lambda alg, i, j: identity(alg.dim), 1,
     {"operator_commutators": "fail"}, {"cyclic": 1, "prime": 2**31 - 1, "products": 3},
     "full_matrix"),
], ids=["cyclicity", "commutators"])
def test_the_path_follows_commutation_and_the_dimension(config_path, capsys, monkeypatch,
                                                      attr, fake, rc, statuses, commutators,
                                                      path):
    # commutators that do not vanish send every family to full matrices; with
    # no K_c certified cyclic from u all pairs are multiplied out, and the
    # families stay on u, since the pairs commute and K_I u = e_I for every
    # basis monomial I
    flags = []
    second_kind = qt.second_kind_operator_residual

    def spy(alg, jset, on_unit=False):
        flags.append(on_unit)
        return second_kind(alg, jset, on_unit)

    monkeypatch.setattr(qt, attr, fake)
    monkeypatch.setattr(qt, "second_kind_operator_residual", spy)
    got, report = run_json(capsys, ["verify", "--config", config_path])
    assert got == rc
    assert {c["name"]: c["status"] for c in report["checks"]
            if c["status"] != "pass"} == statuses
    assert flags and set(flags) == {path == "unit_orbit"}
    assert report["diagnostics"]["verify"] == {
        "path": path, "identities_checked": 21, "identities_total": 21,
        "commutators": commutators}


def test_a_basis_entry_off_e_i_leaves_the_unit_path_with_k_c_certified(config_path, capsys,
                                                                      monkeypatch):
    # K_{(2, 3)} u doubled in the unit table: quotient_dimension counts m - 1,
    # so u is not proved to span the algebra, and a certified K_c does not
    # license the unit path alone; every identity is proved on full matrices
    orbit_table = qt._orbit_table

    def corrupted(alg, on_unit):
        table = orbit_table(alg, on_unit)
        if on_unit:
            table.setdefault(alg.basis[0], [(1, {0: 2})])
        return table

    monkeypatch.setattr(qt, "_orbit_table", corrupted)
    rc, report = run_json(capsys, ["verify", "--config", config_path])
    assert rc == 1
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name.pop("quotient_dimension") == {
        "name": "quotient_dimension", "status": "fail", "residual": None, "count": 2,
        "expected": 3}
    assert {c["status"] for c in by_name.values()} == {"pass"}
    assert report["diagnostics"]["verify"] == {
        "path": "full_matrix", "identities_checked": 21, "identities_total": 21,
        "commutators": {"cyclic": 1, "prime": 2**31 - 1, "products": 3}}


@pytest.fixture
def six_two_path(tmp_path, capsys):
    path = tmp_path / "six_two.json"
    assert main(["gen", "--n", "6", "--k", "2", "--seed", "62", "--out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def _commutator_spy(monkeypatch):
    calls = []
    residual = qt.commutator_residual

    def spy(alg, i, j):
        calls.append((i, j))
        return residual(alg, i, j)

    monkeypatch.setattr(qt, "commutator_residual", spy)
    return calls


def test_a_perturbed_operator_fails_the_cyclic_commutators(six_two_path, capsys,
                                                           monkeypatch):
    # entry (1, 2) of K_3 off by one: [K_1, K_3] is among the n - 1 products
    build = qt.QuotientAlgebra.columns

    def perturbed(alg, j):
        cols = list(build(alg, j))  # a copy: the stored columns stay honest
        if j == 3:
            cols[2] = qt._lincomb([(1, cols[2]), (1, (1, {1: 1}))])
        return cols

    monkeypatch.setattr(qt.QuotientAlgebra, "columns", perturbed)
    calls = _commutator_spy(monkeypatch)
    rc, report = run_json(capsys, ["verify", "--config", six_two_path])
    assert rc == 1
    check = next(c for c in report["checks"] if c["name"] == "operator_commutators")
    assert check["status"] == "fail" and check["residual"] > 0 and check["count"] == 15
    assert calls == [(1, j) for j in range(2, 7)]
    # K_3 moves K_I u off e_I for some basis monomials I holding 3
    check = next(c for c in report["checks"] if c["name"] == "quotient_dimension")
    assert check["status"] == "fail" and 0 < check["count"] < check["expected"] == 10
    assert report["diagnostics"]["verify"]["commutators"] == {
        "cyclic": 1, "prime": 2**31 - 1, "products": 5}


def test_no_certified_operator_multiplies_every_pair(six_two_path, capsys, monkeypatch):
    monkeypatch.setattr(qt, "_minimal_polynomial", lambda seq, p: [1])
    calls = _commutator_spy(monkeypatch)
    rc, report = run_json(capsys, ["verify", "--config", six_two_path])
    assert rc == 0
    assert calls == [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    check = next(c for c in report["checks"] if c["name"] == "operator_commutators")
    assert check["status"] == "pass" and check["count"] == 15
    diag = report["diagnostics"]["verify"]
    assert diag["commutators"] == {"cyclic": None, "prime": None, "products": 15}
    assert diag["identities_checked"] == diag["identities_total"]


def test_a_zero_unit_fails_the_dimension_and_every_identity_runs_in_full(six_two_path,
                                                                          capsys, monkeypatch):
    # with u = 0 no K_I u is e_I, so quotient_dimension fails with count 0; no
    # Krylov matrix from u has full rank either: every pair is multiplied out,
    # and each identity is proved on the full matrices, so those checks pass
    normal_form = qt.QuotientAlgebra._normal_form
    monkeypatch.setattr(qt.QuotientAlgebra, "_normal_form",
                        lambda alg, key: (1, {}) if key == () else normal_form(alg, key))
    calls = _commutator_spy(monkeypatch)
    rc, report = run_json(capsys, ["verify", "--config", six_two_path])
    assert rc == 1
    assert calls == [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name.pop("quotient_dimension") == {
        "name": "quotient_dimension", "status": "fail", "residual": None, "count": 0,
        "expected": 10}
    assert {c["status"] for c in by_name.values()} == {"pass"}
    diag = report["diagnostics"]["verify"]
    assert diag["path"] == "full_matrix"
    assert diag["commutators"] == {"cyclic": None, "prime": None, "products": 15}
    assert diag["identities_checked"] == diag["identities_total"]


def test_a_unit_path_verify_builds_one_orbit_table(six_two_path, capsys, monkeypatch):
    algebras = []
    certify = qt.cyclic_operator

    def spy(alg):
        algebras.append(alg)
        return certify(alg)

    monkeypatch.setattr(qt, "cyclic_operator", spy)
    rc, report = run_json(capsys, ["verify", "--config", six_two_path])
    assert rc == 0 and report["diagnostics"]["verify"]["path"] == "unit_orbit"
    assert [list(alg._orbits) for alg in algebras] == [[True]]


def test_verify_without_base_point_skips_operator_checks(tmp_path, capsys):
    cfg = {"n": 3, "k": 1, "b": [["1"], ["2"], ["-1"]], "a": ["1", "1", "2"]}
    path = tmp_path / "nz.json"
    path.write_text(json.dumps(cfg))
    rc, report = run_json(capsys, ["verify", "--config", str(path)])
    assert rc == 0
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["minor_relations"] == "pass"
    assert statuses["operator_commutators"] == "skipped"
    assert list(report["timing"]["stages"]) == [
        "minor_relations", "discriminant_span_rank", "generator_brackets"]
    # 3 commutator pairs, 1 + 3 first and second kind, 1 Euler, 3 weighted sums
    assert report["diagnostics"]["verify"] == {
        "path": None, "identities_checked": 0, "identities_total": 11,
        "commutators": {"cyclic": None, "prime": None, "products": 0}}


def test_verify_checks_every_minor_relation_pair(tmp_path, capsys):
    out = tmp_path / "seven.json"
    assert main(["gen", "--n", "7", "--k", "3", "--seed", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    cfg = json.loads(out.read_text())
    del cfg["z"]
    out.write_text(json.dumps(cfg))
    rc, report = run_json(capsys, ["verify", "--config", str(out)])
    assert rc == 0
    minors = next(c for c in report["checks"] if c["name"] == "minor_relations")
    assert minors["status"] == "pass"
    assert minors["count"] == math.comb(7, 4) * math.comb(7, 2)


def test_solve_finds_and_cross_checks_critical_points(config_path, capsys):
    rc, report = run_json(capsys, ["solve", "--config", config_path])
    assert rc == 0
    assert len(report["points"]) == 3
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["spectral_newton_match"] == "pass"
    assert statuses["hessian_identity"] == "pass"
    for pt in report["points"]:
        assert len(pt["t"]) == 2 and len(pt["p"]) == 4
        assert all(len(pair) == 2 for pair in pt["t"] + pt["p"])
    # route two reports its counts, and its seconds are one timing stage;
    # four lines in the plane bound C(3, 2) chambers, each climbed once
    assert report["diagnostics"]["newton"] == {
        "chambers": 3, "redraws": 0, "paths": 3, "retracked": 0}
    assert set(report["timing"]["stages"]) == {"joint_spectrum", "newton", "second_order"}


def test_solve_reports_route_one_diagnostics(config_path, capsys):
    rc, report = run_json(capsys, ["solve", "--config", config_path])
    assert rc == 0
    diag = report["diagnostics"]["spectrum"]
    assert list(diag) == ["combination", "draws", "eigenvalue_gap", "momentum_gap"]
    assert diag["combination"] == report["eigenvalue_combination"]
    assert diag["draws"] == 1
    eigs = [complex(*pair) for pair in report["eigenvalues"]]
    momenta = [[complex(*pair) for pair in pt["p"]] for pt in report["points"]]
    assert diag["eigenvalue_gap"] == pytest.approx(min(
        abs(u - v) for i, u in enumerate(eigs) for v in eigs[i + 1:]), rel=1e-12)
    assert 0 < diag["momentum_gap"] == pytest.approx(min(
        max(abs(x - y) for x, y in zip(p, q))
        for i, p in enumerate(momenta) for q in momenta[i + 1:]), rel=1e-6)


def test_solve_reaches_dimension_126(tmp_path, capsys):
    # `critvar gen --n 10 --k 4 --seed 5`: the root iteration on the exact
    # characteristic polynomial overflowed here and solve gave up with exit 3
    rc, report = run_json(capsys, ["solve", "--config", _generated(tmp_path, capsys, 10, 4, 5)])
    assert rc == 0
    assert len(report["points"]) == math.comb(9, 4) == 126
    assert all(c["status"] == "pass" for c in report["checks"])


def _generated(tmp_path, capsys, n, k, seed):
    path = tmp_path / f"gen_{n}_{k}_{seed}.json"
    assert main(["gen", "--n", str(n), "--k", str(k), "--seed", str(seed),
                 "--out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def test_both_routes_polish_alike(tmp_path, capsys):
    # route one used to stop its polish at gtol 1e-10 where route two goes
    # on to 1e-12, and the two then differed by 5.0e-9 here
    rc, report = run_json(capsys, ["solve", "--config", _generated(tmp_path, capsys, 7, 3, 5)])
    match = next(c for c in report["checks"] if c["name"] == "spectral_newton_match")
    assert match["status"] == "pass" and match["residual"] < 1e-10
    assert rc == 0


def test_a_lost_path_is_recovered_through_a_fresh_middle_point(tmp_path, capsys):
    # the first middle weights sum to 1.741 - 2.5e-4i and the weights to -9,
    # so the second leg passes within 2.5e-4 of sum a = 0, where a critical
    # point goes off to infinity; retracking on the same segments lost that
    # path three times over, and solve exited 3
    rc, report = run_json(capsys, ["solve", "--config",
                                   _generated(tmp_path, capsys, 5, 1, 4201001)])
    assert rc == 0 and len(report["points"]) == 4
    match = next(c for c in report["checks"] if c["name"] == "spectral_newton_match")
    assert match["status"] == "pass"
    assert report["diagnostics"]["newton"]["retracked"] == 4


@pytest.mark.parametrize("n, k, seed", [(6, 3, 800004), (6, 2, 827000), (6, 3, 1920004),
                                        (7, 3, 1920000), (9, 4, 22)])
def test_fd_jacobians_survive_rounding_and_truncation(tmp_path, capsys, n, k, seed):
    # finite-difference Jacobians once missed a 1e-6 tolerance here: by
    # rounding at h = 1e-6 (1.6e-6 on 800004), by truncation from h = 1e-3
    # (4.2e-6 on 827000), and on the last three by truncation of a
    # difference of Psi itself; the exact Jacobians leave no residual at all
    rc, report = run_json(capsys, ["flows", "--config", _generated(tmp_path, capsys, n, k, seed)])
    assert rc == 0 and all(c["status"] == "pass" for c in report["checks"])
    fd = {c["name"]: (c["residual"], c["expected"]) for c in report["checks"]
          if c["name"].endswith("_fd")}
    assert fd == dict.fromkeys(["transition_jacobian_fd", "generating_function_fd",
                                "projection_jacobian_fd"], (0, 0))


def test_projection_chart_independence_reports_its_largest_gap(config_path, capsys,
                                                               monkeypatch):
    def independence():
        rc, report = run_json(capsys, ["flows", "--config", config_path])
        return rc, next(c for c in report["checks"]
                        if c["name"] == "projection_chart_independence")

    assert independence() == (0, {"name": "projection_chart_independence", "status": "pass",
                                  "residual": 0.0, "count": 6, "expected": 0})
    honest = cli.jacobian_formula
    monkeypatch.setattr(cli, "jacobian_formula",
                        lambda spec, p: honest(spec, p) + Fraction(1, 3))
    rc, check = independence()
    assert rc == 1 and check["status"] == "fail" and check["residual"] == 1 / 3


def test_solve_is_deterministic_modulo_timing(config_path, capsys):
    rc1, one = run_json(capsys, ["solve", "--config", config_path, "--seed", "5"])
    rc2, two = run_json(capsys, ["solve", "--config", config_path, "--seed", "5"])
    assert rc1 == rc2 == 0
    del one["timing"], two["timing"]
    assert one == two


def test_flows_checks_charts_and_invariance(config_path, capsys):
    rc, report = run_json(capsys, ["flows", "--config", config_path])
    assert rc == 0
    names = {c["name"] for c in report["checks"]}
    assert {"chart_membership", "chart_transitions_exact",
            "projection_chart_independence", "flow_invariance"} <= names
    assert all(c["status"] == "pass" for c in report["checks"])


def test_flows_takes_one_completion_jacobian_per_point(tmp_path, capsys, monkeypatch):
    # the four generating-function points; the transition and projection
    # checks read the first point's Jacobian instead of taking their own
    calls = []
    jacobian = lag.completion_jacobian

    def spy(spec, iset, z, p):
        calls.append(iset)
        return jacobian(spec, iset, z, p)

    monkeypatch.setattr(lag, "completion_jacobian", spy)
    rc, report = run_json(capsys, ["flows", "--config", _generated(tmp_path, capsys, 6, 3, 5)])
    assert rc == 0 and all(c["status"] == "pass" for c in report["checks"])
    assert calls == [(1, 2, 3)] * 3 + [(1, 2, 4)]


def test_gen_emits_a_config_verify_accepts(tmp_path, capsys):
    out = tmp_path / "fresh.json"
    rc = main(["gen", "--n", "4", "--k", "2", "--seed", "7", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    cfg = json.loads(out.read_text())
    assert cfg["n"] == 4 and cfg["k"] == 2 and len(cfg["b"]) == 4
    # the file is the config of gen's report alone, in the order it is echoed
    rc, report = run_json(capsys, ["gen", "--n", "4", "--k", "2", "--seed", "7"])
    assert rc == 0 and report["config"] == cfg
    assert list(cfg) == ["n", "k", "b", "a", "z", "seed"]
    rc, report = run_json(capsys, ["verify", "--config", str(out)])
    assert rc == 0
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_near_k_equal_n_proves_on_the_unit(tmp_path, capsys):
    # (10,8), dim 9: the unit climbs on squarefree monomials, so its orbit is cheap
    out = tmp_path / "near.json"
    assert main(["gen", "--n", "10", "--k", "8", "--seed", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    rc, report = run_json(capsys, ["verify", "--config", str(out)])
    assert rc == 0 and report["diagnostics"]["verify"]["path"] == "unit_orbit"
    assert all(c["status"] == "pass" for c in report["checks"])


def test_report_can_be_written_to_a_file(config_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["verify", "--config", config_path, "--out", str(out)])
    assert rc == 0
    assert "checks passed" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["report"] == "report_v1"


@pytest.mark.parametrize("target", ["missing", "directory"])
@pytest.mark.parametrize("command", ["verify", "solve", "flows", "gen"])
def test_an_unwritable_out_gives_exit_two(config_path, tmp_path, capsys, command, target):
    out = tmp_path / "no" / "such" / "r.json" if target == "missing" else tmp_path
    argv = (["gen", "--n", "4", "--k", "2"] if command == "gen"
            else [command, "--config", config_path])
    assert main(argv + ["--out", str(out)]) == 2
    assert f"error: cannot write report {out}: " in capsys.readouterr().err


@pytest.mark.xfail(strict=True, reason="defect 1: spectral_newton_match reads 3.89e-8 against "
                   "the absolute --tol-spectral 1e-9 at a point next to a hyperplane")
def test_solve_passes_every_check_on_eight_three_seed_seven(tmp_path, capsys):
    rc, report = run_json(capsys, ["solve", "--config", _generated(tmp_path, capsys, 8, 3, 7)])
    assert [c["name"] for c in report["checks"] if c["status"] != "pass"] == []
    assert rc == 0


def _flipped_transition(monkeypatch):
    honest = lag.transition_expected
    monkeypatch.setattr(lag, "transition_expected", lambda *args: -honest(*args))


def _perturbed_projection_row(monkeypatch):
    # one entry of projection_jacobian's closed-form dz/dp rows moves by 1
    honest, det = lag.projection_jacobian, lag.ratmat.det

    def perturbed(*args):
        with monkeypatch.context() as m:
            m.setattr(lag.ratmat, "det",
                      lambda rows: det([[rows[0][0] + 1, *rows[0][1:]], *rows[1:]]))
            return honest(*args)

    monkeypatch.setattr(lag, "projection_jacobian", perturbed)


def _off_variety_point(monkeypatch):
    # p_1 is completed in the charts that hold 1, so the chart coordinates stay
    honest = lag.sample_chart_point

    def moved(*args):
        z, p = honest(*args)
        return z, (p[0] + Fraction(1, 10**4),) + p[1:]

    monkeypatch.setattr(lag, "sample_chart_point", moved)


@pytest.mark.parametrize("mutant, failing", [
    (_flipped_transition, {"transition_jacobian_fd"}),
    (_perturbed_projection_row, {"projection_chart_independence", "projection_jacobian_fd"}),
    (_off_variety_point, {"chart_membership", "chart_transitions_exact",
                          "generating_function_fd", "projection_jacobian_fd",
                          "flow_invariance"}),
], ids=["flipped-transition", "perturbed-projection-row", "off-variety-point"])
def test_each_jacobian_check_fails_on_its_mutant(config_path, capsys, monkeypatch, mutant,
                                                 failing):
    # the _fd checks are exact: a wrong closed form or a point off the variety
    # reads a nonzero residual against expected 0, and flows exits 1
    mutant(monkeypatch)
    rc, report = run_json(capsys, ["flows", "--config", config_path])
    assert rc == 1
    assert {c["name"] for c in report["checks"] if c["status"] == "fail"} == failing
    for c in report["checks"]:
        if c["name"].endswith("_fd"):
            assert c["expected"] == 0 and (c["residual"] != 0) == (c["name"] in failing)


def test_usage_errors_give_exit_two(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad)]) == 2
    degenerate = tmp_path / "degenerate.json"
    degenerate.write_text(json.dumps(
        {"n": 3, "k": 1, "b": [["1"], ["2"], ["0"]], "a": ["1", "1", "1"]}
    ))
    assert main(["verify", "--config", str(degenerate)]) == 2
    capsys.readouterr()
    # a bound below 1 leaves no nonzero weight to draw
    for bound in ("-3", "0"):
        assert main(["gen", "--n", "4", "--k", "1", "--coeff-bound", bound]) == 2
        assert f"need coeff_bound >= 1, got {bound}" in capsys.readouterr().err


@pytest.mark.parametrize("edit, reason", [
    (lambda cfg: cfg.pop("a"), "missing required key 'a'"),
    (lambda cfg: cfg.update(n=3.5), "n and k must be integers"),
    (lambda cfg: cfg["b"].__setitem__(1, "2"), "b must be a list of rows"),
    (lambda cfg: cfg.update(seed=1.5), '"seed" must be an integer'),
    (lambda cfg: cfg.update(seed="7"), '"seed" must be an integer'),
    (lambda cfg: cfg["b"].__setitem__(1, [True]), "cannot parse rational from True"),
    (lambda cfg: cfg["a"].__setitem__(2, True), "cannot parse rational from True"),
    (lambda cfg: cfg.update(z=["1", False, "3"]), "cannot parse rational from False"),
], ids=["missing-key", "fractional-n", "string-row", "fractional-seed", "string-seed",
        "boolean-b", "boolean-a", "boolean-z"])
def test_malformed_config_gives_exit_two(tmp_path, capsys, edit, reason):
    cfg = {"n": 3, "k": 1, "b": [["1"], ["2"], ["-1"]], "a": ["1", "1", "2"]}
    edit(cfg)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(path)]) == 2
    assert reason in capsys.readouterr().err


def test_numeric_failure_gives_exit_three(config_path, capsys, monkeypatch):
    # every pair of points now counts as merged, so route one runs out of redraws
    monkeypatch.setattr(numeric, "_DEDUP_TOL", math.inf)
    assert main(["solve", "--config", config_path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric failure: ")
    assert f"rejected every one of {numeric._REDRAWS} draws of 3 points" in captured.err
    assert captured.err.count("(0, 3, ") == numeric._REDRAWS


def test_route_one_rejecting_every_draw_gives_exit_three_with_its_counts(config_path, capsys,
                                                                       monkeypatch):
    # a polish with no sweeps and a zero tolerance converges no point
    monkeypatch.setattr(numeric, "_POLISH", (0, 0.0))
    assert main(["solve", "--config", config_path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"numeric failure: route one rejected every one of {numeric._REDRAWS} draws of 3 "
        "points; (unconverged, merged, smallest eigenvalue gap) per draw: [(3, 0, ")
    assert captured.err.count("(3, 0, ") == numeric._REDRAWS


def test_route_two_failure_gives_exit_three_with_its_counts(config_path, capsys,
                                                          monkeypatch):
    # every tracked path is lost, on the first run and on each retrack
    def lose_all(b, a_from, a_to, z_from, z_to, t, shrink=1.0):
        return t, np.zeros(len(t), dtype=bool)

    monkeypatch.setattr(numeric, "_track", lose_all)
    assert main(["solve", "--config", config_path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "numeric failure: route two found 0 of 3 points: 3 chambers, 0 redraws, 3 paths, "
        f"{3 * numeric._RETRACKS} retracked, 3 lost and 0 merged\n")


@pytest.mark.parametrize("mutant", ["dropped", "misplaced"])
def test_a_chamber_without_its_maximum_exits_three_and_is_named(config_path, tmp_path,
                                                                capsys, monkeypatch, mutant):
    # "dropped": the ascent loses chamber 1's maximum; "misplaced": the sweep gives
    # chamber 1 a wrong sign off its vertex, so its maximum ends on the wrong side
    named = []
    if mutant == "dropped":
        real_fiber = numeric._real_fiber

        def fiber(b, a, z, chambers):
            t, ok = real_fiber(b, a, z, chambers)
            named.append(chambers[1][0])
            ok[1] = False
            return t, ok

        monkeypatch.setattr(numeric, "_real_fiber", fiber)
    else:
        sweep = ArrangementSpec.bounded_chambers

        def chambers(spec, z):
            listed = sweep(spec, z)
            iset, sigma = listed[1]
            j = next(j for j in range(spec.n) if j + 1 not in iset)
            named.append(iset)
            listed[1] = (iset, sigma[:j] + (-sigma[j],) + sigma[j + 1:])
            return listed

        monkeypatch.setattr(ArrangementSpec, "bounded_chambers", chambers)
    out = tmp_path / "report.json"
    assert main(["solve", "--config", config_path, "--out", str(out)]) == 3
    message = ("route two certified no maximum in 1 of 3 bounded chambers, "
               f"lowest vertices [{named[0]}]")
    assert capsys.readouterr().err == f"numeric failure: {message}\n"
    # the report carries what was gathered before route two gave up, and the message
    report = json.loads(out.read_text())
    assert list(report) == ["report", "command", "config", "checks", "timing", "error",
                            "diagnostics"]
    assert report["error"] == message and report["checks"] == []
    assert list(report["timing"]["stages"]) == ["joint_spectrum"]
    assert report["diagnostics"]["spectrum"]["draws"] == 1
    assert report["diagnostics"]["newton"] == {
        "chambers": 3, "redraws": 0, "paths": 2, "retracked": 0}


def test_route_one_giving_up_writes_a_report_without_diagnostics(config_path, tmp_path,
                                                                 capsys, monkeypatch):
    monkeypatch.setattr(numeric, "_DEDUP_TOL", math.inf)
    out = tmp_path / "report.json"
    assert main(["solve", "--config", config_path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    report = json.loads(out.read_text())
    assert err == f"numeric failure: {report['error']}\n"
    assert report["error"].startswith("route one rejected every one of ")
    assert report["diagnostics"] == {} and report["timing"]["stages"] == {}


@pytest.mark.parametrize("command", ["verify", "solve", "flows"])
def test_every_command_parses_the_base_point(tmp_path, capsys, command):
    # flows echoed an unparsed "z" and exited 0, where verify and solve exit 2
    cfg = {"n": 4, "k": 2, "b": [["1", "0"], ["0", "1"], ["1", "1"], ["1", "-1"]],
           "a": ["1", "2", "1", "1"], "z": [0.5, 0, 1, 2]}
    path = tmp_path / "float_z.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "cannot parse rational from 0.5" in captured.err


def test_commands_take_only_the_tolerances_they_read(config_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", config_path, "--tol-fd", "1e-3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["flows", "--config", config_path, "--tol-newton", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol-newton" in capsys.readouterr().err
    # flows decides its Jacobian checks exactly, so it reads no tolerance either
    with pytest.raises(SystemExit) as exc:
        main(["flows", "--config", config_path, "--tol-fd", "1e-6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol-fd" in capsys.readouterr().err
    # route two's last polish is route one's, so solve has no Newton tolerance either
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", config_path, "--tol-newton", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol-newton" in capsys.readouterr().err
    # route two merges end points at a fixed distance, so no dedup tolerance
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", config_path, "--tol-dedup", "1e-6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol-dedup" in capsys.readouterr().err
    rc, report = run_json(capsys, ["solve", "--config", config_path, "--tol-spectral", "1e-8"])
    assert rc == 0 and len(report["points"]) == 3


def test_solve_requires_a_base_point(tmp_path, capsys):
    cfg = {"n": 3, "k": 1, "b": [["1"], ["2"], ["-1"]], "a": ["1", "1", "2"]}
    path = tmp_path / "nz.json"
    path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(path)]) == 2
    capsys.readouterr()


def test_solve_on_the_discriminant_exits_two_and_writes_no_report(tmp_path, capsys):
    # f_1 = 1 + t and f_2 = 2 + 2t vanish together at t = -1; the algebra refuses z
    cfg = {"n": 3, "k": 1, "b": [["1"], ["2"], ["-1"]], "a": ["1", "1", "2"],
           "z": ["1", "2", "5"]}
    path, out = tmp_path / "disc.json", tmp_path / "report.json"
    path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "discriminant" in captured.err
    assert not out.exists()


def test_sampled_base_point_is_accepted(tmp_path, capsys):
    cfg = {"n": 3, "k": 1, "b": [["1"], ["2"], ["-1"]], "a": ["1", "1", "2"],
           "z": "sample", "seed": 3}
    path = tmp_path / "zs.json"
    path.write_text(json.dumps(cfg))
    rc, report = run_json(capsys, ["solve", "--config", str(path)])
    assert rc == 0
    assert len(report["points"]) == 2
    assert len(report["config"]["z"]) == 3


def test_exact_commands_run_without_numpy(tmp_path):
    # gen, verify and flows are exact arithmetic; only solve needs numpy, and
    # none of the commands needs numpy.random, mpmath, sympy or scipy
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        import critvar.ratmat
        alone = "numpy" in sys.modules
        from critvar.cli import main
        cfg = sys.argv[1]
        runs = [["gen", "--n", "4", "--k", "2", "--seed", "3", "--out", cfg],
                ["verify", "--config", cfg], ["flows", "--config", cfg]]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in runs]
            before = [m for m in ("numpy", "mpmath", "sympy", "scipy") if m in sys.modules]
            codes.append(main(["solve", "--config", cfg]))
        print(json.dumps([codes, alone, before,
                          [m for m in ("numpy", "numpy.random") if m in sys.modules]]))
    """)
    src = str(Path(critvar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "cfg.json")],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == [[0, 0, 0, 0], False, [], ["numpy"]]


# What the benchmark gate and its readers take from each report, on gen --n 5 --k 2
# --seed 5: the top-level keys, the check names in run order and the diagnostics keys
# (the check entries, timing and solve points are pinned in the test).
_REPORT_SCHEMA = {
    "gen": (["report", "command", "config", "checks", "timing", "diagnostics"], [],
            {"gen": ["nonzero_minors", "nonzero_discriminant_forms"]}),
    "verify": (["report", "command", "config", "checks", "timing", "diagnostics"],
               ["minor_relations", "discriminant_span_rank", "generator_brackets",
                "quotient_dimension", "operator_commutators", "first_kind_operators",
                "second_kind_operators", "euler_operator", "weighted_sum_operators",
                "special_vector_map"],
               {"verify": ["path", "identities_checked", "identities_total",
                           "commutators"]}),
    "solve": (["report", "command", "config", "checks", "timing", "points",
               "eigenvalue_combination", "eigenvalues", "diagnostics"],
              ["critical_count_spectral", "critical_count_newton", "spectral_newton_match",
               "hessian_identity", "jacobian_from_hessian"],
              {"spectrum": ["combination", "draws", "eigenvalue_gap", "momentum_gap"],
               "newton": ["chambers", "redraws", "paths", "retracked"]}),
    "flows": (["report", "command", "config", "checks", "timing"],
              ["chart_membership", "chart_transitions_exact", "transition_jacobian_fd",
               "generating_function_fd", "projection_chart_independence",
               "projection_jacobian_fd", "flow_invariance"], None),
}


def test_report_schema_is_pinned(tmp_path, capsys):
    path = str(tmp_path / "gen.json")
    reports = {"gen": run_json(capsys, ["gen", "--n", "5", "--k", "2", "--seed", "5"])[1]}
    assert main(["gen", "--n", "5", "--k", "2", "--seed", "5", "--out", path]) == 0
    capsys.readouterr()
    for command in ("verify", "solve", "flows"):
        rc, reports[command] = run_json(capsys, [command, "--config", path])
        assert rc == 0, command
    for command, (keys, checks, diagnostics) in _REPORT_SCHEMA.items():
        report = reports[command]
        assert list(report) == keys, command
        assert report["report"] == "report_v1" and report["command"] == command
        assert [c["name"] for c in report["checks"]] == checks, command
        assert all(list(c) == ["name", "status", "residual", "count", "expected"]
                   for c in report["checks"]), command
        assert list(report["timing"]) == ["seconds", "stages"], command
        if diagnostics is not None:
            assert {key: list(value) for key, value in report["diagnostics"].items()} \
                == diagnostics, command
    assert all(list(point) == ["t", "p", "gradient_norm"] for point in reports["solve"]["points"])
    # gen has no checks, so no stages; its facts count every minor and form at z
    assert reports["gen"]["timing"]["stages"] == {}
    assert reports["gen"]["diagnostics"]["gen"] == {
        "nonzero_minors": math.comb(5, 2), "nonzero_discriminant_forms": math.comb(5, 3)}


def test_flows_stages_are_keyed_by_check_name(config_path, capsys):
    rc, report = run_json(capsys, ["flows", "--config", config_path])
    assert rc == 0
    stages = report["timing"]["stages"]
    assert list(stages) == [c["name"] for c in report["checks"]]
    assert all(s >= 0 for s in stages.values())
    assert sum(stages.values()) <= report["timing"]["seconds"]


def child_env():
    """The environment for a child Python that imports this checkout's critvar."""
    src = str(Path(critvar.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


# The layers each command loads: every command imports the layers whose functions
# the benchmark's tracer patches on `cli`, and only its own command the rest; the
# numpy kernels in `numeric` are solve's alone.  -m runs cli as __main__, so
# `critvar.cli` itself is never imported under that name.
_COMMON_LAYERS = {"critvar", "critvar.arrangement", "critvar.errors", "critvar.laurent",
                  "critvar.ratmat", "critvar.relations", "critvar.spectrum"}
_COMMAND_LAYERS = {"gen": set(), "verify": {"critvar.quotient"},
                   "flows": {"critvar.lagrangian"},
                   "solve": {"critvar.quotient", "critvar.numeric"}}


@pytest.mark.parametrize("command", sorted(_COMMAND_LAYERS))
def test_each_command_loads_only_its_layers(config_path, command):
    # run as the benchmark runs a command; -X importtime logs every module it imports
    argv = (["gen", "--n", "5", "--k", "2", "--seed", "5"] if command == "gen"
            else [command, "--config", config_path])
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "critvar.cli", *argv],
                          env=child_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    names = [line.rsplit("|", 1)[1] for line in done.stderr.splitlines()
             if line.startswith("import time:")]
    loaded = {name.strip() for name in names}
    layers = {m for m in loaded if m == "critvar" or m.startswith("critvar.")}
    assert layers == _COMMON_LAYERS | _COMMAND_LAYERS[command]
    assert "dataclasses" not in loaded
    if command != "solve":
        assert "numpy" not in loaded
        return
    # a line is logged when its import ends, indented by depth: numpy loads
    # inside numeric's import, so numeric was compiled before numpy was loaded
    depth = [len(name) - len(name.lstrip()) for name in names]
    where = {name.strip(): i for i, name in enumerate(names)}
    first, last = where["numpy"], where["critvar.numeric"]
    assert first < last and min(depth[first:last]) > depth[last]


@pytest.mark.parametrize("command", ["gen", "verify", "solve"])
def test_a_closed_stdout_keeps_the_exit_status(config_path, command):
    argv = {"gen": ["gen", "--n", "5", "--k", "2", "--seed", "5"],
            "verify": ["verify", "--config", config_path],
            "solve": ["solve", "--config", config_path]}[command]
    env = child_env()
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        done = subprocess.run([sys.executable, "-m", "critvar.cli", *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 0
    assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr, done.stderr


# A child that runs one command through cli.run, as the `critvar` script does, after
# making every pair of route one's points count as merged: route one gives up.
_GIVING_UP = textwrap.dedent("""
    import math, sys
    import critvar.cli, critvar.numeric
    critvar.numeric._DEDUP_TOL = math.inf
    critvar.cli.run(sys.argv[1:])
""")

# The same after flipping the sign of the exact transition determinant: a check fails.
_FAILING_CHECK = textwrap.dedent("""
    import sys
    import critvar.cli, critvar.lagrangian as lag
    honest = lag.transition_expected
    lag.transition_expected = lambda *args: -honest(*args)
    critvar.cli.run(sys.argv[1:])
""")


@pytest.mark.parametrize("status, argv, err", [
    (0, ["-m", "critvar.cli", "gen", "--n", "5", "--k", "2", "--seed", "5"], ""),
    (1, ["-c", _FAILING_CHECK, "flows", "--config", "{cfg}"], ""),
    (2, ["-m", "critvar.cli", "verify"], "usage: critvar verify "),
    (2, ["-m", "critvar.cli", "verify", "--config", "{missing}"], "error: cannot read config "),
    (3, ["-c", _GIVING_UP, "solve", "--config", "{cfg}"],
     f"numeric failure: route one rejected every one of {numeric._REDRAWS} draws of 3 points"),
], ids=["passed", "failed-check", "missing-option", "missing-file", "gave-up"])
def test_each_exit_status_reaches_the_calling_process(config_path, tmp_path, status, argv,
                                                      err):
    # run() ends the process by os._exit; argparse's exit leaves through SystemExit
    argv = [a.format(cfg=config_path, missing=tmp_path / "missing.json") for a in argv]
    done = subprocess.run([sys.executable, *argv], env=child_env(), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == status, done.stderr[-2000:]
    assert done.stderr.startswith(err) if err else done.stderr == ""
    if status in (0, 1):
        report = json.loads(done.stdout)
        assert (status == 1) == any(c["status"] == "fail" for c in report["checks"])
    else:
        assert done.stdout == ""


def test_a_solve_report_on_a_pipe_is_the_in_process_one(config_path, capsys):
    # solve loads numpy and skips the most teardown; the report is whole before the exit
    done = subprocess.run([sys.executable, "-m", "critvar.cli", "solve", "--config",
                           config_path], env=child_env(), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    rc, report = run_json(capsys, ["solve", "--config", config_path])
    child = json.loads(done.stdout)
    assert rc == 0 and child["timing"].keys() == report["timing"].keys()
    del child["timing"], report["timing"]
    assert child == report


# every (n, k) with a fiber of dimension at most 10
_SCALED_SHAPES = [(n, k) for n in range(3, 8) for k in range(1, n) if math.comb(n - 1, k) <= 10]


def _relative_gap(p, q):
    return max(abs(x - y) for x, y in zip(p, q)) / max(abs(x) for x in q)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(shape=st.sampled_from(_SCALED_SHAPES), seed=st.integers(0, 10**6),
       lam=st.sampled_from((Fraction(2), Fraction(3), Fraction(1, 5))))
def test_solve_is_scale_equivariant(shape, seed, lam):
    # Phi(t) = sum_j a_j log(b_j t + z_j): t -> t / lam maps the critical points at z
    # onto those at z / lam, and every f_j and so p_j = a_j / f_j scales by 1 / lam and
    # lam; compared relatively, as |p| is unbounded near a hyperplane
    n, k = shape
    rng = random.Random(seed)
    spec = random_generic(n, k, rng)
    z = sample_z(spec, rng)
    points = []
    with tempfile.TemporaryDirectory() as tmp:
        for zz in (z, [x / lam for x in z]):
            cfg = dict(spec.to_config(), z=[rat_str(x) for x in zz], seed=seed)
            path = Path(tmp, "cfg.json")
            path.write_text(json.dumps(cfg))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["solve", "--config", str(path)]) == 0
            points.append([[complex(*pair) for pair in pt["p"]]
                           for pt in json.loads(out.getvalue())["points"]])
    at_z, scaled = points
    want = [[complex(lam) * x for x in p] for p in at_z]
    assert len(scaled) == len(want) == math.comb(n - 1, k)
    # every point at z / lam is lam times one point at z, and no two share it
    nearest = [min(range(len(want)), key=lambda i: _relative_gap(q, want[i])) for q in scaled]
    assert sorted(nearest) == list(range(len(want)))
    assert max(_relative_gap(q, want[i]) for q, i in zip(scaled, nearest)) <= 1e-9
