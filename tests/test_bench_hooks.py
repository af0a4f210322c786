"""The traced benchmark's layer table still resolves against the package.

perfbench/tracing.py wraps module and class attributes of critvar by name;
building its table looks every one of them up, so a renamed or removed
attribute fails here and not only in a benchmark run.  The file is loaded
read-only: nothing is patched and no bytecode is written.
"""

import importlib.util
import math
import sys
import time
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_attribute_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    table = tracing.Tracer()._table()
    assert len(table) > 30
    for owner, attr, wrapper in table:
        assert callable(owner.__dict__[attr]) and callable(wrapper), (owner, attr)
    wrapped = {(owner.__name__, attr) for owner, attr, _ in table}
    for name in [("QuotientAlgebra", "bethe_operator"), ("critvar.ratmat", "charpoly"),
                 ("critvar.spectrum", "poly_roots"), ("critvar.spectrum", "hessian_formula")]:
        assert name in wrapped


def test_traced_solve_reruns_route_two_without_a_target(monkeypatch, tmp_path, capsys):
    # the tracer follows every `newton_multistart` call of the command with
    # a second one with target_count=None, which must find the same fiber
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from critvar import cli

    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    assert cli.main(["gen", "--n", "5", "--k", "1", "--seed", "5000", "--out", str(cfg)]) == 0
    tracer = tracing.Tracer()
    with tracer.layers(), tracer.span(tracing.ROOT):
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    assert tracer.total("spectrum.newton_found") == tracer.total("spectrum.newton_expected") == 4
    assert tracer.total("spectrum.newton_plain_found") == 4


def test_traced_verify_and_flows_count_brackets_and_membership(monkeypatch, tmp_path, capsys):
    # verify's involution suite is counted pair by pair, and flows' relation
    # membership tests open their own spans
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from critvar import cli

    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    assert cli.main(["gen", "--n", "5", "--k", "2", "--seed", "5000", "--out", str(cfg)]) == 0
    tracer = tracing.Tracer()
    codes = []
    with tracer.layers():
        for command in ("verify", "flows"):
            with tracer.span(tracing.ROOT):
                codes.append(cli.main([command, "--config", str(cfg), "--out", str(out)]))
    capsys.readouterr()
    assert codes == [0, 0]
    nf, ng = math.comb(5, 1), math.comb(5, 3)
    pairs = nf * (nf + 1) // 2 + ng * nf + ng * (ng + 1) // 2
    assert tracer.total("relations.brackets") == pairs == 120
    membership = [s for s in tracer.spans if s[0] == "relations.membership"]
    assert membership and all(s[2] >= s[1] for s in membership)
    assert tracer.self_times()["relations.membership"] > 0


def test_traced_verify_spans_the_whole_special_vector_map(monkeypatch, tmp_path, capsys):
    # one quotient.special_vector span per call of mu_consistency and
    # mu_is_isomorphism, and the rows of B^T S inside them
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from critvar import cli
    from critvar.quotient import QuotientAlgebra

    calls, rows = [], []

    def spy(attr, log):
        original = QuotientAlgebra.__dict__[attr]

        def wrapper(self, *args):
            start = time.perf_counter()
            result = original(self, *args)
            log.append((attr, start, time.perf_counter()))
            return result

        monkeypatch.setattr(QuotientAlgebra, attr, wrapper)

    spy("mu_consistency", calls)
    spy("mu_is_isomorphism", calls)
    spy("_special_rows", rows)
    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    assert cli.main(["gen", "--n", "5", "--k", "2", "--seed", "5000", "--out", str(cfg)]) == 0
    tracer = tracing.Tracer()
    with tracer.layers(), tracer.span(tracing.ROOT):
        rc = cli.main(["verify", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    assert [attr for attr, _, _ in calls] == ["mu_consistency", "mu_is_isomorphism"]
    spans = [s for s in tracer.spans if s[0] == "quotient.special_vector"]
    assert len(spans) == len(calls)
    for (_, start, end), span in zip(calls, spans):
        assert span[1] <= start <= end <= span[2]
    assert rows and all(any(s[1] <= start <= end <= s[2] for s in spans)
                        for _, start, end in rows)
