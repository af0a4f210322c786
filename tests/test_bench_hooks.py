"""The traced benchmark's layer table still resolves against the package.

perfbench/tracing.py wraps module and class attributes of critvar by name;
building its table looks every one of them up, so a renamed or removed
attribute fails here and not only in a benchmark run.  The file is loaded
read-only: nothing is patched and no bytecode is written.
"""

import importlib.util
import sys
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
