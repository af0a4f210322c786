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
