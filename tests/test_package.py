"""The package namespace, which loads each layer on first use, and the records."""

import importlib
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import critvar
from critvar.laurent import LaurentPoly
from critvar.relations import BracketReport, RelationSet
from critvar.spectrum import CriticalPoint, SpectrumResult
from test_cli import child_env


def test_every_exported_name_is_its_home_modules_object():
    for name in critvar.__all__:
        obj = getattr(critvar, name)
        assert obj.__module__.startswith("critvar."), name
        assert obj is getattr(importlib.import_module(obj.__module__), name), name


@pytest.mark.parametrize("module", sorted(m.name for m in
                                          pkgutil.iter_modules(critvar.__path__)))
def test_every_name_in_a_layers_all_is_its_attribute(module):
    layer = importlib.import_module(f"critvar.{module}")
    assert [name for name in getattr(layer, "__all__", ()) if not hasattr(layer, name)] == []


def test_only_the_numeric_module_imports_numpy():
    # an import inside a function body still compiles with its module
    found = sorted(path.name for path in Path(critvar.__file__).parent.glob("*.py")
                   if re.search(r"^\s*(import|from)\s+numpy\b", path.read_text(encoding="utf-8"),
                                re.MULTILINE))
    assert found == ["numeric.py"]


def test_unknown_names_and_dir():
    with pytest.raises(AttributeError, match="no_such_name"):
        critvar.no_such_name
    assert set(critvar.__all__) <= set(dir(critvar))


def test_bare_import_loads_no_layer_and_star_import_works():
    script = """
import json, sys
import critvar
bare = sorted(m for m in sys.modules if m.startswith("critvar"))
from critvar import *
print(json.dumps([bare, [name for name in critvar.__all__ if name not in globals()]]))
"""
    out = subprocess.run([sys.executable, "-c", script], env=child_env(),
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == [["critvar"], []]


@pytest.mark.parametrize("cls, fields, values", [
    (CriticalPoint, ("t", "p", "grad_norm"), ((0j,), (1j, 2j), 0.0)),
    (SpectrumResult, ("points", "combination", "eigenvalues", "attempts", "min_gap",
                      "momentum_gap"),
     ((), (1, 2), (1j,), 1, 0.5, 0.25)),
    (RelationSet, ("spec", "first", "second", "g", "euler"), (None, {}, {}, {}, None)),
    (BracketReport, ("pair_class", "left", "right", "residual"),
     ("FF", (1,), (2,), LaurentPoly(2))),
], ids=["CriticalPoint", "SpectrumResult", "RelationSet", "BracketReport"])
def test_records_keep_their_fields_and_refuse_assignment(cls, fields, values):
    assert cls._fields == fields
    record = cls(**dict(zip(fields, values)))
    assert tuple(getattr(record, f) for f in fields) == values
    for attr in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)


def test_bracket_report_ok_reads_the_residual():
    zero, one = LaurentPoly(2), LaurentPoly(2, {(): 1})
    assert BracketReport("GG", (1, 2, 3), (1, 2, 3), zero).ok
    assert not BracketReport("GG", (1, 2, 3), (1, 2, 4), one).ok
