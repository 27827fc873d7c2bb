"""The benchmark's tracer wraps koszulkit functions by name
(`perfbench/tracing.WRAPPED`); a renamed or deleted one must fail here,
not only in the benchmark's own smoke test."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped():
    # the module is only read: its WRAPPED table, no tracer installed
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


@pytest.mark.parametrize("entry", _wrapped(), ids=lambda e: ".".join(filter(None, e[:3])))
def test_every_traced_name_resolves(entry):
    mod_name, cls_name, attr = entry[:3]
    module = importlib.import_module("koszulkit." + mod_name)
    if cls_name is None:
        assert callable(getattr(module, attr, None)), (mod_name, attr)
    else:
        # the tracer reads the class's own __dict__, not inherited names
        assert callable(getattr(module, cls_name).__dict__.get(attr)), (mod_name, cls_name, attr)


def test_traced_aliases_are_kept():
    # the smoke test checks that the tracer rebinds these module aliases
    from koszulkit import groebner, koszul, linalg, quotient, resolutions
    for module in (quotient, koszul, resolutions):
        assert module.kernel_of_columns is linalg.kernel_of_columns
    assert quotient.normal_form is groebner.normal_form
