"""The benchmark's tracing wrappers still find every name they wrap."""

import importlib.util
import sys
from pathlib import Path

from vermatools import tensor, verma


def _wrapped_names():
    return (verma.subsingular, verma._subsingular_direct, verma._certify_subsingular,
            verma.QuotientModule._echelon, verma.QuotientModule.reduce,
            tensor.cyclicity_check, tensor.decide_tensor_hv)


def test_tracing_installs_and_uninstalls(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = _wrapped_names()
    tr = tracing.Tracer()
    try:
        tracing.install(tr)
        assert all(w is not o for w, o in zip(_wrapped_names(), originals))
    finally:
        tr.uninstall()
    assert _wrapped_names() == originals
