"""The benchmark's tracing wrappers still find every name they wrap."""

import importlib.util
import sys
from pathlib import Path

from vermatools import cli, liealg, linalg, pbw, render, scalar, tensor, verma

SCALAR_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                  "__truediv__", "__rtruediv__", "__neg__", "__pow__")


def _wrapped_names():
    return (verma.subsingular, verma._subsingular_direct, verma._certify_subsingular,
            verma._subsingular_sampled, verma._specialize_module, verma._rational_interpolate,
            verma.u_prime, verma.singular_space, verma.classify,
            verma.QuotientModule._echelon, verma.QuotientModule.reduce,
            tensor.cyclicity_check, tensor.subquotient_free_dims, tensor.decide_tensor,
            tensor.decide_tensor_hv, tensor.hv_decision_polynomials, tensor.TensorSpace.act,
            cli.main, cli.run, cli.emit, cli._build_parser, cli._merge_value_flags,
            cli._job_from_args,
            render.text_vector, render.latex_vector, render.latex_scalar,
            render.latex_character, render.latex_table,
            liealg.bracket, pbw.ModuleContext.__init__, pbw.ModuleContext.act,
            pbw.ModuleContext._act_mono, pbw.ModuleContext._act_mono_compute,
            linalg.Echelon.add, linalg.Echelon.reduce, linalg.solve, linalg.nullspace,
            scalar._pgcd, *(scalar.Scalar.__dict__[a] for a in SCALAR_DUNDERS))


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
