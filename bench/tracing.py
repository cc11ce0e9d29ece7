"""Span recorder and counters for a traced benchmark run.

Wrappers are installed only in traced mode, from the benchmark's own
files: each replaces an attribute that callers look up (a module
function, in every vermatools module that imports it, or a method on
its class) and is removed again afterwards.  A timed wrapper pushes a
frame so that each layer's self time is its span minus its child spans;
"calls" and "seconds" of a metric count only the outermost entry of a
recursive function.  Spans of the coarse boundaries are kept in memory
(name, start, end, parent, job) and written out when the run ends; the
hot inner calls (PBW action, echelon rows, gcds, brackets, scalar
dunders) are aggregated instead, and scalar dunders only counted.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("scalar", "linalg", "pbw", "liealg", "verma", "tensor", "render", "cli")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.calls: Counter = Counter()
        self.secs: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.active: Counter = Counter()
        self._frames: list = []
        self._open_spans: list = []
        self.spans: list = []
        self.job = None
        self._restore: list = []

    # -- wrappers ---------------------------------------------------------

    def timed(self, fn, layer, metric, keep_span=False, on_call=None, on_result=None):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            name = metric(tr) if callable(metric) else metric
            outer = not tr.active[name]
            tr.active[name] += 1
            if outer:
                tr.calls[name] += 1
            if on_call is not None:
                on_call(tr, args)
            frame = [0.0]
            tr._frames.append(frame)
            if keep_span:
                sid = len(tr.spans)
                parent = tr._open_spans[-1] if tr._open_spans else None
                tr.spans.append(None)
                tr._open_spans.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                dur = t1 - t0
                tr._frames.pop()
                tr.self_s[layer] += dur - frame[0]
                if tr._frames:
                    tr._frames[-1][0] += dur
                tr.active[name] -= 1
                if outer:
                    tr.secs[name] += dur
                if keep_span:
                    tr._open_spans.pop()
                    tr.spans[sid] = (name, t0, t1, parent, tr.job)
            if on_result is not None:
                on_result(tr, args, result)
            return result

        return wrapper

    def counted(self, fn, name, on_call=None, on_result=None):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            tr.counts[name] += 1
            if on_call is not None:
                on_call(tr, args)
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(tr, args, result)
            return result

        return wrapper

    def replace(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def replace_function(self, module, attr, make) -> None:
        """Wrap a module function everywhere a vermatools module holds it."""
        original = getattr(module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if (name == "vermatools" or name.startswith("vermatools.")) and \
                    getattr(mod, attr, None) is original:
                self.replace(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- job spans --------------------------------------------------------

    def run_job(self, job_id, fn):
        self.job = job_id
        return self.timed(fn, "bench", "bench.job", keep_span=True)()


def install(tr: Tracer) -> None:
    """Put the wrappers in place; see the per-layer table in README.md."""
    from vermatools import cli, liealg, linalg, pbw, render, scalar, tensor, verma

    def fn(module, attr, layer, metric, **kw):
        tr.replace_function(module, attr, lambda f: tr.timed(f, layer, metric, **kw))

    def method(cls, attr, layer, metric, **kw):
        tr.replace(cls, attr, tr.timed(cls.__dict__[attr], layer, metric, **kw))

    def count_method(cls, attr, name, **kw):
        tr.replace(cls, attr, tr.counted(cls.__dict__[attr], name, **kw))

    # scalar: gcd spans; dunders are counted only
    fn(scalar, "_pgcd", "scalar", "scalar.gcd")
    Scalar = scalar.Scalar

    def fn_field(tr_, args):
        if any(isinstance(a, Scalar) and not a.is_constant() for a in args[:2]):
            tr_.counts["scalar.ops_fn_field"] += 1

    for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__"):
        count_method(Scalar, attr, "scalar.ops", on_call=fn_field)

    # linalg
    def add_call(tr_, args):
        tr_.counts["linalg.nnz_added"] += len(args[1])

    def add_result(tr_, args, piv):
        if piv is not None:
            tr_.counts["linalg.rows_pivoted"] += 1
        tr_.maxima["linalg.max_rows"] = max(tr_.maxima["linalg.max_rows"], len(args[0].pivots))

    def solve_call(tr_, args):
        tr_.maxima["linalg.max_cols"] = max(tr_.maxima["linalg.max_cols"], len(args[1]))

    method(linalg.Echelon, "add", "linalg", "linalg.add", on_call=add_call, on_result=add_result)
    method(linalg.Echelon, "reduce", "linalg",
           lambda t: "linalg.reduce_in_add" if t.active["linalg.add"] else "linalg.reduce")
    fn(linalg, "solve", "linalg", "linalg.solve", keep_span=True, on_call=solve_call)
    fn(linalg, "nullspace", "linalg", "linalg.solve", keep_span=True, on_call=solve_call)

    # pbw and liealg
    def memo_size(tr_, args, _result):
        tr_.maxima["pbw.memo_entries"] = max(tr_.maxima["pbw.memo_entries"],
                                             len(args[0]._memo) + 1)

    count_method(pbw.ModuleContext, "__init__", "pbw.modules")
    method(pbw.ModuleContext, "act", "pbw", "pbw.act")
    count_method(pbw.ModuleContext, "_act_mono", "pbw.memo_lookups")
    count_method(pbw.ModuleContext, "_act_mono_compute", "pbw.memo_misses", on_result=memo_size)
    fn(liealg, "bracket", "liealg", "liealg.bracket")

    # verma: solver paths
    inconclusive = verma._SAMPLING_INCONCLUSIVE

    def sampled_result(tr_, _args, result):
        if result is inconclusive:
            tr_.counts["verma.fallbacks"] += 1

    def certify_result(tr_, _args, ok):
        if not ok:
            tr_.counts["verma.certify_fails"] += 1

    fn(verma, "subsingular", "verma", "verma.subsingular", keep_span=True)
    fn(verma, "_subsingular_sampled", "verma", "verma.sampled", keep_span=True,
       on_result=sampled_result)
    fn(verma, "_subsingular_direct", "verma",
       lambda t: "verma.direct_specialised" if t.active["verma.sampled"] else "verma.direct_symbolic",
       keep_span=True)
    tr.replace_function(verma, "_specialize_module",
                        lambda f: tr.counted(f, "verma.samples"))
    fn(verma, "_rational_interpolate", "verma", "verma.interp")
    fn(verma, "_certify_subsingular", "verma", "verma.certify", keep_span=True,
       on_result=certify_result)
    fn(verma, "u_prime", "verma", "verma.uprime", keep_span=True)
    fn(verma, "singular_space", "verma", "verma.singular_space", keep_span=True)
    fn(verma, "classify", "verma", "verma.classify", keep_span=True)
    method(verma.QuotientModule, "_echelon", "verma", "verma.quotient_echelon", keep_span=True)
    method(verma.QuotientModule, "reduce", "verma", "verma.quotient_reduce")

    # tensor
    method(tensor.TensorSpace, "act", "tensor", "tensor.act")
    fn(tensor, "cyclicity_check", "tensor", "tensor.cyclicity", keep_span=True)
    fn(tensor, "subquotient_free_dims", "tensor", "tensor.free_dims", keep_span=True)
    fn(tensor, "decide_tensor", "tensor", "tensor.decide", keep_span=True)
    fn(tensor, "decide_tensor_hv", "tensor", "tensor.decide", keep_span=True)
    fn(tensor, "hv_decision_polynomials", "tensor", "tensor.hv_cert", keep_span=True)

    # render
    def chars(tr_, _args, text):
        if not tr_.active["render"]:
            tr_.counts["render.chars"] += len(text)

    for attr in ("text_vector", "latex_vector", "latex_scalar", "latex_character",
                 "latex_table"):
        fn(render, attr, "render", "render", keep_span=True, on_result=chars)

    # cli
    def exit_code(tr_, _args, code):
        if code:
            tr_.counts["cli.exit_nonzero"] += 1

    def timed_parse_args(tr_, _args, parser):
        parser.parse_args = tr_.timed(parser.parse_args, "cli", "cli.parse")

    fn(cli, "main", "cli", "cli.main", keep_span=True, on_result=exit_code)
    fn(cli, "run", "cli", "cli.run", keep_span=True)
    fn(cli, "emit", "cli", "cli.emit", keep_span=True)
    fn(cli, "_build_parser", "cli", "cli.parse", on_result=timed_parse_args)
    fn(cli, "_merge_value_flags", "cli", "cli.parse")
    fn(cli, "_job_from_args", "cli", "cli.parse")


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of the traced pass, as {name: (value, unit)}."""
    c, s, n, mx = tr.calls, tr.secs, tr.counts, tr.maxima
    added = c["linalg.add"]
    out = {
        "verma.samples": (n["verma.samples"], "count"),
        "verma.direct_specialised_s": (s["verma.direct_specialised"], "s"),
        "verma.interp_calls": (c["verma.interp"], "count"),
        "verma.interp_s": (s["verma.interp"], "s"),
        "verma.certify_calls": (c["verma.certify"], "count"),
        "verma.certify_fails": (n["verma.certify_fails"], "count"),
        "verma.certify_s": (s["verma.certify"], "s"),
        "verma.sampled_calls": (c["verma.sampled"], "count"),
        "verma.fallbacks": (n["verma.fallbacks"], "count"),
        "verma.direct_symbolic_calls": (c["verma.direct_symbolic"], "count"),
        "verma.direct_symbolic_s": (s["verma.direct_symbolic"], "s"),
        "verma.uprime_s": (s["verma.uprime"], "s"),
        "verma.singular_space_s": (s["verma.singular_space"], "s"),
        "verma.quotient_echelon_s": (s["verma.quotient_echelon"], "s"),
        "verma.quotient_reduce_calls": (c["verma.quotient_reduce"], "count"),
        "scalar.gcd_calls": (c["scalar.gcd"], "count"),
        "scalar.gcd_s": (s["scalar.gcd"], "s"),
        "scalar.ops": (n["scalar.ops"], "count"),
        "scalar.ops_fn_field": (n["scalar.ops_fn_field"], "count"),
        "linalg.rows_added": (added, "count"),
        "linalg.rows_pivoted": (n["linalg.rows_pivoted"], "count"),
        "linalg.pivot_ratio": (_ratio(n["linalg.rows_pivoted"], added), "ratio"),
        "linalg.nnz_added": (n["linalg.nnz_added"], "count"),
        "linalg.add_s": (s["linalg.add"], "s"),
        "linalg.solves": (c["linalg.solve"], "count"),
        "linalg.max_rows": (mx["linalg.max_rows"], "count"),
        "linalg.max_cols": (mx["linalg.max_cols"], "count"),
        "linalg.reduce_calls": (c["linalg.reduce"], "count"),
        "linalg.reduce_s": (s["linalg.reduce"], "s"),
        "tensor.act_calls": (c["tensor.act"], "count"),
        "tensor.act_s": (s["tensor.act"], "s"),
        "tensor.cyclicity_s": (s["tensor.cyclicity"], "s"),
        "tensor.free_dims_s": (s["tensor.free_dims"], "s"),
        "tensor.decide_s": (s["tensor.decide"], "s"),
        "tensor.hv_cert_s": (s["tensor.hv_cert"], "s"),
        "pbw.modules": (n["pbw.modules"], "count"),
        "pbw.act_calls": (c["pbw.act"], "count"),
        "pbw.act_s": (s["pbw.act"], "s"),
        "pbw.memo_lookups": (n["pbw.memo_lookups"], "count"),
        "pbw.memo_misses": (n["pbw.memo_misses"], "count"),
        "pbw.memo_hit_ratio": (1 - _ratio(n["pbw.memo_misses"], n["pbw.memo_lookups"]), "ratio"),
        "pbw.memo_entries": (mx["pbw.memo_entries"], "count"),
        "liealg.bracket_calls": (c["liealg.bracket"], "count"),
        "cli.parse_s": (s["cli.parse"], "s"),
        "cli.emit_s": (s["cli.emit"], "s"),
        "cli.exit_nonzero": (n["cli.exit_nonzero"], "count"),
        "render.s": (s["render"], "s"),
        "render.chars": (n["render.chars"], "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tr.self_s[layer], "s")
    return out


def self_time_table(tr: Tracer, workload: str) -> str:
    total = sum(tr.self_s.values())
    lines = [f"self time by layer, workload {workload} (traced pass)",
             f"{'layer':<8} {'self_s':>10} {'share':>7}"]
    for layer in LAYERS + ("bench",):
        t = tr.self_s[layer]
        lines.append(f"{layer:<8} {t:>10.4f} {_ratio(t, total):>7.1%}")
    return "\n".join(lines)


def dump(tr: Tracer, path: str, jobs: list, extra: dict) -> None:
    """Write spans, counters and the self-time table as one json file."""
    data = dict(extra)
    data["jobs"] = jobs
    data["counts"] = {**tr.counts, **{f"{k}.calls": v for k, v in tr.calls.items()},
                      **dict(tr.maxima)}
    data["self_s"] = dict(tr.self_s)
    data["span_fields"] = ["name", "start", "end", "parent", "job"]
    data["spans"] = tr.spans
    with open(path, "w") as fh:
        json.dump(data, fh)
