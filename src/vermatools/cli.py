"""Command-line front end: job parsing, dispatch, and report emission.

Every invocation builds a Job, runs it to a Report, and emits the report
in one of three formats.  Reports are deterministic for a given job
(timing aside), and the json form parses back into an equal Report.
`main` builds only the parser of the command it runs (all seven for the
top-level help or a missing or unknown command), and no parser or other
cache outlives one call; only the table of parameter contexts does, one
``PolyContext`` per tuple of names.
A command is one `_COMMANDS` row: its help, runner, flags and exact parameters.

Exit codes: 0 on success, 2 on malformed parameters, a parameter the job
does not read, or a failed precondition, 3 when a decision procedure
returns an Unknown verdict or a computation is refused as beyond its
level budget.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import render, tensor, verma
from .pbw import HighestWeight, ModuleContext
from .scalar import PolyContext, Scalar

_PARAM_ORDER = ("c", "h", "hW", "cL", "cLI", "cI", "hI", "alpha", "beta", "F")
_MAX_SYMBOLIC = 3


# ---------------------------------------------------------------------------
# Jobs and reports


@dataclass
class Job:
    """A single CLI request: the command plus its parameter map."""

    command: str
    parameters: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"command": self.command, "parameters": dict(self.parameters)}

    @staticmethod
    def from_json(obj: dict) -> "Job":
        return Job(obj["command"], dict(obj["parameters"]))


@dataclass
class Report:
    """Result of running a Job.

    `results` and `notes` are json-ready; `rendered` holds the prepared
    text and latex forms and is not part of the serialization, so a
    report parsed back from json compares equal on job, results, and
    notes (timing varies by construction and is excluded).
    """

    job: Job
    results: dict
    notes: list = field(default_factory=list)
    timing: dict = field(default_factory=dict, compare=False)
    rendered: dict = field(default_factory=dict, compare=False)
    exit_code: int = field(default=0, compare=False)

    def to_json(self) -> dict:
        return {"job": self.job.to_json(), "results": self.results,
                "notes": list(self.notes), "timing": dict(self.timing)}

    @staticmethod
    def from_json(obj: dict) -> "Report":
        return Report(job=Job.from_json(obj["job"]), results=obj["results"],
                      notes=list(obj["notes"]), timing=dict(obj["timing"]))


def emit(report: Report, fmt: str) -> bytes:
    """Serialize a report; json is schema-stable and deterministic."""
    if fmt == "json":
        return (json.dumps(report.to_json(), sort_keys=True, indent=2)
                + "\n").encode()
    if fmt in ("text", "latex"):
        body = report.rendered.get(fmt)
        if body is None:
            raise ValueError(f"report carries no {fmt} rendering")
        return (body + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Exact expression parsing


_BIN_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)

# Largest |k| of a power x**k.  A power inside the base of another counts
# with the product of the exponents, so (x**8)**8 is at the bound, and an
# expression stays within MAX_EXPONENT times the size of its text:
# 2**100000 or (hW+1)**k with a large k could exhaust memory or time.
MAX_EXPONENT = 64

# Most terms a product may expand to, checked before it is formed.  A base
# whose numerator or denominator has t terms raised to k can have
# C(|k| + t - 1, t - 1) terms, the count of monomials of degree |k| in t
# unknowns; polynomials with a and b terms multiply to at most a*b.
# (hW+1)**64 has 65 terms; (hW+h+c+1)**20 could have 1,771, and **64 over
# those names, as a power or as 64 factors, took minutes.
MAX_TERMS = 1000


def parse_expression(text: str, ctx: PolyContext) -> Scalar:
    """Evaluate an exact rational expression over the job's parameters.

    Accepts integer literals, the declared symbolic names, +, -, *, /,
    and ** with integer exponents up to MAX_EXPONENT in absolute value, a
    negative one written -k, as long as no power or product can expand to
    more than MAX_TERMS terms; floats are rejected to keep every value
    exact, and True and False are not integers here.  An expression nested
    past Python's recursion limit is refused like a malformed one.
    """
    try:
        return _eval_node(ast.parse(str(text).strip(), mode="eval").body, ctx)
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {text!r}: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("expression is nested too deeply to evaluate: "
                         "Python's recursion limit was reached") from exc


def _eval_node(node: ast.AST, ctx: PolyContext, budget: int = MAX_EXPONENT) -> Scalar:
    """The value of node; ``budget`` bounds |k| in every power below it."""
    if isinstance(node, ast.Constant):
        if type(node.value) is int:
            return ctx.scalar(node.value)
        raise ValueError(f"only integer literals are exact: {node.value!r}")
    if isinstance(node, ast.Name):
        if node.id in ctx.names:
            return ctx.var(node.id)
        raise ValueError(f"unknown symbol {node.id!r}; declare it with "
                         "--symbolic")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _eval_node(node.operand, ctx, budget)
        return -inner if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.BinOp) and isinstance(node.op, _BIN_OPS):
        if isinstance(node.op, ast.Pow):
            exp, sign = node.right, 1
            if isinstance(exp, ast.UnaryOp) and isinstance(exp.op, ast.USub):
                exp, sign = exp.operand, -1
            if not (isinstance(exp, ast.Constant) and type(exp.value) is int):
                raise ValueError("exponents must be integer literals")
            if exp.value > budget:
                raise ValueError(f"exponent {sign * exp.value} is out of range: |k| is at "
                                 f"most {MAX_EXPONENT}, multiplied through nested powers")
            base = _eval_node(node.left, ctx, budget // max(exp.value, 1))
            t = max(len(base.num), len(base.den))
            bound = math.comb(exp.value + t - 1, t - 1)
            if bound > MAX_TERMS:
                raise ValueError(f"power {sign * exp.value} of a {t}-term polynomial can "
                                 f"expand to {bound} terms, more than {MAX_TERMS}")
            return base ** (sign * exp.value)
        left = _eval_node(node.left, ctx, budget)
        right = _eval_node(node.right, ctx, budget)
        bound = _product_terms(node.op, left, right)
        if bound > MAX_TERMS:
            raise ValueError(f"a product of its operands can expand to {bound} terms, "
                             f"more than {MAX_TERMS}")
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        return left / right
    raise ValueError(f"unsupported expression element {type(node).__name__}")


def _product_terms(op: ast.operator, left: Scalar, right: Scalar) -> int:
    """Most terms of a polynomial product that ``left op right`` forms."""
    if isinstance(op, ast.Mult):
        pairs = [(left.num, right.num), (left.den, right.den)]
    elif isinstance(op, ast.Div):
        pairs = [(left.num, right.den), (left.den, right.num)]
    elif left.den == right.den:  # a sum over one denominator multiplies nothing
        return 0
    else:
        pairs = [(left.num, right.den), (right.num, left.den), (left.den, right.den)]
    return max(len(a) * len(b) for a, b in pairs)


# ---------------------------------------------------------------------------
# Parameter resolution


class _Params:
    """Every parameter of one job, and the names the job has read."""

    def __init__(self, parameters: dict, notes: list):
        self.given = {k: v for k, v in parameters.items() if k != "symbolic"}
        self.notes = notes
        self.read: set = set()
        seen = dict.fromkeys(parameters.get("symbolic") or [])
        for name in seen:
            if name not in _PARAM_ORDER:
                raise ValueError(f"unknown parameter {name!r}")
        if len(seen) > _MAX_SYMBOLIC:
            raise ValueError(f"at most {_MAX_SYMBOLIC} symbolic parameters "
                             f"per job, got {len(seen)}")
        clash = [n for n in seen if self.given.get(n) is not None]
        if clash:
            raise ValueError(f"parameters both symbolic and bound: {clash}")
        self.symbolic = tuple(n for n in _PARAM_ORDER if n in seen)
        self.ctx = PolyContext(self.symbolic)

    def get(self, name: str, default=None):
        """The given value of a parameter, or the default when absent."""
        self.read.add(name)
        value = self.given.get(name)
        return default if value is None else value

    def declared(self, name: str) -> bool:
        """Whether the job binds the parameter or declares it symbolic."""
        return name in self.symbolic or self.given.get(name) is not None

    def levels(self, *names: str) -> list:
        """The named integer parameters; ValueError unless each is at least 1."""
        self.read.update(names)
        values = [int(self.given[name]) for name in names]
        if min(values) < 1:
            what = "a positive integer" if len(names) == 1 else "positive integers"
            raise ValueError(f"{' and '.join(names)} must be {what}")
        return values

    def value(self, name: str) -> Scalar | None:
        """The declared value of a weight or series parameter, or None."""
        if name in self.symbolic:
            self.read.add(name)
            return self.ctx.var(name)
        raw = self.get(name)
        return None if raw is None else parse_expression(raw, self.ctx)

    def unread(self) -> list:
        """The given or symbolic parameters the job never read."""
        return sorted(n for n in {*self.symbolic, *self.given}
                      if n not in self.read and self.declared(n))

    def require(self, name: str) -> Scalar:
        val = self.value(name)
        if val is None:
            raise ValueError(f"parameter {name!r} is required; pass --{name} "
                             f"or --symbolic {name}")
        return val

    def default(self, name: str, value, why: str) -> Scalar:
        """The declared value, or a derived binding recorded in the notes."""
        val = self.value(name)
        if val is not None:
            return val
        bound = self.ctx.scalar(value)
        self.notes.append(f"bound {name} = {bound} ({why})")
        return bound


def _w22_weight(params: _Params, p: int | None = None,
                r: int | None = None) -> HighestWeight:
    """W(2,2) highest weight, deriving degenerate values when omitted."""
    ctx = params.ctx
    if p == 1:
        hW = params.default("hW", 0, "degeneracy at p = 1 forces hW = 0")
        c = params.require("c")
    else:
        hW = params.require("hW")
        c = params.value("c") if p is not None else params.require("c")
        if c is None:
            c = hW * Fraction(-24, p * p - 1)
            params.notes.append(f"bound c = -24 hW / (p^2 - 1) = {c} "
                                "(degeneracy at p)")
    if r is not None:
        h = params.value("h")
        if h is None:
            h = ctx.scalar(verma.necessary_h(p, r, hW))
            params.notes.append(f"bound h = {h} (the necessary value for "
                                f"(p, r) = ({p}, {r}))")
    else:
        h = params.default("h", 0, "h defaults to 0 when omitted")
    return HighestWeight.w22(ctx, c=c, h=h, hW=hW)


def _hv_weight(params: _Params, p: int | None = None) -> HighestWeight:
    """Twisted Heisenberg-Virasoro highest weight; without hI, a requested
    p binds hI to the degenerate ratio of the case that --case names."""
    cL = params.default("cL", 0, "cL does not affect this computation")
    cLI = params.require("cLI")
    cI = params.default("cI", 0, "the theory requires cI = 0")
    h = params.default("h", 0, "h defaults to 0")
    hI = params.value("hI") if p is not None else params.require("hI")
    if hI is None:
        case = params.get("case", "I")
        mult = 1 + p if case == "I" else 1 - p
        hI = cLI * mult
        params.notes.append(f"bound hI = {mult} cLI = {hI} "
                            f"(case {case} degeneracy at p = {p})")
    return HighestWeight.hv(ctx=params.ctx, cL=cL, cLI=cLI, h=h, hI=hI, cI=cI)


def _series(params: _Params, with_f: bool) -> tensor.IntermediateSeries:
    alpha = params.require("alpha")
    beta = params.require("beta")
    f = params.default("F", 0, "F defaults to 0") if with_f else params.ctx.zero
    return tensor.IntermediateSeries(alpha, beta, f)


# ---------------------------------------------------------------------------
# Command implementations


def _rendered(vectors: list, empty: str) -> dict:
    """Text and LaTeX of a list of vectors, one per line."""
    return {"text": "\n".join(map(render.text_vector, vectors)) or empty,
            "latex": "\n".join(map(render.latex_vector, vectors)) or "\\emptyset"}


def _run_singular(job: Job, params: _Params) -> Report:
    algebra = params.get("algebra", "w22")
    [p] = params.levels("p")
    hw = _w22_weight(params, p=p) if algebra == "w22" else _hv_weight(params, p=p)
    M = ModuleContext(hw)
    vectors = verma.singular_space(M, p)
    results = {"algebra": algebra, "p": p,
               "vectors": [v.to_json() for v in vectors]}
    return Report(job, results, rendered=_rendered(vectors, "no singular vectors at this level"))


def _run_subsingular(job: Job, params: _Params) -> Report:
    p, r = params.levels("p", "r")
    hw = _w22_weight(params, p=p, r=r)
    M = ModuleContext(hw)
    u = verma.subsingular(M, p, r)
    results = {"p": p, "r": r, "found": u is not None,
               "vector": u.to_json() if u is not None else None}
    return Report(job, results, rendered=_rendered([] if u is None else [u],
                                                   "no subsingular vector at this weight"))


def _run_classify(job: Job, params: _Params) -> Report:
    algebra = params.get("algebra", "w22")
    hw = _w22_weight(params) if algebra == "w22" else _hv_weight(params)
    rep = verma.classify(ModuleContext(hw))
    results = {"algebra": algebra, "report": rep.to_json()}
    lines = [f"verdict: {rep.verdict}"]
    if rep.p is not None:
        lines.append(f"p = {rep.p}" + (f", r = {rep.r}" if rep.r else ""))
    if rep.case:
        lines.append(f"case: {rep.case}")
    if rep.u_prime is not None:
        lines.append("u' = " + render.text_vector(rep.u_prime))
    if rep.u is not None:
        lines.append("u  = " + render.text_vector(rep.u))
    lines.extend(rep.notes)
    latex = "\n".join(render.latex_vector(v) for v in (rep.u_prime, rep.u) if v is not None)
    return Report(job, results, rendered={"text": "\n".join(lines),
                                          "latex": latex or "\\emptyset"})


_CHAR_FAMILIES = {"verma": verma.char_verma, "jprime": verma.char_j_prime,
                  "lprime": verma.char_l_prime, "l": verma.char_l, "j": verma.char_j}


def _run_character(job: Job, params: _Params) -> Report:
    family = params.get("family", "verma")
    if family not in _CHAR_FAMILIES:
        raise ValueError(f"family must be one of {tuple(_CHAR_FAMILIES)}")
    n_order = int(params.get("N", 20))
    if n_order < 0:
        raise ValueError("N must be a nonnegative integer")
    if family == "verma":
        # the Verma series reads h alone; c and hW are placeholders
        zero = params.ctx.zero
        h = params.default("h", 0, "h defaults to 0 when omitted")
        hw, levels = HighestWeight.w22(params.ctx, c=zero, h=h, hW=zero), ()
    else:
        names = ("p", "r") if family in ("l", "j") else ("p",)
        for name in names:
            if params.get(name) is None:
                raise ValueError(f"family {family!r} needs --{name}")
        levels = params.levels(*names)
        hw = _w22_weight(params, *levels)
        verma.require_degenerate(hw, *levels)
    series = _CHAR_FAMILIES[family](hw, *levels, n_order)
    results = {"family": family, "N": n_order, "series": series.to_json()}
    rendered = {"text": render.text_character(series), "latex": render.latex_character(series)}
    return Report(job, results, rendered=rendered)


def _decision_report(job: Job, decision: tensor.TensorDecision, s) -> Report:
    """Report of a decision on series s: text and LaTeX renderings of the
    verdict and witness, and exit code 3 on an Unknown verdict."""
    lines = [f"verdict: {decision.verdict}"]
    if decision.reason:
        lines.append(f"reason: {decision.reason}")
    if decision.witness is not None:
        lines.append(f"witness: {decision.witness}")
    if decision.p is not None:
        lines.append(f"p = {decision.p}" +
                     (f", r = {decision.r}" if decision.r else ""))
    lines.extend(decision.notes)
    wit = decision.witness
    wit_tex = render.latex_scalar(wit) if isinstance(wit, Scalar) else str(wit)
    rendered = {"text": "\n".join(lines),
                "latex": f"\\text{{{decision.verdict}}}: {wit_tex}"}
    results = {"decision": decision.to_json(), "series": s.to_json()}
    return Report(job, results, rendered=rendered,
                  exit_code=3 if decision.verdict == "Unknown" else 0)


def _run_tensor(job: Job, params: _Params) -> Report:
    hw = _w22_weight(params)
    s = _series(params, with_f=False)
    report = _decision_report(job, tensor.decide_tensor(hw, s), s)
    layer = params.get("n")
    if layer is not None:
        wq = tensor.subquotient_weight(hw, s, int(layer))
        report.results["subquotientWeight"] = wq.to_json()
        report.rendered["text"] += f"\nlayer {layer} weight: " + render.text_weights(wq.weights)
        report.rendered["latex"] += (f"\n\\text{{layer {layer} weight}}: "
                                     + render.latex_weights(wq.weights))
    return report


def _run_hv_decide(job: Job, params: _Params) -> Report:
    # --p binds hI only when hI is not given, so it is read only then
    p = None
    if not params.declared("hI") and params.get("p") is not None:
        [p] = params.levels("p")
    hw = _hv_weight(params, p=p)
    s = _series(params, with_f=True)
    return _decision_report(job, tensor.decide_tensor_hv(hw, s), s)


def _run_scan(job: Job, params: _Params) -> Report:
    p_max, r_max = params.levels("pmax", "rmax")
    text = params.get("offsets")
    pieces = [] if text is None else text.split(",")
    for i, piece in enumerate(pieces, 1):
        if not piece.strip():
            raise ValueError(f"offset {i} of {text!r} is empty")
    offsets = [parse_expression(piece, PolyContext(())).as_fraction() for piece in pieces]
    rows = verma.conjecture_scan(p_max, r_max, offsets)
    results = {"pmax": p_max, "rmax": r_max,
               "offsets": [str(d) for d in offsets], "rows": rows}
    headers = ["p", "r", "found", "offsets excluded", "shape", "ok"]
    table = []
    for row in rows:
        table.append([row["p"], row["r"], row["found"],
                      all(row["offsets"].values()) if row["offsets"] else "-",
                      "-" if row["shape_ok"] is None else row["shape_ok"],
                      "pass" if row["ok"] else "FAIL"])
    rendered = {"text": render.text_table(headers, table),
                "latex": render.latex_table(headers, table)}
    return Report(job, results, rendered=rendered)


def run(job: Job) -> Report:
    """Dispatch a job and attach bindings and timing to the report."""
    if job.command not in _COMMANDS:
        raise ValueError(f"unknown command {job.command!r}")
    runner = _COMMANDS[job.command][1]
    notes: list = []
    params = _Params(job.parameters, notes)
    started = time.perf_counter()
    report = runner(job, params)
    unread = params.unread()
    if unread:
        raise ValueError(f"parameters not read by {job.command}: {', '.join(unread)}")
    report.notes = notes + list(report.notes)
    report.timing = {"seconds": round(time.perf_counter() - started, 6)}
    return report


# ---------------------------------------------------------------------------
# Argument parsing


_FORMATS = ("json", "text", "latex")
_W22, _HV = ("c", "h", "hW"), ("h", "cL", "cLI", "cI", "hI")
_BOTH = _PARAM_ORDER[:7]  # every weight; --algebra picks the ones read
_ALGEBRA = ("--algebra", dict(choices=("w22", "hv")))

# name: (help text, runner, its own flags as (flag, add_argument keywords),
#        the exact parameters it takes, or None for no --symbolic either)
_COMMANDS = {
    "singular": ("singular vectors at level p", _run_singular, (
        _ALGEBRA, ("--p", dict(type=int, required=True)),
        ("--case", dict(choices=("I", "L"),
                        help="degeneracy case that binds hI for the twisted algebra"))),
        _BOTH),
    "subsingular": ("the level-rp subsingular vector", _run_subsingular, (
        ("--p", dict(type=int, required=True)), ("--r", dict(type=int, required=True))),
        _W22),
    "classify": ("submodule structure of a Verma module", _run_classify, (_ALGEBRA,), _BOTH),
    "character": ("graded dimension series", _run_character, (
        ("--family", dict(choices=tuple(_CHAR_FAMILIES))),
        ("--N", dict(type=int, help="truncation order")),
        ("--p", dict(type=int)), ("--r", dict(type=int))),
        _W22),
    "tensor": ("irreducibility of a tensor product", _run_tensor, (
        ("--n", dict(type=int, help="also report the layer weight at this index")),),
        _W22 + ("alpha", "beta")),
    "hv-decide": ("tensor decision for the twisted algebra", _run_hv_decide, (
        ("--p", dict(type=int, help="bind hI to the degenerate ratio for this p")),
        ("--case", dict(choices=("I", "L")))),
        _HV + ("alpha", "beta", "F")),
    "scan": ("subsingular existence evidence grid", _run_scan, (
        ("--pmax", dict(type=int, required=True)), ("--rmax", dict(type=int, required=True)),
        ("--offsets", dict(type=str, help="comma-separated h offsets that must fail"))),
        None),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one command, or of all seven when command is None.

    A one-command parser names every command in its usage line, so its
    errors print the same usage as the full parser's; the full parser
    serves the top-level help and a missing or unknown command.
    """
    parser = argparse.ArgumentParser(
        prog="vermatools", allow_abbrev=False,
        description="Exact singular vectors, characters, and tensor-product "
                    "decisions for two extended Virasoro algebras.")
    names = tuple(_COMMANDS) if command is None else (command,)
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, _, flags, exact = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag, keywords in flags:
            p.add_argument(flag, **keywords)
        p.add_argument("--format", choices=_FORMATS, default="text")
        if exact is not None:
            p.add_argument("--symbolic", action="append", metavar="NAME",
                           help="treat NAME as a formal parameter (up to 3)")
            for param in exact:
                p.add_argument(f"--{param}", type=str, help=f"exact value for {param}")
    return parser


def _job_from_args(args: argparse.Namespace) -> Job:
    parameters = {key: value for key, value in sorted(vars(args).items())
                  if key not in ("command", "format") and value is not None}
    return Job(args.command, parameters)


_VALUE_FLAGS = frozenset({f"--{name}" for name in _PARAM_ORDER}
                         | {"--offsets", "--n"})
_LEADING_MINUS_VALUE = re.compile(r"^-[A-Za-z0-9(]")


def _merge_value_flags(argv: list) -> list:
    """Join `--flag -expr` pairs into `--flag=-expr`.

    Exact values like -1/2 or -hW/2 start with a minus sign, which
    argparse would otherwise read as an option name.
    """
    merged = []
    for tok in argv:
        if merged and merged[-1] in _VALUE_FLAGS and _LEADING_MINUS_VALUE.match(tok):
            merged[-1] += f"={tok}"
        else:
            merged.append(tok)
    return merged


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(_merge_value_flags(argv))
    job = _job_from_args(args)
    try:
        report = run(job)
    except verma.OutOfReach as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(emit(report, args.format).decode())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
