"""Command-line jobs: dispatch, rendering, determinism, exit codes."""

import argparse
import json
import re
from fractions import Fraction

import pytest

from vermatools import cli, render, scalar
from vermatools.cli import Job, Report, emit, main, parse_expression, run
from vermatools.pbw import HighestWeight, ModuleContext, PBWMonomial
from vermatools.scalar import PolyContext


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_singular_level_two_row(capsys):
    code, out, _ = run_main(capsys, "singular", "--algebra", "w22",
                            "--p", "2", "--symbolic", "hW")
    assert code == 0
    assert out.strip() == "(W(-2) - 3/(4*hW) W(-1)^2).v"


def test_subsingular_example_with_symbolic_c(capsys):
    code, out, _ = run_main(capsys, "subsingular", "--symbolic", "c", "--h", "-1/2",
                            "--hW", "0", "--p", "1", "--r", "2")
    assert code == 0
    assert out.strip() == "(L(-1)^2 + 6/c W(-2)).v"


_GENERATOR = re.compile(r"([LWI])\(-(\d+)\)(?:\^(\d+))?")
_WORD = re.compile(r"(?:[LWI]\(-\d+\)(?:\^\d+)?)+")


def read_text_vector(text: str, names) -> "sympy.Expr":
    """A text-form vector as a sympy expression in commuting symbols X_m for
    the generators X(-m); normally ordered monomials stay distinct."""
    sympy = pytest.importorskip("sympy")
    body = text.strip().removesuffix(".v")
    body = body.replace(" + ", "+").replace(" - ", "-").replace(" ", "*")
    body = _WORD.sub(lambda m: "(" + "*".join(
        f"{fam}_{mode}**{mult or 1}" for fam, mode, mult in _GENERATOR.findall(m.group())
    ) + ")", body)
    return sympy.sympify(body.replace("^", "**"),
                         locals={name: sympy.Symbol(name) for name in names})


def json_vector(obj: dict, names, family: str) -> "sympy.Expr":
    """The same expression built from a vector's json form."""
    sympy = pytest.importorskip("sympy")
    params = [sympy.Symbol(name) for name in names]

    def poly(items):
        return sum(sympy.Rational(t["coeff"])
                   * sympy.prod([x ** e for x, e in zip(params, t["exponents"])])
                   for t in items)

    total = sympy.Integer(0)
    for term in obj["terms"]:
        mono = term["monomial"]
        word = sympy.prod([sympy.Symbol(f"{family}_{m}") for m in mono["w"]]
                          + [sympy.Symbol(f"L_{n}") for n in mono["l"]])
        total += poly(term["coeff"]["numer"]) / poly(term["coeff"]["denom"]) * word
    return total


@pytest.mark.parametrize("argv,names,family", [
    (("singular", "--algebra", "hv", "--p", "2", "--case", "L", "--cLI", "1/8",
      "--symbolic", "h"), ("h",), "I"),
    (("singular", "--algebra", "hv", "--p", "3", "--case", "L", "--symbolic", "cLI",
      "--symbolic", "h"), ("h", "cLI"), "I"),
    (("subsingular", "--symbolic", "hW", "--p", "2", "--r", "2"), ("hW",), "W"),
])
def test_text_vector_reads_back_as_its_json_form(capsys, argv, names, family):
    _, text, _ = run_main(capsys, *argv)
    _, out, _ = run_main(capsys, *argv, "--format", "json")
    results = json.loads(out)["results"]
    [vec] = results["vectors"] if "vectors" in results else [results["vector"]]
    sympy = pytest.importorskip("sympy")
    assert sympy.cancel(read_text_vector(text, names) - json_vector(vec, names, family)) == 0


def test_polynomial_coefficients_are_bracketed_sign_outside():
    ctx = PolyContext(("hW",))
    hW = ctx.var("hW")
    M = ModuleContext(HighestWeight.w22(ctx, c=hW * -8, h=0, hW=hW))
    vec = M.vector({PBWMonomial.make(l=(2,)): ctx.one,
                    PBWMonomial.make(w=(1,), l=(1,)): 1 - hW})
    assert render.text_vector(vec) == "(L(-2) - (hW - 1) W(-1)L(-1)).v"
    assert repr(vec) == render.text_vector(vec)
    assert render.latex_vector(vec) == "\\left(L_{-2}-\\left(h_{W}-1\\right)W_{-1}L_{-1}\\right)v"
    # alone, a polynomial keeps the sign of each term
    assert str(1 - hW) == "-hW + 1"
    assert render.latex_scalar(1 - hW) == "-h_{W}+1"


def test_singular_level_three_latex(capsys):
    code, out, _ = run_main(capsys, "singular", "--p", "3",
                            "--symbolic", "hW", "--format", "latex")
    assert code == 0
    assert out.strip() == ("\\left(W_{-3}-\\frac{2}{h_{W}}W_{-2}W_{-1}"
                           "+\\frac{1}{h_{W}^{2}}W_{-1}^{3}\\right)v")


def test_character_text(capsys):
    code, out, _ = run_main(capsys, "character", "--N", "5")
    assert code == 0
    assert out.strip() == "1 + 2q + 5q^2 + 10q^3 + 20q^4 + 36q^5"


def test_empty_singular_space_json():
    report = run(Job("singular", {"algebra": "w22", "p": 2,
                                  "c": "5", "h": "0", "hW": "1"}))
    assert report.results["vectors"] == []
    doc = json.loads(emit(report, "json").decode())
    assert doc["results"]["vectors"] == []


def test_scan_rows_all_pass(capsys):
    code, out, _ = run_main(capsys, "scan", "--pmax", "2", "--rmax", "2",
                            "--offsets", "1/3,-2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rows = doc["results"]["rows"]
    assert [(row["p"], row["r"]) for row in rows] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert all(row["ok"] for row in rows)
    assert all(all(row["offsets"].values()) for row in rows)


@pytest.mark.parametrize("offsets", ["0.5", "1e-3", "1/3,0.5"])
def test_scan_float_offsets_exit_two(capsys, offsets):
    code, out, err = run_main(capsys, "scan", "--pmax", "1", "--rmax", "1",
                              "--offsets", offsets)
    assert code == 2
    assert out == ""
    assert "only integer literals are exact" in err


_TENSOR = ("tensor", "--c", "-8", "--h", "13/4", "--hW", "1", "--alpha", "1/3",
           "--beta", "0")


@pytest.mark.parametrize("argv,named", [
    (_TENSOR + ("--F", "5"), "--F"),
    (_TENSOR + ("--cLI", "7"), "--cLI"),
    (("classify", "--c", "-8", "--h", "5", "--hW", "1", "--cLI", "3"), "cLI"),
    (("hv-decide", "--cLI", "1", "--h", "3", "--hI", "3", "--alpha", "1/3",
      "--beta", "0", "--F", "3", "--c", "99"), "--c"),
    (("subsingular", "--hW", "1", "--p", "3", "--r", "1", "--hI", "4"), "--hI"),
    (("character", "--N", "3", "--hI", "2"), "--hI"),
    (("classify", "--algebra", "hv", "--cLI", "2", "--hI", "6", "--h", "3",
      "--hW", "1"), "hW"),
    (("singular", "--p", "2", "--symbolic", "hW", "--symbolic", "cLI"), "cLI"),
    (("scan", "--pmax", "1", "--rmax", "1", "--symbolic", "hW"), "--symbolic"),
    (("scan", "--pmax", "1", "--rmax", "1", "--off", "1/3"), "--off"),
    (("tensor", "--c", "-8", "--h", "13/4", "--hW", "1", "--alph", "1/3",
      "--beta", "0"), "--alph"),
    # --case and hv-decide --p bind hI, so a given hI leaves them unread
    (("hv-decide", "--cLI", "1", "--h", "3", "--hI", "3", "--alpha", "1/3", "--beta", "0",
      "--F", "0", "--case", "L"), "read by hv-decide: case\n"),
    (("hv-decide", "--cLI", "1", "--h", "3", "--hI", "5", "--p", "2", "--case", "L",
      "--alpha", "1/3", "--beta", "0", "--F", "3"), "read by hv-decide: case, p\n"),
    (("hv-decide", "--cLI", "1", "--h", "3", "--alpha", "1/3", "--beta", "0", "--F", "3",
      "--p", "0", "--hI", "3"), "read by hv-decide: p\n"),
    (("singular", "--algebra", "hv", "--p", "2", "--case", "L", "--hI", "3", "--cLI", "1",
      "--h", "3"), "read by singular: case\n"),
    (("singular", "--algebra", "w22", "--case", "L", "--p", "2", "--symbolic", "hW"),
     "read by singular: case\n"),
    # the Verma series reads only h and N
    (("character", "--family", "verma", "--p", "3", "--r", "9", "--N", "3"),
     "read by character: p, r\n"),
    (("character", "--N", "3", "--c", "1", "--hW", "2"), "read by character: c, hW\n"),
])
def test_parameter_the_command_does_not_read_exits_two(capsys, argv, named):
    try:
        code = main(list(argv))
    except SystemExit as stop:  # argparse refuses a flag the command lacks
        code = stop.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert named in captured.err


def test_library_job_with_an_unread_parameter_raises():
    job = Job("tensor", {"c": "-8", "h": "13/4", "hW": "1", "alpha": "1/3",
                         "beta": "0", "F": "5"})
    with pytest.raises(ValueError, match="parameters not read by tensor: F"):
        run(job)


def test_json_round_trip():
    job = Job("singular", {"algebra": "w22", "p": 2, "symbolic": ["hW"]})
    report = run(job)
    back = Report.from_json(json.loads(emit(report, "json").decode()))
    assert back == report


def test_report_equality_reads_job_results_and_notes():
    job = Job("scan", {"pmax": 1, "rmax": 1})
    report = Report(job, {"rows": []}, ["a note"])
    assert report == Report(job, {"rows": []}, ["a note"], timing={"seconds": 1.0},
                            rendered={"text": "x"}, exit_code=3)
    assert report != Report(job, {"rows": []}, ["another note"])
    assert report != Report(job, {"rows": [1]}, ["a note"])
    assert report != Report(Job("scan", {"pmax": 2, "rmax": 1}), {"rows": []}, ["a note"])
    assert (report == "x") is False


def test_emit_rejects_a_missing_rendering_and_an_unknown_format():
    report = run(Job("singular", {"algebra": "w22", "p": 2, "symbolic": ["hW"]}))
    back = Report.from_json(json.loads(emit(report, "json").decode()))
    with pytest.raises(ValueError, match="^report carries no text rendering$"):
        emit(back, "text")
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        emit(report, "xml")


def test_json_determinism_modulo_timing():
    job = Job("subsingular", {"p": 1, "r": 2, "h": "-1/2", "hW": "0",
                              "symbolic": ["c"]})
    docs = []
    for _ in range(2):
        doc = json.loads(emit(run(job), "json").decode())
        doc["timing"] = None
        docs.append(doc)
    assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)


def test_classify_command(capsys):
    code, out, _ = run_main(capsys, "classify", "--c", "-8", "--h", "13/4",
                            "--hW", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rep = doc["results"]["report"]
    assert rep["verdict"] == "UprimeAndSubsingular"
    assert (rep["p"], rep["r"]) == (2, 1)


def test_tensor_command_verdicts(capsys):
    code, out, _ = run_main(capsys, "tensor", "--c", "-8", "--h", "13/4",
                            "--hW", "1", "--alpha", "1/3", "--beta", "0",
                            "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["decision"]["verdict"] == "Irreducible"
    code2, out2, _ = run_main(capsys, "tensor", "--c", "-8", "--h", "13/4",
                              "--hW", "1", "--alpha", "0", "--beta", "0",
                              "--format", "json")
    assert code2 == 0
    doc2 = json.loads(out2)
    assert doc2["results"]["decision"]["reason"] == "IntegralShift"
    assert doc2["results"]["decision"]["witness"] == -1


def test_hv_unknown_exit_code(capsys):
    code, out, _ = run_main(capsys, "hv-decide", "--cL", "1", "--cLI", "2",
                            "--h", "0", "--hI", "6", "--alpha", "1/2",
                            "--beta", "0", "--F", "-2")
    assert code == 3
    assert "Unknown" in out


@pytest.mark.parametrize("argv,p", [
    (("classify", "--c", "-24", "--hW", "4224", "--h", "0"), 65),
    (("classify", "--algebra", "hv", "--cLI", "1", "--hI", "72", "--h", "0"), 71),
    (("classify", "--algebra", "hv", "--cLI", "1", "--hI", "-70", "--h", "0"), 71),
    (("tensor", "--c", "-24", "--hW", "4224", "--h", "0", "--alpha", "1/3",
      "--beta", "0"), 65),
])
def test_degenerate_level_beyond_budget_exits_three(capsys, argv, p):
    code, out, err = run_main(capsys, *argv)
    assert code == 3
    assert out == ""
    assert f"p = {p}" in err


def test_hv_decide_beyond_budget_exits_three(capsys):
    argv = ("hv-decide", "--cLI", "1", "--h", "3", "--alpha", "1/3", "--beta", "0")
    code, out, err = run_main(capsys, *argv, "--F", "3", "--hI", "71")
    assert code == 3
    assert out == ""
    assert "p = 70" in err
    code, out, _ = run_main(capsys, *argv, "--F", "0", "--hI", "71", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["decision"]["reason"] == "NoSubsingular"


def test_inexact_division_exits_two(capsys, monkeypatch):
    def inexact(a, b):
        raise ArithmeticError("inexact polynomial division")

    monkeypatch.setattr(scalar, "_pdiv_exact", inexact)
    code, out, err = run_main(capsys, "singular", "--p", "2",
                              "--symbolic", "hW", "--symbolic", "h")
    assert code == 2
    assert out == ""
    assert "inexact polynomial division" in err


@pytest.mark.parametrize("argv,message", [
    (("classify", "--c", "True", "--h", "0", "--hW", "1"),
     "only integer literals are exact: True"),
    (("classify", "--c", "True", "--h", "0", "--hW", "False"),
     "only integer literals are exact: False"),
    (("classify", "--c", "2**True", "--h", "0", "--hW", "1"),
     "exponents must be integer literals"),
    (("classify", "--c", "2**100000", "--h", "0", "--hW", "1"),
     "exponent 100000 is out of range: |k| is at most 64, multiplied through nested powers"),
    (("classify", "--c", "(2**8)**-9", "--h", "0", "--hW", "1"),
     "exponent 8 is out of range: |k| is at most 64, multiplied through nested powers"),
    (("classify", "--c", "2**-65", "--h", "0", "--hW", "1"),
     "exponent -65 is out of range: |k| is at most 64, multiplied through nested powers"),
    (("tensor", "--symbolic", "c", "--symbolic", "h", "--symbolic", "hW",
      "--alpha", "(hW+h+c+1)**20", "--beta", "0"),
     "power 20 of a 4-term polynomial can expand to 1771 terms, more than 1000"),
    (("tensor", "--symbolic", "c", "--symbolic", "h", "--symbolic", "hW",
      "--alpha", "*".join(["(hW+h+c+1)**16"] * 4), "--beta", "0"),
     "a product of its operands can expand to 938961 terms, more than 1000"),
    (("tensor", "--symbolic", "c", "--symbolic", "h", "--symbolic", "hW",
      "--alpha", "*".join(["(hW+h+c+1)"] * 64), "--beta", "0"),
     "a product of its operands can expand to 1144 terms, more than 1000"),
    (("tensor", "--symbolic", "c", "--symbolic", "h", "--symbolic", "hW",
      "--alpha", "1/(hW+h+c+1)**16 + 1/(hW+h+c+2)**16", "--beta", "0"),
     "a product of its operands can expand to 938961 terms, more than 1000"),
    (("classify", "--symbolic", "foo", "--c", "1", "--hW", "1"), "unknown parameter 'foo'"),
    (("classify", "--symbolic", "hW", "--hW", "1", "--c", "1"),
     "parameters both symbolic and bound: ['hW']"),
    (("classify", "--c", "x", "--hW", "1"), "unknown symbol 'x'; declare it with --symbolic"),
    (("classify", "--c", "f(1)", "--hW", "1"), "unsupported expression element Call"),
    (("classify", "--c", "1/", "--hW", "1"),
     "cannot parse expression '1/': invalid syntax (<unknown>, line 1)"),
    (("classify", "--algebra", "hv", "--cLI", "1"),
     "parameter 'hI' is required; pass --hI or --symbolic hI"),
    (("classify", "--hW", "1"), "parameter 'c' is required; pass --c or --symbolic c"),
])
def test_boolean_literals_exit_two(capsys, argv, message):
    code, out, err = run_main(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_missing_parameter_exits_two(capsys):
    code, _, err = run_main(capsys, "tensor", "--c", "-8", "--hW", "1",
                            "--alpha", "1/3")
    assert code == 2
    assert "beta" in err


def test_symbolic_limit_exits_two(capsys):
    code, _, err = run_main(capsys, "singular", "--p", "2", "--symbolic", "hW",
                            "--symbolic", "c", "--symbolic", "h",
                            "--symbolic", "hI")
    assert code == 2
    assert "symbolic" in err


def test_symbolic_name_given_twice_counts_once(capsys):
    once = run_main(capsys, "classify", "--symbolic", "hW", "--c", "1")
    twice = run_main(capsys, "classify", "--symbolic", "hW", "--symbolic", "hW", "--c", "1")
    assert once[0] == 0
    assert twice == once


def test_symbolic_value_clash_exits_two(capsys):
    code, _, err = run_main(capsys, "singular", "--p", "2",
                            "--symbolic", "hW", "--hW", "3")
    assert code == 2
    assert "symbolic" in err


def test_negative_value_flags_parse(capsys):
    code, out, _ = run_main(capsys, "classify", "--c", "-8", "--h", "-1/2",
                            "--hW", "-2", "--format", "json")
    assert code == 0
    # -8 = -24 (-2) / (2^2 - 1) fails, so this is off the degenerate locus
    assert json.loads(out)["results"]["report"]["verdict"] == "VermaIrreducible"


def test_expression_parser_is_exact():
    ctx = PolyContext(("hW",))
    assert parse_expression("3/4", ctx).as_fraction().numerator == 3
    assert parse_expression("-(1+1)/4", ctx).as_fraction() == -0.5
    val = parse_expression("hW**2 - 2*hW", ctx)
    assert val == ctx.var("hW") ** 2 - ctx.scalar(2) * ctx.var("hW")
    with pytest.raises(ValueError):
        parse_expression("0.5", ctx)
    with pytest.raises(ValueError):
        parse_expression("c + 1", ctx)
    with pytest.raises(ValueError):
        parse_expression("hW ** hW", ctx)


def test_negative_integer_exponents_parse():
    ctx = PolyContext(("hW",))
    hW = ctx.var("hW")
    assert parse_expression("hW**-1", ctx) * hW == ctx.one
    assert parse_expression("2**(-1)", ctx).as_fraction() == Fraction(1, 2)
    assert parse_expression("(hW + 1)**-2", ctx) == 1 / (hW + 1) ** 2
    with pytest.raises(ValueError, match="exponents must be integer literals"):
        parse_expression("2**-True", ctx)
    # at the bound: |k| = 64, also as the product of nested exponents
    assert parse_expression("(2**8)**-8 * (hW**0)**64", ctx).as_fraction() == Fraction(1, 2**64)
    # a two-term base at |k| = 64 expands to 65 terms, within MAX_TERMS
    assert len(parse_expression("(hW + 1)**64", ctx).num) == 65
    # products within MAX_TERMS: 21 * 21 terms, and a sum over one denominator
    assert len(parse_expression("(hW + 1)**20 * (hW + 1)**20", ctx).num) == 41
    assert len(parse_expression("hW**40/(hW + 1)**40 + 1/(hW + 1)**40", ctx).den) == 41


def test_negative_exponent_of_zero_exits_two(capsys):
    code, out, err = run_main(capsys, "classify", "--c", "0**-1", "--h", "0",
                              "--hW", "1")
    assert code == 2
    assert out == ""
    assert err == "error: division by zero scalar\n"


@pytest.mark.parametrize("h_arg", ["--h=" + "+".join(["1"] * 1500), "--h=" + "-" * 5000 + "1"],
                         ids=["sum-of-1500", "5000-minus-signs"])
def test_deeply_nested_expression_exits_two(capsys, h_arg):
    # both pass Python's recursion limit, in _eval_node and in ast.parse
    code, out, err = run_main(capsys, "classify", "--symbolic", "hW", "--c", "1", h_arg)
    assert code == 2
    assert out == ""
    assert err.startswith("error: expression is nested too deeply")


def test_shallower_sum_still_evaluates(capsys):
    code, out, _ = run_main(capsys, "classify", "--symbolic", "hW", "--c", "1",
                            "--h", "+".join(["1"] * 900))
    assert code == 0
    assert out.startswith("verdict: ")


def test_negative_exponents_reach_the_verdict(capsys):
    # c = -4 and hW = 1/2 satisfy 2 hW + (p^2 - 1) c / 12 = 0 at p = 2
    code, out, _ = run_main(capsys, "classify", "--c", "-8*2**-1", "--h", "0",
                            "--hW", "2**(-1)", "--format", "json")
    assert code == 0
    report = json.loads(out)["results"]["report"]
    assert (report["verdict"], report["p"]) == ("UprimeOnly", 2)


def test_unknown_command_raises():
    with pytest.raises(ValueError):
        run(Job("nonsense", {}))


def test_unknown_character_family_raises():
    message = "family must be one of ('verma', 'jprime', 'lprime', 'l', 'j')"
    with pytest.raises(ValueError, match=re.escape(message)):
        run(Job("character", {"family": "x"}))


def test_report_notes_record_bindings():
    report = run(Job("singular", {"algebra": "w22", "p": 2, "symbolic": ["hW"]}))
    joined = " ".join(report.notes)
    assert "c = -24 hW / (p^2 - 1)" in joined
    assert "h = 0" in joined


def test_subsingular_none_is_a_clean_report(capsys):
    code, out, _ = run_main(capsys, "subsingular", "--hW", "1", "--p", "2",
                            "--r", "1", "--h", "99", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["found"] is False
    assert doc["results"]["vector"] is None


def test_symbolic_classify_verdict_is_marked_generic(capsys):
    code, out, _ = run_main(capsys, "classify", "--symbolic", "hW", "--c=-8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "verdict: VermaIrreducible"
    assert "holds over Q(hW)" in lines[1] and "generic" in lines[1]
    code, out, _ = run_main(capsys, "classify", "--symbolic", "hW", "--c=-8",
                            "--format", "json")
    assert code == 0
    report = json.loads(out)["results"]["report"]
    assert report["verdict"] == "VermaIrreducible"
    assert len(report["notes"]) == 1
    assert "Q(hW)" in report["notes"][0] and "specialising" in report["notes"][0]
    # a numeric weight keeps its verdict without the note
    code, out, _ = run_main(capsys, "classify", "--c=-8", "--hW=1", "--h=5",
                            "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["report"]["notes"] == []


@pytest.mark.parametrize("argv,message", [
    (("character", "--family", "lprime", "--p", "0", "--hW", "1"), "p must be a positive integer"),
    (("character", "--family", "jprime", "--p", "-2", "--hW", "1"), "p must be a positive integer"),
    (("character", "--family", "l", "--p", "2", "--r", "0", "--hW", "1"),
     "p and r must be positive integers"),
    (("character", "--family", "j", "--p", "2", "--r", "-1", "--hW", "1"),
     "p and r must be positive integers"),
    (("character", "--N", "-3"), "N must be a nonnegative integer"),
    (("hv-decide", "--cLI", "1", "--h", "3", "--alpha", "1/3", "--beta", "0", "--F", "3",
      "--p", "-3"), "p must be a positive integer"),
    (("singular", "--p", "0", "--hW", "1"), "p must be a positive integer"),
    (("subsingular", "--p", "2", "--r", "0", "--hW", "1"), "p and r must be positive integers"),
    (("scan", "--pmax", "0", "--rmax", "1"), "pmax and rmax must be positive integers"),
    (("scan", "--pmax", "1", "--rmax", "1", "--offsets", ",,"), "offset 1 of ',,' is empty"),
    (("scan", "--pmax", "1", "--rmax", "1", "--offsets", "1/3,,2"),
     "offset 2 of '1/3,,2' is empty"),
    # a quotient character at a weight without that quotient's structure
    (("character", "--family", "l", "--p", "2", "--r", "1", "--c", "7", "--hW", "1",
      "--h", "0"), "weight is not degenerate at p=2"),
    (("character", "--family", "jprime", "--p", "3", "--c", "1", "--hW", "1"),
     "weight is not degenerate at p=3"),
    (("character", "--family", "l", "--c", "1", "--h", "0", "--hW", "0", "--p", "1",
      "--r", "2"), "h is not at the subsingular point for (p, r)=(1, 2)"),
    (("character", "--family", "l", "--hW", "1"), "family 'l' needs --p"),
])
def test_out_of_range_levels_exit_two(capsys, argv, message):
    code, out, err = run_main(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_character_smallest_levels_are_accepted(capsys):
    code, out, _ = run_main(capsys, "character", "--N", "0")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run_main(capsys, "character", "--family", "l", "--p", "1", "--r", "1",
                            "--c", "1", "--N", "3")
    assert code == 0
    # (1 - q)^2 (1 + 2q + 5q^2 + 10q^3), with h = 0 at (p, r) = (1, 1)
    assert out.strip() == "1 + 2q^2 + 2q^3"


@pytest.mark.parametrize("fmt,line", [
    ("text", "layer 2 weight: c = -8, h = 5/4, hW = 1"),
    ("latex", "\\text{layer 2 weight}: c = -8,\\ h = \\frac{5}{4},\\ h_{W} = 1"),
])
def test_tensor_layer_weight_is_rendered(capsys, fmt, line):
    # the layer U_2 / U_3 has L_0 weight h - n - alpha - beta = 13/4 - 2
    code, out, _ = run_main(capsys, "tensor", "--c", "-8", "--h", "13/4", "--hW", "1",
                            "--alpha", "0", "--beta", "0", "--n", "2", "--format", fmt)
    assert code == 0
    assert out.splitlines()[-1] == line


def _subparsers(parser) -> dict:
    [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


_ACTION_FIELDS = ("option_strings", "dest", "default", "type", "choices", "required",
                  "help", "metavar")


@pytest.mark.parametrize("name", list(_subparsers(cli._build_parser())))
def test_one_command_parser_matches_the_full_parser(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    one = _subparsers(cli._build_parser(name))
    assert list(one) == [name]
    full = _subparsers(cli._build_parser())[name]
    assert ([[getattr(a, f) for f in _ACTION_FIELDS] for a in one[name]._actions]
            == [[getattr(a, f) for f in _ACTION_FIELDS] for a in full._actions])
    assert one[name].format_help() == full.format_help()


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    (), ("--help",), ("bogus",), ("classify", "--help"), ("classify", "--c", "1", "extra"),
    ("subsingular", "--p", "2"), ("tensor", "--format", "xml"),
], ids=" ".join)
def test_main_answers_as_with_the_full_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    own = _outcome(capsys, argv)
    full_parser = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full_parser())
    assert own == _outcome(capsys, argv)


def test_every_call_builds_its_own_parser(monkeypatch):
    built = []
    build = cli._build_parser

    def counted(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(cli, "_build_parser", counted)
    for _ in range(2):
        assert main(["character", "--N", "1"]) == 0
    assert built == ["character", "character"]
