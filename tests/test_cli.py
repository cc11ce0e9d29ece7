"""Command-line jobs: dispatch, rendering, determinism, exit codes."""

import json

import pytest

from vermatools import scalar
from vermatools.cli import Job, Report, emit, main, parse_expression, run
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


def test_subsingular_example_with_sym_alias(capsys):
    code, out, _ = run_main(capsys, "subsingular", "--c-sym", "--h", "-1/2",
                            "--hW", "0", "--p", "1", "--r", "2")
    assert code == 0
    assert out.strip() == "(L(-1)^2 + 6/c W(-2)).v"


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


def test_json_round_trip():
    job = Job("singular", {"algebra": "w22", "p": 2, "symbolic": ["hW"]})
    report = run(job)
    back = Report.from_json(json.loads(emit(report, "json").decode()))
    assert back == report


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


def test_unknown_command_raises():
    with pytest.raises(ValueError):
        run(Job("nonsense", {}))


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
    (("hv-decide", "--cLI", "1", "--h", "3", "--alpha", "1/3", "--beta", "0", "--F", "3",
      "--p", "0", "--hI", "3"), "p must be a positive integer"),
    (("singular", "--p", "0", "--hW", "1"), "p must be a positive integer"),
    (("subsingular", "--p", "2", "--r", "0", "--hW", "1"), "p and r must be positive integers"),
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
