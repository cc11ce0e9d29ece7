"""Readers for the command-line output, in each of its three formats.

The checks never ask the program to interpret its own output: vectors,
verdicts and series are read back from the json, text or latex that a
job printed.  A vector becomes {(w, l): coefficient}, where w and l are
the descending mode tuples of the second family and of L, and each
coefficient is an expression that `value` evaluates exactly at numeric
parameter values.
"""

from __future__ import annotations

import ast
import json
import re
from fractions import Fraction

_LATEX_NAMES = (("h_{W}", "hW"), ("h_{I}", "hI"), ("c_{LI}", "cLI"),
                ("c_{L}", "cL"), ("c_{I}", "cI"), ("\\alpha", "alpha"),
                ("\\beta", "beta"))
_NAME_RE = "hW|hI|cLI|cL|cI|alpha|beta|c|h|F|n"
_TEXT_MONO = re.compile(r"([WIL])\(-(\d+)\)(?:\^(\d+))?")
_LATEX_MONO = re.compile(r"([WIL])_\{-(\d+)\}(?:\^\{(\d+)\})?")


class OutputError(ValueError):
    """The output does not have the expected shape."""


# ---------------------------------------------------------------------------
# Exact expressions


def value(expr, env: dict) -> Fraction:
    """Evaluate a parsed coefficient at numeric parameter values."""
    if isinstance(expr, Fraction):
        return expr
    if isinstance(expr, tuple) and expr[0] == "poly":
        num = _poly_value(expr[1], expr[3], env)
        den = _poly_value(expr[2], expr[3], env)
        return num / den
    return _eval_ast(expr, env)


def _poly_value(terms, names, env) -> Fraction:
    total = Fraction(0)
    for coeff, exps in terms:
        term = coeff
        for name, k in zip(names, exps):
            if k:
                term *= env[name] ** k
        total += term
    return total


def _eval_ast(node, env) -> Fraction:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return Fraction(node.value)
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_eval_ast(node.operand, env)
    if isinstance(node, ast.BinOp):
        a = _eval_ast(node.left, env)
        if isinstance(node.op, ast.Pow):
            return a ** int(node.right.value)
        b = _eval_ast(node.right, env)
        if isinstance(node.op, ast.Add):
            return a + b
        if isinstance(node.op, ast.Sub):
            return a - b
        if isinstance(node.op, ast.Mult):
            return a * b
        if isinstance(node.op, ast.Div):
            return a / b
    raise OutputError(f"unexpected expression element {ast.dump(node)}")


def _expr(py: str):
    try:
        return ast.parse(py.strip(), mode="eval").body
    except SyntaxError as exc:
        raise OutputError(f"cannot read coefficient {py!r}") from exc


def text_expr(s: str):
    return _expr(s.replace("^", "**"))


def latex_expr(s: str):
    s = s.replace("\\left(", "(").replace("\\right)", ")")
    s = _expand_frac(s)
    for tex, name in _LATEX_NAMES:
        s = s.replace(tex, f" {name} ")
    s = re.sub(r"\^\{(\d+)\}", r"^\1", s)
    tokens = re.findall(rf"\d+|{_NAME_RE}|\^|[-+*/()]", s)
    if "".join(tokens) != re.sub(r"\s+", "", s):
        raise OutputError(f"cannot read latex coefficient {s!r}")
    out = []
    for tok in tokens:
        # adjacent factors multiply: "12hW", "hW^2h", ")("
        if out and (out[-1][-1].isalnum() or out[-1] == ")") and \
                (tok[0].isalnum() or tok == "("):
            out.append("*")
        out.append("**" if tok == "^" else tok)
    return _expr("".join(out))


def _expand_frac(s: str) -> str:
    while "\\frac{" in s:
        i = s.index("\\frac{")
        num, j = _braced(s, i + 5)
        den, k = _braced(s, j)
        s = s[:i] + f"(({num})/({den}))" + s[k:]
    return s


def _braced(s: str, i: int):
    if s[i] != "{":
        raise OutputError(f"expected a brace group in {s!r}")
    depth = 0
    for j in range(i, len(s)):
        depth += {"{": 1, "}": -1}.get(s[j], 0)
        if depth == 0:
            return s[i + 1:j], j + 1
    raise OutputError(f"unbalanced braces in {s!r}")


# ---------------------------------------------------------------------------
# Vectors


def _split_top(s: str, seps) -> list:
    """Split at sign separators outside any bracket; returns (sign, body)."""
    parts, depth, start, sign = [], 0, 0, 1
    i = 0
    while i < len(s):
        ch = s[i]
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        elif depth == 0 and i > start:
            for sep, sg in seps:
                if s.startswith(sep, i):
                    parts.append((sign, s[start:i]))
                    sign, start = sg, i + len(sep)
                    i += len(sep) - 1
                    break
        i += 1
    parts.append((sign, s[start:]))
    return parts


def _monomial(body: str, pattern) -> tuple:
    """Split a term into (coefficient text, (w, l)) at its monomial suffix."""
    end = len(body)
    factors = []
    while True:
        m = None
        for cand in pattern.finditer(body):
            if cand.end() == end:
                m = cand
        if m is None:
            break
        factors.append((m.group(1), int(m.group(2)), int(m.group(3) or 1)))
        end = m.start()
    if not factors:
        raise OutputError(f"no monomial in term {body!r}")
    w, l = [], []
    for fam, mode, mult in factors:
        (l if fam == "L" else w).extend([mode] * mult)
    return body[:end], (tuple(sorted(w, reverse=True)), tuple(sorted(l, reverse=True)))


def _coefficient(sign: int, text: str, reader):
    text = text.strip()
    if text in ("", "+"):
        return Fraction(sign)
    if text == "-":
        return Fraction(-sign)
    expr = reader(text)
    return expr if sign > 0 else ast.UnaryOp(op=ast.USub(), operand=expr)


def text_vector(s: str) -> dict:
    s = s.strip()
    if not s.endswith(".v"):
        raise OutputError(f"not a vector: {s!r}")
    s = s[:-2]
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    out = {}
    for sign, body in _split_top(s, ((" + ", 1), (" - ", -1))):
        if body.startswith("-"):
            sign, body = -sign, body[1:]
        coeff, mono = _monomial(body, _TEXT_MONO)
        out[mono] = _coefficient(sign, coeff, text_expr)
    return out


def latex_vector(s: str) -> dict:
    s = s.strip()
    if not s.endswith("v"):
        raise OutputError(f"not a vector: {s!r}")
    s = s[:-1]
    if s.startswith("\\left(") and s.endswith("\\right)"):
        s = s[len("\\left("):-len("\\right)")]
    out = {}
    for sign, body in _split_top(s, (("+", 1), ("-", -1))):
        if body.startswith("-"):
            sign, body = -sign, body[1:]
        coeff, mono = _monomial(body, _LATEX_MONO)
        out[mono] = _coefficient(sign, coeff, latex_expr)
    return out


def json_scalar(obj: dict, names: tuple):
    def terms(items):
        return [(Fraction(t["coeff"]), tuple(t["exponents"])) for t in items]
    return ("poly", terms(obj["numer"]), terms(obj["denom"]), names)


def json_vector(obj: dict, names: tuple) -> dict:
    out = {}
    for entry in obj["terms"]:
        mono = (tuple(entry["monomial"]["w"]), tuple(entry["monomial"]["l"]))
        out[mono] = json_scalar(entry["coeff"], names)
    return out


# ---------------------------------------------------------------------------
# Whole reports


def load_json(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise OutputError("output is not json") from exc


def vectors(stdout: str, fmt: str, names: tuple, key: str | None = None) -> list:
    """Every vector a singular/subsingular report printed (maybe none)."""
    if fmt == "json":
        res = load_json(stdout)["results"]
        if key == "vector":
            return [] if res["vector"] is None else [json_vector(res["vector"], names)]
        return [json_vector(v, names) for v in res["vectors"]]
    body = stdout.strip()
    if body in ("no singular vectors at this level",
                "no subsingular vector at this weight", "\\emptyset"):
        return []
    reader = text_vector if fmt == "text" else latex_vector
    return [reader(line) for line in body.splitlines()]


def classify_report(stdout: str, fmt: str, names: tuple) -> dict:
    """verdict (None for latex, which prints only vectors) and the vectors."""
    if fmt == "json":
        rep = load_json(stdout)["results"]["report"]
        vecs = [json_vector(rep[k], names) for k in ("uPrime", "u") if rep[k]]
        return {"verdict": rep["verdict"], "p": rep["p"], "r": rep["r"],
                "vectors": vecs}
    lines = stdout.strip().splitlines()
    if fmt == "latex":
        vecs = [] if lines == ["\\emptyset"] else [latex_vector(x) for x in lines]
        return {"verdict": None, "p": None, "r": None, "vectors": vecs}
    out = {"verdict": None, "p": None, "r": None, "vectors": []}
    for line in lines:
        if line.startswith("verdict: "):
            out["verdict"] = line[len("verdict: "):]
        elif line.startswith("p = "):
            nums = re.findall(r"\d+", line)
            out["p"] = int(nums[0])
            out["r"] = int(nums[1]) if len(nums) > 1 else None
        elif line.startswith("u' = ") or line.startswith("u  = "):
            out["vectors"].append(text_vector(line[5:]))
    return out


def verdict(stdout: str, fmt: str) -> str:
    """Verdict of a tensor or hv-decide report."""
    if fmt == "json":
        return load_json(stdout)["results"]["decision"]["verdict"]
    if fmt == "latex":
        m = re.match(r"\\text\{(\w+)\}", stdout.strip())
    else:
        m = re.match(r"verdict: (\w+)", stdout.strip())
    if m is None:
        raise OutputError(f"no verdict in {stdout[:60]!r}")
    return m.group(1)


def series_coeffs(stdout: str, fmt: str) -> list:
    """Coefficients of a printed character series, lowest order first."""
    if fmt == "json":
        return list(load_json(stdout)["results"]["series"]["coeffs"])
    s = stdout.strip()
    if fmt == "latex":
        m = re.search(r"\\left\((.*)\\right\)$", s)
        body = m.group(1) if m else s
        pattern = r"([+-]?)(\d*)(q(?:\^\{(\d+)\})?)?"
        parts = [p for p in re.findall(r"[+-]?[^+-]+", body)]
    else:
        m = re.search(r"\* \((.*)\)$", s)
        body = m.group(1) if m else s
        pattern = r"([+-]?)(\d*)(q(?:\^(\d+))?)?"
        parts = [p.replace(" ", "") for p in re.split(r" \+ ", body)]
    coeffs: dict = {}
    for part in parts:
        m = re.fullmatch(pattern, part)
        if m is None or not (m.group(2) or m.group(3)):
            raise OutputError(f"cannot read series term {part!r}")
        sign, digits, q, exp = m.groups()
        c = int(digits) if digits else 1
        c = -c if sign == "-" else c
        order = 0 if not q else int(exp or 1)
        coeffs[order] = c
    top = max(coeffs) if coeffs else -1
    return [coeffs.get(i, 0) for i in range(top + 1)]
