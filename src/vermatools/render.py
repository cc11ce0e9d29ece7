"""Plain-text and LaTeX rendering of vectors, scalars, and tables.

Monomials print with the second family first and modes descending,
matching the normal ordering used everywhere else; terms of a vector
print in descending monomial order, pure L-monomials first.
"""

from __future__ import annotations

from .liealg import W22, second_family
from .pbw import ModuleVector, PBWMonomial, _run_lengths
from .scalar import Scalar
from .verma import CharacterSeries

_PARAM_LATEX = {
    "hW": "h_{W}",
    "hI": "h_{I}",
    "cL": "c_{L}",
    "cLI": "c_{LI}",
    "cI": "c_{I}",
    "alpha": "\\alpha",
    "beta": "\\beta",
}


def latex_param(name: str) -> str:
    mapped = _PARAM_LATEX.get(name)
    if mapped is not None:
        return mapped
    if len(name) == 1:
        return name
    return "\\mathrm{" + name + "}"


def _latex_poly(names: tuple, poly: dict) -> str:
    """Integer-coefficient polynomial, terms in descending order."""
    if not poly:
        return "0"
    parts = []
    for exps in sorted(poly, reverse=True):
        coeff = poly[exps]
        mono = "".join(
            latex_param(names[i]) + (f"^{{{e}}}" if e > 1 else "")
            for i, e in enumerate(exps) if e > 0)
        if not mono:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = mono
        else:
            body = f"{abs(coeff)}{mono}"
        sign = "-" if coeff < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += sign + body
    return out


def latex_scalar(x: Scalar) -> str:
    """A rational function as LaTeX, sign leading, \\frac for quotients."""
    if x.is_zero():
        return "0"
    num, den = x._int_pair()
    sign = ""
    lead = max(num)
    if num[lead] < 0:
        sign = "-"
        num = {e: -c for e, c in num.items()}
    names = x.ctx.names
    num_tex = _latex_poly(names, num)
    if len(den) == 1 and max(den) == (0,) * len(names):
        k = den[max(den)]
        if k == 1:
            return sign + num_tex
        return sign + f"\\frac{{{num_tex}}}{{{k}}}"
    return sign + f"\\frac{{{num_tex}}}{{{_latex_poly(names, den)}}}"


def _latex_coeff_factor(x: Scalar) -> str:
    """A coefficient positioned before a monomial."""
    tex = latex_scalar(x)
    stripped = tex[1:] if tex.startswith("-") else tex
    if stripped.startswith("\\frac") or _is_atom(stripped):
        return tex
    sign = "-" if tex.startswith("-") else ""
    return sign + "\\left(" + stripped + "\\right)"


def _is_atom(tex: str) -> bool:
    """Whether a signless rendering needs no grouping before a monomial."""
    return "+" not in tex and "-" not in tex


def latex_monomial(mono: PBWMonomial, kind: str = W22) -> str:
    if mono.is_empty():
        return ""
    fam = second_family(kind)
    parts = []
    for mode, mult in _run_lengths(mono.w):
        parts.append(f"{fam}_{{-{mode}}}" + (f"^{{{mult}}}" if mult > 1 else ""))
    for mode, mult in _run_lengths(mono.l):
        parts.append(f"L_{{-{mode}}}" + (f"^{{{mult}}}" if mult > 1 else ""))
    return "".join(parts)


def latex_vector(vec: ModuleVector) -> str:
    """A module vector in the table style: \\left(...\\right)v."""
    if vec.is_zero():
        return "0"
    kind = vec.ctx.hw.kind
    terms = []
    for mono, coeff in vec.sorted_terms():
        mtex = latex_monomial(mono, kind)
        if not mtex:
            terms.append(latex_scalar(coeff))
        elif coeff == 1:
            terms.append(mtex)
        elif coeff == -1:
            terms.append("-" + mtex)
        else:
            terms.append(_latex_coeff_factor(coeff) + mtex)
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    if len(terms) == 1:
        return out + "v"
    return "\\left(" + out + "\\right)v"


def latex_character(series: CharacterSeries) -> str:
    parts = []
    for i, c in enumerate(series.coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append((1, str(c)))
        else:
            q = "q" if i == 1 else f"q^{{{i}}}"
            parts.append((1 if c > 0 else -1,
                          q if abs(c) == 1 else f"{abs(c)}{q}"))
    if not parts:
        body = "0"
    else:
        body = ("-" if parts[0][0] < 0 else "") + parts[0][1]
        for sign, text in parts[1:]:
            body += ("-" if sign < 0 else "+") + text
    if series.offset.is_zero():
        return body
    off = latex_scalar(series.offset)
    return f"q^{{{off}}}\\left({body}\\right)"


def text_vector(vec: ModuleVector) -> str:
    """A module vector in compact text: (W(-2) - 3/(4*hW) W(-1)^2).v"""
    if vec.is_zero():
        return "0"
    kind = vec.ctx.hw.kind
    terms = []
    for mono, coeff in vec.sorted_terms():
        body = mono.text(kind)
        body = body[:-2] if body.endswith(".v") else ""
        if not body:
            terms.append(str(coeff))
        elif coeff == 1:
            terms.append(body)
        elif coeff == -1:
            terms.append("-" + body)
        else:
            terms.append(f"{coeff} {body}")
    out = terms[0]
    for t in terms[1:]:
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    if len(terms) == 1 and not out.startswith("-") and " " not in out:
        return out + ".v"
    return "(" + out + ").v"


def latex_table(headers: list, rows: list) -> str:
    """A tabular environment with one centered column per header."""
    cols = "c" * len(headers)
    lines = ["\\begin{tabular}{" + cols + "}",
             " & ".join(str(h) for h in headers) + " \\\\",
             "\\hline"]
    for row in rows:
        lines.append(" & ".join(str(cell) for cell in row) + " \\\\")
    lines.append("\\end{tabular}")
    return "\n".join(lines)
