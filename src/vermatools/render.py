"""Plain-text and LaTeX rendering of scalars, vectors, characters, weight
maps and tables.

The one module that turns an exact object into a string.  Each object has
one printer, which takes a notation: the tokens in which text and LaTeX
differ.  They lay out only a quotient differently: LaTeX pulls the sign out
and writes \\frac, text writes n/d.  Monomials print the second family
first, modes descending, and a vector's terms in descending monomial order,
pure L-monomials first.  A coefficient that is a polynomial of several
terms is bracketed, its leading sign outside.  Objects are read through
their attributes, so only liealg is imported and the modules that define
them can print through this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Callable

from .liealg import W22, second_family

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


@dataclass(frozen=True)
class _Notation:
    """The tokens in which text and LaTeX differ; a format string takes
    its pieces in reading order."""

    param: Callable[[str], str]   # a parameter name
    power: str                    # base, exponent
    times: str                    # between the factors of a polynomial term
    plus: str
    minus: str
    generator: str                # family, mode
    open: str
    close: str
    vector: str                   # after a monomial: applied to v
    space: str                    # between a coefficient and its monomial
    offset: str                   # q-offset, series
    frac: str | None              # numerator, denominator; None: text's n/d
    comma: str                    # between the entries of a weight map


_TEXT = _Notation(param=str, power="{}^{}", times="*", plus=" + ", minus=" - ",
                  generator="{}(-{})", open="(", close=")", vector=".v", space=" ",
                  offset="q^({}) * ({})", frac=None, comma=", ")
_LATEX = _Notation(param=latex_param, power="{}^{{{}}}", times="", plus="+", minus="-",
                   generator="{}_{{-{}}}", open="\\left(", close="\\right)", vector="v",
                   space="", offset="q^{{{}}}\\left({}\\right)",
                   frac="\\frac{{{}}}{{{}}}", comma=",\\ ")


def _power(base: str, k: int, nt: _Notation) -> str:
    return base if k == 1 else nt.power.format(base, k)


def _signed_sum(terms: list, nt: _Notation) -> str:
    """Join terms, a negative one written with a leading '-'."""
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += nt.minus + t[1:] if t.startswith("-") else nt.plus + t
    return out


def _term(mag, body: str, negative: bool, times: str = "") -> str:
    """A positive magnitude times a body, 1 omitted, with its sign."""
    if not body:
        body = str(mag)
    elif mag != 1:
        body = f"{mag}{times}{body}"
    return "-" + body if negative else body


def _polynomial(names: tuple, poly: dict, nt: _Notation) -> str:
    """An integer-coefficient polynomial, terms in descending order."""
    return _signed_sum([
        _term(abs(c), nt.times.join(_power(nt.param(names[i]), k, nt)
                                    for i, k in enumerate(exps) if k), c < 0, nt.times)
        for exps, c in sorted(poly.items(), reverse=True)], nt)


def _scalar(x, nt: _Notation, factor: bool = False) -> str:
    """A Scalar; as a factor before a monomial, a polynomial of several
    terms is bracketed."""
    names = x.ctx.names
    num, den = x._int_pair()
    unit = den == {(0,) * len(names): 1}
    if unit and not (factor and len(num) > 1):
        return _polynomial(names, num, nt)
    if not unit and nt.frac is None:
        ntext, dtext = _polynomial(names, num, nt), _polynomial(names, den, nt)
        if len(num) > 1:
            ntext = nt.open + ntext + nt.close
        if any(ch in dtext for ch in "*+- "):
            dtext = nt.open + dtext + nt.close
        return f"{ntext}/{dtext}"
    # a bracket or \frac, with the leading sign outside
    sign = "-" if num[max(num)] < 0 else ""
    ntext = _polynomial(names, {e: -c for e, c in num.items()} if sign else num, nt)
    if unit:
        return sign + nt.open + ntext + nt.close
    return sign + nt.frac.format(ntext, _polynomial(names, den, nt))


def _word(mono, kind: str, nt: _Notation) -> str:
    """The lowering operators of a PBWMonomial, repeated modes as powers."""
    return "".join(_power(nt.generator.format(fam, mode), len(list(run)), nt)
                   for fam, modes in ((second_family(kind), mono.w), ("L", mono.l))
                   for mode, run in groupby(modes))


def monomial(mono, kind: str = W22) -> str:
    """A PBWMonomial applied to the highest weight vector v, in text."""
    word = _word(mono, kind, _TEXT)
    return word + _TEXT.vector if word else "v"


def _vector(vec, nt: _Notation) -> str:
    """A ModuleVector, bracketed when it has more than one term."""
    if vec.is_zero():
        return "0"
    terms = []
    for mono, coeff in vec.sorted_terms():
        word = _word(mono, vec.ctx.hw.kind, nt)
        c = _scalar(coeff, nt, factor=True)
        if not word:
            terms.append(c)
        elif c in ("1", "-1"):  # a unit coefficient leaves only its sign
            terms.append(c[:-1] + word)
        else:
            terms.append(c + nt.space + word)
    body = _signed_sum(terms, nt)
    return (nt.open + body + nt.close if len(terms) > 1 else body) + nt.vector


def _character(series, nt: _Notation) -> str:
    """A CharacterSeries: q^offset times its integer coefficients."""
    body = _signed_sum([_term(abs(c), _power("q", i, nt) if i else "", c < 0)
                        for i, c in enumerate(series.coeffs) if c], nt)
    if series.offset.is_zero():
        return body
    return nt.offset.format(_scalar(series.offset, nt), body)


def _weights(weights: dict, nt: _Notation) -> str:
    """A map from parameter names to Scalars, names in sorted order."""
    return nt.comma.join(f"{nt.param(k)} = {_scalar(v, nt)}" for k, v in sorted(weights.items()))


def text_vector(vec) -> str:
    """A module vector in compact text: (W(-2) - 3/(4*hW) W(-1)^2).v"""
    return _vector(vec, _TEXT)


def latex_vector(vec) -> str:
    """A module vector in the table style: \\left(...\\right)v."""
    return _vector(vec, _LATEX)


def text_scalar(x) -> str:
    return _scalar(x, _TEXT)


def latex_scalar(x) -> str:
    return _scalar(x, _LATEX)


def text_character(series) -> str:
    return _character(series, _TEXT)


def latex_character(series) -> str:
    return _character(series, _LATEX)


def text_weights(weights: dict) -> str:
    """A weight map in text: c = -8, h = 5/4, hW = 1"""
    return _weights(weights, _TEXT)


def latex_weights(weights: dict) -> str:
    return _weights(weights, _LATEX)


def text_table(headers: list, rows: list) -> str:
    """Right-aligned columns at least eight wide, two spaces apart."""
    return "\n".join("  ".join(f"{str(cell):>8}" for cell in line)
                     for line in [headers] + rows)


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
