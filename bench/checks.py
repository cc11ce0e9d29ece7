"""Independent checks of job outputs.

A check returns None when the output is right and a one-line reason
otherwise.  Expected answers come from closed forms (necessary_h, the
degenerate level, the criterion-7 elimination product, partition
counts), from the frozen displays in reference.py, and from the
reference straightening in refalg.py at numeric parameter values.  The
one exception asked for by the r = 1 rows is the package's own
recursive construction, subsingular_r1_recursive, which shares no solver
with `subsingular`.
"""

from __future__ import annotations

from fractions import Fraction

import outputs
import refalg
import reference

# Numeric values substituted for a symbolic parameter; the first two at
# which every coefficient is defined are used.
POINTS = (Fraction(7, 3), Fraction(-11, 5), Fraction(13, 4), Fraction(-5, 7))


def necessary_h(p: int, r: int, hW) -> Fraction:
    return hW + Fraction((13 * p + 1) * (p - 1), 12) + Fraction((1 - r) * p, 2)


def degenerate_c(p: int, hW) -> Fraction:
    """The central charge that puts u' at level p >= 2."""
    return hW * Fraction(-24, p * p - 1)


def w22_point(p: int, r: int, t: Fraction) -> dict:
    """The necessary weight of the one-parameter family of (p, r), at t."""
    if p == 1:
        return {"c": t, "hW": Fraction(0), "h": necessary_h(1, r, 0)}
    return {"c": degenerate_c(p, t), "hW": t, "h": necessary_h(p, r, t)}


def numeric(vec: dict, env: dict) -> dict:
    return {mono: outputs.value(c, env) for mono, c in vec.items()}


def _points(vecs: list, envs) -> list:
    """Pairs (env, numeric vectors) at the first two envs where all are defined."""
    out = []
    for env in envs:
        try:
            out.append((env, [numeric(v, env) for v in vecs]))
        except ZeroDivisionError:
            continue
        if len(out) == 2:
            break
    if not out:
        raise outputs.OutputError("coefficients undefined at every sample point")
    return out


def ref_vector(M: refalg.RefModule, num: dict) -> dict:
    return {M.word_of(w, l): c for (w, l), c in num.items() if c}


def _match_table(vec: dict, table: dict, env: dict) -> str | None:
    if set(vec) != set(table):
        return f"monomials differ from the frozen display: {sorted(set(vec) ^ set(table))}"
    for mono, text in table.items():
        if outputs.value(vec[mono], env) != outputs.value(outputs.text_expr(text), env):
            return f"coefficient of {mono} differs from the frozen display"
    return None


# ---------------------------------------------------------------------------
# Subsingular and singular vectors


def subsingular_found(vecs: list, p: int, r: int, symbol: str) -> str | None:
    """A vector exists at the necessary weight and is subsingular."""
    if len(vecs) != 1:
        return f"expected one subsingular vector, got {len(vecs)}"
    vec = vecs[0]
    lead = ((), (p,) * r)
    for env, (num,) in _points([vec], [{symbol: t} for t in POINTS]):
        if num.get(lead) != 1:
            return "leading coefficient of L(-p)^r is not 1"
        if any(p in w for (w, _l) in num):
            return "a monomial carries the excluded W(-p) factor"
        if any(sum(w) + sum(l) != r * p for (w, l) in num):
            return "vector is not homogeneous of level rp"
        M = refalg.RefModule(refalg.W22, w22_point(p, r, env[symbol]))
        if not refalg.singular_mod_jprime(M, p, ref_vector(M, num)):
            return "vector is not singular modulo J' at a numeric point"
        table = reference.SUBSINGULAR.get((p, r))
        if table is not None:
            reason = _match_table(vec, table, env)
            if reason:
                return reason
    return None


def same_vector(vec: dict, other: dict, symbol: str) -> str | None:
    """Coefficient-wise equality at the sample points."""
    if set(vec) != set(other):
        return "monomials differ"
    for _env, (a, b) in _points([vec, other], [{symbol: t} for t in POINTS]):
        if a != b:
            return "coefficients differ"
    return None


def singular_vectors(vecs: list, kind: str, p: int, envs: list, lead: tuple,
                     table: dict | None = None) -> str | None:
    """Exactly one singular vector, with coefficient 1 on `lead`."""
    if len(vecs) != 1:
        return f"expected one singular vector at level {p}, got {len(vecs)}"
    (vec,) = vecs
    for env, (num,) in _points([vec], envs):
        if num.get(lead) != 1:
            return f"coefficient of {lead} is not 1"
        M = refalg.RefModule(kind, env)
        if not M.is_singular(ref_vector(M, num)):
            return "vector is not singular at a numeric point"
        if table is not None:
            reason = _match_table(vec, table, env)
            if reason:
                return reason
    return None


def hv_point(p: int, case: str, h: Fraction, cLI: Fraction) -> dict:
    mult = 1 + p if case == "I" else 1 - p
    return {"cL": Fraction(0), "cI": Fraction(0), "cLI": cLI, "h": h, "hI": mult * cLI}


# ---------------------------------------------------------------------------
# Closed forms


def degenerate_level(c: Fraction, hW: Fraction, max_p: int = 64):
    """Smallest p with 2 hW + (p^2 - 1) c / 12 = 0."""
    for p in range(1, max_p + 1):
        if 2 * hW + Fraction(p * p - 1, 12) * c == 0:
            return p
    return None


def w22_verdict(c: Fraction, h: Fraction, hW: Fraction):
    """(verdict, p, r): a subsingular vector exists exactly at the necessary h."""
    p = degenerate_level(c, hW)
    if p is None:
        return "VermaIrreducible", None, None
    r = (hW - h) * Fraction(2, p) + 1 + Fraction((13 * p + 1) * (p - 1), 6 * p)
    if r.denominator == 1 and r >= 1:
        return "UprimeAndSubsingular", p, int(r)
    return "UprimeOnly", p, None


def char_coeffs(mask: dict, n: int) -> list:
    """(sum_k mask[k] q^k) times the Verma character, to order n."""
    return [sum(c * refalg.pair_count(i - k) for k, c in mask.items() if k <= i)
            for i in range(n + 1)]


def excluded_index(alpha: Fraction, beta: Fraction):
    """Index dropped from a primed intermediate series, or None."""
    if alpha.denominator == 1 and beta in (0, 1):
        return -int(alpha) if beta == 0 else -int(alpha) - 1
    return None


def elimination_product(n: int, p: int, r: int, alpha, beta) -> Fraction:
    """prod_j (n + (r - j) p - 1 + alpha + (1 - p) beta), j = 0..r-1."""
    out = Fraction(1)
    for j in range(r):
        out *= n + (r - j) * p - 1 + alpha + (1 - p) * beta
    return out


def cyclic_expected(pr, n: int, alpha, beta, quotient: str) -> bool:
    """Criterion 7: with a subsingular vector the chain is cyclic at n
    exactly when the product is nonzero and the cascade source exists;
    without one, or against the full Verma factor, never."""
    if pr is None or quotient == "verma":
        return False
    p, r = pr
    excl = excluded_index(alpha, beta)
    return elimination_product(n, p, r, alpha, beta) != 0 and \
        (excl is None or n + r * p - 1 != excl)


def tensor_decision_expected(pr, alpha, beta):
    """(verdict, reason, witness) of decide_tensor for a W(2,2) weight."""
    if pr is None:
        return "Reducible", "NoSubsingular", None
    p, _r = pr
    t = alpha + (1 - p) * beta
    if t.denominator == 1:
        return "Reducible", "IntegralShift", 1 - p - int(t)
    return "Irreducible", "ProductNonzero", None


def hv_verdict_at_zero_f(h, hI, cLI, alpha, beta) -> str:
    """decide_tensor_hv verdict at F = 0 from the weight ratio alone."""
    if h == 0 and hI == 0:
        return "Reducible" if alpha.denominator == 1 else "Irreducible"
    ratio = hI / cLI
    if ratio.denominator != 1 or ratio == 1 or ratio >= 2:
        return "Reducible"
    p = 1 - int(ratio)
    return "Reducible" if (alpha + (1 - p) * beta).denominator == 1 else "Irreducible"


def poly_degree(x, name: str) -> int:
    """Degree in `name` of a package scalar whose denominator is free of it,
    read from its stored exponent tuples (-1 for zero, None if the
    denominator involves the name)."""
    v = x.ctx.names.index(name)
    if any(e[v] for e in x.den):
        return None
    return max((e[v] for e in x.num), default=-1)
