"""Tensor products of intermediate-series modules with highest weight modules.

The intermediate series V_{alpha,beta} (plus a parameter F for the twisted
Heisenberg-Virasoro algebra) has basis v_m, m running over the integers.
Tensoring with a quotient T of a Verma module gives a module spanned by
vectors v_m (x) (x v) with x a PBW monomial.  This module is not highest
weight, so all computations here are truncated: operator words to an
explicit degree and the starting indices m to an explicit range.  Lowering
words only lower the index, so nothing else needs bounding, and within
those bounds everything is exact.

The irreducibility decisions reduce to two ingredients: a cyclicity
criterion (the tensor product is irreducible precisely when every
v_m (x) v generates it) and elimination certificates expressing
v_{m-1} (x) v, or its analogue, through vectors of higher index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .liealg import HV, W22, Generator, check_generator
from .pbw import HighestWeight, ModuleContext, ModuleVector, PBWMonomial, Vector, _accumulate
from .scalar import PolyContext, Scalar
from .verma import WordWalker, classify, hv_find_p


# ---------------------------------------------------------------------------
# The intermediate series


@dataclass(frozen=True)
class IntermediateSeries:
    """Parameters of an intermediate-series module.

    The action on the basis vectors is

        L_n v_m = -(m + alpha + beta + n beta) v_{m+n},

    with the second family acting by zero (first algebra) or by the
    constant F on every mode (twisted Heisenberg-Virasoro) and all
    central elements acting by zero.  Shifting alpha by an integer gives
    an isomorphic module, so alpha matters modulo 1 plus the index
    labelling.
    """

    alpha: Scalar
    beta: Scalar
    F: Scalar

    @classmethod
    def make(cls, ctx: PolyContext, alpha, beta, F=0) -> "IntermediateSeries":
        return cls(ctx.scalar(alpha), ctx.scalar(beta), ctx.scalar(F))

    @property
    def ctx(self) -> PolyContext:
        return self.alpha.ctx

    def excluded_index(self) -> int | None:
        """The index dropped from the primed module, or None.

        Only integral alpha with beta in {0, 1} and F = 0 names a primed
        quotient module: the module then loses one basis vector (a
        trivial quotient or submodule) and the primed module is used
        instead.
        """
        a, b = self.alpha, self.beta
        if not (self.F.is_zero() and a.is_integer() and (b.is_zero() or b == 1)):
            return None
        k = -int(a.as_fraction())
        return k if b.is_zero() else k - 1

    def to_json(self) -> dict:
        return {"alpha": self.alpha.to_json(), "beta": self.beta.to_json(),
                "F": self.F.to_json()}


def _series_coefficient(g: Generator, m: Scalar, s: IntermediateSeries) -> Scalar:
    """Coefficient of v_{m+n} in g v_m, the index m given as a Scalar."""
    if g.family == "L":
        return -(m + s.alpha + s.beta + s.beta * g.mode)
    if g.family == "I":
        return s.F
    # W modes and every central element act by zero on the series factor.
    return s.ctx.zero


# ---------------------------------------------------------------------------
# Truncated tensor vectors


def _require_index(m, excluded=None) -> None:
    if type(m) is not int:
        raise ValueError(f"index must be an integer, not {m!r}")
    if m == excluded:
        raise ValueError(f"index {m} is excluded from the primed series")


def _column_key(col):
    # Highest index first: a word X on v_k (x) v has top component
    # v_k (x) X.v, so rows of different starts pivot in different blocks.
    m, mono = col
    return (-m, mono.sort_key())


def _distinct_leads(leads: set, rows: list) -> bool:
    """Add the leading columns of ``rows`` (least under _column_key) to
    ``leads``; whether they stay pairwise distinct, which proves the rows,
    and a target whose column is in ``leads``, independent: in a vanishing
    combination the row of the least lead is alone in its column."""
    before = len(leads)
    leads.update(min(row, key=_column_key) for row in rows)
    return len(leads) == before + len(rows)


class TensorSpace:
    """The tensor product (intermediate series) (x) M.

    The second factor M is a Verma module or a quotient of one
    (a ModuleContext or a QuotientModule), over the parameter context of
    the series.  Its vectors are ``Vector``s over keys (m, monomial).
    """

    def __init__(self, M: ModuleContext, series: IntermediateSeries):
        if series.ctx is not M.scalar_ctx:
            raise ValueError("parameter context mismatch: the series and the module "
                             "have different parameters")
        self.M = M
        self.kind = M.kind
        self.scalar_ctx = M.scalar_ctx
        self.series = series
        self.excluded = series.excluded_index()
        self._series_coeffs: dict = {}

    def zero(self) -> Vector:
        return Vector(self, {})

    def vacuum_at(self, m: int) -> Vector:
        """The vector v_m (x) v."""
        _require_index(m, self.excluded)
        return Vector(self, {(m, PBWMonomial.make()): self.scalar_ctx.one})

    def act(self, g: Generator, x: Vector) -> Vector:
        """Leibniz action of a generator on a tensor vector."""
        check_generator(g, self.kind)
        out: dict = {}
        for (m, mono), cf in x.terms.items():
            coeff = self._series_coeffs.get((g, m))
            if coeff is None:
                coeff = _series_coefficient(g, self.scalar_ctx.scalar(m), self.series)
                self._series_coeffs[(g, m)] = coeff
            if not coeff.is_zero() and m + g.mode != self.excluded:
                _accumulate(out, (m + g.mode, mono), cf * coeff)
            for mono2, c2 in self.M._act_mono(g, mono):
                _accumulate(out, (m, mono2), cf * c2)
        return Vector(self, out)


# ---------------------------------------------------------------------------
# Cyclicity


def cyclicity_check(hw: HighestWeight, s: IntermediateSeries, n: int,
                    depth: int, quotient: str = "auto") -> bool:
    """Whether v_{n-1} (x) v lies in the submodule generated by higher
    indices, within the truncation.

    The span is built from all lowering words applied to v_k (x) v for
    k in [n, n + depth], each word of the degree matching the weight of
    the target.  While the rows and the target have distinct leading
    columns, the target is outside the span; from the first collision on,
    the rows are eliminated, and it returns True at the first start whose
    words put the target in the span, which is the answer for the whole
    range of starts since membership only grows.  False means the whole
    truncated span misses the target.  ``quotient`` is "auto", the
    ``classify`` report's quotient (V itself when V is irreducible), or
    "verma", the Verma module itself, where the answer is always False: a
    word X on v_k (x) v has top component v_k (x) X.v, so no leads
    collide.  Any other choice raises ValueError.
    """
    _require_index(n)
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if quotient not in ("auto", "verma"):
        raise ValueError(f"unknown quotient choice {quotient!r}")
    M = ModuleContext(hw)
    if quotient == "auto":
        M = classify(M).quotient or M
    space = TensorSpace(M, s)
    if space.excluded == n - 1:
        raise ValueError("target index is excluded from the primed series")
    target = {(n - 1, PBWMonomial.make()): M.scalar_ctx.one}
    rows, leads, ech = [], set(target), None
    for k in range(n, n + depth + 1):
        if k != space.excluded:
            new = list(WordWalker(space, space.vacuum_at(k)).images(k - (n - 1)).values())
            if ech is None:
                rows += new
                if _distinct_leads(leads, new):
                    continue
                ech, new = linalg.Echelon(key=_column_key), rows
            ech.extend(new)
            if ech.contains(target):
                return True
    return False


def subquotient_free_dims(hw: HighestWeight, s: IntermediateSeries, n: int,
                          max_level: int) -> dict:
    """Level dimensions of the layer U_n / U_{n+1} of V' (x) V, truncated.

    U_k is the submodule generated by v_k (x) v.  For each degree d up
    to max_level, counts how many new directions the degree-d words on
    v_n (x) v add beyond the span of words on v_k (x) v for
    k in (n, n + 2], each start walked once.  V is the Verma module: the
    word X on v_k (x) v has top component v_k (x) X.v, so the rows' leads
    are distinct and the count is P2(d) at every truncation.  That exact
    check is its evidence, not freeness of the layer; a collision raises.
    """
    space = TensorSpace(ModuleContext(hw), s)
    _require_index(n, space.excluded)
    walkers = {k: WordWalker(space, space.vacuum_at(k)) for k in (n, n + 1, n + 2)
               if k != space.excluded}
    dims = {}
    for d in range(1, max_level + 1):
        rows = {k: list(w.images(d + k - n).values()) for k, w in walkers.items()}
        if not _distinct_leads(set(), sum(rows.values(), [])):
            raise ValueError(f"word images collide in their leading columns at degree {d}")
        dims[d] = len(rows[n])
    return dims


# ---------------------------------------------------------------------------
# Decision data


@dataclass(frozen=True)
class TensorDecision:
    """Outcome of an irreducibility decision for a tensor product.

    reason is NoSubsingular, IntegralShift or ProductNonzero; witness is
    the split index (an integer) for IntegralShift and a nonvanishing
    scalar certificate for ProductNonzero.  An Unknown verdict carries
    its explanation in notes.
    """

    verdict: str
    reason: str | None = None
    witness: object = None
    notes: tuple = ()
    p: int | None = None
    r: int | None = None

    def to_json(self) -> dict:
        if isinstance(self.witness, Scalar):
            wit = {"scalar": self.witness.to_json(),
                   "text": str(self.witness)}
        else:
            wit = self.witness
        return {"verdict": self.verdict, "reason": self.reason,
                "witness": wit, "notes": list(self.notes),
                "p": self.p, "r": self.r}


def _require_constant(x: Scalar, name: str) -> Fraction:
    if not x.is_constant():
        raise ValueError(f"cannot decide integrality of symbolic {name}")
    return x.as_fraction()


def _eliminate_to_target(space: TensorSpace, u: ModuleVector, target_index: int) -> Scalar:
    """Coefficient left on v_target (x) v after applying the module vector
    u to v_top (x) v, top = target + u.level, and reducing the image
    against the lowering words on each v_k (x) v, target < k < top, of
    the degree that lands on the target's weight.

    Every such word image lies in the submodule that the higher indices
    generate, so the reduction is exact, also where those degrees reach
    the level of a relation of the quotient (r >= 2).  The multiple of the
    bare target vector left is unique unless an intermediate image reaches
    the bare target; that case raises, as does a remainder away from it.

    The target needs no pivot key of its own: a degree-(k - target) word on
    v_k (x) v reaches the target index only on the empty monomial, so the bare
    target is the one column of the lowest index, which _column_key pivots last.
    """
    top = target_index + u.level
    tgt = (target_index, PBWMonomial.make())
    ech = linalg.Echelon(key=_column_key)
    for k in range(target_index + 1, top):
        ech.extend(WordWalker(space, space.vacuum_at(k)).images(k - target_index).values())
    if tgt in ech.pivots:
        raise ValueError("degenerate elimination: an intermediate word "
                         "reduced to the bare target vector")
    walker = WordWalker(space, space.vacuum_at(top))
    T = sum((walker.image(m).scaled(c) for m, c in u.terms.items()), space.zero())
    rem = ech.reduce(T.terms)
    if set(rem) - {tgt}:
        raise ValueError("degenerate elimination: the reduction left "
                         "components away from the target index")
    return rem.get(tgt, space.scalar_ctx.zero)


def subquotient_weight(hw: HighestWeight, s: IntermediateSeries,
                       n: int) -> HighestWeight:
    """Highest weight of the n-th layer U_n / U_{n+1} of V' (x) V.

    For a primed series the excluded index carries no layer and is
    rejected.  The layer is spanned by v_n (x) v over the lowering
    algebra, with L_0 eigenvalue h - n - alpha - beta; for the twisted
    algebra the I_0 eigenvalue shifts by F.
    """
    _require_index(n, s.excluded_index())
    shifted = {"h": hw["h"] - (s.ctx.scalar(n) + s.alpha + s.beta)}
    if hw.kind == HV:
        shifted["hI"] = hw["hI"] + s.F
    return HighestWeight(hw.kind, s.ctx, {**hw.weights, **shifted})


# ---------------------------------------------------------------------------
# Decision for the first algebra


def decide_tensor(hw: HighestWeight, s: IntermediateSeries) -> TensorDecision:
    """Irreducibility of V'_{alpha,beta} (x) L(c, h, hW).

    Irreducible exactly when the highest weight carries both u' and a
    subsingular vector u and alpha + (1 - p) beta is not an integer; the
    witness is then lambda(0), computed as for the twisted algebra: u on
    v_{rp-1} (x) v leaves -lambda(0) v_{-1} (x) v, the indices between eliminated.
    Requires concrete rational weights and series parameters; a symbolic
    integrality question has no answer and raises instead.
    """
    if hw.kind != W22:
        raise ValueError("decide_tensor handles the first algebra; "
                         "use decide_tensor_hv")
    _require_constant(s.alpha, "alpha")
    _require_constant(s.beta, "beta")
    if not s.F.is_zero():
        raise ValueError("the series parameter F must vanish for this algebra")
    for name in ("c", "h", "hW"):
        _require_constant(hw[name], name)
    M = ModuleContext(HighestWeight(W22, s.ctx, hw.weights))
    rep = classify(M)
    if rep.verdict == "VermaIrreducible":
        return TensorDecision(
            "Reducible", "NoSubsingular", None,
            notes=("the second factor is an irreducible Verma module; "
                   "every index yields a Verma subquotient",))
    if rep.verdict == "UprimeOnly":
        return TensorDecision(
            "Reducible", "NoSubsingular", None, p=rep.p,
            notes=("u' generates the maximal submodule and no subsingular "
                   "vector exists; the layers U_n / U_{n+1} are irreducible",))
    p, r = rep.p, rep.r
    shift = s.alpha + s.beta * (1 - p)
    t = shift.as_fraction()
    if t.denominator == 1:
        k = 1 - p - int(t)
        notes = [f"U_{k} is irreducible and the quotient chain splits at "
                 f"indices {[1 - j * p - int(t) for j in range(1, r + 1)]}",
                 "quotient layers have L_0 weights h + (j - beta) p, j = 1..r"]
        if hw["hW"].is_zero() and s.excluded_index() is not None and s.beta == 1:
            notes.append("for this primed series with hW = 0 the layer list "
                         "may also contain the weight (c, h, 0) itself")
        return TensorDecision("Reducible", "IntegralShift", k,
                              notes=tuple(notes), p=p, r=r)
    witness = -_eliminate_to_target(TensorSpace(rep.quotient, s), rep.u, -1)
    return TensorDecision("Irreducible", "ProductNonzero", witness,
                          notes=("alpha + (1 - p) beta is not an integer; "
                                 "the elimination product never vanishes",),
                          p=p, r=r)


# ---------------------------------------------------------------------------
# Decision for the twisted Heisenberg-Virasoro algebra


@dataclass(frozen=True)
class HVCertificate:
    """Elimination certificate polynomials with F kept formal.

    Applying the singular vector u' to v_{n+p} (x) v and eliminating the
    intermediate indices leaves (q(F) n + r(F)) v_n (x) v in case "L"
    (hI/cLI = 1 - p) and F s(F) v_n (x) v, free of n, in case "I"
    (hI/cLI = 1 + p, u' pure I).  Case I is the q = 0 form of that
    certificate, with r(F) = F s(F).  The polynomials
    live in a context extended by the formal parameters F and n;
    ``decide_tensor_hv`` runs the same elimination at the series' own F,
    over Q(n) when F is a number, and does not read them.  Checked
    exactly for p <= 10: s(F) = C(F/cLI + p - 1, p - 1) and
    q(F) = (-1)^p C(F/cLI - 1, p - 1), both nonzero polynomials in F.
    """

    case: str
    p: int
    s_poly: Scalar | None = None
    q_poly: Scalar | None = None
    r_poly: Scalar | None = None


def _indexed(hw: HighestWeight, s: IntermediateSeries) -> tuple:
    """The classify report of hw over the series' field extended by the index n, and the
    tensor space of the series, alpha shifted by n, with the report's quotient."""
    if "n" in s.ctx.names:
        raise ValueError("the parameter name 'n' is reserved for the series index")
    ectx = PolyContext(s.ctx.names + ("n",))
    M = ModuleContext(HighestWeight(hw.kind, ectx, hw.weights))
    rep = classify(M)
    s2 = IntermediateSeries.make(ectx, ectx.scalar(s.alpha) + ectx.var("n"), s.beta, s.F)
    return rep, TensorSpace(rep.quotient, s2)


def _hv_certificate(hw: HighestWeight, s: IntermediateSeries) -> Scalar:
    """q(F) n + r(F), or F s(F) in case I, at the series' own F and exact in
    its field extended by the index n: u' on v_{n+p} (x) v, eliminated onto
    v_n (x) v.  Words on v_k (x) v have top component v_k (x) X.v, so the
    pivots do not depend on F and a numeric F gives the formal value."""
    rep, space = _indexed(hw, s)
    lam = _eliminate_to_target(space, rep.u_prime, 0)
    if not lam.is_zero() and lam.degree_in("n") > (rep.case == "L"):
        raise ValueError("degenerate elimination: " + (
            "unexpected index dependence in the pure-I certificate" if rep.case == "I"
            else "certificate is not linear in the index"))
    return lam


def hv_decision_polynomials(hw: HighestWeight, s: IntermediateSeries,
                            p: int) -> HVCertificate:
    """Elimination certificates for the twisted algebra, F formal.

    The highest weight must satisfy hI = (1 + p) cLI (case I) or
    hI = (1 - p) cLI (case L) with cI = 0 and cLI nonzero.  The returned
    polynomials are exact in the weight's field extended by F and then
    n; the series parameter F supplied in s is replaced by the formal one.
    """
    if hw.kind != HV:
        raise ValueError("certificates exist for the twisted algebra only")
    if p < 1:
        raise ValueError("p must be a positive integer")
    found = hv_find_p(hw)
    if found is None or found[0] != p:
        raise ValueError(f"weight is not degenerate at p={p}")
    fctx = hw.ctx if "F" in hw.ctx.names else PolyContext(hw.ctx.names + ("F",))
    lam = _hv_certificate(hw, IntermediateSeries.make(fctx, s.alpha, s.beta, fctx.var("F")))
    if found[1] == "I":
        return HVCertificate("I", p, s_poly=lam / lam.ctx.var("F"))
    return HVCertificate("L", p, q_poly=lam.coeff_of("n", 1), r_poly=lam.coeff_of("n", 0))


def decide_tensor_hv(hw: HighestWeight, s: IntermediateSeries) -> TensorDecision:
    """Irreducibility of V'_{alpha,beta,F} (x) L(cL, cLI; h, hI).

    Requires cI = 0 and cLI nonzero, concrete rational weights and
    concrete alpha and beta.  F may be a concrete rational or symbolic;
    a symbolic F is treated as transcendental.  Cases the certificates
    cannot settle return an Unknown verdict.
    """
    if hw.kind != HV:
        raise ValueError("decide_tensor_hv handles the twisted algebra; "
                         "use decide_tensor")
    for name in ("cL", "cLI", "h", "hI", "cI"):
        _require_constant(hw[name], name)
    found = hv_find_p(hw)
    a = _require_constant(s.alpha, "alpha")
    b = _require_constant(s.beta, "beta")
    ctx = s.ctx
    f_const = s.F.is_constant()

    if hw["h"].is_zero() and hw["hI"].is_zero():
        # Tensor with the vacuum module, any F.
        if a.denominator == 1:
            k = -int(a)
            quot = ("V(cL, 1, F)" if b == 1 else "V(cL, 1 - beta, F)")
            return TensorDecision(
                "Reducible", "IntegralShift", k, p=1,
                notes=(f"U_{k} is an irreducible submodule",
                       f"the quotient is the Verma module {quot}"))
        return TensorDecision(
            "Irreducible", "ProductNonzero", -s.alpha, p=1,
            notes=("vacuum second factor: irreducible exactly when alpha "
                   "is not an integer",))

    if found is None:
        return TensorDecision(
            "Reducible", "NoSubsingular", None,
            notes=("the second factor is an irreducible Verma module; "
                   "every index yields a Verma subquotient with I_0 "
                   "weight hI + F",))

    p, case = found
    if f_const and s.F.is_zero():
        if case == "I":
            return TensorDecision(
                "Reducible", "NoSubsingular", None, p=p,
                notes=("F = 0 with a pure-I singular vector: every layer "
                       "U_n / U_{n+1} is irreducible",))
        shift = a + (1 - p) * b
        if shift.denominator == 1:
            k = 1 - p - int(shift)
            return TensorDecision(
                "Reducible", "IntegralShift", k, p=p,
                notes=(f"U_{k} is irreducible; the quotient has weights "
                       "(cL, h + p (1 - beta), hI)",))
        witness = ctx.scalar(p - 1) + s.alpha + s.beta * (1 - p)
        return TensorDecision(
            "Irreducible", "ProductNonzero", witness, p=p,
            notes=("alpha + (1 - p) beta is not an integer",))

    # Eliminated at the series' own F: case I is the q = 0 form, r(F) = F s(F).
    lam = _hv_certificate(hw, s)
    q, r_ = lam.coeff_of("n", 1), lam.coeff_of("n", 0)
    if f_const:
        # Numbers of the extended field, lifted into s.ctx; a symbolic F keeps n in its field.
        q, r_ = ctx.scalar(q), ctx.scalar(r_)
    # s(F) and q(F) are nonzero binomials in F (HVCertificate), so F is constant here.
    if q.is_zero() and r_.is_zero():
        note = (f"F = {s.F} is a root of the certificate polynomial F s(F); "
                "the criterion is silent here" if case == "I"
                else f"the certificate vanishes identically at F = {s.F}")
        return TensorDecision("Unknown", None, None, p=p, notes=(note,))
    root = None if q.is_zero() else -r_ / q
    if root is not None and root.is_integer():
        k = int(root.as_fraction())
        return TensorDecision(
            "Unknown", None, None, p=p,
            notes=(f"the certificate q(F) n + r(F) vanishes at index n = {k}; "
                   "the criterion is silent there" if f_const
                   else f"the certificate vanishes at index n = {k} for "
                   "every F; the criterion is silent there",))
    if case == "I":
        note = "F s(F) is nonzero" if f_const else "F transcendental: F s(F) cannot vanish"
    elif f_const:
        note = "q(F) n + r(F) is nonzero at every integer index"
    else:
        note = "F transcendental: q(F) n + r(F) has no integer root"
    return TensorDecision("Irreducible", "ProductNonzero", r_, p=p, notes=(note,))
