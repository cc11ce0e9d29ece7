"""Structure theory of Verma modules: singular vectors, characters, quotients.

Everything here is exact.  A Verma module V(c, h, h_W) is presented
through a ModuleContext; weight-space computations enumerate the PBW
basis of each level and reduce questions to sparse exact linear algebra.

The central objects:

* ``u_prime``      the singular vector at the degenerate level p: pure W
                   when 2 h_W + (p^2-1) c / 12 = 0, and for the twisted
                   algebra pure I (case I) or with an L_{-p} term (case L);
* ``subsingular``  the level-rp vector with leading term L_{-p}^r that is
                   singular modulo the submodule generated by ``u_prime``;
* characters of the Verma module, the submodules J' = U(g) u' and
  J = U(g){u', u}, and the corresponding quotients;
* ``QuotientModule``, a quotient of V acting in quotient-basis coordinates;
* ``classify`` assembling these into a structure report;
* ``conjecture_scan`` collecting existence/uniqueness evidence on a grid.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .scalar import PolyContext, Scalar
from .liealg import W22, L, W, Generator, second_family
from .pbw import EMPTY, PBWMonomial, HighestWeight, ModuleVector, ModuleContext
from . import linalg

_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Partitions and weight-space bases


def partitions(n: int) -> tuple:
    """All partitions of n as weakly decreasing tuples, lex descending."""
    return _partitions(n, n)


@lru_cache(maxsize=None)
def _partitions(n: int, largest: int) -> tuple:
    """Partitions of n with no part above ``largest``, lex descending."""
    if n == 0:
        return ((),)
    return tuple((k,) + rest for k in range(min(n, largest), 0, -1)
                 for rest in _partitions(n - k, min(k, n - k)))


@lru_cache(maxsize=None)
def _pair_counts(top: int) -> tuple:
    """P2(0), ..., P2(top), the coefficients of prod_{k>=1} (1 - q^k)^{-2}:
    one pass multiplies by 1 / (1 - q^k), for each family and part size k."""
    counts = [1] + [0] * top
    for _family in range(2):
        for k in range(1, top + 1):
            for n in range(k, top + 1):
                counts[n] += counts[n - k]
    return tuple(counts)


def pair_partition_count(n: int) -> int:
    """Number of PBW monomials of level n (two commuting families)."""
    return _pair_counts(n)[n] if n >= 0 else 0


@lru_cache(maxsize=None)
def weight_space_basis(level: int) -> tuple:
    """All PBW monomials of the given level, sorted canonically.

    The order is descending in (l-part, w-part) lex, so L_{-level} comes
    first and W_{-1}^level last.  This is the column order used for
    pivoting and the term order used for rendering.
    """
    monos = []
    for wsum in range(level + 1):
        for wpart in partitions(wsum):
            for lpart in partitions(level - wsum):
                monos.append(PBWMonomial(wpart, lpart))
    monos.sort(key=lambda m: m.sort_key(), reverse=True)
    return tuple(monos)


class WordWalker:
    """The images of PBW words applied to one start vector, kept by word
    across degrees; ``space`` is a ModuleContext or a TensorSpace.

    The image of a word X r, with X its leftmost factor, is
    ``space.act(X, image of r)``: a word with a nonzero suffix image costs
    one action, once, whatever degrees or words are asked for later.
    """

    def __init__(self, space, start):
        self.space, self.start = space, start
        self._family = second_family(space.kind)
        self._images = {EMPTY: start}

    def image(self, mono: PBWMonomial):
        """The image of one word, as a vector of ``space``."""
        vec = self._images.get(mono)
        if vec is None:
            g, rest = mono.split(self._family)
            vec = self.image(rest)
            if not vec.is_zero():
                vec = self.space.act(g, vec)
            self._images[mono] = vec
        return vec

    def images(self, degree: int) -> dict:
        """Nonzero images, as term dicts keyed by word, of every PBW word of
        the given degree (none when it is negative), in basis order."""
        return {m: vec.terms for m in weight_space_basis(degree)
                if not (vec := self.image(m)).is_zero()}


def pure_w_basis(level: int) -> list:
    """Monomials of the given level with no L factors."""
    return [m for m in weight_space_basis(level) if not m.l]


# ---------------------------------------------------------------------------
# Locating the degenerate level


def zd_find_p(hw: HighestWeight):
    """Smallest p >= 1 with 2 h_W + (p^2-1) c / 12 = 0, or None.

    Closed form, with no search cap: p = 1 exactly when h_W = 0, and
    otherwise c != 0 and p^2 = 1 - 24 h_W / c must be the square of an
    integer.  The module is reducible exactly when such a p exists (for
    W(2,2) weights; use hv_find_p for the twisted Heisenberg-Virasoro case).
    At c = h_W = 0 the condition holds at every p and u' = W_{-1} v does
    not generate the maximal submodule, so that weight raises ValueError;
    over a field with parameters only exact zeros do.
    """
    c, hW = hw["c"], hw["hW"]
    if hW.is_zero():
        if c.is_zero():
            raise ValueError("requires c or h_W nonzero")
        return 1
    if c.is_zero():
        return None
    square = 1 - hW * 24 / c
    if not square.is_integer() or square.as_fraction() < 1:
        return None
    n = int(square.as_fraction())
    p = math.isqrt(n)
    return p if p * p == n else None


def hv_find_p(hw: HighestWeight):
    """Degenerate level for a twisted Heisenberg-Virasoro weight.

    Returns (p, case) where case is "I" when h_I / c_LI = 1 + p (the
    singular vector is built from I modes) and "L" when h_I / c_LI = 1 - p
    (it is built from L and I modes), or None when h_I / c_LI is not an
    integer different from 1.  This is the level-zero structure of
    c_I = 0 and c_LI != 0 (Billig 2003); any other central charges raise
    ValueError.
    """
    hI, cLI = hw["hI"], hw["cLI"]
    if cLI.is_zero() or not hw["cI"].is_zero():
        raise ValueError("requires c_I = 0 and c_LI nonzero")
    ratio = hI / cLI
    if not ratio.is_integer():
        return None
    k = int(ratio.as_fraction())
    if k > 1:
        return k - 1, "I"
    if k < 1:
        return 1 - k, "L"
    return None


# ---------------------------------------------------------------------------
# Singular vectors


def _raising_generators(kind: str) -> list:
    second = second_family(kind)
    return [L(1), L(2), Generator(second, 1), Generator(second, 2)]


def _raising_system(M: ModuleContext, unknowns, known=None) -> tuple:
    """The conditions g.(known + sum_m x_m m) = 0 in M, one row per raising
    generator g and image monomial; M is a Verma module or a quotient of
    one.

    The columns are the unknown monomials; the terms of g.known sit under
    ``linalg.RHS``.  Rows come unknown by unknown, generator by generator
    within each.  ``Echelon.extend`` breaks ties in sparsity by this
    order, and generator by generator first made ``singular_space`` at
    p = 5 and 6 over Q(hW, h) about twice as slow (2-core x86 box).

    Returns (rows, columns).
    """
    gens = _raising_generators(M.kind)
    rows: dict = {}
    if known is not None:
        for gi, g in enumerate(gens):
            for tmono, coeff in M.act(g, known).terms.items():
                rows.setdefault((gi, tmono), {})[linalg.RHS] = -coeff
    for m in unknowns:
        for gi, g in enumerate(gens):
            for tmono, coeff in M._act_mono(g, m):
                rows.setdefault((gi, tmono), {})[m] = coeff
    return list(rows.values()), list(unknowns)


def singular_space(M: ModuleContext, level: int) -> list:
    """Basis of the singular vectors at the given level.

    A vector x of level n is singular when g.x = 0 for every positive
    generator g; it is enough to impose this for L_1, L_2 and the degree
    1 and 2 modes of the second family, which generate the raising part.
    """
    ctx = M.scalar_ctx
    rows, columns = _raising_system(M, weight_space_basis(level))
    vectors = []
    for sol in linalg.nullspace(rows, columns, ctx):
        vec = M.vector(sol)
        lead = max(vec.terms, key=lambda m: m.sort_key())
        vectors.append(vec.scaled(ctx.one / vec.terms[lead]))
    return vectors


def _complete(M: ModuleContext, known: ModuleVector, unknowns, what: str) -> ModuleVector:
    """The singular vector known + sum_m x_m m over the unknown monomials m;
    ValueError unless it exists with every x_m determined."""
    res = linalg.solve(*_raising_system(M, unknowns, known))
    if res is None:
        raise ValueError(f"no {what}")
    sol, free = res
    if free:
        raise ValueError(f"{what} underdetermined: {free} free")
    return known + M.vector(sol)


def u_prime(M: ModuleContext, p: int) -> ModuleVector:
    """The singular vector at the degenerate level p; ValueError at any
    other level.

    For W(2,2) and the twisted case I (h_I / c_LI = 1 + p) it is
    W_{-p} v (or I_{-p} v) completed over the other monomials of level p
    with no L factor, so it has none.  In the twisted case L
    (h_I / c_LI = 1 - p) it is L_{-p} v completed over the whole level.
    The lead monomial, listed first by pure_w_basis or weight_space_basis,
    has coefficient 1.
    """
    if p < 1:
        raise ValueError(f"p must be a positive integer, not {p}")
    hw = M.hw
    if hw.kind == W22:
        c, hW = hw["c"], hw["hW"]
        if not (hW + hW + c * Fraction(p * p - 1, 12)).is_zero():
            raise ValueError(f"2*hW + (p^2-1)*c/12 != 0 at p={p}; no pure-W singular vector")
    else:
        found = hv_find_p(hw)
        if found == (p, "L"):
            return _complete(M, M.vector({PBWMonomial((), (p,)): 1}), weight_space_basis(p)[1:],
                             f"singular vector with an L_{{-{p}}} term at level {p}")
        if found != (p, "I"):
            raise ValueError(f"hI/cLI is neither 1+p nor 1-p at p={p}; no singular vector u'")
    return _complete(M, M.vector({PBWMonomial((p,), ()): 1}), pure_w_basis(p)[1:],
                     f"pure singular vector at level {p}")


def necessary_h(p: int, r: int, hW) -> Scalar | Fraction:
    """The only h at which a level-rp subsingular vector can exist.

    h = h_W + (13p+1)(p-1)/12 + (1-r)p/2.
    """
    return hW + Fraction((13 * p + 1) * (p - 1), 12) + Fraction((1 - r) * p, 2)


def _require_level(r: int) -> None:
    """ValueError unless r, the power of L_{-p} in u, is a positive integer."""
    if r < 1:
        raise ValueError(f"r must be a positive integer, not {r}")


def require_degenerate(hw: HighestWeight, p: int, r: int | None = None) -> None:
    """ValueError unless the W(2,2) weight is degenerate at p and, given r,
    h is the necessary value for (p, r)."""
    if r is not None:
        _require_level(r)
    hW, h, c = hw["hW"], hw["h"], hw["c"]
    if not (hW * 2 + c * Fraction(p * p - 1, 12)).is_zero():
        raise ValueError(f"weight is not degenerate at p={p}")
    if r is not None and not (h - necessary_h(p, r, hW)).is_zero():
        raise ValueError(f"h is not at the subsingular point for (p, r)=({p}, {r})")


def subsingular(M: ModuleContext, p: int, r: int):
    """The level-rp vector singular modulo J', or None; W(2,2) weights only.

    Ansatz: u = L_{-p}^r v + sum over level-rp monomials with no W_{-p}
    factor, and the requirement is g.u = 0 in V / J' for the four
    raising generators.  At the necessary h the system is first solved
    on the monomials of L-degree <= r alone (see _subsingular_direct);
    every system is solved exactly over the coefficient field, and one
    DEBUG log line per call gives the system size, the ansatz when the
    first pass ran, and the outcome.
    """
    if M.kind != W22:
        raise ValueError("the subsingular solve applies to W(2,2) weights")
    _require_level(r)
    try:
        uprime = u_prime(M, p)
    except (ValueError, ZeroDivisionError) as exc:
        _log.debug("subsingular(p=%d, r=%d): u' failed: %s", p, r, exc)
        raise
    return _subsingular_direct(quotient_l_prime(M, uprime), p, r)


def _subsingular_direct(Q: QuotientModule, p: int, r: int):
    """Build the subsingular system in Q = V / J', J' = U(g) u', and solve
    it exactly over the coefficient field.

    The unknowns are the ansatz monomials and the lead L_{-p}^r is the
    known part; each g.u is taken in Q.  The system is consistent exactly
    at the necessary h.  There the ansatz of L-degree <= r, when smaller,
    is solved first; an answer with no unknown free solves the full system
    too (zeros elsewhere), so it is taken.  Every other case, a symbolic h
    included, is decided on the full ansatz, which refuses an unknown left
    free.
    """
    lead = PBWMonomial((), (p,) * r)
    known, ctx = Q.M.vector({lead: 1}), Q.scalar_ctx
    unknowns = [m for m in weight_space_basis(r * p) if Q.basis_pred(m) and m != lead]
    small = [m for m in unknowns if len(m.l) <= r]
    first = len(small) < len(unknowns) and (Q.hw["h"] - necessary_h(p, r, Q.hw["hW"])).is_zero()
    for ansatz in ([small] if first else []) + [unknowns]:
        rows, columns = _raising_system(Q, ansatz, known)
        res = linalg.solve(rows, columns)
        if ansatz is unknowns or (res is not None and not res[1]):
            break
        rejected = "inconsistent" if res is None else f"{len(res[1])} free"
    on = "" if not first else (f" on the L-degree <= {r} ansatz" if ansatz is small else
                               f" on the full ansatz (L-degree <= {r}: {rejected})")
    _log.debug("subsingular(p=%d, r=%d): exact solve of %d x %d system over Q(%s)%s: %s",
               p, r, len(rows), len(columns), ", ".join(ctx.names), on,
               "inconsistent" if res is None else f"rank {len(columns) - len(res[1])}")
    if res is None:
        return None
    sol, free = res
    if free:
        raise ValueError(f"subsingular solve underdetermined at p={p}, r={r}: {free}")
    return Q.M.vector({lead: ctx.one, **sol})


def _certify_subsingular(Q: QuotientModule, u: ModuleVector) -> bool:
    """Whether every raising generator g sends u into J': g.u is zero in Q, which is
    V / J' or a classify report's V / J; the two agree below level rp, where g.u lies."""
    return all(Q.reduce(Q.M.act(g, u)).is_zero() for g in _raising_generators(Q.kind))


# bench/tracing.py wraps the sampled solver of earlier versions under
# these names.  That solver is gone, because the exact solve above beat it
# at every measured point; the names stay, never called, until the
# benchmark drops those wrappers.
_SAMPLING_INCONCLUSIVE = object()


def _subsingular_sampled(*_args):
    return _SAMPLING_INCONCLUSIVE


_specialize_module = _rational_interpolate = _subsingular_sampled


def subsingular_r1_recursive(M: ModuleContext, p: int) -> ModuleVector:
    """The r=1 singular vector at level p via the W-coefficient recursion.

    Writing u = sum_n w_n L_{-n} v with w_p = 1 and w_n in the commutative
    algebra of W modes, the coefficients for 0 < n < p satisfy

      w_n = (p^2-1) / (2 h_W n (n^2 - p^2)) * sum_{i=n+1}^{p} (n+i) w_i W_{-(i-n)}

    and w_0 is completed by solving the exact singularity conditions.
    """
    hw = M.hw
    if hw.kind != W22:
        raise ValueError("the recursion applies to W(2,2) weights")
    ctx = M.scalar_ctx
    hW = hw["hW"]
    # w[n]: pure-W vector of level p-n representing w_n . v
    wvec: dict[int, ModuleVector] = {p: M.vacuum()}
    for n in range(p - 1, 0, -1):
        acc = M.zero()
        for i in range(n + 1, p + 1):
            acc = acc + M.act(W(-(i - n)), wvec[i]).scaled(ctx.scalar(n + i))
        factor = ctx.scalar(Fraction(p * p - 1)) / (
            (hW + hW) * ctx.scalar(Fraction(n * (n * n - p * p))))
        wvec[n] = acc.scaled(factor)
    # the known part sum_{n>=1} w_n L_{-n} v; its keys are distinct across n
    known = M.vector({PBWMonomial.make(mono.w, (n,)): coeff for n in range(1, p + 1)
                      for mono, coeff in wvec[n].terms.items()})
    return _complete(M, known, pure_w_basis(p)[1:],
                     f"singular vector of the assumed shape at level {p}")


# ---------------------------------------------------------------------------
# Characters


@dataclass(frozen=True)
class CharacterSeries:
    """A graded dimension series q^offset * sum coeffs[i] q^i, exact to q^N."""

    offset: Scalar
    coeffs: tuple

    def to_json(self) -> dict:
        return {"offset": self.offset.to_json(), "coeffs": list(self.coeffs)}


def _character(offset, mask, N: int) -> CharacterSeries:
    """q^offset (sum of sign q^shift over the (shift, sign) pairs of mask)
    sum_n P2(n) q^n to order N; pairs with equal shifts add."""
    p2 = _pair_counts(N - min(shift for shift, _ in mask))
    return CharacterSeries(offset, tuple(
        sum(sign * p2[n - shift] for shift, sign in mask if shift <= n)
        for n in range(N + 1)))


def char_verma(hw: HighestWeight, N: int) -> CharacterSeries:
    """Character of V: q^h sum_n P2(n) q^n to order N."""
    return _character(hw["h"], ((0, 1),), N)


def char_j_prime(hw: HighestWeight, p: int, N: int) -> CharacterSeries:
    """Character of J' = U(g) u': q^{h+p} sum_n P2(n) q^n."""
    return _character(hw["h"] + p, ((0, 1),), N)


def char_l_prime(hw: HighestWeight, p: int, N: int) -> CharacterSeries:
    """Character of V / J': q^h (1 - q^p) sum_n P2(n) q^n."""
    return _character(hw["h"], ((0, 1), (p, -1)), N)


def char_l(hw: HighestWeight, p: int, r: int, N: int) -> CharacterSeries:
    """Character of the irreducible quotient when the subsingular vector exists.

    q^h (1 - q^p)(1 - q^{rp}) sum_n P2(n) q^n.
    """
    _require_level(r)
    return _character(hw["h"], ((0, 1), (p, -1), (r * p, -1), (p + r * p, 1)), N)


def char_j(hw: HighestWeight, p: int, r: int, N: int) -> CharacterSeries:
    """Character of J = U(g){u', u}: q^{h+p} (1 + q^{(r-1)p} - q^{rp}) sum_n P2(n) q^n."""
    _require_level(r)
    return _character(hw["h"] + p, ((0, 1), ((r - 1) * p, 1), (r * p, -1)), N)


# ---------------------------------------------------------------------------
# Quotients


class QuotientModule(ModuleContext):
    """The quotient of a Verma module M by the submodule its relation
    vector generates (``extended`` adds more), as a module in its own right.

    A predicate selects the quotient-basis monomials at each level;
    ``reduce`` rewrites any vector of M as an equal vector supported on
    them, and the action is M's, reduced.  Raises if the relations fail
    to eliminate exactly the non-basis monomials, which would mean the
    proposed basis is wrong.
    """

    def __init__(self, M: ModuleContext, relation: ModuleVector, basis_pred):
        super().__init__(M.hw)
        self.M = M
        self._walkers = [WordWalker(M, relation)]
        self.basis_pred = basis_pred
        self._ech: dict[int, linalg.Echelon] = {}

    def _echelon(self, level: int) -> linalg.Echelon:
        ech = self._ech.get(level)
        if ech is not None:
            return ech
        priority = {m: (bool(self.basis_pred(m)), i)
                    for i, m in enumerate(weight_space_basis(level))}
        ech = linalg.Echelon(key=lambda m: priority[m])
        for walker in self._walkers:
            ech.extend(walker.images(level - walker.start.level).values())
        nonbasis = {m for m, (in_basis, _) in priority.items() if not in_basis}
        if ech.pivots.keys() != nonbasis:
            raise ValueError(
                f"quotient basis mismatch at level {level}: "
                f"{len(ech.pivots)} relations, {len(nonbasis)} non-basis monomials")
        self._ech[level] = ech
        return ech

    def reduce(self, vec: ModuleVector) -> ModuleVector:
        """Rewrite a homogeneous vector in quotient-basis coordinates."""
        lvl = vec.level
        if lvl is None:
            return vec
        ech = self._echelon(lvl)
        return self.M.vector(ech.reduce(dict(vec.terms)))

    def dim(self, level: int) -> int:
        return len(weight_space_basis(level)) - len(self._echelon(level).pivots)

    def extended(self, rel: ModuleVector, basis_pred) -> QuotientModule:
        """The quotient by one more relation, with basis predicate
        ``basis_pred``.  Below ``rel.level`` the relations are the same, and
        the caller's predicate must agree there, so those echelons are kept,
        and so are the relations' walkers with the word images they hold."""
        Q = QuotientModule(self.M, rel, basis_pred)
        Q._walkers[:0] = self._walkers
        Q._ech = {n: ech for n, ech in self._ech.items() if n < rel.level}
        return Q

    def _act_mono_compute(self, g: Generator, mono: PBWMonomial):
        image = self.M._act_mono(g, mono)
        if not image:
            return ()
        return tuple(self._echelon(image[0][0].level).reduce(dict(image)).items())


def quotient_l_prime(M: ModuleContext, uprime: ModuleVector) -> QuotientModule:
    """V / J' for u' = ``u_prime(M, p)``, p = u'.level: the basis avoids the lead
    monomial of u', W_{-p}, I_{-p} (twisted case I) or L_{-p} (twisted case L)."""
    p = uprime.level
    if PBWMonomial((), (p,)) in uprime.terms:
        return QuotientModule(M, uprime, lambda m: p not in m.l)
    return QuotientModule(M, uprime, lambda m: p not in m.w)


# ---------------------------------------------------------------------------
# Classification


@dataclass
class StructureReport:
    """Outcome of classifying a Verma module's structure, and the quotient it is read in."""

    kind: str
    verdict: str                 # VermaIrreducible | UprimeOnly | UprimeAndSubsingular
    p: int | None = None
    r: int | None = None
    u_prime: ModuleVector | None = None
    u: ModuleVector | None = None
    case: str | None = None      # HV only: "I" or "L"
    notes: list = field(default_factory=list)
    quotient: QuotientModule | None = field(default=None, compare=False, repr=False)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "p": self.p,
            "r": self.r,
            "uPrime": self.u_prime.to_json() if self.u_prime is not None else None,
            "u": self.u.to_json() if self.u is not None else None,
            "case": self.case,
            "notes": list(self.notes),
        }


def recover_r(p: int, hw: HighestWeight) -> Scalar:
    """Value of r implied by h = necessary_h(p, r, hW), as an exact scalar."""
    return (necessary_h(p, 1, hw["hW"]) - hw["h"]) * Fraction(2, p) + 1


# Highest level at which classify builds a witness vector; beyond it,
# it and so tensor.hv_decision_polynomials refuse.  At p = 10, r = 1 a
# numeric weight takes about 0.03 s in the classify command, 0.06 s in the
# tensor command, which also eliminates for its witness, and the
# hv-decide command at F = 3 about 0.65 s in the twisted case L and
# 0.33 s in case I (2-core x86 VM, Python 3.11).
CLASSIFY_MAX_LEVEL = 10


class OutOfReach(Exception):
    """The computation needs a level beyond its budget; no verdict is given."""


def _check_reach(p: int, r: int = 1) -> None:
    if r * p > CLASSIFY_MAX_LEVEL:
        what = f"p = {p}" if r == 1 else f"p = {p}, r = {r} (level {r * p})"
        raise OutOfReach(f"the weight is degenerate at {what}, beyond level "
                         f"{CLASSIFY_MAX_LEVEL}, the highest that is computed; "
                         "no verdict")


def classify(M: ModuleContext) -> StructureReport:
    """Structure report for the Verma module of M's highest weight.

    Raises OutOfReach, instead of returning a verdict, when a witness
    lies above CLASSIFY_MAX_LEVEL.  Over a field with parameters the
    verdict is the generic one, and a note says so.
    """
    rep = _classify(M)
    names = ", ".join(M.scalar_ctx.names)
    if names:
        rep.notes.append(f"generic verdict: it holds over Q({names}), so for generic "
                         f"values of {names}; specialising them may change it")
    return rep


def _classify(M: ModuleContext) -> StructureReport:
    hw = M.hw
    found = zd_find_p(hw) if hw.kind == W22 else hv_find_p(hw)
    if found is None:
        return StructureReport(kind=hw.kind, verdict="VermaIrreducible")
    p, case = (found, None) if hw.kind == W22 else found
    _check_reach(p)
    uprime = u_prime(M, p)
    Q = quotient_l_prime(M, uprime)
    rep = StructureReport(kind=hw.kind, verdict="UprimeOnly", p=p, u_prime=uprime, case=case,
                          quotient=Q)
    if hw.kind != W22:  # only W(2,2) goes on to the subsingular u at level rp
        return rep
    r_val = recover_r(p, hw)
    r = int(r_val.as_fraction()) if r_val.is_integer() else 0
    if r >= 1:
        _check_reach(p, r)
        u = _subsingular_direct(Q, p, r)
        if u is not None:
            return StructureReport(
                kind=W22, verdict="UprimeAndSubsingular", p=p, r=r, u_prime=uprime, u=u,
                quotient=Q.extended(u, lambda m: p not in m.w and m.l.count(p) < r))
        rep.notes.append(f"h matches r={r} but no subsingular vector found")
    return rep


# ---------------------------------------------------------------------------
# Conjecture evidence


def conjecture_scan_point(p: int, r: int, offsets=()) -> dict:
    """One grid point of the subsingular-existence scan.

    Works over the field of rational functions in one symbol: h_W itself
    for p >= 2 (with c = -24 h_W / (p^2-1)), and the central charge c
    for p = 1 (where h_W = 0).  Records whether the subsingular vector
    exists at the necessary h and fails to exist at h + delta for each
    offset delta; for p = 1 also checks the observed shape (only L_{-1}
    factors in the L part).
    """
    if p == 1:
        ctx = PolyContext(("c",))
        c = ctx.var("c")
        hW = ctx.zero
    else:
        ctx = PolyContext(("hW",))
        hW = ctx.var("hW")
        c = hW * Fraction(-24, p * p - 1)
    h = necessary_h(p, r, hW)

    def solve(delta):
        hw = HighestWeight.w22(ctx, c=c, h=h + ctx.scalar(Fraction(delta)), hW=hW)
        return subsingular(ModuleContext(hw), p, r)

    u = solve(0)
    row = {"p": p, "r": r, "found": u is not None, "offsets": {}, "shape_ok": None}
    for delta in offsets:
        row["offsets"][str(Fraction(delta))] = solve(delta) is None
    if p == 1 and u is not None:
        row["shape_ok"] = all(set(m.l) <= {1} for m in u.terms)
    row["ok"] = bool(row["found"]) and all(row["offsets"].values()) and (
        row["shape_ok"] is not False)
    return row


def conjecture_scan(p_max: int, r_max: int, offsets=()) -> list:
    """Existence and exclusivity evidence for the subsingular conjecture,
    over the full (p, r) grid up to the given bounds."""
    return [conjecture_scan_point(p, r, offsets)
            for p in range(1, p_max + 1) for r in range(1, r_max + 1)]
