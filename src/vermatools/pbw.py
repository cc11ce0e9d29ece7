"""PBW basis of a Verma module and the straightening action on it.

A Verma module V over W(2,2) with highest weight (c, h, h_W) is free
over the lowering operators, with basis

    W(-m_s) ... W(-m_1) L(-n_t) ... L(-n_1) . v

where the W modes and the L modes are separately weakly decreasing and
at least 1.  The twisted Heisenberg-Virasoro case replaces W by I and
(c, h, h_W) by (c_L, c_I, c_LI, h, h_I).

``ModuleContext.act`` rewrites g . (monomial . v) into this basis by
structural recursion on the leftmost factor, memoized per (generator,
monomial).  Everything is exact: coefficients are :class:`Scalar`.
"""

from __future__ import annotations

from typing import NamedTuple

from . import render
from .liealg import (C, C_I, C_L, C_LI, HV, W22, Generator, I, L, W, bracket,
                     check_generator, second_family)
from .scalar import PolyContext, Scalar


class PBWMonomial(NamedTuple):
    """A normally ordered monomial: W/I part then L part, modes descending.
    Equal to the tuple (w, l); ``sort_key``, not ``<``, is the PBW order."""

    w: tuple[int, ...]
    l: tuple[int, ...]

    @classmethod
    def make(cls, w=(), l=()) -> "PBWMonomial":
        w = tuple(sorted(w, reverse=True))
        l = tuple(sorted(l, reverse=True))
        if (w and w[-1] < 1) or (l and l[-1] < 1):
            raise ValueError("modes in a PBW monomial must be positive")
        return cls(w, l)

    @property
    def level(self) -> int:
        return sum(self.w) + sum(self.l)

    def sort_key(self):
        return (self.l, self.w)

    def split(self, family: str) -> tuple[Generator, "PBWMonomial"]:
        """(leftmost factor, rest) of a nonempty monomial; ``family`` modes stand first."""
        if self.w:
            return Generator(family, -self.w[0]), PBWMonomial(self.w[1:], self.l)
        return Generator("L", -self.l[0]), PBWMonomial((), self.l[1:])

    def as_word(self, kind: str) -> tuple[Generator, ...]:
        """The monomial as a product of lowering generators, left to right."""
        fam = second_family(kind)
        return tuple(Generator(fam, -m) for m in self.w) + tuple(
            Generator("L", -n) for n in self.l
        )

    def to_json(self) -> dict:
        return {"w": list(self.w), "l": list(self.l)}

    @staticmethod
    def from_json(obj: dict) -> "PBWMonomial":
        return PBWMonomial.make(obj["w"], obj["l"])

    def __repr__(self):
        return render.monomial(self)


EMPTY = PBWMonomial((), ())


# The weight that each central or zero-mode generator takes on v, per algebra.
_EIGENVALUE_NAMES = {
    W22: {C: "c", L(0): "h", W(0): "hW"},
    HV: {C_L: "cL", C_I: "cI", C_LI: "cLI", L(0): "h", I(0): "hI"},
}


class HighestWeight:
    """A highest weight: central charges plus L_0 / W_0 (or I_0) eigenvalues."""

    __slots__ = ("kind", "ctx", "weights")

    def __init__(self, kind: str, ctx: PolyContext, weights: dict):
        self.kind = kind
        self.ctx = ctx
        self.weights = {k: ctx.scalar(v) for k, v in weights.items()}

    @classmethod
    def w22(cls, ctx: PolyContext, c, h, hW) -> "HighestWeight":
        return cls(W22, ctx, {"c": c, "h": h, "hW": hW})

    @classmethod
    def hv(cls, ctx: PolyContext, cL, cLI, h, hI, cI=0) -> "HighestWeight":
        return cls(HV, ctx, {"cL": cL, "cI": cI, "cLI": cLI, "h": h, "hI": hI})

    def __getitem__(self, name: str) -> Scalar:
        return self.weights[name]

    def eigenvalue(self, g: Generator) -> Scalar:
        """Action of a central or zero-mode generator on the highest weight vector."""
        name = _EIGENVALUE_NAMES[self.kind].get(g)
        if name is None:
            raise ValueError(f"{g} has no eigenvalue on the highest weight vector")
        return self.weights[name]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "weights": {k: str(v) for k, v in sorted(self.weights.items())},
        }

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.weights.items()))
        return f"HighestWeight({self.kind}: {inner})"


class Vector:
    """A finite exact combination of basis keys with coefficients in
    ``ctx.scalar_ctx``; zero coefficients are dropped."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms: dict):
        self.ctx = ctx
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            _accumulate(out, k, c)
        return type(self)(self.ctx, out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, s):
        s = self.ctx.scalar_ctx.scalar(s)
        return type(self)(self.ctx, {k: c * s for k, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


class ModuleVector(Vector):
    """An exact, level-homogeneous element of the Verma module."""

    __slots__ = ()

    def __init__(self, ctx: "ModuleContext", terms: dict):
        super().__init__(ctx, terms)
        levels = {m.level for m in self.terms}
        if len(levels) > 1:
            raise ValueError(f"vector mixes levels {sorted(levels)}")

    @property
    def level(self):
        for m in self.terms:
            return m.level
        return None

    def coeff(self, mono: PBWMonomial) -> Scalar:
        return self.terms.get(mono, self.ctx.scalar_ctx.zero)

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda mc: mc[0].sort_key(), reverse=True)

    def to_json(self) -> dict:
        return {
            "terms": [
                {"monomial": m.to_json(), "coeff": c.to_json()}
                for m, c in self.sorted_terms()
            ]
        }

    @staticmethod
    def from_json(M: "ModuleContext", obj: dict) -> "ModuleVector":
        terms = {}
        for entry in obj["terms"]:
            mono = PBWMonomial.from_json(entry["monomial"])
            terms[mono] = Scalar.from_json(M.scalar_ctx, entry["coeff"])
        return ModuleVector(M, terms)

    def __repr__(self):
        return render.text_vector(self)


class ModuleContext:
    """A Verma module: a highest weight plus the memoized generator action."""

    def __init__(self, hw: HighestWeight):
        self.hw = hw
        self.kind = hw.kind
        self.scalar_ctx = hw.ctx
        self.current = second_family(hw.kind)
        self._memo: dict = {}

    def vector(self, terms: dict) -> ModuleVector:
        lifted = {m: self.scalar_ctx.scalar(c) for m, c in terms.items()}
        return ModuleVector(self, lifted)

    def vacuum(self) -> ModuleVector:
        return self.vector({EMPTY: 1})

    def zero(self) -> ModuleVector:
        return ModuleVector(self, {})

    def monomial_vector(self, w=(), l=()) -> ModuleVector:
        return self.vector({PBWMonomial.make(w, l): 1})

    # -- the action ------------------------------------------------------

    def act(self, g: Generator, x: ModuleVector) -> ModuleVector:
        """Normal form of g . x."""
        check_generator(g, self.kind)
        out: dict = {}
        for mono, coeff in x.terms.items():
            for m2, c2 in self._act_mono(g, mono):
                _accumulate(out, m2, coeff * c2)
        return ModuleVector(self, out)

    def _act_mono(self, g: Generator, mono: PBWMonomial):
        key = (g, mono)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        result = self._act_mono_compute(g, mono)
        self._memo[key] = result
        return result

    def _act_mono_compute(self, g: Generator, mono: PBWMonomial):
        one = self.scalar_ctx.one
        if g.family == "L" and g.mode == 0:
            ev = self.hw["h"] + self.scalar_ctx.scalar(mono.level)
            return ((mono, ev),) if not ev.is_zero() else ()
        # Central elements and I_0 act by their eigenvalue on every
        # monomial, W_0 only on v itself.
        if g.is_central() or (g.mode == 0 and (g.family == "I" or mono == EMPTY)):
            ev = self.hw.eigenvalue(g)
            return ((mono, ev),) if not ev.is_zero() else ()
        if mono == EMPTY and g.mode > 0:
            return ()
        if g.family == self.current and g.mode < 0:
            merged = PBWMonomial.make(mono.w + (-g.mode,), mono.l)
            return ((merged, one),)
        if (
            g.family == "L"
            and g.mode < 0
            and not mono.w
            and (not mono.l or -g.mode >= mono.l[0])
        ):
            return ((PBWMonomial.make((), (-g.mode,) + mono.l), one),)
        # general case: peel the leftmost factor A and recurse on the rest
        a, rest = mono.split(self.current)
        acc: dict = {}
        for m1, c1 in self._act_mono(g, rest):
            for m2, c2 in self._act_mono(a, m1):
                _accumulate(acc, m2, c1 * c2)
        for b, coef in bracket(g, a, self.kind):
            lifted = self.scalar_ctx.scalar(coef)
            for m2, c2 in self._act_mono(b, rest):
                _accumulate(acc, m2, lifted * c2)
        items = [(m, c) for m, c in acc.items() if not c.is_zero()]
        items.sort(key=lambda mc: mc[0].sort_key())
        return tuple(items)


def _accumulate(acc: dict, mono: PBWMonomial, coeff: Scalar) -> None:
    s = acc.get(mono)
    acc[mono] = coeff if s is None else s + coeff
