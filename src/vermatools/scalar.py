"""Exact coefficient arithmetic: rationals and small rational functions.

Every coefficient in the workbench lives in the fraction field
``Q(x_1, ..., x_k)`` over a short tuple of named parameters (at most a
handful, e.g. ``("hW",)`` or ``("h", "cLI")``).  A :class:`Scalar` is
kept in canonical form at all times, so equality is literal
representation equality and exact zero tests are trivial:

* numerator and denominator share no nonconstant polynomial factor,
* both are primitive integer-coefficient polynomials with positive
  leading coefficient (lexicographic order over the parameter tuple),
* the rational content of the fraction, sign included, is a separate
  reduced pair of Python ints ``cn / cd`` with ``cd > 0``.

The content arithmetic runs inline on those ints with ``math.gcd``;
``fractions.Fraction`` appears only at the boundary: parsing and lifting
with ``PolyContext.scalar``, ``as_fraction``, ``cont`` and JSON.  On a
2-core x86 box this took a product of two constants over Q from 2.9 to
1.0 us, and the tensor-chains benchmark's wall_s from 0.67 to 0.54 ref_s
(seed 1, median of 10 alternating pairs).

Polynomials are dicts mapping exponent tuples to int coefficients, so
the inner loops run on machine integers; the gcd used for cancellation
is a primitive pseudo-remainder sequence with a dense integer fast path
for the univariate case that dominates in practice.  In several
variables it first tries to prove the gcd constant from univariate
integer images (``_coprime_certified``), which is exact and turns sums
over a shared denominator in three symbols from minutes into
milliseconds.

There is one ``PolyContext`` per tuple of names: the constructor returns
the context already made for the tuple, and copies and pickles come back
as that object, so two Scalars share a field exactly when their ``ctx``
is the same object.  A context builds its ``zero`` and ``one`` once, and
``one`` is a unit by identity: multiplying by that object returns the
other factor itself.  Scalars are immutable and never mutate their
shared polynomial dicts, so nothing can tell the difference, and the
PBW action, whose normally ordered images all carry ``one``, builds no
Scalar for them.  ``PolyContext.scalar`` lifts any value equal to 1
to ``one`` itself, and comparing with an int or Fraction builds no
Scalar.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import render

Poly = dict  # exponent tuple -> int, zero coefficients never stored


def _pone(ctx_len: int) -> Poly:
    return {(0,) * ctx_len: 1}


def _pis_const(p: Poly) -> bool:
    return len(p) == 0 or (len(p) == 1 and not any(next(iter(p))))


def _padd(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        if s is None:
            out[e] = c
        else:
            s = s + c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _pscale(a: Poly, k: int) -> Poly:
    if not k:
        return {}
    return {e: c * k for e, c in a.items()}


def _pmul(a: Poly, b: Poly) -> Poly:
    """Product of two nonzero polynomials."""
    if _pis_const(a):
        return _pscale(b, next(iter(a.values())))
    if _pis_const(b):
        return _pscale(a, next(iter(b.values())))
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e)
            if s is None:
                out[e] = ca * cb
            else:
                s = s + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


def _ppow(a: Poly, k: int) -> Poly:
    """a ** k for k >= 1, as k - 1 products by a."""
    out = a
    for _ in range(k - 1):
        out = _pmul(out, a)
    return out


def _plead(a: Poly) -> tuple:
    """Leading (exponent, coeff) under lex order on exponent tuples."""
    e = max(a)
    return e, a[e]


def _pvars(a: Poly) -> set:
    used = set()
    for e in a:
        for i, x in enumerate(e):
            if x:
                used.add(i)
    return used


def _pprimitive_int(a: Poly) -> tuple[int, Poly]:
    """(content, primitive part with positive lc) of a nonzero polynomial."""
    g = math.gcd(*a.values())
    if _plead(a)[1] < 0:
        g = -g
    if g == 1:
        return 1, a
    return g, {e: c // g for e, c in a.items()}


def _pdiv_exact(a: Poly, b: Poly) -> Poly:
    """Exact polynomial division; raises if b does not divide a."""
    if len(b) == 1:
        eb, cb = next(iter(b.items()))
        out_m: Poly = {}
        for e, c in a.items():
            et = tuple(x - y for x, y in zip(e, eb))
            if any(x < 0 for x in et) or c % cb:
                raise ArithmeticError("inexact polynomial division")
            out_m[et] = c // cb
        return out_m
    rem = dict(a)
    eb, cb = _plead(b)
    out: Poly = {}
    while rem:
        ea, ca = _plead(rem)
        et = tuple(x - y for x, y in zip(ea, eb))
        if any(x < 0 for x in et) or ca % cb:
            raise ArithmeticError("inexact polynomial division")
        ct = ca // cb
        out[et] = ct
        for e, c in b.items():
            key = tuple(x + y for x, y in zip(et, e))
            s = rem.get(key, 0) - ct * c
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return out


def _deg_in(a: Poly, v: int) -> int:
    return max((e[v] for e in a), default=-1)


def _coeff_wrt(a: Poly, v: int, k: int) -> Poly:
    """Coefficient of x_v^k, as a polynomial with the v-slot zeroed."""
    out: Poly = {}
    for e, c in a.items():
        if e[v] == k:
            out[e[:v] + (0,) + e[v + 1:]] = c
    return out


def _prem(a: Poly, b: Poly, v: int) -> Poly:
    """Pseudo-remainder of a by b with respect to variable v."""
    db = _deg_in(b, v)
    lb = _coeff_wrt(b, v, db)
    rem = dict(a)
    width = len(next(iter(b)))
    while rem:
        da = _deg_in(rem, v)
        if da < db:
            break
        la = _coeff_wrt(rem, v, da)
        shift = (0,) * v + (da - db,) + (0,) * (width - v - 1)
        rem = _padd(_pmul(lb, rem), _pscale(_pmul({shift: 1}, _pmul(la, b)), -1))
    return rem


def _strip_content(out: list) -> list:
    g = math.gcd(*out)
    return [c // g for c in out] if g > 1 else out


def _dense_at(a: Poly, v: int, point) -> list:
    """Coefficients of a in x_v, lowest first, the other variables set to
    the integers in point (never read when a uses x_v only)."""
    out = [0] * (_deg_in(a, v) + 1)
    for e, c in a.items():
        for i, k in enumerate(e):
            if k and i != v:
                c *= point[i] ** k
        out[e[v]] += c
    return out


def _dense_gcd(x: list, y: list) -> list:
    """Primitive PRS over the integers on dense coefficient lists."""
    if len(x) < len(y):
        x, y = y, x
    x = _strip_content(x)
    y = _strip_content(y)
    while y:
        while y and y[-1] == 0:
            y.pop()
        if not y:
            break
        if len(y) == 1:
            return [1]
        while len(x) >= len(y):
            f = x[-1]
            if f:
                g = y[-1]
                d = math.gcd(f, g)
                mx, my = g // d, f // d
                if mx != 1:
                    x = [mx * c for c in x]
                off = len(x) - len(y)
                for i in range(len(y)):
                    x[off + i] -= my * y[i]
            x.pop()
        x, y = y, _strip_content(x)
    if x and x[-1] < 0:
        x = [-c for c in x]
    return x


def _coprime_certified(a: Poly, b: Poly, shared: set) -> bool:
    """True when integer images prove that gcd(a, b) is constant.

    For each shared variable v the other variables are set to a few fixed
    integers.  At a point where a keeps its degree in v, the leading
    coefficient of the gcd in v does not vanish either (it divides a's),
    so the gcd's image keeps its degree; a constant gcd of the images
    therefore proves degree 0 in v.  False means not proved, not coprime.
    """
    n = len(next(iter(a)))
    for v in shared:
        for k in range(3):
            point = [(3 + 2 * i) * (-2) ** k + k for i in range(n)]
            x = _dense_at(a, v, point)
            if x[-1] and len(_dense_gcd(x, _dense_at(b, v, point))) == 1:
                break
        else:
            return False
    return True


def _pgcd(a: Poly, b: Poly) -> Poly:
    """Gcd of the primitive parts of two nonzero polynomials, returned
    primitive with positive lc."""
    if _pis_const(a) or _pis_const(b):
        return _pone(len(next(iter(a))))
    if len(a) == 1 or len(b) == 1:
        # gcd with a monomial is the largest common monomial factor
        it = iter(list(a) + list(b))
        e = list(next(it))
        for exp in it:
            for i, x in enumerate(exp):
                if x < e[i]:
                    e[i] = x
        if not any(e):
            return _pone(len(e))
        return {tuple(e): 1}
    va, vb = _pvars(a), _pvars(b)
    both = va | vb
    v = min(both)
    if len(va) == 1 and va == vb:
        x = _dense_gcd(_dense_at(a, v, ()), _dense_at(b, v, ()))
        pad = (0,) * (len(next(iter(a))) - v - 1)
        return {(0,) * v + (i,) + pad: c for i, c in enumerate(x) if c}
    if _coprime_certified(a, b, va & vb):
        return _pone(len(next(iter(a))))
    ca, cb = _content_wrt(a, v), _content_wrt(b, v)
    cg = _pgcd(ca, cb)
    pa, pb = _pdiv_exact(a, ca), _pdiv_exact(b, cb)
    if _deg_in(pa, v) < _deg_in(pb, v):
        pa, pb = pb, pa
    while True:
        r = _prem(pa, pb, v)
        if not r:
            ppg = _primitive_wrt(pb, v)
            break
        if _deg_in(r, v) == 0:
            ppg = _pone(len(next(iter(a))))
            break
        pa, pb = pb, _primitive_wrt(r, v)
    return _pprimitive_int(_pmul(cg, ppg))[1]


def _content_wrt(a: Poly, v: int) -> Poly:
    coeffs = {}
    for e, c in a.items():
        key = e[v]
        sub = coeffs.setdefault(key, {})
        sub[e[:v] + (0,) + e[v + 1:]] = c
    g: Poly = {}
    for sub in coeffs.values():
        prim = _pprimitive_int(sub)[1]
        g = _pgcd(g, prim) if g else prim
        if _pis_const(g):
            break
    return g


def _primitive_wrt(a: Poly, v: int) -> Poly:
    return _pprimitive_int(_pdiv_exact(a, _content_wrt(a, v)))[1]


def _pjson(a: Poly, cont: Fraction) -> list:
    items = sorted(a.items(), reverse=True)
    return [{"coeff": str(cont * c), "exponents": list(e)} for e, c in items]


class PolyContext:
    """An ordered tuple of parameter names fixing the coefficient field;
    one object per tuple, kept for the life of the process."""

    __slots__ = ("names", "_nil", "zero", "one")
    _made: dict = {}

    def __new__(cls, names: tuple[str, ...] = ()):
        names = tuple(names)
        ctx = cls._made.get(names)
        if ctx is not None:
            return ctx
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names: {names}")
        ctx = super().__new__(cls)
        ctx.names = names
        ctx._nil = (0,) * len(names)
        unit = {ctx._nil: 1}
        ctx.zero = Scalar(ctx, 0, 1, {}, unit, True)
        ctx.one = Scalar(ctx, 1, 1, unit, unit, True)
        # Of two threads making the same context, both get the first one stored.
        return cls._made.setdefault(names, ctx)

    def __reduce__(self):
        return PolyContext, (self.names,)

    def __repr__(self):
        return f"PolyContext({self.names!r})"

    def _rational(self, cn: int, cd: int) -> "Scalar":
        """The constant cn/cd, given reduced with cd > 0; zero and one are
        the context's own objects."""
        if not cn:
            return self.zero
        one = self.one
        if cn == cd:
            return one
        return Scalar(self, cn, cd, one.num, one.num, True)

    def scalar(self, value) -> "Scalar":
        """Lift an int, Fraction, or Scalar into this context; a Scalar
        must be constant or come from a context whose names begin these."""
        if isinstance(value, Scalar):
            if value.ctx is self:
                return value
            if value.is_constant():
                return self._rational(value.cn, value.cd)
            k = len(value.ctx.names)
            if value.ctx.names != self.names[:k]:
                raise ValueError("parameter context mismatch")
            # Appending zero exponents preserves the canonical form.
            pad = self._nil[k:]
            return Scalar(self, value.cn, value.cd,
                          {e + pad: c for e, c in value.num.items()},
                          {e + pad: c for e, c in value.den.items()})
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"not an exact value: {value!r}")
        return self._rational(value.numerator, value.denominator)

    def var(self, name: str) -> "Scalar":
        i = self.names.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(self.names)))
        return Scalar(self, 1, 1, {e: 1}, {self._nil: 1})


class Scalar:
    """Canonical element of the rational function field of a PolyContext.

    Value = (cn / cd) * num / den.  The content cn / cd carries sign and
    rational scale as a reduced pair of Python ints (cd > 0, gcd 1; zero
    is 0 / 1), and num/den are coprime primitive integer polynomials with
    positive leading coefficients.  ``cont`` gives the content as a
    Fraction for callers at the boundary.
    """

    __slots__ = ("ctx", "cn", "cd", "num", "den", "_const")

    def __init__(self, ctx: PolyContext, cn: int, cd: int, num: Poly, den: Poly,
                 const: bool | None = None):
        # Trusted constructor: fields must already be canonical, and
        # ``const``, when given, must say whether num and den are constant.
        # Polynomial dicts are shared between Scalars and never mutated.
        self.ctx = ctx
        self.cn = cn
        self.cd = cd
        self.num = num
        self.den = den
        self._const = const

    @staticmethod
    def make(ctx: PolyContext, num: Poly, den: Poly, cont: Fraction = Fraction(1)) -> "Scalar":
        """Build a Scalar from an arbitrary integer num/den pair."""
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num or not cont:
            return ctx.zero
        kn, pn = _pprimitive_int(num)
        kd, pd = _pprimitive_int(den)
        g = _pgcd(pn, pd)
        if not _pis_const(g):
            pn = _pdiv_exact(pn, g)
            pd = _pdiv_exact(pd, g)
        cn = cont.numerator * kn
        cd = cont.denominator * kd
        if cd < 0:
            cn, cd = -cn, -cd
        g = math.gcd(cn, cd)
        return Scalar(ctx, cn // g, cd // g, pn, pd)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        const = self._const
        if const is None:
            const = self._const = _pis_const(self.num) and _pis_const(self.den)
        return const

    @property
    def cont(self) -> Fraction:
        """The rational content cn / cd as a Fraction."""
        return Fraction(self.cn, self.cd)

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.cont

    def is_integer(self) -> bool:
        return self.is_constant() and self.cd == 1

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.ctx is not self.ctx:
                raise ValueError("parameter context mismatch")
            return other
        return self.ctx.scalar(other)

    def __add__(self, other):
        if type(other) is not Scalar or other.ctx is not self.ctx:
            other = self._coerce(other)
        if not self.num:
            return other
        if not other.num:
            return self
        an, ad, bn, bd = self.cn, self.cd, other.cn, other.cd
        if self.is_constant() and other.is_constant():
            if ad == bd == 1:
                cn, cd = an + bn, 1
            else:
                # Over lcm(ad, bd); a common factor of the sum and the
                # lcm can only divide g = gcd(ad, bd).
                g = math.gcd(ad, bd)
                s = ad // g
                cn = an * (bd // g) + bn * s
                g = math.gcd(cn, g)
                cn, cd = cn // g, s * (bd // g)
            if not cn:
                return self.ctx.zero
            return Scalar(self.ctx, cn, cd, self.num, self.den, True)
        # Factor out the content gcd gn / gd = gcd(an, bn) / lcm(ad, bd),
        # leaving coprime integer multipliers fa and fb.
        gn = math.gcd(an, bn)
        gd = ad if ad == bd else ad // math.gcd(ad, bd) * bd
        fa = an // gn * (gd // ad)
        fb = bn // gn * (gd // bd)
        da, db = self.den, other.den
        # Build over the lcm denominator da * db / dg, dg = gcd(da, db);
        # any surviving common factor of the sum and the lcm divides dg,
        # so the sum needs a reduction only when dg is not constant.
        if da == db:
            num = _padd(_pscale(self.num, fa), _pscale(other.num, fb))
            den = dg = da
        else:
            dg = _pgcd(da, db)
            ea, eb = (da, db) if _pis_const(dg) else (_pdiv_exact(da, dg), _pdiv_exact(db, dg))
            num = _padd(_pscale(_pmul(self.num, eb), fa),
                        _pscale(_pmul(other.num, ea), fb))
            den = _pmul(da, eb)
        if not num:
            return self.ctx.zero
        if not _pis_const(dg):
            t = _pgcd(num, den)
            if not _pis_const(t):
                num = _pdiv_exact(num, t)
                den = _pdiv_exact(den, t)
        c, pn = _pprimitive_int(num)
        # gn and gd are coprime, so only c and gd can share a factor.
        g = math.gcd(c, gd)
        return Scalar(self.ctx, gn * c // g, gd // g, pn, den)

    __radd__ = __add__

    def __neg__(self):
        if not self.num:
            return self
        return Scalar(self.ctx, -self.cn, self.cd, self.num, self.den, self._const)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if type(other) is not Scalar or other.ctx is not self.ctx:
            other = self._coerce(other)
        # Scalars are immutable, so a product with the context's own one
        # object is the other factor itself.
        one = self.ctx.one
        if self is one:
            return other
        if other is one:
            return self
        if not self.num or not other.num:
            return self.ctx.zero
        an, ad, bn, bd = self.cn, self.cd, other.cn, other.cd
        if ad == bd == 1:
            cn, cd = an * bn, 1
        else:
            g1 = math.gcd(an, bd)
            g2 = math.gcd(bn, ad)
            cn, cd = (an // g1) * (bn // g2), (ad // g2) * (bd // g1)
        if other.is_constant():
            return Scalar(self.ctx, cn, cd, self.num, self.den, self._const)
        if self.is_constant():
            return Scalar(self.ctx, cn, cd, other.num, other.den, False)
        g1 = _pgcd(self.num, other.den)
        g2 = _pgcd(other.num, self.den)
        na = self.num if _pis_const(g1) else _pdiv_exact(self.num, g1)
        db = other.den if _pis_const(g1) else _pdiv_exact(other.den, g1)
        nb = other.num if _pis_const(g2) else _pdiv_exact(other.num, g2)
        da = self.den if _pis_const(g2) else _pdiv_exact(self.den, g2)
        return Scalar(self.ctx, cn, cd, _pmul(na, nb), _pmul(da, db))

    __rmul__ = __mul__

    def _inverse(self) -> "Scalar":
        # Swapping num and den keeps the canonical form.
        if not self.num:
            raise ZeroDivisionError("division by zero scalar")
        cn, cd = (self.cd, self.cn) if self.cn > 0 else (-self.cd, -self.cn)
        return Scalar(self.ctx, cn, cd, self.den, self.num, self._const)

    def __truediv__(self, other):
        return self * self._coerce(other)._inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self._inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self._inverse() ** (-k)
        if k == 0:
            return self.ctx.one
        if not self.num:
            return self
        return Scalar(self.ctx, self.cn ** k, self.cd ** k,
                      _ppow(self.num, k), _ppow(self.den, k))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # A constant has num = den = 1 (zero: num = {}, cn / cd = 0 / 1).
            return (self.is_constant() and self.cn == other.numerator
                    and self.cd == other.denominator)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.ctx is other.ctx and self.cn == other.cn and self.cd == other.cd
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        # A constant equals its int or Fraction, so it hashes like one.
        if self.is_constant():
            return hash(Fraction(self.cn, self.cd))
        return hash((self.ctx.names, self.cn, self.cd,
                     frozenset(self.num.items()), frozenset(self.den.items())))

    # -- structure -------------------------------------------------------

    def degree_in(self, name: str) -> int:
        """Degree of the numerator in a parameter; denominator must be free of it."""
        v = self.ctx.names.index(name)
        if _deg_in(self.den, v) > 0:
            raise ValueError(f"denominator involves {name}")
        return _deg_in(self.num, v)

    def coeff_of(self, name: str, k: int) -> "Scalar":
        """Coefficient of name**k, for scalars polynomial in that name."""
        v = self.ctx.names.index(name)
        if _deg_in(self.den, v) > 0:
            raise ValueError(f"denominator involves {name}")
        return Scalar.make(self.ctx, _coeff_wrt(self.num, v, k), dict(self.den), self.cont)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {"numer": _pjson(self.num, self.cont),
                "denom": _pjson(self.den, Fraction(1))}

    @staticmethod
    def from_json(ctx: PolyContext, obj: dict) -> "Scalar":
        def load(items) -> tuple[Fraction, Poly]:
            fr: dict = {}
            for t in items:
                e = tuple(t["exponents"])
                if len(e) != len(ctx.names):
                    raise ValueError("exponent arity does not match context")
                fr[e] = Fraction(t["coeff"])
            if not fr:
                return Fraction(1), {}
            den = math.lcm(*(c.denominator for c in fr.values()))
            return Fraction(1, den), {e: int(c * den) for e, c in fr.items()}

        cn, num = load(obj["numer"])
        cd, den = load(obj["denom"])
        return Scalar.make(ctx, num, den, cn / cd)

    def _int_pair(self) -> tuple[Poly, Poly]:
        """(num, den) display polys with the content multiplied through."""
        return _pscale(self.num, self.cn), _pscale(self.den, self.cd)

    def __str__(self):
        return render.text_scalar(self)

    __repr__ = __str__
