"""Field axioms and canonical form for exact rational functions."""

import copy
import math
import pickle
import sys
import threading
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from vermatools import verma
from vermatools.cli import parse_expression
from vermatools.liealg import HV, L, W, check_generator
from vermatools.pbw import HighestWeight, ModuleContext
from vermatools.scalar import (
    PolyContext, Scalar, _coprime_certified, _pdiv_exact, _pgcd, _pis_const)
from vermatools.tensor import IntermediateSeries, TensorSpace

CTX = PolyContext(("x", "y"))
X = CTX.var("x")
Y = CTX.var("y")

small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def polynomials(draw):
    """A small integer polynomial in x and y, possibly zero."""
    total = CTX.zero
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        coeff = draw(small_ints)
        ex = draw(st.integers(min_value=0, max_value=2))
        ey = draw(st.integers(min_value=0, max_value=2))
        total = total + CTX.scalar(coeff) * X ** ex * Y ** ey
    return total


@st.composite
def scalars(draw):
    """A rational function with a nonzero denominator."""
    num = draw(polynomials())
    den = draw(polynomials().filter(lambda p: not p.is_zero()))
    return num / den


@given(scalars(), scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + CTX.zero == a
    assert a * CTX.one == a
    assert (a - a).is_zero()


@given(scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_division_inverts_multiplication(a, b):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert (a / b) * b == a
        assert (a * b) / b == a


@given(scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_equality_is_canonical(a, b):
    """Equal values have one representation, so str agrees with ==."""
    assert (a == b) == (str(a) == str(b))
    if not b.is_zero():
        assert str((a * b) / b) == str(a)


@given(scalars())
@settings(max_examples=60, deadline=None)
def test_json_round_trip(a):
    assert Scalar.from_json(CTX, a.to_json()) == a


def test_a_foreign_value_is_unequal_and_a_context_reprs_its_names():
    assert (X == "x") is False and X != "x"
    assert repr(CTX) == "PolyContext(('x', 'y'))"


def test_fraction_arithmetic_embeds():
    vals = [Fraction(3, 7), Fraction(-2, 5), Fraction(11, 4)]
    for p in vals:
        for q in vals:
            assert (CTX.scalar(p) + CTX.scalar(q)).as_fraction() == p + q
            assert (CTX.scalar(p) * CTX.scalar(q)).as_fraction() == p * q
            assert (CTX.scalar(p) / CTX.scalar(q)).as_fraction() == p / q


def test_degree_and_coefficient_extraction():
    a = X ** 2 * Y + CTX.scalar(3) * X - Y ** 3
    assert a.degree_in("x") == 2
    assert a.degree_in("y") == 3
    assert a.coeff_of("x", 2) == Y
    assert a.coeff_of("x", 1) == CTX.scalar(3)
    assert a.coeff_of("x", 0) == -(Y ** 3)


def test_degree_in_rejects_denominator_parameters():
    a = CTX.one / X
    with pytest.raises(ValueError):
        a.degree_in("x")


def test_display_uses_parentheses_only_when_needed():
    assert str(CTX.scalar(6) / CTX.var("x")) == "6/x"
    assert str(CTX.scalar(3) / (CTX.scalar(4) * X)) == "3/(4*x)"
    assert str(CTX.one / X ** 2) == "1/x^2"
    assert str((X + CTX.one) / Y) == "(x + 1)/y"


# ---------------------------------------------------------------------------
# Oracle: sympy's rational functions, which share no code with scalar.py

# A recipe is a leaf, a list of (coeff, ex, ey) terms of a polynomial, or
# a node (op, left, right) with op one of + - * /.
recipes = st.recursive(
    st.lists(st.tuples(small_ints, st.integers(0, 2), st.integers(0, 2)),
             min_size=1, max_size=3),
    lambda kids: st.tuples(st.sampled_from("+-*/"), kids, kids),
    max_leaves=5)


def build(recipe, sympy, x, y):
    """The recipe's value as a Scalar and as a sympy expression.  A division
    by what sympy calls zero is skipped, keeping the dividend."""
    if isinstance(recipe, list):
        s, e = CTX.zero, sympy.Integer(0)
        for c, ex, ey in recipe:
            s = s + CTX.scalar(c) * X ** ex * Y ** ey
            e = e + c * x ** ex * y ** ey
        return s, e
    op, left, right = recipe
    (a, ea), (b, eb) = build(left, sympy, x, y), build(right, sympy, x, y)
    if op == "+":
        return a + b, ea + eb
    if op == "-":
        return a - b, ea - eb
    if op == "*":
        return a * b, ea * eb
    if sympy.cancel(eb) == 0:
        return a, ea
    return a / b, ea / eb


@given(recipes, recipes)
@settings(max_examples=60, deadline=None)
def test_canonical_form_matches_sympy(r1, r2):
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")

    def poly(p):
        return sum((c * x ** e[0] * y ** e[1] for e, c in p.items()), sympy.Integer(0))

    (a, ea), (b, eb) = build(r1, sympy, x, y), build(r2, sympy, x, y)
    for s, e in ((a, ea), (b, eb)):
        num, den = poly(s.num), poly(s.den)
        assert sympy.gcd(num, den).is_number
        cont = sympy.Rational(s.cont.numerator, s.cont.denominator)
        assert sympy.cancel(cont * num / den - e) == 0
        assert sympy.cancel(sympy.sympify(str(s).replace("^", "**")) - e) == 0
    assert (a == b) == (sympy.cancel(ea - eb) == 0)
    assert (a + b) - b == a
    if sympy.cancel(eb) != 0:
        assert (a * b) / b == a
        assert hash((a * b) / b) == hash(a)


# ---------------------------------------------------------------------------
# Constant fast paths: Fraction arithmetic is the oracle

Q = PolyContext(())
small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=7)

# A constant recipe is an int or Fraction leaf, or (op, left, right, flag);
# the flag picks which operand is lifted to a Scalar when both are plain.
constant_recipes = st.recursive(
    st.one_of(small_ints, small_fractions),
    lambda kids: st.tuples(st.sampled_from("+-*/"), kids, kids, st.booleans()),
    max_leaves=8)

OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
       "*": lambda a, b: a * b, "/": lambda a, b: a / b}


def evaluate(recipe, ctx, check):
    """(value, Fraction value); a node's value is a Scalar, a leaf's is plain.
    A division by zero keeps the dividend.  ``check`` sees every result."""
    if not isinstance(recipe, tuple):
        return recipe, Fraction(recipe)
    op, left, right, lift_left = recipe
    (a, fa), (b, fb) = evaluate(left, ctx, check), evaluate(right, ctx, check)
    if not isinstance(a, Scalar) and not isinstance(b, Scalar):
        if lift_left:
            a = ctx.scalar(a)
        else:
            b = ctx.scalar(b)
    if op == "/" and not fb:
        return ctx.scalar(a), fa
    value = OPS[op](a, b)
    check(value)
    return value, OPS[op](fa, fb)


@given(constant_recipes)
@settings(max_examples=200, deadline=None)
def test_constant_arithmetic_matches_fractions(recipe):
    def check(s):
        f = s.as_fraction()
        assert s.is_constant()
        assert s == Q.scalar(f)
        assert hash(s) == hash(Q.scalar(f))
        assert -s == Q.scalar(-f)

    value, expected = evaluate(recipe, Q, check)
    assert Q.scalar(value) == Q.scalar(expected)
    assert Q.scalar(value).as_fraction() == expected


QX = PolyContext(("x",))
XX = QX.var("x")

# Leaves are small polynomials in x, so quotients often cancel to constants.
x_recipes = st.recursive(
    st.lists(st.tuples(small_ints, st.integers(0, 1)), min_size=1, max_size=2),
    lambda kids: st.tuples(st.sampled_from("+-*/"), kids, kids),
    max_leaves=6)


@given(x_recipes)
@settings(max_examples=200, deadline=None)
def test_cached_constness_matches_the_polynomials(recipe):
    def check(s):
        for t in (s, -s):
            assert t.is_constant() == (_pis_const(t.num) and _pis_const(t.den))

    def run(r):
        if isinstance(r, list):
            value = sum((QX.scalar(c) * XX ** e for c, e in r), QX.zero)
        else:
            op, left, right = r
            a, b = run(left), run(right)
            if op == "/" and b.is_zero():
                return a
            value = OPS[op](a, b)
        check(value)
        return value

    run(recipe)


def test_lift_into_a_context_extending_the_names():
    """A Q(hW) function lifted into Q(hW, n, F) equals the same expression
    built there; a context whose names do not begin the target's raises."""
    small, big = PolyContext(("hW",)), PolyContext(("hW", "n", "F"))

    def expr(ctx):
        hW = ctx.var("hW")
        return (hW * hW * 3 - Fraction(1, 2)) / (hW * 4 + 7) + Fraction(5, 3)

    assert big.scalar(expr(small)) == expr(big)
    assert big.scalar(small.scalar(Fraction(-2, 9))) == big.scalar(Fraction(-2, 9))
    for target, value in ((PolyContext(("n",)), expr(small)),
                          (PolyContext(("n", "hW")), expr(small)),
                          (small, expr(big)),
                          (PolyContext(("hW", "F")), big.var("F"))):
        with pytest.raises(ValueError, match="parameter context mismatch"):
            target.scalar(value)


# ---------------------------------------------------------------------------
# Units: a product with the context's one is the other factor itself

QH = PolyContext(("hW",))


@pytest.mark.parametrize("ctx", [Q, QH], ids=["Q", "Q(hW)"])
def test_product_with_one_is_the_other_factor(ctx):
    values = [ctx.zero, ctx.one, -ctx.one, ctx.scalar(Fraction(-3, 7))]
    if ctx.names:
        hW = ctx.var("hW")
        values += [hW, (hW * hW - 2) / (hW * 3 + 1)]
    for x in values:
        assert x * ctx.one is x
        assert ctx.one * x is x
    assert ctx.one * 5 == ctx.scalar(5) and 5 * ctx.one == ctx.scalar(5)
    assert ctx.one * Fraction(2, 3) == ctx.scalar(Fraction(2, 3))


@pytest.mark.parametrize("ctx", [Q, QH], ids=["Q", "Q(hW)"])
def test_lifting_a_value_equal_to_one_gives_the_unit(ctx):
    for value in (1, Fraction(1), Fraction(3, 3), True, PolyContext(("z",)).one):
        assert ctx.scalar(value) is ctx.one
    assert ctx.scalar(0) is ctx.zero and ctx.scalar(Fraction(0, 5)) is ctx.zero
    assert ctx.scalar(-1) is not ctx.one


@pytest.mark.parametrize("value", [0.1, "1/3", Decimal("0.5")], ids=["float", "str", "Decimal"])
def test_inexact_values_are_refused(value):
    """Only ints, Fractions and Scalars lift: a float would enter as its
    binary fraction and be classified at a value no one wrote."""
    with pytest.raises(TypeError, match="not an exact value"):
        QH.scalar(value)
    with pytest.raises(TypeError, match="not an exact value"):
        HighestWeight.w22(Q, c=value, h=0, hW=1)
    with pytest.raises(TypeError, match="not an exact value"):
        IntermediateSeries.make(Q, value, 0)


# ---------------------------------------------------------------------------
# One context per tuple of names


def test_a_names_tuple_makes_one_context():
    """A context made again from the same names is the same object: values
    built on it equal, hash like and lift to themselves in the first, and
    a series built on it keeps its values in a tensor space's module."""
    assert PolyContext(("h", "hW")) is PolyContext(["h", "hW"])
    assert PolyContext() is PolyContext(()) is PolyContext([])
    with pytest.raises(ValueError, match="duplicate parameter names"):
        PolyContext(("h", "h"))

    def values(ctx):
        out = [ctx.zero, ctx.one, ctx.scalar(Fraction(-3, 7))]
        if ctx.names:
            hW = ctx.var("hW")
            out += [hW, (hW * hW - 2) / (hW * 3 + 1)]
        return out

    for ctx in (Q, QH):
        for v, w in zip(values(PolyContext(list(ctx.names))), values(ctx)):
            assert v == w and hash(v) == hash(w) and v.ctx is ctx
            assert ctx.scalar(v) is v
    M = ModuleContext(HighestWeight.w22(PolyContext(("x",)), c=1, h=0, hW=1))
    x = PolyContext(["x"]).var("x")
    series = IntermediateSeries.make(x.ctx, x / 3, Fraction(1, 2), x + 1)
    space = TensorSpace(M, series)
    assert space.series == series
    for v in (space.series.alpha, space.series.beta, space.series.F):
        assert v.ctx is M.scalar_ctx


def test_threads_making_a_context_get_one_object():
    """Eight threads make the same new contexts at once, with thread
    switches forced often; each names tuple still yields one object."""
    tuples = [("thread_a", f"thread_{i}") for i in range(40)]
    start = threading.Barrier(8, timeout=10)
    seen = [None] * 8

    def make(k):
        start.wait()
        seen[k] = [PolyContext(names) for names in tuples]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=make, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, names in enumerate(tuples):
        assert all(made[i] is PolyContext(names) for made in seen)


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_copies_of_a_context_are_the_context(how):
    """Without __reduce__ a copy would be made by PolyContext.__new__(cls),
    which hands back the empty context, and then overwrite its fields."""
    empty = PolyContext(())
    zero, one = empty.zero, empty.one
    for ctx in (PolyContext(("h", "hW")), QH, empty):
        if how == "pickle":
            twin = pickle.loads(pickle.dumps(ctx))
        else:
            twin = getattr(copy, how)(ctx)
        assert twin is ctx
    assert empty.names == () and empty.zero is zero and empty.one is one
    assert (empty.zero.num, empty.one.num, empty.one.den) == ({}, {(): 1}, {(): 1})


def test_pickled_scalar_loads_equal():
    hW = QH.var("hW")
    for x in ((hW * hW - 2) / (hW * 3 + 1) * Fraction(5, 7), hW, QH.scalar(-3), X / (Y + 1)):
        y = pickle.loads(pickle.dumps(x))
        assert y == x and hash(y) == hash(x) and y.ctx is x.ctx
        assert y * x.ctx.one is y


def test_scalars_of_other_names_do_not_mix():
    hW, z = QH.var("hW"), PolyContext(("z",)).var("z")
    for op in (lambda a, b: a + b, lambda a, b: a * b):
        with pytest.raises(ValueError, match="parameter context mismatch"):
            op(hW, z)
        with pytest.raises(ValueError, match="parameter context mismatch"):
            op(hW, X)
    M = ModuleContext(HighestWeight.w22(QH, c=1, h=0, hW=hW))
    series = IntermediateSeries.make(z.ctx, z, 0)
    with pytest.raises(ValueError, match="parameter context mismatch"):
        TensorSpace(M, series)


# A unit recipe is one of the special scalars, a lifted int or a plain
# int or Fraction; the operator is applied with Fraction as the oracle.
unit_operands = st.one_of(st.sampled_from(["one", "-one", "zero"]),
                          st.tuples(st.just("lift"), small_ints),
                          small_ints, small_fractions)


def unit_value(ctx, operand):
    """(operand as passed to the operator, its Fraction value)."""
    if operand == "one":
        return ctx.one, Fraction(1)
    if operand == "-one":
        return -ctx.one, Fraction(-1)
    if operand == "zero":
        return ctx.zero, Fraction(0)
    if isinstance(operand, tuple):
        return ctx.scalar(operand[1]), Fraction(operand[1])
    return operand, Fraction(operand)


@given(st.sampled_from([Q, QH]), unit_operands, unit_operands, st.integers(-3, 3))
@settings(max_examples=300, deadline=None)
def test_units_and_lifted_ints_match_fractions(ctx, left, right, k):
    (a, fa), (b, fb) = unit_value(ctx, left), unit_value(ctx, right)
    if not isinstance(a, Scalar):
        a, b, fa, fb = b, a, fb, fa
    if not isinstance(a, Scalar):
        a = ctx.scalar(a)
    for x, y in ((a, b), (b, a)):
        fx, fy = (fa, fb) if x is a else (fb, fa)
        for op in "+-*":
            assert OPS[op](x, y).as_fraction() == OPS[op](fx, fy)
        if fy:
            assert OPS["/"](x, y).as_fraction() == fx / fy
        assert (x == y) == (fx == fy) and (x != y) == (fx != fy)
    assert (-a).as_fraction() == -fa
    assert (a == fb) == (fa == fb) and (a != fb) == (fa != fb)
    if fa or k >= 0:
        assert (a ** k).as_fraction() == fa ** k
    assert hash(a) == hash(ctx.scalar(fa))


# ---------------------------------------------------------------------------
# The multivariate gcd against sympy, which shares no code with it

XYZ = ("x", "y", "z")


@st.composite
def int_polys(draw, nvars):
    """A nonzero integer polynomial dict in nvars variables."""
    terms = draw(st.lists(st.tuples(st.integers(-5, 5).filter(bool),
                                    st.tuples(*[st.integers(0, 2)] * nvars)),
                          min_size=1, max_size=4))
    poly: dict = {}
    for c, e in terms:
        poly[e] = poly.get(e, 0) + c
    poly = {e: c for e, c in poly.items() if c}
    assume(poly)
    return poly


def mul(a, b):
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


@given(st.data(), st.integers(2, 3), st.booleans())
@settings(max_examples=80, deadline=None)
def test_gcd_matches_sympy(data, nvars, planted):
    """With a planted nonconstant common factor the coprimality certificate
    must fail and the pseudo-remainder sequence decide."""
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(XYZ[:nvars])
    a, b = data.draw(int_polys(nvars)), data.draw(int_polys(nvars))
    if planted:
        f = data.draw(int_polys(nvars).filter(lambda p: not _pis_const(p)))
        a, b = mul(a, f), mul(b, f)

    def expr(p):
        return sum((c * sympy.prod([g ** k for g, k in zip(gens, e)]) for e, c in p.items()),
                   sympy.Integer(0))

    ea, eb = expr(a), expr(b)
    ours = expr(_pgcd(a, b))
    theirs = sympy.gcd(ea, eb)
    assert sympy.cancel(ours / theirs).is_number
    va = {i for e in a for i, k in enumerate(e) if k}
    vb = {i for e in b for i, k in enumerate(e) if k}
    if _coprime_certified(a, b, va & vb):
        assert theirs.is_number
    if planted:
        assert not theirs.is_number


def test_coprime_sum_over_a_shared_denominator_is_fast():
    """A sum over one denominator in three symbols cancels through the gcd;
    the pseudo-remainder sequence alone took seconds here."""
    sympy = pytest.importorskip("sympy")
    text = ("(hW+h+2*c+1)**6/(hW+h+c+2)**6"
            " + (hW+h+c+1)**6/(hW+h+c+2)**6")
    value = parse_expression(text, PolyContext(("c", "h", "hW")))
    expected = sympy.cancel(sympy.sympify(text))
    assert sympy.cancel(sympy.sympify(str(value).replace("^", "**")) - expected) == 0
    num, den = sympy.fraction(expected)
    assert sympy.Poly(den).total_degree() == 6


@pytest.mark.parametrize("left,right", [
    ("(y + 1)**2 * (y - 3)", "(y + 1) * (y - 3) * (x*y + 2)"),
    ("(y + 1) * (z - y)", "(z - y) * (x**2 + y*z) * (x - z)"),
    ("2*y**2 + 2", "(x + 1) * (x*y + z)"),
])
def test_gcd_with_an_operand_free_of_the_first_variable(left, right):
    """left lacks x, the smallest variable of right: the gcd is that of
    left with the content of right in x, in either order."""
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(XYZ)

    def poly(text):
        return {m: int(c) for m, c in sympy.Poly(sympy.sympify(text), *gens).terms()}

    expected = sympy.gcd(sympy.sympify(left), sympy.sympify(right))
    for a, b in ((left, right), (right, left)):
        g = _pgcd(poly(a), poly(b))
        assert g in (poly(expected), poly(-expected))


def test_gcd_whose_leading_coefficients_vanish_at_the_trial_points():
    """g's leading coefficient in x vanishes at y = 5, -9, 22 and in y at
    x = 3, -5, 14, the values _coprime_certified tries, so every image of
    g there is 1 and only the degree test keeps the certificate sound."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    g = (y - 5) * (y + 9) * (y - 22) * x * (x - 3) * (x + 5) * (x - 14) + 1

    def poly(e):
        return {m: int(c) for m, c in sympy.Poly(sympy.expand(e), x, y).terms()}

    a, b = poly(g * (x + y + 1)), poly(g * (x - y + 2))
    assert not _coprime_certified(a, b, {0, 1})
    assert _pgcd(a, b) == poly(g)


# ---------------------------------------------------------------------------
# Canonical content: every Scalar carries a reduced pair of ints cn / cd

BIG = 2 ** 200
big_ints = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))
big_fractions = st.builds(Fraction, big_ints, st.one_of(st.integers(1, 6), st.integers(1, BIG)))


def canonical(s):
    assert s.cd > 0 and math.gcd(s.cn, s.cd) == 1
    assert s.is_zero() == (s.cn == 0)
    assert s.cont == Fraction(s.cn, s.cd)
    return s


@st.composite
def operands(draw, ctx):
    """A constant, or over Q(x, y) often a quotient of small polynomials
    with a large content, built by ``Scalar.make``."""
    f = draw(big_fractions)
    if not ctx.names or draw(st.booleans()):
        return canonical(ctx.scalar(f))
    num, den = draw(int_polys(2)), draw(int_polys(2))
    return canonical(Scalar.make(ctx, num, den, f))


@given(st.sampled_from([Q, CTX]), st.data(), big_fractions, st.integers(-3, 3))
@settings(max_examples=150, deadline=None)
def test_content_is_a_reduced_int_pair(ctx, data, f, k):
    """Every result is canonical, and equal values reached by different
    routes are equal and hash equal; operands reach 2**200."""
    a, b = data.draw(operands(ctx)), data.draw(operands(ctx))
    same = [(a + b, b + a), (a - b, -(b - a)), (a * b, b * a), (a + a, a * 2),
            (a + f, ctx.scalar(f) + a), (a - f, -(f - a)), (a * f, f * a),
            (Scalar.from_json(ctx, a.to_json()), a), (-(-a), a), (a ** 2, a * a)]
    if not a.is_zero():
        same += [(a ** k, a ** (k + 1) / a), (a ** -1, 1 / a), (a / a, ctx.one)]
    if not b.is_zero():
        same += [((a * b) / b, a), (a / b, a * b ** -1)]
    if f:
        same += [(a / f, a * (1 / ctx.scalar(f))), (f / ctx.scalar(f), ctx.one)]
    if a.is_constant():
        same.append((ctx.scalar(a.as_fraction()), a))
    for x, y in same:
        canonical(x), canonical(y)
        assert x == y and hash(x) == hash(y)


@given(st.sampled_from([Q, QH]),
       st.one_of(st.sampled_from([0, 1, 2 ** 100, -2 ** 100]), st.integers(), big_fractions))
@settings(max_examples=150, deadline=None)
def test_constant_hashes_like_its_value(ctx, v):
    """A constant Scalar equals its int or Fraction, so it hashes the same
    and is found in a set by that value."""
    s = ctx.scalar(v)
    assert s == v and hash(s) == hash(v)
    assert v in {s} and s in {v}


_TWISTED = HighestWeight.hv(Q, cL=1, cLI=2, h=3, hI=6)


@pytest.mark.parametrize("call,error,message", [
    (lambda: Scalar.make(Q, {(): 1}, {}), ZeroDivisionError, "zero denominator"),
    (lambda: X.as_fraction(), ValueError, "not a constant: x"),
    (lambda: (1 / X).degree_in("x"), ValueError, "denominator involves x"),
    (lambda: (Y / X).coeff_of("x", 0), ValueError, "denominator involves x"),
    (lambda: Scalar.from_json(CTX, {"numer": [{"coeff": "1", "exponents": [1]}],
                                    "denom": [{"coeff": "1", "exponents": [0, 0]}]}),
     ValueError, "exponent arity does not match context"),
    # x / y by a monomial divisor, and x / (x + 1) by long division
    (lambda: _pdiv_exact({(1, 0): 1}, {(0, 1): 1}), ArithmeticError,
     "inexact polynomial division"),
    (lambda: _pdiv_exact({(1, 0): 1}, {(1, 0): 1, (0, 0): 1}), ArithmeticError,
     "inexact polynomial division"),
    (lambda: check_generator(W(1), HV), ValueError, "generator W(1) does not belong to algebra hv"),
    (lambda: _TWISTED.eigenvalue(L(-1)), ValueError,
     "L(-1) has no eigenvalue on the highest weight vector"),
    (lambda: verma.subsingular_r1_recursive(ModuleContext(_TWISTED), 2), ValueError,
     "the recursion applies to W(2,2) weights"),
], ids=["make-zero-denominator", "as-fraction", "degree-in", "coeff-of", "json-arity",
        "pdiv-monomial", "pdiv-long", "check-generator", "eigenvalue",
        "r1-recursion-twisted"])
def test_library_refusals(call, error, message):
    """Refusals that only a direct library call reaches, with their full text."""
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
