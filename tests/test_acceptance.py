"""End-to-end acceptance checks.

Each test covers one numbered criterion, asserts exact scalar equality
(never floating point), and enforces the stated runtime budget.  The
expected singular and subsingular vectors are frozen here explicitly so
a regression in any layer of the computation is caught against known
displays rather than against the code's own output.
"""

import random
import time
from fractions import Fraction

from vermatools import tensor, verma
from vermatools.pbw import HighestWeight, ModuleContext, PBWMonomial
from vermatools.scalar import PolyContext
from vermatools.tensor import IntermediateSeries, cyclicity_check, decide_tensor


def _stamp(num, elapsed, budget):
    assert elapsed < budget, f"criterion {num}: {elapsed:.1f}s over budget {budget}s"
    print(f"criterion {num:02d}: pass ({elapsed:.2f}s)")


def degenerate_module(p):
    """V(-24 hW / (p^2 - 1), 0, hW) over the field Q(hW), for p >= 2."""
    ctx = PolyContext(("hW",))
    hW = ctx.var("hW")
    hw = HighestWeight.w22(ctx, c=hW * Fraction(-24, p * p - 1), h=0, hW=hW)
    return ModuleContext(hw)


def r_one_module(p):
    """The module carrying the level-p singular vector for r = 1."""
    if p == 1:
        ctx = PolyContext(("c",))
        hw = HighestWeight.w22(ctx, c=ctx.var("c"), h=0, hW=0)
    else:
        ctx = PolyContext(("hW",))
        hW = ctx.var("hW")
        hw = HighestWeight.w22(ctx, c=hW * Fraction(-24, p * p - 1),
                               h=verma.necessary_h(p, 1, hW), hW=hW)
    return ModuleContext(hw)


def build(M, rows):
    out = M.zero()
    for (w, l), coeff in rows:
        out = out + M.monomial_vector(w=w, l=l).scaled(coeff)
    return out


def test_criterion_01_singular_vector_table():
    """Levels 1 through 5 of the W-side singular vector u'."""
    started = time.perf_counter()

    ctx1 = PolyContext(("c",))
    M1 = ModuleContext(HighestWeight.w22(ctx1, c=ctx1.var("c"), h=0, hW=0))
    assert verma.u_prime(M1, 1) == M1.monomial_vector(w=(1,))

    expected = {}
    M = {p: degenerate_module(p) for p in (2, 3, 4, 5)}
    for p in (2, 3, 4, 5):
        ctx = M[p].scalar_ctx
        hW = ctx.var("hW")
        q = lambda a, b=1: ctx.scalar(Fraction(a, b))
        if p == 2:
            rows = [(((2,), ()), ctx.one),
                    (((1, 1), ()), q(-3, 4) / hW)]
        elif p == 3:
            rows = [(((3,), ()), ctx.one),
                    (((2, 1), ()), q(-2) / hW),
                    (((1, 1, 1), ()), q(1) / hW ** 2)]
        elif p == 4:
            rows = [(((4,), ()), ctx.one),
                    (((3, 1), ()), q(-5, 2) / hW),
                    (((2, 2), ()), q(-15, 16) / hW),
                    (((2, 1, 1), ()), q(125, 32) / hW ** 2),
                    (((1, 1, 1, 1), ()), q(-375, 256) / hW ** 3)]
        else:
            rows = [(((5,), ()), ctx.one),
                    (((4, 1), ()), q(-3) / hW),
                    (((3, 2), ()), q(-2) / hW),
                    (((3, 1, 1), ()), q(21, 4) / hW ** 2),
                    (((2, 2, 1), ()), q(4) / hW ** 2),
                    (((2, 1, 1, 1), ()), q(-15, 2) / hW ** 3),
                    (((1,) * 5, ()), q(9, 4) / hW ** 4)]
        expected[p] = build(M[p], rows)

    for p in (2, 3, 4, 5):
        assert verma.u_prime(M[p], p) == expected[p], f"u' mismatch at p={p}"

    _stamp(1, time.perf_counter() - started, 5.0)


def test_criterion_02_r_one_subsingular_table():
    """The four singular vectors with a single L factor column (r = 1)."""
    started = time.perf_counter()

    expected = {}
    M = {p: r_one_module(p) for p in (1, 2, 3, 4)}
    expected[1] = M[1].monomial_vector(l=(1,))
    for p in (2, 3, 4):
        ctx = M[p].scalar_ctx
        hW = ctx.var("hW")
        q = lambda a, b=1: ctx.scalar(Fraction(a, b))
        if p == 2:
            rows = [(((), (2,)), ctx.one),
                    (((1,), (1,)), q(-3, 2) / hW),
                    (((1, 1), ()), (hW * 12 + q(39)) / (hW ** 2 * 16))]
        elif p == 3:
            rows = [(((), (3,)), ctx.one),
                    (((1,), (2,)), q(-2) / hW),
                    (((2,), (1,)), q(-2) / hW),
                    (((1, 1), (1,)), q(3) / hW ** 2),
                    (((2, 1), ()), (hW * 6 + q(52)) / (hW ** 2 * 3)),
                    (((1, 1, 1), ()), -(hW * 6 + q(52)) / (hW ** 3 * 3))]
        else:
            rows = [(((), (4,)), ctx.one),
                    (((1,), (3,)), q(-5, 2) / hW),
                    (((2,), (2,)), q(-15, 8) / hW),
                    (((1, 1), (2,)), q(125, 32) / hW ** 2),
                    (((3,), (1,)), q(-5, 2) / hW),
                    (((2, 1), (1,)), q(125, 16) / hW ** 2),
                    (((1, 1, 1), (1,)), q(-375, 64) / hW ** 3),
                    (((3, 1), ()), (hW * 20 + q(325)) / (hW ** 2 * 8)),
                    (((2, 1, 1), ()), -(hW * 500 + q(8125)) / (hW ** 3 * 64)),
                    (((2, 2), ()), (hW * 60 + q(975)) / (hW ** 2 * 64)),
                    (((1, 1, 1, 1), ()), q(73125, 1024) / hW ** 4 + q(1125, 256) / hW ** 3)]
        expected[p] = build(M[p], rows)

    for p in (1, 2, 3, 4):
        u = verma.subsingular(M[p], p, 1)
        assert u == expected[p], f"r=1 row mismatch at p={p}"
        assert verma.subsingular_r1_recursive(M[p], p) == u

    # the named coefficient from the level-2 row
    coeff = expected[2].coeff(PBWMonomial.make(w=(1, 1)))
    ctx2 = M[2].scalar_ctx
    hW2 = ctx2.var("hW")
    assert coeff == (hW2 * 12 + ctx2.scalar(39)) / (hW2 ** 2 * 16)

    _stamp(2, time.perf_counter() - started, 10.0)


def test_criterion_03_half_integer_weight_table():
    """Subsingular vectors of V(c, (1-r)/2, 0) for r = 1..5."""
    started = time.perf_counter()

    ctx = PolyContext(("c",))
    c = ctx.var("c")
    q = lambda a, b=1: ctx.scalar(Fraction(a, b))
    tables = {
        1: [(((), (1,)), ctx.one)],
        2: [(((), (1, 1)), ctx.one),
            (((2,), ()), q(6) / c)],
        3: [(((), (1, 1, 1)), ctx.one),
            (((3,), ()), q(12) / c),
            (((2,), (1,)), q(24) / c)],
        4: [(((), (1,) * 4), ctx.one),
            (((4,), ()), q(36) / c),
            (((3,), (1,)), q(60) / c),
            (((2, 2), ()), q(324) / c ** 2),
            (((2,), (1, 1)), q(60) / c)],
        5: [(((), (1,) * 5), ctx.one),
            (((5,), ()), q(144) / c),
            (((4,), (1,)), q(216) / c),
            (((3, 2), ()), q(2304) / c ** 2),
            (((3,), (1, 1)), q(180) / c),
            (((2, 2), (1,)), q(2304) / c ** 2),
            (((2,), (1, 1, 1)), q(120) / c)],
    }
    for r in range(1, 6):
        hw = HighestWeight.w22(ctx, c=c, h=Fraction(1 - r, 2), hW=0)
        M = ModuleContext(hw)
        u = verma.subsingular(M, 1, r)
        assert u == build(M, tables[r]), f"table row mismatch at r={r}"

    _stamp(3, time.perf_counter() - started, 30.0)


def test_criterion_04_level_four_display():
    """The p = r = 2 subsingular vector in V(-8 hW, hW + 5/4, hW)."""
    started = time.perf_counter()

    ctx = PolyContext(("hW",))
    hW = ctx.var("hW")
    hw = HighestWeight.w22(ctx, c=hW * (-8), h=hW + Fraction(5, 4), hW=hW)
    M = ModuleContext(hw)
    q = lambda a, b=1: ctx.scalar(Fraction(a, b))
    rows = [
        (((), (2, 2)), ctx.one),
        (((4,), ()), q(-3, 4) / hW),
        (((3, 1), ()), -(hW * 3 + q(3)) / (hW ** 2 * 2)),
        (((3,), (1,)), q(3, 2) / hW),
        (((1,), (3,)), q(-3, 2) / hW),
        (((1,), (2, 1)), q(-3) / hW),
        (((1, 1), (2,)), (hW * 12 + q(39)) / (hW ** 2 * 8)),
        (((1, 1), (1, 1)), q(9, 4) / hW ** 2),
        (((1, 1, 1), (1,)), -(hW * 36 + q(117)) / (hW ** 3 * 16)),
        (((1, 1, 1, 1), ()), (hW ** 2 * 144 + hW * 936 + q(1197)) / (hW ** 4 * 256)),
    ]
    expected = build(M, rows)
    u = verma.subsingular(M, 2, 2)
    assert u == expected
    assert len(u.terms) == len(rows)

    _stamp(4, time.perf_counter() - started, 30.0)


def test_criterion_05_no_vector_off_the_necessary_weight():
    """Off the unique admissible h the linear system is inconsistent."""
    started = time.perf_counter()

    rng = random.Random(424242)
    deltas = [Fraction(1, 3), Fraction(-2), Fraction(1)]
    while len(deltas) < 5:
        d = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        if d != 0 and d not in deltas:
            deltas.append(d)

    for p in (1, 2):
        for r in (1, 2):
            for delta in deltas:
                if p == 1:
                    ctx = PolyContext(("c",))
                    hw = HighestWeight.w22(
                        ctx, c=ctx.var("c"),
                        h=verma.necessary_h(1, r, Fraction(0)) + delta, hW=0)
                else:
                    ctx = PolyContext(("hW",))
                    hW = ctx.var("hW")
                    hw = HighestWeight.w22(
                        ctx, c=hW * Fraction(-8),
                        h=verma.necessary_h(2, r, hW) + delta, hW=hW)
                M = ModuleContext(hw)
                assert verma.subsingular(M, p, r) is None, \
                    f"unexpected vector at (p, r, delta)=({p}, {r}, {delta})"

    _stamp(5, time.perf_counter() - started, 60.0)


def test_criterion_06_character_identities():
    """Series identities to q^20 and basis counts against coefficients."""
    started = time.perf_counter()

    ctx = PolyContext(())
    hw = HighestWeight.w22(ctx, c=1, h=0, hW=2)
    p2 = verma.pair_partition_count
    for p, r in ((1, 1), (1, 2), (2, 1), (2, 2)):
        jp, lp, v = (verma.char_j_prime(hw, p, 20), verma.char_l_prime(hw, p, 20),
                     verma.char_verma(hw, 20))
        assert jp.offset - p == lp.offset == v.offset
        assert [a + b for a, b in zip((0,) * p + jp.coeffs, lp.coeffs)] == list(v.coeffs)
        lchar = verma.char_l(hw, p, r, 20)
        for k in range(21):
            direct = p2(k) - p2(k - p) - p2(k - r * p) + p2(k - p - r * p)
            assert lchar.coeffs[k] == direct
        for k in range(13):
            assert sum(p not in m.w and m.l.count(p) < r
                       for m in verma.weight_space_basis(k)) == lchar.coeffs[k]

    _stamp(6, time.perf_counter() - started, 10.0)


def _sample_indices(p, r, t, s):
    """Probe indices: the integral break 1 - p - t, the cascade-source
    break of a primed series, and two generic points."""
    picks = []
    if t is not None and t.denominator == 1:
        picks.append(1 - p - int(t))
    if s.is_reducible_series():
        picks.append(s.excluded_index() - r * p + 1)
    picks.extend([2, -3])
    return picks[:4]


def test_criterion_07_decision_matches_truncated_chains():
    """decide_tensor against cyclicity_check over a weight and series grid.

    When the second factor carries a subsingular vector the chain is
    cyclic at n exactly when the elimination product is nonzero at n and
    the cascade source v_{n + rp - 1} exists in the (possibly primed)
    series; without the subsingular vector no index is cyclic."""
    started = time.perf_counter()

    ctx = PolyContext(())
    weights = {
        "irr": HighestWeight.w22(ctx, c=1, h=3, hW=5),
        "uponly": HighestWeight.w22(ctx, c=1, h=7, hW=Fraction(-1, 8)),
        "sub": HighestWeight.w22(ctx, c=1,
                                 h=verma.necessary_h(2, 1, Fraction(-1, 8)),
                                 hW=Fraction(-1, 8)),
        "vacuum": HighestWeight.w22(ctx, c=1, h=0, hW=0),
    }
    pr = {"sub": (2, 1), "vacuum": (1, 1)}

    for name, hw in weights.items():
        for alpha in (Fraction(0), Fraction(1, 2)):
            for beta in (Fraction(0), Fraction(1, 2), Fraction(1)):
                s = IntermediateSeries.make(ctx, alpha, beta)
                decision = decide_tensor(hw, s)
                if name in ("irr", "uponly"):
                    assert decision.verdict == "Reducible"
                    assert decision.reason == "NoSubsingular"
                    p, r = (2, 1) if name == "uponly" else (1, 1)
                    t = None
                else:
                    p, r = pr[name]
                    t = alpha + (1 - p) * beta
                    if t.denominator == 1:
                        assert decision.verdict == "Reducible"
                        assert decision.reason == "IntegralShift"
                        assert decision.witness == 1 - p - int(t)
                    else:
                        assert decision.verdict == "Irreducible"
                        assert not decision.witness.is_zero()
                excl = s.excluded_index() if s.is_reducible_series() else None
                for n in _sample_indices(p, r, t, s):
                    try:
                        stable = cyclicity_check(hw, s, n, 4)
                    except ValueError:
                        continue  # the target index is not in the series
                    if name in ("irr", "uponly"):
                        assert not stable, (name, alpha, beta, n)
                        continue
                    lam = tensor.lambda_product(hw, s, n, p, r)
                    expected = (not lam.is_zero()) and \
                        (excl is None or n + r * p - 1 != excl)
                    assert stable == expected, (name, alpha, beta, n)

    _stamp(7, time.perf_counter() - started, 120.0)


def test_criterion_08_verma_factor_chains_and_free_layers():
    """Against the full Verma factor no index is cyclic, and the layers
    are free over the lowering algebra at this truncation."""
    started = time.perf_counter()

    ctx = PolyContext(())
    hw = HighestWeight.w22(ctx, c=1,
                           h=verma.necessary_h(2, 1, Fraction(-1, 8)),
                           hW=Fraction(-1, 8))
    for alpha in (Fraction(0), Fraction(1, 2)):
        s = IntermediateSeries.make(ctx, alpha, 0)
        for n in (-2, 0, 2):
            if n - 1 == s.excluded_index():
                continue
            assert not cyclicity_check(hw, s, n, 4, quotient="verma")

    p2 = verma.pair_partition_count
    s = IntermediateSeries.make(ctx, Fraction(1, 2), 0)
    dims = tensor.subquotient_free_dims(hw, s, 0, 3)
    assert dims == {k: p2(k) for k in (1, 2, 3)}
    s0 = IntermediateSeries.make(ctx, 0, 0)
    dims0 = tensor.subquotient_free_dims(hw, s0, 1, 3)
    assert dims0 == {k: p2(k) for k in (1, 2, 3)}

    _stamp(8, time.perf_counter() - started, 60.0)


def test_criterion_09_twisted_algebra_checks():
    """Twisted algebra: symbolic singular vectors, certificate degrees,
    and the zero-F decisions."""
    started = time.perf_counter()

    ctx = PolyContext(("h", "cLI"))
    h, cLI = ctx.var("h"), ctx.var("cLI")
    M_l = ModuleContext(HighestWeight.hv(ctx, cL=0, cLI=cLI, h=h, hI=0, cI=0))
    space = verma.singular_space(M_l, 1)
    assert len(space) == 1
    u = space[0]
    lead = u.coeff(PBWMonomial.make(l=(1,)))
    u = u.scaled(M_l.scalar_ctx.one / lead)
    assert u == (M_l.monomial_vector(l=(1,))
                 + M_l.monomial_vector(w=(1,)).scaled(h / cLI))
    M_i = ModuleContext(HighestWeight.hv(ctx, cL=0, cLI=cLI, h=h,
                                         hI=cLI * 2, cI=0))
    assert verma.singular_space(M_i, 1) == [M_i.monomial_vector(w=(1,))]

    for p in (1, 2, 3):
        cctx = PolyContext(())
        hw_i = HighestWeight.hv(cctx, cL=1, cLI=2, h=3, hI=2 * (1 + p), cI=0)
        s = IntermediateSeries.make(cctx, Fraction(1, 3), 0, F=1)
        cert = tensor.hv_decision_polynomials(hw_i, s, p)
        assert cert.s_poly.degree_in("F") == p - 1
        hw_l = HighestWeight.hv(cctx, cL=1, cLI=2, h=3, hI=2 * (1 - p), cI=0)
        cert_l = tensor.hv_decision_polynomials(hw_l, s, p)
        assert cert_l.q_poly.degree_in("F") == p - 1
        assert cert_l.r_poly.degree_in("F") == p

    cctx = PolyContext(())
    grid = [
        # (hI multiplier case, p, alpha, expected verdict at F = 0)
        ("I", 1, Fraction(0), "Reducible"),
        ("I", 1, Fraction(1, 2), "Reducible"),
        ("L", 1, Fraction(1, 2), "Irreducible"),
        ("L", 1, Fraction(0), "Reducible"),
        ("L", 2, Fraction(1, 2), "Irreducible"),
        ("L", 2, Fraction(0), "Reducible"),
    ]
    for case, p, alpha, verdict in grid:
        mult = 1 + p if case == "I" else 1 - p
        hw = HighestWeight.hv(cctx, cL=1, cLI=2, h=3, hI=2 * mult, cI=0)
        s = IntermediateSeries.make(cctx, alpha, 0, F=0)
        decision = tensor.decide_tensor_hv(hw, s)
        assert decision.verdict == verdict, (case, p, alpha)

    _stamp(9, time.perf_counter() - started, 60.0)


def test_criterion_10_level_eight_stretch():
    """Subsingular vectors up to level 8; outcomes are evidence for the
    existence conjecture, so the assertions cover solver consistency
    (level, leading term, degree profile), not the conjecture itself."""
    started = time.perf_counter()

    for p, r in ((1, 6), (2, 3), (3, 2), (4, 2)):
        if p == 1:
            ctx = PolyContext(("c",))
            hw = HighestWeight.w22(ctx, c=ctx.var("c"),
                                   h=verma.necessary_h(1, r, Fraction(0)), hW=0)
        else:
            ctx = PolyContext(("hW",))
            hW = ctx.var("hW")
            hw = HighestWeight.w22(ctx, c=hW * Fraction(-24, p * p - 1),
                                   h=verma.necessary_h(p, r, hW), hW=hW)
        M = ModuleContext(hw)
        u = verma.subsingular(M, p, r)
        assert u is not None, f"no vector found at (p, r)=({p}, {r})"
        assert u.level == r * p
        assert u.coeff(PBWMonomial.make(l=(p,) * r)) == M.scalar_ctx.one
        assert max(len(m.l) for m in u.terms) == r

    _stamp(10, time.perf_counter() - started, 600.0)
