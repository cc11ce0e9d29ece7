"""Singular vectors, subsingular vectors, characters, and classification."""

import logging
import random
from fractions import Fraction

import pytest

import oracles
from vermatools import linalg, verma
from vermatools.liealg import I, L, W, bracket
from vermatools.pbw import HighestWeight, ModuleContext, PBWMonomial
from vermatools.scalar import PolyContext


def degenerate_module(p, extra=("h",)):
    """V(c, h, hW) with c bound to the level-p degeneracy, hW symbolic."""
    names = ("hW",) + tuple(extra)
    ctx = PolyContext(names)
    hW = ctx.var("hW")
    if p == 1:
        raise ValueError("p = 1 uses hW = 0; build that module directly")
    c = hW * Fraction(-24, p * p - 1)
    h = ctx.var("h") if "h" in extra else ctx.scalar(0)
    return ModuleContext(HighestWeight.w22(ctx, c=c, h=h, hW=hW))


def subsingular_module(p, r):
    """The module with h pinned to the unique admissible value."""
    if p == 1:
        ctx = PolyContext(("c",))
        hw = HighestWeight.w22(ctx, c=ctx.var("c"),
                               h=verma.necessary_h(1, r, Fraction(0)), hW=0)
        return ModuleContext(hw)
    ctx = PolyContext(("hW",))
    hW = ctx.var("hW")
    hw = HighestWeight.w22(ctx, c=hW * Fraction(-24, p * p - 1),
                           h=verma.necessary_h(p, r, hW), hW=hW)
    return ModuleContext(hw)


RAISERS_W22 = [L(1), L(2), W(1), W(2)]


# ---------------------------------------------------------------------------
# Singular vectors


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_u_prime_is_singular(p):
    M = degenerate_module(p)
    u = verma.u_prime(M, p)
    assert u.level == p
    for g in RAISERS_W22:
        assert M.act(g, u).is_zero()
    space = verma.singular_space(M, p)
    assert space == [u]


def test_singular_space_empty_off_degeneracy():
    ctx = PolyContext(())
    M = ModuleContext(HighestWeight.w22(ctx, c=5, h=0, hW=1))
    for level in (1, 2, 3):
        assert verma.singular_space(M, level) == []


def test_u_prime_has_no_l_factors():
    for p in (2, 3, 4):
        M = degenerate_module(p)
        u = verma.u_prime(M, p)
        assert all(len(m.l) == 0 for m in u.terms)
        assert u.coeff(PBWMonomial.make(w=(p,))) == M.scalar_ctx.one


def twisted_case_i_module(p):
    """Twisted V with hI = (1 + p) cLI over Q(h, cLI): degenerate at p, case I."""
    ctx = PolyContext(("h", "cLI"))
    cLI = ctx.var("cLI")
    return ModuleContext(HighestWeight.hv(ctx, cL=0, cLI=cLI, h=ctx.var("h"),
                                          hI=cLI * (1 + p), cI=0))


@pytest.mark.parametrize("algebra,p", [("w22", p) for p in (2, 3, 4, 5)]
                         + [("hv", p) for p in (1, 2, 3, 4)])
def test_singular_space_dimensions(algebra, p):
    """No singular vector below the degenerate level p, and one at p: u'."""
    M = degenerate_module(p) if algebra == "w22" else twisted_case_i_module(p)
    for n in range(1, p):
        assert verma.singular_space(M, n) == []
    assert verma.singular_space(M, p) == [verma.u_prime(M, p)]


@pytest.mark.parametrize("p", [8, 10])
def test_u_prime_at_high_levels(p):
    M = degenerate_module(p)
    u = verma.u_prime(M, p)
    assert all(len(m.l) == 0 for m in u.terms)
    assert u.coeff(PBWMonomial.make(w=(p,))) == M.scalar_ctx.one
    for g in RAISERS_W22:
        assert M.act(g, u).is_zero()


def test_u_prime_refused_where_only_the_level_condition_holds():
    """At c = hW = 0 the level condition holds at every p, and there are
    singular vectors at level 2, but none with a W_{-2} term."""
    ctx = PolyContext(("h",))
    M = ModuleContext(HighestWeight.w22(ctx, c=0, h=ctx.var("h"), hW=0))
    assert verma.u_prime(M, 1) == M.monomial_vector(w=(1,))
    assert verma.singular_space(M, 2)
    with pytest.raises(ValueError, match="no pure singular vector at level 2"):
        verma.u_prime(M, 2)


# ---------------------------------------------------------------------------
# Subsingular vectors


@pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (3, 1)])
def test_leading_w_coefficients(p, r):
    """The coefficient of W_{-i} L_{-(p-i)} L_{-p}^{r-1} is forced by the
    top raising relations to -r (p^2 - 1) / (2 hW i (p - i))."""
    M = subsingular_module(p, r)
    hW = M.scalar_ctx.var("hW")
    u = verma.subsingular(M, p, r)
    assert u is not None
    for i in range(1, p):
        mono = PBWMonomial.make(w=(i,), l=tuple(sorted((p,) * (r - 1) + (p - i,), reverse=True)))
        expect = M.scalar_ctx.scalar(Fraction(-r * (p * p - 1), 2)) / (hW * i * (p - i))
        assert u.coeff(mono) == expect


@pytest.mark.parametrize("p,r", [(2, 1), (1, 2), (2, 2), (3, 2), (2, 3)])
def test_subsingular_defining_property(p, r):
    """Raising operators send u into J', and W_0 acts as hW modulo J'."""
    M = subsingular_module(p, r)
    u = verma.subsingular(M, p, r)
    assert u is not None
    uprime = verma.u_prime(M, p)
    for g in RAISERS_W22:
        assert oracles.in_j_prime(M, p, uprime, M.act(g, u))
    w0 = M.act(W(0), u) - u.scaled(M.hw["hW"])
    assert oracles.in_j_prime(M, p, uprime, w0)


@pytest.mark.parametrize("p,r", [(2, 1), (1, 2), (2, 2), (3, 1)])
def test_l_degree_profile(p, r):
    M = subsingular_module(p, r)
    u = verma.subsingular(M, p, r)
    assert u is not None
    assert max(len(m.l) for m in u.terms) == r
    assert u.coeff(PBWMonomial.make(l=(p,) * r)) == M.scalar_ctx.one


def test_subsingular_none_off_the_necessary_h():
    ctx = PolyContext(("hW",))
    hW = ctx.var("hW")
    hw = HighestWeight.w22(ctx, c=hW * Fraction(-8),
                           h=verma.necessary_h(2, 1, hW) + 1, hW=hW)
    assert verma.subsingular(ModuleContext(hw), 2, 1) is None


def test_subsingular_solve_ignores_row_order():
    rng = random.Random(5)
    for p, r in ((2, 1), (2, 2)):
        M = subsingular_module(p, r)
        uprime = verma.u_prime(M, p)
        lead = PBWMonomial.make(l=(p,) * r)
        unknowns = [m for m in verma.weight_space_basis(r * p) if p not in m.w and m != lead]
        rows, columns = verma._raising_system(verma.quotient_l_prime(M, p, uprime), unknowns,
                                              M.vector({lead: 1}))
        expected = verma._subsingular_direct(M, p, r, uprime)
        assert expected is not None
        for _ in range(3):
            shuffled = rng.sample(rows, len(rows))
            sol, free = linalg.solve(shuffled, columns, M.scalar_ctx)
            assert not free
            assert M.vector({lead: 1, **sol}) == expected
    M = subsingular_module(2, 1)
    hw_off = HighestWeight.w22(M.scalar_ctx, c=M.hw["c"],
                               h=M.hw["h"] + Fraction(1, 3), hW=M.hw["hW"])
    M_off = ModuleContext(hw_off)
    assert verma.subsingular(M_off, 2, 1) is None
    assert verma._subsingular_direct(M_off, 2, 1, verma.u_prime(M_off, 2)) is None


def test_solved_vector_passes_the_certificate():
    for p, r in ((2, 1), (2, 2), (3, 1)):
        M = subsingular_module(p, r)
        u = verma.subsingular(M, p, r)
        uprime = verma.u_prime(M, p)
        off = M.vector({PBWMonomial.make(l=(1,) * (r * p)): 1})
        in_jp = M.act(L(-(r - 1) * p), uprime) if r > 1 else uprime
        for vec, expected in ((u, True), (u + off, False), (u + in_jp, True)):
            assert verma._certify_subsingular(M, p, r, vec) is expected
            assert all(oracles.in_j_prime(M, p, uprime, M.act(g, vec))
                       for g in RAISERS_W22) is expected


@pytest.mark.parametrize("checked", [RAISERS_W22[1:], RAISERS_W22[:1] + RAISERS_W22[2:],
                                     RAISERS_W22[:2]], ids=["no L1", "no L2", "no W"])
def test_certificate_refuses_a_vector_only_some_raisers_send_into_j_prime(checked):
    """At (2, 2), level-4 vectors whose images under the checked generators
    lie in J' (by the oracle) but that are not subsingular exist, so a
    certificate that skipped L_1, L_2 or the W modes would accept them."""
    p, r = 2, 2
    M = subsingular_module(p, r)
    uprime = verma.u_prime(M, p)
    basis = verma.weight_space_basis(r * p)
    echs = {n: oracles.j_prime_echelon(M, p, n, uprime) for n in (r * p - 2, r * p - 1)}
    rows: dict = {}
    for m in basis:
        for gi, g in enumerate(checked):
            img = M.act(g, M.vector({m: 1}))
            rem = echs[img.level].reduce(dict(img.terms)) if img.terms else {}
            for t, c in rem.items():
                rows.setdefault((gi, t), {})[m] = c
    passing = [M.vector(x) for x in linalg.nullspace(list(rows.values()), basis, M.scalar_ctx)]
    refused = [x for x in passing
               if not all(oracles.in_j_prime(M, p, uprime, M.act(g, x)) for g in RAISERS_W22)]
    assert refused
    assert not any(verma._certify_subsingular(M, p, r, x) for x in refused)


def test_off_weight_solve_is_logged(caplog):
    M = subsingular_module(2, 1)
    hw_off = HighestWeight.w22(M.scalar_ctx, c=M.hw["c"],
                               h=M.hw["h"] + Fraction(1, 3), hW=M.hw["hW"])
    caplog.set_level(logging.DEBUG, logger="vermatools.verma")
    assert verma.subsingular(ModuleContext(hw_off), 2, 1) is None
    [record] = caplog.records
    assert record.levelno == logging.DEBUG
    assert "subsingular(p=2, r=1)" in record.getMessage()
    assert "over Q(hW): inconsistent" in record.getMessage()


def test_found_vector_logs_the_rank(caplog):
    caplog.set_level(logging.DEBUG, logger="vermatools.verma")
    assert verma.subsingular(subsingular_module(2, 2), 2, 2) is not None
    [record] = caplog.records
    assert "subsingular(p=2, r=2)" in record.getMessage()
    assert ": rank " in record.getMessage()


def test_failed_u_prime_is_logged_and_raised(caplog):
    ctx = PolyContext(("hW",))
    hW = ctx.var("hW")
    hw = HighestWeight.w22(ctx, c=hW * Fraction(-3), h=verma.necessary_h(2, 1, hW), hW=hW)
    caplog.set_level(logging.DEBUG, logger="vermatools.verma")
    with pytest.raises(ValueError, match="no pure-W singular vector"):
        verma.subsingular(ModuleContext(hw), 2, 1)
    [record] = caplog.records
    assert "subsingular(p=2, r=1): u' failed" in record.getMessage()


def test_pure_w_completion_refuses_a_free_unknown():
    # At c = h = hW = 0 the vector W_{-1}^2 v is singular, so with nothing
    # known the level-2 ansatz leaves its coefficient free.
    M = ModuleContext(HighestWeight.w22(PolyContext(()), c=0, h=0, hW=0))
    free = M.monomial_vector(w=(1, 1))
    assert all(M.act(g, free).is_zero() for g in RAISERS_W22)
    with pytest.raises(ValueError, match=r"^probe underdetermined: \[W\(-1\)\^2\.v\] free$"):
        verma._complete(M, M.zero(), verma.pure_w_basis(2)[1:], "probe")


def test_recursive_construction_matches_solver():
    for p in (2, 3):
        M = subsingular_module(p, 1)
        assert verma.subsingular_r1_recursive(M, p) == verma.subsingular(M, p, 1)


# ---------------------------------------------------------------------------
# The submodule J' and characters


def test_j_prime_component_dimensions():
    M = degenerate_module(2)
    uprime = verma.u_prime(M, 2)
    for level in range(0, 9):
        ech = oracles.j_prime_echelon(M, 2, level, uprime)
        expected = verma.pair_partition_count(level - 2) if level >= 2 else 0
        assert len(ech.pivots) == expected


def test_character_sum_identity():
    ctx = PolyContext(("h",))
    hw = HighestWeight.w22(ctx, c=1, h=ctx.var("h"), hW=2)
    for p in (1, 2, 3):
        jp, lp, v = (verma.char_j_prime(hw, p, 20), verma.char_l_prime(hw, p, 20),
                     verma.char_verma(hw, 20))
        assert jp.offset - p == lp.offset == v.offset
        total = [a + b for a, b in zip((0,) * p + jp.coeffs, lp.coeffs)]
        assert total == list(v.coeffs)


def test_character_product_identity():
    """charL carries the double factor (1 - q^p)(1 - q^{rp})."""
    ctx = PolyContext(())
    hw = HighestWeight.w22(ctx, c=1, h=0, hW=2)
    for p, r in ((1, 1), (1, 2), (2, 1), (2, 2)):
        lchar = verma.char_l(hw, p, r, 20)
        p2 = verma.pair_partition_count
        for k in range(21):
            direct = (p2(k) - p2(k - p) - p2(k - r * p) + p2(k - p - r * p))
            assert lchar.coeffs[k] == direct


def test_quotient_basis_counts_match_characters():
    ctx = PolyContext(())
    hw = HighestWeight.w22(ctx, c=1, h=0, hW=2)
    for p, r in ((1, 1), (1, 2), (2, 1), (2, 2)):
        lchar = verma.char_l(hw, p, r, 12)
        pchar = verma.char_l_prime(hw, p, 12)
        for k in range(13):
            basis = verma.weight_space_basis(k)
            assert sum(p not in m.w and m.l.count(p) < r for m in basis) == lchar.coeffs[k]
            assert sum(p not in m.w for m in basis) == pchar.coeffs[k]


def test_character_text_rendering():
    ctx = PolyContext(())
    hw0 = HighestWeight.w22(ctx, c=3, h=0, hW=0)
    assert verma.char_verma(hw0, 5).text() == "1 + 2q + 5q^2 + 10q^3 + 20q^4 + 36q^5"
    hw_half = HighestWeight.w22(ctx, c=3, h=Fraction(-1, 2), hW=0)
    assert verma.char_verma(hw_half, 2).text() == "q^(-1/2) * (1 + 2q + 5q^2)"


def test_quotient_dimensions():
    M = degenerate_module(2, extra=())
    Q = verma.quotient_l_prime(M, 2)
    pchar = verma.char_l_prime(M.hw, 2, 8)
    for k in range(9):
        assert Q.dim(k) == pchar.coeffs[k]
    Msub = subsingular_module(2, 1)
    Ql = verma.quotient_l(Msub, 2, 1)
    lchar = verma.char_l(Msub.hw, 2, 1, 6)
    for k in range(7):
        assert Ql.dim(k) == lchar.coeffs[k]


def test_quotient_reduce_is_projection():
    M = degenerate_module(2, extra=())
    uprime = verma.u_prime(M, 2)
    Q = verma.quotient_l_prime(M, 2, uprime)
    rng = random.Random(5151)
    basis = verma.weight_space_basis(4)
    for _ in range(10):
        vec = M.zero()
        for mono in basis:
            vec = vec + M.monomial_vector(w=mono.w, l=mono.l).scaled(
                Fraction(rng.randint(-4, 4)))
        red = Q.reduce(vec)
        assert Q.reduce(red) == red
        assert oracles.in_j_prime(M, 2, uprime, vec - red)


def _quotients_for_representation_check():
    ctx = PolyContext(())
    hw = HighestWeight.w22(ctx, c=-8, h=verma.necessary_h(2, 2, Fraction(1)), hW=1)
    M = ModuleContext(hw)
    yield verma.quotient_l_prime(M, 2), W
    yield verma.quotient_l(M, 2, 2), W
    Mhv = ModuleContext(HighestWeight.hv(ctx, cL=1, cLI=1, h=3, hI=-1, cI=0))
    rep = verma.classify(Mhv)
    assert rep.case == "L"
    yield verma.witness_quotient(Mhv, rep), I


def test_quotient_is_a_representation():
    """[a, b] acts on a quotient as a b - b a, and every image stays on the
    quotient basis."""
    rng = random.Random(2024)
    for Q, second in _quotients_for_representation_check():
        gens = [L(k) for k in range(-2, 3)] + [second(k) for k in range(-2, 3)]
        kind = Q.kind
        for _ in range(12):
            level = rng.randint(0, 3)
            basis = [m for m in verma.weight_space_basis(level) if Q.basis_pred(m)]
            x = Q.vector({m: rng.randint(-3, 3) for m in rng.sample(basis, min(3, len(basis)))})
            a, b = rng.choice(gens), rng.choice(gens)
            lhs = Q.act(a, Q.act(b, x)) - Q.act(b, Q.act(a, x))
            rhs = Q.zero()
            for g, c in bracket(a, b, kind):
                rhs = rhs + Q.act(g, x).scaled(c)
            assert lhs == rhs, (a, b, x)
            for img in (Q.act(a, x), Q.act(b, x), Q.act(a, Q.act(b, x)), lhs):
                assert all(Q.basis_pred(m) for m in img.terms)


# ---------------------------------------------------------------------------
# Classification


def test_degenerate_level_matches_the_defining_equation():
    """zd_find_p against a direct scan of 2 hW + (p^2 - 1) c / 12 = 0."""
    ctx = PolyContext(())
    for c in (Fraction(-24), Fraction(1), Fraction(-8, 5), Fraction(0)):
        for hW in (Fraction(0), Fraction(1), Fraction(3), Fraction(-1, 8), Fraction(4224)):
            hw = HighestWeight.w22(ctx, c=c, h=0, hW=hW)
            if c == hW == 0:
                # every p solves the equation there: refused, not p = 1
                with pytest.raises(ValueError, match="requires c or h_W nonzero"):
                    verma.zd_find_p(hw)
                continue
            scan = next((p for p in range(1, 100)
                         if 2 * hW + Fraction(p * p - 1, 12) * c == 0), None)
            assert verma.zd_find_p(hw) == scan


def test_only_exact_zeros_refuse_the_zero_locus():
    """c = hW = 0 is refused as a weight, not as a specialisation."""
    hW_ctx, c_ctx, h_ctx = PolyContext(("hW",)), PolyContext(("c",)), PolyContext(("h",))
    assert verma.zd_find_p(HighestWeight.w22(hW_ctx, c=0, h=0, hW=hW_ctx.var("hW"))) is None
    assert verma.zd_find_p(HighestWeight.w22(c_ctx, c=c_ctx.var("c"), h=0, hW=0)) == 1
    with pytest.raises(ValueError, match="requires c or h_W nonzero"):
        verma.zd_find_p(HighestWeight.w22(h_ctx, c=0, h=h_ctx.var("h"), hW=0))


def test_degenerate_levels_beyond_the_old_scan_are_refused():
    """p = 65 (W(2,2)) and p = 71 (both twisted cases) were once reported
    irreducible because the search stopped at p = 64."""
    ctx = PolyContext(())
    w22 = HighestWeight.w22(ctx, c=-24, h=0, hW=4224)
    assert verma.zd_find_p(w22) == 65
    hv_i = HighestWeight.hv(ctx, cL=0, cLI=1, h=0, hI=72)
    hv_l = HighestWeight.hv(ctx, cL=0, cLI=1, h=0, hI=-70)
    assert verma.hv_find_p(hv_i) == (71, "I")
    assert verma.hv_find_p(hv_l) == (71, "L")
    for hw, p in ((w22, 65), (hv_i, 71), (hv_l, 71)):
        with pytest.raises(verma.OutOfReach, match=f"p = {p}"):
            verma.classify(ModuleContext(hw))


def test_subsingular_witness_beyond_budget_is_refused():
    ctx = PolyContext(())
    hw = HighestWeight.w22(ctx, c=1, h=verma.necessary_h(1, 11, Fraction(0)), hW=0)
    with pytest.raises(verma.OutOfReach, match="r = 11"):
        verma.classify(ModuleContext(hw))


def test_classify_irreducible_verma():
    ctx = PolyContext(())
    M = ModuleContext(HighestWeight.w22(ctx, c=5, h=3, hW=1))
    rep = verma.classify(M)
    assert rep.verdict == "VermaIrreducible"
    assert rep.p is None and rep.u_prime is None


def test_classify_u_prime_only():
    M = degenerate_module(3, extra=())
    rep = verma.classify(M)
    assert rep.verdict == "UprimeOnly"
    assert rep.p == 3 and rep.r is None
    assert rep.u_prime == verma.u_prime(M, 3)


def test_classify_with_subsingular():
    M = subsingular_module(2, 1)
    rep = verma.classify(M)
    assert rep.verdict == "UprimeAndSubsingular"
    assert (rep.p, rep.r) == (2, 1)
    assert rep.u == verma.subsingular(M, 2, 1)


def test_classify_solves_u_prime_once(monkeypatch):
    calls = []
    u_prime = verma.u_prime

    def counted(M, p):
        calls.append(p)
        return u_prime(M, p)

    monkeypatch.setattr(verma, "u_prime", counted)
    ctx = PolyContext(())
    rep = verma.classify(ModuleContext(HighestWeight.w22(ctx, c=-8, h=Fraction(13, 4), hW=1)))
    assert rep.verdict == "UprimeAndSubsingular"
    assert calls == [2]


def test_quotient_l_solves_u_prime_once(monkeypatch):
    calls = []
    u_prime = verma.u_prime

    def counted(M, p):
        calls.append(p)
        return u_prime(M, p)

    monkeypatch.setattr(verma, "u_prime", counted)
    Q = verma.quotient_l(subsingular_module(2, 1), 2, 1)
    assert calls == [2]
    assert Q.dim(2) == verma.pair_partition_count(2) - 2


def test_classify_vacuum():
    ctx = PolyContext(())
    M = ModuleContext(HighestWeight.w22(ctx, c=1, h=0, hW=0))
    rep = verma.classify(M)
    assert rep.verdict == "UprimeAndSubsingular"
    assert (rep.p, rep.r) == (1, 1)


def test_classify_twisted_cases():
    ctx = PolyContext(("h",))
    h = ctx.var("h")
    hw_i = HighestWeight.hv(ctx, cL=1, cLI=2, h=h, hI=6, cI=0)
    rep_i = verma.classify(ModuleContext(hw_i))
    assert rep_i.verdict == "UprimeOnly"
    assert rep_i.case == "I" and rep_i.p == 2

    hw_l = HighestWeight.hv(ctx, cL=1, cLI=2, h=h, hI=0, cI=0)
    rep_l = verma.classify(ModuleContext(hw_l))
    assert rep_l.verdict == "UprimeOnly"
    assert rep_l.case == "L" and rep_l.p == 1

    hw_gen = HighestWeight.hv(ctx, cL=1, cLI=2, h=h, hI=3, cI=0)
    assert verma.classify(ModuleContext(hw_gen)).verdict == "VermaIrreducible"


def test_twisted_singular_vectors():
    ctx = PolyContext(("h", "cLI"))
    h, cLI = ctx.var("h"), ctx.var("cLI")
    hw_l = HighestWeight.hv(ctx, cL=0, cLI=cLI, h=h, hI=0, cI=0)
    M = ModuleContext(hw_l)
    space = verma.singular_space(M, 1)
    assert len(space) == 1
    u = space[0]
    lead = u.coeff(PBWMonomial.make(l=(1,)))
    assert not lead.is_zero()
    u = u.scaled(M.scalar_ctx.one / lead)
    assert u == (M.monomial_vector(l=(1,))
                 + M.monomial_vector(w=(1,)).scaled(h / cLI))

    hw_i = HighestWeight.hv(ctx, cL=0, cLI=cLI, h=h, hI=cLI * 2, cI=0)
    Mi = ModuleContext(hw_i)
    space_i = verma.singular_space(Mi, 1)
    assert space_i == [Mi.monomial_vector(w=(1,))]


# ---------------------------------------------------------------------------
# Evidence scans


def test_scan_point_checks_offsets_and_shape():
    row = verma.conjecture_scan_point(1, 2, (Fraction(1, 3), Fraction(-2)))
    assert row["found"] and row["ok"] and row["shape_ok"]
    assert row["offsets"] == {"1/3": True, "-2": True}
    row2 = verma.conjecture_scan_point(2, 1, (Fraction(1),))
    assert row2["found"] and row2["ok"]
    assert row2["shape_ok"] is None


def test_scan_grid_is_ordered():
    rows = verma.conjecture_scan(2, 2, offsets=(Fraction(1, 3),))
    assert [(row["p"], row["r"]) for row in rows] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert all(row["ok"] for row in rows)


def test_necessary_h_values():
    hW = Fraction(7)
    assert verma.necessary_h(1, 1, hW) == hW
    assert verma.necessary_h(2, 1, hW) == hW + Fraction(9, 4)
    assert verma.necessary_h(3, 1, hW) == hW + Fraction(20, 3)
    assert verma.necessary_h(4, 1, hW) == hW + Fraction(53, 4)
    assert verma.necessary_h(1, 2, Fraction(0)) == Fraction(-1, 2)
    assert verma.necessary_h(1, 5, Fraction(0)) == Fraction(-2)
