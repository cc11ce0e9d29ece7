"""Singular vectors, subsingular vectors, characters, and classification."""

import logging
import random
from fractions import Fraction

import pytest

import oracles
from vermatools import linalg, render, tensor, verma
from vermatools.liealg import C, C_I, C_L, C_LI, W22, I, L, W, bracket
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


def twisted_case_l_module(p, symbolic):
    """Twisted V with hI = (1 - p) cLI: degenerate at p, case L; over
    Q(h, cLI), or at cL = 1, cLI = 2, h = 3."""
    if not symbolic:
        return ModuleContext(HighestWeight.hv(PolyContext(()), cL=1, cLI=2, h=3,
                                              hI=2 * (1 - p), cI=0))
    ctx = PolyContext(("h", "cLI"))
    cLI = ctx.var("cLI")
    return ModuleContext(HighestWeight.hv(ctx, cL=0, cLI=cLI, h=ctx.var("h"),
                                          hI=cLI * (1 - p), cI=0))


CASE_L_POINTS = [(p, symbolic) for p in (1, 2, 3, 4) for symbolic in (False, True)]
CASE_L_IDS = [f"p={p}-{'Q(h,cLI)' if symbolic else 'Q'}" for p, symbolic in CASE_L_POINTS]


@pytest.mark.parametrize("p,symbolic", CASE_L_POINTS, ids=CASE_L_IDS)
def test_u_prime_in_case_l_is_the_singular_vector(p, symbolic):
    """In the twisted case L, u' is the one singular vector of level p,
    found independently as a nullspace, and it leads with L_{-p}."""
    M = twisted_case_l_module(p, symbolic)
    u = verma.u_prime(M, p)
    assert verma.singular_space(M, p) == [u]
    assert u.coeff(PBWMonomial.make(l=(p,))) == M.scalar_ctx.one


@pytest.mark.parametrize("p,symbolic", CASE_L_POINTS, ids=CASE_L_IDS)
def test_case_l_quotient_avoids_l_p(p, symbolic):
    """quotient_l_prime in case L is V / U(g) u' on the monomials without
    L_{-p}: each image of _act_mono is the one a quotient built here
    gives, and the level dimensions follow char_l_prime to level 2p."""
    M = twisted_case_l_module(p, symbolic)
    u = verma.u_prime(M, p)
    Q = verma.quotient_l_prime(M, p)
    direct = verma.QuotientModule(M, [u], lambda m: p not in m.l)
    gens = [C_L, C_I, C_LI] + [g(n) for g in (L, I) for n in range(-2, 3)]
    for level in range(p + 2):
        for m in verma.weight_space_basis(level):
            for g in gens:
                assert dict(Q._act_mono(g, m)) == dict(direct._act_mono(g, m)), (g, m)
    chars = verma.char_l_prime(M.hw, p, 2 * p).coeffs
    assert [Q.dim(n) for n in range(2 * p + 1)] == list(chars)


def test_u_prime_refuses_a_twisted_weight_degenerate_at_another_level():
    for case_l in (True, False):
        M = twisted_case_l_module(2, False) if case_l else twisted_case_i_module(2)
        for p in (1, 3):
            with pytest.raises(ValueError, match=r"neither 1\+p nor 1-p at p="):
                verma.u_prime(M, p)


def test_subsingular_refuses_twisted_weights():
    for M in (twisted_case_l_module(2, False), twisted_case_i_module(2)):
        with pytest.raises(ValueError, match=r"applies to W\(2,2\) weights"):
            verma.subsingular(M, 2, 1)


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


def test_levels_below_one_are_refused():
    """At c = 24 hW the level condition holds at p = 0, and at r = 0 the
    subsingular ansatz is the bare highest weight vector, which every
    raising generator kills; neither names a vector.  The characters and
    the degeneracy check refuse r = 0 too: their answers there (all zeros,
    P2(n + p)) would describe no module."""
    ctx = PolyContext(())
    M = ModuleContext(HighestWeight.w22(ctx, c=24, h=0, hW=1))
    with pytest.raises(ValueError, match="p must be a positive integer, not 0"):
        verma.u_prime(M, 0)
    M = ModuleContext(HighestWeight.w22(ctx, c=-8, h=Fraction(13, 4), hW=1))
    for r in (0, -1):
        with pytest.raises(ValueError, match=f"r must be a positive integer, not {r}"):
            verma.subsingular(M, 2, r)
    with pytest.raises(ValueError, match="r must be a positive integer, not 0"):
        verma.conjecture_scan_point(2, 0)
    hw = HighestWeight.w22(ctx, c=-8, h=verma.necessary_h(2, 0, 1), hW=1)
    for refused in (lambda: verma.char_l(hw, 2, 0, 6), lambda: verma.char_j(hw, 2, 0, 6),
                    lambda: verma.require_degenerate(hw, 2, 0)):
        with pytest.raises(ValueError, match="r must be a positive integer, not 0"):
            refused()


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


# The points of the found-sampled benchmark workload, and (2,1) and (3,1).
FIRST_PASS_POINTS = [(1, 4), (1, 5), (1, 6), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1),
                     (5, 1)]


def _full_ansatz_system(M, p, r, uprime):
    """The subsingular system on every level-rp monomial without W_{-p}."""
    lead = PBWMonomial.make(l=(p,) * r)
    unknowns = [m for m in verma.weight_space_basis(r * p) if p not in m.w and m != lead]
    return lead, verma._raising_system(verma.quotient_l_prime(M, p, uprime), unknowns,
                                       M.vector({lead: 1}))


def _solve_sizes(monkeypatch, verdict=None):
    """Column counts of the systems linalg.solve is given from now on; the
    i-th solve returns verdict(i, columns, result) when verdict is given."""
    sizes, solve = [], linalg.solve

    def recorded(rows, columns, *args, **kwargs):
        sizes.append(len(columns))
        res = solve(rows, columns, *args, **kwargs)
        return res if verdict is None else verdict(len(sizes), columns, res)
    monkeypatch.setattr(linalg, "solve", recorded)
    return sizes


def test_subsingular_solve_ignores_row_order():
    rng = random.Random(5)
    for p, r in ((2, 1), (2, 2)):
        M = subsingular_module(p, r)
        uprime = verma.u_prime(M, p)
        lead, (rows, columns) = _full_ansatz_system(M, p, r, uprime)
        expected = verma._subsingular_direct(verma.quotient_l_prime(M, p, uprime), p, r)
        assert expected is not None
        for _ in range(3):
            shuffled = rng.sample(rows, len(rows))
            sol, free = linalg.solve(shuffled, columns)
            assert not free
            assert M.vector({lead: 1, **sol}) == expected
    M = subsingular_module(2, 1)
    hw_off = HighestWeight.w22(M.scalar_ctx, c=M.hw["c"],
                               h=M.hw["h"] + Fraction(1, 3), hW=M.hw["hW"])
    M_off = ModuleContext(hw_off)
    assert verma.subsingular(M_off, 2, 1) is None
    Q_off = verma.quotient_l_prime(M_off, 2, verma.u_prime(M_off, 2))
    assert verma._subsingular_direct(Q_off, 2, 1) is None


@pytest.mark.parametrize("p,r", FIRST_PASS_POINTS)
def test_first_pass_gives_the_full_ansatz_vector(monkeypatch, p, r):
    """At the necessary h the full ansatz leaves no unknown free, and its
    vector is the one the solve returns, which takes the L-degree <= r
    ansatz first for p > 1.  Off it, the one system solved is the full
    one, and it has no solution."""
    M = subsingular_module(p, r)
    uprime = verma.u_prime(M, p)
    lead, (rows, columns) = _full_ansatz_system(M, p, r, uprime)
    sol, free = linalg.solve(rows, columns)
    assert not free
    full = M.vector({lead: 1, **sol})
    assert verma.subsingular(M, p, r) == full
    sizes = _solve_sizes(monkeypatch)
    assert verma._subsingular_direct(verma.quotient_l_prime(M, p, uprime), p, r) == full
    assert len(sizes) == 1 and (sizes[0] < len(columns)) == (p > 1)
    hw_off = HighestWeight.w22(M.scalar_ctx, c=M.hw["c"],
                               h=M.hw["h"] + Fraction(1, 3), hW=M.hw["hW"])
    M_off = ModuleContext(hw_off)
    uprime_off = verma.u_prime(M_off, p)
    del sizes[:]
    assert verma._subsingular_direct(verma.quotient_l_prime(M_off, p, uprime_off), p, r) is None
    assert sizes == [len(columns)]


def test_symbolic_h_solves_the_full_ansatz_only(monkeypatch):
    M = degenerate_module(3)
    uprime = verma.u_prime(M, 3)
    _, (_, columns) = _full_ansatz_system(M, 3, 2, uprime)
    sizes = _solve_sizes(monkeypatch)
    assert verma._subsingular_direct(verma.quotient_l_prime(M, 3, uprime), 3, 2) is None
    assert sizes == [len(columns)]


@pytest.mark.parametrize("first,why", [("inconsistent", "inconsistent"), ("free", "1 free")])
def test_rejected_first_pass_falls_back_to_the_full_ansatz(monkeypatch, caplog, first, why):
    """A first pass that is inconsistent or leaves an unknown free is
    dropped, the full ansatz decides, and the log line says why."""
    M = subsingular_module(3, 2)
    uprime = verma.u_prime(M, 3)
    expected = verma._subsingular_direct(verma.quotient_l_prime(M, 3, uprime), 3, 2)

    def reject_first(i, columns, res):
        if i > 1:
            return res
        return None if first == "inconsistent" else (res[0], columns[:1])
    sizes = _solve_sizes(monkeypatch, reject_first)
    caplog.set_level(logging.DEBUG, logger="vermatools.verma")
    assert verma._subsingular_direct(verma.quotient_l_prime(M, 3, uprime), 3, 2) == expected
    assert sizes == [37, 54]
    [record] = caplog.records
    assert record.getMessage() == (
        "subsingular(p=3, r=2): exact solve of 98 x 54 system over Q(hW) "
        f"on the full ansatz (L-degree <= 2: {why}): rank 54")


def test_full_ansatz_keeps_the_underdetermined_refusal(monkeypatch):
    M = subsingular_module(2, 2)
    uprime = verma.u_prime(M, 2)
    _solve_sizes(monkeypatch, lambda i, columns, res: (res[0], columns[:1]))
    with pytest.raises(ValueError, match="subsingular solve underdetermined at p=2, r=2"):
        verma._subsingular_direct(verma.quotient_l_prime(M, 2, uprime), 2, 2)


def test_solved_vector_passes_the_certificate():
    for p, r in ((2, 1), (2, 2), (3, 1)):
        M = subsingular_module(p, r)
        u = verma.subsingular(M, p, r)
        uprime = verma.u_prime(M, p)
        off = M.vector({PBWMonomial.make(l=(1,) * (r * p)): 1})
        in_jp = M.act(L(-(r - 1) * p), uprime) if r > 1 else uprime
        for vec, expected in ((u, True), (u + off, False), (u + in_jp, True)):
            assert verma._certify_subsingular(M, p, vec) is expected
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
    assert not any(verma._certify_subsingular(M, p, x) for x in refused)


def test_off_weight_solve_is_logged(caplog):
    M = subsingular_module(2, 1)
    hw_off = HighestWeight.w22(M.scalar_ctx, c=M.hw["c"],
                               h=M.hw["h"] + Fraction(1, 3), hW=M.hw["hW"])
    caplog.set_level(logging.DEBUG, logger="vermatools.verma")
    assert verma.subsingular(ModuleContext(hw_off), 2, 1) is None
    [record] = caplog.records
    assert record.levelno == logging.DEBUG
    assert record.getMessage() == (
        "subsingular(p=2, r=1): exact solve of 6 x 3 system over Q(hW): inconsistent")


def test_found_vector_logs_the_rank(caplog):
    caplog.set_level(logging.DEBUG, logger="vermatools.verma")
    assert verma.subsingular(subsingular_module(2, 2), 2, 2) is not None
    assert verma.subsingular(subsingular_module(1, 2), 1, 2) is not None
    assert [rec.getMessage() for rec in caplog.records] == [
        "subsingular(p=2, r=2): exact solve of 18 x 11 system over Q(hW) "
        "on the L-degree <= 2 ansatz: rank 11",
        "subsingular(p=1, r=2): exact solve of 3 x 2 system over Q(c): rank 2"]


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
    assert render.text_character(verma.char_verma(hw0, 5)) == "1 + 2q + 5q^2 + 10q^3 + 20q^4 + 36q^5"
    hw_half = HighestWeight.w22(ctx, c=3, h=Fraction(-1, 2), hW=0)
    assert render.text_character(verma.char_verma(hw_half, 2)) == "q^(-1/2) * (1 + 2q + 5q^2)"


def test_quotient_dimensions():
    M = degenerate_module(2, extra=())
    Q = verma.quotient_l_prime(M, 2)
    pchar = verma.char_l_prime(M.hw, 2, 8)
    for k in range(9):
        assert Q.dim(k) == pchar.coeffs[k]
    Msub = subsingular_module(2, 1)
    rep = verma.classify(Msub)
    Ql = rep.quotient
    lchar = verma.char_l(Msub.hw, 2, 1, 6)
    for k in range(7):
        assert Ql.dim(k) == lchar.coeffs[k]


def test_extended_quotient_rebuilds_from_the_new_relation_level():
    """V / J' extended by u keeps the V / J' echelons below level rp = 4
    only; from level 4 up both quotients have their own dimensions."""
    M = subsingular_module(2, 2)
    uprime = verma.u_prime(M, 2)
    Q = verma.quotient_l_prime(M, 2, uprime)
    assert (Q.dim(4), Q.dim(5)) == tuple(verma.char_l_prime(M.hw, 2, 5).coeffs[4:])
    u = verma.subsingular(M, 2, 2)
    QJ = Q.extended(u, lambda m: 2 not in m.w and m.l.count(2) < 2)
    lchar, pchar = verma.char_l(M.hw, 2, 2, 6), verma.char_l_prime(M.hw, 2, 6)
    for n in range(7):
        assert QJ.dim(n) == lchar.coeffs[n]
        assert Q.dim(n) == pchar.coeffs[n]



@pytest.mark.parametrize("pred,nonbasis", [
    (lambda m: True, 0),
    (lambda m: m.l != (2,), 1),
    (lambda m: 2 not in m.w and m.l != (2,), 2),
], ids=["keeps-all", "drops-L(-2)-only", "drops-two"])
def test_quotient_refuses_a_basis_the_relations_do_not_fit(pred, nonbasis):
    """u' = W_{-2} + ... eliminates one monomial at level 2, so a predicate
    that keeps every monomial, drops one u' cannot eliminate, or drops
    two is refused at level 2."""
    M = degenerate_module(2, extra=())
    uprime = verma.u_prime(M, 2)
    assert PBWMonomial.make(l=(2,)) not in uprime.terms
    Q = verma.QuotientModule(M, [uprime], pred)
    with pytest.raises(ValueError, match=(
            f"^quotient basis mismatch at level 2: 1 relations, {nonbasis} non-basis monomials$")):
        Q.dim(2)


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
    rep = verma.classify(M)
    assert (rep.p, rep.r) == (2, 2)
    yield rep.quotient, W
    Mhv = ModuleContext(HighestWeight.hv(ctx, cL=1, cLI=1, h=3, hI=-1, cI=0))
    rep = verma.classify(Mhv)
    assert rep.case == "L"
    yield rep.quotient, I
    yield verma.quotient_l_prime(twisted_case_l_module(3, False), 3), I


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


def test_quotient_action_is_the_reduced_verma_action():
    """Q._act_mono(g, m) is Q.reduce of g.m in M, on V/J', V/J and two
    twisted case-L quotients, for every generator with mode in -3..3 and
    every central one, on every monomial to level 4."""
    for Q, second in _quotients_for_representation_check():
        gens = [C] if Q.kind == W22 else [C_L, C_I, C_LI]
        gens += [g(n) for g in (L, second) for n in range(-3, 4)]
        M = Q.M
        for level in range(5):
            for m in verma.weight_space_basis(level):
                for g in gens:
                    expected = Q.reduce(M.act(g, M.vector({m: 1})))
                    assert dict(Q._act_mono(g, m)) == expected.terms, (g, m)


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
    """The quotient of a classify report reuses the report's u'."""
    calls = []
    u_prime = verma.u_prime

    def counted(M, p):
        calls.append(p)
        return u_prime(M, p)

    monkeypatch.setattr(verma, "u_prime", counted)
    M = subsingular_module(2, 1)
    Q = verma.classify(M).quotient
    assert calls == [2]
    assert Q.dim(2) == verma.pair_partition_count(2) - 2


def test_classify_without_a_subsingular_vector_at_its_h(monkeypatch):
    """When h matches r but the solve finds no subsingular vector, the
    verdict is UprimeOnly with a note, and the tensor product is reducible."""
    monkeypatch.setattr(verma, "_subsingular_direct", lambda Q, p, r: None)
    hw = HighestWeight.w22(PolyContext(()), c=-8, h=Fraction(13, 4), hW=1)
    rep = verma.classify(ModuleContext(hw))
    assert (rep.verdict, rep.p, rep.notes) == (
        "UprimeOnly", 2, ["h matches r=1 but no subsingular vector found"])
    decision = tensor.decide_tensor(hw, tensor.IntermediateSeries.make(hw.ctx, Fraction(1, 2), 0))
    assert (decision.verdict, decision.reason) == ("Reducible", "NoSubsingular")


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
