"""Bracket tables: antisymmetry, Jacobi identity, grading, centrality."""

from fractions import Fraction

import pytest

from vermatools.liealg import HV, W22, I, L, W, bracket

BASIS = {
    W22: lambda n: [L(n), W(n)],
    HV: lambda n: [L(n), I(n)],
}


def combo_dict(combo):
    out = {}
    for g, coeff in combo:
        out[g] = out.get(g, Fraction(0)) + coeff
    return {g: c for g, c in out.items() if c != 0}


def combo_bracket(combo, b, kind):
    """[sum combo, b] extended bilinearly."""
    out = {}
    for g, coeff in combo:
        for g2, c2 in bracket(g, b, kind):
            out[g2] = out.get(g2, Fraction(0)) + coeff * c2
    return {g: c for g, c in out.items() if c != 0}


@pytest.mark.parametrize("kind", [W22, HV])
def test_antisymmetry(kind):
    gens = [g for n in range(-12, 13) for g in BASIS[kind](n)]
    for a in gens:
        for b in gens:
            lhs = combo_dict(bracket(a, b, kind))
            rhs = combo_dict(bracket(b, a, kind))
            assert lhs == {g: -c for g, c in rhs.items()}


@pytest.mark.parametrize("kind", [W22, HV])
def test_jacobi_identity(kind):
    gens = [g for n in range(-6, 7) for g in BASIS[kind](n)]
    for a in gens:
        for b in gens:
            for c in gens:
                total = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    inner = bracket(y, z, kind)
                    for g, coeff in combo_bracket(inner, x, kind).items():
                        total[g] = total.get(g, Fraction(0)) + coeff
                assert all(v == 0 for v in total.values())


@pytest.mark.parametrize("kind", [W22, HV])
def test_bracket_is_graded(kind):
    gens = [g for n in range(-8, 9) for g in BASIS[kind](n)]
    for a in gens:
        for b in gens:
            for g, _ in bracket(a, b, kind):
                if g.is_central():
                    assert a.mode + b.mode == 0
                else:
                    assert g.mode == a.mode + b.mode


@pytest.mark.parametrize("kind", [W22, HV])
def test_central_elements_commute(kind):
    centrals = {W22: ["C"], HV: ["CL", "CLI", "CI"]}[kind]
    from vermatools.liealg import Generator

    for name in centrals:
        z = Generator(name, 0)
        for n in range(-5, 6):
            for g in BASIS[kind](n):
                assert bracket(z, g, kind) == []
                assert bracket(g, z, kind) == []


def test_virasoro_central_term():
    # [L_n, L_{-n}] carries (n^3 - n)/12 times the central element.
    for n in range(2, 8):
        terms = combo_dict(bracket(L(n), L(-n), W22))
        central = [c for g, c in terms.items() if g.is_central()]
        assert central == [Fraction(n ** 3 - n, 12)]


def test_second_family_is_abelian():
    for n in range(-6, 7):
        for m in range(-6, 7):
            assert bracket(W(n), W(m), W22) == []


def test_heisenberg_central_term():
    # [I_n, I_m] = n delta_{n,-m} C_I and [L_n, I_{-n}] carries
    # -(n^2 + n) C_LI.
    for n in range(-6, 7):
        for m in range(-6, 7):
            terms = combo_dict(bracket(I(n), I(m), HV))
            if n + m == 0 and n != 0:
                assert list(terms.values()) == [Fraction(n)]
            else:
                assert terms == {}
    for n in range(1, 7):
        terms = combo_dict(bracket(L(n), I(-n), HV))
        central = {g.family: c for g, c in terms.items() if g.is_central()}
        assert central == {"CLI": Fraction(-(n * n + n))}


def test_mixed_bracket_matches_virasoro_shape():
    # [L_n, W_m] = (n - m) W_{n+m} plus a central term on the diagonal.
    for n in range(-5, 6):
        for m in range(-5, 6):
            terms = combo_dict(bracket(L(n), W(m), W22))
            noncentral = {g: c for g, c in terms.items() if not g.is_central()}
            if n == m:
                assert noncentral == {}
            else:
                assert noncentral == {W(n + m): Fraction(n - m)}
