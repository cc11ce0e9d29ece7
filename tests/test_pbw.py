"""Normal ordering: the enveloping-algebra action on highest-weight modules."""

import random
from fractions import Fraction

import pytest

from vermatools import render
from vermatools.liealg import C, C_I, C_L, C_LI, HV, W22, I, L, W, bracket
from vermatools.pbw import HighestWeight, ModuleContext, ModuleVector, PBWMonomial
from vermatools.scalar import PolyContext
from vermatools.tensor import IntermediateSeries, TensorSpace
from vermatools.verma import weight_space_basis


def w22_module():
    ctx = PolyContext(("c", "h", "hW"))
    hw = HighestWeight.w22(ctx, c=ctx.var("c"), h=ctx.var("h"), hW=ctx.var("hW"))
    return ModuleContext(hw)


def hv_module():
    ctx = PolyContext(("cL", "cLI", "h", "hI"))
    hw = HighestWeight.hv(ctx, cL=ctx.var("cL"), cLI=ctx.var("cLI"),
                          h=ctx.var("h"), hI=ctx.var("hI"), cI=0)
    return ModuleContext(hw)


def test_single_generator_base_cases():
    M = w22_module()
    ctx = M.hw.ctx
    v = M.vacuum()
    for n in range(1, 7):
        assert M.act(L(n), v).is_zero()
        assert M.act(W(n), v).is_zero()
        assert M.act(L(-n), v) == M.monomial_vector(l=(n,))
        assert M.act(W(-n), v) == M.monomial_vector(w=(n,))
    assert M.act(L(0), v) == v.scaled(ctx.var("h"))
    assert M.act(W(0), v) == v.scaled(ctx.var("hW"))


def test_virasoro_diagonal_values():
    M = w22_module()
    ctx = M.hw.ctx
    c, h = ctx.var("c"), ctx.var("h")
    v = M.vacuum()
    # L_n L_{-n} v = (2nh + (n^3 - n)/12 c) v
    for n in range(1, 6):
        expect = v.scaled(h * (2 * n) + c * Fraction(n ** 3 - n, 12))
        assert M.act(L(n), M.act(L(-n), v)) == expect


def test_mixed_and_abelian_values():
    M = w22_module()
    ctx = M.hw.ctx
    hW = ctx.var("hW")
    v = M.vacuum()
    assert M.act(W(1), M.act(L(-1), v)) == v.scaled(hW * 2)
    assert M.act(L(1), M.act(W(-1), v)) == v.scaled(hW * 2)
    # the second family is abelian, so W_n W_{-n} v = 0
    for n in range(1, 5):
        assert M.act(W(n), M.act(W(-n), v)).is_zero()


def test_depth_two_reordering():
    M = w22_module()
    ctx = M.hw.ctx
    h, hW = ctx.var("h"), ctx.var("hW")
    v = M.vacuum()
    x = M.act(L(-2), M.act(L(-1), v))
    assert M.act(L(1), x) == (M.monomial_vector(l=(1, 1)).scaled(ctx.scalar(3))
                              + M.monomial_vector(l=(2,)).scaled(h * 2))
    y = M.act(L(-1), M.act(L(-1), v))
    assert M.act(W(2), y) == v.scaled(hW * 6)


def test_twisted_action_values():
    M = hv_module()
    ctx = M.hw.ctx
    hI, cLI = ctx.var("hI"), ctx.var("cLI")
    v = M.vacuum()
    # [I_1, L_{-1}] = I_0, so I_1 L_{-1} v = hI v
    assert M.act(I(1), M.act(L(-1), v)) == v.scaled(hI)
    # [L_1, I_{-1}] = I_0 - 2 C_LI ... check against the bracket itself
    combo = bracket(L(1), I(-1), HV)
    expect = M.zero()
    for g, coeff in combo:
        expect = expect + M.act(g, v).scaled(ctx.scalar(coeff))
    assert M.act(L(1), M.act(I(-1), v)) == expect
    # I_n I_{-n} v = n cI v = 0 under cI = 0
    for n in range(1, 4):
        assert M.act(I(n), M.act(I(-n), v)).is_zero()


def random_basis_vector(M, rng, max_level=4):
    level = rng.randint(1, max_level)
    from vermatools.verma import weight_space_basis

    basis = weight_space_basis(level)
    mono = basis[rng.randrange(len(basis))]
    return M.monomial_vector(w=mono.w, l=mono.l)


def test_action_respects_brackets():
    """pi(a) pi(b) - pi(b) pi(a) = pi([a, b]) on random basis vectors."""
    rng = random.Random(11223)
    for M, kind, low in ((w22_module(), W22, W), (hv_module(), HV, I)):
        gens = [fam(n) for n in range(-3, 4) for fam in (L, low)]
        for _ in range(60):
            a = gens[rng.randrange(len(gens))]
            b = gens[rng.randrange(len(gens))]
            x = random_basis_vector(M, rng)
            lhs = M.act(a, M.act(b, x)) - M.act(b, M.act(a, x))
            rhs = M.zero()
            for g, coeff in bracket(a, b, kind):
                rhs = rhs + M.act(g, x).scaled(M.scalar_ctx.scalar(coeff))
            assert lhs == rhs


def test_monomial_text_and_grading():
    mono = PBWMonomial.make(w=(2, 1, 1), l=(3, 1))
    assert render.monomial(mono, W22) == "W(-2)W(-1)^2L(-3)L(-1).v"
    assert mono.level == 8
    assert len(mono.w) == 3
    assert len(mono.l) == 2
    assert mono.l.count(3) == 1
    assert mono.l.count(2) == 0
    assert render.monomial(PBWMonomial.make(w=(1,), l=(1,)), HV) == "I(-1)L(-1).v"


def test_sorted_terms_order_is_stable():
    M = w22_module()
    one = M.scalar_ctx.one
    vec = M.vector({
        PBWMonomial.make(l=(1, 1)): one,
        PBWMonomial.make(w=(2,)): one,
        PBWMonomial.make(w=(1,), l=(1,)): one,
    })
    keys = [mono.sort_key() for mono, _ in vec.sorted_terms()]
    assert keys == sorted(keys, reverse=True)


def test_monomial_json_round_trip():
    for mono in (PBWMonomial.make(), PBWMonomial.make(w=(3, 1), l=(2, 2, 1))):
        assert PBWMonomial.from_json(mono.to_json()) == mono


def test_vector_json_round_trip():
    M = w22_module()
    ctx = M.hw.ctx
    vec = (M.monomial_vector(w=(2,)).scaled(ctx.var("c") / ctx.var("hW"))
           + M.monomial_vector(l=(1, 1)))
    assert ModuleVector.from_json(M, vec.to_json()) == vec


def test_vector_mixing_levels_is_refused():
    M = w22_module()
    one = M.scalar_ctx.one
    with pytest.raises(ValueError, match="vector mixes levels"):
        M.vector({PBWMonomial.make(l=(1,)): one, PBWMonomial.make(l=(2,)): one})
    with pytest.raises(ValueError, match="vector mixes levels"):
        M.monomial_vector(l=(1,)) + M.monomial_vector(l=(2,))


@pytest.mark.parametrize("where", ["module", "tensor"])
def test_vector_arithmetic_contract(where):
    # ModuleVector and the Vector of a TensorSpace share one arithmetic: check it on both.
    M = w22_module()
    if where == "module":
        ctx, start = M, M.monomial_vector(w=(1,))
    else:
        series = IntermediateSeries.make(M.scalar_ctx, M.scalar_ctx.var("h"), Fraction(1, 3))
        ctx = TensorSpace(M, series)
        start = ctx.vacuum_at(1)
    x = ctx.act(L(-2), start)
    y = ctx.act(L(-1), ctx.act(L(-1), start))
    assert not x.is_zero() and x != y
    assert (x - x).is_zero() and x - x == ctx.zero()
    assert (x - y) + y == x
    assert x + y == y + x and hash(x + y) == hash(y + x)
    assert x + x == x.scaled(2) and hash(x + x) == hash(x.scaled(2))
    assert x.scaled(0).is_zero() and (x + y).ctx is ctx


def test_level_grading_under_action():
    M = w22_module()
    rng = random.Random(991)
    for _ in range(40):
        x = random_basis_vector(M, rng)
        n = rng.randint(-3, 3)
        g = (L if rng.random() < 0.5 else W)(n)
        y = M.act(g, x)
        if not y.is_zero():
            assert y.level == x.level - n


@pytest.mark.parametrize("parts", [{"w": (0,)}, {"l": (2, -1)}])
def test_monomial_modes_must_be_positive(parts):
    with pytest.raises(ValueError, match="modes in a PBW monomial must be positive"):
        PBWMonomial.make(**parts)


def test_monomial_is_a_sorted_value():
    mono = PBWMonomial.make(w=(1, 2), l=(1, 3))
    direct = PBWMonomial((2, 1), (3, 1))
    round_trip = PBWMonomial.from_json(mono.to_json())
    assert mono == direct == round_trip == ((2, 1), (3, 1))
    assert hash(mono) == hash(direct) == hash(round_trip) == hash(((2, 1), (3, 1)))


@pytest.mark.parametrize("kind,family", [(W22, "W"), (HV, "I")])
def test_split_peels_the_leftmost_factor_of_the_word(kind, family):
    """split gives the first factor of as_word and the monomial of the rest."""
    for level in range(1, 6):
        for mono in weight_space_basis(level):
            first, rest = mono.split(family)
            assert (first,) + rest.as_word(kind) == mono.as_word(kind)


def test_equal_keys_share_one_memo_entry():
    M = w22_module()
    first = PBWMonomial.make(w=(1, 2), l=(1, 3))
    second = PBWMonomial.from_json(first.to_json())
    assert first is not second
    M._act_mono(L(1), first)
    size = len(M._memo)
    assert M._act_mono(L(1), second) is M._act_mono(L(1), first)
    assert len(M._memo) == size


@pytest.mark.parametrize("kind", [W22, HV])
def test_action_stores_no_zero_coefficient(kind):
    """At zero central charge no memoized image holds a zero coefficient,
    for central generators as for moded ones."""
    Q = PolyContext(())
    if kind == W22:
        hw = HighestWeight.w22(Q, c=0, h=1, hW=2)
        gens = [C] + [g(n) for g in (L, W) for n in range(-3, 4)]
    else:
        hw = HighestWeight.hv(Q, cL=0, cLI=1, h=2, hI=3, cI=0)
        gens = [C_L, C_I, C_LI] + [g(n) for g in (L, I) for n in range(-3, 4)]
    M = ModuleContext(hw)
    for level in range(4):
        for mono in weight_space_basis(level):
            for g in gens:
                assert all(not c.is_zero() for _, c in M._act_mono(g, mono)), (g, mono)
