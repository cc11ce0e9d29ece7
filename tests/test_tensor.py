"""Tensor products with the intermediate series: actions, chains, decisions."""

import random
from fractions import Fraction

import pytest

from oracles import elimination_product
from vermatools import linalg, tensor, verma
from vermatools.liealg import HV, W22, I, L, W
from vermatools.pbw import HighestWeight, ModuleContext, PBWMonomial, Vector
from vermatools.scalar import PolyContext
from vermatools.tensor import (
    IntermediateSeries,
    TensorSpace,
    cyclicity_check,
    decide_tensor,
    decide_tensor_hv,
    hv_decision_polynomials,
    subquotient_free_dims,
    subquotient_weight,
)


def w22_weight(c, h, hW, names=()):
    ctx = PolyContext(names)
    return HighestWeight.w22(ctx, c=c, h=h, hW=hW)


def hv_weight(cL, cLI, h, hI, names=()):
    ctx = PolyContext(names)
    return HighestWeight.hv(ctx, cL=cL, cLI=cLI, h=h, hI=hI, cI=0)


def subsingular_weight(p, r, hW=Fraction(1)):
    if p == 1:
        return w22_weight(1, verma.necessary_h(1, r, Fraction(0)), 0)
    return w22_weight(hW * Fraction(-24, p * p - 1),
                      verma.necessary_h(p, r, hW), hW)


# ---------------------------------------------------------------------------
# The series action


def test_series_coefficients():
    """g v_m = coefficient * v_{m+n}: in the tensor action on v_m (x) v the
    coefficient lands on v_{m+n} (x) v, where the module factor adds nothing
    (L_0 v = 0 at h = 0)."""
    ctx = PolyContext(())
    s = IntermediateSeries.make(ctx, Fraction(1, 3), Fraction(1, 2))
    T = TensorSpace(ModuleContext(w22_weight(1, 0, 1)), s)
    vac = PBWMonomial.make()
    for n in (-2, 0, 3):
        for m in (-1, 0, 4):
            coeff = tensor._series_coefficient(L(n), ctx.scalar(m), s)
            assert coeff.as_fraction() == -(
                Fraction(m) + Fraction(1, 3) + Fraction(1, 2) + n * Fraction(1, 2))
            assert T.act(L(n), T.vacuum_at(m)).terms[(m + n, vac)] == coeff
            assert tensor._series_coefficient(W(n), ctx.scalar(m), s).is_zero()
    sf = IntermediateSeries.make(ctx, 0, 0, F=Fraction(5, 7))
    Tf = TensorSpace(ModuleContext(hv_weight(1, 1, 0, 0)), sf)
    for n in (-1, 2):
        coeff = tensor._series_coefficient(I(n), ctx.scalar(3), sf)
        assert coeff.as_fraction() == Fraction(5, 7)
        assert Tf.act(I(n), Tf.vacuum_at(3)).terms[(3 + n, vac)] == coeff


def test_reducible_series_detection():
    ctx = PolyContext(())
    assert IntermediateSeries.make(ctx, 2, 0).excluded_index() == -2
    assert IntermediateSeries.make(ctx, 2, 1).excluded_index() == -3
    assert IntermediateSeries.make(ctx, Fraction(1, 2), 0).excluded_index() is None
    assert IntermediateSeries.make(ctx, 0, Fraction(1, 2)).excluded_index() is None
    assert IntermediateSeries.make(ctx, 0, 0, F=1).excluded_index() is None


# excluded_index() for F = 0, 1 and x, at each (alpha, beta); x is symbolic.
EXCLUDED_TABLE = {
    (2, 0): (-2, None, None),
    (2, 1): (-3, None, None),
    (2, "1/2"): (None, None, None),
    (2, "x"): (None, None, None),
    ("1/2", 0): (None, None, None),
    ("1/2", 1): (None, None, None),
    ("1/2", "1/2"): (None, None, None),
    ("1/2", "x"): (None, None, None),
    ("x", 0): (None, None, None),
    ("x", 1): (None, None, None),
    ("x", "1/2"): (None, None, None),
    ("x", "x"): (None, None, None),
}


def test_excluded_index_table():
    ctx = PolyContext(("x",))

    def value(v):
        return ctx.var("x") if v == "x" else ctx.scalar(Fraction(v))
    for (alpha, beta), row in EXCLUDED_TABLE.items():
        for F, expected in zip((0, 1, "x"), row):
            s = IntermediateSeries.make(ctx, value(alpha), value(beta), value(F))
            assert s.excluded_index() == expected, (alpha, beta, F)


def test_excluded_component_never_appears():
    hw = w22_weight(1, 2, 3)
    s = IntermediateSeries.make(hw.ctx, 0, 0)
    space = TensorSpace(ModuleContext(hw), s)
    x = space.vacuum_at(1)
    y = space.act(L(-1), x)  # would land on the excluded index 0
    assert all(m != 0 for m, _ in y.terms)
    with pytest.raises(ValueError):
        space.vacuum_at(0)


def test_action_reaches_any_index():
    """L_5 (v_0 (x) v) = (L_5 v_0) (x) v, as L_5 v = 0; by hand
    L_5 v_0 = -(0 + alpha + beta + 5 beta) v_5 = -10/3 v_5."""
    hw = w22_weight(1, 2, 3)
    s = IntermediateSeries.make(hw.ctx, Fraction(1, 3), Fraction(1, 2))
    space = TensorSpace(ModuleContext(hw), s)
    want = Vector(space, {(5, PBWMonomial.make()): hw.ctx.scalar(Fraction(-10, 3))})
    assert space.act(L(5), space.vacuum_at(0)) == want


def random_tensor_vector(space, rng, kind):
    low = W if kind == W22 else I
    start = rng.randint(-2, 2)
    if start == space.excluded:
        start += 1
    x = space.vacuum_at(start)
    for _ in range(rng.randint(0, 2)):
        fam = L if rng.random() < 0.5 else low
        x = space.act(fam(rng.randint(-2, 2)), x)
        if x.is_zero():
            return space.vacuum_at(start)
    return x


@pytest.mark.parametrize("kind,alpha,beta,f", [
    (W22, Fraction(1, 3), Fraction(1, 2), 0),
    (W22, 0, 0, 0),
    (W22, 1, 1, 0),
    (HV, Fraction(1, 3), Fraction(2, 5), Fraction(3, 4)),
    (HV, -1, 0, 0),
])
def test_tensor_action_respects_brackets(kind, alpha, beta, f):
    if kind == W22:
        hw = w22_weight(Fraction(2), Fraction(1, 2), Fraction(3))
        low = W
    else:
        hw = hv_weight(1, 2, 3, 5)
        low = I
    M = ModuleContext(hw)
    s = IntermediateSeries.make(hw.ctx, alpha, beta, f)
    space = TensorSpace(M, s)
    rng = random.Random(777)
    gens = [fam(n) for n in range(-2, 3) for fam in (L, low)]
    for _ in range(25):
        a = gens[rng.randrange(len(gens))]
        b = gens[rng.randrange(len(gens))]
        x = random_tensor_vector(space, rng, kind)
        lhs = space.act(a, space.act(b, x)) - space.act(b, space.act(a, x))
        rhs = space.zero()
        from vermatools.liealg import bracket

        for g, coeff in bracket(a, b, kind):
            rhs = rhs + space.act(g, x).scaled(M.scalar_ctx.scalar(coeff))
        assert lhs == rhs


def test_component_weights_are_homogeneous():
    """Acting by a mode-n generator keeps level minus index constant."""
    hw = w22_weight(1, 2, 3)
    s = IntermediateSeries.make(hw.ctx, Fraction(1, 3), 0)
    space = TensorSpace(ModuleContext(hw), s)
    x = space.vacuum_at(2)
    for word in ([L(-1)], [L(-2), W(-1)], [W(-1), L(1), L(-3)]):
        y = x
        for g in reversed(word):
            y = space.act(g, y)
        offsets = {mono.level - m for (m, mono) in y.terms}
        assert len(offsets) == 1
        assert offsets == {sum(-g.mode for g in word) - 2}


def _word_images_by_loop(space, degree, start, words=None):
    """Each PBW word, or each of ``words``, applied factor by factor,
    rightmost first: the nonzero images keyed by word, in basis order."""
    out = {}
    for m in verma.weight_space_basis(degree):
        if words is not None and m not in words:
            continue
        vec = start
        for g in reversed(m.as_word(space.kind)):
            vec = space.act(g, vec)
        if not vec.is_zero():
            out[m] = vec.terms
    return out


def _word_image_case(label):
    if label.startswith("w22"):
        ctx = PolyContext(("hW", "h") if "symbolic" in label else ())
        hW, h = (ctx.var("hW"), ctx.var("h")) if ctx.names else (1, 3)
        M = ModuleContext(HighestWeight.w22(ctx, c=1, h=h, hW=hW))
        return M, M.monomial_vector((1,), (2,))
    if label.startswith("hv"):
        ctx = PolyContext(("h", "hI") if "symbolic" in label else ())
        h, hI = (ctx.var("h"), ctx.var("hI")) if ctx.names else (3, 4)
        M = ModuleContext(HighestWeight.hv(ctx, cL=1, cLI=2, h=h, hI=hI, cI=0))
        return M, M.vacuum()
    if label == "tensor quotient":
        # u' = W_{-1} v at the vacuum weight, so every word with a W_{-1}
        # factor is zero in V / J'
        M = ModuleContext(w22_weight(1, 0, 0))
        s = IntermediateSeries.make(M.scalar_ctx, Fraction(1, 3), 0)
        space = TensorSpace(verma.quotient_l_prime(M, verma.u_prime(M, 1)), s)
        return space, space.vacuum_at(2)
    hw = subsingular_weight(2, 1)
    space = TensorSpace(ModuleContext(hw), IntermediateSeries.make(hw.ctx, 0, 0))
    assert space.excluded == 0
    return space, space.vacuum_at(3)


@pytest.mark.parametrize("label", ["w22", "w22 symbolic", "hv", "hv symbolic",
                                   "tensor quotient", "tensor primed"])
def test_word_images_match_factor_by_factor_loop(label):
    space, start = _word_image_case(label)
    walker = verma.WordWalker(space, start)
    for degree in range(7):
        expected = _word_images_by_loop(space, degree, start)
        assert list(walker.images(degree).items()) == list(expected.items())
        if label == "tensor quotient" and degree:
            assert len(expected) < len(verma.weight_space_basis(degree))
        # a subset of the words, each asked of a fresh walker: their images, and only theirs
        words = set(verma.weight_space_basis(degree)[degree % 3::3])
        chosen = _word_images_by_loop(space, degree, start, words)
        fresh = verma.WordWalker(space, start)
        images = {m: vec.terms for m in verma.weight_space_basis(degree)
                  if m in words and not (vec := fresh.image(m)).is_zero()}
        assert list(images.items()) == list(chosen.items()), degree
    assert walker.images(-1) == {}
    assert verma.WordWalker(space, space.zero()).images(3) == {}


# ---------------------------------------------------------------------------
# Cyclicity chains and the decision


def test_lambda_roots_are_the_break_indices():
    hw21 = subsingular_weight(2, 1)
    s = IntermediateSeries.make(hw21.ctx, 0, 0)
    for n in range(-3, 3):
        assert (elimination_product(n, 2, 1, 0, 0) == 0) == (n == -1)
        if n - 1 != s.excluded_index():
            assert cyclicity_check(hw21, s, n, 4) == (n != -1)

    hw12 = subsingular_weight(1, 2)
    s12 = IntermediateSeries.make(hw12.ctx, 0, 0)
    for n in range(-3, 3):
        assert (elimination_product(n, 1, 2, 0, 0) == 0) == (n in (-1, 0))
        if n - 1 != s12.excluded_index():
            assert cyclicity_check(hw12, s12, n, 4) == (n not in (-1, 0))


def test_decide_requires_both_vectors_for_irreducibility():
    s_frac = lambda ctx: IntermediateSeries.make(ctx, Fraction(1, 3), 0)

    hw_gen = w22_weight(5, 3, 1)
    d = decide_tensor(hw_gen, s_frac(hw_gen.ctx))
    assert (d.verdict, d.reason) == ("Reducible", "NoSubsingular")

    hw_only = w22_weight(-8, 0, 1)
    d2 = decide_tensor(hw_only, s_frac(hw_only.ctx))
    assert (d2.verdict, d2.reason) == ("Reducible", "NoSubsingular")
    assert d2.p == 2

    hw_both = subsingular_weight(2, 1)
    d3 = decide_tensor(hw_both, s_frac(hw_both.ctx))
    assert d3.verdict == "Irreducible"
    assert d3.reason == "ProductNonzero"
    assert not d3.witness.is_zero()


def test_decide_integral_shift_witness():
    hw = subsingular_weight(2, 1)
    s = IntermediateSeries.make(hw.ctx, 1, 0)  # t = 1
    d = decide_tensor(hw, s)
    assert (d.verdict, d.reason, d.witness) == ("Reducible", "IntegralShift", -2)
    s2 = IntermediateSeries.make(hw.ctx, 0, 1)  # t = alpha + (1-p) beta = -1
    d2 = decide_tensor(hw, s2)
    assert (d2.verdict, d2.witness) == ("Reducible", 0)


def test_decide_rejects_symbolic_and_nonzero_f():
    ctx = PolyContext(("alpha",))
    hw = HighestWeight.w22(ctx, c=1, h=0, hW=0)
    with pytest.raises(ValueError):
        decide_tensor(hw, IntermediateSeries(ctx.var("alpha"), ctx.zero, ctx.zero))
    hw2 = w22_weight(1, 0, 0)
    with pytest.raises(ValueError):
        decide_tensor(hw2, IntermediateSeries.make(hw2.ctx, 0, 0, F=1))


def test_verma_factor_chain_never_stabilizes():
    hw = subsingular_weight(2, 1)
    s = IntermediateSeries.make(hw.ctx, 0, 0)
    for n in (-1, 2):
        assert not cyclicity_check(hw, s, n, 4, quotient="verma")
    s_frac = IntermediateSeries.make(hw.ctx, Fraction(1, 2), 0)
    for n in (-1, 0, 2):
        assert not cyclicity_check(hw, s_frac, n, 4, quotient="verma")


def test_cyclicity_rejects_unknown_quotient_choice():
    hw = subsingular_weight(2, 1)
    s = IntermediateSeries.make(hw.ctx, Fraction(1, 2), 0)
    for choice in ("l", "lprime"):
        with pytest.raises(ValueError, match="unknown quotient choice"):
            cyclicity_check(hw, s, 0, 2, quotient=choice)


def test_layer_dimensions_match_free_modules(monkeypatch):
    """On the Verma module the leads prove each count P2(d) with no
    echelon; leads that collide raise, naming the degree."""
    eliminations = _tensor_eliminations(monkeypatch)
    hw = subsingular_weight(2, 1)
    s = IntermediateSeries.make(hw.ctx, Fraction(1, 2), 0)
    dims = subquotient_free_dims(hw, s, 0, 5)
    assert dims == {1: 2, 2: 5, 3: 10, 4: 20, 5: 36} and not eliminations
    # lowest index first: the rows lead with components below their tops
    monkeypatch.setattr(tensor, "_column_key", lambda col: (col[0], col[1].sort_key()))
    with pytest.raises(ValueError, match="at degree 1$"):
        subquotient_free_dims(hw, s, 0, 2)


def test_cyclicity_rejects_excluded_target():
    hw = subsingular_weight(2, 1)
    s = IntermediateSeries.make(hw.ctx, 0, 0)  # excluded index 0
    with pytest.raises(ValueError, match="excluded"):
        cyclicity_check(hw, s, 1, 4)


_HW = subsingular_weight(2, 1)
_PRIMED = IntermediateSeries.make(_HW.ctx, 1, 0)  # excluded index -1


@pytest.mark.parametrize("call,message", [
    (lambda: TensorSpace(ModuleContext(_HW), _PRIMED).vacuum_at(-1),
     "index -1 is excluded from the primed series"),
    (lambda: subquotient_weight(_HW, _PRIMED, -1), "index -1 is excluded from the primed series"),
    (lambda: cyclicity_check(_HW, _PRIMED, 0, -1), "depth must be nonnegative"),
    (lambda: cyclicity_check(_HW, _PRIMED, 0, 2),
     "target index is excluded from the primed series"),
    (lambda: decide_tensor(hv_weight(1, 1, 3, 1), _PRIMED),
     "decide_tensor handles the first algebra; use decide_tensor_hv"),
    (lambda: decide_tensor_hv(_HW, _PRIMED),
     "decide_tensor_hv handles the twisted algebra; use decide_tensor"),
    (lambda: decide_tensor(_HW, IntermediateSeries.make(_HW.ctx, 1, 0, F=2)),
     "the series parameter F must vanish for this algebra"),
    (lambda: TensorSpace(ModuleContext(_HW), _PRIMED).vacuum_at(Fraction(1, 2)),
     "index must be an integer, not Fraction(1, 2)"),
    (lambda: TensorSpace(ModuleContext(_HW), _PRIMED).vacuum_at(True),
     "index must be an integer, not True"),
    (lambda: TensorSpace(ModuleContext(_HW), _PRIMED).vacuum_at(0.5),
     "index must be an integer, not 0.5"),
    (lambda: subquotient_free_dims(_HW, _PRIMED, Fraction(1, 2), 2),
     "index must be an integer, not Fraction(1, 2)"),
    (lambda: subquotient_weight(_HW, _PRIMED, Fraction(1, 2)),
     "index must be an integer, not Fraction(1, 2)"),
    (lambda: subquotient_weight(_HW, _PRIMED, True), "index must be an integer, not True"),
    (lambda: cyclicity_check(_HW, _PRIMED, Fraction(1, 2), 2),
     "index must be an integer, not Fraction(1, 2)"),
], ids=["vacuum-excluded", "layer-excluded", "negative-depth", "target-excluded",
        "twisted-weight", "w22-weight", "nonzero-F", "fraction-index", "bool-index",
        "float-index", "fraction-layer", "fraction-layer-weight", "bool-layer-weight",
        "fraction-target"])
def test_refusal_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("n,message", [
    (True, "index must be an integer, not True"),
    (Fraction(1, 2), "index must be an integer, not Fraction(1, 2)"),
    (-1, "index -1 is excluded from the primed series"),
], ids=["bool", "fraction", "excluded"])
def test_free_dims_refuses_its_index_before_any_span(monkeypatch, n, message):
    def no_span(*_args, **_kwargs):
        raise AssertionError("a span was built before the index was checked")
    monkeypatch.setattr(tensor, "WordWalker", no_span)
    with pytest.raises(ValueError) as info:
        subquotient_free_dims(_HW, _PRIMED, n, 2)
    assert str(info.value) == message


def test_decide_tensor_builds_each_quotient_echelon_once(monkeypatch):
    """classify solves u in V / J' and extends that quotient to V / J with
    V / J''s walkers, so the witness elimination computes no word image of
    a relation that the subsingular solve computed."""
    computed, image = [], verma.WordWalker.image

    def recorded(walker, mono):
        if isinstance(walker.space, ModuleContext) and mono not in walker._images:
            computed.append((id(walker.start), mono))
        return image(walker, mono)
    monkeypatch.setattr(verma.WordWalker, "image", recorded)
    hw = subsingular_weight(2, 3)
    d = decide_tensor(hw, IntermediateSeries.make(hw.ctx, Fraction(1, 3), Fraction(2, 7)))
    assert (d.verdict, d.p, d.r) == ("Irreducible", 2, 3)
    assert computed and len(set(computed)) == len(computed)


# ---------------------------------------------------------------------------
# Oracle: the same spans eliminated densely over Fractions, without linalg


def _dense_rank(rows: list) -> int:
    """Rank of term-dict rows by plain Gaussian elimination over Fractions."""
    columns = sorted({col for row in rows for col in row}, key=repr)
    matrix = [[row[col].as_fraction() if col in row else Fraction(0)
               for col in columns] for row in rows]
    rank = 0
    for j in range(len(columns)):
        piv = next((i for i in range(rank, len(matrix)) if matrix[i][j]), None)
        if piv is None:
            continue
        matrix[rank], matrix[piv] = matrix[piv], matrix[rank]
        top = matrix[rank]
        for i in range(rank + 1, len(matrix)):
            if matrix[i][j]:
                f = matrix[i][j] / top[j]
                matrix[i] = [x - f * y if y else x for x, y in zip(matrix[i], top)]
        rank += 1
    return rank


def _dense_cyclic(hw, s, n, depth, quotient):
    """cyclicity_check's answer for the whole range of starts: is v_{n-1} (x) v in the span of
    every start's word images?"""
    M = ModuleContext(hw)
    if quotient == "auto":
        M = verma.classify(M).quotient or M
    space = TensorSpace(M, s)
    rows = [row for k in range(n, n + depth + 1) if k != space.excluded
            for row in verma.WordWalker(space, space.vacuum_at(k)).images(k - (n - 1)).values()]
    target = {(n - 1, PBWMonomial.make()): M.scalar_ctx.one}
    return _dense_rank(rows + [target]) == _dense_rank(rows)


def _dense_free_dims(hw, s, n, max_level):
    """subquotient_free_dims by ranks: new directions of the words on
    v_n (x) v beyond those on v_{n+1} (x) v and v_{n+2} (x) v."""
    space = TensorSpace(ModuleContext(hw), s)
    dims = {}
    for d in range(1, max_level + 1):
        higher = [row for k in (n + 1, n + 2) if k != space.excluded
                  for row in verma.WordWalker(space, space.vacuum_at(k)).images(d + k - n).values()]
        own = list(verma.WordWalker(space, space.vacuum_at(n)).images(d).values())
        dims[d] = _dense_rank(higher + own) - _dense_rank(higher)
    return dims


ORACLE_WEIGHTS = {
    "sub21": subsingular_weight(2, 1), "sub31": subsingular_weight(3, 1),
    "sub22": subsingular_weight(2, 2), "irr": w22_weight(1, 3, 5),
    "vacuum": w22_weight(1, 0, 0),
}
ORACLE_SERIES = [(a, b) for a in (Fraction(0), Fraction(1, 2), Fraction(1, 3))
                 for b in (Fraction(0), Fraction(1, 2), Fraction(1))]


def _tensor_eliminations(monkeypatch) -> list:
    """Record each echelon that a tensor span builds (the ones pivoting by
    tensor._column_key) in the returned list."""
    built = []

    class Recording(linalg.Echelon):
        def __init__(self, key=None, **kw):
            if key is tensor._column_key:
                built.append(key)
            super().__init__(key, **kw)
    monkeypatch.setattr(linalg, "Echelon", Recording)
    return built


@pytest.mark.parametrize("name", ORACLE_WEIGHTS)
def test_cyclicity_matches_dense_elimination(name, monkeypatch):
    """Every (alpha, beta), n in [-3, 2] and both quotients, at depths 0-4
    in turn, against the whole span eliminated densely.  On the Verma
    module ("verma", or "auto" at "irr") the leading columns prove every
    answer False with no elimination; "auto" at a reducible weight takes
    both paths, the leads alone and the elimination after a collision."""
    hw = ORACLE_WEIGHTS[name]
    eliminations = _tensor_eliminations(monkeypatch)
    answers, eliminated = set(), set()
    for i, (a, b) in enumerate(ORACLE_SERIES):
        s = IntermediateSeries.make(hw.ctx, a, b)
        for n in range(-3, 3):
            if n - 1 == s.excluded_index():
                continue
            for quotient in ("auto", "verma"):
                depth = (i + n) % 5
                want = _dense_cyclic(hw, s, n, depth, quotient)
                before = len(eliminations)
                assert cyclicity_check(hw, s, n, depth, quotient) == want, (a, b, n, quotient)
                answers.add(want)
                if quotient == "verma" or name == "irr":
                    assert (want, len(eliminations)) == (False, before)
                else:
                    eliminated.add(len(eliminations) > before)
    assert answers == {True, False} or name == "irr"
    assert eliminated == (set() if name == "irr" else {True, False})


def test_distinct_leads_certify_independence():
    """Leading columns, each row's least under _column_key, that are
    pairwise distinct prove the rows independent; rows whose leads
    collide, with each other or with the target's, prove nothing."""
    one = PolyContext(()).one
    a, b, c = ((k, PBWMonomial.make()) for k in (2, 1, 0))
    assert tensor._column_key(a) < tensor._column_key(b) < tensor._column_key(c)
    rows = [{a: one, b: one}, {b: one, c: one}]
    leads = set()
    assert tensor._distinct_leads(leads, rows) and leads == {a, b}
    assert _dense_rank(rows) == 2
    # independent rows whose trailing columns differ, but not their leads
    assert not tensor._distinct_leads(set(), [{a: one, b: one}, {a: one, c: one}])
    # the target c stays outside the span of a row that does not lead with c ...
    assert tensor._distinct_leads({c}, [{b: one, c: one}])
    assert _dense_rank([{b: one, c: one}, {c: one}]) == 2
    # ... and is not certified against a row that leads with it
    assert not tensor._distinct_leads({c}, [{b: one, c: one}, {c: one + one}])


@pytest.mark.parametrize("name", ORACLE_WEIGHTS)
def test_free_dims_match_dense_elimination(name):
    hw = ORACLE_WEIGHTS[name]
    for a in (Fraction(0), Fraction(1, 2), Fraction(1, 3)):
        s = IntermediateSeries.make(hw.ctx, a, 0)
        for n in (0, 1, 2):
            if n == s.excluded_index():
                with pytest.raises(ValueError, match="excluded"):
                    subquotient_free_dims(hw, s, n, 3)
                continue
            assert subquotient_free_dims(hw, s, n, 3) == _dense_free_dims(hw, s, n, 3)


def test_cyclicity_stops_at_its_first_proof(monkeypatch):
    """A chain that answers True builds fewer than all depth + 1 starts."""
    hw = subsingular_weight(2, 1)
    s = IntermediateSeries.make(hw.ctx, Fraction(1, 3), 0)
    starts = []

    class Counting(verma.WordWalker):
        def images(self, degree):
            starts.append(degree)
            return super().images(degree)

    monkeypatch.setattr(tensor, "WordWalker", Counting)
    depth = 8
    assert cyclicity_check(hw, s, 0, depth)
    assert 0 < len(starts) < depth + 1


def test_subquotient_weight_arithmetic():
    hw = w22_weight(1, Fraction(5, 2), 3)
    s = IntermediateSeries.make(hw.ctx, Fraction(1, 3), Fraction(1, 2))
    wq = subquotient_weight(hw, s, 2)
    assert wq["h"].as_fraction() == Fraction(5, 2) - (2 + Fraction(1, 3) + Fraction(1, 2))
    assert wq["c"] == hw["c"] and wq["hW"] == hw["hW"]
    hv = hv_weight(1, 2, 3, 5)
    sf = IntermediateSeries.make(hv.ctx, 0, Fraction(1, 2), F=Fraction(1, 4))
    wq2 = subquotient_weight(hv, sf, -1)
    assert wq2["hI"].as_fraction() == 5 + Fraction(1, 4)
    assert wq2["h"].as_fraction() == 3 - (-1 + 0 + Fraction(1, 2))
    s_prime = IntermediateSeries.make(hw.ctx, 2, 0)
    with pytest.raises(ValueError):
        subquotient_weight(hw, s_prime, -2)


_LAMBDA_GRID = [(2, 1), (1, 2), (3, 1), (2, 2), (1, 3), (3, 2), (2, 3), (2, 4), (4, 2),
                (2, 5), (5, 2), (10, 1)]
# every (p, r) that classify reaches: rp <= 10
_LAMBDA_PAIRS = [(p, r) for p in range(1, 11) for r in range(1, 11) if r * p <= 10]


def _lambda_weight(p, r, hW=None):
    """The weight with u' at level p and a subsingular vector at level rp:
    hW = 0 (and c = 5) at p = 1, else hW = 1 unless given."""
    if p == 1:
        return w22_weight(5, verma.necessary_h(1, r, Fraction(0)), 0)
    hW = Fraction(1 if hW is None else hW)
    return w22_weight(-24 * hW / (p * p - 1), verma.necessary_h(p, r, hW), hW)


# two series on the grid, two more on its points with rp <= 6, one on the
# other pairs, and one weight with hW = 2
_LAMBDA_CASES = (
    [(p, r, a, b, None) for a, b in [(Fraction(1, 3), 0), (Fraction(2, 7), 5)]
     for p, r in _LAMBDA_GRID]
    + [(p, r, a, b, None) for a, b in [(Fraction(1, 2), 1), (Fraction(-5, 4), Fraction(-3, 2))]
       for p, r in _LAMBDA_GRID if r * p <= 6]
    + [(p, r, Fraction(1, 3), 0, None) for p, r in _LAMBDA_PAIRS if (p, r) not in _LAMBDA_GRID]
    + [(3, 2, Fraction(1, 3), Fraction(2, 7), 2)])


@pytest.mark.parametrize("p,r,alpha,beta,hW", _LAMBDA_CASES,
                         ids=[f"{p}-{r}-a={a}-b={b}" + ("" if hW is None else f"-hW={hW}")
                              for p, r, a, b, hW in _LAMBDA_CASES])
def test_w22_elimination_is_minus_lambda(p, r, alpha, beta, hW):
    """The twisted certificate's elimination over Q(n), alpha shifted by n,
    run on W(2,2): the subsingular vector applied to v_{rp-1} (x) v in V/J
    leaves -lambda(n) on v_{-1} (x) v, as a polynomial in n, where
    lambda(n) is the paper's closed form."""
    hw = _lambda_weight(p, r, hW)
    rep, space = tensor._indexed(hw, IntermediateSeries.make(hw.ctx, alpha, beta))
    assert (rep.verdict, rep.p, rep.r) == ("UprimeAndSubsingular", p, r)
    lam = tensor._eliminate_to_target(space, rep.u, -1)
    # degree r and r + 1 values fix the polynomial
    assert lam.degree_in("n") == r
    for n in range(r + 1):
        value = sum(lam.coeff_of("n", k).as_fraction() * n ** k for k in range(r + 1))
        assert value == -elimination_product(n, p, r, alpha, beta), n


@pytest.mark.parametrize("p,r", _LAMBDA_PAIRS, ids=[f"{p}-{r}" for p, r in _LAMBDA_PAIRS])
def test_w22_certificate_is_lambda_as_an_identity(p, r):
    """Over Q(hW, a, b), or Q(c, a, b) at p = 1 where hW = 0, with the series
    (a, b): the witness elimination leaves exactly the paper's lambda(0), as a
    rational function.  The index only shifts a, so this is lambda(n) too."""
    if p == 1:
        ctx = PolyContext(("c", "a", "b"))
        hw = HighestWeight.w22(ctx, c=ctx.var("c"), h=verma.necessary_h(1, r, Fraction(0)), hW=0)
    else:
        ctx = PolyContext(("hW", "a", "b"))
        hW = ctx.var("hW")
        hw = HighestWeight.w22(ctx, c=hW * Fraction(-24, p * p - 1),
                               h=verma.necessary_h(p, r, hW), hW=hW)
    rep = verma.classify(ModuleContext(hw))
    assert (rep.verdict, rep.p, rep.r) == ("UprimeAndSubsingular", p, r)
    a, b = ctx.var("a"), ctx.var("b")
    space = TensorSpace(rep.quotient, IntermediateSeries.make(ctx, a, b))
    assert -tensor._eliminate_to_target(space, rep.u, -1) == elimination_product(0, p, r, a, b)


@pytest.mark.parametrize("p,r,hW", [(p, r, None) for p, r in _LAMBDA_PAIRS] + [(2, 3, -1)],
                         ids=[f"{p}-{r}" for p, r in _LAMBDA_PAIRS] + ["2-3-hW=-1"])
def test_decide_tensor_witness_is_lambda_at_zero(p, r, hW):
    """decide_tensor eliminates at n = 0 over the series' own field; its
    witness is the paper's lambda(0) at every (p, r) that classify reaches."""
    hw = _lambda_weight(p, r, hW)
    alpha, beta = Fraction(1, 3), Fraction(2, 7)
    d = decide_tensor(hw, IntermediateSeries.make(hw.ctx, alpha, beta))
    assert (d.verdict, d.reason, d.p, d.r) == ("Irreducible", "ProductNonzero", p, r)
    assert d.witness.as_fraction() == elimination_product(0, p, r, alpha, beta)


@pytest.mark.parametrize("hw_names,s_names", [((), ("t",)), (("t",), ()), ((), ("n",))])
def test_decide_tensor_series_field_may_differ(hw_names, s_names):
    """Numeric weights and series parameters decide alike whatever fields
    carry them; the witness lives in the series' field, whose parameters
    may have any names."""
    hw = HighestWeight.w22(PolyContext(hw_names), c=-8, h=Fraction(9, 4), hW=1)
    s = IntermediateSeries.make(PolyContext(s_names), Fraction(1, 3), Fraction(2, 7))
    d = decide_tensor(hw, s)
    assert (d.verdict, d.p, d.r) == ("Irreducible", 2, 2)
    assert d.witness.ctx is s.ctx and d.witness.as_fraction() == Fraction(1408, 441)


# ---------------------------------------------------------------------------
# Twisted Heisenberg-Virasoro certificates and decisions


def test_certificate_values_level_one():
    # pure-I degeneracy at p = 1: the descent certificate is s(F) = 1
    hw_i = hv_weight(1, 2, 3, 4)  # hI / cLI = 2 = 1 + p
    s = IntermediateSeries.make(hw_i.ctx, Fraction(1, 3), 0, F=1)
    cert = hv_decision_polynomials(hw_i, s, 1)
    assert cert.case == "I"
    assert cert.s_poly == cert.s_poly.ctx.one

    # L-case at p = 1: u'(v_{n+1} (x) v) = (-n - 1 - alpha + (h/cLI) F) v_n (x) v
    hw_l = hv_weight(1, 2, 5, 0)  # hI / cLI = 0 = 1 - p
    sl = IntermediateSeries.make(hw_l.ctx, Fraction(1, 3), 0, F=1)
    cert_l = hv_decision_polynomials(hw_l, sl, 1)
    assert cert_l.case == "L"
    ectx = cert_l.q_poly.ctx
    F = ectx.var("F")
    assert cert_l.q_poly == -ectx.one
    assert cert_l.r_poly == ectx.scalar(Fraction(-4, 3)) + F * Fraction(5, 2)


def test_certificate_value_level_two():
    hw = hv_weight(1, 2, 3, 6)  # hI / cLI = 3 = 1 + p with p = 2
    s = IntermediateSeries.make(hw.ctx, 0, 0, F=1)
    cert = hv_decision_polynomials(hw, s, 2)
    ectx = cert.s_poly.ctx
    assert cert.s_poly == ectx.one + ectx.var("F") / 2


def _binomial(top, k):
    """C(top, k), as a product of k factors."""
    out = top.ctx.one
    for i in range(k):
        out = out * (top - i) / (i + 1)
    return out


@pytest.mark.parametrize("p", range(1, 9))
def test_certificate_closed_forms(p):
    """Over Q(h, cL, cLI, alpha, beta): s(F) = C(F/cLI + p - 1, p - 1) in
    case I and q(F) = (-1)^p C(F/cLI - 1, p - 1) in case L, both nonzero
    polynomials in F, so a symbolic F never makes the certificate vanish."""
    ctx = PolyContext(("h", "cL", "cLI", "alpha", "beta"))
    h, cL, cLI, alpha, beta = (ctx.var(x) for x in ctx.names)
    s = IntermediateSeries(alpha, beta, ctx.one)
    cert_i = hv_decision_polynomials(
        HighestWeight.hv(ctx, cL=cL, cLI=cLI, h=h, hI=(1 + p) * cLI, cI=0), s, p)
    ectx = cert_i.s_poly.ctx
    x = ectx.var("F") / ectx.var("cLI")
    assert cert_i.s_poly == _binomial(x + p - 1, p - 1)
    cert_l = hv_decision_polynomials(
        HighestWeight.hv(ctx, cL=cL, cLI=cLI, h=h, hI=(1 - p) * cLI, cI=0), s, p)
    assert cert_l.q_poly == (-1) ** p * _binomial(x - 1, p - 1)


_CERTIFICATE_POINTS = [(p, case, names) for names in ((), ("cLI",))
                       for p, case in ((1, "I"), (2, "I"), (1, "L"), (2, "L"))]


@pytest.mark.parametrize("p,case,names", _CERTIFICATE_POINTS,
                         ids=["-".join(map(str, (p, case) + names))
                              for p, case, names in _CERTIFICATE_POINTS])
def test_certificate_degrees(p, case, names):
    # cLI = 2, or cLI formal: hI = (1 + p) cLI (case I) or (1 - p) cLI (case L)
    ctx = PolyContext(names)
    cLI = ctx.var("cLI") if names else ctx.scalar(2)
    hw = HighestWeight.hv(ctx, cL=1, cLI=cLI, h=3, hI=cLI * (1 + p if case == "I" else 1 - p))
    s = IntermediateSeries.make(ctx, Fraction(1, 3), 0, F=1)
    cert = hv_decision_polynomials(hw, s, p)
    assert (cert.case, cert.p) == (case, p)
    if case == "I":
        assert cert.s_poly.degree_in("F") == p - 1
    else:
        assert cert.q_poly.degree_in("F") == p - 1
        assert cert.r_poly.degree_in("F") == p


def _refusal(hw, p):
    s = IntermediateSeries.make(hw.ctx, Fraction(1, 3), 0, F=1)
    with pytest.raises(ValueError) as info:
        hv_decision_polynomials(hw, s, p)
    return str(info.value)


def test_certificate_refusals():
    # degenerate, but at another level than the one asked for
    assert _refusal(hv_weight(1, 2, 3, 6), 3) == "weight is not degenerate at p=3"
    assert _refusal(hv_weight(1, 2, 3, 6), 1) == "weight is not degenerate at p=1"
    assert _refusal(hv_weight(1, 2, 3, -2), 1) == "weight is not degenerate at p=1"
    assert _refusal(hv_weight(1, 2, 3, 3), 1) == "weight is not degenerate at p=1"
    ctx = PolyContext(())
    assert _refusal(HighestWeight.hv(ctx, cL=1, cLI=0, h=3, hI=0, cI=1), 1) == (
        "requires c_I = 0 and c_LI nonzero")
    assert _refusal(HighestWeight.hv(ctx, cL=1, cLI=2, h=3, hI=4, cI=1), 1) == (
        "requires c_I = 0 and c_LI nonzero")
    for p in (0, -1):
        assert _refusal(hv_weight(1, 2, 3, 2 * (1 - p)), p) == "p must be a positive integer"
    assert _refusal(w22_weight(-8, 1, 1), 2) == "certificates exist for the twisted algebra only"
    nctx = PolyContext(("n",))
    reserved = HighestWeight.hv(nctx, cL=1, cLI=2, h=nctx.var("n"), hI=4, cI=0)
    assert _refusal(reserved, 1) == "the parameter name 'n' is reserved for the series index"


@pytest.mark.parametrize("case,lam,message", [
    ("L", lambda n: n * n, "certificate is not linear in the index"),
    ("I", lambda n: n, "unexpected index dependence in the pure-I certificate"),
], ids=["L", "I"])
def test_certificate_refuses_an_elimination_of_the_wrong_degree_in_n(monkeypatch, case, lam,
                                                                      message):
    """The certificate is linear in the index n in case L and free of it in
    case I; an elimination that breaks this is refused."""
    monkeypatch.setattr(tensor, "_eliminate_to_target",
                        lambda space, u, target: lam(space.scalar_ctx.var("n")))
    hw = hv_weight(1, 2, 3, 2 * (1 + 2 if case == "I" else 1 - 2))
    with pytest.raises(ValueError, match=f"^degenerate elimination: {message}$"):
        hv_decision_polynomials(hw, IntermediateSeries.make(hw.ctx, Fraction(1, 3), 0, F=1), 2)


@pytest.mark.parametrize("lowest_index_first,message", [
    (False, "the reduction left components away from the target index"),
    (True, "an intermediate word reduced to the bare target vector"),
], ids=["highest index first", "lowest index first"])
def test_elimination_refuses_a_vector_that_is_not_singular(monkeypatch, lowest_index_first,
                                                           message):
    """L_{-1}^2 v is not singular, so on v_1 (x) v its image keeps components
    away from v_{-1} (x) v; pivoting the lowest index first makes the degree-1
    word on v_0 (x) v pivot on the bare target, which is refused first."""
    if lowest_index_first:
        monkeypatch.setattr(tensor, "_column_key", lambda col: (col[0], col[1].sort_key()))
    hw = w22_weight(-8, Fraction(1, 3), 1)
    M = ModuleContext(hw)
    space = TensorSpace(M, IntermediateSeries.make(hw.ctx, Fraction(1, 3), Fraction(2, 7)))
    with pytest.raises(ValueError, match=f"^degenerate elimination: {message}$"):
        tensor._eliminate_to_target(space, M.monomial_vector((), (1, 1)), -1)


def test_certificate_walks_only_the_suffixes_of_u_prime(monkeypatch):
    """Applying u' asks the walker on v_top (x) v for u''s words only, and
    costs at most one action per distinct nonempty suffix of them, not one
    per word of its degree."""
    calls, walkers = [], []
    act = TensorSpace.act

    def counting_act(space, g, x):
        calls.append(g)
        return act(space, g, x)

    class Recording(verma.WordWalker):
        """Records the degree-8 words asked of it, and the actions made
        from its creation on."""
        def __init__(self, space, start):
            super().__init__(space, start)
            self.asked, self.acts_before = set(), len(calls)
            walkers.append(self)

        def image(self, mono):
            if mono.level == 8:
                self.asked.add(mono)
            return super().image(mono)

    monkeypatch.setattr(TensorSpace, "act", counting_act)
    monkeypatch.setattr(tensor, "WordWalker", Recording)
    hw = hv_weight(1, 1, 3, 1 + 8)
    cert = hv_decision_polynomials(hw, IntermediateSeries.make(hw.ctx, Fraction(1, 3), 0, F=1), 8)
    assert cert.case == "I"
    # the walker on v_top (x) v, top = target + 8, is made last
    top = walkers[-1]
    words = set(verma.u_prime(ModuleContext(hw), 8).terms)
    assert top.asked == words
    suffixes = {m.as_word(HV)[i:] for m in words for i in range(len(m.as_word(HV)))}
    assert 0 < len(calls) - top.acts_before <= len(suffixes)


def test_certificate_beyond_budget_is_refused():
    hw = hv_weight(1, 2, 3, 2 * (1 + 11))
    s = IntermediateSeries.make(hw.ctx, Fraction(1, 3), 0, F=1)
    with pytest.raises(verma.OutOfReach, match="p = 11"):
        hv_decision_polynomials(hw, s, 11)


def test_hv_vacuum_decisions():
    hw = hv_weight(1, 2, 0, 0)
    d = decide_tensor_hv(hw, IntermediateSeries.make(hw.ctx, Fraction(1, 2), 0, F=5))
    assert d.verdict == "Irreducible"
    d2 = decide_tensor_hv(hw, IntermediateSeries.make(hw.ctx, -3, 1, F=5))
    assert (d2.verdict, d2.reason, d2.witness) == ("Reducible", "IntegralShift", 3)


def test_hv_generic_ratio_is_reducible():
    hw = hv_weight(1, 2, 3, 3)  # ratio 3/2, not an integer
    d = decide_tensor_hv(hw, IntermediateSeries.make(hw.ctx, 0, 0))
    assert (d.verdict, d.reason) == ("Reducible", "NoSubsingular")
    hw1 = hv_weight(1, 2, 3, 2)  # ratio 1: no degeneracy at any level
    d1 = decide_tensor_hv(hw1, IntermediateSeries.make(hw1.ctx, 0, 0))
    assert (d1.verdict, d1.reason) == ("Reducible", "NoSubsingular")


def test_hv_pure_i_case_matrix():
    hw = hv_weight(1, 2, 3, 6)  # I-case, p = 2, s(F) = 1 + F/2
    make = lambda f: IntermediateSeries.make(hw.ctx, Fraction(1, 3), 0, F=f)
    assert decide_tensor_hv(hw, make(0)).verdict == "Reducible"
    d_irr = decide_tensor_hv(hw, make(3))
    assert d_irr.verdict == "Irreducible"
    assert d_irr.witness.as_fraction() == Fraction(15, 2)
    root_note = ("F = -2 is a root of the certificate polynomial F s(F); "
                 "the criterion is silent here",)
    d_unknown = decide_tensor_hv(hw, make(-2))
    assert (d_unknown.verdict, d_unknown.witness, d_unknown.notes) == ("Unknown", None, root_note)
    # the golden case-I root weight
    hw0 = hv_weight(1, 2, 0, 6)
    d0 = decide_tensor_hv(hw0, IntermediateSeries.make(hw0.ctx, Fraction(1, 2), 0, F=-2))
    assert (d0.verdict, d0.reason, d0.witness, d0.p, d0.notes) == (
        "Unknown", None, None, 2, root_note)


def test_hv_l_case_matrix():
    hw = hv_weight(1, 1, 2, 0)  # L-case, p = 1, certificate -n - 1 - alpha + 2F
    make = lambda a, f: IntermediateSeries.make(hw.ctx, a, 0, F=f)
    assert decide_tensor_hv(hw, make(Fraction(1, 2), 0)).verdict == "Irreducible"
    d_shift = decide_tensor_hv(hw, make(-1, 0))
    assert (d_shift.verdict, d_shift.reason, d_shift.witness) == (
        "Reducible", "IntegralShift", 1)
    # q n + r with q = -1, r = -1 - alpha + 2F: F = 1, alpha = 0 vanishes at n = 1
    d_root = decide_tensor_hv(hw, make(0, 1))
    assert (d_root.verdict, d_root.reason, d_root.witness, d_root.notes) == (
        "Unknown", None, None, ("the certificate q(F) n + r(F) vanishes at index n = 1; "
                                "the criterion is silent there",))
    assert decide_tensor_hv(hw, make(0, Fraction(1, 3))).verdict == "Irreducible"


def test_hv_symbolic_f_is_transcendental():
    ctx = PolyContext(("F",))
    hw = HighestWeight.hv(ctx, cL=1, cLI=2, h=3, hI=6, cI=0)
    s = IntermediateSeries(ctx.scalar(Fraction(1, 3)), ctx.zero, ctx.var("F"))
    d = decide_tensor_hv(hw, s)
    assert d.verdict == "Irreducible"

    hw_l = HighestWeight.hv(ctx, cL=1, cLI=1, h=2, hI=0, cI=0)
    sl = IntermediateSeries(ctx.zero, ctx.zero, ctx.var("F"))
    dl = decide_tensor_hv(hw_l, sl)
    assert dl.verdict == "Irreducible"


def test_hv_symbolic_f_root_for_every_f():
    """Case L at p = 2 where -r(F) / q(F) is the integer -2 for every F."""
    ctx = PolyContext(("F",))
    hw = HighestWeight.hv(ctx, cL=26, cLI=1, h=-1, hI=-1, cI=0)
    d = decide_tensor_hv(hw, IntermediateSeries(ctx.zero, ctx.zero, ctx.var("F")))
    assert (d.verdict, d.reason, d.witness, d.p, d.notes) == (
        "Unknown", None, None, 2, ("the certificate vanishes at index n = -2 for "
                                   "every F; the criterion is silent there",))


_IRR_I_CONST = "F s(F) is nonzero"
_IRR_I_SYM = "F transcendental: F s(F) cannot vanish"
_IRR_L_CONST = "q(F) n + r(F) is nonzero at every integer index"
_IRR_L_SYM = "F transcendental: q(F) n + r(F) has no integer root"

# The certificate branch of decide_tensor_hv at cL = 0, cLI = 1, h = 3,
# alpha = 1/3, beta = 0, hI = (1 + p) cLI (case I) or (1 - p) cLI (case L):
# (case, p, F, verdict, witness, note); F = "F" is a symbolic F.  No weight
# here has an integer root of q(F) n + r(F); test_hv_l_case_matrix has one.
_HV_CERTIFICATE_TABLE = [
    ("I", 1, 3, "Irreducible", "3", _IRR_I_CONST),
    ("I", 1, Fraction(-1, 2), "Irreducible", "-1/2", _IRR_I_CONST),
    ("I", 1, "F", "Irreducible", "F", _IRR_I_SYM),
    ("I", 2, 3, "Irreducible", "12", _IRR_I_CONST),
    ("I", 2, Fraction(-1, 2), "Irreducible", "-1/4", _IRR_I_CONST),
    ("I", 2, "F", "Irreducible", "F^2 + F", _IRR_I_SYM),
    ("I", 3, 3, "Irreducible", "30", _IRR_I_CONST),
    ("I", 3, Fraction(-1, 2), "Irreducible", "-3/16", _IRR_I_CONST),
    ("I", 3, "F", "Irreducible", "(F^3 + 3*F^2 + 2*F)/2", _IRR_I_SYM),
    ("I", 4, 3, "Irreducible", "60", _IRR_I_CONST),
    ("I", 4, Fraction(-1, 2), "Irreducible", "-5/32", _IRR_I_CONST),
    ("I", 4, "F", "Irreducible", "(F^4 + 6*F^3 + 11*F^2 + 6*F)/6", _IRR_I_SYM),
    ("L", 1, 3, "Irreducible", "23/3", _IRR_L_CONST),
    ("L", 1, Fraction(-1, 2), "Irreducible", "-17/6", _IRR_L_CONST),
    ("L", 1, "F", "Irreducible", "(9*F - 4)/3", _IRR_L_SYM),
    ("L", 2, 3, "Irreducible", "-22/3", _IRR_L_CONST),
    ("L", 2, Fraction(-1, 2), "Irreducible", "-389/96", _IRR_L_CONST),
    ("L", 2, "F", "Irreducible", "(-35*F^2 + 65*F - 56)/24", _IRR_L_SYM),
    ("L", 3, 3, "Irreducible", "11/4", _IRR_L_CONST),
    ("L", 3, Fraction(-1, 2), "Irreducible", "-185/32", _IRR_L_CONST),
    ("L", 3, "F", "Irreducible", "(17*F^3 - 72*F^2 + 136*F - 120)/36", _IRR_L_SYM),
    ("L", 4, 3, "Unknown", None, "the certificate vanishes identically at F = 3"),
    ("L", 4, Fraction(-1, 2), "Irreducible", "-4025/512", _IRR_L_CONST),
    ("L", 4, "F", "Irreducible",
     "(-33*F^4 + 250*F^3 - 831*F^2 + 1550*F - 1248)/288", _IRR_L_SYM),
]


@pytest.mark.parametrize("case,p,f,verdict,witness,note", _HV_CERTIFICATE_TABLE,
                         ids=[f"{c}-{p}-F={f}" for c, p, f, *_ in _HV_CERTIFICATE_TABLE])
def test_hv_certificate_verdict_table(case, p, f, verdict, witness, note):
    ctx = PolyContext(("F",) if f == "F" else ())
    hw = HighestWeight.hv(ctx, cL=0, cLI=1, h=3, hI=1 + p if case == "I" else 1 - p, cI=0)
    F = ctx.var("F") if f == "F" else ctx.scalar(f)
    d = decide_tensor_hv(hw, IntermediateSeries(ctx.scalar(Fraction(1, 3)), ctx.zero, F))
    assert (d.verdict, d.p, d.r, d.notes) == (verdict, p, None, (note,))
    if witness is None:
        assert (d.reason, d.witness) == (None, None)
    else:
        assert d.reason == "ProductNonzero"
        # a numeric F leaves a number of the series' context; a symbolic one
        # keeps the elimination's context, the series' extended by n
        assert (str(d.witness), d.witness.ctx.names) == (
            witness, ("F", "n") if f == "F" else ())


# decide_tensor_hv at a numeric F, against values that do not come from its
# elimination at that F: the closed form of s(F) in case I, and the formal
# certificate evaluated by sympy in case L.  At cL = 1, cLI = 1, h = 3 the
# case-L points reach all three outcomes: the certificate vanishes
# identically (F = 3 for p >= 4, F = 5 for p >= 6), it has an integer
# root in n, or it is nonzero at every integer index.
_NUMERIC_F = (3, Fraction(-1, 2), Fraction(2, 3), 5)
_ORACLE_POINTS = [(p, alpha) for p in range(1, 7)
                  for alpha in (Fraction(1, 3), 0)] + [(8, Fraction(1, 3))]


def _oracle_weight(case, p):
    return hv_weight(1, 1, 3, 1 + p if case == "I" else 1 - p)


def _value_at(x, f):
    """x, a polynomial in F with rational coefficients, at F = f: read from
    its json by sympy."""
    sympy = pytest.importorskip("sympy")
    syms = [sympy.Symbol(name) for name in x.ctx.names]

    def poly(items):
        return sum((sympy.Rational(t["coeff"])
                    * sympy.prod([y ** e for y, e in zip(syms, t["exponents"])])
                    for t in items), sympy.Integer(0))

    doc = x.to_json()
    value = (poly(doc["numer"]) / poly(doc["denom"])).subs(sympy.Symbol("F"),
                                                         sympy.Rational(str(f)))
    return Fraction(str(value))


@pytest.mark.parametrize("p,alpha", _ORACLE_POINTS,
                         ids=[f"p={p}-alpha={a}" for p, a in _ORACLE_POINTS])
def test_hv_numeric_f_case_i_witness(p, alpha):
    """Case I: the witness is F s(F) = F C(F/cLI + p - 1, p - 1)."""
    hw = _oracle_weight("I", p)
    for f in _NUMERIC_F:
        d = decide_tensor_hv(hw, IntermediateSeries.make(hw.ctx, alpha, 0, F=f))
        want = f * _binomial(hw.ctx.scalar(Fraction(f) / hw["cLI"].as_fraction() + p - 1),
                             p - 1)
        assert (d.verdict, d.reason, d.witness, d.p, d.notes) == (
            "Irreducible", "ProductNonzero", want, p, (_IRR_I_CONST,))


@pytest.mark.parametrize("p,alpha", _ORACLE_POINTS,
                         ids=[f"p={p}-alpha={a}" for p, a in _ORACLE_POINTS])
def test_hv_numeric_f_case_l_matches_formal_certificate(p, alpha):
    """Case L: verdict, witness and note follow from q(F) n + r(F), kept
    formal by hv_decision_polynomials and evaluated at F."""
    hw = _oracle_weight("L", p)
    cert = hv_decision_polynomials(hw, IntermediateSeries.make(hw.ctx, alpha, 0), p)
    for f in _NUMERIC_F:
        q, r = _value_at(cert.q_poly, f), _value_at(cert.r_poly, f)
        if q == r == 0:
            want = ("Unknown", None, None,
                    (f"the certificate vanishes identically at F = {f}",))
        elif q and (-r / q).denominator == 1:
            want = ("Unknown", None, None,
                    (f"the certificate q(F) n + r(F) vanishes at index n = {-r / q}; "
                     "the criterion is silent there",))
        else:
            want = ("Irreducible", "ProductNonzero", r, (_IRR_L_CONST,))
        d = decide_tensor_hv(hw, IntermediateSeries.make(hw.ctx, alpha, 0, F=f))
        witness = None if d.witness is None else d.witness.as_fraction()
        assert (d.verdict, d.reason, witness, d.notes, d.p) == want + (p,)


def test_hv_decide_rejects_bad_central_charges():
    ctx = PolyContext(())
    bad_ci = HighestWeight.hv(ctx, cL=1, cLI=2, h=0, hI=3, cI=1)
    with pytest.raises(ValueError):
        decide_tensor_hv(bad_ci, IntermediateSeries.make(ctx, 0, 0))
    bad_cli = HighestWeight.hv(ctx, cL=1, cLI=0, h=0, hI=3, cI=0)
    with pytest.raises(ValueError):
        decide_tensor_hv(bad_cli, IntermediateSeries.make(ctx, 0, 0))


def test_decision_json_shape():
    hw = subsingular_weight(2, 1)
    s = IntermediateSeries.make(hw.ctx, Fraction(1, 3), 0)
    doc = decide_tensor(hw, s).to_json()
    assert doc["verdict"] == "Irreducible"
    assert set(doc) == {"verdict", "reason", "witness", "notes", "p", "r"}
    assert "text" in doc["witness"]
