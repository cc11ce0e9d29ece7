"""Exact sparse elimination: row-order invariance and a sympy oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vermatools import linalg
from vermatools.scalar import PolyContext

CTX = PolyContext(())


@st.composite
def systems(draw):
    """A small integer system, consistent or not, often rank-deficient.

    Returns (rows as lists of ints, right-hand sides).  Some rows are sums
    of earlier ones; the right-hand sides are either A x for an integer x
    (consistent) or drawn freely (usually inconsistent when A is deficient).
    """
    ncols = draw(st.integers(min_value=1, max_value=5))
    entries = st.integers(min_value=-3, max_value=3)
    matrix = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                           min_size=1, max_size=5))
    for i, j in draw(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)),
                              max_size=3)):
        a, b = matrix[i % len(matrix)], matrix[j % len(matrix)]
        matrix.append([x + y for x, y in zip(a, b)])
    if draw(st.booleans()):
        x = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rhs = [sum(a * b for a, b in zip(row, x)) for row in matrix]
    else:
        rhs = draw(st.lists(entries, min_size=len(matrix), max_size=len(matrix)))
    return matrix, rhs


def sparse_rows(matrix, rhs=None):
    rows = []
    for i, row in enumerate(matrix):
        d = {j: CTX.scalar(v) for j, v in enumerate(row) if v}
        if rhs is not None and rhs[i]:
            d[linalg.RHS] = CTX.scalar(rhs[i])
        rows.append(d)
    return rows


@given(systems(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_shuffled_rows_give_the_same_result(system, rnd):
    matrix, rhs = system
    columns = list(range(len(matrix[0])))
    rows = sparse_rows(matrix, rhs)
    perm = rnd.sample(range(len(rows)), len(rows))
    shuffled = [rows[i] for i in perm]
    assert linalg.solve(shuffled, columns, CTX) == linalg.solve(rows, columns, CTX)
    homogeneous = sparse_rows(matrix)
    assert (linalg.nullspace([homogeneous[i] for i in perm], columns, CTX)
            == linalg.nullspace(homogeneous, columns, CTX))
    # one row at a time, without the sparsest-first sort, in either order
    order = {c: i for i, c in enumerate(columns + [linalg.RHS])}
    built = []
    for batch in (rows, shuffled):
        ech = linalg.Echelon(key=order.__getitem__)
        for row in batch:
            ech.add(row)
        built.append(ech.rows())
    assert built[0] == built[1]


# ---------------------------------------------------------------------------
# Oracle: sympy's dense rational RREF, which shares no code with linalg


@st.composite
def rational_matrices(draw):
    nrows = draw(st.integers(min_value=1, max_value=4))
    ncols = draw(st.integers(min_value=1, max_value=5))
    entry = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-4, max_value=4, max_denominator=5))
    return [draw(st.lists(entry, min_size=ncols + 1, max_size=ncols + 1))
            for _ in range(nrows)]


def as_fractions(sol, columns):
    return [sol[c].as_fraction() if c in sol else Fraction(0) for c in columns]


@given(rational_matrices())
@settings(max_examples=80, deadline=None)
def test_nullspace_and_solve_match_sympy(augmented):
    sympy = pytest.importorskip("sympy")
    ncols = len(augmented[0]) - 1
    columns = list(range(ncols))
    A = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row[:-1]]
                      for row in augmented])
    rows = [{j: CTX.scalar(x) for j, x in enumerate(row[:-1]) if x} for row in augmented]
    ours = [as_fractions(v, columns) for v in linalg.nullspace(rows, columns, CTX)]
    theirs = [[Fraction(int(x.p), int(x.q)) for x in v] for v in A.nullspace()]
    assert ours == theirs

    for row, d in zip(augmented, rows):
        if row[-1]:
            d[linalg.RHS] = CTX.scalar(row[-1])
    R, pivots = A.row_join(sympy.Matrix([row[-1] for row in augmented])).rref()
    res = linalg.solve(rows, columns, CTX)
    if ncols in pivots:
        assert res is None
        return
    expected = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x = R[i, ncols]
        expected[c] = Fraction(int(x.p), int(x.q))
    sol, free = res
    assert as_fractions(sol, columns) == expected
    assert free == [c for c in columns if c not in pivots]
