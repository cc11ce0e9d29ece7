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


def pivot_rows(ech, key=None) -> list:
    """The stored pivot rows of an Echelon, ordered by their pivot's key."""
    return [ech.pivots[c] for c in sorted(ech.pivots, key=key)]


@given(systems(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_shuffled_rows_give_the_same_result(system, rnd):
    matrix, rhs = system
    columns = list(range(len(matrix[0])))
    rows = sparse_rows(matrix, rhs)
    perm = rnd.sample(range(len(rows)), len(rows))
    shuffled = [rows[i] for i in perm]
    assert linalg.solve(shuffled, columns) == linalg.solve(rows, columns)
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
        built.append(pivot_rows(ech, order.__getitem__))
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

    # the stored pivot rows are the nonzero rows of the reduced row echelon form
    ech = linalg.Echelon(key=lambda c: c)
    ech.extend(rows)
    rref, _ = A.rref()
    assert ([as_fractions(r, columns) for r in pivot_rows(ech)]
            == [[Fraction(int(x.p), int(x.q)) for x in rref.row(i)]
                for i in range(rref.rows) if any(rref.row(i))])

    for row, d in zip(augmented, rows):
        if row[-1]:
            d[linalg.RHS] = CTX.scalar(row[-1])
    R, pivots = A.row_join(sympy.Matrix([row[-1] for row in augmented])).rref()
    res = linalg.solve(rows, columns)
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


@given(rational_matrices(), st.lists(st.fractions(min_value=-2, max_value=2,
                                                 max_denominator=3), min_size=6, max_size=6))
@settings(max_examples=80, deadline=None)
def test_rank_and_membership_do_not_depend_on_the_pivot_priority(matrix, probe):
    """A key and its reverse choose other pivots but span the same rows."""
    rows = [{j: CTX.scalar(x) for j, x in enumerate(row) if x} for row in matrix]
    forward, backward = linalg.Echelon(key=lambda c: c), linalg.Echelon(key=lambda c: -c)
    forward.extend(rows)
    backward.extend(rows)
    assert len(forward.pivots) == len(backward.pivots)
    assert all(forward.contains(row) and backward.contains(row) for row in rows)
    probes = [{j: CTX.scalar(x) for j, x in enumerate(probe[:len(matrix[0])]) if x}]
    probes += [{**a, **b} for a in rows for b in rows]
    for row in probes:
        assert forward.contains(row) == backward.contains(row)


# ---------------------------------------------------------------------------
# Monomial pivots over Q(x): the same answers as the fixed priority

QX = PolyContext(("x",))
X = QX.var("x")


def fixed_priority(rows, columns):
    """solve and nullspace under the plain priority of ``columns``, RHS last,
    whatever the pivot values: (solve's result, nullspace's basis)."""
    order = {c: i for i, c in enumerate([*columns, linalg.RHS])}
    ech = linalg.Echelon(key=order.__getitem__)
    ech.extend(rows)
    free = [c for c in columns if c not in ech.pivots]
    basis = [{f: QX.one, **{p: -prow[f] for p, prow in ech.pivots.items() if f in prow}}
             for f in free]
    if linalg.RHS in ech.pivots:
        return None, basis
    sol = {p: prow[linalg.RHS] for p, prow in ech.pivots.items() if linalg.RHS in prow}
    return (sol, free), basis


def test_right_hand_side_is_never_an_early_pivot():
    """A monomial right-hand side does not win over a non-monomial unknown."""
    assert linalg.solve([{"a": X + 1, linalg.RHS: QX.one}], ["a"]) == ({"a": 1 / (X + 1)}, [])


def test_a_monomial_pivot_replaces_a_spurious_one(inverted):
    """(x + 1) a + x b = 1 and a + b = 1: the fixed priority divides by x + 1,
    which the solution a = 1 - x, b = x does not contain; the rule divides
    by monomials alone."""
    rows = [{"a": X + 1, "b": X, linalg.RHS: QX.one}, {"a": QX.one, "b": QX.one, linalg.RHS: QX.one}]
    expected, _ = fixed_priority(rows, ["a", "b"])
    assert X + 1 in inverted
    inverted.clear()
    assert linalg.solve(rows, ["a", "b"]) == expected == ({"a": 1 - X, "b": X}, [])
    assert inverted and all(s.is_monomial() for s in inverted)


POLYS_X = [QX.scalar(0), QX.one, -QX.one, QX.scalar(2), X, -X, X + 1, X - 2, 2 * X + 1, X * X, X * X - 3]


@st.composite
def kernel_systems(draw):
    """A system over Q(x) of rank at most ncols - 2: rows are combinations
    of at most ncols - 2 drawn rows, so the kernel has dimension 2 or more."""
    ncols = draw(st.integers(min_value=3, max_value=6))
    entry = st.sampled_from(POLYS_X)
    base = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=ncols - 2))
    combos = draw(st.lists(st.lists(entry, min_size=len(base), max_size=len(base)),
                           min_size=1, max_size=5))
    matrix = [[sum((k * row[j] for k, row in zip(combo, base)), QX.zero) for j in range(ncols)]
              for combo in combos]
    return [{j: v for j, v in enumerate(row) if not v.is_zero()} for row in matrix], list(range(ncols))


@given(kernel_systems(), st.lists(st.sampled_from(POLYS_X), min_size=8, max_size=8),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_monomial_pivots_keep_the_fixed_priority_answers(system, values, rnd):
    """nullspace returns the fixed priority's basis.  solve agrees with it on
    consistency and on the number of free columns, and once the fixed
    priority's free columns are pinned, on the unique solution.  Shuffling
    the rows changes none of these."""
    rows, columns = system
    shuffled = rnd.sample(rows, len(rows))
    (_, fixed_free), basis = fixed_priority(rows, columns)
    assert linalg.nullspace(rows, columns, QX) == linalg.nullspace(shuffled, columns, QX) == basis
    rhs = [{**row, linalg.RHS: v} if not v.is_zero() else row for row, v in zip(rows, values)]
    expected, _ = fixed_priority(rhs, columns)
    for batch in (rhs, rnd.sample(rhs, len(rhs))):
        res = linalg.solve(batch, columns)
        assert (res is None) == (expected is None)
        assert res is None or len(res[1]) == len(expected[1])
    pinned = rows + [{f: QX.one, linalg.RHS: v} for f, v in zip(fixed_free, values)]
    expected, _ = fixed_priority(pinned, columns)
    assert expected[1] == []
    assert linalg.solve(pinned, columns) == linalg.solve(rnd.sample(pinned, len(pinned)), columns) == expected
