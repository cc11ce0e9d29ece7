"""Exact sparse linear algebra over a Scalar field.

Rows are sparse dicts mapping hashable column keys to Scalars.  The
workhorse is an incremental reduced echelon structure: every stored
pivot row is normalized (pivot coefficient 1) and contains no other
pivot column, so reducing a vector is a single pass.  Pivot columns are
chosen by a caller-supplied priority key, which lets quotient reductions
prefer to eliminate non-basis monomials.

A batch of rows goes in through ``Echelon.extend``, sparsest first,
because elimination then fills in far less.  The result does not depend
on the order: under a fixed pivot priority the pivot set is the set of
leading columns of the row space and the reduced form is unique.
Measured on a 2-core x86 box against generation order: the subsingular
system at (p, r) = (3, 2) solves over Q(hW) in 0.01 s instead of 100 s.

Back-substitution scans the stored rows only when the new pivot is a
column some row ever held (``_seen``); stored rows never hold zeros, so a
skipped scan would change nothing.  On the tensor-chains benchmark (seed
1) 2,799 of 3,205 new pivots skip it, and the skip alone took wall_s
from 2.45 to 2.24 ref_s (median of 4 alternating pairs).

An elimination step (``_subtract``) negates its factor once and adds
factor times entry, rather than subtracting entry by entry, and a pivot
is compared with the int 1 without lifting it.  With the unit fast path
of scalar.py this cut the Scalars built in a seed-1 tensor-chains pass
from 72,528 to 37,773 and its wall_s from 0.93 to 0.70 ref_s (median of
10 alternating pairs).
"""

from __future__ import annotations


def _subtract(row: dict, coeff, prow: dict, piv) -> None:
    """row -= coeff * prow off the column piv, which the caller clears.
    The factor is negated once, and not at all for a lone pivot."""
    if len(prow) == 1:
        return
    f = -coeff
    for c2, v2 in prow.items():
        if c2 == piv:
            continue
        s = row.get(c2)
        s = f * v2 if s is None else s + f * v2
        if s.is_zero():
            row.pop(c2, None)
        else:
            row[c2] = s


class Echelon:
    """Incrementally built reduced row echelon form."""

    def __init__(self, key=None):
        self._key = key if key is not None else lambda c: c
        self.pivots: dict = {}
        self._seen: set = set()

    def reduce(self, row: dict) -> dict:
        """Fully reduce a row against the stored pivots (returns a new dict)."""
        row = {c: v for c, v in row.items() if not v.is_zero()}
        for col in [c for c in row if c in self.pivots]:
            _subtract(row, row.pop(col), self.pivots[col], col)
        return row

    def add(self, row: dict):
        """Insert a row; returns its pivot column, or None if dependent."""
        row = self.reduce(row)
        if not row:
            return None
        piv = min(row, key=self._key)
        # Most pivots are already 1 (three in four on the tensor-chains
        # benchmark); the test against the int 1 lifts nothing, while
        # normalising costs an inversion per row.
        if row[piv] != 1:
            inv = 1 / row[piv]
            row = {c: v * inv for c, v in row.items()}
        for prow in self.pivots.values() if piv in self._seen else ():
            f = prow.pop(piv, None)
            if f is not None:
                _subtract(prow, f, row, piv)
        self._seen.update(row)
        self.pivots[piv] = row
        return piv

    def extend(self, rows) -> None:
        """Insert a batch of rows, sparsest first."""
        for row in sorted(rows, key=len):
            self.add(row)

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)


RHS = ("__rhs__",)


def _eliminate(rows, columns):
    """Eliminate with pivots preferred in the order of ``columns``, ``RHS``
    last; returns the pivot rows and the free columns."""
    order = {c: i for i, c in enumerate([*columns, RHS])}
    ech = Echelon(key=order.__getitem__)
    ech.extend(rows)
    return ech.pivots, [c for c in columns if c not in ech.pivots]


def nullspace(rows, columns, ctx) -> list:
    """Basis of solutions of the homogeneous system given by ``rows``.

    ``columns`` lists every unknown; the returned solutions are dicts
    with one basis vector per free column (that column's value is 1).
    """
    pivots, free = _eliminate(rows, columns)
    basis = []
    for f in free:
        sol = {f: ctx.one}
        for p, prow in pivots.items():
            cf = prow.get(f)
            if cf is not None:
                sol[p] = -cf
        basis.append(sol)
    return basis


def solve(rows, columns):
    """Particular solution of an inhomogeneous system, or None.

    Each row may carry an entry under the ``RHS`` key holding its
    right-hand side.  Free unknowns are set to zero; the returned pair is
    (solution dict, list of free columns).
    """
    pivots, free = _eliminate(rows, columns)
    if RHS in pivots:
        return None
    return {p: prow[RHS] for p, prow in pivots.items() if RHS in prow}, free
