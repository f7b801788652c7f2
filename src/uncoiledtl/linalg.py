"""Exact sparse linear algebra over Fraction (or int) entries.

Every row and vector is a ``{column: value}`` dict of its nonzeros; no
dense list of the columns is built.  Fraction-free Gauss-Jordan
elimination reads each input row once: its nonzeros are put over the lcm
of their denominators and divided by their gcd, which gives one primitive
integer row, a nonzero multiple of the row given.  A step clears the pivot
column from another row by an integer combination of the two rows and
divides the result by its content (the gcd of its entries), so every row
stays primitive and no entry pays for a ``Fraction`` gcd.  Only the reduced
pivot rows are returned as Fractions, each entry over its row's pivot
entry.

A column -> rows index limits each step to the rows with a nonzero in the
pivot column, so the cost follows the nonzeros and their fill-in rather
than rows x columns; the oracle's constraint systems hold a few nonzeros
per row.  Pivot columns are taken in ascending order; within a column the
candidate row with the fewest nonzeros is the pivot (ties go to the lowest
index), which keeps fill-in small.

The reduced row echelon form of a matrix is unique, so neither the pivot
choice nor the integer scaling of the rows changes the pivot columns, the
reduced rows, or the nullspace basis read off them: only the time taken.
The arithmetic is exact, so entries must be Fractions or ints; any other
nonzero entry (a float) raises ``TypeError`` rather than being rounded.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class SingularSystemError(ValueError):
    """The linear system has no unique solution at these parameters."""


def _primitive(row: dict) -> dict:
    """{column: int} for the nonzeros of a {column: int or Fraction} row,
    scaled to coprime integers."""
    items = [(c, x) for c, x in row.items() if x]
    try:
        den = lcm(*[x.denominator for _, x in items])
        nums = [x.numerator * (den // x.denominator) for _, x in items]
    except AttributeError:
        bad = next(x for _, x in items if not hasattr(x, "denominator"))
        raise TypeError("echelon needs int or Fraction entries, not "
                        f"{type(bad).__name__}") from None
    g = gcd(*nums)
    return {c: x // g for (c, _), x in zip(items, nums)}


def echelon(rows) -> list:
    """The reduced row echelon form of ``rows``, {column: int or Fraction}
    dicts, which are read and not changed.

    Returns [(pivot column, reduced row)] in ascending pivot column order,
    each reduced row a {column: Fraction} dict of its nonzeros with 1 at its
    pivot.  The elimination itself runs on primitive integer rows (see the
    module docstring).
    """
    sparse = [_primitive(row) for row in rows]
    where = {}  # column -> rows nonzero there
    for i, row in enumerate(sparse):
        for c in row:
            where.setdefault(c, set()).add(i)
    used = [False] * len(sparse)
    pivots = []
    for col in sorted(where):
        cands = [i for i in where[col] if not used[i]]
        if not cands:
            continue
        p = min(cands, key=lambda i: (len(sparse[i]), i))
        used[p] = True
        prow = sparse[p]
        a = prow[col]
        for i in where[col] - {p}:
            row = sparse[i]
            f = row[col]
            g = gcd(a, f)
            ma, mf = a // g, f // g  # row <- ma row - mf prow
            if ma != 1:
                row = sparse[i] = {c: ma * x for c, x in row.items()}
            for c, v in prow.items():
                x = row.get(c)
                if x is None:
                    row[c] = -mf * v
                    where[c].add(i)
                else:
                    x -= mf * v
                    if x:
                        row[c] = x
                    else:
                        del row[c]
                        where[c].discard(i)
            g = gcd(*row.values())
            if g > 1:
                for c in row:
                    row[c] //= g
        pivots.append((col, p))
    return [(col, {c: Fraction(x, sparse[p][col])
                   for c, x in sparse[p].items()})
            for col, p in pivots]


def nullspace(rows, ncols) -> list:
    """A basis of the kernel of the matrix whose rows are ``rows``
    ({column: value} dicts over columns 0..ncols-1): one {column: Fraction}
    vector per free column, in column order, with 1 at that column."""
    reduced = echelon(rows)
    pivot_cols = {pc for pc, _ in reduced}
    basis = {fc: {fc: Fraction(1)} for fc in range(ncols)
             if fc not in pivot_cols}
    for pc, row in reduced:
        for c, x in row.items():
            if c != pc:
                basis[c][pc] = -x
    return list(basis.values())
