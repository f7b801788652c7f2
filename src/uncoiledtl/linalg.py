"""Exact sparse linear algebra over Fraction (or int) entries.

Fraction-free Gauss-Jordan elimination on rows held as ``{column: int}``
dicts.  Each input row is read once: its nonzeros are put over the lcm of
their denominators and divided by their gcd, which gives one primitive
integer row, a nonzero multiple of the row given.  A step clears the pivot
column from another row by an integer combination of the two rows and
divides the result by its content (the gcd of its entries), so every row
stays primitive and no entry pays for a ``Fraction`` gcd.  Only the reduced
pivot rows are written back as Fractions, each entry over its row's pivot
entry.

A column -> rows index limits each step to the rows with a nonzero in the
pivot column, so the cost follows the nonzeros and their fill-in rather
than rows x columns; the oracle's constraint systems hold a few nonzeros
per row.  Pivot columns are taken left to right; within a column the
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
from itertools import compress
from math import gcd, lcm


class SingularSystemError(ValueError):
    """The linear system has no unique solution at these parameters."""


def _primitive(row) -> dict:
    """{column: int} for the nonzeros of a dense row of ints or Fractions,
    scaled to coprime integers."""
    cols = list(compress(range(len(row)), row))
    if not cols:
        return {}
    vals = [row[c] for c in cols]
    try:
        den = lcm(*[x.denominator for x in vals])
        nums = [x.numerator * (den // x.denominator) for x in vals]
    except AttributeError:
        bad = next(x for x in vals if not hasattr(x, "denominator"))
        raise TypeError("echelon needs int or Fraction entries, not "
                        f"{type(bad).__name__}") from None
    g = gcd(*nums)
    if g != 1:
        nums = [x // g for x in nums]
    return dict(zip(cols, nums))


def echelon(rows):
    """Row-reduce ``rows`` (a list of equal-length lists of ints or
    Fractions) in place to reduced row echelon form and return the pivot
    columns, in order.

    Afterwards ``rows[i]`` is the reduced row of the i-th pivot, as
    Fractions, and every later row is zero.  The elimination itself runs on
    primitive integer rows (see the module docstring).
    """
    if not rows:
        return []
    ncols = len(rows[0])
    sparse = [_primitive(row) for row in rows]
    where = [set() for _ in range(ncols)]  # column -> rows nonzero there
    for i, row in enumerate(sparse):
        for c in row:
            where[c].add(i)
    used = [False] * len(rows)
    order = []
    piv_cols = []
    for col in range(ncols):
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
        order.append(p)
        piv_cols.append(col)
    zero = Fraction(0)
    for i in range(len(rows)):
        rows[i] = dense = [zero] * ncols
        if i < len(order):
            prow = sparse[order[i]]
            a = prow[piv_cols[i]]
            for c, x in prow.items():
                dense[c] = Fraction(x, a)
    return piv_cols


def nullspace(rows, ncols):
    """A basis of the kernel of the (rows x ncols) matrix."""
    work = [list(r) for r in rows]
    piv_cols = echelon(work)
    piv_set = set(piv_cols)
    free = [c for c in range(ncols) if c not in piv_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(piv_cols):
            v[pc] = -work[r][fc]
        basis.append(v)
    return basis
