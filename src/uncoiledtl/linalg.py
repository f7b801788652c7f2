"""Exact sparse linear algebra over Fraction (or int) entries.

Gauss-Jordan elimination on rows held as ``{column: value}`` dicts.  A
column -> rows index limits each step to the rows with a nonzero in the
pivot column, so the cost follows the nonzeros and their fill-in rather
than rows x columns; the oracle's constraint systems hold a few nonzeros
per row.  Pivot columns are taken left to right; within a column the
candidate row with the fewest nonzeros is the pivot (ties go to the lowest
index), which keeps fill-in small.

The reduced row echelon form of a matrix is unique, so the pivot choice
changes neither the pivot columns, nor the reduced rows, nor the nullspace
basis read off them: only the time taken.  The arithmetic is exact, so
entries must be Fractions or ints.
"""

from __future__ import annotations

from fractions import Fraction


class SingularSystemError(ValueError):
    """The linear system has no unique solution at these parameters."""


def echelon(rows):
    """Row-reduce ``rows`` (a list of equal-length lists) in place to reduced
    row echelon form and return the pivot columns, in order.

    Afterwards ``rows[i]`` is the reduced row of the i-th pivot and every
    later row is zero.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
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
        inv = Fraction(1) / prow[col]
        if inv != 1:
            for c in prow:
                prow[c] *= inv
        for i in where[col] - {p}:
            row = sparse[i]
            f = row[col]
            for c, v in prow.items():
                x = row.get(c)
                if x is None:
                    row[c] = -f * v
                    where[c].add(i)
                else:
                    x -= f * v
                    if x:
                        row[c] = x
                    else:
                        del row[c]
                        where[c].discard(i)
        order.append(p)
        piv_cols.append(col)
    zero = Fraction(0)
    for i in range(len(rows)):
        rows[i] = dense = [zero] * ncols
        if i < len(order):
            for c, x in sparse[order[i]].items():
                dense[c] = x
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
