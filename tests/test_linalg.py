from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

from uncoiledtl.linalg import echelon, nullspace

NONZERO = hst.fractions(-4, 4, max_denominator=4).filter(bool)


def rank(rows):
    """The number of pivots echelon finds, on a copy of rows."""
    return len(echelon([list(r) for r in rows]))


def dense_rref(rows):
    """Textbook dense Gauss-Jordan: columns left to right, first nonzero
    row as pivot.  Returns (pivot columns, reduced nonzero rows)."""
    rows = [list(r) for r in rows]
    pivots, r = [], 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return pivots, rows[:r]


@hst.composite
def sparse_matrices(draw):
    """Rows with at most three nonzeros (some empty), plus duplicates and
    combinations of earlier rows, so wide, tall and rank-deficient shapes
    all occur."""
    ncols = draw(hst.integers(1, 8))
    rows = []
    for _ in range(draw(hst.integers(0, 8))):
        row = [Fraction(0)] * ncols
        for c in draw(hst.sets(hst.integers(0, ncols - 1), max_size=3)):
            row[c] = draw(NONZERO)
        rows.append(row)
    for _ in range(draw(hst.integers(0, 3)) if rows else 0):
        a = draw(hst.sampled_from(rows))
        b = draw(hst.sampled_from(rows))
        f = draw(hst.sampled_from((Fraction(0), Fraction(1), Fraction(-2, 3))))
        rows.insert(draw(hst.integers(0, len(rows))),
                    [x + f * y for x, y in zip(a, b)])
    return rows, ncols


@given(sparse_matrices())
@settings(max_examples=300, deadline=None)
def test_echelon_matches_dense_reference(case):
    rows, _ = case
    want_pivots, want_rows = dense_rref(rows)
    work = [list(r) for r in rows]
    pivots = echelon(work)
    assert pivots == want_pivots
    assert work[:len(pivots)] == want_rows
    assert not any(x for row in work[len(pivots):] for x in row)
    assert rank(rows) == len(pivots)


@given(sparse_matrices())
@settings(max_examples=300, deadline=None)
def test_nullspace_is_the_kernel(case):
    rows, ncols = case
    basis = nullspace(rows, ncols)
    for v in basis:
        assert len(v) == ncols
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
    assert rank(basis) == len(basis)
    assert rank(rows) + len(basis) == ncols


BIG_INT = hst.integers(-10 ** 12, 10 ** 12)
BIG_FRACTION = hst.builds(Fraction, BIG_INT, hst.integers(1, 10 ** 6))


@hst.composite
def integer_path_matrices(draw):
    """The forms the fraction-free elimination reads: numerators up to
    10^12 over mixed denominators up to 10^6, rows of plain ints, int 0
    padding beside Fraction entries (and Fraction(0) padding), and integer
    multiples of earlier rows."""
    ncols = draw(hst.integers(1, 7))
    rows = []
    for _ in range(draw(hst.integers(0, 6))):
        pad = draw(hst.sampled_from((0, Fraction(0))))
        entry = draw(hst.sampled_from((BIG_INT, BIG_FRACTION)))
        row = [pad] * ncols
        for c in draw(hst.sets(hst.integers(0, ncols - 1), max_size=4)):
            row[c] = draw(entry)
        rows.append(row)
    for _ in range(draw(hst.integers(0, 3)) if rows else 0):
        a = draw(hst.sampled_from(rows))
        m = draw(hst.integers(-10 ** 6, 10 ** 6))
        rows.insert(draw(hst.integers(0, len(rows))), [m * x for x in a])
    return rows, ncols


@given(integer_path_matrices())
@settings(max_examples=300, deadline=None)
def test_integer_path_matches_dense_reference(case):
    rows, _ = case
    # the reference divides, so it gets the same values as Fractions
    want_pivots, want_rows = dense_rref(
        [[Fraction(x) for x in row] for row in rows])
    work = [list(r) for r in rows]
    pivots = echelon(work)
    assert pivots == want_pivots
    assert work[:len(pivots)] == want_rows
    assert not any(x for row in work[len(pivots):] for x in row)
    # the reduced rows are written back as Fractions, whatever was read
    assert all(type(x) is Fraction for row in work for x in row)


@given(integer_path_matrices())
@settings(max_examples=300, deadline=None)
def test_integer_path_nullspace_is_the_kernel(case):
    rows, ncols = case
    basis = nullspace(rows, ncols)
    for v in basis:
        assert len(v) == ncols
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
    assert rank(basis) == len(basis)
    assert rank(rows) + len(basis) == ncols


@pytest.mark.parametrize("rows", [
    [[Fraction(1, 3), 0.5], [1, 2]],
    [[1, 2], [0, 0.25]],
    [[1.0, 0], [0, 1]],
], ids=["beside-a-fraction", "alone-in-a-later-row", "integral-float"])
def test_a_float_entry_raises_type_error_and_is_not_rounded(rows):
    with pytest.raises(TypeError, match="float"):
        echelon([list(r) for r in rows])
