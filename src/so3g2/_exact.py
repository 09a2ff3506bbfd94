"""Exact scalars and small exact linear algebra.

The scalar policy of the package is carried by Python's number types: a
computation is exact unless a float is present.  Constants are written
as Fractions, so ``Fraction(1, 3) * x`` stays exact for an int, a
Fraction or a symbolic x, and is the float ``(1/3) * x`` for a float x
(``np.float64`` is a float).  At integer model points the exact scalars
are Python ints, which never overflow.  ``is_exact`` decides only how
strict a check is, and whether a determinant is reported as a float.

Matrices are lists of lists of at most a few dozen rows.  Determinant,
rank and signature use fraction-free elimination (Bareiss, 1968) on
Python ints, whose divisions are exact; a rational matrix is first
scaled to integers.
"""

from __future__ import annotations

import math
from fractions import Fraction


def is_exact(values) -> bool:
    """Whether no float is present among values."""
    return not any(isinstance(v, float) for v in values)


def _integer_copy(m):
    """m scaled row by row to Python ints: (rows, scale, inexact).

    Scaling a row changes neither the rank nor, up to the product `scale`
    of the row scales, the determinant.  Python ints never wrap, as numpy
    int64s would.  Floats become Fractions first (`inexact` records that),
    so the elimination itself is always exact.
    """
    a = [list(row) for row in m]
    if all(type(v) is int for row in a for v in row):
        return a, 1, False
    inexact = not is_exact(v for row in a for v in row)
    scale = 1
    for i, row in enumerate(a):
        a[i], s = scale_to_ints(row)
        scale *= s
    return a, scale, inexact


def scale_to_ints(values):
    """(ints, s): the values times s, the lcm of their exact denominators,
    as Python ints.

    ints and Fractions are read as they are; any other value (a float, a
    numpy scalar) is made a Fraction first.
    """
    ratios = [_ratio(v) for v in values]
    s = math.lcm(*(den for _, den in ratios))
    return [num * (s // den) for num, den in ratios], s


def _ratio(v):
    if isinstance(v, (int, Fraction)):
        return v.numerator, v.denominator
    f = Fraction(v)
    # int(): a Fraction made from a numpy int keeps numpy parts
    return int(f.numerator), int(f.denominator)


def mat_det(m):
    """Determinant by Bareiss elimination; a float when a float is present
    (ValueError when that float would be beyond the float range)."""
    a, scale, inexact = _integer_copy(m)
    n = len(a)
    if n == 0:
        return 1
    rank, sign = _bareiss(a)
    det = sign * a[n - 1][n - 1] if rank == n else 0
    if det and scale != 1:
        det = Fraction(det, scale)
    try:
        return float(det) if inexact else det
    except OverflowError:
        raise ValueError("the determinant is beyond the float range") from None


def mat_rank(m):
    """Rank by Bareiss row reduction; any row count, any column count."""
    a, _, _ = _integer_copy(m)
    return _bareiss(a)[0]


def _bareiss(a):
    """Fraction-free row reduction of the Python-int matrix a, in place.

    Returns (rank, sign), sign the parity of the row swaps.  On a square
    matrix of full rank each pivot is a leading principal minor of the
    row-swapped matrix, so the last pivot a[-1][-1] is sign * det.
    """
    rows, cols = len(a), (len(a[0]) if a else 0)
    rank, sign, prev = 0, 1, 1
    for col in range(cols):
        if rank == rows:
            break
        piv = next((r for r in range(rank, rows) if a[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        pivot, row_k = a[rank][col], a[rank]
        for r in range(rank + 1, rows):
            row, f = a[r], a[r][col]
            for c in range(col + 1, cols):
                row[c] = (pivot * row[c] - f * row_k[c]) // prev
        prev = pivot
        rank += 1
    return rank, sign


def nullspace(rows):
    """A basis of the right null space of rows, over Fraction.

    Reduced row echelon form: one basis vector per free column, with a 1
    in that column and a 0 in every other free column.
    """
    a = [[Fraction(v) for v in r] for r in rows]
    n = len(a[0])
    piv_cols = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][col]
        a[r] = [v / pv for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [u - f * v for u, v in zip(a[i], a[r])]
        piv_cols.append(col)
        r += 1
    basis = []
    for fc in (c for c in range(n) if c not in piv_cols):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, pc in enumerate(piv_cols):
            vec[pc] = -a[i][fc]
        basis.append(vec)
    return basis


def sym_signature(m):
    """(n_plus, n_minus) of a symmetric matrix by congruence diagonalization.

    Fraction-free, like Bareiss: after the step with pivot p the trailing
    block holds p times the Schur complement, and the sign of the k-th
    diagonal entry of the congruent diagonal form is sign(p) * sign(prev).
    A zero pivot is first repaired by a symmetric swap, or else by adding
    row and column `off` into k.
    """
    a = _symmetric_integer_copy(m)
    n = len(a)
    pos = neg = 0
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            # find a usable pivot: a nonzero diagonal below, or create one
            swap = next((r for r in range(k + 1, n) if a[r][r] != 0), None)
            if swap is not None:
                _congruence_swap(a, k, swap)
            else:
                off = next((r for r in range(k + 1, n) if a[k][r] != 0), None)
                if off is None:
                    continue  # zero row/column: null direction
                # add row/col `off` into k to make the diagonal nonzero
                for c in range(k, n):
                    a[k][c] += a[off][c]
                for r in range(k, n):
                    a[r][k] += a[r][off]
        pivot, row_k = a[k][k], a[k]
        if (pivot > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        # `//` is exact: each trailing entry is a bordered minor of an
        # integer matrix congruent to the input by a unimodular transform
        # (the swaps and additions so far), and prev is its leading minor
        for r in range(k + 1, n):
            row, f = a[r], a[r][k]
            for c in range(k + 1, n):
                row[c] = (pivot * row[c] - f * row_k[c]) // prev
        prev = pivot
    return pos, neg


def _symmetric_integer_copy(m):
    """m times the lcm of its denominators, as Python ints; a positive
    common scale keeps both symmetry and signature."""
    if all(type(v) is int for row in m for v in row):
        return [list(row) for row in m]
    flat, _ = scale_to_ints([v for row in m for v in row])
    n = len(m)
    return [flat[i * n:(i + 1) * n] for i in range(n)]


def _congruence_swap(a, i, j):
    a[i], a[j] = a[j], a[i]
    for row in a:
        row[i], row[j] = row[j], row[i]
