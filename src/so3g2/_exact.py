"""Small exact linear algebra helpers over Fraction (or any exact field).

Matrices are lists of lists; nothing here is sized beyond 6x6 or so, so
plain fraction-free Gaussian elimination is all we need.
"""

from __future__ import annotations

from fractions import Fraction


def _fractionize(m):
    return [[Fraction(v) for v in row] for row in m]


def mat_det(m):
    """Determinant by fraction Gaussian elimination (exact input)."""
    a = _fractionize(m)
    n = len(a)
    det = Fraction(1)
    sign = 1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        pval = a[col][col]
        det *= pval
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            f = a[r][col] / pval
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return sign * det


def mat_rank(m):
    """Rank by exact row reduction."""
    if not m:
        return 0
    a = _fractionize(m)
    rows, cols = len(a), len(a[0])
    rank = 0
    for col in range(cols):
        piv = None
        for r in range(rank, rows):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pval = a[rank][col]
        for r in range(rank + 1, rows):
            if a[r][col] == 0:
                continue
            f = a[r][col] / pval
            for c in range(col, cols):
                a[r][c] -= f * a[rank][c]
        rank += 1
        if rank == rows:
            break
    return rank


def sym_signature(m):
    """(n_plus, n_minus) of a symmetric matrix by congruence diagonalization."""
    a = [[Fraction(v) for v in row] for row in m]
    n = len(a)
    pos = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            # find a usable pivot: a nonzero diagonal below, or create one
            swap = None
            for r in range(k + 1, n):
                if a[r][r] != 0:
                    swap = r
                    break
            if swap is not None:
                _congruence_swap(a, k, swap)
            else:
                off = None
                for r in range(k + 1, n):
                    if a[k][r] != 0:
                        off = r
                        break
                if off is None:
                    continue  # zero row/column: null direction
                # add row/col `off` into k to make the diagonal nonzero
                for c in range(n):
                    a[k][c] += a[off][c]
                for r in range(n):
                    a[r][k] += a[r][off]
        pivot = a[k][k]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for r in range(k + 1, n):
            if a[r][k] == 0:
                continue
            f = a[r][k] / pivot
            for c in range(n):
                a[r][c] -= f * a[k][c]
            for c in range(n):
                a[c][r] -= f * a[c][k]
    return pos, neg


def _congruence_swap(a, i, j):
    a[i], a[j] = a[j], a[i]
    for row in a:
        row[i], row[j] = row[j], row[i]
