"""Exact linear algebra over the rationals, on one elimination engine.

Every routine here runs the same fraction-free forward pass: each row is
scaled to integers by the lcm of its denominators, then Bareiss
cross-multiplication elimination keeps every intermediate entry an exact
integer minor, with one exact integer division per update. A column with
no pivot is skipped rather than ending the pass (the rectangular form of
Nakos, Turner and Williams), so determinants, inverses, ranks and kernels
all read their answer off the same integer echelon rows.

The pivot rule is fixed: scan columns left to right and take the first
row, top down, with a nonzero entry. Pivot columns and the kernel witness
produced here are therefore deterministic functions of the input matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Matrix = Sequence[Sequence[Fraction]]


def _scaled_int_rows(rows: Matrix) -> tuple[list[list[int]], list[int]]:
    """Clear denominators per row. Returns (integer rows, per-row scale factors)."""
    out: list[list[int]] = []
    scales: list[int] = []
    for row in rows:
        factor = lcm(*(c.denominator for c in row)) if row else 1
        out.append([int(c * factor) for c in row])
        scales.append(factor)
    return out, scales


def _bareiss_forward(m: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Bring the leading ``ncols`` columns of ``m`` to echelon form in place.

    ``m`` may carry extra augmented columns on the right; they are updated
    along with the rest of each row. Row i of the result holds the i-th
    pivot. Returns (pivot columns, sign accumulated from row swaps).
    """
    sign = 1
    prev = 1
    nrows = len(m)
    pivots: list[int] = []
    for k in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][k] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        pivot = m[r][k]
        row_p = m[r]
        for i in range(r + 1, nrows):
            row_i = m[i]
            lead = row_i[k]
            for c in range(k + 1, len(row_i)):
                # Exact by Bareiss: prev divides the cross product.
                row_i[c] = (row_i[c] * pivot - lead * row_p[c]) // prev
            row_i[k] = 0
        prev = pivot
        pivots.append(k)
    return pivots, sign


def _back_substitute(
    m: list[list[int]], pivots: list[int], x: list[Fraction], col: int | None = None
) -> list[Fraction]:
    """Solve the echelon rows left by the forward pass for the pivot unknowns.

    The free unknowns keep the values given in ``x``. ``col`` selects the
    augmented column that holds the right-hand side; None means zero.
    """
    for i in range(len(pivots) - 1, -1, -1):
        p = pivots[i]
        acc = Fraction(0 if col is None else m[i][col])
        for j in range(p + 1, len(x)):
            if x[j]:
                acc -= m[i][j] * x[j]
        x[p] = acc / m[i][p]
    return x


def det(rows: Matrix) -> Fraction:
    """Determinant of a square matrix, exact."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return Fraction(1)
    m, scales = _scaled_int_rows(rows)
    pivots, sign = _bareiss_forward(m, n)
    if len(pivots) < n:
        return Fraction(0)
    denom = 1
    for s in scales:
        denom *= s
    return Fraction(sign * m[n - 1][n - 1], denom)


def inverse(rows: Matrix) -> list[list[Fraction]] | None:
    """Exact inverse of a square matrix, or None when singular."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse needs a square matrix")
    aug = [list(row) + [Fraction(1 if c == i else 0) for c in range(n)] for i, row in enumerate(rows)]
    m, _ = _scaled_int_rows(aug)
    pivots, _ = _bareiss_forward(m, n)
    if len(pivots) < n:
        return None
    cols = [_back_substitute(m, pivots, [Fraction(0)] * n, n + c) for c in range(n)]
    return [[cols[c][r] for c in range(n)] for r in range(n)]


def rank(rows: Matrix) -> int:
    return rank_and_kernel(rows)[0]


def kernel_vector(rows: Matrix) -> list[Fraction] | None:
    """Canonical nonzero kernel vector, or None when the kernel is trivial.

    Canonical means: the first free column (lowest index not a pivot) is
    set to 1, every other free column to 0, and the pivot coordinates are
    then forced. Two correct eliminations with the same pivot rule cannot
    disagree on this vector.
    """
    return rank_and_kernel(rows)[1]


def rank_and_kernel(rows: Matrix) -> tuple[int, list[Fraction] | None]:
    """Rank and canonical kernel vector (see ``kernel_vector``) from one pass."""
    ncols = len(rows[0]) if rows else 0
    m, _ = _scaled_int_rows(rows)
    pivots, _ = _bareiss_forward(m, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return len(pivots), None
    vec = [Fraction(0)] * ncols
    vec[free[0]] = Fraction(1)
    return len(pivots), _back_substitute(m, pivots, vec)
