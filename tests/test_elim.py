"""Exact elimination engine, cross-checked against naive reference solvers.

The reference implementations below do plain Fraction Gaussian elimination
with immediate division, a deliberately different code path from the
fraction-free engine under test. They share its pivot rule (columns left
to right, first nonzero row top down), so pivot columns and canonical
kernel witnesses must agree exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatlin import elim

from conftest import rand_fraction


def naive_det(rows):
    m = [[Fraction(c) for c in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        m[col] = [c * inv for c in m[col]]
        for r in range(col + 1, n):
            factor = m[r][col]
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def naive_solve(rows, rhs):
    n = len(rows)
    m = [[Fraction(c) for c in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [c * inv for c in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def naive_row_echelon(rows):
    """Fraction row echelon form: (echelon rows, pivot column indices)."""
    m = [[Fraction(c) for c in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        lead = m[r][c]
        for i in range(r + 1, nrows):
            if m[i][c] != 0:
                factor = m[i][c] / lead
                for j in range(c, ncols):
                    m[i][j] -= factor * m[r][j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def naive_kernel_vector(rows):
    """Canonical kernel vector (first free column 1, other free columns 0)."""
    ncols = len(rows[0]) if rows else 0
    ech, pivots = naive_row_echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    vec = [Fraction(0)] * ncols
    vec[free[0]] = Fraction(1)
    for r in range(len(pivots) - 1, -1, -1):
        p = pivots[r]
        acc = sum((ech[r][c] * vec[c] for c in range(p + 1, ncols)), Fraction(0))
        vec[p] = -acc / ech[r][p]
    return vec


def engine_pivots(rows):
    """Pivot columns chosen by the engine's forward pass."""
    m, _ = elim._scaled_int_rows(rows)
    return elim._bareiss_forward(m, len(rows[0]) if rows else 0)[0]


fraction_entries = st.fractions(min_value=-9, max_value=9, max_denominator=7)


def square_matrices(n):
    return st.lists(
        st.lists(fraction_entries, min_size=n, max_size=n), min_size=n, max_size=n
    )


@st.composite
def low_rank_matrices(draw):
    """Products of a rows x k and a k x cols factor: rank at most k, often wide."""
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 9))
    k = draw(st.integers(0, min(nrows, ncols)))
    left = draw(st.lists(st.lists(fraction_entries, min_size=k, max_size=k), min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(fraction_entries, min_size=ncols, max_size=ncols), min_size=k, max_size=k))
    rows = [
        [sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0)) for j in range(ncols)]
        for i in range(nrows)
    ]
    # Zero some columns outright so pivot-less columns also sit in front.
    dead = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols // 2))
    return [[Fraction(0) if j in dead else c for j, c in enumerate(row)] for row in rows]


any_matrices = st.integers(1, 6).flatmap(
    lambda nrows: st.integers(1, 9).flatmap(
        lambda ncols: st.lists(
            st.lists(fraction_entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows
        )
    )
)


class TestDet:
    def test_known_3x3(self):
        assert elim.det([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3

    def test_singular(self):
        assert elim.det([[1, 2], [2, 4]]) == 0

    def test_empty_and_one(self):
        assert elim.det([]) == 1
        assert elim.det([[Fraction(-7, 3)]]) == Fraction(-7, 3)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            elim.det([[1, 2, 3], [4, 5, 6]])

    @settings(deadline=None)
    @given(square_matrices(3))
    def test_matches_naive_3x3(self, rows):
        assert elim.det(rows) == naive_det(rows)

    @settings(deadline=None, max_examples=50)
    @given(square_matrices(4))
    def test_matches_naive_4x4(self, rows):
        assert elim.det(rows) == naive_det(rows)

    def test_row_swap_sign(self):
        # forces a zero pivot so elimination must swap rows
        assert elim.det([[0, 1], [1, 0]]) == -1


def solve_by_inverse(rows, rhs):
    inv = elim.inverse(rows)
    if inv is None:
        return None
    return [sum((inv[r][c] * rhs[c] for c in range(len(rhs))), Fraction(0)) for r in range(len(rows))]


class TestSolve:
    """Linear solves, done as products with the exact inverse."""

    def test_known_system(self):
        x = solve_by_inverse([[2, 1], [1, 3]], [Fraction(5), Fraction(10)])
        assert x == [Fraction(1), Fraction(3)]

    def test_singular_returns_none(self):
        assert solve_by_inverse([[1, 1], [2, 2]], [Fraction(1), Fraction(2)]) is None

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            elim.inverse([[1, 2]])

    @settings(deadline=None, max_examples=60)
    @given(square_matrices(4))
    def test_matches_naive(self, rows):
        # column c of the inverse solves A x = e_c
        inv = elim.inverse(rows)
        for c in range(4):
            unit = [Fraction(int(r == c)) for r in range(4)]
            expected = naive_solve(rows, unit)
            assert (inv is None) == (expected is None)
            if inv is not None:
                assert [inv[r][c] for r in range(4)] == expected

    def test_seeded_round_trip(self):
        rng = random.Random(7)
        for _ in range(40):
            rows = [[rand_fraction(rng, 30, 10) for _ in range(4)] for _ in range(4)]
            x = [rand_fraction(rng, 30, 10) for _ in range(4)]
            rhs = [sum(rows[r][c] * x[c] for c in range(4)) for r in range(4)]
            if naive_det(rows) == 0:
                assert solve_by_inverse(rows, rhs) is None
            else:
                assert solve_by_inverse(rows, rhs) == x


class TestInverse:
    def test_identity(self):
        eye = [[Fraction(int(r == c)) for c in range(3)] for r in range(3)]
        assert elim.inverse(eye) == eye

    def test_singular_returns_none(self):
        assert elim.inverse([[1, 2], [2, 4]]) is None

    def test_seeded_products(self):
        rng = random.Random(11)
        eye = [[Fraction(int(r == c)) for c in range(4)] for r in range(4)]
        checked = 0
        while checked < 25:
            rows = [[rand_fraction(rng, 20, 8) for _ in range(4)] for _ in range(4)]
            inv = elim.inverse(rows)
            if inv is None:
                continue
            product = [
                [sum(rows[r][t] * inv[t][c] for t in range(4)) for c in range(4)]
                for r in range(4)
            ]
            assert product == eye
            checked += 1


class TestRankAndKernel:
    def test_full_rank(self):
        assert elim.rank([[1, 0], [0, 1]]) == 2
        assert elim.kernel_vector([[1, 0], [0, 1]]) is None

    def test_duplicate_rows(self):
        rows = [[1, 2, 3], [1, 2, 3], [0, 1, 1]]
        assert elim.rank(rows) == 2
        vec = elim.kernel_vector(rows)
        assert vec is not None
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0

    def test_witness_is_canonical(self):
        # one relation: col2 = col0 + col1, so the first free column is 2
        rows = [[1, 0, 1], [0, 1, 1]]
        assert elim.kernel_vector(rows) == [Fraction(-1), Fraction(-1), Fraction(1)]

    def test_zero_matrix(self):
        rows = [[Fraction(0)] * 3 for _ in range(2)]
        assert elim.rank(rows) == 0
        assert elim.kernel_vector(rows) == [Fraction(1), Fraction(0), Fraction(0)]

    def test_pivot_columns_deterministic(self):
        rows = [[0, 1, 2], [0, 2, 4], [1, 0, 0]]
        pivots = engine_pivots(rows)
        assert pivots == [0, 1]

    def test_seeded_kernel_annihilates(self):
        rng = random.Random(13)
        for _ in range(30):
            # build a guaranteed-defective wide matrix
            rows = [[rand_fraction(rng, 10, 6) for _ in range(6)] for _ in range(4)]
            vec = elim.kernel_vector(rows)
            assert vec is not None
            assert any(vec)
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0

    def test_rank_matches_naive_det(self):
        rng = random.Random(17)
        for _ in range(30):
            rows = [[rand_fraction(rng, 10, 6) for _ in range(4)] for _ in range(4)]
            full = elim.rank(rows) == 4
            assert full == (naive_det(rows) != 0)

    @settings(deadline=None, max_examples=150)
    @given(st.one_of(low_rank_matrices(), any_matrices))
    def test_matches_naive_row_echelon(self, rows):
        _, pivots = naive_row_echelon(rows)
        assert engine_pivots(rows) == pivots
        assert elim.rank(rows) == len(pivots)
        assert elim.kernel_vector(rows) == naive_kernel_vector(rows)
        assert elim.rank_and_kernel(rows) == (len(pivots), naive_kernel_vector(rows))
