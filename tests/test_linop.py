"""Operator matrices and the regular representation of multiplication."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quatlin import (
    BASIS,
    I,
    IDENTITY,
    J,
    K,
    ONE,
    Operator4,
    Quaternion,
    left_mul_op,
    right_mul_op,
)

from conftest import rand_operator, rand_quaternion

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
quaternions = st.builds(Quaternion, rationals, rationals, rationals, rationals)


class TestConstruction:
    def test_identity(self):
        for e in BASIS:
            assert IDENTITY(e) == e

    def test_zero(self):
        assert Operator4.zero()(Quaternion(1, 2, 3, 4)) == Quaternion()

    def test_from_unit_images_sets_columns(self):
        f = Operator4.from_unit_images(ONE, J, K, I)
        assert f.column(0) == ONE
        assert f.column(1) == J
        assert f.column(2) == K
        assert f.column(3) == I
        assert f.unit_images() == (ONE, J, K, I)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            Operator4(((1, 2), (3, 4)))  # type: ignore[arg-type]

    def test_float_rejected(self):
        rows = [[0] * 4 for _ in range(4)]
        rows[0][0] = 0.5
        with pytest.raises(TypeError):
            Operator4(tuple(tuple(r) for r in rows))  # type: ignore[arg-type]

    def test_string_round_trip(self):
        f = left_mul_op(Quaternion("1/2", 3, 0, "-2/7"))
        assert Operator4.from_strings(f.to_strings()) == f

    def test_flatten_is_row_major(self):
        f = Operator4(tuple(tuple(4 * r + c for c in range(4)) for r in range(4)))  # type: ignore[arg-type]
        flat = f.flatten()
        for r in range(4):
            for c in range(4):
                assert flat[4 * r + c] == f.rows[r][c]


class TestRegularRepresentation:
    @given(quaternions, quaternions)
    def test_left_matrix_multiplies(self, a, x):
        assert left_mul_op(a)(x) == a * x

    @given(quaternions, quaternions)
    def test_right_matrix_multiplies(self, a, x):
        assert right_mul_op(a)(x) == x * a

    @given(quaternions, quaternions)
    def test_left_is_covariant(self, a, b):
        assert left_mul_op(a * b) == left_mul_op(a) @ left_mul_op(b)

    @given(quaternions, quaternions)
    def test_right_reverses_order(self, a, b):
        assert right_mul_op(a * b) == right_mul_op(b) @ right_mul_op(a)

    @given(quaternions, quaternions)
    def test_left_and_right_commute(self, a, b):
        assert left_mul_op(a) @ right_mul_op(b) == right_mul_op(b) @ left_mul_op(a)

    @given(quaternions)
    def test_det_is_norm_squared_squared(self, a):
        n = a.norm_sq()
        assert left_mul_op(a).det() == n * n
        assert right_mul_op(a).det() == n * n

    def test_worked_det(self):
        assert left_mul_op(Quaternion(1, 2, 3, 4)).det() == Fraction(900)

    def test_seeded_unit_actions(self):
        rng = random.Random(23)
        for _ in range(50):
            a = rand_quaternion(rng)
            for e in BASIS:
                assert left_mul_op(a)(e) == a * e
                assert right_mul_op(a)(e) == e * a


class TestOperatorAlgebra:
    def test_compose_matches_application(self):
        rng = random.Random(29)
        for _ in range(20):
            f, g = rand_operator(rng, 10, 6), rand_operator(rng, 10, 6)
            x = rand_quaternion(rng, 10, 6)
            assert (f @ g)(x) == f(g(x))

    def test_identity_neutral(self):
        f = left_mul_op(Quaternion(1, 2, 3, 4))
        assert IDENTITY @ f == f
        assert f @ IDENTITY == f

    def test_addition_pointwise(self):
        f = left_mul_op(I)
        g = right_mul_op(I)
        x = Quaternion(1, 2, 3, 4)
        assert (f + g)(x) == I * x + x * I
        assert (f - g)(x) == I * x - x * I

    def test_scaling(self):
        f = left_mul_op(J)
        x = Quaternion(1, 0, -2, 0)
        assert (2 * f)(x) == 2 * (J * x)
        assert (f * Fraction(1, 3))(x) == (J * x) * Fraction(1, 3)

    def test_negation(self):
        f = right_mul_op(K)
        assert (-f)(ONE) == -K

    def test_invertibility(self):
        assert IDENTITY.det() == 1
        assert Operator4.zero().det() == 0

    def test_str_compact(self):
        assert str(IDENTITY) == "[1 0 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1]"
