"""Exact rational and quaternion arithmetic."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quatlin import (
    BASIS,
    I,
    J,
    K,
    ONE,
    ZERO,
    Quaternion,
    RationalFormatError,
    RationalSizeError,
    ZeroQuaternionError,
    format_rational,
    parse_rational,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
quaternions = st.builds(Quaternion, rationals, rationals, rationals, rationals)


class TestParseRational:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", Fraction(0)),
            ("3", Fraction(3)),
            ("+5", Fraction(5)),
            ("-7/2", Fraction(-7, 2)),
            ("2/4", Fraction(1, 2)),
            ("100/100", Fraction(1)),
            ("-0", Fraction(0)),
            pytest.param("-" + "9" * 4300, Fraction(1 - 10**4300), id="digit-cap"),
            pytest.param("1/" + "9" * 4300, Fraction(1, 10**4300 - 1), id="digit-cap-denominator"),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "", "1.5", "1/0", "0/0", "1 / 2", "a", "1/-2", "--1", "1/2/3", "1e3", "½", "+",
            pytest.param("-" + "9" * 4301, id="over-digit-cap"),
            pytest.param("1/" + "9" * 4301, id="over-digit-cap-denominator"),
            pytest.param("7" * 5000, id="over-int-str-limit"),
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(RationalFormatError):
            parse_rational(text)

    def test_rejects_non_string(self):
        with pytest.raises(RationalFormatError):
            parse_rational(7)  # type: ignore[arg-type]

    @given(rationals)
    def test_round_trip(self, value):
        assert parse_rational(format_rational(value)) == value

    def test_format_is_canonical(self):
        assert format_rational(Fraction(4, 2)) == "2"
        assert format_rational(Fraction(-1, 3)) == "-1/3"

    def test_format_caps_digits(self):
        assert format_rational(Fraction(1 - 10**4300)) == "-" + "9" * 4300
        assert format_rational(Fraction(1, 10**4300 - 1)) == "1/" + "9" * 4300
        for value in (Fraction(10**4300), Fraction(-(10**4300), 7), Fraction(1, 10**4300)):
            with pytest.raises(RationalSizeError, match="4300"):
                format_rational(value)


class TestConstruction:
    def test_coerces_ints_and_strings(self):
        q = Quaternion(1, "1/2", Fraction(3), "-2")
        assert q.coords() == (Fraction(1), Fraction(1, 2), Fraction(3), Fraction(-2))

    def test_defaults_to_zero(self):
        assert Quaternion() == ZERO

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Quaternion(0.5, 0, 0, 0)

    def test_from_strings_needs_four(self):
        with pytest.raises(ValueError):
            Quaternion.from_strings(["1", "2", "3"])

    def test_string_round_trip(self):
        q = Quaternion("1/3", "-2", "0", "7/5")
        assert Quaternion.from_strings(q.to_strings()) == q

    def test_hashable(self):
        assert len({Quaternion(1, 2, 3, 4), Quaternion(1, 2, 3, 4)}) == 1


class TestMultiplicationTable:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (I, I, -ONE),
            (J, J, -ONE),
            (K, K, -ONE),
            (I, J, K),
            (J, K, I),
            (K, I, J),
            (J, I, -K),
            (K, J, -I),
            (I, K, -J),
        ],
    )
    def test_unit_products(self, a, b, expected):
        assert a * b == expected

    def test_one_is_identity(self):
        for e in BASIS:
            assert ONE * e == e
            assert e * ONE == e

    def test_worked_product(self):
        # (1+i+j+k)(1-i-j-k) = |1+i+j+k|^2 = 4
        assert Quaternion(1, 1, 1, 1) * Quaternion(1, -1, -1, -1) == Quaternion(4, 0, 0, 0)

    def test_scalar_multiplication(self):
        q = Quaternion(1, 2, 3, 4)
        assert 2 * q == Quaternion(2, 4, 6, 8)
        assert q * Fraction(1, 2) == Quaternion("1/2", 1, "3/2", 2)


class TestAlgebraLaws:
    @given(quaternions, quaternions, quaternions)
    def test_multiplication_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(quaternions, quaternions, quaternions)
    def test_left_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(quaternions, quaternions, quaternions)
    def test_right_distributive(self, a, b, c):
        assert (a + b) * c == a * c + b * c

    @given(quaternions, quaternions)
    def test_norm_multiplicative(self, a, b):
        assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()

    @given(quaternions, quaternions)
    def test_conjugate_reverses_products(self, a, b):
        assert (a * b).conjugate() == b.conjugate() * a.conjugate()

    @given(quaternions)
    def test_conjugate_involution(self, a):
        assert a.conjugate().conjugate() == a

    @given(quaternions)
    def test_norm_via_conjugate(self, a):
        n = a * a.conjugate()
        assert n == Quaternion(a.norm_sq(), 0, 0, 0)

    @given(quaternions)
    def test_inverse_round_trip(self, a):
        if a.is_zero():
            return
        assert a * a.inverse() == ONE
        assert a.inverse() * a == ONE


class TestInverse:
    def test_worked_inverse(self):
        assert Quaternion(1, 1, 1, 1).inverse() == Quaternion("1/4", "-1/4", "-1/4", "-1/4")

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroQuaternionError):
            ZERO.inverse()

    def test_norm_sq(self):
        assert Quaternion(1, 2, 3, 4).norm_sq() == Fraction(30)


class TestDisplay:
    @pytest.mark.parametrize(
        "q,expected",
        [
            (ZERO, "0"),
            (ONE, "1"),
            (-ONE, "-1"),
            (I, "i"),
            (-I, "-i"),
            (Quaternion(1, 2, 3, 4), "1 + 2i + 3j + 4k"),
            (Quaternion(0, -1, 0, "1/2"), "-i + 1/2k"),
            (Quaternion("-3/2", 0, 1, 0), "-3/2 + j"),
            (Quaternion(0, 0, 0, -2), "-2k"),
        ],
    )
    def test_str(self, q, expected):
        assert str(q) == expected

    def test_approx_is_float_view(self):
        assert Quaternion("1/2", 0, -1, 0).approx() == (0.5, 0.0, -1.0, 0.0)

    def test_bool(self):
        assert not ZERO
        assert ONE
