"""Automorphism catalog, classification, coordinate conditions, recovery."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatlin import (
    CATALOG_NAMES,
    I,
    IDENTITY,
    J,
    K,
    ONE,
    AutoTag,
    NotAnAutomorphismError,
    Operator4,
    Quaternion,
    ZeroQuaternionError,
    anti_op,
    catalog_operator,
    check_coordinate_conditions,
    classify,
    conj_op,
    conjugation_by,
    cyclic_op,
    cyclic_sq_op,
    left_mul_op,
    operator_order,
    recover_conjugator,
    rot_i_op,
    rot_j_op,
)

from conftest import collinear, rand_fraction, rand_nonzero_quaternion

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
quaternions = st.builds(Quaternion, rationals, rationals, rationals, rationals)


def op_rows(f: Operator4):
    return tuple(tuple(int(c) if c.denominator == 1 else c for c in row) for row in f.rows)


class TestCatalogMatrices:
    def test_cyclic(self):
        assert op_rows(cyclic_op()) == ((1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0))
        assert cyclic_op()(I) == J
        assert cyclic_op()(J) == K
        assert cyclic_op()(K) == I
        assert cyclic_op()(ONE) == ONE

    def test_cyclic_sq(self):
        assert op_rows(cyclic_sq_op()) == ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0))
        assert cyclic_sq_op() == cyclic_op() @ cyclic_op()
        assert cyclic_sq_op()(I) == K

    def test_rot_i(self):
        assert op_rows(rot_i_op()) == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))
        assert rot_i_op()(J) == K
        assert rot_i_op()(K) == -J
        assert rot_i_op()(I) == I

    def test_rot_j(self):
        assert op_rows(rot_j_op()) == ((1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, -1, 0, 0))
        assert rot_j_op()(K) == I
        assert rot_j_op()(I) == -K

    def test_conj(self):
        assert op_rows(conj_op()) == ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))
        assert conj_op()(Quaternion(1, 2, 3, 4)) == Quaternion(1, -2, -3, -4)
        assert conj_op() @ conj_op() == IDENTITY

    def test_anti_ops(self):
        assert anti_op(1) == cyclic_op() @ conj_op()
        assert anti_op(2) == cyclic_sq_op() @ conj_op()
        assert anti_op(1)(I) == -J
        assert cyclic_op() @ anti_op(1) == anti_op(2)
        with pytest.raises(ValueError):
            anti_op(3)

    def test_catalog_lookup(self):
        assert catalog_operator("id") == IDENTITY
        assert catalog_operator("A1") == cyclic_op()
        assert catalog_operator("A1A1") == cyclic_sq_op()
        assert catalog_operator("I2") == anti_op(2)
        with pytest.raises(ValueError):
            catalog_operator("A9")

    def test_orders(self):
        assert [operator_order(catalog_operator(n)) for n in CATALOG_NAMES] == [1, 3, 4, 4, 2, 6, 6]
        assert operator_order(cyclic_sq_op()) == 3
        assert cyclic_op() @ cyclic_sq_op() == IDENTITY

    def test_order_cap(self):
        assert operator_order(2 * IDENTITY, cap=10) is None


class TestConjugationBy:
    def test_one_gives_identity(self):
        assert conjugation_by(ONE) == IDENTITY

    def test_scale_invariance(self):
        q = Quaternion(2, -1, 3, 5)
        assert conjugation_by(q) == conjugation_by(q * 3)
        assert conjugation_by(q) == conjugation_by(q * Fraction(-1, 7))

    def test_zero_rejected(self):
        with pytest.raises(ZeroQuaternionError):
            conjugation_by(Quaternion())

    def test_catalog_entries_are_inner(self):
        assert cyclic_op() == conjugation_by(Quaternion(1, 1, 1, 1))
        assert cyclic_sq_op() == conjugation_by(Quaternion(1, -1, -1, -1))
        assert rot_i_op() == conjugation_by(Quaternion(1, 1, 0, 0))
        assert rot_j_op() == conjugation_by(Quaternion(1, 0, 1, 0))
        assert Operator4.from_unit_images(ONE, J, -I, K) == conjugation_by(Quaternion(1, 0, 0, 1))

    def test_worked_matrix(self):
        f = conjugation_by(Quaternion(2, 3, 5, 7))
        assert f.to_strings() == [
            ["1", "0", "0", "0"],
            ["0", "-61/87", "2/87", "62/87"],
            ["0", "2/3", "-1/3", "2/3"],
            ["0", "22/87", "82/87", "19/87"],
        ]

    @given(quaternions, quaternions)
    def test_is_homomorphism(self, q, x):
        if q.is_zero():
            return
        f = conjugation_by(q)
        y = Quaternion(1, 0, 2, 0)
        assert f(x * y) == f(x) * f(y)

    @given(quaternions)
    def test_preserves_norm(self, x):
        f = conjugation_by(Quaternion(2, 3, 5, 7))
        assert f(x).norm_sq() == x.norm_sq()


class TestClassify:
    def test_catalog_tags(self):
        expected = {
            "id": AutoTag.LINEAR,
            "A1": AutoTag.LINEAR,
            "A2": AutoTag.LINEAR,
            "A3": AutoTag.LINEAR,
            "I": AutoTag.ANTILINEAR,
            "I1": AutoTag.ANTILINEAR,
            "I2": AutoTag.ANTILINEAR,
        }
        for name, tag in expected.items():
            kind = classify(catalog_operator(name))
            assert kind.tag is tag
            assert kind.reason is None

    def test_not_unital(self):
        kind = classify(IDENTITY + IDENTITY)
        assert kind.tag is AutoTag.NEITHER
        assert kind.reason == "not unital: f(1) = 2"

    def test_left_mul_not_unital(self):
        kind = classify(left_mul_op(I))
        assert kind.tag is AutoTag.NEITHER
        assert kind.reason == "not unital: f(1) = i"

    def test_not_invertible(self):
        f = Operator4(((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))  # type: ignore[arg-type]
        kind = classify(f)
        assert kind.tag is AutoTag.NEITHER
        assert kind.reason == "not invertible: det f = 0"

    def test_neither_law_holds(self):
        f = Operator4(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2)))  # type: ignore[arg-type]
        kind = classify(f)
        assert kind.tag is AutoTag.NEITHER
        assert kind.reason == "f(i*j) != f(i)*f(j) and f(i*j) != f(j)*f(i)"

    def test_composition_parity(self):
        ops = {name: catalog_operator(name) for name in CATALOG_NAMES}
        linear = {"id", "A1", "A2", "A3"}
        for name_f, f in ops.items():
            for name_g, g in ops.items():
                composed = classify(f @ g)
                same_parity = (name_f in linear) == (name_g in linear)
                expected = AutoTag.LINEAR if same_parity else AutoTag.ANTILINEAR
                assert composed.tag is expected, (name_f, name_g)

    @given(quaternions)
    def test_conjugations_are_linear(self, q):
        if q.is_zero():
            return
        assert classify(conjugation_by(q)).tag is AutoTag.LINEAR


class TestCoordinateConditions:
    def test_catalog_agreement(self):
        for name in CATALOG_NAMES:
            f = catalog_operator(name)
            assert bool(check_coordinate_conditions(f)) == (classify(f).tag is AutoTag.LINEAR)

    def test_conj_fails_on_determinant(self):
        report = check_coordinate_conditions(conj_op())
        assert not report
        assert report.failure == "imaginary block determinant is -1, not 1"

    def test_left_mul_fails_on_unit(self):
        report = check_coordinate_conditions(left_mul_op(I))
        assert report.failure == "does not fix the unit: f(1) = i"

    def test_scalar_row_leak(self):
        rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        rows[0][2] = 1
        report = check_coordinate_conditions(Operator4(tuple(tuple(r) for r in rows)))  # type: ignore[arg-type]
        assert report.failure == "scalar row not preserved: entry (0, 2) = 1"

    def test_non_orthogonal_block(self):
        f = Operator4(((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))  # type: ignore[arg-type]
        report = check_coordinate_conditions(f)
        assert report.failure == "imaginary block not orthogonal: (Q^T Q)[0][0] = 4"

    def test_equivalence_on_random_conjugations(self):
        rng = random.Random(31)
        for _ in range(60):
            f = conjugation_by(rand_nonzero_quaternion(rng, 20, 8))
            assert check_coordinate_conditions(f).ok
            assert classify(f).tag is AutoTag.LINEAR

    def test_equivalence_on_perturbed_maps(self):
        rng = random.Random(37)
        for _ in range(60):
            f = conjugation_by(rand_nonzero_quaternion(rng, 20, 8))
            rows = [list(row) for row in f.rows]
            r, c = rng.randrange(4), rng.randrange(4)
            bump = Fraction(0)
            while bump == 0:
                bump = rand_fraction(rng, 5, 3)
            rows[r][c] += bump
            g = Operator4(tuple(tuple(row) for row in rows))  # type: ignore[arg-type]
            assert bool(check_coordinate_conditions(g)) == (classify(g).tag is AutoTag.LINEAR)


class TestRecoverConjugator:
    def test_identity(self):
        q = recover_conjugator(IDENTITY)
        assert collinear(q, ONE)
        assert conjugation_by(q) == IDENTITY

    def test_catalog_conjugators(self):
        assert collinear(recover_conjugator(cyclic_op()), Quaternion(1, 1, 1, 1))
        assert collinear(recover_conjugator(cyclic_sq_op()), Quaternion(1, -1, -1, -1))
        assert collinear(recover_conjugator(rot_i_op()), Quaternion(1, 1, 0, 0))
        assert collinear(recover_conjugator(rot_j_op()), Quaternion(1, 0, 1, 0))

    def test_pure_imaginary_conjugator(self):
        # first trace candidate vanishes here; recovery must fall through
        q = recover_conjugator(conjugation_by(I))
        assert collinear(q, I)
        assert not q.is_zero()

    def test_worked_recovery(self):
        q = recover_conjugator(conjugation_by(Quaternion(2, 3, 5, 7)))
        assert q.to_strings() == ("16/87", "8/29", "40/87", "56/87")
        assert collinear(q, Quaternion(2, 3, 5, 7))

    def test_rejects_antilinear(self):
        with pytest.raises(NotAnAutomorphismError):
            recover_conjugator(conj_op())

    def test_rejects_non_unital(self):
        with pytest.raises(NotAnAutomorphismError) as exc:
            recover_conjugator(left_mul_op(I))
        assert "not unital" in str(exc.value)

    def test_seeded_round_trip(self):
        rng = random.Random(41)
        for _ in range(50):
            q = rand_nonzero_quaternion(rng, 50, 10)
            f = conjugation_by(q)
            recovered = recover_conjugator(f)
            assert collinear(recovered, q)
            assert conjugation_by(recovered) == f

    @settings(max_examples=40, deadline=None)
    @given(quaternions)
    def test_property_round_trip(self, q):
        if q.is_zero():
            return
        f = conjugation_by(q)
        recovered = recover_conjugator(f)
        assert collinear(recovered, q)
        assert conjugation_by(recovered) == f
