"""Frame expansion engine: system matrices, expansion, rank analysis."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatlin import (
    BASIS,
    BUILTIN_FRAME_NAMES,
    I,
    IDENTITY,
    Frame,
    FrameSpecError,
    FrameTerm,
    Operator4,
    Quaternion,
    Side,
    SingularFrameError,
    builtin_frame,
    conj_op,
    conjugation_by,
    cyclic_op,
    cyclic_sq_op,
    expand,
    family_rank,
    frame_determinant,
    frame_matrix,
    left_mul_op,
    parse_frame_spec,
    parse_frame_terms,
    reconstruct,
    right_mul_op,
    rot_i_op,
    rot_j_op,
)

from conftest import rand_operator, rand_quaternion

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=8)
quaternions = st.builds(Quaternion, rationals, rationals, rationals, rationals)


def quat(w, x, y, z) -> Quaternion:
    return Quaternion(w, x, y, z)


class TestBuiltinFrames:
    def test_names(self):
        assert BUILTIN_FRAME_NAMES == ("RIGHT_UNITS", "AUTO", "SINGULAR_ATTEMPT")
        with pytest.raises(ValueError):
            builtin_frame("NO_SUCH_FRAME")

    def test_right_units_terms(self):
        frame = builtin_frame("RIGHT_UNITS")
        assert frame.name == "RIGHT_UNITS"
        assert [t.base for t in frame.terms] == [right_mul_op(e) for e in BASIS]
        assert all(t.side is Side.LEFT for t in frame.terms)

    def test_auto_terms(self):
        frame = builtin_frame("AUTO")
        assert [t.base for t in frame.terms] == [IDENTITY, cyclic_op(), rot_i_op(), rot_j_op()]
        assert all(t.side is Side.LEFT for t in frame.terms)

    def test_singular_attempt_terms(self):
        frame = builtin_frame("SINGULAR_ATTEMPT")
        assert [t.base for t in frame.terms] == [IDENTITY, cyclic_op(), cyclic_sq_op(), conj_op()]

    def test_determinants_frozen(self):
        assert frame_determinant(builtin_frame("RIGHT_UNITS")) == Fraction(65536)
        assert frame_determinant(builtin_frame("AUTO")) == Fraction(256)
        assert frame_determinant(builtin_frame("SINGULAR_ATTEMPT")) == Fraction(0)

    def test_frame_needs_four_terms(self):
        term = FrameTerm(IDENTITY, Side.LEFT)
        with pytest.raises(ValueError):
            Frame((term, term, term), "short")  # type: ignore[arg-type]


class TestFrameMatrix:
    def test_column_layout(self):
        frame = builtin_frame("RIGHT_UNITS")
        matrix = frame_matrix(frame)
        for t in range(4):
            for s in range(4):
                expected = (left_mul_op(BASIS[s]) @ right_mul_op(BASIS[t])).flatten()
                column = tuple(matrix[r][4 * t + s] for r in range(16))
                assert column == expected

    def test_right_side_layout(self):
        term = FrameTerm(cyclic_op(), Side.RIGHT)
        frame = Frame((term, term, term, term), "all-right")
        matrix = frame_matrix(frame)
        expected = (right_mul_op(BASIS[2]) @ cyclic_op()).flatten()
        column = tuple(matrix[r][2] for r in range(16))
        assert column == expected


class TestExpand:
    def test_left_multiplication_in_right_units(self):
        a = quat(1, 2, 3, 4)
        exp = expand(left_mul_op(a), builtin_frame("RIGHT_UNITS"))
        assert exp.coefficients == (a, quat(0, 0, 0, 0), quat(0, 0, 0, 0), quat(0, 0, 0, 0))

    def test_right_multiplication_in_right_units(self):
        a = quat(1, 2, 3, 4)
        exp = expand(right_mul_op(a), builtin_frame("RIGHT_UNITS"))
        assert exp.coefficients == (quat(1, 0, 0, 0), quat(2, 0, 0, 0), quat(3, 0, 0, 0), quat(4, 0, 0, 0))

    def test_sum_in_right_units(self):
        f = left_mul_op(I) + right_mul_op(I)
        exp = expand(f, builtin_frame("RIGHT_UNITS"))
        assert exp.coefficients == (I, quat(1, 0, 0, 0), quat(0, 0, 0, 0), quat(0, 0, 0, 0))

    def test_conjugation_in_auto(self):
        exp = expand(conjugation_by(quat(1, 1, 1, 1)), builtin_frame("AUTO"))
        assert exp.coefficients == (quat(0, 0, 0, 0), quat(1, 0, 0, 0), quat(0, 0, 0, 0), quat(0, 0, 0, 0))

    def test_right_multiplication_in_auto(self):
        exp = expand(right_mul_op(quat(1, 2, 3, 4)), builtin_frame("AUTO"))
        assert exp.coefficients == (
            quat(2, 0, 0, 0),
            quat(-4, 4, 4, 4),
            quat(2, -2, 0, 0),
            quat(1, 0, -1, 0),
        )

    def test_singular_frame_raises_with_report(self):
        with pytest.raises(SingularFrameError) as exc:
            expand(IDENTITY, builtin_frame("SINGULAR_ATTEMPT"))
        report = exc.value.report
        assert report.rank == 12
        assert report.nullity == 4
        assert "SINGULAR_ATTEMPT" in str(exc.value)

    def test_seeded_round_trip_both_frames(self):
        rng = random.Random(43)
        for name in ("RIGHT_UNITS", "AUTO"):
            frame = builtin_frame(name)
            for _ in range(25):
                f = rand_operator(rng)
                exp = expand(f, frame)
                assert reconstruct(exp) == f

    @settings(max_examples=30, deadline=None)
    @given(st.lists(rationals, min_size=16, max_size=16))
    def test_property_round_trip(self, entries):
        f = Operator4(tuple(tuple(entries[4 * r + c] for c in range(4)) for r in range(4)))  # type: ignore[arg-type]
        for name in ("RIGHT_UNITS", "AUTO"):
            exp = expand(f, builtin_frame(name))
            assert reconstruct(exp) == f

    def test_uniqueness_of_coefficients(self):
        rng = random.Random(47)
        frame = builtin_frame("AUTO")
        for _ in range(20):
            coeffs_a = tuple(rand_quaternion(rng, 10, 6) for _ in range(4))
            coeffs_b = tuple(rand_quaternion(rng, 10, 6) for _ in range(4))
            from quatlin import Expansion

            fa = reconstruct(Expansion(coeffs_a, frame))
            fb = reconstruct(Expansion(coeffs_b, frame))
            if coeffs_a == coeffs_b:
                assert fa == fb
            else:
                assert fa != fb

    def test_expansion_recovers_own_coefficients(self):
        rng = random.Random(53)
        frame = builtin_frame("RIGHT_UNITS")
        from quatlin import Expansion

        coeffs = tuple(rand_quaternion(rng, 10, 6) for _ in range(4))
        f = reconstruct(Expansion(coeffs, frame))
        assert expand(f, frame).coefficients == coeffs


class TestReconstruct:
    def test_zero_coefficients(self):
        from quatlin import Expansion

        frame = builtin_frame("AUTO")
        zero = (Quaternion(), Quaternion(), Quaternion(), Quaternion())
        assert reconstruct(Expansion(zero, frame)) == Operator4.zero()

    def test_term_sides(self):
        left = Frame((FrameTerm(IDENTITY, Side.LEFT),) * 4, "left")
        right = Frame((FrameTerm(IDENTITY, Side.RIGHT),) * 4, "right")
        from quatlin import Expansion

        coeffs = (I, Quaternion(), Quaternion(), Quaternion())
        assert reconstruct(Expansion(coeffs, left)) == left_mul_op(I)
        assert reconstruct(Expansion(coeffs, right)) == right_mul_op(I)


class TestFamilyRank:
    def test_singular_attempt_frozen(self):
        report = family_rank(builtin_frame("SINGULAR_ATTEMPT").terms)
        assert (report.rank, report.nullity, report.unknowns) == (12, 4, 16)
        assert report.defect_witness == (
            quat("-1/2", "1/2", "1/2", "1/2"),
            quat("-1/2", "-1/2", "-1/2", "-1/2"),
            quat(1, 0, 0, 0),
            quat(0, 0, 0, 0),
        )

    def test_witness_annihilates(self):
        frame = builtin_frame("SINGULAR_ATTEMPT")
        report = family_rank(frame.terms)
        total = Operator4.zero()
        for coeff, term in zip(report.defect_witness, frame.terms):
            total = total + left_mul_op(coeff) @ term.base
        assert total == Operator4.zero()

    def test_identity_plus_conj_frozen(self):
        terms = [FrameTerm(IDENTITY, Side.LEFT), FrameTerm(conj_op(), Side.LEFT)]
        report = family_rank(terms)
        assert (report.rank, report.nullity, report.unknowns) == (8, 0, 8)
        assert report.defect_witness is None

    def test_full_space_dimension(self):
        # the 16 elementary operators x -> e_s * x * e_t span everything
        terms = [
            FrameTerm(left_mul_op(es) @ right_mul_op(et), Side.LEFT)
            for es in BASIS
            for et in BASIS
        ]
        report = family_rank(terms)
        assert report.rank == 16
        assert report.unknowns == 64

    def test_invertible_frames_full_rank(self):
        for name in ("RIGHT_UNITS", "AUTO"):
            report = family_rank(builtin_frame(name).terms)
            assert report.rank == 16
            assert report.nullity == 0
            assert report.defect_witness is None

    def test_repeated_identity(self):
        terms = [FrameTerm(IDENTITY, Side.LEFT)] * 4
        report = family_rank(terms)
        assert report.rank == 4
        assert report.unknowns == 16

    def test_monotone_under_extension(self):
        terms = list(builtin_frame("SINGULAR_ATTEMPT").terms)
        ranks = [family_rank(terms[: k + 1]).rank for k in range(4)]
        assert ranks == sorted(ranks)
        assert all(r <= 16 for r in ranks)
        assert ranks[-1] == 12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            family_rank([])


class TestFrameSpecs:
    def test_named_terms(self):
        terms = parse_frame_terms("L:id L:A1 L:A1A1 L:I")
        assert [t.base for t in terms] == [IDENTITY, cyclic_op(), cyclic_sq_op(), conj_op()]
        assert all(t.side is Side.LEFT for t in terms)

    def test_right_side(self):
        terms = parse_frame_terms("R:I")
        assert terms[0].side is Side.RIGHT
        assert terms[0].base == conj_op()

    def test_inline_matrix(self):
        spec = 'L:[[0,-1,0,0],[1,0,0,0],[0,0,0,1],[0,0,-1,0]]'
        terms = parse_frame_terms(spec)
        assert terms[0].base == right_mul_op(I)

    def test_inline_matrix_with_fractions_and_spaces(self):
        spec = 'L:[["1/2", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]'
        terms = parse_frame_terms(spec)
        assert terms[0].base.rows[0][0] == Fraction(1, 2)

    def test_full_frame_named_after_spec(self):
        frame = parse_frame_spec("L:id  L:A1   L:A2 L:A3")
        assert frame.name == "L:id L:A1 L:A2 L:A3"
        assert frame_determinant(frame) == frame_determinant(builtin_frame("AUTO"))

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "L:id L:A1",
            "L:id L:A1 L:A2 L:A3 L:I",
            "X:id L:A1 L:A2 L:A3",
            "L:nosuch L:A1 L:A2 L:A3",
            "id L:A1 L:A2 L:A3",
            "L: L:A1 L:A2 L:A3",
        ],
    )
    def test_bad_full_frames(self, spec):
        with pytest.raises(FrameSpecError):
            parse_frame_spec(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            "L:[[1,2],[3,4]]",
            "L:[[0.5,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]",
            "L:[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]",
            "L:[1,0,0,0]]",
            "L:[not json]",
            'L:[["1/0",0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]',
            'L:[["x",0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]',
            pytest.param('L:[["' + "7" * 5000 + '",0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]', id="huge-literal"),
            pytest.param("L:[[" + "7" * 5000 + ",0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]", id="huge-integer"),
            pytest.param("L:" + "[" * 100000 + "]" * 100000, id="deep-nesting"),
        ],
    )
    def test_bad_inline_matrices(self, spec):
        with pytest.raises(FrameSpecError):
            parse_frame_terms(spec)

    def test_expansion_in_parsed_frame(self):
        frame = parse_frame_spec("L:id L:A1 L:A2 L:A3")
        f = conjugation_by(quat(1, 1, 1, 1))
        exp = expand(f, frame)
        assert reconstruct(exp) == f
        assert exp.coefficients[1] == quat(1, 0, 0, 0)
