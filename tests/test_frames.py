"""Frame expansion engine: system matrices, expansion, rank analysis."""

from __future__ import annotations

import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatlin import frames, linop
from quatlin import (
    BASIS,
    CATALOG_NAMES,
    Expansion,
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


# Fraction oracle for the integer frame core: the system built by composing
# each term's multiplication operator with its base (the definition of the
# expansion), solved by Gauss-Jordan elimination over Fractions.


def _term_mul(term: FrameTerm):
    return left_mul_op if term.side is Side.LEFT else right_mul_op


def oracle_system(frame: Frame) -> list[list[Fraction]]:
    cols = [(_term_mul(term)(e) @ term.base).flatten() for term in frame.terms for e in BASIS]
    return [[col[r] for col in cols] for r in range(16)]


def oracle_solve(matrix, b) -> list[Fraction] | None:
    n = len(matrix)
    m = [list(row) + [b[r]] for r, row in enumerate(matrix)]
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return None
        m[k], m[piv] = m[piv], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                lead = m[i][k]
                m[i] = [x - lead * y for x, y in zip(m[i], m[k])]
    return [m[i][n] for i in range(n)]


def oracle_reconstruct(coeffs, frame: Frame) -> Operator4:
    total = Operator4.zero()
    for coeff, term in zip(coeffs, frame.terms):
        total = total + _term_mul(term)(coeff) @ term.base
    return total


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)
matrices = st.lists(small_rationals, min_size=16, max_size=16).map(
    lambda xs: tuple(tuple(xs[4 * r : 4 * r + 4]) for r in range(4))
)


def _inline_frame(sides_and_mats) -> Frame:
    return parse_frame_spec(" ".join(
        f"{side}:{json.dumps([[str(x) for x in row] for row in mat])}" for side, mat in sides_and_mats
    ))


inline_frames = st.lists(
    st.tuples(st.sampled_from("LR"), matrices), min_size=4, max_size=4
).map(_inline_frame)
catalog_frames = st.one_of(
    st.sampled_from(("RIGHT_UNITS", "AUTO")).map(builtin_frame),
    st.lists(
        st.tuples(st.sampled_from("LR"), st.sampled_from(CATALOG_NAMES)), min_size=4, max_size=4
    ).map(lambda terms: parse_frame_spec(" ".join(f"{side}:{name}" for side, name in terms))),
)
sparse_operators = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), small_rationals, max_size=3
).map(lambda d: Operator4(tuple(tuple(d.get((r, c), 0) for c in range(4)) for r in range(4))))  # type: ignore[arg-type]
operators = st.one_of(
    matrices.map(Operator4),
    sparse_operators,
    st.tuples(st.sampled_from((left_mul_op, right_mul_op)), quaternions).map(lambda p: p[0](p[1])),
)


class TestIntegerCore:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(inline_frames, catalog_frames), operators)
    def test_expand_matches_fraction_oracle(self, frame, f):
        solution = oracle_solve(oracle_system(frame), f.flatten())
        if solution is None:
            with pytest.raises(SingularFrameError) as exc:
                expand(f, frame)
            assert exc.value.report == family_rank(frame.terms)
            assert exc.value.report.rank < 16
            return
        exp = expand(f, frame)
        assert exp.coefficients == tuple(Quaternion(*solution[4 * t : 4 * t + 4]) for t in range(4))
        assert reconstruct(exp) == f == oracle_reconstruct(exp.coefficients, frame)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(inline_frames, catalog_frames), st.lists(quaternions, min_size=4, max_size=4))
    def test_reconstruct_matches_fraction_oracle(self, frame, coeffs):
        # Singular frames included: reconstruct is defined for any frame.
        assert reconstruct(Expansion(tuple(coeffs), frame)) == oracle_reconstruct(coeffs, frame)

    @pytest.mark.parametrize("name", ["RIGHT_UNITS", "AUTO"])
    def test_corrupted_inverse_entry_is_caught(self, name, monkeypatch):
        frame = builtin_frame(name)
        matrix, inv = frames._frame_inverse(frame)
        nums = [list(row) for row in inv.nums]
        nums[5][0] += 1
        corrupted = dataclasses.replace(inv, nums=tuple(tuple(row) for row in nums))
        monkeypatch.setattr(frames, "_frame_inverse", lambda fr: (matrix, corrupted))
        # No zero entry, so the changed inverse entry changes the coefficients.
        f = Operator4(tuple(tuple(4 * r + c + 1 for c in range(4)) for r in range(4)))  # type: ignore[arg-type]
        with pytest.raises(RuntimeError):
            expand(f, frame)

    def test_equal_frames_share_one_cache_entry(self):
        def build() -> Frame:
            # Fresh operators from text, so the two frames share no object.
            terms = parse_frame_terms("L:id L:A1 L:A2 L:A3")
            return Frame(tuple(
                FrameTerm(Operator4.from_strings(t.base.to_strings()), t.side) for t in terms
            ), "twin")  # type: ignore[arg-type]

        a, b = build(), build()
        assert a is not b and a.terms[1].base is not b.terms[1].base
        assert a == b and hash(a) == hash(b)
        expand(IDENTITY, a)
        before = frames._frame_inverse.cache_info()
        expand(IDENTITY, b)
        after = frames._frame_inverse.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_singular_verdict_is_cached(self, monkeypatch):
        frame = builtin_frame("SINGULAR_ATTEMPT")
        with pytest.raises(SingularFrameError):
            expand(IDENTITY, frame)
        monkeypatch.setattr(frames, "family_rank", lambda terms: pytest.fail("rank recomputed"))
        with pytest.raises(SingularFrameError) as exc:
            expand(IDENTITY, frame)
        assert (exc.value.report.rank, exc.value.report.nullity) == (12, 4)

    @pytest.mark.parametrize("name", ["RIGHT_UNITS", "AUTO"])
    def test_cached_frame_composes_no_operators(self, name, monkeypatch):
        calls: list[str] = []

        def counting(label, fn):
            def wrapper(*args, **kwargs):
                calls.append(label)
                return fn(*args, **kwargs)
            return wrapper

        frame = builtin_frame(name)
        f = rand_operator(random.Random(71))
        expand(f, frame)  # fill the cache
        monkeypatch.setattr(Operator4, "__matmul__", counting("compose", Operator4.__matmul__))
        for module in (linop, frames):
            for fn_name in ("left_mul_op", "right_mul_op"):
                monkeypatch.setattr(module, fn_name, counting(fn_name, getattr(module, fn_name)))
        assert reconstruct(expand(f, frame)) == f
        assert calls == []
        linop.left_mul_op(I) @ IDENTITY  # the counters are live
        assert calls == ["left_mul_op", "compose"]
