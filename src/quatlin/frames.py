"""Frame expansions: unique quaternion-coefficient decompositions.

The R-linear endomorphisms of the quaternion algebra form a 16-dimensional
real space. A *frame* is an ordered choice of four base operators, each
tagged with a side; a frame expansion writes an arbitrary operator f as

    f(x) = sum_t  a_t * (base_t x)        (Left terms)
         +        (base_t x) * a_t        (Right terms)

with four unknown quaternion coefficients a_0..a_3, i.e. 16 real unknowns.
Collecting the flattened matrices of x -> e_s*(base_t x) (or the right
sided analog) as columns yields a 16x16 rational system; the frame is
usable exactly when that matrix is invertible, and then every operator has
one and only one expansion.

Not every plausible frame works. ``family_rank`` measures the span of any
term list and produces a canonical kernel witness when the family is
defective; the builtin ``SINGULAR_ATTEMPT`` frame is a natural-looking
choice (identity, the 3-cycle, its square, conjugation, all with left
coefficients) that is singular, kept around as a worked example of the
failure mode.

Layout conventions, fixed so reports are reproducible bit for bit:
operators flatten row-major (entry (r, c) at index 4r + c), the unknown
for coordinate s of coefficient t is column 4t + s, and elimination pivots
are first-nonzero-by-index.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from . import elim, linop
from .autos import catalog_operator, conj_op, cyclic_op, cyclic_sq_op, rot_i_op, rot_j_op
from .linop import IDENTITY, Operator4, left_mul_op, right_mul_op
from .scalarq import BASIS, Quaternion


class Side(Enum):
    LEFT = "L"
    RIGHT = "R"


class FrameSpecError(ValueError):
    """Malformed frame specification text."""


@dataclass(frozen=True, slots=True)
class FrameTerm:
    """One expansion term: a fixed base operator plus the coefficient side."""

    base: Operator4
    side: Side = Side.LEFT


@dataclass(frozen=True, slots=True)
class Frame:
    """An ordered list of exactly four terms, named for reports."""

    terms: tuple[FrameTerm, FrameTerm, FrameTerm, FrameTerm]
    name: str = "custom"

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        if len(terms) != 4 or not all(isinstance(t, FrameTerm) for t in terms):
            raise ValueError("a frame needs exactly 4 FrameTerm entries")
        object.__setattr__(self, "terms", terms)


@dataclass(frozen=True, slots=True)
class Expansion:
    """Coefficients of one operator in one frame; reconstructs exactly."""

    coefficients: tuple[Quaternion, Quaternion, Quaternion, Quaternion]
    frame: Frame


@dataclass(frozen=True, slots=True)
class RankReport:
    """Span analysis of a term family over its 4-per-term real unknowns."""

    rank: int
    nullity: int
    unknowns: int
    defect_witness: tuple[Quaternion, ...] | None

    @property
    def terms(self) -> int:
        return self.unknowns // 4


class SingularFrameError(Exception):
    """Expansion was requested against a frame whose matrix is singular."""

    def __init__(self, frame: Frame, report: RankReport):
        super().__init__(
            f"frame {frame.name!r} is singular: rank {report.rank} of {report.unknowns} unknowns"
        )
        self.frame = frame
        self.report = report


def _term_operator(term: FrameTerm, coeff: Quaternion) -> Operator4:
    mul = left_mul_op(coeff) if term.side is Side.LEFT else right_mul_op(coeff)
    return mul @ term.base


def _family_columns(terms: Sequence[FrameTerm]) -> list[tuple[Fraction, ...]]:
    # Column 4t + s is the flattened operator contributed by coordinate s
    # of coefficient t.
    cols: list[tuple[Fraction, ...]] = []
    for term in terms:
        for s in range(4):
            cols.append(_term_operator(term, BASIS[s]).flatten())
    return cols


def _columns_to_matrix(cols: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    return [[col[r] for col in cols] for r in range(16)]


def frame_matrix(frame: Frame) -> list[list[Fraction]]:
    """The 16x16 system matrix whose solution vector holds the coefficients."""
    return _columns_to_matrix(_family_columns(frame.terms))


def frame_determinant(frame: Frame) -> Fraction:
    return elim.det(frame_matrix(frame))


@functools.lru_cache(maxsize=64)
def _frame_inverse(frame: Frame) -> tuple[tuple[Fraction, ...], ...] | None:
    inv = elim.inverse(frame_matrix(frame))
    if inv is None:
        return None
    return tuple(tuple(row) for row in inv)


def expand(f: Operator4, frame: Frame) -> Expansion:
    """Decompose f in the frame; the expansion is unique when it exists.

    The frame's inverted system matrix is cached per frame, so repeated
    expansions cost one 16x16 matrix-vector product each.

    Raises:
        SingularFrameError: the frame matrix is not invertible; the error
            carries the frame's RankReport with a kernel witness.
    """
    inv = _frame_inverse(frame)
    if inv is None:
        raise SingularFrameError(frame, family_rank(frame.terms))
    b = f.flatten()
    coeffs = []
    for t in range(4):
        comps = [
            sum((inv[4 * t + s][c] * b[c] for c in range(16)), Fraction(0))
            for s in range(4)
        ]
        coeffs.append(Quaternion(*comps))
    result = Expansion(tuple(coeffs), frame)  # type: ignore[arg-type]
    if reconstruct(result) != f:
        raise RuntimeError("exact expansion failed to reconstruct its input")
    return result


def reconstruct(e: Expansion) -> Operator4:
    """Sum the terms back into a single operator."""
    total = Operator4.zero()
    for coeff, term in zip(e.coefficients, e.frame.terms):
        total = total + _term_operator(term, coeff)
    return total


def family_rank(terms: Sequence[FrameTerm]) -> RankReport:
    """Exact rank of the operator family spanned by the terms.

    Each term contributes 4 real unknowns. When the family is defective
    the report carries the canonical kernel witness (first free unknown
    set to 1), re-verified to map to the zero operator.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("family_rank needs at least one term")
    matrix = _columns_to_matrix(_family_columns(terms))
    unknowns = 4 * len(terms)
    r, vec = elim.rank_and_kernel(matrix)
    nullity = unknowns - r
    witness: tuple[Quaternion, ...] | None = None
    if vec is not None:
        witness = tuple(Quaternion(*vec[4 * t : 4 * t + 4]) for t in range(len(terms)))
        total = Operator4.zero()
        for coeff, term in zip(witness, terms):
            total = total + _term_operator(term, coeff)
        if total != Operator4.zero():
            raise RuntimeError("kernel witness does not annihilate the family")
    return RankReport(rank=r, nullity=nullity, unknowns=unknowns, defect_witness=witness)


BUILTIN_FRAME_NAMES = ("RIGHT_UNITS", "AUTO", "SINGULAR_ATTEMPT")


@functools.lru_cache(maxsize=None)
def builtin_frame(name: str) -> Frame:
    """Look up a builtin frame by name.

    RIGHT_UNITS: x -> x*e_t for the four basis units, left coefficients;
    always invertible (it realizes the standard tensor-product basis).

    AUTO: identity and three rotation automorphisms (A1, A2, A3), left
    coefficients.

    SINGULAR_ATTEMPT: identity, A1, A1 squared, conjugation, left
    coefficients. Deliberately kept although (and because) it is singular.

    Raises:
        ValueError: unknown name.
    """
    if name == "RIGHT_UNITS":
        terms = tuple(FrameTerm(right_mul_op(e), Side.LEFT) for e in BASIS)
        return Frame(terms, "RIGHT_UNITS")  # type: ignore[arg-type]
    if name == "AUTO":
        terms = tuple(
            FrameTerm(op, Side.LEFT) for op in (IDENTITY, cyclic_op(), rot_i_op(), rot_j_op())
        )
        return Frame(terms, "AUTO")  # type: ignore[arg-type]
    if name == "SINGULAR_ATTEMPT":
        terms = tuple(
            FrameTerm(op, Side.LEFT)
            for op in (IDENTITY, cyclic_op(), cyclic_sq_op(), conj_op())
        )
        return Frame(terms, "SINGULAR_ATTEMPT")  # type: ignore[arg-type]
    raise ValueError(
        f"unknown frame name {name!r}; builtin frames: {', '.join(BUILTIN_FRAME_NAMES)}"
    )


def _split_spec(text: str) -> list[str]:
    # Whitespace separates entries only at bracket depth 0, so inline
    # matrices may contain spaces.
    tokens: list[str] = []
    current: list[str] = []
    depth = 0
    for ch in text:
        if ch.isspace() and depth == 0:
            if current:
                tokens.append("".join(current))
                current = []
            continue
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise FrameSpecError(f"unbalanced ']' in frame spec: {text!r}")
        current.append(ch)
    if depth != 0:
        raise FrameSpecError(f"unbalanced '[' in frame spec: {text!r}")
    if current:
        tokens.append("".join(current))
    return tokens


def _parse_term(token: str) -> FrameTerm:
    side_text, sep, rest = token.partition(":")
    if not sep or side_text not in ("L", "R"):
        raise FrameSpecError(f"term {token!r} must look like 'L:name', 'R:name', or 'L:[[...]]'")
    side = Side.LEFT if side_text == "L" else Side.RIGHT
    if not rest:
        raise FrameSpecError(f"term {token!r} is missing an operator")
    if rest.startswith("["):
        try:
            return FrameTerm(linop.operator_from_json(linop.decode_json(rest)), side)
        except linop.MatrixFormatError as exc:
            raise FrameSpecError(f"inline matrix: {exc}") from None
    try:
        return FrameTerm(catalog_operator(rest), side)
    except ValueError as exc:
        raise FrameSpecError(str(exc)) from None


def parse_frame_terms(text: str) -> list[FrameTerm]:
    """Parse a term list: whitespace-separated ``side:name`` entries.

    Sides are ``L`` or ``R``; names are catalog identifiers (including the
    ``A1A1`` alias) or inline 4x4 JSON matrices with integer or ``p/q``
    string entries.
    """
    tokens = _split_spec(text)
    if not tokens:
        raise FrameSpecError("empty frame specification")
    return [_parse_term(tok) for tok in tokens]


def parse_frame_spec(text: str) -> Frame:
    """Parse a full frame: exactly four terms; the text becomes the name."""
    terms = parse_frame_terms(text)
    if len(terms) != 4:
        raise FrameSpecError(f"a frame needs exactly 4 terms, got {len(terms)}")
    return Frame(tuple(terms), " ".join(_split_spec(text)))  # type: ignore[arg-type]
