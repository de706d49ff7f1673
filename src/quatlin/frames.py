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
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import mul
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
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        if len(terms) != 4 or not all(isinstance(t, FrameTerm) for t in terms):
            raise ValueError("a frame needs exactly 4 FrameTerm entries")
        object.__setattr__(self, "terms", terms)
        # Hashed once here: the per-frame cache looks the frame up on every
        # expand and reconstruct, and rehashing its 64 Fractions there would
        # be a large share of each call.
        object.__setattr__(self, "_hash", hash((terms, self.name)))

    def __hash__(self) -> int:
        return self._hash


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


def _signed_permutation(op: Operator4) -> tuple[tuple[int, int], ...]:
    # Each row of a unit multiplication matrix holds one entry, +1 or -1:
    # returns (its column, its sign) per row.
    return tuple(next((c, int(x)) for c, x in enumerate(row) if x) for row in op.rows)


# Row r of L(e_s) @ B (R(e_s) @ B for a right term) is sign * row p of B,
# with (p, sign) = _UNIT_MULS[side][s][r].
_UNIT_MULS = {
    Side.LEFT: tuple(_signed_permutation(left_mul_op(e)) for e in BASIS),
    Side.RIGHT: tuple(_signed_permutation(right_mul_op(e)) for e in BASIS),
}


def _family_matrix(terms: Sequence[FrameTerm]) -> list[list[Fraction]]:
    # Column 4t + s is the flattened operator contributed by coordinate s
    # of coefficient t; row 4r + c is entry (r, c) of each such operator.
    matrix: list[list[Fraction]] = []
    for r in range(4):
        for c in range(4):
            row: list[Fraction] = []
            for term in terms:
                base = term.base.rows
                for perm in _UNIT_MULS[term.side]:
                    p, sign = perm[r]
                    row.append(base[p][c] if sign > 0 else -base[p][c])
            matrix.append(row)
    return matrix


def frame_matrix(frame: Frame) -> list[list[Fraction]]:
    """The 16x16 system matrix whose solution vector holds the coefficients."""
    return _family_matrix(frame.terms)


def frame_determinant(frame: Frame) -> Fraction:
    return elim.det(frame_matrix(frame))


def _numerators(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(d, n) with values[i] == n[i] / d, d the least common denominator."""
    den = lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


@dataclass(frozen=True, slots=True)
class _IntMatrix:
    """A rational matrix as one positive denominator over sparse integer rows.

    Row r holds the numerators ``nums[r]`` in the columns ``cols[r]``;
    every other entry is zero.
    """

    den: int
    cols: tuple[tuple[int, ...], ...]
    nums: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, rows: Sequence[Sequence[Fraction]]) -> _IntMatrix:
        den = lcm(*(x.denominator for row in rows for x in row))
        return cls(
            den,
            tuple(tuple(c for c, x in enumerate(row) if x) for row in rows),
            tuple(tuple(x.numerator * (den // x.denominator) for x in row if x) for row in rows),
        )

    def times(self, vec: Sequence[int]) -> list[int]:
        """Numerators of the product with vec; its denominator is ``den``."""
        get = vec.__getitem__
        return [sum(map(mul, nums, map(get, cols))) for cols, nums in zip(self.cols, self.nums)]


@functools.lru_cache(maxsize=64)
def _frame_inverse(frame: Frame) -> tuple[_IntMatrix, _IntMatrix] | RankReport:
    """The frame matrix and its inverse in integer form, computed once per frame.

    A singular frame keeps only the RankReport its SingularFrameError carries.
    """
    matrix = frame_matrix(frame)
    inv = elim.inverse(matrix)
    if inv is None:
        return family_rank(frame.terms)
    return _IntMatrix.of(matrix), _IntMatrix.of(inv)


def expand(f: Operator4, frame: Frame) -> Expansion:
    """Decompose f in the frame; the expansion is unique when it exists.

    Each frame's system matrix M and its inverse are cached once, each as
    one denominator over sparse integer rows. An expansion scales the 16
    entries of f to their common denominator, takes one integer product
    with the inverse, and checks the result exactly, as the integer product
    with M, before returning it.

    Raises:
        SingularFrameError: the frame matrix is not invertible; the error
            carries the frame's RankReport with a kernel witness.
        RuntimeError: the coefficients do not reproduce f exactly.
    """
    entry = _frame_inverse(frame)
    if isinstance(entry, RankReport):
        raise SingularFrameError(frame, entry)
    matrix, inv = entry
    db, b = _numerators(f.flatten())
    a = inv.times(b)  # the coefficients are a / (inv.den * db)
    # M (a / (inv.den db)) == b / db, with the denominators cleared.
    scale = matrix.den * inv.den
    if matrix.times(a) != [scale * x for x in b]:
        raise RuntimeError("exact expansion failed to reconstruct its input")
    den = inv.den * db
    coeffs = tuple(Quaternion(*(Fraction(x, den) for x in a[4 * t : 4 * t + 4])) for t in range(4))
    return Expansion(coeffs, frame)  # type: ignore[arg-type]


def reconstruct(e: Expansion) -> Operator4:
    """Sum the terms back into a single operator: one product with the frame matrix."""
    entry = _frame_inverse(e.frame)
    # A singular frame's cache entry holds no matrix, so build it here.
    matrix = _IntMatrix.of(frame_matrix(e.frame)) if isinstance(entry, RankReport) else entry[0]
    da, a = _numerators([x for q in e.coefficients for x in q.coords()])
    flat = matrix.times(a)
    den = matrix.den * da
    return Operator4(tuple(
        tuple(Fraction(x, den) for x in flat[4 * r : 4 * r + 4]) for r in range(4)
    ))  # type: ignore[arg-type]


def family_rank(terms: Sequence[FrameTerm]) -> RankReport:
    """Exact rank of the operator family spanned by the terms.

    Each term contributes 4 real unknowns. When the family is defective
    the report carries the canonical kernel witness (first free unknown
    set to 1), re-verified to map to the zero operator.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("family_rank needs at least one term")
    matrix = _family_matrix(terms)
    unknowns = 4 * len(terms)
    r, vec = elim.rank_and_kernel(matrix)
    witness: tuple[Quaternion, ...] | None = None
    if vec is not None:
        if any(sum(x * w for x, w in zip(row, vec) if w) for row in matrix):
            raise RuntimeError("kernel witness does not annihilate the family")
        witness = tuple(Quaternion(*vec[4 * t : 4 * t + 4]) for t in range(len(terms)))
    return RankReport(rank=r, nullity=unknowns - r, unknowns=unknowns, defect_witness=witness)


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
