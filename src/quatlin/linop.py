"""R-linear operators on the quaternion algebra as exact 4x4 matrices.

Conventions, fixed package-wide:

* coordinates are column vectors in basis order (w, x, y, z), so an
  operator acts as ``y = M x`` and column t of M is the image of the
  basis unit ``e_t``;
* ``e_0`` is the algebra unit 1, then i, j, k.

The two multiplication operators of the algebra itself live here:
``left_mul_op(a)`` is the matrix of ``x -> a*x`` and ``right_mul_op(a)``
the matrix of ``x -> x*a``. Their composition rules mirror the algebra:
left operators compose covariantly, right operators reverse order, and
any left operator commutes with any right operator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import elim
from .scalarq import Quaternion, RationalFormatError, _coerce, format_rational, parse_rational

Row = tuple[Fraction, Fraction, Fraction, Fraction]


@dataclass(frozen=True, slots=True)
class Operator4:
    """Immutable 4x4 rational matrix acting on quaternion coordinates."""

    rows: tuple[Row, Row, Row, Row]

    def __post_init__(self) -> None:
        rows = tuple(tuple(_coerce(c) for c in row) for row in self.rows)
        if len(rows) != 4 or any(len(row) != 4 for row in rows):
            raise ValueError("Operator4 needs exactly 4 rows of 4 entries")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def identity(cls) -> Operator4:
        return cls(tuple(tuple(1 if r == c else 0 for c in range(4)) for r in range(4)))  # type: ignore[arg-type]

    @classmethod
    def zero(cls) -> Operator4:
        return cls(((0, 0, 0, 0),) * 4)  # type: ignore[arg-type]

    @classmethod
    def from_unit_images(cls, img0: Quaternion, img1: Quaternion, img2: Quaternion, img3: Quaternion) -> Operator4:
        """Operator sending e_t to img_t; the images become the columns."""
        cols = (img0.coords(), img1.coords(), img2.coords(), img3.coords())
        return cls(tuple(tuple(cols[c][r] for c in range(4)) for r in range(4)))  # type: ignore[arg-type]

    @classmethod
    def from_strings(cls, rows: Sequence[Sequence[str]]) -> Operator4:
        return cls(tuple(tuple(row) for row in rows))  # type: ignore[arg-type]

    def to_strings(self) -> list[list[str]]:
        return [[format_rational(c) for c in row] for row in self.rows]

    def apply(self, x: Quaternion) -> Quaternion:
        c = x.coords()
        return Quaternion(*(sum(row[t] * c[t] for t in range(4)) for row in self.rows))

    __call__ = apply

    def column(self, t: int) -> Quaternion:
        """Image of the basis unit e_t."""
        return Quaternion(*(self.rows[r][t] for r in range(4)))

    def unit_images(self) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
        return tuple(self.column(t) for t in range(4))  # type: ignore[return-value]

    def flatten(self) -> tuple[Fraction, ...]:
        """Row-major 16-vector; entry (r, c) lands at index 4*r + c."""
        return tuple(c for row in self.rows for c in row)

    def __matmul__(self, other: Operator4) -> Operator4:
        """Composition: (f @ g)(x) == f(g(x))."""
        if not isinstance(other, Operator4):
            return NotImplemented
        return Operator4(tuple(
            tuple(sum(self.rows[r][t] * other.rows[t][c] for t in range(4)) for c in range(4))
            for r in range(4)
        ))  # type: ignore[arg-type]

    def __add__(self, other: Operator4) -> Operator4:
        if not isinstance(other, Operator4):
            return NotImplemented
        return Operator4(tuple(
            tuple(self.rows[r][c] + other.rows[r][c] for c in range(4)) for r in range(4)
        ))  # type: ignore[arg-type]

    def __sub__(self, other: Operator4) -> Operator4:
        if not isinstance(other, Operator4):
            return NotImplemented
        return Operator4(tuple(
            tuple(self.rows[r][c] - other.rows[r][c] for c in range(4)) for r in range(4)
        ))  # type: ignore[arg-type]

    def __neg__(self) -> Operator4:
        return Operator4(tuple(tuple(-c for c in row) for row in self.rows))  # type: ignore[arg-type]

    def scaled(self, factor: Fraction | int) -> Operator4:
        f = _coerce(factor)
        return Operator4(tuple(tuple(c * f for c in row) for row in self.rows))  # type: ignore[arg-type]

    def __mul__(self, factor: Fraction | int) -> Operator4:
        if isinstance(factor, (int, Fraction)):
            return self.scaled(factor)
        return NotImplemented

    __rmul__ = __mul__

    def det(self) -> Fraction:
        return elim.det(self.rows)

    def approx(self) -> list[list[float]]:
        """Float view for display only."""
        return [[float(c) for c in row] for row in self.rows]

    def __str__(self) -> str:
        body = "; ".join(" ".join(format_rational(c) for c in row) for row in self.rows)
        return f"[{body}]"


class MatrixFormatError(ValueError):
    """JSON text or a decoded JSON value that is not a 4x4 rational matrix."""


def decode_json(text: str) -> object:
    """Decode JSON text; integers obey the same digit cap as rational strings.

    Raises:
        MatrixFormatError: invalid or too deeply nested JSON, or an integer over the cap.
    """
    try:
        return json.loads(text, parse_int=lambda digits: parse_rational(digits).numerator)
    except RationalFormatError as exc:
        raise MatrixFormatError(str(exc)) from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MatrixFormatError(f"not valid JSON: {exc}") from None


def operator_from_json(value: object) -> Operator4:
    """Build an operator from a decoded JSON array of 4 rows of 4 entries.

    Entries are integers or ``p/q`` strings; floats and booleans are refused.

    Raises:
        MatrixFormatError: wrong shape, wrong entry type, or a bad rational.
    """
    if not isinstance(value, list) or len(value) != 4 or not all(
        isinstance(row, list) and len(row) == 4 for row in value
    ):
        raise MatrixFormatError("matrix must be a 4x4 array")
    for row in value:
        for entry in row:
            if isinstance(entry, bool) or not isinstance(entry, (int, str)):
                raise MatrixFormatError(f"matrix entries must be 'p/q' strings or integers, got {entry!r}")
    try:
        return Operator4(tuple(tuple(row) for row in value))  # type: ignore[arg-type]
    except RationalFormatError as exc:
        raise MatrixFormatError(str(exc)) from None


def left_mul_op(a: Quaternion) -> Operator4:
    """Matrix of left multiplication x -> a*x."""
    a0, a1, a2, a3 = a.coords()
    return Operator4((
        (a0, -a1, -a2, -a3),
        (a1, a0, -a3, a2),
        (a2, a3, a0, -a1),
        (a3, -a2, a1, a0),
    ))


def right_mul_op(a: Quaternion) -> Operator4:
    """Matrix of right multiplication x -> x*a.

    Differs from the left matrix only in the sign pattern of the lower
    right 3x3 block; the shared first row and column reflect that 1
    commutes with everything.
    """
    a0, a1, a2, a3 = a.coords()
    return Operator4((
        (a0, -a1, -a2, -a3),
        (a1, a0, a3, -a2),
        (a2, -a3, a0, a1),
        (a3, a2, -a1, a0),
    ))


IDENTITY = Operator4.identity()
