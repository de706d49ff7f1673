"""Exact scalar arithmetic: rationals and quaternions.

Every number in this package is an exact rational, realized by
:class:`fractions.Fraction` (arbitrary precision, stored normalized with a
positive denominator, so equality and hashing are canonical for free).
Quaternions carry four rational coordinates over the basis (1, i, j, k)
with the multiplication rules

    i*i = j*j = k*k = -1,   i*j = k,   j*k = i,   k*i = j,

and the reversed products picking up a sign. All values are immutable;
comparisons are exact, never approximate. Floating point appears only in
the ``approx`` helpers, which exist for display.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")

# Longest numerator or denominator accepted, in digits: CPython's default
# int_max_str_digits, so every literal that int() converts out of the box is
# read, and a longer one gets an error that names this cap.
MAX_LITERAL_DIGITS = 4300
_DIGIT_BOUND = 10**MAX_LITERAL_DIGITS

_UNIT_SYMBOLS = ("", "i", "j", "k")


class RationalFormatError(ValueError):
    """Text does not match the ``p`` / ``p/q`` wire form."""


class RationalSizeError(ValueError):
    """A rational to be printed has a numerator or denominator over the digit cap."""


class ZeroQuaternionError(ZeroDivisionError):
    """Inverse of the zero quaternion was requested."""


def parse_rational(text: str) -> Fraction:
    """Parse the wire form ``p`` or ``p/q`` into a normalized fraction.

    The optional sign sits on the numerator and the denominator must be a
    positive integer. Non-canonical input such as ``2/4`` is accepted and
    normalizes to 1/2. No whitespace, decimals, or exponents, and at most
    ``MAX_LITERAL_DIGITS`` digits in the numerator and in the denominator.

    Raises:
        RationalFormatError: malformed or over-long text, or a zero denominator.
    """
    if not isinstance(text, str) or _RATIONAL_RE.fullmatch(text) is None:
        raise RationalFormatError(f"not a rational literal: {text!r}")
    num, sep, den = text.partition("/")
    if max(len(num.lstrip("+-")), len(den)) > MAX_LITERAL_DIGITS:
        raise RationalFormatError(f"rational literal over the cap of {MAX_LITERAL_DIGITS} digits")
    if sep and int(den) == 0:
        raise RationalFormatError(f"zero denominator: {text!r}")
    return Fraction(int(num), int(den)) if sep else Fraction(int(num))


def format_rational(value: Fraction) -> str:
    """Wire form of a fraction: ``p/q``, or just ``p`` when q is 1.

    Every rational this package prints passes through here, so the cap that
    parse_rational puts on input also bounds output.

    Raises:
        RationalSizeError: the numerator or denominator has more than
            ``MAX_LITERAL_DIGITS`` digits.
    """
    if abs(value.numerator) >= _DIGIT_BOUND or value.denominator >= _DIGIT_BOUND:
        raise RationalSizeError(f"rational result over the cap of {MAX_LITERAL_DIGITS} digits")
    return str(value)


def _coerce(value: object) -> Fraction:
    # Exactness guard: floats are refused instead of silently converted.
    if isinstance(value, float):
        raise TypeError(f"refusing float coordinate {value!r}; pass Fraction, int, or 'p/q' text")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot use {type(value).__name__} as a rational coordinate")


@dataclass(frozen=True, slots=True)
class Quaternion:
    """A quaternion ``w + x*i + y*j + z*k`` with exact rational coordinates.

    Coordinates may be given as Fraction, int, or ``p/q`` strings; they are
    normalized on construction. Instances are immutable and hashable, and
    equality is coordinate-wise and exact.
    """

    w: Fraction = Fraction(0)
    x: Fraction = Fraction(0)
    y: Fraction = Fraction(0)
    z: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for name in ("w", "x", "y", "z"):
            object.__setattr__(self, name, _coerce(getattr(self, name)))

    @classmethod
    def from_strings(cls, items: tuple[str, str, str, str] | list[str]) -> Quaternion:
        """Build from four rational strings in (w, x, y, z) order."""
        if len(items) != 4:
            raise ValueError(f"need 4 coordinates, got {len(items)}")
        return cls(*(parse_rational(s) for s in items))

    def to_strings(self) -> tuple[str, str, str, str]:
        return tuple(format_rational(c) for c in self.coords())  # type: ignore[return-value]

    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.w, self.x, self.y, self.z)

    def __add__(self, other: Quaternion) -> Quaternion:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: Quaternion) -> Quaternion:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> Quaternion:
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other: Quaternion | Fraction | int) -> Quaternion:
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, Quaternion):
            return NotImplemented
        a0, a1, a2, a3 = self.coords()
        b0, b1, b2, b3 = other.coords()
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def __rmul__(self, other: Fraction | int) -> Quaternion:
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, factor: Fraction | int) -> Quaternion:
        f = _coerce(factor)
        return Quaternion(self.w * f, self.x * f, self.y * f, self.z * f)

    def conjugate(self) -> Quaternion:
        """Negate the imaginary part: w + xi + yj + zk maps to w - xi - yj - zk."""
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> Fraction:
        """Squared norm w^2 + x^2 + y^2 + z^2, an exact rational."""
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def inverse(self) -> Quaternion:
        """Multiplicative inverse, conjugate(self) / norm_sq(self).

        Raises:
            ZeroQuaternionError: self is zero.
        """
        n = self.norm_sq()
        if n == 0:
            raise ZeroQuaternionError("zero quaternion has no inverse")
        return self.conjugate().scaled(Fraction(1) / n)

    def is_zero(self) -> bool:
        return not any(self.coords())

    def __bool__(self) -> bool:
        return not self.is_zero()

    def approx(self) -> tuple[float, float, float, float]:
        """Float view for display only; never used in any decision."""
        return tuple(float(c) for c in self.coords())  # type: ignore[return-value]

    def __str__(self) -> str:
        parts: list[str] = []
        for coef, sym in zip(self.coords(), _UNIT_SYMBOLS):
            if coef == 0:
                continue
            mag = format_rational(abs(coef))
            if sym and mag == "1":
                mag = ""
            body = f"{mag}{sym}" if sym else mag
            if not parts:
                parts.append(f"-{body}" if coef < 0 else body)
            else:
                parts.append(f"- {body}" if coef < 0 else f"+ {body}")
        return " ".join(parts) if parts else "0"


ZERO = Quaternion(0, 0, 0, 0)
ONE = Quaternion(1, 0, 0, 0)
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)

BASIS = (ONE, I, J, K)
BASIS_NAMES = ("1", "i", "j", "k")
