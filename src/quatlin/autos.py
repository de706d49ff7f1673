"""Automorphisms of the quaternion algebra: catalog, checks, recovery.

The catalog holds seven named operators. Four are linear automorphisms:
the identity, the 3-cycle ``A1`` (i -> j -> k -> i), and two quarter-turn
rotations ``A2`` (about i) and ``A3`` (about j). Three are antilinear:
quaternion conjugation ``I`` and its composites ``I1 = A1 o I`` and
``I2 = A1^2 o I``. Over the reals, scalar conjugation is trivial, so the
whole content of antilinearity is the reversed product law
``f(a b) = f(b) f(a)``.

Two complementary tests for "is a linear automorphism" live here. The
oracle form, :func:`classify`, checks the product law on all 16 ordered
pairs of basis units plus unit preservation and invertibility. The
coordinate form, :func:`check_coordinate_conditions`, checks the closed
conditions on the matrix itself: 1 is fixed, the pure imaginary space maps
to itself, and the imaginary 3x3 block is a rotation. The two must agree
on every operator; the test suite enforces that equivalence.

Every linear automorphism here is inner, f(x) = q x q^{-1}, and
:func:`recover_conjugator` finds a representative q by trace identities on
the rotation block. Conjugators are deliberately left unnormalized: the
conjugation operator is scale-free in q, and unit normalization would
drag in square roots that exact rational arithmetic cannot host.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import elim
from .linop import IDENTITY, Operator4, left_mul_op, right_mul_op
from .scalarq import BASIS, BASIS_NAMES, ONE, I, J, K, Quaternion, format_rational


class AutoTag(Enum):
    LINEAR = "linear-automorphism"
    ANTILINEAR = "antilinear-automorphism"
    NEITHER = "neither"


@dataclass(frozen=True, slots=True)
class AutoKind:
    """Classification verdict; ``reason`` is set only for NEITHER."""

    tag: AutoTag
    reason: str | None = None

    @property
    def is_linear(self) -> bool:
        return self.tag is AutoTag.LINEAR


@dataclass(frozen=True, slots=True)
class ConditionReport:
    """Result of the coordinate-condition check; falsy when a condition fails."""

    ok: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class NotAnAutomorphismError(ValueError):
    """The operation needed a linear automorphism and did not get one."""


def cyclic_op() -> Operator4:
    """The 3-cycle automorphism: 1 -> 1, i -> j, j -> k, k -> i."""
    return Operator4.from_unit_images(ONE, J, K, I)


def cyclic_sq_op() -> Operator4:
    """Square of the 3-cycle: i -> k, j -> i, k -> j."""
    return Operator4.from_unit_images(ONE, K, I, J)


def rot_i_op() -> Operator4:
    """Quarter turn about i: fixes 1 and i, sends j -> k, k -> -j."""
    return Operator4.from_unit_images(ONE, I, K, -J)


def rot_j_op() -> Operator4:
    """Quarter turn about j: fixes 1 and j, sends k -> i, i -> -k."""
    return Operator4.from_unit_images(ONE, -K, J, I)


def conj_op() -> Operator4:
    """Quaternion conjugation, diag(1, -1, -1, -1); antilinear, order 2."""
    return Operator4.from_unit_images(ONE, -I, -J, -K)


def anti_op(k: int) -> Operator4:
    """Antilinear catalog entries: 1 -> cyclic o conj, 2 -> cyclic^2 o conj."""
    if k == 1:
        return cyclic_op() @ conj_op()
    if k == 2:
        return cyclic_sq_op() @ conj_op()
    raise ValueError(f"anti_op index must be 1 or 2, got {k}")


CATALOG_NAMES = ("id", "A1", "A2", "A3", "I", "I1", "I2")

_CATALOG: dict[str, Operator4] = {
    "id": IDENTITY,
    "A1": cyclic_op(),
    "A2": rot_i_op(),
    "A3": rot_j_op(),
    "I": conj_op(),
    "I1": anti_op(1),
    "I2": anti_op(2),
}

# Alias accepted in frame specifications; not part of the displayed catalog.
_ALIASES: dict[str, Operator4] = {
    "A1A1": cyclic_sq_op(),
}


def catalog_operator(name: str) -> Operator4:
    """Look up an operator by its stable catalog name.

    Accepts the seven catalog names plus the alias ``A1A1`` for the square
    of the 3-cycle.

    Raises:
        ValueError: unknown name.
    """
    op = _CATALOG.get(name) or _ALIASES.get(name)
    if op is None:
        known = ", ".join(list(CATALOG_NAMES) + sorted(_ALIASES))
        raise ValueError(f"unknown operator name {name!r}; known names: {known}")
    return op


def operator_order(f: Operator4, cap: int = 24) -> int | None:
    """Smallest n >= 1 with f^n = identity, or None if none up to cap."""
    acc = f
    for n in range(1, cap + 1):
        if acc == IDENTITY:
            return n
        acc = acc @ f
    return None


def conjugation_by(q: Quaternion) -> Operator4:
    """The inner automorphism x -> q x q^{-1}.

    Scale-free: conjugation_by(q) == conjugation_by(c*q) for any rational
    c != 0, because the scale cancels against the inverse.

    Raises:
        ZeroQuaternionError: q is zero.
    """
    return left_mul_op(q) @ right_mul_op(q.inverse())


def _first_law_failure(f: Operator4, reversed_order: bool) -> tuple[int, int] | None:
    # Scan the 16 ordered basis pairs in row-major order; the first failing
    # pair is the deterministic witness.
    for s in range(4):
        for t in range(4):
            lhs = f(BASIS[s] * BASIS[t])
            if reversed_order:
                rhs = f(BASIS[t]) * f(BASIS[s])
            else:
                rhs = f(BASIS[s]) * f(BASIS[t])
            if lhs != rhs:
                return s, t
    return None


def classify(f: Operator4) -> AutoKind:
    """Decide linear automorphism vs antilinear automorphism vs neither.

    Checks run in a fixed order so the reported reason is deterministic:
    unit preservation, invertibility, the product law on all 16 ordered
    basis pairs, then the reversed product law. An invertible map cannot
    satisfy both laws (the algebra is not commutative), so the tags are
    mutually exclusive.
    """
    f_one = f(ONE)
    if f_one != ONE:
        return AutoKind(AutoTag.NEITHER, f"not unital: f(1) = {f_one}")
    if f.det() == 0:
        return AutoKind(AutoTag.NEITHER, "not invertible: det f = 0")
    direct = _first_law_failure(f, reversed_order=False)
    if direct is None:
        return AutoKind(AutoTag.LINEAR)
    rev = _first_law_failure(f, reversed_order=True)
    if rev is None:
        return AutoKind(AutoTag.ANTILINEAR)
    s1, t1 = (BASIS_NAMES[i] for i in direct)
    s2, t2 = (BASIS_NAMES[i] for i in rev)
    return AutoKind(
        AutoTag.NEITHER,
        f"f({s1}*{t1}) != f({s1})*f({t1}) and f({s2}*{t2}) != f({t2})*f({s2})",
    )


def check_coordinate_conditions(f: Operator4) -> ConditionReport:
    """Closed-form matrix test for being a linear automorphism.

    The conditions, checked in order with the first violation reported:
    the unit column is (1, 0, 0, 0); the scalar row has no imaginary
    contributions; the lower right 3x3 block Q is orthogonal (Q^T Q = 1)
    with det Q = 1. Together these say f fixes 1 and rotates the pure
    imaginary space, which is exactly the linear automorphism condition.
    """
    f_one = f(ONE)
    if f_one != ONE:
        return ConditionReport(False, f"does not fix the unit: f(1) = {f_one}")
    rows = f.rows
    for c in (1, 2, 3):
        if rows[0][c] != 0:
            return ConditionReport(
                False, f"scalar row not preserved: entry (0, {c}) = {format_rational(rows[0][c])}"
            )
    block = [[rows[r][c] for c in (1, 2, 3)] for r in (1, 2, 3)]
    for r in range(3):
        for c in range(3):
            dot = sum((block[t][r] * block[t][c] for t in range(3)), Fraction(0))
            expected = Fraction(1 if r == c else 0)
            if dot != expected:
                return ConditionReport(
                    False, f"imaginary block not orthogonal: (Q^T Q)[{r}][{c}] = {format_rational(dot)}"
                )
    d = elim.det(block)
    if d != 1:
        return ConditionReport(False, f"imaginary block determinant is {format_rational(d)}, not 1")
    return ConditionReport(True)


def recover_conjugator(f: Operator4) -> Quaternion:
    """Find q != 0 with f(x) = q x q^{-1}, exactly.

    The imaginary block of a linear automorphism is a rotation matrix R,
    and the four trace-identity vectors

        (1 + R00 + R11 + R22, R21 - R12, R02 - R20, R10 - R01)

    and its three column variants are each a rational multiple of the
    conjugator's coordinates. At least one of them is nonzero; candidates
    are tried in that fixed order and the first whose conjugation operator
    equals f entrywise is returned. That rebuild is the one verification:
    a match proves f inner, so :func:`classify` runs only when no candidate
    matches, to word the refusal. The result is unnormalized and is
    determined only up to a nonzero rational scale.

    Raises:
        NotAnAutomorphismError: f is not a linear automorphism.
    """
    m = f.rows
    r = [[m[row][col] for col in (1, 2, 3)] for row in (1, 2, 3)]
    one = Fraction(1)
    candidates = (
        Quaternion(one + r[0][0] + r[1][1] + r[2][2], r[2][1] - r[1][2], r[0][2] - r[2][0], r[1][0] - r[0][1]),
        Quaternion(r[2][1] - r[1][2], one + r[0][0] - r[1][1] - r[2][2], r[0][1] + r[1][0], r[0][2] + r[2][0]),
        Quaternion(r[0][2] - r[2][0], r[0][1] + r[1][0], one - r[0][0] + r[1][1] - r[2][2], r[1][2] + r[2][1]),
        Quaternion(r[1][0] - r[0][1], r[0][2] + r[2][0], r[1][2] + r[2][1], one - r[0][0] - r[1][1] + r[2][2]),
    )
    for cand in candidates:
        if cand.is_zero():
            continue
        if conjugation_by(cand) == f:
            return cand
    kind = classify(f)
    if kind.tag is not AutoTag.LINEAR:
        detail = kind.reason or "map satisfies the reversed product law"
        raise NotAnAutomorphismError(f"not a linear automorphism: {detail}")
    raise RuntimeError("no trace candidate reproduces a verified linear automorphism")
