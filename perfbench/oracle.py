"""Independent exact reference for checking quatlin's answers.

Standard library only; this module must never import ``quatlin``. Every
object here is plain data: a quaternion is a 4-tuple of Fractions in
(w, x, y, z) order, a 4x4 operator is a tuple of four row tuples acting
on coordinate columns, and a term is ``(side, base)`` with side "L" or "R".
The algorithms deliberately differ from the library's: products come from
a unit table, rank and kernels from Gauss-Jordan reduction over the
integers, and the automorphism verdict from column products.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)

# e_s * e_t = sign * e_index, basis order 1, i, j, k.
_TABLE = (
    ((1, 0), (1, 1), (1, 2), (1, 3)),
    ((1, 1), (-1, 0), (1, 3), (-1, 2)),
    ((1, 2), (-1, 3), (-1, 0), (1, 1)),
    ((1, 3), (1, 2), (-1, 1), (-1, 0)),
)

UNITS = tuple(tuple(ONE if i == s else ZERO for i in range(4)) for s in range(4))


def qmul(a, b):
    out = [ZERO, ZERO, ZERO, ZERO]
    for s in range(4):
        if a[s]:
            for t in range(4):
                if b[t]:
                    sign, idx = _TABLE[s][t]
                    out[idx] += sign * a[s] * b[t]
    return tuple(out)


def qinv(a):
    n = sum(c * c for c in a)
    if n == 0:
        raise ZeroDivisionError("zero quaternion")
    return (a[0] / n, -a[1] / n, -a[2] / n, -a[3] / n)


def from_columns(cols):
    return tuple(tuple(cols[c][r] for c in range(4)) for r in range(4))


def column(m, t):
    return tuple(m[r][t] for r in range(4))


def apply(m, x):
    return tuple(sum((m[r][t] * x[t] for t in range(4)), ZERO) for r in range(4))


def matmul(a, b):
    return tuple(
        tuple(sum((a[r][t] * b[t][c] for t in range(4)), ZERO) for c in range(4)) for r in range(4)
    )


def matadd(a, b):
    return tuple(tuple(a[r][c] + b[r][c] for c in range(4)) for r in range(4))


def left(a):
    """Matrix of x -> a x."""
    return from_columns([qmul(a, e) for e in UNITS])


def right(a):
    """Matrix of x -> x a."""
    return from_columns([qmul(e, a) for e in UNITS])


def conjugation(q):
    """Matrix of x -> q x q^-1."""
    qi = qinv(q)
    return from_columns([qmul(qmul(q, e), qi) for e in UNITS])


def _neg(v):
    return tuple(-c for c in v)


_E1, _EI, _EJ, _EK = UNITS
CATALOG = {
    "id": from_columns([_E1, _EI, _EJ, _EK]),
    "A1": from_columns([_E1, _EJ, _EK, _EI]),
    "A1A1": from_columns([_E1, _EK, _EI, _EJ]),
    "A2": from_columns([_E1, _EI, _EK, _neg(_EJ)]),
    "A3": from_columns([_E1, _neg(_EK), _EJ, _EI]),
    "I": from_columns([_E1, _neg(_EI), _neg(_EJ), _neg(_EK)]),
}
CATALOG["I1"] = matmul(CATALOG["A1"], CATALOG["I"])
CATALOG["I2"] = matmul(CATALOG["A1A1"], CATALOG["I"])

FRAMES = {
    "RIGHT_UNITS": tuple(("L", right(e)) for e in UNITS),
    "AUTO": tuple(("L", CATALOG[n]) for n in ("id", "A1", "A2", "A3")),
    "SINGULAR_ATTEMPT": tuple(("L", CATALOG[n]) for n in ("id", "A1", "A1A1", "I")),
}


def term_operator(term, coeff):
    """Column t is coeff * base(e_t) for a left term, base(e_t) * coeff for a right one."""
    side, base = term
    cols = [column(base, t) for t in range(4)]
    if side == "L":
        return from_columns([qmul(coeff, c) for c in cols])
    return from_columns([qmul(c, coeff) for c in cols])


def rebuild(terms, coeffs):
    """Sum of the term operators with the given quaternion coefficients."""
    total = tuple((ZERO,) * 4 for _ in range(4))
    for term, coeff in zip(terms, coeffs):
        total = matadd(total, term_operator(term, coeff))
    return total


def family_matrix(terms):
    """16 x 4n matrix: column 4t + s is term t with coefficient e_s, row-major flattened."""
    cols = []
    for term in terms:
        for e in UNITS:
            op = term_operator(term, e)
            cols.append([op[r][c] for r in range(4) for c in range(4)])
    return [[col[r] for col in cols] for r in range(16)]


def reduce(rows):
    """Gauss-Jordan reduction over the integers, each row scaled to clear denominators.

    Returns (rows, pivots): pivot r sits in column pivots[r], every other
    row is zero in that column, and rows are divided by their content
    after each update. Pivots are the first nonzero column of each row.
    """
    m = []
    for row in rows:
        den = lcm(*(Fraction(c).denominator for c in row))
        m.append([int(Fraction(c) * den) for c in row])
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        p = top[c]
        for i in range(len(m)):
            lead = m[i][c]
            if i != r and lead:
                row = [x * p - lead * y for x, y in zip(m[i], top)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows):
    return len(reduce(rows)[1])


def rank_and_kernel(rows):
    """Rank, and the canonical kernel vector: first free unknown 1, other free
    unknowns 0 (None when the columns are independent)."""
    m, pivots = reduce(rows)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return len(pivots), None
    vec = [ZERO] * ncols
    vec[free[0]] = ONE
    for r, p in enumerate(pivots):
        vec[p] = Fraction(-m[r][free[0]], m[r][p])
    return len(pivots), vec


def classify(m):
    """The automorphism verdict, as the library's tag strings."""
    if column(m, 0) != _E1 or rank(m) < 4:
        return "neither"
    cols = [column(m, t) for t in range(4)]

    def law(reverse):
        for s in range(4):
            for t in range(4):
                sign, idx = _TABLE[s][t]
                lhs = tuple(sign * c for c in cols[idx])
                rhs = qmul(cols[t], cols[s]) if reverse else qmul(cols[s], cols[t])
                if lhs != rhs:
                    return False
        return True

    if law(False):
        return "linear-automorphism"
    if law(True):
        return "antilinear-automorphism"
    return "neither"


def parse_quat(text):
    """Parse a quaternion printed as ``1/2 - 3i + j`` back into coordinates."""
    coords = [ZERO] * 4
    tokens = text.replace("- ", "-").replace("+ ", "+").split()
    if tokens == ["0"]:
        return tuple(coords)
    for tok in tokens:
        sign = -1 if tok.startswith("-") else 1
        body = tok.lstrip("+-")
        idx = "1ijk".find(body[-1]) if body[-1] in "ijk" else 0
        if idx:
            body = body[:-1] or "1"
        coords[idx] += sign * Fraction(body)
    return tuple(coords)
