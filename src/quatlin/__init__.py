"""Exact operator calculus on the real quaternion algebra.

Quaternions and operators carry exact rational coordinates throughout;
nothing here ever rounds. The package provides the regular-representation
matrices of left and right multiplication, a small catalog of linear and
antilinear automorphisms with classification and conjugator recovery, and
a frame-expansion engine that decomposes arbitrary R-linear endomorphisms
into four quaternion-coefficient terms, with exact rank reports for
defective frames.
"""

from .scalarq import (
    BASIS,
    BASIS_NAMES,
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
from .linop import IDENTITY, Operator4, left_mul_op, right_mul_op
from .autos import (
    CATALOG_NAMES,
    AutoKind,
    AutoTag,
    ConditionReport,
    NotAnAutomorphismError,
    anti_op,
    catalog_operator,
    check_coordinate_conditions,
    classify,
    conj_op,
    conjugation_by,
    cyclic_op,
    cyclic_sq_op,
    operator_order,
    recover_conjugator,
    rot_i_op,
    rot_j_op,
)
from .frames import (
    BUILTIN_FRAME_NAMES,
    Expansion,
    Frame,
    FrameSpecError,
    FrameTerm,
    RankReport,
    Side,
    SingularFrameError,
    builtin_frame,
    expand,
    family_rank,
    frame_determinant,
    frame_matrix,
    parse_frame_spec,
    parse_frame_terms,
    reconstruct,
)

__version__ = "0.1.0"

__all__ = [
    "BASIS",
    "BASIS_NAMES",
    "BUILTIN_FRAME_NAMES",
    "CATALOG_NAMES",
    "AutoKind",
    "AutoTag",
    "ConditionReport",
    "Expansion",
    "Frame",
    "FrameSpecError",
    "FrameTerm",
    "I",
    "IDENTITY",
    "J",
    "K",
    "NotAnAutomorphismError",
    "ONE",
    "Operator4",
    "Quaternion",
    "RankReport",
    "RationalFormatError",
    "RationalSizeError",
    "Side",
    "SingularFrameError",
    "ZERO",
    "ZeroQuaternionError",
    "anti_op",
    "builtin_frame",
    "catalog_operator",
    "check_coordinate_conditions",
    "classify",
    "conj_op",
    "conjugation_by",
    "cyclic_op",
    "cyclic_sq_op",
    "expand",
    "family_rank",
    "format_rational",
    "frame_determinant",
    "frame_matrix",
    "left_mul_op",
    "operator_order",
    "parse_frame_spec",
    "parse_frame_terms",
    "parse_rational",
    "reconstruct",
    "recover_conjugator",
    "right_mul_op",
    "rot_i_op",
    "rot_j_op",
]
