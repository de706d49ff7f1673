"""Command line front end.

Matrices travel as small JSON documents, {"label": optional text,
"matrix": [[four rational strings] x 4]}. Each command handler returns a
doc of exact values (quaternions, operators, rank reports and plain
scalars), and _emit alone turns it into text: stable JSON
(QUATLIN_OUTPUT=json) or a plain-text rendering of the same data
(QUATLIN_OUTPUT=pretty, the default). Rationals are serialized as exact
"p/q" strings everywhere; float views appear only behind --approx and are
display-only. Output is deterministic byte for byte for a given input.

Exit codes: 0 success; 2 input or parse problem, a result with a numerator
or denominator over MAX_LITERAL_DIGITS digits, or an --approx value outside
the float range; 3 singular frame on decompose (the rank report is still
printed); 4 precondition failure (recover on a map that is not a linear
automorphism).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import autos, frames
from .linop import MatrixFormatError, Operator4, decode_json, left_mul_op, operator_from_json, right_mul_op
from .scalarq import Quaternion, RationalFormatError, RationalSizeError, parse_rational


class InputError(Exception):
    """Bad user input: unreadable file, malformed document, bad argument,
    or a value too large for its --approx float view."""


def _load_document(path: str) -> tuple[Operator4, str | None]:
    try:
        doc = decode_json(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except MatrixFormatError as exc:
        raise InputError(f"{path}: {exc}") from None
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise InputError(f"{path}: expected an object with a 'matrix' field")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise InputError(f"{path}: 'label' must be a string when present")
    try:
        return operator_from_json(doc["matrix"]), label
    except MatrixFormatError as exc:
        raise InputError(f"{path}: {exc}") from None


def _resolve_terms(text: str) -> tuple[frames.FrameTerm, ...]:
    """Terms of a builtin frame name or of a term spec."""
    name = text.strip()
    if name in frames.BUILTIN_FRAME_NAMES:
        return frames.builtin_frame(name).terms
    try:
        return tuple(frames.parse_frame_terms(text))
    except frames.FrameSpecError as exc:
        raise InputError(str(exc)) from None


def _resolve_frame(text: str) -> frames.Frame:
    name = text.strip()
    if name in frames.BUILTIN_FRAME_NAMES:
        return frames.builtin_frame(name)
    try:
        return frames.parse_frame_spec(text)
    except frames.FrameSpecError as exc:
        raise InputError(str(exc)) from None


def _parse_quaternion_arg(text: str) -> Quaternion:
    parts = text.split(",")
    if len(parts) != 4:
        raise InputError(f"--a needs 4 comma-separated rationals, got {text!r}")
    try:
        return Quaternion(*(parse_rational(p.strip()) for p in parts))
    except RationalFormatError as exc:
        raise InputError(str(exc)) from None


@dataclass(frozen=True, slots=True)
class _Approx:
    """Exact values that render as their float views, the display-only --approx."""

    value: Quaternion | tuple[Quaternion, ...]


def cmd_decompose(args: argparse.Namespace) -> tuple[dict, int]:
    op, label = _load_document(args.file)
    frame = _resolve_frame(args.frame)
    doc = {"command": "decompose", "label": label, "frame": frame.name}
    try:
        exp = frames.expand(op, frame)
    except frames.SingularFrameError as exc:
        doc.update(error="singular frame", rank_report=exc.report)
        return doc, 3
    doc.update(coefficients=exp.coefficients, verified=True)
    if args.approx:
        doc["coefficients_approx"] = _Approx(exp.coefficients)
    return doc, 0


def cmd_check(args: argparse.Namespace) -> tuple[dict, int]:
    op, label = _load_document(args.file)
    kind = autos.classify(op)
    cond = autos.check_coordinate_conditions(op)
    doc = {
        "command": "check",
        "label": label,
        "classification": kind.tag.value,
        "reason": kind.reason,
        "coordinate_conditions": {"ok": cond.ok, "failure": cond.failure},
    }
    return doc, 0


def cmd_recover(args: argparse.Namespace) -> tuple[dict, int]:
    op, label = _load_document(args.file)
    q = autos.recover_conjugator(op)
    doc = {"command": "recover", "label": label, "conjugator": q, "verified": True}
    if args.approx:
        doc["conjugator_approx"] = _Approx(q)
    return doc, 0


def cmd_rank(args: argparse.Namespace) -> tuple[dict, int]:
    terms = _resolve_terms(args.spec)
    if not 1 <= len(terms) <= 8:
        raise InputError(f"rank spec needs 1 to 8 terms, got {len(terms)}")
    doc = {"command": "rank", "spec": args.spec.strip(), "report": frames.family_rank(terms)}
    return doc, 0


def cmd_catalog(args: argparse.Namespace) -> tuple[dict, int]:
    entries = []
    for name in autos.CATALOG_NAMES:
        op = autos.catalog_operator(name)
        kind = autos.classify(op)
        entries.append({
            "name": name,
            "matrix": op,
            "order": autos.operator_order(op),
            "classification": kind.tag.value,
            "conjugator": autos.recover_conjugator(op) if kind.is_linear else None,
        })
    return {"command": "catalog", "entries": entries}, 0


_DEMO_NOTE = (
    "coefficients are frame-dependent; the builtin frame names and term "
    "choices are conventions of this tool"
)


def cmd_demo(args: argparse.Namespace) -> tuple[dict, int]:
    a = _parse_quaternion_arg(args.a)
    cases = (
        ("x -> a*x", left_mul_op(a)),
        ("x -> x*a", right_mul_op(a)),
        ("x -> a*x + x*a", left_mul_op(a) + right_mul_op(a)),
    )
    case_docs = []
    for case_name, op in cases:
        expansions = []
        for frame_name in ("RIGHT_UNITS", "AUTO"):
            frame = frames.builtin_frame(frame_name)
            exp = frames.expand(op, frame)
            expansions.append({
                "frame": frame_name,
                "coefficients": exp.coefficients,
                "vanishing_terms": [t for t, c in enumerate(exp.coefficients) if c.is_zero()],
                "verified": True,
            })
        case_docs.append({"name": case_name, "matrix": op, "expansions": expansions})
    singular = frames.builtin_frame("SINGULAR_ATTEMPT")
    doc = {
        "command": "demo",
        "a": a,
        "cases": case_docs,
        "singular_frame": {"name": singular.name, "report": frames.family_rank(singular.terms)},
        "note": _DEMO_NOTE,
    }
    return doc, 0


def _floats(q: Quaternion) -> list[float]:
    try:
        return list(q.approx())
    except OverflowError:
        raise InputError("a value is outside the float range of --approx") from None


def _pretty_floats(q: Quaternion) -> str:
    return "(" + ", ".join(repr(v) for v in _floats(q)) + ")"


def _matrix_lines(op: Operator4, indent: str) -> list[str]:
    rows = op.to_strings()
    widths = [max(len(rows[r][c]) for r in range(4)) for c in range(4)]
    return [
        indent + "[ " + "  ".join(rows[r][c].rjust(widths[c]) for c in range(4)) + " ]"
        for r in range(4)
    ]


def _rank_report_lines(report: frames.RankReport, indent: str) -> list[str]:
    lines = [
        f"{indent}terms: {report.terms} ({report.unknowns} real unknowns)",
        f"{indent}rank: {report.rank}",
        f"{indent}nullity: {report.nullity}",
    ]
    if report.defect_witness is None:
        lines.append(f"{indent}kernel witness: none")
    else:
        lines.append(f"{indent}kernel witness:")
        lines.extend(f"{indent}  a{t} = {coeff}" for t, coeff in enumerate(report.defect_witness))
    return lines


def _pretty_decompose(doc: dict) -> list[str]:
    if doc.get("error") == "singular frame":
        lines = [f"decompose: frame {doc['frame']} is singular"]
        if doc["label"] is not None:
            lines.insert(1, f"label: {doc['label']}")
        lines.extend(_rank_report_lines(doc["rank_report"], "  "))
        return lines
    lines = [f"decompose: frame {doc['frame']}"]
    if doc["label"] is not None:
        lines.append(f"label: {doc['label']}")
    approx = doc.get("coefficients_approx")
    for t, coeff in enumerate(doc["coefficients"]):
        suffix = f"  ~ {_pretty_floats(approx.value[t])}" if approx is not None else ""
        lines.append(f"  a{t} = {coeff}{suffix}")
    lines.append(f"verified: {'yes' if doc['verified'] else 'no'}")
    return lines


def _pretty_check(doc: dict) -> list[str]:
    lines = [f"check: {doc['classification']}"]
    if doc["label"] is not None:
        lines.append(f"label: {doc['label']}")
    if doc["reason"] is not None:
        lines.append(f"reason: {doc['reason']}")
    cond = doc["coordinate_conditions"]
    if cond["ok"]:
        lines.append("coordinate conditions: pass")
    else:
        lines.append(f"coordinate conditions: fail ({cond['failure']})")
    return lines


def _pretty_recover(doc: dict) -> list[str]:
    lines = [f"recover: q = {doc['conjugator']}"]
    if doc["label"] is not None:
        lines.append(f"label: {doc['label']}")
    if "conjugator_approx" in doc:
        lines.append(f"approx: {_pretty_floats(doc['conjugator_approx'].value)}")
    lines.append(f"verified: {'yes' if doc['verified'] else 'no'}")
    return lines


def _pretty_rank(doc: dict) -> list[str]:
    return [f"rank spec: {doc['spec']}"] + _rank_report_lines(doc["report"], "")


def _pretty_catalog(doc: dict) -> list[str]:
    lines = [f"catalog: {len(doc['entries'])} operators"]
    for entry in doc["entries"]:
        lines.append("")
        lines.append(f"{entry['name']}: {entry['classification']}, order {entry['order']}")
        lines.extend(_matrix_lines(entry["matrix"], "  "))
        if entry["conjugator"] is not None:
            lines.append(f"  conjugator: {entry['conjugator']}")
    return lines


def _pretty_demo(doc: dict) -> list[str]:
    lines = [f"demo: a = {doc['a']}"]
    for case in doc["cases"]:
        lines.append("")
        lines.append(f"case {case['name']}")
        lines.append("  matrix:")
        lines.extend(_matrix_lines(case["matrix"], "    "))
        for exp in case["expansions"]:
            coeffs = ", ".join(f"a{t} = {c}" for t, c in enumerate(exp["coefficients"]))
            lines.append(f"  frame {exp['frame']}: {coeffs}")
            vanishing = ", ".join(f"a{t}" for t in exp["vanishing_terms"]) or "none"
            verified = "yes" if exp["verified"] else "no"
            lines.append(f"    vanishing terms: {vanishing}; verified: {verified}")
    singular = doc["singular_frame"]
    lines.append("")
    lines.append(f"singular frame {singular['name']}:")
    lines.extend(_rank_report_lines(singular["report"], "  "))
    lines.append(f"note: {doc['note']}")
    return lines


_PRETTY_RENDERERS = {
    "decompose": _pretty_decompose,
    "check": _pretty_check,
    "recover": _pretty_recover,
    "rank": _pretty_rank,
    "catalog": _pretty_catalog,
    "demo": _pretty_demo,
}


def _dumps_compact(value: object, indent: int = 0) -> str:
    """json.dumps with scalar-only lists kept on one line.

    Matrices and coefficient lists stay one row per line, which keeps the
    documents diffable without losing JSON validity.
    """
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  {json.dumps(k)}: {_dumps_compact(v, indent + 1)}'
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        if all(not isinstance(x, (dict, list)) for x in value):
            return "[" + ", ".join(json.dumps(x) for x in value) + "]"
        items = [f"{pad}  {_dumps_compact(x, indent + 1)}" for x in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return json.dumps(value)


def _wire(value: object, approx: bool = False) -> object:
    """JSON form of a doc value: exact values as "p/q" strings, _Approx ones as floats."""
    if isinstance(value, Quaternion):
        return _floats(value) if approx else list(value.to_strings())
    if isinstance(value, Operator4):
        return value.to_strings()
    if isinstance(value, frames.RankReport):
        return {"terms": value.terms, "unknowns": value.unknowns, "rank": value.rank,
                "nullity": value.nullity, "defect_witness": _wire(value.defect_witness)}
    if isinstance(value, _Approx):
        return _wire(value.value, approx=True)
    if isinstance(value, dict):
        return {k: _wire(v, approx) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_wire(v, approx) for v in value]
    return value


def _emit(doc: dict, mode: str) -> str:
    """Render a handler's doc of exact values: the one place they become text.

    Raises:
        RationalSizeError: a rational over the digit cap.
        InputError: a --approx view outside the float range.
    """
    if mode == "json":
        return _dumps_compact(_wire(doc)) + "\n"
    return "\n".join(_PRETTY_RENDERERS[doc["command"]](doc)) + "\n"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatlin",
        description="Exact operator calculus on the quaternion algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="expand a matrix in a frame")
    p.add_argument("--frame", required=True, help="builtin frame name or 'L:name ...' spec")
    p.add_argument("--approx", action="store_true", help="also show float views of the coefficients")
    p.add_argument("file", help="JSON matrix document")
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("check", help="classify a matrix as (anti)linear automorphism or neither")
    p.add_argument("file", help="JSON matrix document")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("recover", help="recover q with f(x) = q x q^-1")
    p.add_argument("--approx", action="store_true", help="also show a float view of q")
    p.add_argument("file", help="JSON matrix document")
    p.set_defaults(handler=cmd_recover)

    p = sub.add_parser("rank", help="rank-analyze a family of expansion terms")
    p.add_argument("--spec", required=True, help="builtin frame name or 1..8 'side:name' terms")
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("catalog", help="print the named operator catalog")
    p.set_defaults(handler=cmd_catalog)

    p = sub.add_parser("demo", help="expand three operators built from one quaternion")
    p.add_argument("--a", default="1,2,3,4", help="quaternion as 'w,x,y,z' rationals")
    p.set_defaults(handler=cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    mode = os.environ.get("QUATLIN_OUTPUT", "pretty")
    if mode not in ("json", "pretty"):
        print(f"quatlin: QUATLIN_OUTPUT must be 'json' or 'pretty', got {mode!r}", file=sys.stderr)
        return 2
    try:
        doc, code = args.handler(args)
        text = _emit(doc, mode)
    except (InputError, RationalSizeError) as exc:
        print(f"quatlin: {exc}", file=sys.stderr)
        return 2
    except autos.NotAnAutomorphismError as exc:
        print(f"quatlin: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(text)
    return code


def console_main() -> None:
    raise SystemExit(main())
