"""The four benchmark workloads: seeded inputs, the timed call, the check.

Each workload is a class with the same static interface:

* ``items(seed)`` yields plain-data inputs, the same ones for the same seed.
  The worker process and the verifying parent both regenerate the stream,
  so no input ever crosses the process boundary.
* ``prepare(ql, item, ctx)`` turns one item into call arguments inside the
  worker, outside the timed region. ``ql`` is the imported package.
* ``run(ql, args)`` is the timed operation, through public entry points.
* ``dump(result)`` serializes the answer, outside the timed region.
* ``verify(item, out, ctx)`` checks the answer with the oracle in the
  parent and returns an error string, or None when the answer is right.
* ``cold(seed)`` gives the documents and argv lists that the cold
  ``python -m quatlin`` measurement runs.

Every class of operation is placed by a fixed schedule (operation i gets
``SCHEDULE[i % len(SCHEDULE)]``), so each run has the same mix whatever
its seed; only the values inside the operations are random.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from pathlib import Path

import oracle

TESTS_DIR = Path(__file__).resolve().parent.parent / "tests"
FIXTURES_DIR = TESTS_DIR / "fixtures"
GOLDEN_DIR = TESTS_DIR / "golden"

NAMES = ("id", "A1", "A2", "A3", "I", "I1", "I2", "A1A1")
MODES = ("json", "pretty")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def rand_fraction(rng, num_bound=100, den_bound=20):
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def rand_quat(rng):
    while True:
        q = tuple(rand_fraction(rng) for _ in range(4))
        if any(q):
            return q


def rand_rows(rng):
    return tuple(tuple(rand_fraction(rng) for _ in range(4)) for _ in range(4))


def to_strings(rows):
    return [[str(c) for c in row] for row in rows]


def from_strings(rows):
    return tuple(tuple(Fraction(c) for c in row) for row in rows)


def quats(strings):
    return [tuple(Fraction(c) for c in q) for q in strings]


def doc_text(label, rows):
    return json.dumps({"label": label, "matrix": to_strings(rows)})


def catalog_spec(rng, nterms):
    return " ".join(f"{rng.choice('LR')}:{rng.choice(NAMES)}" for _ in range(nterms))


def spec_terms(spec):
    """Oracle terms for a spec of catalog names (no inline matrices)."""
    return [(tok[0], oracle.CATALOG[tok[2:]]) for tok in spec.split()]


def _expansion_error(terms, coeffs, rows):
    if len(coeffs) != 4 or oracle.rebuild(terms, coeffs) != rows:
        return "expansion coefficients do not rebuild the operator"
    return None


def _rank_error(terms, rank, nullity, witness):
    want, kernel = oracle.rank_and_kernel(oracle.family_matrix(terms))
    if rank != want or nullity != 4 * len(terms) - want:
        return f"rank {rank}/nullity {nullity}, oracle rank {want}"
    if kernel is None:
        return None if witness is None else "witness given for an injective family"
    if witness is None or [c for q in witness for c in q] != kernel:
        return "kernel witness is not the canonical kernel vector"
    return None


class ExpandStream:
    """Expand an operator in RIGHT_UNITS or AUTO (alternating), then reconstruct it."""

    name = "expand-stream"
    imports = ("quatlin",)
    # Four dense acceptance-style operators, then one left or right
    # multiplication by a random quaternion (sparse coefficients).
    SCHEDULE = ("dense", "dense", "dense", "dense", "mul")
    FRAMES = ("RIGHT_UNITS", "AUTO")

    @classmethod
    def items(cls, seed):
        rng = _rng(cls.name, seed)
        i = 0
        while True:
            kind = cls.SCHEDULE[i % len(cls.SCHEDULE)]
            if kind == "dense":
                rows = rand_rows(rng)
            else:
                q = rand_quat(rng)
                rows = oracle.left(q) if rng.random() < 0.5 else oracle.right(q)
            yield {"frame": cls.FRAMES[i % 2], "rows": rows}
            i += 1

    @staticmethod
    def setup(ql, tmp, seed):
        return None

    @staticmethod
    def prepare(ql, item, ctx):
        return ql.Operator4(item["rows"]), ql.builtin_frame(item["frame"])

    @staticmethod
    def run(ql, args):
        f, frame = args
        e = ql.expand(f, frame)
        return e, ql.reconstruct(e)

    @staticmethod
    def dump(result):
        e, g = result
        return {"c": [q.to_strings() for q in e.coefficients], "g": g.to_strings()}

    @staticmethod
    def verify(item, out, ctx):
        if from_strings(out["g"]) != item["rows"]:
            return "reconstruct does not return the input operator"
        return _expansion_error(oracle.FRAMES[item["frame"]], quats(out["c"]), item["rows"])

    @classmethod
    def cold(cls, seed):
        rng = _rng(cls.name + ":cold", seed)
        docs = {f"op{n}": doc_text(f"dense {n}", rand_rows(rng)) for n in range(2)}
        argvs = [["decompose", "--frame", frame, f"{{tmp}}/op{n}.json"]
                 for n in range(2) for frame in cls.FRAMES]
        return docs, argvs


def _perturbed(rng, q):
    rows = [list(row) for row in oracle.conjugation(q)]
    r, c = rng.randint(1, 3), rng.randint(1, 3)
    # Any change but negating the entry breaks the orthogonality of the
    # rotation block, so the map is neither linear nor antilinear.
    delta = rand_fraction(rng)
    if delta in (0, -2 * rows[r][c]):
        delta = Fraction(1, 101)
    rows[r][c] += delta
    return tuple(tuple(row) for row in rows)


class AutomorphismCheck:
    """classify + check_coordinate_conditions, and recover_conjugator on linear verdicts."""

    name = "automorphism-check"
    imports = ("quatlin",)
    # Linear maps run the full 16-pair product law and recovery; antilinear
    # ones both laws; perturbed conjugations fail both laws; dense random
    # operators fail the unit test and exit early.
    SCHEDULE = ("linear", "linear", "linear", "antilinear", "antilinear",
                "perturbed", "perturbed", "dense")
    EXPECTED = {"linear": "linear-automorphism", "antilinear": "antilinear-automorphism",
                "perturbed": "neither", "dense": "neither"}

    @classmethod
    def items(cls, seed):
        rng = _rng(cls.name, seed)
        i = 0
        while True:
            kind = cls.SCHEDULE[i % len(cls.SCHEDULE)]
            if kind == "linear":
                rows = oracle.conjugation(rand_quat(rng))
            elif kind == "antilinear":
                rows = oracle.matmul(oracle.conjugation(rand_quat(rng)), oracle.CATALOG["I"])
            elif kind == "perturbed":
                rows = _perturbed(rng, rand_quat(rng))
            else:
                rows = rand_rows(rng)
            yield {"kind": kind, "rows": rows}
            i += 1

    @staticmethod
    def setup(ql, tmp, seed):
        return None

    @staticmethod
    def prepare(ql, item, ctx):
        return ql.Operator4(item["rows"])

    @staticmethod
    def run(ql, f):
        kind = ql.classify(f)
        cond = ql.check_coordinate_conditions(f)
        q = ql.recover_conjugator(f) if kind.is_linear else None
        return kind, cond, q

    @staticmethod
    def dump(result):
        kind, cond, q = result
        return {"tag": kind.tag.value, "ok": cond.ok, "q": None if q is None else q.to_strings()}

    @classmethod
    def verify(cls, item, out, ctx):
        rows = item["rows"]
        verdict = oracle.classify(rows)
        if verdict != cls.EXPECTED[item["kind"]]:
            return f"generator produced a {verdict} map for kind {item['kind']}"
        if out["tag"] != verdict:
            return f"classify says {out['tag']}, oracle says {verdict}"
        if out["ok"] != (verdict == "linear-automorphism"):
            return "coordinate conditions disagree with the product law"
        return _conjugator_error(rows, out["q"], verdict)

    @classmethod
    def cold(cls, seed):
        rng = _rng(cls.name + ":cold", seed)
        docs = {
            "conj": doc_text("conjugation", oracle.conjugation(rand_quat(rng))),
            "anti": doc_text("antilinear", oracle.matmul(oracle.conjugation(rand_quat(rng)),
                                                         oracle.CATALOG["I"])),
        }
        argvs = [["check", "{tmp}/conj.json"], ["recover", "{tmp}/conj.json"],
                 ["check", "{tmp}/anti.json"]]
        return docs, argvs


def _conjugator_error(rows, q, verdict):
    if verdict != "linear-automorphism":
        return None if q is None else "conjugator returned for a map that is not linear"
    if q is None:
        return "no conjugator for a linear automorphism"
    q = tuple(Fraction(c) for c in q)
    if not any(q) or oracle.conjugation(q) != rows:
        return "recovered q does not conjugate back to f"
    return None


class FrameSearch:
    """Parse a fresh frame spec and rank it; expand a few operators when it is invertible."""

    name = "frame-search"
    imports = ("quatlin",)
    # Catalog-name frames are mostly singular (kernel-witness path); inline
    # random-rational frames are invertible (inverse computed on a cache
    # miss, then hits); families of 1 to 8 terms exercise rank alone.
    SCHEDULE = ("catalog",) * 15 + ("family",) * 4 + ("inline",)
    EXPANSIONS = 3

    @classmethod
    def items(cls, seed):
        rng = _rng(cls.name, seed)
        seen = set()
        i = 0
        while True:
            kind = cls.SCHEDULE[i % len(cls.SCHEDULE)]
            nterms = 1 + (i // len(cls.SCHEDULE)) % 8 if kind == "family" else 4
            while True:  # a 4-term spec is never repeated, so its frame is never cached
                if kind == "inline":
                    mats = [rand_rows(rng) for _ in range(4)]
                    sides = [rng.choice("LR") for _ in range(4)]
                    spec = " ".join(f"{s}:{json.dumps(to_strings(m), separators=(',', ':'))}"
                                    for s, m in zip(sides, mats))
                    terms = list(zip(sides, mats))
                else:
                    spec = catalog_spec(rng, nterms)
                    terms = None
                if nterms != 4 or spec not in seen:
                    break
            seen.add(spec)
            ops = [rand_rows(rng) for _ in range(cls.EXPANSIONS)] if kind != "family" else []
            yield {"kind": kind, "spec": spec, "terms": terms, "ops": ops}
            i += 1

    @staticmethod
    def setup(ql, tmp, seed):
        return None

    @staticmethod
    def prepare(ql, item, ctx):
        return item["kind"], item["spec"], [ql.Operator4(rows) for rows in item["ops"]]

    @staticmethod
    def run(ql, args):
        kind, spec, ops = args
        if kind == "family":
            return ql.family_rank(ql.parse_frame_terms(spec)), []
        frame = ql.parse_frame_spec(spec)
        report = ql.family_rank(frame.terms)
        if report.nullity:
            return report, []
        return report, [ql.expand(f, frame) for f in ops]

    @staticmethod
    def dump(result):
        report, expansions = result
        witness = report.defect_witness
        return {
            "rank": report.rank,
            "nullity": report.nullity,
            "witness": None if witness is None else [q.to_strings() for q in witness],
            "c": [[q.to_strings() for q in e.coefficients] for e in expansions],
        }

    @staticmethod
    def verify(item, out, ctx):
        terms = item["terms"] or spec_terms(item["spec"])
        witness = None if out["witness"] is None else quats(out["witness"])
        err = _rank_error(terms, out["rank"], out["nullity"], witness)
        if err:
            return err
        want = len(item["ops"]) if out["nullity"] == 0 else 0
        if len(out["c"]) != want:
            return f"{len(out['c'])} expansions, expected {want}"
        for rows, coeffs in zip(item["ops"], out["c"]):
            err = _expansion_error(terms, quats(coeffs), rows)
            if err:
                return err
        return None

    @classmethod
    def cold(cls, seed):
        stream = cls.items(seed)
        specs = [next(stream)["spec"] for _ in range(len(cls.SCHEDULE))]
        return {}, [["rank", "--spec", specs[0]], ["rank", "--spec", specs[-1]]]


# The CLI golden table: name, argv ({fx} is the fixtures directory), exit code.
GOLDEN_CASES = (
    ("catalog", ["catalog"], 0),
    ("demo", ["demo"], 0),
    ("demo_a_i", ["demo", "--a", "0,1,0,0"], 0),
    ("decompose_right_i_right_units", ["decompose", "--frame", "RIGHT_UNITS", "{fx}/right_i.json"], 0),
    ("decompose_identity_auto", ["decompose", "--frame", "AUTO", "{fx}/identity.json"], 0),
    ("decompose_conj2357_auto_approx", ["decompose", "--approx", "--frame", "AUTO", "{fx}/conj_2357.json"], 0),
    ("decompose_spec_frame", ["decompose", "--frame", "L:id L:A1 L:A2 L:A3", "{fx}/conj_2357.json"], 0),
    ("decompose_singular", ["decompose", "--frame", "SINGULAR_ATTEMPT", "{fx}/identity.json"], 3),
    ("check_a1", ["check", "{fx}/a1.json"], 0),
    ("check_conj", ["check", "{fx}/conj.json"], 0),
    ("check_twice_identity", ["check", "{fx}/twice_identity.json"], 0),
    ("check_right_i", ["check", "{fx}/right_i.json"], 0),
    ("recover_a1", ["recover", "{fx}/a1.json"], 0),
    ("recover_conj_2357", ["recover", "--approx", "{fx}/conj_2357.json"], 0),
    ("rank_singular_attempt", ["rank", "--spec", "L:id L:A1 L:A1A1 L:I"], 0),
    ("rank_id_conj", ["rank", "--spec", "L:id L:I"], 0),
    ("rank_right_units", ["rank", "--spec", "RIGHT_UNITS"], 0),
)

# Malformed input the CLI is contracted to refuse with exit 2 and one
# stderr line: name -> (argv, document text or None).
MALFORMED = {
    "bad_json": (["check", "{tmp}/bad_json.json"], "{not json"),
    "no_matrix": (["check", "{tmp}/no_matrix.json"], '{"label": "x"}'),
    "float_entry": (["check", "{tmp}/float_entry.json"],
                    '{"matrix": [[1.5, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}'),
    "zero_denominator": (["recover", "{tmp}/zero_denominator.json"],
                         '{"matrix": [["1/0", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}'),
    "short_matrix": (["decompose", "--frame", "AUTO", "{tmp}/short_matrix.json"],
                     '{"matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]}'),
    "unknown_frame": (["decompose", "--frame", "NOPE", "{fx}/identity.json"], None),
    "bad_quaternion": (["demo", "--a", "1,2,3"], None),
    "missing_file": (["check", "{tmp}/does_not_exist.json"], None),
}

# Hostile input that the contract says must also exit 2 with one stderr
# line, but that the CLI does not handle yet (each raises out of main).
# Run once per cli-docs run as a probe, outside the timed loop.
_INLINE_BAD = '[["1/0","0","0","0"],["0","1","0","0"],["0","0","1","0"],["0","0","0","1"]]'
HOSTILE = {
    "inline_bad_rational": (["rank", "--spec", f"L:{_INLINE_BAD}"], None),
    "huge_literal": (["check", "{tmp}/huge_literal.json"],
                     '{"matrix": [["' + "7" * 5000 + '", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}'),
    "deep_nesting": (["check", "{tmp}/deep_nesting.json"], '{"matrix": ' + "[" * 100000 + "]" * 100000 + "}"),
    "non_utf8": (["check", "{tmp}/non_utf8.json"], b'{"label": "\xff\xfe", "matrix": []}'),
}


class CliDocs:
    """In-process ``cli.main`` over seeded documents, goldens and malformed input."""

    name = "cli-docs"
    imports = ("quatlin", "quatlin.cli")
    SCHEDULE = ("golden", "decompose", "check", "decompose", "recover",
                "golden", "check", "rank", "decompose", "check",
                "golden", "malformed", "decompose", "recover", "demo",
                "golden", "check", "recover", "rank", "decompose")
    POOL = {"dense": 8, "conj": 8, "anti": 4, "mul": 4}
    FRAMES = ("RIGHT_UNITS", "AUTO", "L:id L:A1 L:A2 L:A3")

    @classmethod
    def pool(cls, seed):
        """Seeded documents: name -> (label, rows)."""
        rng = _rng(cls.name + ":pool", seed)
        docs = {}
        for kind, count in cls.POOL.items():
            for n in range(count):
                if kind == "dense":
                    rows = rand_rows(rng)
                elif kind == "conj":
                    rows = oracle.conjugation(rand_quat(rng))
                elif kind == "anti":
                    rows = oracle.matmul(oracle.conjugation(rand_quat(rng)), oracle.CATALOG["I"])
                else:
                    rows = oracle.left(rand_quat(rng)) if n % 2 else oracle.right(rand_quat(rng))
                docs[f"{kind}{n}"] = (f"{kind} {n}", rows)
        return docs

    @classmethod
    def documents(cls, seed):
        """Every file the workload reads from its temp dir: name -> text or bytes."""
        files = {name: doc_text(label, rows) for name, (label, rows) in cls.pool(seed).items()}
        for table in (MALFORMED, HOSTILE):
            for name, (_, text) in table.items():
                if text is not None:
                    files[name] = text
        return files

    @classmethod
    def items(cls, seed):
        rng = _rng(cls.name, seed)
        pool = cls.pool(seed)
        names = {kind: [n for n in pool if n.startswith(kind)] for kind in cls.POOL}
        golden = [(case, mode) for case in GOLDEN_CASES for mode in MODES]
        rng.shuffle(golden)
        malformed = sorted(MALFORMED)
        i = 0
        while True:
            kind = cls.SCHEDULE[i % len(cls.SCHEDULE)]
            mode = rng.choice(MODES)
            item = {"kind": kind, "mode": mode, "expect": 0, "doc": None}
            if kind == "golden":
                (name, argv, code), mode = golden[(i // 5) % len(golden)]
                item.update(name=name, argv=argv, expect=code, mode=mode)
            elif kind == "malformed":
                name = malformed[(i // len(cls.SCHEDULE)) % len(malformed)]
                item.update(name=name, argv=MALFORMED[name][0], expect=2)
            elif kind == "decompose":
                doc = rng.choice(names[rng.choice(("dense", "conj", "mul"))])
                frame = rng.choice(cls.FRAMES)
                item.update(doc=doc, frame=frame, argv=["decompose", "--frame", frame, f"{{tmp}}/{doc}.json"])
            elif kind == "check":
                doc = rng.choice(names[rng.choice(("dense", "conj", "anti", "mul"))])
                item.update(doc=doc, argv=["check", f"{{tmp}}/{doc}.json"])
            elif kind == "recover":
                doc = rng.choice(names["conj"] if rng.random() < 0.75 else names["dense"])
                item.update(doc=doc, argv=["recover", f"{{tmp}}/{doc}.json"],
                            expect=0 if doc.startswith("conj") else 4)
            elif kind == "rank":
                spec = catalog_spec(rng, rng.randint(1, 8))
                item.update(spec=spec, argv=["rank", "--spec", spec])
            else:
                a = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4))
                item.update(a=a, argv=["demo", "--a=" + ",".join(str(c) for c in a)])
            yield item
            i += 1

    @classmethod
    def setup(cls, ql, tmp, seed):
        write_files(tmp, cls.documents(seed))
        return {"tmp": tmp, "fx": str(FIXTURES_DIR)}

    @staticmethod
    def prepare(ql, item, ctx):
        return [part.format(**ctx) for part in item["argv"]], item["mode"]

    @staticmethod
    def run(ql, args):
        argv, mode = args
        return call_cli(ql.cli, argv, mode)

    @staticmethod
    def dump(result):
        code, out, err = result
        return {"code": code, "out": out, "err": err}

    @classmethod
    def verify(cls, item, out, ctx):
        if out["code"] != item["expect"]:
            return f"exit code {out['code']}, expected {item['expect']}"
        if item["expect"] in (2, 4):
            if out["out"] or not _one_line(out["err"]):
                return "refusal must print nothing on stdout and one line on stderr"
            return None
        if item["kind"] == "golden":
            golden = GOLDEN_DIR / item["mode"] / f"{item['name']}.txt"
            if out["out"] != golden.read_text(encoding="utf-8"):
                return f"output differs from golden {item['mode']}/{item['name']}"
            return None
        pool = ctx["pool"]
        try:
            doc = _parse_output(item, out["out"])
        except (ValueError, KeyError, IndexError) as exc:
            return f"unreadable {item['mode']} output: {exc}"
        if item["kind"] == "decompose":
            if not doc["verified"]:
                return "decompose did not report its result as verified"
            frame = item["frame"]
            terms = oracle.FRAMES[frame] if frame in oracle.FRAMES else spec_terms(frame)
            return _expansion_error(terms, doc["coeffs"], pool[item["doc"]][1])
        if item["kind"] == "check":
            rows = pool[item["doc"]][1]
            verdict = oracle.classify(rows)
            if doc["tag"] != verdict:
                return f"check says {doc['tag']}, oracle says {verdict}"
            if doc["ok"] != (verdict == "linear-automorphism"):
                return "coordinate conditions disagree with the product law"
            return None
        if item["kind"] == "recover":
            return _conjugator_error(pool[item["doc"]][1], doc["q"], "linear-automorphism")
        if item["kind"] == "rank":
            return _rank_error(spec_terms(item["spec"]), doc["rank"], doc["nullity"], doc["witness"])
        return _demo_error(item["a"], doc)

    @classmethod
    def cold(cls, seed):
        argvs = [argv for name, argv, code in GOLDEN_CASES if name in (
            "catalog", "demo", "decompose_conj2357_auto_approx", "check_conj",
            "recover_conj_2357", "rank_singular_attempt")]
        return {}, argvs


def write_files(tmp, files):
    for name, text in files.items():
        path = Path(tmp) / f"{name}.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")


def call_cli(cli, argv, mode):
    """One in-process ``cli.main`` call with stdout and stderr captured."""
    os.environ["QUATLIN_OUTPUT"] = mode
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _one_line(text):
    return text.endswith("\n") and text.count("\n") == 1 and text.startswith("quatlin: ")


def probe_hostile(cli, ctx):
    """Run each hostile input once: name -> 'ok' or what went wrong."""
    outcomes = {}
    for name, (argv, _) in sorted(HOSTILE.items()):
        try:
            code, out, err = call_cli(cli, [p.format(**ctx) for p in argv], "json")
        except Exception as exc:  # the defect being probed: an exception escapes main
            outcomes[name] = f"raised {type(exc).__name__}"
            continue
        ok = code == 2 and not out and _one_line(err)
        outcomes[name] = "ok" if ok else f"exit {code}"
    return outcomes


def _rank_fields(doc):
    witness = doc["defect_witness"]
    return {"rank": doc["rank"], "nullity": doc["nullity"],
            "witness": None if witness is None else quats(witness)}


def _pretty_rank(lines):
    fields = dict(line.strip().split(": ", 1) for line in lines if ": " in line and "=" not in line)
    start = next(n for n, line in enumerate(lines) if line.strip().startswith("kernel witness"))
    witness = [oracle.parse_quat(line.split(" = ", 1)[1]) for line in lines[start + 1:]
               if line.strip().startswith("a") and " = " in line]
    return {"rank": int(fields["rank"]), "nullity": int(fields["nullity"]),
            "witness": witness or None}


def _parse_output(item, text):
    """Normalize one seeded command's output, in either mode, for the oracle."""
    kind = item["kind"]
    if item["mode"] == "json":
        doc = json.loads(text)
        if kind == "decompose":
            return {"coeffs": quats(doc["coefficients"]), "verified": doc["verified"]}
        if kind == "check":
            return {"tag": doc["classification"], "ok": doc["coordinate_conditions"]["ok"]}
        if kind == "recover":
            return {"q": doc["conjugator"]}
        if kind == "rank":
            return _rank_fields(doc["report"])
        return {
            "a": tuple(Fraction(c) for c in doc["a"]),
            "matrices": [from_strings(case["matrix"]) for case in doc["cases"]],
            "expansions": [quats(e["coefficients"]) for case in doc["cases"] for e in case["expansions"]],
            "singular": _rank_fields(doc["singular_frame"]["report"]),
        }
    lines = text.splitlines()
    if kind == "decompose":
        coeffs = [oracle.parse_quat(line.split(" = ", 1)[1]) for line in lines if line.startswith("  a")]
        return {"coeffs": coeffs, "verified": lines[-1] == "verified: yes"}
    if kind == "check":
        cond = next(line for line in lines if line.startswith("coordinate conditions: "))
        return {"tag": lines[0].split(": ", 1)[1], "ok": cond == "coordinate conditions: pass"}
    if kind == "recover":
        return {"q": [str(c) for c in oracle.parse_quat(lines[0].split(" = ", 1)[1])]}
    if kind == "rank":
        return _pretty_rank(lines)
    frame_lines = [line for line in lines if line.startswith("  frame ")]
    expansions = [[oracle.parse_quat(part.split(" = ", 1)[1]) for part in line.split(": ", 1)[1].split(", ")]
                  for line in frame_lines]
    start = next(n for n, line in enumerate(lines) if line.startswith("singular frame "))
    return {
        "a": oracle.parse_quat(lines[0].split(" = ", 1)[1]),
        "matrices": None,
        "expansions": expansions,
        "singular": _pretty_rank(lines[start + 1:]),
    }


def _demo_error(a, doc):
    if doc["a"] != a:
        return "demo echoes a different quaternion"
    left, right = oracle.left(a), oracle.right(a)
    ops = (left, right, oracle.matadd(left, right))
    if doc["matrices"] is not None and list(doc["matrices"]) != list(ops):
        return "demo matrices are not x -> ax, x -> xa, x -> ax + xa"
    if len(doc["expansions"]) != 6:
        return f"demo printed {len(doc['expansions'])} expansions, expected 6"
    for n, coeffs in enumerate(doc["expansions"]):
        frame = ("RIGHT_UNITS", "AUTO")[n % 2]
        err = _expansion_error(oracle.FRAMES[frame], coeffs, ops[n // 2])
        if err:
            return err
    s = doc["singular"]
    return _rank_error(oracle.FRAMES["SINGULAR_ATTEMPT"], s["rank"], s["nullity"], s["witness"])


WORKLOADS = {w.name: w for w in (ExpandStream, AutomorphismCheck, FrameSearch, CliDocs)}
