"""Command line behavior: golden outputs, exit codes, input validation."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

from quatlin import autos, cli, frames, linop, scalarq
from quatlin.scalarq import MAX_LITERAL_DIGITS

from golden_cases import CASES, FIXTURES_DIR, MODES, argv_for, golden_path


def run_cli(argv, mode, capsys, monkeypatch):
    monkeypatch.setenv("QUATLIN_OUTPUT", mode)
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name,template,expected_code", CASES, ids=[c[0] for c in CASES])
def test_golden_outputs(name, template, expected_code, mode, capsys, monkeypatch):
    argv = argv_for(template)
    code_first, out_first, _ = run_cli(argv, mode, capsys, monkeypatch)
    code_second, out_second, _ = run_cli(argv, mode, capsys, monkeypatch)
    assert code_first == expected_code
    assert code_second == expected_code
    assert out_first == out_second
    golden = golden_path(mode, name).read_text(encoding="utf-8")
    assert out_first == golden
    assert out_first.isascii()


def test_json_mode_emits_valid_json(capsys, monkeypatch):
    for name, template, expected_code in CASES:
        code, out, _ = run_cli(argv_for(template), "json", capsys, monkeypatch)
        doc = json.loads(out)
        assert isinstance(doc, dict)
        assert doc["command"] == template[0]


def test_default_mode_is_pretty(capsys, monkeypatch):
    monkeypatch.delenv("QUATLIN_OUTPUT", raising=False)
    code = cli.main(["rank", "--spec", "L:id L:I"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == golden_path("pretty", "rank_id_conj").read_text(encoding="utf-8")


def test_invalid_output_mode(capsys, monkeypatch):
    monkeypatch.setenv("QUATLIN_OUTPUT", "xml")
    code = cli.main(["catalog"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "QUATLIN_OUTPUT" in captured.err


class TestInputErrors:
    def test_missing_file(self, capsys, monkeypatch):
        code, out, err = run_cli(["check", "/nonexistent/x.json"], "json", capsys, monkeypatch)
        assert code == 2
        assert out == ""
        assert "cannot read" in err

    def test_invalid_json(self, tmp_path, capsys, monkeypatch):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(["check", str(bad)], "json", capsys, monkeypatch)
        assert code == 2
        assert "not valid JSON" in err

    def test_missing_matrix_field(self, tmp_path, capsys, monkeypatch):
        doc = tmp_path / "doc.json"
        doc.write_text('{"label": "x"}', encoding="utf-8")
        code, _, err = run_cli(["check", str(doc)], "json", capsys, monkeypatch)
        assert code == 2
        assert "matrix" in err

    def test_wrong_shape(self, tmp_path, capsys, monkeypatch):
        doc = tmp_path / "doc.json"
        doc.write_text('{"matrix": [["1", "0"], ["0", "1"]]}', encoding="utf-8")
        code, _, err = run_cli(["check", str(doc)], "json", capsys, monkeypatch)
        assert code == 2
        assert "4x4" in err

    def test_float_entries_rejected(self, tmp_path, capsys, monkeypatch):
        rows = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
        doc = tmp_path / "doc.json"
        payload = {"matrix": rows}
        payload["matrix"][0][0] = 0.5  # type: ignore[index]
        doc.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = run_cli(["check", str(doc)], "json", capsys, monkeypatch)
        assert code == 2
        assert "entries" in err

    def test_bad_rational_string(self, tmp_path, capsys, monkeypatch):
        rows = [["1", "0", "0", "0"], ["0", "1e5", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"matrix": rows}), encoding="utf-8")
        code, _, err = run_cli(["check", str(doc)], "json", capsys, monkeypatch)
        assert code == 2
        assert "rational" in err

    def test_unknown_frame(self, capsys, monkeypatch):
        argv = ["decompose", "--frame", "NOPE", str(FIXTURES_DIR / "identity.json")]
        code, _, err = run_cli(argv, "json", capsys, monkeypatch)
        assert code == 2
        assert "NOPE" in err

    def test_bad_frame_spec_term_count(self, capsys, monkeypatch):
        argv = ["decompose", "--frame", "L:id L:A1", str(FIXTURES_DIR / "identity.json")]
        code, _, err = run_cli(argv, "json", capsys, monkeypatch)
        assert code == 2
        assert "4 terms" in err

    def test_rank_spec_too_long(self, capsys, monkeypatch):
        spec = " ".join(["L:id"] * 9)
        code, _, err = run_cli(["rank", "--spec", spec], "json", capsys, monkeypatch)
        assert code == 2
        assert "1 to 8" in err

    def test_bad_demo_quaternion(self, capsys, monkeypatch):
        code, _, err = run_cli(["demo", "--a", "1,2,3"], "json", capsys, monkeypatch)
        assert code == 2
        assert "--a" in err

    @pytest.mark.parametrize(
        "argv,payload",
        [
            pytest.param(["rank", "--spec", 'L:[["1/0",0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]'], None,
                         id="inline-zero-denominator"),
            pytest.param(["rank", "--spec", 'L:[["x",0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]'], None,
                         id="inline-bad-rational"),
            pytest.param(["check"], b'{"matrix": [["' + b"7" * 5000 + b'", 0, 0, 0], [0, 1, 0, 0], '
                         b'[0, 0, 1, 0], [0, 0, 0, 1]]}', id="huge-literal"),
            pytest.param(["check"], b'{"matrix": [[' + b"7" * 5000 + b', 0, 0, 0], [0, 1, 0, 0], '
                         b'[0, 0, 1, 0], [0, 0, 0, 1]]}', id="huge-integer"),
            pytest.param(["check"], b'{"matrix": ' + b"[" * 100000 + b"]" * 100000 + b"}", id="deep-nesting"),
            pytest.param(["check"], b'{"label": "\xff\xfe", "matrix": []}', id="non-utf8"),
        ],
    )
    def test_hostile_input(self, argv, payload, tmp_path, capsys, monkeypatch):
        if payload is not None:
            doc = tmp_path / "doc.json"
            doc.write_bytes(payload)
            argv = argv + [str(doc)]
        code, out, err = run_cli(argv, "json", capsys, monkeypatch)
        assert code == 2
        assert out == ""
        assert err.startswith("quatlin: ") and err.endswith("\n") and err.count("\n") == 1

    def test_literals_at_digit_cap_are_read(self, tmp_path, capsys, monkeypatch):
        big = "7" * MAX_LITERAL_DIGITS
        doc = tmp_path / "doc.json"
        doc.write_text(f'{{"matrix": [["{big}", 0, 0, 0], [0, {big}, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}}')
        code, out, err = run_cli(["check", str(doc)], "json", capsys, monkeypatch)
        assert code == 0, err
        assert out

    def test_unknown_command_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("QUATLIN_OUTPUT", "json")
        assert cli.main(["frobnicate"]) == 2


def _literal(rng: random.Random, digits: int) -> str:
    """A p/q literal whose numerator and denominator have the given digit count."""
    low, high = 10 ** (digits - 1), 10**digits
    return f"{rng.randrange(low, high)}/{rng.randrange(low, high)}"


def _refusal_cases(tmp_path):
    """argv of each output-side refusal: name -> (argv, stderr fragment)."""
    rng = random.Random(23)
    dense = {"matrix": [[_literal(rng, 1000) for _ in range(4)] for _ in range(4)]}
    unital = {"matrix": [["1", 0, 0, 0]] + [[0] + [_literal(rng, 3000) for _ in range(3)] for _ in range(3)]}
    diagonal = {"matrix": [[rng.randrange(10**399, 10**400) if r == c else 0 for c in range(4)] for r in range(4)]}
    for name, doc in (("dense", dense), ("unital", unital), ("diagonal", diagonal)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    cap = str(MAX_LITERAL_DIGITS)
    return {
        "decompose-huge-coefficients": (["decompose", "--frame", "AUTO", str(tmp_path / "dense.json")], cap),
        "demo-huge-a": (["demo", "--a", ",".join(_literal(rng, 1100) for _ in range(4))], cap),
        "check-huge-failure-message": (["check", str(tmp_path / "unital.json")], cap),
        "approx-out-of-float-range": (
            ["decompose", "--approx", "--frame", "AUTO", str(tmp_path / "diagonal.json")], "--approx"),
    }


class TestOutputLimits:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("case", ["decompose-huge-coefficients", "demo-huge-a",
                                      "check-huge-failure-message", "approx-out-of-float-range"])
    def test_refused_at_render(self, case, mode, tmp_path, capsys, monkeypatch):
        argv, fragment = _refusal_cases(tmp_path)[case]
        code, out, err = run_cli(argv, mode, capsys, monkeypatch)
        assert code == 2
        assert out == ""
        assert err.startswith("quatlin: ") and err.endswith("\n") and err.count("\n") == 1
        assert fragment in err

    @pytest.mark.parametrize("mode", MODES)
    def test_exact_view_of_approx_overflow_prints(self, mode, tmp_path, capsys, monkeypatch):
        argv, _ = _refusal_cases(tmp_path)["approx-out-of-float-range"]
        argv = [part for part in argv if part != "--approx"]
        code, out, err = run_cli(argv, mode, capsys, monkeypatch)
        assert code == 0, err
        assert out


# Verifying calls per golden command: one per printed result.
LEDGER = {
    "decompose": {"expand": 1},
    "demo": {"expand": 6, "family_rank": 1},
    "rank": {"family_rank": 1},
    "check": {"classify": 1},
    "recover": {"conjugation_by": 1},
    "catalog": {"classify": 7, "conjugation_by": 4},
}


def test_verification_ledger(capsys, monkeypatch):
    counts = Counter()
    for module, name in ((autos, "classify"), (autos, "conjugation_by"), (frames, "expand"), (frames, "family_rank")):
        def counted(*args, _name=name, _original=getattr(module, name)):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    for name, template, expected_code in CASES:
        frames._frame_inverse.cache_clear()
        counts.clear()
        code, _, _ = run_cli(argv_for(template), "json", capsys, monkeypatch)
        assert code == expected_code
        expected = LEDGER[template[0]]
        if name == "decompose_singular":
            # expand raises at once; the printed rank report is the one family_rank.
            expected = {"expand": 1, "family_rank": 1}
        assert dict(counts) == expected, name


def test_emit_parses_no_rationals(capsys, monkeypatch):
    inside, emitted, parsed = [False], [], []
    original_parse, original_emit = scalarq.parse_rational, cli._emit

    def parse(text):
        if inside[0]:
            parsed.append(text)
        return original_parse(text)

    def emit(doc, mode):
        emitted.append(mode)
        inside[0] = True
        try:
            return original_emit(doc, mode)
        finally:
            inside[0] = False

    for module in (scalarq, linop, cli):
        if getattr(module, "parse_rational", None) is original_parse:
            monkeypatch.setattr(module, "parse_rational", parse)
    monkeypatch.setattr(cli, "_emit", emit)
    for mode in MODES:
        for _, template, _ in CASES:
            run_cli(argv_for(template), mode, capsys, monkeypatch)
    assert len(emitted) == 2 * len(CASES)
    assert parsed == []


class TestPreconditionExit:
    def test_recover_on_antilinear(self, capsys, monkeypatch):
        argv = ["recover", str(FIXTURES_DIR / "conj.json")]
        code, out, err = run_cli(argv, "json", capsys, monkeypatch)
        assert code == 4
        assert out == ""
        assert "not a linear automorphism" in err

    def test_recover_on_non_unital(self, capsys, monkeypatch):
        argv = ["recover", str(FIXTURES_DIR / "twice_identity.json")]
        code, out, err = run_cli(argv, "json", capsys, monkeypatch)
        assert code == 4
        assert "not unital" in err


class TestDocumentHandling:
    def test_label_is_optional(self, tmp_path, capsys, monkeypatch):
        rows = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"matrix": rows}), encoding="utf-8")
        code, out, _ = run_cli(["check", str(doc)], "json", capsys, monkeypatch)
        assert code == 0
        assert json.loads(out)["label"] is None
        code, out, _ = run_cli(["check", str(doc)], "pretty", capsys, monkeypatch)
        assert "label:" not in out

    def test_integer_entries_accepted(self, tmp_path, capsys, monkeypatch):
        rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"matrix": rows}), encoding="utf-8")
        code, out, _ = run_cli(["check", str(doc)], "json", capsys, monkeypatch)
        assert code == 0
        assert json.loads(out)["classification"] == "linear-automorphism"

    def test_non_canonical_rationals_normalized(self, tmp_path, capsys, monkeypatch):
        rows = [["2/2", "0", "0", "0"], ["0", "2/2", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"matrix": rows}), encoding="utf-8")
        code, out, _ = run_cli(["check", str(doc)], "json", capsys, monkeypatch)
        assert code == 0
        assert json.loads(out)["classification"] == "linear-automorphism"


def test_demo_zero_quaternion_expands_to_zero(capsys, monkeypatch):
    # a = 0 makes every case the zero operator, whose unique expansion is zero.
    code, out, err = run_cli(["demo", "--a", "0,0,0,0"], "json", capsys, monkeypatch)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["a"] == ["0", "0", "0", "0"]
    expansions = [exp for case in doc["cases"] for exp in case["expansions"]]
    assert len(expansions) == 6
    for exp in expansions:
        assert exp["coefficients"] == [["0", "0", "0", "0"]] * 4
        assert exp["vanishing_terms"] == [0, 1, 2, 3]


def test_module_entry_point():
    env = dict(os.environ)
    env.pop("QUATLIN_OUTPUT", None)
    result = subprocess.run(
        [sys.executable, "-m", "quatlin", "catalog"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout == golden_path("pretty", "catalog").read_text(encoding="utf-8")
