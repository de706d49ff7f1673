"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import ast
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in BENCH["workloads"]]


def first(workload, seed, n):
    return list(itertools.islice(workloads.WORKLOADS[workload].items(seed), n))


def answer(workload, item, tmp_path=None):
    """Run one item through quatlin in this process; returns the dumped answer."""
    import quatlin
    import quatlin.cli  # noqa: F401

    wl = workloads.WORKLOADS[workload]
    ctx = wl.setup(quatlin, str(tmp_path), 1) if tmp_path else None
    return wl.dump(wl.run(quatlin, wl.prepare(quatlin, item, ctx)))


def test_benchmark_lists_every_workload():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads(lines[-2])
    assert record["seed"] == 5 and record["nproc"] and record["python"] and record["samples"]


@pytest.mark.parametrize("workload", NAMES)
def test_seed_determines_inputs(workload):
    assert repr(first(workload, 1, 40)) == repr(first(workload, 1, 40))
    assert repr(first(workload, 1, 40)) != repr(first(workload, 2, 40))


def test_frame_specs_are_never_repeated():
    specs = [item["spec"] for item in first("frame-search", 3, 2000) if item["kind"] != "family"]
    assert len(specs) == len(set(specs))


def test_oracle_does_not_import_quatlin():
    tree = ast.parse((HERE / "oracle.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name and name.split(".")[0] == "quatlin" for name in imported)


def test_oracle_rejects_a_corrupted_expansion():
    item = first("expand-stream", 1, 1)[0]
    out = answer("expand-stream", item)
    assert workloads.ExpandStream.verify(item, out, None) is None
    out["c"] = [list(q) for q in out["c"]]
    out["c"][2][1] = str(oracle.Fraction(out["c"][2][1]) + 1)
    assert workloads.ExpandStream.verify(item, out, None) is not None


def test_oracle_rejects_a_wrong_verdict_and_conjugator():
    items = first("automorphism-check", 1, 8)
    for item in items:
        assert workloads.AutomorphismCheck.verify(item, answer("automorphism-check", item), None) is None
    linear = items[0]
    out = answer("automorphism-check", linear)
    out["q"] = [out["q"][0], out["q"][2], out["q"][1], out["q"][3]]
    assert workloads.AutomorphismCheck.verify(linear, out, None) is not None
    out = answer("automorphism-check", linear)
    out["tag"] = "neither"
    assert workloads.AutomorphismCheck.verify(linear, out, None) is not None


def test_oracle_rejects_a_wrong_rank_or_witness():
    singular = next(item for item in first("frame-search", 1, 40)
                    if item["kind"] == "catalog" and answer("frame-search", item)["nullity"])
    out = answer("frame-search", singular)
    assert workloads.FrameSearch.verify(singular, out, None) is None
    wrong_rank = dict(out, rank=out["rank"] + 1, nullity=out["nullity"] - 1)
    assert workloads.FrameSearch.verify(singular, wrong_rank, None) is not None
    witness = [list(q) for q in out["witness"]]
    witness[0][0] = str(oracle.Fraction(witness[0][0]) + 1)
    assert workloads.FrameSearch.verify(singular, dict(out, witness=witness), None) is not None


def test_golden_compare_rejects_a_corrupted_output(tmp_path):
    golden = next(item for item in first("cli-docs", 1, 20) if item["kind"] == "golden")
    out = answer("cli-docs", golden, tmp_path)
    ctx = {"pool": workloads.CliDocs.pool(1)}
    assert workloads.CliDocs.verify(golden, out, ctx) is None
    flipped = out["out"].replace("1", "2", 1) if "1" in out["out"] else out["out"] + " "
    assert workloads.CliDocs.verify(golden, dict(out, out=flipped), ctx) is not None


def test_cli_answers_in_both_modes_pass_the_oracle(tmp_path):
    ctx = {"pool": workloads.CliDocs.pool(1)}
    for item in first("cli-docs", 1, 60):
        assert workloads.CliDocs.verify(item, answer("cli-docs", item, tmp_path), ctx) is None, item


def test_tracer_wraps_names_bound_by_from_imports():
    import tracing

    import quatlin
    import quatlin.cli  # noqa: F401

    original = quatlin.linop.left_mul_op
    tracer = tracing.Tracer()
    tracer.install(quatlin)
    try:
        assert quatlin.linop.left_mul_op is not original
        assert quatlin.frames.left_mul_op is quatlin.linop.left_mul_op
        assert quatlin.cli.left_mul_op is quatlin.linop.left_mul_op
        quatlin.expand(quatlin.IDENTITY, quatlin.builtin_frame("AUTO"))
    finally:
        tracer.uninstall()
    assert quatlin.linop.left_mul_op is original and quatlin.frames.left_mul_op is original
    assert tracer.stats["frames.expand"][0] == 1
    assert tracer.stats["linop.left_mul_op"][0] == 4
    assert any(span[2] == "frames.reconstruct" for span in tracer.spans)


def _record(workload, value):
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in BENCH["end_to_end"]}
    return json.dumps({"workload": workload, "trace": 0, "metrics": metrics})


def test_compare_reports_a_regression(tmp_path, capsys):
    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    base.write_text("".join(_record("cli-docs", v) + "\n" for v in (100, 101, 99, 100)))
    new.write_text("".join(_record("cli-docs", v) + "\n" for v in (150, 151, 149, 150)))
    assert report.compare(base, new) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "lat_p50_ms" in out


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
