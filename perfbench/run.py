"""Run one quatlin benchmark workload and print its metrics.

    python3 perfbench/run.py --workload expand-stream --seed 1 --seconds 10 --trace 0

Run from the repository root (any directory holding ``src/quatlin``,
``tests/golden`` and ``BENCHMARK.json`` works). The run

1. times ``setup_s``: fresh interpreters that import the package and make
   the first call per builtin frame (median of SETUP_RUNS);
2. starts one worker process (worker.py) that runs the workload's closed
   loop for ``--seconds``, writing each latency and answer to a file, and
   reports its peak RSS;
3. times ``cli_cold_p50_ms``: sequential ``python -m quatlin`` processes
   over a fixed set of the workload's commands (COLD_RUNS of them). It and
   ``lat_p99_ms`` are recorded, not bounded: their run-to-run spread on a
   shared 2-CPU guest reached 0.26 and 0.28 of the median;
   every time is scaled to a reference machine speed (calib.py);
4. checks every answer against the stdlib oracle, outside all timing.

With ``--trace 1`` the worker wraps each layer (tracing.py) and the run
reports the per-layer metrics instead; set-up and cold CLI timing are
skipped. Metric names and units come from BENCHMARK.json. The last line
of stdout is the result object; the line before it is the full record
(versions, commit, sample counts, failures), which ``--out`` also appends
to a JSON-lines file for report.py.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7
COLD_RUNS = 12
PROBES = 7  # speed probes per set-up sample
WINDOW = 5  # probes whose median scales one operation to reference speed
P99_SEGMENT = 1000  # operations per p99 segment: leaves at least 10 above it
CHILD_TIMEOUT = 60

# argv: the perfbench directory, then the modules to import.
SETUP_CODE = """\
import importlib, sys, time
start = time.perf_counter()
for name in sys.argv[2:]:
    importlib.import_module(name)
ql = sys.modules["quatlin"]
for name in ql.BUILTIN_FRAME_NAMES:
    try:
        ql.expand(ql.IDENTITY, ql.builtin_frame(name))
    except ql.SingularFrameError:
        pass
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[1])
import calib
print(elapsed, calib.speed_factor([calib.probe() for _ in range(%d)]))
""" % PROBES


class BenchError(Exception):
    """The benchmark cannot measure in this directory."""


def child_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env.update(extra)
    return env


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(wl):
    """Set-up seconds of fresh interpreters, with each one's speed factor."""
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(HERE), *wl.imports],
                              env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        elapsed, factor = map(float, proc.stdout.split())
        samples.append((elapsed, factor))
    return samples


def run_worker(args, tmp):
    config = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tmp": str(tmp), "spans": args.spans}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(config)],
                          env=child_env(), capture_output=True, text=True,
                          timeout=args.seconds + 120, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure_cold(wl, seed, tmp):
    """(wall seconds, speed factor) of sequential ``python -m quatlin`` runs, and failures.

    The speed factor of each run is that of a bare interpreter started
    just before it (see calib.py).
    """
    docs, argvs = wl.cold(seed)
    workloads.write_files(tmp, docs)
    ctx = {"tmp": str(tmp), "fx": str(workloads.FIXTURES_DIR)}
    times, errors = [], []
    for n in range(COLD_RUNS):
        argv = [part.format(**ctx) for part in argvs[n % len(argvs)]]
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], timeout=CHILD_TIMEOUT, check=True)
        factor = (time.perf_counter() - start) / calib.STARTUP_REFERENCE_S
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "quatlin", *argv],
                              env=child_env(QUATLIN_OUTPUT="json"), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT, cwd=ROOT)
        times.append((time.perf_counter() - start, factor))
        try:
            ok = proc.returncode == 0 and json.loads(proc.stdout)["command"] == argv[0]
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            errors.append(f"cold {' '.join(argv[:2])}: exit {proc.returncode}")
    return times, errors


def verify(wl, seed, ops):
    """Oracle check of every answer; returns failure messages (one per failed op)."""
    ctx = {"pool": workloads.CliDocs.pool(seed)} if wl is workloads.CliDocs else None
    items = wl.items(seed)
    failures = []
    for n, out in enumerate(ops):
        item = next(items)
        err = out["error"] if "error" in out else wl.verify(item, out, ctx)
        if err:
            failures.append(f"op {n}: {err}")
    return failures


def window_factors(ops):
    """Each operation's speed factor, from the probes of the WINDOW operations around it."""
    cals = [o["cal"] for o in ops]
    half = WINDOW // 2
    return [calib.speed_factor(cals[max(0, n - half):n + half + 1]) for n in range(len(ops))]


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def segments(lats):
    """Consecutive runs of at least P99_SEGMENT latencies, in operation order."""
    k = max(1, len(lats) // P99_SEGMENT)
    return [lats[j * len(lats) // k:(j + 1) * len(lats) // k] for j in range(k)]


def e2e_values(ok_ops, lats, setup, cold, rss):
    """End-to-end metrics, plus the unbounded ``lat_p99_ms`` and ``cli_cold_p50_ms``.

    ``lats`` are in operation order. p99 is the median of the p99s of
    consecutive segments of at least P99_SEGMENT operations each, so that
    one burst of machine noise moves one segment, not the whole figure.
    """
    p99s = [percentile(sorted(seg), 0.99)[0] for seg in segments(lats)]
    return {
        "setup_s": statistics.median(setup),
        "throughput_ops_s": ok_ops / sum(lats),
        "lat_p50_ms": 1000.0 * statistics.median(lats),
        "lat_p99_ms": 1000.0 * statistics.median(p99s),
        "peak_rss_mb": rss,
        "cli_cold_p50_ms": 1000.0 * statistics.median(cold),
    }


def measure(args, bench, tmp):
    wl = workloads.WORKLOADS[args.workload]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "machine": platform.machine(),
        "nproc": os.cpu_count(), "commit": git_commit(ROOT),
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }
    clock = time.perf_counter
    phases = [clock()]
    setup = [] if args.trace else measure_setup(wl)
    phases.append(clock())
    report = run_worker(args, tmp)
    phases.append(clock())
    cold, cold_errors = ([], []) if args.trace else measure_cold(wl, args.seed, tmp)
    phases.append(clock())
    with open(tmp / "ops.jsonl", encoding="utf-8") as fh:
        ops = [json.loads(line) for line in fh]
    failures = verify(wl, args.seed, ops) + cold_errors
    phases.append(clock())
    record["phase_s"] = dict(zip(("setup", "worker", "cold_cli", "verify"),
                                 (b - a for a, b in zip(phases, phases[1:]))))
    attempted = len(ops) + len(cold)
    record.update(attempted=attempted, failed=len(failures),
                  fail_ratio=len(failures) / max(attempted, 1), failures=failures[:10],
                  worker_import_ms=report["import_ms"])
    if "hostile_probe" in report:
        record["hostile_probe"] = report["hostile_probe"]
    if args.trace:
        record["trace_overhead"] = report["trace_overhead"]
        record["speed_factor"] = speed = report["traced_speed_factor"]
        record["samples"] = {"traced_ops": report["traced_ops"]}
        values = {name: value / speed if name.endswith("_ms") else value
                  for name, value in report["per_layer"].items()}
        wanted = bench["per_layer"]
    else:
        timed = [(o["lat"], f) for o, f in zip(ops, window_factors(ops)) if "lat" in o]
        if not timed:
            raise BenchError("the worker completed no operation")
        ok_ops = len(ops) - (len(failures) - len(cold_errors))
        raw = e2e_values(ok_ops, [lat for lat, _ in timed], [t for t, _ in setup],
                         [t for t, _ in cold], report["peak_rss_mb"])
        values = e2e_values(ok_ops, [lat / f for lat, f in timed], [t / f for t, f in setup],
                            [t / f for t, f in cold], report["peak_rss_mb"])
        parts = segments([lat for lat, _ in timed])
        record["raw_metrics"] = raw
        record["lat_p99_ms"] = values["lat_p99_ms"]
        record["cli_cold_p50_ms"] = values["cli_cold_p50_ms"]
        record["speed_factor"] = statistics.median(f for _, f in timed)
        record["samples"] = {"setup_s": len(setup), "throughput_ops_s": len(timed),
                             "lat_p50_ms": len(timed), "lat_p99_ms": len(timed),
                             "lat_p99_segments": len(parts),
                             "lat_p99_tail": min(percentile(seg, 0.99)[1] for seg in parts),
                             "peak_rss_mb": 1,
                             "cli_cold_p50_ms": len(cold)}
        wanted = bench["end_to_end"]
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run record to this JSON-lines file")
    parser.add_argument("--spans", help="with --trace 1: write every span to this JSON-lines file")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.spans:
        args.spans = str(Path(args.spans).resolve())
    try:
        if not (ROOT / "src" / "quatlin" / "__init__.py").is_file():
            raise BenchError(f"no quatlin sources under {ROOT / 'src'}")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
        tmp.mkdir(parents=True, exist_ok=True)
        try:
            record = measure(args, bench, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            with contextlib.suppress(OSError):
                tmp.parent.rmdir()  # only when no other run is using it
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
