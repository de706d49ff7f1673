"""The workload process: import quatlin, run one closed loop, report.

Run by run.py as ``python perfbench/worker.py '<config json>'`` with the
package's ``src`` directory on PYTHONPATH. One client, no threads: each
operation starts when the previous one has returned. The process prints
one JSON line per operation (latency, serialized answer or failure) to
``ops.jsonl`` in its temp directory as it goes, so answers never pile up
in its memory, and one JSON document on stdout when the loop ends: peak
RSS, import time and, in a traced run, per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time

import calib
import workloads


def _cache_counts(ql):
    # The frame-inverse cache is private to frames; report zeros if it moves.
    info = getattr(getattr(ql.frames, "_frame_inverse", None), "cache_info", None)
    if info is None:
        return 0, 0
    stats = info()
    return stats.hits, stats.misses


def _loop(ql, wl, items, ctx, seconds, sink, epoch):
    """Run operations until ``seconds`` have passed.

    Writes one line per operation to ``sink``, with its start ``t``
    (seconds since ``epoch``) and a speed probe ``cal`` taken right after
    it, both outside the timed region. Returns (operations, busy seconds,
    probe times).
    """
    clock = time.perf_counter
    deadline = clock() + seconds
    busy = 0.0
    count = 0
    cals = []
    while clock() < deadline:
        args = wl.prepare(ql, next(items), ctx)
        start = clock()
        try:
            result = wl.run(ql, args)
        except Exception as exc:  # a failed operation is counted, not fatal
            busy += clock() - start
            out = {"error": f"{type(exc).__name__}: {exc}"[:300]}
        else:
            lat = clock() - start
            busy += lat
            out = wl.dump(result)
            out["lat"] = lat
        out["t"] = start - epoch
        out["cal"] = calib.probe()
        cals.append(out["cal"])
        sink.write(json.dumps(out) + "\n")
        count += 1
    return count, busy, cals


def main(config):
    wl = workloads.WORKLOADS[config["workload"]]
    start = time.perf_counter()
    for name in wl.imports:
        importlib.import_module(name)
    import_ms = 1000.0 * (time.perf_counter() - start)
    ql = sys.modules["quatlin"]
    # Fill the builtin frames' inverse cache before timing, as setup_s does.
    for name in ql.BUILTIN_FRAME_NAMES:
        try:
            ql.expand(ql.IDENTITY, ql.builtin_frame(name))
        except ql.SingularFrameError:
            pass
    ctx = wl.setup(ql, config["tmp"], config["seed"])
    items = wl.items(config["seed"])
    report = {}
    with open(os.path.join(config["tmp"], "ops.jsonl"), "w", encoding="utf-8") as sink:
        epoch = time.perf_counter()
        if config["trace"]:
            import tracing

            # An untraced third of the run, then a traced rest on the next
            # items of the same stream; the ratio of busy time per operation,
            # each at reference speed, is the overhead.
            plain = _loop(ql, wl, items, ctx, config["seconds"] / 3, sink, epoch)
            tracer = tracing.Tracer()
            hits0, misses0 = _cache_counts(ql)
            tracer.install(ql)
            try:
                traced = _loop(ql, wl, items, ctx, config["seconds"] * 2 / 3, sink, epoch)
            finally:
                tracer.uninstall()
            hits1, misses1 = _cache_counts(ql)
            report["per_layer"] = tracer.metrics(
                traced[0], (hits1 - hits0, misses1 - misses0),
                import_ms if "quatlin.cli" in wl.imports else 0.0)
            plain_speed, traced_speed = calib.speed_factor(plain[2]), calib.speed_factor(traced[2])
            report["trace_overhead"] = ((traced[1] / traced_speed / traced[0])
                                        / (plain[1] / plain_speed / plain[0]))
            report["traced_speed_factor"] = traced_speed
            report["traced_ops"] = traced[0]
            if config.get("spans"):
                with open(config["spans"], "w", encoding="utf-8") as fh:
                    for span in tracer.span_records():
                        fh.write(json.dumps(span) + "\n")
        else:
            _loop(ql, wl, items, ctx, config["seconds"], sink, epoch)
    report["import_ms"] = import_ms
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if wl is workloads.CliDocs:
        report["hostile_probe"] = workloads.probe_hostile(ql.cli, ctx)
    return report


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    sys.stdout = sys.__stdout__
    sys.stdout.write(json.dumps(result) + "\n")
