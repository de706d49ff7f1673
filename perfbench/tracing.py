"""Span tracing of quatlin from outside the package.

``Tracer.install`` replaces the public functions of each layer module
(``scalarq``, ``linop``, ``elim``, ``autos``, ``frames``, ``cli``) with
timing wrappers, in the defining module and in every module that bound the
same object with ``from .x import y``. Calls into ``elim``, ``autos``,
``frames`` and ``cli`` become spans, kept in memory with their parent span.
The hot arithmetic of ``scalarq`` and ``linop`` (quaternion and operator
methods, the multiplication matrices) is only aggregated, as a call count
and self time per callable, because keeping one span per quaternion
product would cost more than the product. A frame's self time is its
duration minus the durations of the wrapped calls made inside it.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
import types
from fractions import Fraction

LAYERS = ("scalarq", "linop", "elim", "autos", "frames", "cli")

# Aggregated, never recorded as spans.
HOT_METHODS = {
    "scalarq": ("Quaternion", ("__post_init__", "__mul__", "__rmul__", "__add__", "__sub__",
                               "__neg__", "scaled", "conjugate", "norm_sq", "inverse",
                               "to_strings", "__str__")),
    "linop": ("Operator4", ("__post_init__", "__matmul__", "apply", "__call__", "__add__",
                            "__sub__", "__neg__", "scaled", "flatten", "column", "unit_images",
                            "det", "to_strings")),
}
HOT_LAYERS = ("scalarq", "linop")

# Private cli helpers that mark the stages of one command.
CLI_STAGES = ("_build_parser", "_load_document", "_emit")

# elim results whose entries' bit lengths are recorded.
ELIM_RESULTS = ("det", "solve", "inverse", "kernel_vector")


def _bits(value):
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, (list, tuple)):
        return max((_bits(v) for v in value), default=0)
    return 0


class Tracer:
    def __init__(self):
        self.stats = {}  # key -> [calls, inclusive seconds, self seconds]
        self.spans = []  # (id, parent id, key, start, duration, self)
        self.max_dim = 0
        self.max_bits = 0
        self._stack = []  # child-time accumulator of each open wrapped call
        self._open = [0]  # ids of open spans; 0 is the root
        self._restore = []

    def _wrap(self, fn, key, hot, post=None):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack, open_spans, spans = self._stack, self._open, self.spans
        clock = time.perf_counter

        if hot:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stack.pop()
                    stats[0] += 1
                    stats[1] += dur
                    stats[2] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            span_id = len(spans) + len(open_spans)
            parent = open_spans[-1]
            open_spans.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                open_spans.pop()
                own = dur - frame[0]
                stats[0] += 1
                stats[1] += dur
                stats[2] += own
                spans.append((span_id, parent, key, start, dur, own))
                if stack:
                    stack[-1][0] += dur
            if post is not None:
                # The hook's own time is kept out of every layer's self time.
                t0 = clock()
                post(args, result)
                if stack:
                    stack[-1][0] += clock() - t0
            return result
        return wrapper

    def _elim_post(self, args, result):
        rows = args[0] if args else []
        if rows:
            self.max_dim = max(self.max_dim, len(rows), len(rows[0]))
        self.max_bits = max(self.max_bits, _bits(result))

    def install(self, package):
        """Wrap every layer of an imported quatlin package."""
        replaced = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = sys.modules.get(f"{package.__name__}.{layer}")
            if module is None:
                continue
            hot = layer in HOT_LAYERS
            for name, obj in list(vars(module).items()):
                if not (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if name.startswith("_") and not (layer == "cli" and name in CLI_STAGES):
                    continue
                post = self._elim_post if layer == "elim" and name in ELIM_RESULTS else None
                replaced[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}", hot, post))
            if layer in HOT_METHODS:
                cls_name, methods = HOT_METHODS[layer]
                cls = getattr(module, cls_name)
                for name in methods:
                    original = cls.__dict__[name]
                    if id(original) not in replaced:
                        key = f"{layer}.{cls_name}.{name}"
                        replaced[id(original)] = (original, self._wrap(original, key, True))
                    self._set(cls, name, replaced[id(original)][1])
        for module_name, module in list(sys.modules.items()):
            if module_name != package.__name__ and not module_name.startswith(package.__name__ + "."):
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    self._set(module, name, replaced[id(obj)][1])
        if f"{package.__name__}.cli" in sys.modules:
            parse = argparse.ArgumentParser.parse_args
            self._set(argparse.ArgumentParser, "parse_args", self._wrap(parse, "cli.argparse", False))

    def _set(self, owner, name, value):
        self._restore.append((owner, name, getattr(owner, name) if not isinstance(owner, type)
                              else owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def _outer_time(self, keys):
        """Inclusive seconds of spans in ``keys`` not nested in another such span."""
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for span in self.spans:
            if span[2] not in keys:
                continue
            parent = by_id.get(span[1])
            while parent is not None and parent[2] not in keys:
                parent = by_id.get(parent[1])
            if parent is None:
                total += span[4]
        return total

    def metrics(self, ops, cache_delta, import_ms):
        """Per-layer metrics, per operation unless the name says otherwise."""
        def calls(key):
            return self.stats.get(key, [0])[0] / ops

        def ms(*keys):
            return 1000.0 * self._outer_time(set(keys)) / ops

        self_ms = {layer: 0.0 for layer in LAYERS}
        for key, (_, _, own) in self.stats.items():
            self_ms[key.split(".", 1)[0]] += 1000.0 * own / ops
        by_id = {s[0]: s for s in self.spans}
        reverify = sum(
            s[4] for s in self.spans
            if s[2] in ("frames.reconstruct", "autos.conjugation_by")
            and by_id.get(s[1], (0, 0, ""))[2].startswith("cli.cmd_")
        )
        hits, misses = cache_delta
        cmd_keys = [k for k in self.stats if k.startswith("cli.cmd_")]
        values = {
            "scalarq.qmul_calls": calls("scalarq.Quaternion.__mul__"),
            "scalarq.quat_new_calls": calls("scalarq.Quaternion.__post_init__"),
            "scalarq.parse_calls": calls("scalarq.parse_rational"),
            "linop.compose_calls": calls("linop.Operator4.__matmul__"),
            "linop.apply_calls": calls("linop.Operator4.apply"),
            "linop.add_calls": calls("linop.Operator4.__add__"),
            "linop.op_new_calls": calls("linop.Operator4.__post_init__"),
            "elim.det_calls": calls("elim.det"),
            "elim.inverse_calls": calls("elim.inverse"),
            "elim.rank_calls": calls("elim.rank"),
            "elim.kernel_calls": calls("elim.kernel_vector"),
            "elim.det_ms": ms("elim.det"),
            "elim.inverse_ms": ms("elim.inverse"),
            "elim.rank_ms": ms("elim.rank"),
            "elim.kernel_ms": ms("elim.kernel_vector"),
            "elim.max_dim": self.max_dim,
            "elim.max_bits": self.max_bits,
            "frames.expand_calls": calls("frames.expand"),
            "frames.expand_ms": ms("frames.expand"),
            "frames.reconstruct_ms": ms("frames.reconstruct"),
            "frames.frame_matrix_ms": ms("frames.frame_matrix"),
            "frames.family_rank_ms": ms("frames.family_rank"),
            "frames.parse_ms": ms("frames.parse_frame_spec", "frames.parse_frame_terms"),
            "frames.inv_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "frames.inv_cache_misses": misses / ops,
            "autos.classify_calls": calls("autos.classify"),
            "autos.classify_ms": ms("autos.classify"),
            "autos.conditions_ms": ms("autos.check_coordinate_conditions"),
            "autos.recover_ms": ms("autos.recover_conjugator"),
            "autos.order_ms": ms("autos.operator_order"),
            "cli.import_ms": import_ms,
            "cli.argparse_ms": ms("cli._build_parser", "cli.argparse"),
            "cli.load_ms": ms("cli._load_document"),
            "cli.handler_ms": ms(*cmd_keys) if cmd_keys else 0.0,
            "cli.reverify_ms": 1000.0 * reverify / ops,
            "cli.emit_ms": ms("cli._emit"),
        }
        for layer in LAYERS:
            values[f"{layer}.self_ms"] = self_ms[layer]
        return values

    def span_records(self):
        for span_id, parent, key, start, dur, own in self.spans:
            yield {"id": span_id, "parent": parent, "name": key, "start": start,
                   "dur": dur, "self": own}
