"""Span recorder for the traced benchmark run.

The recorder wraps distest's public functions by monkeypatching them under
the name their caller resolves, in the traced process only and only while a
traced pass runs. Each span holds a name, start, end, parent span id and the
id of the workload pass it belongs to. Spans stay in memory until the run
ends. A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import types
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

ROOTS = ("cli.run_simulate", "cli.run_verify")
SUITES = ("dpi3", "dpi5", "dpi7", "chain", "tensor", "pinsker", "fano")
INFOTHEORY_CHECKS = ("check_dpi_independent", "check_dpi_truncated",
                     "check_tensorization", "check_information_chaining",
                     "check_pinsker_consequence")
CODEC_FUNCTIONS = ("quantize", "dequantize", "pack_fields",
                   "encode_improvement_message", "transcript_total_bits")
PROTOCOL_FUNCTIONS = ("estimate_risk", "onebit_bounded_mean",
                      "uniform_interactive_min", "probit_local_average",
                      "probit_mle")

# Every layer span; each reports <name>.calls and <name>.self_s.
LAYER_SPANS = (
    tuple(f"protocols.{f}" for f in PROTOCOL_FUNCTIONS)
    + ("families.draw_trials", "families.design_eigenbounds",
       "designs.build_designs", "bounds")
    + tuple(f"codec.{f}" for f in CODEC_FUNCTIONS)
    + tuple(f"infotheory.{f}" for f in INFOTHEORY_CHECKS)
    + tuple(f"sweeps.run_suite.{s}" for s in SUITES)
    + ("sweeps.exact_min_hamming_test_error",)
)

# Counts taken at the same boundaries.
COUNTERS = (
    ("protocols.log_ndtr.calls", "count"),
    ("families.values_drawn", "count"),
    ("codec.messages_materialized", "count"),
    ("codec.bits_total", "bit"),
)


def per_layer_metrics():
    """(name, unit) of every metric a traced run reports."""
    out = [(f"{root}.s", "s") for root in ROOTS]
    out += [("trace.overhead_s", "s"), ("trace.coverage", "ratio")]
    for span in LAYER_SPANS:
        out += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    out += list(COUNTERS)
    out.append(("protocols.flagged_ratio", "ratio"))
    return out


class SpanRecorder:
    """Spans and counters of one traced run, kept in flat in-memory arrays."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = []          # one Counter per pass
        self._stack = []

    def begin_pass(self):
        self.counters.append(Counter())

    def count(self, name, k=1):
        self.counters[-1][name] += k

    def span(self, name, fn, after=None):
        """fn wrapped to record one span per call; after(args, result) runs
        once the span has closed."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.pass_id.append(len(self.counters) - 1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if after is not None:
                after(args, result)
            return result
        return traced

    def counted(self, name, fn):
        """fn wrapped to count calls without recording spans."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[-1][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def arrays(self):
        return {"name": np.frombuffer(self.name, dtype=np.intc),
                "parent": np.frombuffer(self.parent, dtype=np.intc),
                "pass_id": np.frombuffer(self.pass_id, dtype=np.intc),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end)}

    def save(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def per_pass(self):
        """For each pass, {span name: (calls, self seconds, total seconds)}."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        self_t = dur - np.bincount(a["parent"][child], weights=dur[child],
                                   minlength=len(dur))
        k = len(self.names)
        out = []
        for p in range(len(self.counters)):
            mask = a["pass_id"] == p
            ids = a["name"][mask]
            calls = np.bincount(ids, minlength=k)
            selfs = np.bincount(ids, weights=self_t[mask], minlength=k)
            totals = np.bincount(ids, weights=dur[mask], minlength=k)
            out.append({self.names[i]: (int(calls[i]), float(selfs[i]), float(totals[i]))
                        for i in range(k)})
        return out


UNSEEN = (0, 0.0, 0.0)   # (calls, self s, total s) of a span that never ran


def summarize(rec: SpanRecorder, traced_walls, untraced_walls):
    """Per-layer metric values: medians over the traced passes."""
    passes = rec.per_pass()

    def med(fn):
        return float(median(fn(p, c) for p, c in zip(passes, rec.counters)))

    values = {}
    for root in ROOTS:
        values[f"{root}.s"] = med(lambda p, c: p.get(root, UNSEEN)[2])
    values["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)

    def coverage(p, c):
        total = sum(p.get(r, UNSEEN)[2] for r in ROOTS)
        glue = sum(p.get(r, UNSEEN)[1] for r in ROOTS)
        return 1.0 - glue / total if total else 0.0
    values["trace.coverage"] = med(coverage)
    for span in LAYER_SPANS:
        values[f"{span}.calls"] = med(lambda p, c: p.get(span, UNSEEN)[0])
        values[f"{span}.self_s"] = med(lambda p, c: p.get(span, UNSEEN)[1])
    for name, _ in COUNTERS:
        values[name] = med(lambda p, c: c[name])
    values["protocols.flagged_ratio"] = med(
        lambda p, c: c["flagged"] / c["trials"] if c["trials"] else 0.0)
    return values


@contextmanager
def installed(rec: SpanRecorder):
    """Patch distest's layer functions with recording wrappers, then restore."""
    from distest import bounds, cli, codec, infotheory, protocols, sweeps

    def after_risk(args, report):
        rec.count("flagged", report.flagged_trials)
        rec.count("trials", report.trials)

    def after_draw(args, blocks):
        rec.count("families.values_drawn", int(blocks.size))

    def after_total_bits(args, bits):
        rec.count("codec.messages_materialized", len(args[0].messages))
        rec.count("codec.bits_total", int(bits))

    after = {"estimate_risk": after_risk, "transcript_total_bits": after_total_bits}
    patches = [(protocols, f, rec.span(f"protocols.{f}", getattr(protocols, f),
                                       after.get(f)))
               for f in PROTOCOL_FUNCTIONS]
    patches.append((protocols, "draw_trials",
                    rec.span("families.draw_trials", protocols.draw_trials, after_draw)))
    patches.append((protocols, "log_ndtr",
                    rec.counted("protocols.log_ndtr.calls", protocols.log_ndtr)))
    # protocols imports these by name; codec's own encode_improvement_message
    # resolves pack_fields in codec, so both namespaces get the same wrapper.
    for f in CODEC_FUNCTIONS:
        wrapped = rec.span(f"codec.{f}", getattr(codec, f), after.get(f))
        patches += [(protocols, f, wrapped), (codec, f, wrapped)]
    patches.append((cli, "design_eigenbounds",
                    rec.span("families.design_eigenbounds", cli.design_eigenbounds)))
    patches.append((cli, "build_designs",
                    rec.span("designs.build_designs", cli.build_designs)))
    # The CLI reaches every rate function through its `bnd` module alias;
    # a proxy wraps only those calls, not the calls bounds makes internally.
    proxy = types.SimpleNamespace(**vars(bounds))
    for fname, fn in vars(bounds).items():
        if (inspect.isfunction(fn) and fn.__module__ == bounds.__name__
                and not fname.startswith("_")):
            setattr(proxy, fname, rec.span("bounds", fn))
    patches.append((cli, "bnd", proxy))
    for f in INFOTHEORY_CHECKS:
        patches.append((infotheory, f, rec.span(f"infotheory.{f}", getattr(infotheory, f))))
    patches.append((sweeps, "exact_min_hamming_test_error",
                    rec.span("sweeps.exact_min_hamming_test_error",
                             sweeps.exact_min_hamming_test_error)))
    run_suite = cli.run_suite
    suite_spans = {s: rec.span(f"sweeps.run_suite.{s}", run_suite) for s in SUITES}

    def traced_run_suite(name, count, seed):
        return suite_spans.get(name, run_suite)(name, count, seed)
    patches.append((cli, "run_suite", traced_run_suite))

    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
