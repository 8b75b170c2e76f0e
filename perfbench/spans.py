"""In-memory span tracing around the simulator's public functions.

Tracing replaces module attributes (``compiler.block_summaries``,
``timesim.simulate_system``, ...) with timing wrappers for the duration
of a ``with installed(tracer):`` block and restores them afterwards.
Callers inside the package look those attributes up at call time, so the
spans cover the real call chain without any change to the sources.

A span records its name, start, end, parent span and op id.  A layer's
self time is its span's duration minus the time of the spans and timed
leaves nested inside it.  Functions called hundreds of thousands of
times per run (``timesim.channel_busy_ns``) are timed leaves: their
calls and seconds are summed instead of stored one by one, and their
time is still subtracted from the enclosing span.
"""

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from cxlpim import (cli, compiler, config, energycost, funcsim, isa, mapper,
                    timesim)

# span record fields
NAME, START, END, PARENT, OP, CHILD_S = range(6)


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent, op, child_s]
        self.leaves = {}      # name -> [calls, seconds]
        self.counts = Counter()
        self.op = 0
        self._stack = []

    def span(self, name, count=None, new_op=False):
        """Decorator: record one span per call.  `count` is an optional
        (counter name, fn(args, result) -> int) pair; `new_op` starts a
        new op id at each call."""
        def wrap(fn):
            def traced(*args, **kwargs):
                if new_op:
                    self.op += 1
                parent = self._stack[-1] if self._stack else -1
                rec = [name, perf_counter(), 0.0, parent, self.op, 0.0]
                self._stack.append(len(self.spans))
                self.spans.append(rec)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[END] = perf_counter()
                    self._stack.pop()
                    if parent >= 0:
                        self.spans[parent][CHILD_S] += rec[END] - rec[START]
                if count:
                    self.counts[count[0]] += count[1](args, result)
                return result
            return traced
        return wrap

    def leaf(self, name, timed=True):
        """Decorator: sum calls (and, if `timed`, seconds) of a hot
        function without storing a span per call.  A timed leaf's time
        is charged to the enclosing span, so a function that calls a
        timed leaf may only be counted."""
        stat = self.leaves.setdefault(name, [0, 0.0])

        def wrap(fn):
            if not timed:
                def counted(*args, **kwargs):
                    stat[0] += 1
                    return fn(*args, **kwargs)
                return counted

            def timed_leaf(*args, **kwargs):
                t = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = perf_counter() - t
                    stat[0] += 1
                    stat[1] += d
                    if self._stack:
                        self.spans[self._stack[-1]][CHILD_S] += d
            return timed_leaf
        return wrap

    def self_times(self) -> Counter:
        out = Counter()
        for rec in self.spans:
            out[rec[NAME]] += rec[END] - rec[START] - rec[CHILD_S]
        for name, (_, seconds) in self.leaves.items():
            out[name] += seconds
        return out

    def calls(self) -> Counter:
        out = Counter(rec[NAME] for rec in self.spans)
        for name, (n, _) in self.leaves.items():
            out[name] += n
        return out

    def to_json(self) -> dict:
        t0 = self.spans[0][START] if self.spans else 0.0
        return {
            "spans": [{"name": r[NAME], "start": r[START] - t0,
                       "end": r[END] - t0, "parent": r[PARENT], "op": r[OP],
                       "self": r[END] - r[START] - r[CHILD_S]}
                      for r in self.spans],
            "leaves": {k: {"calls": n, "seconds": s}
                       for k, (n, s) in sorted(self.leaves.items())},
            "counts": dict(sorted(self.counts.items())),
        }


def _lowered(args, classes) -> int:
    return sum(s.total_instructions for c in classes
               for s in c.device_summaries.values())


def _listed(traces) -> int:
    return sum(len(t.instructions) for t in traces)


def _targets(tr: Tracer) -> list:
    """(module, attribute, decorator) for every traced function."""
    plan = tr.span("mapper.plan")
    price = tr.span("energycost.price")
    prepare = tr.span("funcsim.prepare_image")
    return [
        (config, "load_config", tr.span("config.load")),
        (cli, "load_config", tr.span("config.load")),
        (mapper, "plan_pipeline", plan),
        (mapper, "plan_tensor", plan),
        (mapper, "plan_hybrid", plan),
        (mapper, "plan_scaled", plan),
        (compiler, "build_layout", tr.span("compiler.build_layout")),
        (compiler, "block_summaries",
         tr.span("compiler.block_summaries",
                 count=("compiler.lowered_instructions", _lowered))),
        (compiler, "compile_token",
         tr.span("compiler.compile_token",
                 count=("compiler.trace_instructions",
                        lambda args, traces: _listed(traces)))),
        (isa, "validate_trace", tr.span("isa.validate_trace")),
        (funcsim, "prepare_image", prepare),
        (funcsim, "load_kv_history", prepare),
        (funcsim, "run_trace",
         tr.span("funcsim.run_trace",
                 count=("funcsim.executed_instructions",
                        lambda args, image: _listed(args[0])))),
        (funcsim, "reference_block", tr.span("funcsim.reference")),
        (timesim, "simulate_system", tr.span("timesim.simulate_system")),
        (timesim, "channel_busy_ns", tr.leaf("timesim.channel_busy_ns")),
        (timesim, "device_times", tr.leaf("timesim.device_times",
                                          timed=False)),
        (timesim, "cxl_transfer_time", tr.leaf("timesim.cxl_transfer_time",
                                               timed=False)),
        (energycost, "energy_from_activity", price),
        (energycost, "tco_report", price),
        (cli, "run_config", tr.span("cli.run_config", new_op=True)),
    ]


@contextmanager
def installed(tr: Tracer):
    """Route the traced functions through `tr` inside the block."""
    saved = []
    try:
        for module, attr, decorate in _targets(tr):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, decorate(original))
        yield tr
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer figures of one traced pass (host seconds, call and
    instruction counts)."""
    self_s = tr.self_times()
    calls = tr.calls()
    return {
        "compiler.block_summaries_s": self_s["compiler.block_summaries"],
        "compiler.block_summaries_calls": calls["compiler.block_summaries"],
        "compiler.lowered_instructions":
            tr.counts["compiler.lowered_instructions"],
        "compiler.lowered_instr_per_s":
            _ratio(tr.counts["compiler.lowered_instructions"],
                   self_s["compiler.block_summaries"]),
        "config.load_s": self_s["config.load"],
        "mapper.plan_s": self_s["mapper.plan"],
        "compiler.build_layout_s": self_s["compiler.build_layout"],
        "compiler.build_layout_calls": calls["compiler.build_layout"],
        "energycost.price_s": self_s["energycost.price"],
        "cli.run_config_self_s": self_s["cli.run_config"],
        "timesim.simulate_system_self_s": self_s["timesim.simulate_system"],
        "timesim.channel_busy_ns_s": self_s["timesim.channel_busy_ns"],
        "timesim.channel_busy_ns_calls": calls["timesim.channel_busy_ns"],
        "timesim.device_times_calls": calls["timesim.device_times"],
        "timesim.cxl_transfer_time_calls": calls["timesim.cxl_transfer_time"],
        "compiler.compile_token_s": self_s["compiler.compile_token"],
        "compiler.trace_instructions":
            tr.counts["compiler.trace_instructions"],
        "isa.validate_trace_s": self_s["isa.validate_trace"],
        "funcsim.prepare_image_s": self_s["funcsim.prepare_image"],
        "funcsim.run_trace_s": self_s["funcsim.run_trace"],
        "funcsim.executed_instr_per_s":
            _ratio(tr.counts["funcsim.executed_instructions"],
                   self_s["funcsim.run_trace"]),
        "funcsim.reference_s": self_s["funcsim.reference"],
    }
