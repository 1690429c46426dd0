"""Spans around the benchmark's calls into each layer's public functions.

A traced run hands the workload ops an API whose functions are wrapped: each
call records one span (layer, start, end, op index, bits coded, extras) in
memory, and the per-layer metrics are computed from the spans once the run
ends.  Calls made inside the library are not traced; only the calls the
benchmark itself makes are.
"""

from __future__ import annotations

import contextlib
import io
import resource
import statistics
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

# public function -> (layer, where the coded bits are read: "in" for the
# first argument, "out" for the result, None when nothing is coded)
LAYERS = {
    "arrow": ("ramsey.search", None),
    "ph_arrow": ("ramsey.search", None),
    "find_counterexample": ("ramsey.search", None),
    "min_witness": ("ramsey.search", None),
    "eval_def": ("recfun.eval_def", None),
    "parse": ("formula.parse", None),
    "eval_nat": ("formula.eval_nat", None),
    "decode_formula": ("godel.decode", "in"),
    "decode_seq": ("godel.decode", "in"),
    "decode_set": ("godel.decode", "in"),
    "seq_at": ("godel.decode", "in"),
    "seq_long": ("godel.decode", "in"),
    "encode_formula": ("godel.encode", "out"),
    "encode_seq": ("godel.encode", "out"),
    "encode_set": ("godel.encode", "out"),
    "encode_term": ("godel.encode", "out"),
    "pair": ("godel.pairing", None),
    "unpair": ("godel.pairing", None),
    "seq_concat": ("godel.seq_concat", None),
    "encode_partition": ("ramsey.codec", "out"),
    "decode_partition": ("ramsey.codec", "in"),
    "fast_growing": ("ramsey.fast_growing", None),
}


def child_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


@dataclass
class Span:
    layer: str
    start: float
    end: float
    op: int
    bits: int = 0
    parallel: bool = False
    child_cpu: float = 0.0
    exhausted: bool = False
    dur: float = 0.0

    def scale(self, k):
        """Set the duration at the reference speed (see speed.py)."""
        self.dur = (self.end - self.start) * k
        self.child_cpu *= k


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    op: int = -1   # index of the op in progress

    def wrap(self, name, fn, budget_exhausted=None):
        layer, bits_at = LAYERS[name]
        search = layer == "ramsey.search"

        def traced(*args, **kwargs):
            parallel = search and (kwargs.get("jobs") or 1) > 1
            c0 = child_cpu() if parallel else 0.0
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                span = Span(layer, t0, t1, self.op, parallel=parallel)
                if parallel:
                    span.child_cpu = child_cpu() - c0
                if bits_at == "in":
                    span.bits = args[0].bit_length()
                elif bits_at == "out" and result is not None:
                    span.bits = result.bit_length()
                if budget_exhausted is not None:
                    span.exhausted = isinstance(result, budget_exhausted)
                self.spans.append(span)

        return traced

    def cli_main(self, main):
        def traced(argv):
            out = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            self.spans.append(Span("cli.main", t0, time.perf_counter(), self.op))
            return code, out.getvalue()
        return traced


def make_api(pf, tracer=None):
    """The library functions the ops call, wrapped when tracing."""
    fns = {name: getattr(pf, name) for name in LAYERS}
    if tracer is not None:
        fns = {name: tracer.wrap(name, fn, pf.BudgetExhausted if name == "eval_def" else None)
               for name, fn in fns.items()}
    return SimpleNamespace(**fns)


def _busy(spans, layer):
    return sum(s.dur for s in spans if s.layer == layer)


def _p50_ms(spans, layer):
    lat = [s.dur for s in spans if s.layer == layer]
    return 1000 * statistics.median(lat) if lat else 0.0


def _bits_per_s(spans, layer):
    busy = _busy(spans, layer)
    return sum(s.bits for s in spans if s.layer == layer) / busy if busy else 0.0


def round_metrics(spans, op_latencies, first_hit_ops):
    """Per-layer figures of one traced round, from spans scaled to the
    reference speed.  op_latencies are the round's scaled op times;
    first_hit_ops holds the indices of the first-hit instances that the
    round runs both serially and in parallel."""
    search = [s for s in spans if s.layer == "ramsey.search"]
    first_hit = [s for s in search if s.op in first_hit_ops]
    eval_defs = [s for s in spans if s.layer == "recfun.eval_def"]
    layer_time = {}
    for s in spans:
        layer_time[s.op] = layer_time.get(s.op, 0.0) + s.dur
    return {
        "ramsey.search.calls": len(search),
        "ramsey.search.serial_busy_s": sum(s.dur for s in search if not s.parallel),
        "ramsey.search.parallel_busy_s": sum(s.dur for s in search if s.parallel),
        "ramsey.search.child_cpu_s": sum(s.child_cpu for s in search),
        "ramsey.search.first_hit_serial_s": sum(s.dur for s in first_hit if not s.parallel),
        "ramsey.search.first_hit_parallel_s": sum(s.dur for s in first_hit if s.parallel),
        "recfun.eval_def.calls": len(eval_defs),
        "recfun.eval_def.busy_s": _busy(spans, "recfun.eval_def"),
        "recfun.budget_exhausted": sum(s.exhausted for s in eval_defs),
        "formula.parse.busy_s": _busy(spans, "formula.parse"),
        "formula.eval_nat.calls": sum(s.layer == "formula.eval_nat" for s in spans),
        "formula.eval_nat.busy_s": _busy(spans, "formula.eval_nat"),
        "godel.decode.busy_s": _busy(spans, "godel.decode"),
        "godel.seq_concat.busy_s": _busy(spans, "godel.seq_concat"),
        "godel.encode.busy_s": _busy(spans, "godel.encode"),
        "godel.pairing.busy_s": _busy(spans, "godel.pairing"),
        "ramsey.codec.busy_s": _busy(spans, "ramsey.codec"),
        "ramsey.fast_growing.busy_s": _busy(spans, "ramsey.fast_growing"),
        "cli.main.busy_s": _busy(spans, "cli.main"),
        "trace.unattributed_s": sum(lat - layer_time.get(op, 0.0)
                                    for op, lat in enumerate(op_latencies)),
    }


def pooled_metrics(spans):
    """Figures taken over the spans of every traced round together."""
    return {
        "recfun.eval_def.p50_ms": _p50_ms(spans, "recfun.eval_def"),
        "formula.eval_nat.p50_ms": _p50_ms(spans, "formula.eval_nat"),
        "godel.decode.bits_per_s": _bits_per_s(spans, "godel.decode"),
        "godel.encode.bits_per_s": _bits_per_s(spans, "godel.encode"),
        "ramsey.codec.bits_per_s": _bits_per_s(spans, "ramsey.codec"),
    }
