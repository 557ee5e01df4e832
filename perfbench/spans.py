"""Spans around the calls into each macdkit module, recorded from outside.

The traced run replaces public names in the macdkit modules with wrappers
that record a span (name, layer, start, end, parent, operation id) and then
call the original.  Names are replaced in every namespace that calls them,
so an operator called inside an identity check gets a span nested under
that check's span.  Nothing under ``src/`` changes; the spans stay in
memory and are written out once the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from common import median

_now = time.perf_counter_ns

# Layer = the macdkit module a function lives in.  These are the names each
# module's callers resolve at call time, per namespace that holds them.
TARGETS = {
    "cli": ["main", "ingest_csv", "write_series_csv", "macd", "right_avg", "box_kernel",
            "macd_kernel", "triangular_kernel", "expansion_kernel", "transfer_function",
            "bandpass_check"],
    "identities": ["centered_avg", "delay", "double_right_avg", "macd", "right_avg",
                   "windowed_derivative", "aligned_values", "sample_offset",
                   "check_recursive_decomposition", "check_difference_identity",
                   "check_macd_derivative", "check_phase_corrected_form",
                   "check_recursive_expansion", "check_lp_bound", "check_window_monotonicity",
                   "classify_trend", "expansion_rhs", "smoothed_derivative"],
    "operators": ["sliding_sums", "right_avg", "centered_avg", "double_right_avg", "macd",
                  "delay", "windowed_derivative"],
    "signals": ["aligned_values", "sample_offset"],
    "kernels": ["build_kernel", "apply_kernel", "box_kernel", "macd_kernel",
                "triangular_kernel", "smoothed_derivative_kernel", "expansion_kernel"],
    "spectral": ["transfer_function", "bandpass_check"],
}

# What a span records besides its name: the window of a sliding sum, the
# kernel an apply ran, the grid of a transfer function, the CLI command.
TAGS = {
    "operators.sliding_sums": lambda a, kw: a[1],
    "kernels.apply_kernel": lambda a, kw: a[0].scale_note,
    "spectral.transfer_function": lambda a, kw: a[1] if len(a) > 1 else kw.get("grid_size", 4096),
    "cli.main": lambda a, kw: a[0][0],
}

LAYERS = ("cli", "signals", "operators", "identities", "kernels", "spectral", "streaming")


class Tracer:
    enabled = True

    def __init__(self):
        # [op_id, span_id, parent_id, name, layer, tag, start_ns, end_ns]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._patched: list[tuple] = []
        self.span_cost_s = 0.0

    def _open(self, name, layer, tag):
        rec = [self._op_id, len(self.spans), self._stack[-1] if self._stack else None,
               name, layer, tag, _now(), 0]
        self.spans.append(rec)
        self._stack.append(rec[1])
        return rec

    def _close(self, rec):
        rec[7] = _now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str, tag=None):
        rec = self._open(name, layer, tag)
        try:
            yield rec
        finally:
            self._close(rec)

    @contextmanager
    def op(self, op_id: int, name: str, group: str):
        self._op_id = op_id
        with self.span(f"op.{name}", "bench", group):
            yield

    def wrap(self, namespace, attr: str) -> None:
        fn = getattr(namespace, attr)
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        tag_of = TAGS.get(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            rec = open_(name, layer, tag_of(args, kwargs) if tag_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                close(rec)

        traced.__wrapped__ = fn
        setattr(namespace, attr, traced)
        self._patched.append((namespace, attr, fn))

    def install(self) -> None:
        """Wrap every name in :data:`TARGETS` and measure one span's cost."""
        import importlib

        for module, attrs in TARGETS.items():
            namespace = importlib.import_module(f"macdkit.{module}")
            for attr in attrs:
                self.wrap(namespace, attr)
        self.span_cost_s = _span_cost()

    def restore(self) -> None:
        for namespace, attr, fn in reversed(self._patched):
            setattr(namespace, attr, fn)
        self._patched.clear()

    def dump(self, path, meta: dict) -> None:
        base = self.spans[0][6] if self.spans else 0
        keys = ("op", "id", "parent", "name", "layer", "tag", "start_ns", "end_ns")
        rows = [dict(zip(keys, s[:6] + [s[6] - base, s[7] - base])) for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": rows}, fh, default=str)


def _span_cost() -> float:
    """Seconds one wrapped call adds over a bare call, measured here."""
    class _Namespace:
        @staticmethod
        def noop(*args):
            return None

    probe = Tracer()
    bare = _Namespace.noop
    probe.wrap(_Namespace, "noop")
    wrapped = _Namespace.noop
    n = 20000
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(n):
            bare()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter()
        probe.spans.clear()
        costs.append(((t2 - t1) - (t1 - t0)) / n)
    return max(median(costs), 0.0)


class SpanTable:
    """Durations and self times of the spans of one round's passed operations."""

    def __init__(self, spans: list[list], ok_groups: dict[int, str]):
        keep = [s for s in spans if s[0] in ok_groups and s[7]]
        child = defaultdict(int)
        for s in keep:
            if s[2] is not None:
                child[s[2]] += s[7] - s[6]
        self.rows = [
            (s[3], s[4], s[5], ok_groups[s[0]], (s[7] - s[6]) / 1e9,
             (s[7] - s[6] - child[s[1]]) / 1e9)
            for s in keep
        ]
        self.count = len(keep)

    def total(self, name: str, tag=None, group=None) -> float:
        return sum(r[4] for r in self.rows if r[0] == name
                   and (tag is None or r[2] == tag) and (group is None or r[3] == group))

    def self_time(self, name: str = None, layer: str = None, tag=None) -> float:
        return sum(r[5] for r in self.rows if (name is None or r[0] == name)
                   and (layer is None or r[1] == layer) and (tag is None or r[2] == tag))


KS = (8, 32, 128, 512, 2048)
CHECKS = ("recursive_decomposition", "difference_identity", "macd_derivative",
          "phase_corrected_form", "recursive_expansion")
APPLIED = {"macd12": "macd k=12", "macd256": "macd k=256", "triangle256": "triangle k=256",
           "expansion8x32": "expansion n=8 kb=32"}
GRIDS = {"g4096": 4096, "g65536": 65536}

# (name, unit) of every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    [("cli.ingest_csv_s", "s"), ("cli.ingest_rows_per_s", "rows/s"), ("cli.bytes_read", "B"),
     ("cli.write_series_csv_s", "s"), ("cli.bytes_written", "B"),
     ("cli.spectrum_emit_s", "s"), ("cli.process_s", "s"),
     ("signals.construct_s", "s"), ("signals.aligned_values_s", "s")]
    + [(f"operators.sliding_sums_s.k{k}", "s") for k in KS]
    + [(f"operators.{f}_s", "s") for f in ("macd", "right_avg", "double_right_avg", "centered_avg")]
    + [(f"identities.{c}_s", "s") for c in CHECKS + ("lp_bound", "monotonicity", "classify_trend")]
    + [(f"identities.max_rel_residual.{c}", "ratio") for c in CHECKS]
    + [("identities.lp_bound_max_ratio", "ratio")]
    + [(f"kernels.build_s.{c}", "s") for c in ("macd_kernel", "triangular_kernel",
                                                 "smoothed_derivative_kernel", "expansion_kernel")]
    + [(f"kernels.apply_s.{key}", "s") for key in APPLIED]
    + [("kernels.apply_madds", "count"), ("kernels.taps", "count")]
    + [(f"spectral.transfer_function_s.{g}", "s") for g in GRIDS]
    + [("spectral.transfer_bytes", "B"), ("spectral.bandpass_check_s", "s")]
    + [("streaming.macd_push_ns", "ns"), ("streaming.expansion_push_ns", "ns"),
       ("streaming.sum_drift.macd", "ratio"), ("streaming.sum_drift.expansion", "ratio"),
       ("streaming.samples_seen", "count"), ("streaming.resums", "count")]
    + [(f"self_s.{layer}", "s") for layer in LAYERS]
    + [("trace.spans", "count"), ("trace.overhead_s", "s"), ("trace.job_s", "s")]
)

_CHECK_FN = {c: f"identities.check_{c}" for c in CHECKS}
_CHECK_FN.update(lp_bound="identities.check_lp_bound",
                 monotonicity="identities.check_window_monotonicity",
                 classify_trend="identities.classify_trend")


def round_layer_metrics(table: SpanTable, counts: dict, job_s: float, span_cost_s: float) -> dict:
    """Per-layer metrics of one round: span times plus the counts taken at boundaries."""
    m = {name: 0.0 for name, _ in PER_LAYER}
    for key in m:
        if key in counts:
            m[key] = counts[key]
    ingest = table.total("cli.ingest_csv")
    m["cli.ingest_csv_s"] = ingest
    m["cli.ingest_rows_per_s"] = counts.get("cli.ingest_rows", 0.0) / ingest if ingest else 0.0
    m["cli.write_series_csv_s"] = table.total("cli.write_series_csv")
    m["cli.spectrum_emit_s"] = table.self_time("cli.main", tag="spectrum")
    m["signals.construct_s"] = table.total("signals.UniformSignal")
    m["signals.aligned_values_s"] = table.total("signals.aligned_values")
    for k in KS:
        m[f"operators.sliding_sums_s.k{k}"] = table.total("operators.sliding_sums", group=f"k{k}")
    for f in ("macd", "right_avg", "double_right_avg", "centered_avg"):
        m[f"operators.{f}_s"] = table.total(f"operators.{f}")
    for c, fn in _CHECK_FN.items():
        m[f"identities.{c}_s"] = table.total(fn)
    for c in ("macd_kernel", "triangular_kernel", "smoothed_derivative_kernel", "expansion_kernel"):
        m[f"kernels.build_s.{c}"] = table.total(f"kernels.{c}")
    for key, note in APPLIED.items():
        m[f"kernels.apply_s.{key}"] = table.total("kernels.apply_kernel", tag=note)
    for key, grid in GRIDS.items():
        m[f"spectral.transfer_function_s.{key}"] = table.total("spectral.transfer_function",
                                                               tag=grid)
    m["spectral.bandpass_check_s"] = table.total("spectral.bandpass_check")
    for stream in ("macd", "expansion"):
        seen = counts.get(f"streaming.samples_seen.{stream}", 0.0)
        feed = table.total(f"streaming.{stream}_feed")
        m[f"streaming.{stream}_push_ns"] = feed / seen * 1e9 if seen else 0.0
    for layer in LAYERS:
        m[f"self_s.{layer}"] = table.self_time(layer=layer)
    m["trace.spans"] = float(table.count)
    m["trace.overhead_s"] = table.count * span_cost_s
    m["trace.job_s"] = job_s
    return m
