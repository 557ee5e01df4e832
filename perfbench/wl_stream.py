"""stream-ticks: a seeded feed pushed one sample at a time, as a live feed is.

The feed is longer than the streams' re-sum interval, so every run takes the
periodic exact re-summation path.  No batch layer and no I/O is involved.

Three streams take the feed: MacdStream(12) untimed per push,
ExpansionStream(n=8, b=4) untimed per push, and MacdStream(12) with a timer
around every push.  They advance in lockstep, one chunk of samples each in
turn, and every chunk is timed.  Rates come from the fastest chunk: on a
shared host a CPU's speed flips between two levels about 2x apart every few
seconds, and the fastest of the ~136 chunks of a round tracks the
code's cost, where the mean also tracks the neighbours' load.
"""

from __future__ import annotations

import time

import numpy as np
from macdkit import identities, streaming

from common import STREAM_GATE, ar1_walk, median, require, spot_indices, window_mean

K = 12           # MacdStream(12)
EXP_N, EXP_B = 8, 4  # ExpansionStream with n = 8 terms of b = 4 samples
CHUNK = 8192     # samples per timed chunk


class _Feed:
    """One stream's progress through the lockstep feed."""

    def __init__(self, name: str, kind: str, stream, timed: bool):
        self.name, self.kind, self.stream, self.timed = name, kind, stream, timed
        self.out: list = []
        self.lat: list[int] = []           # per-push ns, timed feed only
        self.per_sample: list[float] = []  # seconds per sample of each chunk
        self.seconds = 0.0
        self.error = ""


class StreamWorkload:
    def __init__(self, ctx):
        self.ctx = ctx

    def prepare(self) -> None:
        size = self.ctx.size
        self.resum = size.get("resum") or streaming.RESUM_INTERVAL
        n = size.get("stream_n") or streaming.RESUM_INTERVAL + 65536
        rng = np.random.default_rng(self.ctx.seed)
        self.n = n
        self.feed = ar1_walk(n, rng).tolist()
        self.spots = spot_indices(rng, 2 * (EXP_N + 1) * EXP_B, n, size["spots"])
        pc = time.perf_counter_ns
        gaps = []
        for _ in range(20000):
            t = pc()
            gaps.append(pc() - t)
        self.timer_ns = median(gaps)

    def round(self, ledger) -> None:
        feeds = [
            _Feed("macd_feed", "macd", streaming.MacdStream(K, resum_interval=self.resum), False),
            _Feed("expansion_feed", "expansion", streaming.ExpansionStream(
                identities.ExpansionSpec.of(EXP_N, EXP_B, 1.0), resum_interval=self.resum),
                False),
            _Feed("macd_timed", "macd", streaming.MacdStream(K, resum_interval=self.resum), True),
        ]
        self._lockstep(ledger, feeds)
        for f in feeds:
            check = self._check_timed if f.timed else self._check
            ledger.record(f.name, f.seconds, f, f.error, lambda r: check(ledger, r))

    def _lockstep(self, ledger, feeds) -> None:
        tracer = self.ctx.tracer
        first_id = ledger.next_op_id()
        pc, pc_ns = time.perf_counter, time.perf_counter_ns
        for start in range(0, self.n, CHUNK):
            part = self.feed[start : start + CHUNK]
            for offset, f in enumerate(feeds):
                if f.error:
                    continue
                push = f.stream.push
                with tracer.op(first_id + offset, f.name, ""), \
                        tracer.span(f"streaming.{f.name}", "streaming"):
                    t = pc()
                    try:
                        if f.timed:
                            got = []
                            for v in part:
                                t0 = pc_ns()
                                r = push(v)
                                f.lat.append(pc_ns() - t0)
                                got.append(r)
                        else:
                            got = [push(v) for v in part]
                    except Exception as exc:  # a failing push fails this feed's operation
                        f.error = f"{type(exc).__name__}: {exc}"
                    dt = pc() - t
                f.seconds += dt
                if not f.error:
                    f.per_sample.append(dt / len(part))
                    f.out += got
            self.ctx.idle()

    def _spot_check(self, kind: str, out) -> None:
        """Warm-up and spot values against fsum window means.

        The MACD stream is the k-mean minus the 2k-mean; the expansion stream
        equals the (n*b)-mean minus the ((n+1)*b)-mean.
        """
        short, long_ = (K, 2 * K) if kind == "macd" else (EXP_N * EXP_B, (EXP_N + 1) * EXP_B)
        first = long_ - 1
        require(len(out) == self.n, f"{len(out)} outputs for {self.n} samples")
        require(all(v is None for v in out[:first]) and out[first] is not None,
                f"first output at the wrong sample (expected index {first})")
        xs = self.feed
        worst = 0.0
        for i in self.spots:
            a, b = window_mean(xs, i, short), window_mean(xs, i, long_)
            worst = max(worst, abs(out[i] - (a - b)) / max(1.0, abs(a), abs(b)))
        require(worst <= STREAM_GATE, f"{kind} stream off the fsum means by {worst:.3g}")

    def _best_seconds(self, f: _Feed) -> float:
        """The feed's time at its fastest chunk's speed; the first chunk,
        which holds the warm-up, is left out."""
        return self.n * min(f.per_sample[1:] or f.per_sample)

    def _check(self, ledger, f: _Feed) -> float:
        self._spot_check(f.kind, f.out)
        stream = f.stream
        require(stream.samples_seen == self.n, f"samples_seen {stream.samples_seen} != {self.n}")
        drift = stream.sum_drift()
        require(drift <= STREAM_GATE, f"running-sum drift {drift:.3g} above {STREAM_GATE}")
        ledger.count("streaming.samples_seen", stream.samples_seen)
        ledger.count(f"streaming.samples_seen.{f.kind}", stream.samples_seen)
        # The streams keep no re-sum counter; this follows from the interval.
        ledger.count("streaming.resums", stream.samples_seen // self.resum)
        ledger.worst(f"streaming.sum_drift.{f.kind}", drift)
        return self._best_seconds(f)

    def _check_timed(self, ledger, f: _Feed) -> float:
        self._spot_check(f.kind, f.out)
        p50, p99 = np.percentile(np.asarray(f.lat, dtype=np.float64), [50, 99]) / 1e3
        ledger.count("stream.p50_us", float(p50))
        ledger.count("stream.p99_us", float(p99))
        return self._best_seconds(f)

    def macd_rate(self, rnd) -> float:
        return rnd.family_rate("macd_feed", self.n)

    def details(self, rnd) -> dict:
        return {
            "stream_macd_samples_per_s": (rnd.family_rate("macd_feed", self.n), "samples/s"),
            "stream_expansion_samples_per_s": (rnd.family_rate("expansion_feed", self.n),
                                               "samples/s"),
            "stream_macd_push_p50_us": (rnd.count("stream.p50_us"), "us"),
            "stream_macd_push_p99_us": (rnd.count("stream.p99_us"), "us"),
            "stream_timer_ns": (self.timer_ns, "ns"),
        }
