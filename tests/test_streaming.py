import copy
import itertools
import math
import pickle
import random
import struct
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macdkit import (
    ExpansionSpec,
    ExpansionStream,
    MacdStream,
    UniformSignal,
    expansion_rhs,
    macd,
    sample_offset,
)

from .oracles import AttributeStream


def stream_macd(values, k, **kwargs):
    stream = MacdStream(k, **kwargs)
    return stream, [stream.push(v) for v in values]


def test_constant_stream_emits_exact_zero():
    stream, outs = stream_macd(np.full(40, 2.7), 4)
    assert outs[: 2 * 4 - 1] == [None] * 7
    assert all(v == 0.0 for v in outs[7:])


def test_ramp_stream_emits_half_window():
    stream, outs = stream_macd(np.arange(30.0), 2)
    assert outs[:3] == [None, None, None]
    assert all(v == 1.0 for v in outs[3:])


def test_warmup_matches_batch_valid_range(random_signal):
    sig = random_signal(100)
    for k in (1, 3, 8):
        _, outs = stream_macd(sig.values, k)
        batch = macd(sig, k)
        first = next(i for i, v in enumerate(outs) if v is not None)
        assert first == sample_offset(batch, sig) == 2 * k - 1
        got = np.array(outs[first:])
        assert np.max(np.abs(got - batch.values)) <= 1e-9


def test_stream_tracks_batch_on_long_random_input(rng):
    values = rng.uniform(-1, 1, 50_000)
    sig = UniformSignal(0.0, 1.0, values)
    for k in (16, 64):
        _, outs = stream_macd(values, k)
        batch = macd(sig, k).values
        got = np.array([v for v in outs if v is not None])
        assert got.size == batch.size
        assert np.max(np.abs(got - batch)) <= 1e-9


def test_non_finite_sample_rejected_without_state_change(random_signal):
    sig = random_signal(60)
    stream = MacdStream(3)
    reference = MacdStream(3)
    for v in sig.values[:30]:
        stream.push(v)
        reference.push(v)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="non-finite"):
            stream.push(bad)
    assert stream.samples_seen == reference.samples_seen
    for v in sig.values[30:]:
        assert stream.push(v) == reference.push(v)


def test_overflowing_push_rejected_without_state_change():
    stream = MacdStream(2)
    reference = MacdStream(2)
    for s in (stream, reference):
        s.push(1e308)
    with pytest.raises(ValueError, match="overflow"):
        stream.push(1e308)
    assert stream.samples_seen == reference.samples_seen == 1
    for v in (0.0, -1e308, 3.0, 0.5, 2.0, -1.0):
        assert stream.push(v) == reference.push(v)
    assert stream.stats() == reference.stats()


def test_resum_is_exact_where_a_partial_sum_overflows():
    # In ring order R's re-sum passes 1e308 + 1e308 before the -1e308, so a
    # plain fsum overflows although every window sum is finite.
    feed = [-1e308, 1e308, 1e308, -1e308]
    spec = ExpansionSpec(3, 1)
    stream = ExpansionStream(spec, resum_interval=4)
    outs = [stream.push(v) for v in feed]
    batch = expansion_rhs(UniformSignal(0.0, 1.0, np.array(feed)), spec).values
    assert outs == [None, None, None, 3.333333333333333e+307]
    assert abs(outs[3] - batch[0]) <= 1e-15 * abs(batch[0])
    assert stream.stats() == {"samples_seen": 4, "resums": 1, "sum_drift": 0.0, "warm": True}
    macd_stream = MacdStream(3, resum_interval=4)
    assert [macd_stream.push(v) for v in feed] == [None] * 4
    assert macd_stream.stats() == {"samples_seen": 4, "resums": 1, "sum_drift": 0.0,
                                   "warm": False}
    # The re-sum leaves R and O exact and their compensations zero; O, the R
    # of a pushes ago that the latest push read, is the past ring's slot 0.
    ring, past, *cells = macd_stream._state()
    assert (*cells, past[0]) == (1e308, 0.0, -1e308, 0.0, 4, -1e308)


M = 1.7976931348623157e308  # the largest float


@pytest.mark.parametrize("make", [
    pytest.param(MacdStream, id="macd"),
    pytest.param(lambda k: ExpansionStream(ExpansionSpec(1, k)), id="expansion"),
])
@pytest.mark.parametrize("k, feed, bad, after", [
    # R = M and rc = 0.8 ulp(M): the rounded sum is finite, the window's is not.
    pytest.param(3, [M, 0.4 * math.ulp(M), 0.4 * math.ulp(M)], 2, [0.0] * 4, id="M-h-h"),
    # 8e307 - M is finite, but TwoSum's (t - s) overflows and rc becomes NaN.
    pytest.param(2, [0.0, 0.0, 8e307, -M], 3, [1.0] * 6, id="8e307-M"),
])
def test_push_rejects_a_compensated_sum_that_overflows(make, k, feed, bad, after):
    stream = make(k)
    for i, x in enumerate(feed):
        if i == bad:
            with pytest.raises(ValueError, match="overflow"):
                stream.push(x)
        else:
            stream.push(x)
    outs = [stream.push(x) for x in after]
    kept = feed[:bad] + feed[bad + 1:] + after
    batch = macd(UniformSignal(0.0, 1.0, np.array(kept)), k).values
    got = [v for v in outs if v is not None]
    assert len(got) == batch.size and all(math.isfinite(v) for v in got)
    assert np.max(np.abs(np.array(got) - batch)) <= 1e-15 * np.max(np.abs(batch))
    assert stream.stats()["samples_seen"] == len(kept)


# Signed zeros, subnormals, the float64 extremes and values that cancel exactly.
FUZZ_ALPHABET = [0.0, -0.0, 5e-324, -5e-324, 1e-308, -1e-308, 1.0, -1.0, 0.1, 3.0,
                 1e16, -1e16, 2.0 ** 53, 1e308, -1e308]


def _bits(out):
    return out if out is None else struct.pack("<d", out)


def _state_bits(ring, past, r, rc, o, oc, seen):
    """A stream's state in ``_state()``'s order, each float as its bits."""
    floats = [*ring, *(past or ()), r, rc, o, oc]
    return struct.pack(f"<{len(floats)}d", *floats), past is None, seen


def _fed(push, x):
    """What one push gives: its output's bits, or the text it was rejected with."""
    try:
        out = push(x)
    except ValueError as err:
        return "rejected", str(err)
    assert out is None or type(out) is float and math.isfinite(out)
    return "accepted", _bits(out)


def test_rejected_push_leaves_no_trace_at_any_resum_phase():
    # Every push returns a float or None or raises ValueError, and a stream
    # that rejected some pushes behaves bit for bit like a twin fed only the
    # accepted samples: same outputs, same stats() after every push.
    makers = [lambda i, n=n, b=b: ExpansionStream(ExpansionSpec(n, b), i)
              for n, b in itertools.product(range(1, 4), range(1, 4))]
    makers += [lambda i, k=k: MacdStream(k, i) for k in range(1, 4)]
    rng = random.Random(1707)
    rejected = 0
    for make, interval, _ in itertools.product(makers, range(1, 8), range(12)):
        stream = make(interval)
        twin = make(interval)
        for _ in range(rng.randint(1, 24)):
            x = rng.choice(FUZZ_ALPHABET)
            try:
                out = stream.push(x)
            except ValueError:
                rejected += 1
            else:
                assert out is None or type(out) is float
                assert _bits(out) == _bits(twin.push(x))
            assert stream.stats() == twin.stats()
    assert rejected > 100


def test_macd_stream_agrees_with_the_single_term_expansion_stream():
    # MacdStream is ExpansionStream(ExpansionSpec(1, k)): both read O as R
    # from k pushes ago, through one push, so at every re-sum interval they
    # make the same float operations.  Acceptances, error texts, output bits
    # and stats() agree after every push.
    alphabet = FUZZ_ALPHABET + [M, -M, 8e307]
    rng = random.Random(2718)
    rejected = 0
    for interval in (None, 1, 2, 3, 4, 5, 6, 7):
        for _ in range(300):
            k = rng.randint(1, 3)
            kwargs = {} if interval is None else {"resum_interval": interval}
            stream = MacdStream(k, **kwargs)
            twin = ExpansionStream(ExpansionSpec(1, k), **kwargs)
            for _ in range(rng.randint(1, 24)):
                x = rng.choice(alphabet)
                got = _fed(stream.push, x)
                assert got == _fed(twin.push, x)
                assert stream.stats() == twin.stats()
                rejected += got[0] == "rejected"
    assert rejected > 100


@settings(max_examples=600, deadline=None, derandomize=True)
@given(n=st.sampled_from([1, 2, 5]), b=st.sampled_from([1, 3]),
       interval=st.sampled_from([None, 1, 2, 3, 4, 5, 6, 7]), as_macd=st.booleans(),
       feed=st.lists(st.sampled_from(FUZZ_ALPHABET + [M, -M, 8e307, np.float64(0.1),
                                                      np.float64("nan"), 3]),
                     min_size=1, max_size=40))
# A rejection, then pushes into the same bound push, a re-sum among them.
@example(n=1, b=1, interval=3, as_macd=True, feed=[1e308, 1e308, 1.0, 2.0, 3.0, 4.0])
@example(n=2, b=1, interval=2, as_macd=False, feed=[1.0, float("nan"), 2.0, 3.0, 4.0, 5.0])
# The difference of two finite sums overflows: the scaled fallback.
@example(n=1, b=1, interval=None, as_macd=False, feed=[-1e308, 1e308, -1e308])
def test_push_is_bit_for_bit_the_attribute_push(n, b, interval, as_macd, feed):
    # The push closure against a verbatim copy of the push that kept its
    # state in attributes: after every push, the same acceptance, output
    # bits, error text, stats() and state, bit for bit, through one push
    # bound before any rejection and re-sum.
    kwargs = {} if interval is None else {"resum_interval": interval}
    spec = ExpansionSpec(n, b)
    stream = MacdStream(b, **kwargs) if as_macd and n == 1 else ExpansionStream(spec, **kwargs)
    reference = AttributeStream(spec, **kwargs)
    push = stream.push
    for x in feed:
        assert _fed(push, x) == _fed(reference.push, x)
        assert stream.stats() == reference.stats()
        assert stream.samples_seen == reference.samples_seen
        assert _state_bits(*stream._state()) == _state_bits(
            reference._ring, reference._past, reference._r, reference._rc, reference._o,
            reference._oc, reference.samples_seen)


def test_single_term_expansion_accepts_a_push_after_a_resum_as_macd_does():
    # A second running sum for O met an overflow in a partial sum that R's
    # history never met, and rejected the sixth push after the re-sum.
    feed = [-M, -5e-324, 8e307, -M, M, -1e-308]
    batch = macd(UniformSignal(0.0, 1.0, np.array(feed)), 2).values.tolist()
    assert batch[-1] == 6.988465674311578e+307
    for stream in (ExpansionStream(ExpansionSpec(1, 2), resum_interval=5), MacdStream(2, 5)):
        assert [stream.push(x) for x in feed] == [None] * 3 + batch
        assert stream.stats() == {"samples_seen": 6, "resums": 1, "sum_drift": 0.0,
                                  "warm": True}


@pytest.mark.parametrize("bad", [0, -1, 0.5, 2.0, True, "4"])
def test_resum_interval_must_be_a_positive_integer(bad):
    for make in (lambda: MacdStream(2, bad), lambda: ExpansionStream(ExpansionSpec(2, 2), bad)):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == f"resum interval must be a positive integer, got {bad!r}"


def test_resummation_keeps_outputs_on_track(rng):
    values = rng.uniform(-1, 1, 5000)
    _, with_resum = stream_macd(values, 8, resum_interval=64)
    _, without = stream_macd(values, 8, resum_interval=1 << 20)
    a = np.array([v for v in with_resum if v is not None])
    b = np.array([v for v in without if v is not None])
    assert np.max(np.abs(a - b)) <= 1e-12


def test_stream_crosses_default_resum_threshold(rng):
    # 2^20 pushes trigger the built-in exact re-summation; outputs must not
    # jump when the running sums are rebuilt.
    from macdkit.streaming import RESUM_INTERVAL

    n = RESUM_INTERVAL + 500
    values = rng.uniform(-1, 1, n)
    batch = macd(UniformSignal(0.0, 1.0, values), 32).values
    stream = MacdStream(32)
    worst = 0.0
    for i, v in enumerate(values):
        out = stream.push(float(v))
        if out is not None:
            worst = max(worst, abs(out - batch[i - 63]))
    assert worst <= 1e-9


def test_sum_drift_stays_tiny(rng):
    # Mix magnitudes to provoke cancellation in the sliding sums.
    values = rng.uniform(-1, 1, 20_000) * np.where(rng.uniform(size=20_000) < 0.1, 1e6, 1.0)
    stream = MacdStream(32)
    for i, v in enumerate(values):
        stream.push(v)
        if i % 5000 == 4999:
            assert stream.sum_drift() <= 1e-9


def test_stream_state_is_bounded():
    stream = MacdStream(64)
    for v in np.sin(np.arange(10_000.0)):
        stream.push(v)
    ring, past, *_ = stream._state()
    assert len(ring) == len(past) == 2 * 64
    exp = ExpansionStream(ExpansionSpec.of(5, 8, 1.0))
    single = ExpansionStream(ExpansionSpec(1, 8))
    for v in np.sin(np.arange(3_000.0)):
        exp.push(v)
        single.push(v)
    ring, past, *_ = exp._state()
    assert len(ring) == (5 + 1) * 8 and past is None
    ring, past, *_ = single._state()
    assert len(ring) == len(past) == 2 * 8


def test_expansion_stream_single_term_matches_macd_stream_bitwise(rng):
    values = rng.uniform(-1, 1, 2000)
    k = 8
    macd_stream = MacdStream(k)
    exp_stream = ExpansionStream(ExpansionSpec.of(1, k, 1.0))
    for v in values:
        a = macd_stream.push(v)
        b = exp_stream.push(v)
        assert (a is None) == (b is None)
        if a is not None:
            assert a == b


def test_expansion_stream_constant_is_zero():
    for n in (3, 4):
        stream = ExpansionStream(ExpansionSpec.of(n, 4, 1.0))
        outs = [stream.push(0.73) for _ in range(100)]
        warm = (n + 1) * 4 - 1
        assert all(v is None for v in outs[:warm])
        assert all(v == 0.0 for v in outs[warm:]), n


def test_expansion_stream_matches_batch(rng):
    noise = rng.uniform(-1, 1, 20_000)
    trend = np.cumsum(noise) + 0.01 * np.arange(noise.size)
    for values in (noise, trend):
        sig = UniformSignal(0.0, 1.0, values)
        for n in (1, 2, 3, 4, 16):
            spec = ExpansionSpec.of(n, 8, 1.0)
            stream = ExpansionStream(spec, resum_interval=4096)
            outs = [stream.push(v) for v in values]
            batch = expansion_rhs(sig, spec)
            first = next(i for i, v in enumerate(outs) if v is not None)
            assert first == sample_offset(batch, sig)
            got = np.array(outs[first:])
            assert np.max(np.abs(got - batch.values)) <= 1e-9, n


def test_expansion_sum_drift_stays_tiny_across_resums(rng):
    values = rng.uniform(-1, 1, 20_000) * np.where(rng.uniform(size=20_000) < 0.1, 1e6, 1.0)
    stream = ExpansionStream(ExpansionSpec(5, 7), resum_interval=3000)
    for i, v in enumerate(values):
        stream.push(v)
        if i % 2500 == 2499:
            assert stream.sum_drift() <= 1e-9
    assert stream.stats()["resums"] == 20_000 // 3000


def test_stats_reports_progress_and_resums(rng):
    stream = ExpansionStream(ExpansionSpec(2, 5), resum_interval=64)
    assert stream.stats() == {"samples_seen": 0, "resums": 0, "sum_drift": 0.0, "warm": False}
    values = rng.uniform(-1, 1, 1000)
    for i, v in enumerate(values, start=1):
        out = stream.push(v)
        stats = stream.stats()
        assert stats["samples_seen"] == i == stream.samples_seen
        assert stats["resums"] == i // 64
        assert stats["warm"] == (out is not None) == (i >= 15)
    assert stats["sum_drift"] == stream.sum_drift() <= 1e-12


def test_push_cost_does_not_grow_with_term_count(rng):
    # The expansion telescopes to two running sums, so n = 64 costs what
    # n = 1 costs; criterion 5 holds the window size to the same 2x bound.
    values = rng.uniform(-1, 1, 20_000).tolist()
    best = {1: float("inf"), 64: float("inf")}
    for _ in range(5):
        for n in best:
            push = ExpansionStream(ExpansionSpec(n, 4)).push
            tick = time.perf_counter()
            for v in values:
                push(v)
            best[n] = min(best[n], time.perf_counter() - tick)
    assert best[64] <= 2.0 * best[1], best


def test_expansion_stream_rejects_non_finite():
    stream = ExpansionStream(ExpansionSpec.of(2, 4, 1.0))
    stream.push(1.0)
    with pytest.raises(ValueError, match="non-finite"):
        stream.push(float("nan"))
    assert stream.samples_seen == 1


@pytest.mark.parametrize("make", [
    pytest.param(lambda: MacdStream(3), id="macd"),
    pytest.param(lambda: MacdStream(3, 5), id="macd-resum-5"),
    pytest.param(lambda: ExpansionStream(ExpansionSpec(2, 3), 5), id="expansion-resum-5"),
])
@pytest.mark.parametrize("duplicate", [
    pytest.param(copy.copy, id="copy"),
    pytest.param(copy.deepcopy, id="deepcopy"),
    pytest.param(lambda s: pickle.loads(pickle.dumps(s)), id="pickle"),
])
@pytest.mark.parametrize("taken", [4, 10])
def test_a_copied_stream_runs_apart_from_its_original(make, duplicate, taken):
    # A copy shares no state with its original: pushes into either one, a
    # rejection among them, leave the other's outputs, stats() and
    # sum_drift() those of a stream that was never copied.
    stream, plain, twin = make(), make(), make()
    for x in range(taken):
        for s in (stream, plain, twin):
            s.push(float(x))
    copied = duplicate(stream)
    for x in (100.0, -50.0, float("nan"), 7.0, 3.0):
        assert _fed(copied.push, x) == _fed(twin.push, x)
    for x in (0.5 * i - 3.0 for i in range(20)):
        assert _bits(stream.push(x)) == _bits(plain.push(x))
        assert _bits(copied.push(x)) == _bits(twin.push(x))
    assert stream.stats() == plain.stats() and copied.stats() == twin.stats()
    assert stream.sum_drift() == plain.sum_drift() and copied.sum_drift() == twin.sum_drift()
    assert copied.stats()["samples_seen"] == taken + 24


def test_a_push_override_in_a_subclass_or_on_the_class_takes_effect(monkeypatch):
    # The constructor binds the closure as the stream's push only where the
    # class keeps ExpansionStream.push; an override, in a subclass or
    # patched onto the class as the benchmark's self-test does, is called
    # and reaches the closure through ExpansionStream.push.
    class Skewed(MacdStream):
        def push(self, sample):
            out = super().push(sample)
            return None if out is None else out + 1.0

    def skewed(self, sample):
        out = ExpansionStream.push(self, sample)
        return None if out is None else out + 1.0

    feed = [float(x * x % 7) for x in range(30)]
    plain = stream_macd(feed, 3)[1]
    want = [None if v is None else v + 1.0 for v in plain]
    stream = Skewed(3)
    assert [stream.push(x) for x in feed] == want and stream.samples_seen == 30
    monkeypatch.setattr(MacdStream, "push", skewed)
    assert stream_macd(feed, 3)[1] == want
    single = ExpansionStream(ExpansionSpec(1, 3))
    assert [single.push(x) for x in feed] == plain
