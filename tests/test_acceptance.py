"""End-to-end acceptance suite: one test per criterion, gates pinned inline.

Run ``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from macdkit import (
    ExpansionSpec,
    MacdStream,
    UniformSignal,
    bandpass_check,
    check_difference_identity,
    check_lp_bound,
    check_macd_derivative,
    check_window_monotonicity,
    check_phase_corrected_form,
    check_recursive_decomposition,
    check_recursive_expansion,
    expansion_kernel,
    macd,
    macd_kernel,
    right_avg,
    smoothed_derivative_kernel,
    transfer_function,
)
from macdkit.cli import ingest_csv, main

CORPUS_SEED = 424242
CORPUS_SIGNALS = 100
CORPUS_LENGTH = 10_000


@contextlib.contextmanager
def criterion(number, name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    for _ in range(CORPUS_SIGNALS):
        yield UniformSignal(0.0, 1.0, rng.uniform(-1.0, 1.0, CORPUS_LENGTH))


def test_criterion_1_identity_suite():
    with criterion(1, "identity suite"):
        started = time.perf_counter()
        worst = 0.0
        for s, sig in enumerate(corpus()):
            t1 = s % 16 + 1
            t2 = (s * 7) % 16 + 1
            a = (s * 3) % 16 + 1
            b = (s * 5) % 16 + 1
            even = 2 * (s % 8 + 1)
            n = s % 8 + 1
            kb = (2, 4, 8)[s % 3]
            reports = [
                check_recursive_decomposition(sig, t1, t2),
                check_difference_identity(sig, a, b),
                check_macd_derivative(sig, a),
                check_phase_corrected_form(sig, even),
                check_recursive_expansion(sig, ExpansionSpec.of(n, kb, sig.dt)),
            ]
            for report in reports:
                assert report.max_rel_residual <= 1e-12, (s, report)
                worst = max(worst, report.max_rel_residual)
        elapsed = time.perf_counter() - started
        print(f"  worst relative residual: {worst:.3e}; runtime {elapsed:.2f}s")
        assert elapsed <= 10.0


def test_criterion_2_lp_bound():
    with criterion(2, "Lp bound"):
        worst = 0.0
        for s, sig in enumerate(corpus()):
            k = s % 16 + 1
            for p in (1, 2, math.inf):
                ratio = check_lp_bound(sig, k, p)
                assert ratio <= 2.0, (s, k, p, ratio)
                worst = max(worst, ratio)
        print(f"  max observed ratio: {worst:.15f}")
        assert worst <= 1.0 + 1e-12


def test_criterion_3_kernel_identity():
    with criterion(3, "kernel identity"):
        for k in range(1, 65):
            direct = macd_kernel(k)
            composed = smoothed_derivative_kernel(k)
            assert composed.offsets == direct.offsets
            dev = np.max(np.abs(composed.weights - direct.weights))
            assert dev <= 1e-14, (k, dev)


def test_criterion_4_spectral():
    with criterion(4, "spectral band-pass"):
        for k in (2, 4, 8, 16, 32):
            resp = transfer_function(macd_kernel(k), 4096)
            assert resp.magnitudes[0] <= 1e-14
            verdict = bandpass_check(resp)
            assert verdict.passed, (k, verdict.failures)
            assert 0.0 < verdict.peak_frequency < np.pi
            assert verdict.nyquist_magnitude < verdict.peak_magnitude
            exp_resp = transfer_function(expansion_kernel(1, k), 4096)
            dev = np.max(np.abs(exp_resp.magnitudes - resp.magnitudes))
            assert dev <= 1e-10, (k, dev)


def test_criterion_5_streaming_equivalence():
    with criterion(5, "streaming equivalence"):
        started = time.perf_counter()
        rng = np.random.default_rng(CORPUS_SEED + 5)
        values = rng.uniform(-1.0, 1.0, 1_000_000)
        sig = UniformSignal(0.0, 1.0, values)
        samples = values.tolist()
        per_sample = {}
        for k in (16, 256, 4096):
            stream = MacdStream(k)
            push = stream.push
            tick = time.perf_counter()
            outs = [push(v) for v in samples]
            per_sample[k] = (time.perf_counter() - tick) / len(samples)
            batch = macd(sig, k).values
            got = np.array(outs[2 * k - 1 :])
            assert got.size == batch.size
            dev = float(np.max(np.abs(got - batch)))
            assert dev <= 1e-9, (k, dev)
        ratio = per_sample[4096] / per_sample[16]
        elapsed = time.perf_counter() - started
        print(
            f"  per-sample: k=16 {per_sample[16]*1e6:.2f}us, "
            f"k=4096 {per_sample[4096]*1e6:.2f}us (ratio {ratio:.2f}); "
            f"runtime {elapsed:.1f}s"
        )
        assert ratio <= 2.0
        assert elapsed <= 30.0


def test_criterion_6_regularity_surrogate():
    with criterion(6, "regularity surrogate"):
        for k in range(1, 65):
            values = np.zeros(4 * k)
            values[2 * k :] = 1.0
            out = right_avg(UniformSignal(0.0, 1.0, values), k)
            largest = float(np.max(np.abs(np.diff(out.values))))
            if k & (k - 1) == 0:
                assert largest == 1.0 / k, k
            else:
                # one ulp at the scale of the staircase outputs
                assert abs(largest - 1.0 / k) <= np.spacing(1.0) / 2, k


def test_criterion_7_monotonicity_scan():
    with criterion(7, "monotonicity scan"):
        rng = np.random.default_rng(CORPUS_SEED + 7)
        fired = 0
        for _ in range(1000):
            sig = UniformSignal(0.0, 1.0, rng.uniform(-1.0, 1.0, 512))
            result = check_window_monotonicity(sig, 3, 8)
            assert result.passed, result
            assert result.equality_passed
            fired += np.count_nonzero(right_avg(sig, 3).values[5:] > right_avg(sig, 8).values)
        print(f"  hypothesis fired {fired} times across 1000 signals, 0 counterexamples")
        assert fired > 0


def test_criterion_8_cli_round_trip_and_exit_codes(tmp_path, capsys):
    with criterion(8, "CLI round trip and exit codes"):
        rng = np.random.default_rng(CORPUS_SEED + 8)
        values = rng.uniform(-1.0, 1.0, 1000)
        fixture = tmp_path / "fixture.csv"
        fixture.write_text(
            "time,value\n"
            + "".join(f"{float(i)!r},{float(v)!r}\n" for i, v in enumerate(values))
        )

        # success path: compute, then re-ingest bit-for-bit
        out = tmp_path / "macd.csv"
        assert main(["compute", "macd", str(fixture), "-k", "6", "-o", str(out)]) == 0
        expected = macd(UniformSignal(0.0, 1.0, values), 6)
        back = ingest_csv(str(out))
        assert np.array_equal(back.values, expected.values)
        assert back.dt == expected.dt
        assert back.t0 == expected.t0

        # success path: verify everything at the default gate
        assert main(["verify", str(fixture)]) == 0

        # verification failure: impossible tolerance
        assert main(["verify", str(fixture), "--tol", "1e-30"]) == 1

        # input errors: malformed CSV, unknown check, too-short signal
        gapped = tmp_path / "gap.csv"
        gapped.write_text("t,v\n0,1\n1,2\n3,4\n")
        assert main(["verify", str(gapped)]) == 2
        assert main(["verify", str(fixture), "--checks", "nonsense"]) == 2
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("1\n2\n3\n")
        assert main(["verify", str(tiny)]) == 2
        capsys.readouterr()  # drain CLI output
