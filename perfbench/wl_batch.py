"""batch-10x100k: in-process library calls on a seeded 1M-sample walk.

The walk is cut into ten consecutive 100,000-sample signals.  A round makes
one pass per signal, running every operator, check and kernel application
on it, so each call runs ten times spread over the round, and its time is
the fastest of the ten.  The window sweep straddles the ``sliding_sums``
switch (direct convolution for n*k <= 2**25, that is k <= 335 at this n,
and the segmented loop above it), so a rewrite of that primitive is
measured at both ends.  Kernels and spectra do not use ``sliding_sums``;
they are measured beside it as the layer that should not move.
"""

from __future__ import annotations

import math

import numpy as np

from macdkit import identities as ids
from macdkit import kernels, signals, spectral
from macdkit import operators as ops

from common import (FAULT_SEED, GATE, ar1_walk, macd_magnitude, rel_mismatch, require,
                    spot_indices, window_mean)

KS = (8, 32, 128, 512, 2048)
BUILD_WINDOWS = (16, 128, 1024)
# Kernels applied to the walk and analysed: key -> (shape, parameters).
APPLIED = {"macd12": ("macd", 12), "macd256": ("macd", 256),
           "triangle256": ("triangle", 256), "expansion8x32": ("expansion", 8, 32)}
DIFFERENCE = ("macd12", "macd256", "expansion8x32")
FAULT_EPOCH = ("identity checks on UniformSignal(1.7e9, 1e-3, x) raise 'signals are not "
               "grid-aligned' (ROADMAP item 4, bug 1)")
FAULT_OFFSET = ("relative residual above the 1e-12 gate on the walk plus 1e6: "
                "cancellation in the window-sum differences")


def expected_weights(shape: str, *params) -> np.ndarray:
    """Dense weights on lags 0..L of each kernel shape, from its closed form."""
    if shape == "macd":
        (k,) = params
        return np.concatenate([np.full(k, 0.5 / k), np.full(k, -0.5 / k)])
    if shape == "triangle":
        (k,) = params
        ramp = np.arange(1, 2 * k, dtype=np.float64)
        return np.minimum(ramp, 2 * k - ramp) / (k * k)
    n, kb = params  # expansion: box over n*kb minus box over (n+1)*kb
    w = np.full((n + 1) * kb, -1.0 / ((n + 1) * kb))
    w[: n * kb] += 1.0 / (n * kb)
    return w


def _box_response(m: int, omega: np.ndarray) -> np.ndarray:
    """Frequency response of the m-sample trailing box, for omega > 0."""
    return np.exp(-0.5j * omega * (m - 1)) * np.sin(m * omega / 2) / (m * np.sin(omega / 2))


def expected_magnitude(shape: str, params, omega: np.ndarray) -> np.ndarray:
    if shape == "macd":
        return macd_magnitude(params[0], omega)
    out = np.zeros_like(omega)
    w = omega[omega > 0]
    if shape == "triangle":
        out[0] = 1.0
        out[omega > 0] = np.abs(_box_response(params[0], w)) ** 2
    else:
        n, kb = params
        out[omega > 0] = np.abs(_box_response(n * kb, w) - _box_response((n + 1) * kb, w))
    return out


class _Segment:
    """One input signal's values, and the oracle data for its checks."""

    def __init__(self, x: np.ndarray, spots: list[int]):
        self.x = x
        self.xs = x.tolist()
        self.scale = float(np.max(np.abs(x)))
        self.spots = spots

    def weighted(self, w_rev: np.ndarray, end: int) -> float:
        """fsum of weights (lag L first) times x[end-L .. end]."""
        return math.fsum((w_rev * self.x[end - len(w_rev) + 1 : end + 1]).tolist())

    def series(self, out, first_end: int, length: int, want, t0=None) -> None:
        """Check length, start time and spot values of an output series.

        ``first_end`` is the input index at which output sample 0 ends its
        window; on the t0 = 0, dt = 1 grid that is also its start time
        unless ``t0`` says otherwise.
        """
        t0 = float(first_end if t0 is None else t0)
        require(len(out) == length, f"{len(out)} samples, expected {length}")
        require(out.t0 == t0, f"starts at t={out.t0}, expected {t0}")
        ends = [i for i in self.spots if i >= first_end]
        got = out.values[np.asarray(ends) - first_end]
        err = rel_mismatch(got, [want(i) for i in ends])
        require(err <= GATE, f"values off the fsum oracle by {err:.3g} relative")


class BatchWorkload:
    def __init__(self, ctx):
        self.ctx = ctx
        self.grids = ctx.size["grids"]

    def prepare(self) -> None:
        size = self.ctx.size
        n, pieces = size["n"], size["pieces"]
        rng = np.random.default_rng(self.ctx.seed)
        self.n = n
        x = ar1_walk(n * pieces, rng)
        self.segments = [
            _Segment(x[p * n : (p + 1) * n],
                     spot_indices(rng, 2 * max(KS), n, size["batch_spots"] // pieces))
            for p in range(pieces)
        ]
        self.kernels = {
            "macd12": kernels.macd_kernel(12), "macd256": kernels.macd_kernel(256),
            "triangle256": kernels.triangular_kernel(256),
            "expansion8x32": kernels.expansion_kernel(8, 32),
        }
        fault = ar1_walk(n, np.random.default_rng(FAULT_SEED))
        self.epoch_ms = signals.UniformSignal(1.7e9, 1e-3, fault)
        self.offset = signals.UniformSignal(0.0, 1.0, fault + 1e6)

    def round(self, ledger) -> None:
        tracer = self.ctx.tracer
        for p, seg in enumerate(self.segments):
            def construct():
                with tracer.span("signals.UniformSignal", "signals"):
                    return signals.UniformSignal(0.0, 1.0, seg.x)

            sig = ledger.op("construct", construct, lambda s: require(
                len(s) == self.n and bool(np.array_equal(s.values, seg.x)), "values not kept"))
            for k in KS:
                self._operators(ledger, seg, sig, k)
                self._identities(ledger, sig, f"k{k}", k, 3 * k // 2, 4, k // 2)
                self._classify(ledger, seg, sig, k)
            self._apply(ledger, seg, sig)
            half = len(self.segments) // 2
            if p in (half // 2, half + half // 2):  # passes 2 and 7 of ten
                self._builds(ledger)
                self._spectra(ledger)
            self.ctx.idle()
        self._identities(ledger, self.epoch_ms, "epoch_ms", 8, 12, 4, 4, fault=FAULT_EPOCH)
        self._identities(ledger, self.offset, "offset", 8, 12, 4, 4, fault=FAULT_OFFSET,
                         only=("difference_identity", "recursive_expansion"))

    def _operators(self, ledger, seg: _Segment, sig, k: int) -> None:
        n, xs, group = self.n, seg.xs, f"k{k}"
        tri = expected_weights("triangle", k)

        def mean(i):
            return window_mean(xs, i, k)

        cases = [
            ("right_avg", lambda: ops.right_avg(sig, k),
             lambda o: seg.series(o, k - 1, n - k + 1, mean)),
            ("centered_avg", lambda: ops.centered_avg(sig, k),
             lambda o: seg.series(o, k - 1, n - k + 1, mean, t0=k - 1 - k // 2)),
            ("double_right_avg", lambda: ops.double_right_avg(sig, k),
             lambda o: seg.series(o, 2 * k - 2, n - 2 * k + 2, lambda i: seg.weighted(tri, i))),
            ("macd", lambda: ops.macd(sig, k),
             lambda o: seg.series(o, 2 * k - 1, n - 2 * k + 1,
                                  lambda i: mean(i) - window_mean(xs, i, 2 * k))),
            ("windowed_derivative", lambda: ops.windowed_derivative(sig, k),
             lambda o: seg.series(o, k, n - k, lambda i: (xs[i] - xs[i - k]) / k)),
            ("delay", lambda: ops.delay(sig, k),
             lambda o: require(o.t0 == float(k) and bool(np.array_equal(o.values, seg.x[: n - k])),
                               "delayed series is not the input shifted by k")),
        ]
        for name, call, check in cases:
            ledger.op(f"operator.{name}.{group}", call, check, group=group)

    def _identities(self, ledger, sig, group, k, long_, n_terms, block, fault="",
                    only=None) -> None:
        record = not fault
        residual_calls = {
            "recursive_decomposition": lambda: ids.check_recursive_decomposition(sig, k, long_),
            "difference_identity": lambda: ids.check_difference_identity(sig, k, long_),
            "macd_derivative": lambda: ids.check_macd_derivative(sig, k),
            "phase_corrected_form": lambda: ids.check_phase_corrected_form(sig, k),
            "recursive_expansion": lambda: ids.check_recursive_expansion(
                sig, ids.ExpansionSpec.of(n_terms, block, sig.dt)),
        }

        def residual(name):
            def check(report):
                r = report.max_rel_residual
                require(not report.insufficient and r <= GATE,
                        f"relative residual {r:.3g} above the 1e-12 gate")
                if record:
                    ledger.worst(f"identities.max_rel_residual.{name}", r)
            return check

        def lp_check(ratios):
            require(all(r <= 2.0 for r in ratios), f"norm ratios {ratios} exceed 2")
            if record:
                ledger.worst("identities.lp_bound_max_ratio", max(ratios))

        def mono_check(res):
            require(res.passed and res.equality_passed,
                    f"monotonicity violated at index {res.first_violation}")

        cases = [(name, call, residual(name)) for name, call in residual_calls.items()]
        cases += [
            ("lp_bound", lambda: [ids.check_lp_bound(sig, k, p) for p in (1, 2, math.inf)],
             lp_check),
            ("monotonicity", lambda: ids.check_window_monotonicity(sig, k, k + long_),
             mono_check),
        ]
        for name, call, check in cases:
            if only is None or name in only:
                op_name = f"{group}.{name}" if fault else f"check.{name}.{group}"
                ledger.op(op_name, call, check, group=group, fault=fault)

    def _classify(self, ledger, seg: _Segment, sig, k: int) -> None:
        b, last = k // 2, self.n - 1

        def check(label):
            want = window_mean(seg.xs, last, k) - window_mean(seg.xs, last, k + b)
            require(abs(label.margin - want) <= GATE * seg.scale,
                    f"margin {label.margin!r} against fsum {want!r}")
            tol = 1e-9 * seg.scale
            expected = "increasing" if want > tol else "decreasing" if want < -tol else "linear"
            require(label.label == expected, f"label {label.label}, expected {expected}")

        ledger.op(f"classify.k{k}", lambda: ids.classify_trend(sig, last, k, b), check,
                  group=f"k{k}")

    def _builds(self, ledger) -> None:
        def dense_check(want):
            def check(kern):
                require(kern.offsets == tuple(range(len(want))),
                        f"lags {kern.offsets[0]}..{kern.offsets[-1]}, expected 0..{len(want) - 1}")
                err = float(np.max(np.abs(kern.weights - want))) / float(np.max(np.abs(want)))
                require(err <= GATE, f"weights off the closed form by {err:.3g} relative")
            return check

        for w in BUILD_WINDOWS:
            builds = [
                ("macd_kernel", lambda: kernels.macd_kernel(w), ("macd", w)),
                ("triangular_kernel", lambda: kernels.triangular_kernel(w), ("triangle", w)),
                ("smoothed_derivative_kernel", lambda: kernels.smoothed_derivative_kernel(w),
                 ("macd", w)),
                ("expansion_kernel", lambda: kernels.expansion_kernel(8, w // 8),
                 ("expansion", 8, w // 8)),
            ]
            for name, call, shape in builds:
                ledger.op(f"build.{name}.w{w}", call, dense_check(expected_weights(*shape)))

    def _apply(self, ledger, seg: _Segment, sig) -> None:
        for key, kern in self.kernels.items():
            taps = len(kern.offsets)
            w_rev = expected_weights(*APPLIED[key])[::-1].copy()

            def check(out, taps=taps, w_rev=w_rev):
                seg.series(out, taps - 1, self.n - taps + 1, lambda i: seg.weighted(w_rev, i))
                ledger.count("kernels.apply_madds", taps * len(out))
                ledger.count("kernels.taps", taps)

            ledger.op(f"apply.{key}", lambda: kernels.apply_kernel(kern, sig), check)

    def _spectra(self, ledger) -> None:
        for key, kern in self.kernels.items():
            shape, *params = APPLIED[key]
            for grid in self.grids:
                def check(resp, grid=grid, shape=shape, params=params, taps=len(kern.offsets)):
                    omega, mag = resp.frequencies, resp.magnitudes
                    require(bool(np.array_equal(omega, np.linspace(0.0, np.pi, grid))),
                            "frequency grid is not linspace(0, pi, grid)")
                    dev = float(np.max(np.abs(mag - expected_magnitude(shape, params, omega))))
                    require(dev <= GATE, f"|H| deviates from the closed form by {dev:.3g}")
                    if key in DIFFERENCE:
                        require(mag[0] <= 1e-14, f"|H(0)| = {mag[0]:.3g} exceeds 1e-14")
                    ledger.count("spectral.transfer_bytes", grid * taps * 16)

                resp = ledger.op(f"transfer.{key}.g{grid}",
                                 lambda: spectral.transfer_function(kern, grid), check)
                if key in DIFFERENCE:
                    ledger.op(f"bandpass.{key}.g{grid}", lambda: spectral.bandpass_check(resp),
                              lambda v: require(v.passed and v.dc_magnitude <= 1e-14,
                                                f"band-pass verdict failed: {v.failures}"))

    # -- figures ---------------------------------------------------------

    def macd_rate(self, rnd) -> float:
        return rnd.family_rate("operator.macd", self.n)

    def details(self, rnd) -> dict:
        apply_s = rnd.family_seconds("apply")
        madds = rnd.count("kernels.apply_madds")
        return {
            "batch_operator_samples_per_s": (rnd.family_rate("operator", self.n), "samples/s"),
            "batch_check_samples_per_s": (rnd.family_rate("check", self.n), "samples/s"),
            "batch_kernel_build_s": (rnd.family_seconds("build"), "s"),
            "batch_kernel_apply_madds_per_s": (madds / apply_s if apply_s else 0.0, "madds/s"),
            "batch_spectrum_s": (rnd.family_seconds("transfer") + rnd.family_seconds("bandpass"),
                                 "s"),
        }
