"""Command-line front end: CSV in, indicators, identity reports, spectra out.

Subcommands
-----------
compute   write an indicator series (avg | macd | expansion) as time,value CSV
verify    run identity checks and print one record line per check
classify  label the local trend at one index
spectrum  write a kernel transfer function as omega,magnitude,phase CSV

Exit codes: 0 success, 1 verification failure, 2 input or usage error.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
import time

import numpy as np

from . import identities
from .identities import ExpansionSpec
from .kernels import box_kernel, expansion_kernel, macd_kernel, triangular_kernel
from .operators import macd, right_avg
from .signals import InsufficientSamplesError, UniformSignal
from .spectral import NotDifferenceKernelError, bandpass_check, transfer_function

__all__ = ["main", "ingest_csv", "IngestError"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

VERIFY_CHECKS = (
    "recursive_decomposition",
    "difference_identity",
    "macd_derivative",
    "phase_corrected_form",
    "recursive_expansion",
    "lp_bound",
    "monotonicity",
)


class IngestError(ValueError):
    """CSV input rejected; message carries the offending 1-based line number."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def ingest_csv(path: str, schema: str = "auto") -> UniformSignal:
    """Read a signal from CSV in value-only or time,value form.

    A non-numeric first line is treated as a header.  In time,value form the
    timestamps must be strictly increasing and uniformly spaced within 1e-9
    relative; value-only input gets ``dt = 1`` and ``t0 = 0``.
    """
    if schema not in ("auto", "value-only", "time-value"):
        raise IngestError(f"unknown schema {schema!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc

    def split_rows():
        for lineno, line in enumerate(raw, start=1):
            text = line.strip()
            if text:
                yield lineno, [f.strip() for f in text.split(",")]

    def parse_row(fields: list[str]) -> list[float] | None:
        try:
            return [float(f) for f in fields]
        except ValueError:
            return None

    rows = split_rows()
    first = next(rows, None)
    if first is None:
        raise IngestError(f"empty file: {path}")
    if parse_row(first[1]) is None:
        first = next(rows, None)  # header
        if first is None:
            raise IngestError(f"empty file: {path} (header only)")

    ncols = len(first[1])
    if schema == "auto":
        schema = {1: "value-only", 2: "time-value"}.get(ncols, "")
        if not schema:
            raise IngestError(f"expected 1 or 2 columns, found {ncols} at line {first[0]}")
    want = 1 if schema == "value-only" else 2

    values: list[float] = []
    t0 = t_prev = 0.0
    dt = 1.0
    for lineno, fields in itertools.chain([first], rows):
        if len(fields) != want:
            raise IngestError(f"expected {want} column(s) at line {lineno}, found {len(fields)}")
        parsed = parse_row(fields)
        if parsed is None:
            raise IngestError(f"could not parse line {lineno}")
        if not all(math.isfinite(v) for v in parsed):
            raise IngestError(f"non-finite value at line {lineno}")
        values.append(parsed[-1])
        if want == 1:
            continue
        t = parsed[0]
        if len(values) == 1:
            t0 = t
        else:
            step = t - t_prev
            if step <= 0:
                raise IngestError(f"timestamps must be strictly increasing (line {lineno})")
            if len(values) == 2:
                dt = step
            elif abs(step - dt) > 1e-9 * abs(dt):
                raise IngestError(f"non-uniform spacing at line {lineno}")
        t_prev = t
    return UniformSignal(t0, dt, np.asarray(values))


def write_series_csv(path: str, signal: UniformSignal) -> None:
    """Write a signal as time,value rows with round-trippable precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time,value\n")
        t = signal.times()
        for i in range(len(signal)):
            fh.write(f"{_fmt(t[i])},{_fmt(signal.values[i])}\n")


def _digest_line(signal: UniformSignal) -> str:
    return (
        f"input: samples={len(signal)} dt={_fmt(signal.dt)} "
        f"min={_fmt(float(signal.values.min()))} max={_fmt(float(signal.values.max()))}"
    )


def _check_line(name: str, params: dict, abs_r, rel_r, gate, ok) -> str:
    p = " ".join(f"{key}={val}" for key, val in params.items())
    status = "true" if ok else "false"
    return (
        f"check name={name} {p} max_abs_residual={abs_r:.6g} "
        f"max_rel_residual={rel_r:.6g} gate={gate:.6g} pass={status}"
    )


def _skip_line(report, params: dict) -> str:
    p = " ".join(f"{key}={val}" for key, val in params.items())
    return (
        f"check name={report.identity_name} {p} skipped=insufficient_samples "
        f"required={report.required} pass=false"
    )


def _run_verify(signal: UniformSignal, checks: list[str], window: int,
                long_window: int, n_terms: int, block: int,
                tol: float, out) -> int:
    any_fail = False
    any_skip = False

    def run(name, params, fn, gate, value_of):
        nonlocal any_fail, any_skip
        try:
            result = fn()
        except InsufficientSamplesError as exc:
            any_skip = True
            skipped = identities.ResidualReport.for_insufficient_samples(name, exc.required)
            print(_skip_line(skipped, params), file=out)
            return
        abs_r, rel_r, ok = value_of(result)
        if not ok:
            any_fail = True
        print(_check_line(name, params, abs_r, rel_r, gate, ok), file=out)

    def residual(report):
        return report.max_abs_residual, report.max_rel_residual, report.passes(tol)

    for name in checks:
        if name == "recursive_decomposition":
            run(name, {"t1": window, "t2": long_window},
                lambda: identities.check_recursive_decomposition(signal, window, long_window),
                tol, residual)
        elif name == "difference_identity":
            run(name, {"a": window, "b": long_window},
                lambda: identities.check_difference_identity(signal, window, long_window),
                tol, residual)
        elif name == "macd_derivative":
            run(name, {"a": window},
                lambda: identities.check_macd_derivative(signal, window), tol, residual)
        elif name == "phase_corrected_form":
            run(name, {"a": window},
                lambda: identities.check_phase_corrected_form(signal, window), tol, residual)
        elif name == "recursive_expansion":
            run(name, {"n": n_terms, "b": block},
                lambda: identities.check_recursive_expansion(
                    signal, ExpansionSpec.of(n_terms, block, signal.dt)),
                tol, residual)
        elif name == "lp_bound":
            def lp():
                return max(identities.check_lp_bound(signal, window, p) for p in (1, 2, math.inf))
            run(name, {"a": window}, lp, 2.0, lambda r: (r, r, r <= 2.0))
        elif name == "monotonicity":
            b = window + long_window
            run(name, {"a": window, "b": b},
                lambda: identities.check_window_monotonicity(signal, window, b),
                0.0, lambda r: (float(not r.passed), float(not r.equality_passed),
                                r.passed and r.equality_passed))
        else:
            raise IngestError(f"unknown check name {name!r}")

    if any_skip:
        return EXIT_INPUT_ERROR
    return EXIT_CHECK_FAILED if any_fail else EXIT_OK


def _cmd_compute(args, out) -> int:
    signal = ingest_csv(args.input, args.schema)
    if args.indicator == "avg":
        series = right_avg(signal, args.window)
        tag = f"avg k={args.window}"
    elif args.indicator == "macd":
        series = macd(signal, args.window)
        tag = f"macd k={args.window}"
    else:
        spec = ExpansionSpec.of(args.n, args.b, signal.dt)
        series = identities.expansion_rhs(signal, spec)
        tag = f"expansion n={args.n} b={args.b}"
    write_series_csv(args.output, series)
    print(_digest_line(signal), file=out)
    print(f"wrote {len(series)} samples of {tag} to {args.output}", file=out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    signal = ingest_csv(args.input, args.schema)
    if args.checks == "all":
        checks = list(VERIFY_CHECKS)
    else:
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
        for c in checks:
            if c not in VERIFY_CHECKS:
                raise IngestError(
                    f"unknown check name {c!r}; choose from {', '.join(VERIFY_CHECKS)} or 'all'"
                )
        if not checks:
            raise IngestError("no checks selected")
    print(_digest_line(signal), file=out)
    code = _run_verify(signal, checks, args.window, args.long_window,
                       args.n, args.b, args.tol, out)
    print(f"overall: {'pass' if code == EXIT_OK else 'fail'}", file=out)
    return code


def _cmd_classify(args, out) -> int:
    signal = ingest_csv(args.input, args.schema)
    if args.index == "latest":
        index = len(signal) - 1
    else:
        try:
            index = int(args.index)
        except ValueError:
            raise IngestError(f"index must be an integer or 'latest', got {args.index!r}")
    try:
        label = identities.classify_trend(signal, index, args.window, args.b, args.tol)
    except IndexError as exc:
        raise IngestError(str(exc))
    print(_digest_line(signal), file=out)
    print(f"index={index} label={label.label} margin={_fmt(label.margin)}", file=out)
    return EXIT_OK


def _build_cli_kernel(args):
    if args.kernel == "avg":
        return box_kernel(args.window)
    if args.kernel == "macd":
        return macd_kernel(args.window)
    if args.kernel == "triangle":
        return triangular_kernel(args.window)
    if args.kernel == "expansion":
        return expansion_kernel(args.n, args.b)
    raise IngestError(f"invalid kernel spec {args.kernel!r}")


def _cmd_spectrum(args, out) -> int:
    try:
        kernel = _build_cli_kernel(args)
    except ValueError as exc:
        raise IngestError(str(exc))
    resp = transfer_function(kernel, args.grid)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write("omega,magnitude,phase\n")
        for w, m, p in zip(resp.frequencies, resp.magnitudes, resp.phases):
            fh.write(f"{_fmt(w)},{_fmt(m)},{_fmt(p)}\n")
    print(f"wrote {args.grid}-point spectrum of {kernel.scale_note} to {args.output}", file=out)
    if kernel.is_difference():
        verdict = bandpass_check(resp)
        print(
            f"bandpass: pass={'true' if verdict.passed else 'false'} "
            f"dc={verdict.dc_magnitude:.6g} peak_omega={verdict.peak_frequency:.6g} "
            f"peak={verdict.peak_magnitude:.6g} nyquist={verdict.nyquist_magnitude:.6g}",
            file=out,
        )
        if not verdict.passed:
            for reason in verdict.failures:
                print(f"bandpass failure: {reason}", file=out)
            return EXIT_CHECK_FAILED
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macdkit",
        description="Box-average operators, identity verification and kernel spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, output_required):
        p.add_argument("input", help="input CSV path")
        p.add_argument("--schema", choices=["auto", "value-only", "time-value"],
                       default="auto", help="input CSV layout (default: auto)")
        if output_required:
            p.add_argument("--output", "-o", required=True, help="output CSV path")

    p = sub.add_parser("compute", help="write an indicator series")
    p.add_argument("indicator", choices=["avg", "macd", "expansion"])
    add_io(p, output_required=True)
    p.add_argument("--window", "-k", type=int, default=8, help="window in samples")
    p.add_argument("--n", type=int, default=4, help="expansion term count")
    p.add_argument("--b", type=int, default=4, help="expansion block in samples")
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("verify", help="run identity checks")
    add_io(p, output_required=False)
    p.add_argument("--checks", default="all",
                   help=f"comma list from {{{','.join(VERIFY_CHECKS)}}} or 'all'")
    p.add_argument("--window", "-k", type=int, default=8, help="short window in samples")
    p.add_argument("--long-window", type=int, default=12,
                   help="second window (t2 / b) in samples")
    p.add_argument("--n", type=int, default=4, help="expansion term count")
    p.add_argument("--b", type=int, default=4, help="expansion block in samples")
    p.add_argument("--tol", type=float, default=1e-12,
                   help="relative residual gate (default 1e-12)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("classify", help="label the local trend at an index")
    add_io(p, output_required=False)
    p.add_argument("--index", default="latest", help="sample index or 'latest'")
    p.add_argument("--window", "-k", type=int, default=8, help="short window in samples")
    p.add_argument("--b", type=int, default=4, help="history extension in samples")
    p.add_argument("--tol", type=float, default=None,
                   help="linear-band tolerance (default: 1e-9 * max|signal|)")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("spectrum", help="write a kernel transfer function")
    p.add_argument("kernel", choices=["avg", "macd", "triangle", "expansion"])
    p.add_argument("--output", "-o", required=True, help="output CSV path")
    p.add_argument("--window", "-k", type=int, default=8, help="window in samples")
    p.add_argument("--n", type=int, default=4, help="expansion term count")
    p.add_argument("--b", type=int, default=4, help="expansion block in samples")
    p.add_argument("--grid", type=int, default=4096, help="grid points on [0, pi]")
    p.set_defaults(fn=_cmd_spectrum)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else EXIT_OK
    started = time.perf_counter()
    out = sys.stdout
    echoed = argv if argv is not None else sys.argv[1:]
    print(f"command: macdkit {' '.join(echoed)}", file=out)
    try:
        code = args.fn(args, out)
    except (IngestError, InsufficientSamplesError, NotDifferenceKernelError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    print(f"wall_time_s: {time.perf_counter() - started:.3f}", file=out)
    return code


if __name__ == "__main__":
    sys.exit(main())
