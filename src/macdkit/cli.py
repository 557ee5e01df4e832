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
from .kernels import box_kernel, expansion_kernel, macd_kernel, triangular_kernel
from .operators import macd, right_avg
from .signals import ExpansionSpec, InsufficientSamplesError, UniformSignal
from .spectral import NotDifferenceKernelError, bandpass_check, transfer_function

__all__ = ["main", "ingest_csv", "IngestError"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

_WRITE_BLOCK = 65536  # rows formatted per write


class IngestError(ValueError):
    """CSV input rejected; message carries the offending 1-based line number."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fields(line: str) -> list[str]:
    """Stripped comma-separated fields of one line; empty for a blank line."""
    text = line.strip()
    return [f.strip() for f in text.split(",")] if text else []


def _floats(fields: list[str]) -> list[float] | None:
    try:
        return [float(f) for f in fields]
    except ValueError:
        return None


def ingest_csv(path: str, schema: str = "auto") -> UniformSignal:
    """Read a signal from CSV in value-only or time,value form.

    A non-numeric first line is treated as a header.  In time,value form the
    timestamps must be strictly increasing and uniformly spaced within 1e-9
    relative; value-only input gets ``dt = 1`` and ``t0 = 0``.

    The body is parsed by one ``np.loadtxt`` and validated with array checks.
    Input that fails either goes to the line scanner, which reports the first
    bad line in file order; the fast path accepts nothing the scanner rejects
    and yields the same ``t0``, ``dt`` and value bits.
    """
    if schema not in ("auto", "value-only", "time-value"):
        raise IngestError(f"unknown schema {schema!r}")
    signal = _load_uniform(path, schema)
    return signal if signal is not None else _scan_csv(path, schema)


def _load_uniform(path: str, schema: str) -> UniformSignal | None:
    """The signal in the CSV at ``path``, or None when the scanner has to decide."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if not _seek_first_row(fh):
                return None  # no data rows: the scanner names the empty file
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError):
        return None
    want = {"auto": data.shape[1], "value-only": 1, "time-value": 2}[schema]
    if data.shape[1] != want or want > 2 or not np.isfinite(data).all():
        return None
    if want == 1:
        return UniformSignal(0.0, 1.0, data[:, 0])
    t = data[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # inf steps fail the checks
        dt = t[1] - t[0] if t.size > 1 else 1.0
        steps = np.diff(t)
        if not ((steps > 0).all() and (np.abs(steps - dt) <= 1e-9 * abs(dt)).all()):
            return None
    return UniformSignal(t[0], dt, data[:, 1])


def _seek_first_row(fh) -> bool:
    """Move ``fh`` to its first data row, past blank lines and a header."""
    header_allowed = True
    while True:
        start = fh.tell()
        line = fh.readline()
        if not line:
            return False
        fields = _fields(line)
        if not fields:
            continue
        if not header_allowed or _floats(fields) is not None:
            fh.seek(start)
            return True
        header_allowed = False


def _scan_csv(path: str, schema: str) -> UniformSignal:
    """Parse the CSV at ``path`` line by line; raise at the first bad line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc

    rows = ((lineno, fields) for lineno, fields in enumerate(map(_fields, raw), start=1)
            if fields)
    first = next(rows, None)
    if first is None:
        raise IngestError(f"empty file: {path}")
    if _floats(first[1]) is None:
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
        parsed = _floats(fields)
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
            if step == math.inf:
                raise IngestError(f"non-finite time step at line {lineno}")
            if len(values) == 2:
                dt = step
            elif abs(step - dt) > 1e-9 * abs(dt):
                raise IngestError(f"non-uniform spacing at line {lineno}")
        t_prev = t
    return UniformSignal(t0, dt, np.asarray(values))


def _write_csv(path: str, header: str, columns) -> None:
    """Write equal-length float columns as CSV rows that re-ingest bit for bit.

    17 significant digits round-trip every float64, and ``%.17g`` formats
    faster than ``repr``'s shortest round-trip text.  Rows are joined in
    blocks of ``_WRITE_BLOCK`` so the text in memory stays bounded.
    """
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(0, len(columns[0]), _WRITE_BLOCK):
            block = zip(*(c[i:i + _WRITE_BLOCK].tolist() for c in columns))
            fh.write("".join([row % cells for cells in block]))


def write_series_csv(path: str, signal: UniformSignal) -> None:
    """Write a signal as time,value rows with round-trippable precision."""
    _write_csv(path, "time,value", (signal.times(), signal.values))


def _digest_line(signal: UniformSignal) -> str:
    return (
        f"input: samples={len(signal)} dt={_fmt(signal.dt)} "
        f"min={_fmt(float(signal.values.min()))} max={_fmt(float(signal.values.max()))}"
    )


def _check_line(r: identities.CheckRecord) -> str:
    p = " ".join(f"{key}={val}" for key, val in r.params.items())
    result = (f"skipped=insufficient_samples required={r.required}" if r.required is not None
              else f"max_abs_residual={r.max_abs_residual:.6g} "
                   f"max_rel_residual={r.max_rel_residual:.6g} gate={r.gate:.6g}")
    return f"check name={r.name} {p} {result} pass={'true' if r.passed else 'false'}"


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
    names = None
    if args.checks != "all":
        names = [c.strip() for c in args.checks.split(",") if c.strip()]
        for c in names:
            if c not in identities.CHECKS:
                raise IngestError(f"unknown check name {c!r}; choose from "
                                  f"{', '.join(identities.CHECKS)} or 'all'")
        if not names:
            raise IngestError("no checks selected")
    print(_digest_line(signal), file=out)
    records = identities.run_checks(signal, names, window=args.window,
                                    long_window=args.long_window, n=args.n, b=args.b,
                                    tol=args.tol)
    for record in records:
        print(_check_line(record), file=out)
    code = (EXIT_INPUT_ERROR if any(r.required is not None for r in records)
            else EXIT_OK if all(r.passed for r in records) else EXIT_CHECK_FAILED)
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
    _write_csv(args.output, "omega,magnitude,phase",
               (resp.frequencies, resp.magnitudes, resp.phases))
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
                   help=f"comma list from {{{','.join(identities.CHECKS)}}} or 'all'")
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
