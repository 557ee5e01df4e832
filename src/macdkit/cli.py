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
import sys
import time
from array import array
from typing import NoReturn

import numpy as np

from . import identities
from .kernels import box_kernel, expansion_kernel, macd_kernel, triangular_kernel
from .operators import macd, right_avg
from .signals import ExpansionSpec, InsufficientSamplesError, UniformSignal
from .spectral import (DEFAULT_GRID, MAX_GRID, NotDifferenceKernelError, bandpass_check,
                       transfer_function)

__all__ = ["main", "ingest_csv", "IngestError"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

_WRITE_BLOCK = 65536  # rows formatted per write
_LOCATE_BLOCK = 8192  # data lines per np.loadtxt call while naming a bad line
_SCHEMA_COLUMNS = {"value-only": 1, "time-value": 2}


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

    Empty and whitespace-only lines are blank and skipped.  The first other
    line is a header when some field of it does not parse as a float.  Each
    data cell is a finite ASCII decimal float with optional surrounding
    whitespace; a cell holding ``_`` or a non-ASCII character, such as
    ``1_000``, is rejected as unparseable with its line number, and a line
    holding a byte that is not valid UTF-8 as ``invalid UTF-8 at line N``.  In
    time,value form the timestamps must be strictly increasing and uniformly
    spaced within 1e-9 relative; value-only input gets ``dt = 1`` and ``t0 = 0``.

    One ``np.loadtxt`` over the non-blank lines and ``_row_fault`` decide
    every accept; only a rejected file is read again, to name its bad line.
    """
    if schema not in ("auto", "value-only", "time-value"):
        raise IngestError(f"unknown schema {schema!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = itertools.filterfalse(str.isspace, fh)
            first = next(lines, None)
            if first is not None and _floats(_fields(first)) is None:  # header
                first = next(lines, None)
            rows = None if first is None else np.loadtxt(
                itertools.chain([first], lines), delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError):
        rows = None
    ncols = 0 if rows is None else rows.shape[1]
    if ncols not in (1, 2) or ncols != _SCHEMA_COLUMNS.get(schema, ncols):
        _raise_bad_line(path, schema)
    fault = _row_fault(rows)
    if fault is not None:
        _raise_bad_line(path, schema, limit=fault[0] + 1)
    if ncols == 1:
        return UniformSignal(0.0, 1.0, rows[:, 0])
    t = rows[:, 0]
    return UniformSignal(t[0], t[1] - t[0] if t.size > 1 else 1.0, rows[:, 1])


def _row_fault(rows: np.ndarray) -> tuple[int, str] | None:
    """The first row of ``(value,)`` or ``(time, value)`` rows that breaks a rule.

    Returns ``(row, message)`` or None; ``message`` takes a line number via
    ``str.format``.  On one row the rules rank in the order listed.  A verdict
    on a row reads only the rows up to it, so a prefix has the same first fault.
    """
    faults = []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing step is a fault
        steps = np.diff(rows[:, 0]) if rows.shape[1] == 2 else rows[:0, 0]
        dt = steps[0] if steps.size else 1.0
        for shift, rule, message in (
                (0, lambda: ~np.isfinite(rows).all(axis=1), "non-finite value at line {}"),
                (1, lambda: steps <= 0, "timestamps must be strictly increasing (line {})"),
                (1, lambda: steps == np.inf, "non-finite time step at line {}"),
                (1, lambda: abs(steps - dt) > 1e-9 * abs(dt), "non-uniform spacing at line {}")):
            bad = rule()  # one mask alive at a time keeps peak memory low
            if bad.any():
                faults.append((int(bad.argmax()) + shift, message))
    return min(faults, key=lambda f: f[0], default=None)  # ties go to the earlier rule


def _raise_bad_line(path: str, schema: str, limit: int | None = None) -> NoReturn:
    """Raise the error naming the first bad line of a CSV ``ingest_csv`` rejected.

    Reads the lines again, up to ``limit`` data rows, in blocks of
    ``_LOCATE_BLOCK`` that ``np.loadtxt`` parses.  Only a block it rejects is
    parsed line by line, up to its first line with invalid UTF-8, a wrong
    column count or an unparseable cell.  Then ``_row_fault`` says whether a
    row before that stop breaks a row rule, which comes first in file order.
    """
    error = f"could not parse {path}"  # only if loadtxt and the line parse disagree
    try:
        # An undecodable byte reads as a lone surrogate, which no valid text
        # holds; no such byte is a newline, so lines split as in strict decoding.
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            lines = ((lineno, line) for lineno, line in enumerate(fh, start=1)
                     if not line.isspace())
            first = next(lines, None)
            if first is None:
                raise IngestError(f"empty file: {path}")
            if _is_utf8(first[1]) and _floats(_fields(first[1])) is None:  # header
                first = next(lines, None)
                if first is None:
                    raise IngestError(f"empty file: {path} (header only)")
            if not _is_utf8(first[1]):
                raise IngestError(f"invalid UTF-8 at line {first[0]}")
            want = _SCHEMA_COLUMNS.get(schema, len(_fields(first[1])))
            if want not in (1, 2):
                raise IngestError(f"expected 1 or 2 columns, found {want} at line {first[0]}")
            parsed, numbers = array("d"), array("q")  # 8 bytes per cell and per line
            data = itertools.islice(itertools.chain([first], lines), limit)
            while block := list(itertools.islice(data, _LOCATE_BLOCK)):
                linenos, text = zip(*block)
                try:
                    rows, stop = np.loadtxt(text, delimiter=",", comments=None, ndmin=2), None
                except ValueError:
                    rows = None
                if rows is None or rows.shape != (len(block), want):
                    rows, stop = _scan_lines(block, want)
                parsed.frombytes(rows.tobytes())
                numbers.extend(linenos[:len(rows)])
                if stop is not None:
                    error = stop
                    break
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    fault = _row_fault(np.frombuffer(parsed, dtype=np.float64).reshape(-1, want))
    if fault is not None:
        error = fault[1].format(numbers[fault[0]])
    raise IngestError(error)


def _scan_lines(block, want: int) -> tuple[np.ndarray, str | None]:
    """The rows of ``(lineno, line)`` pairs before the first bad line, and its error or None."""
    parsed = array("d")
    stop = None
    for lineno, line in block:
        fields = _fields(line)
        text = ",".join(fields)  # in loadtxt's grammar no cell holds "_" or non-ASCII
        if not _is_utf8(line):
            stop = f"invalid UTF-8 at line {lineno}"
        elif len(fields) != want:
            stop = f"expected {want} column(s) at line {lineno}, found {len(fields)}"
        elif not text.isascii() or "_" in text or (cells := _floats(fields)) is None:
            stop = f"could not parse line {lineno}"
        else:
            parsed.extend(cells)
            continue
        break
    return np.frombuffer(parsed, dtype=np.float64).reshape(-1, want), stop


def _is_utf8(line: str) -> bool:
    """False when ``line``, read with ``errors="surrogateescape"``, held an invalid byte."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


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
        series = identities.expansion_rhs(signal, ExpansionSpec(args.n, args.b))
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
    return expansion_kernel(args.n, args.b)


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
    p.add_argument("--grid", type=int, default=DEFAULT_GRID,
                   help=f"grid points on [0, pi], 2 to {MAX_GRID} (default {DEFAULT_GRID})")
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
