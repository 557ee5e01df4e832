"""Command-line front end: CSV in, indicators, identity reports, spectra out.

Subcommands
-----------
compute   write an indicator series (avg | macd | expansion) as time,value CSV
verify    run identity checks and print one record line per check
classify  label the local trend at one index
spectrum  write a kernel transfer function as omega,magnitude,phase CSV

Exit codes: 0 success, 1 verification failure, 2 input or usage error.

Input CSV is read once, in blocks of ``_READ_BLOCK`` lines, so ingest holds
8 bytes per cell plus one block of text; ``ingest_csv`` gives the grammar.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from array import array

import numpy as np

from . import identities
from .kernels import box_kernel, expansion_kernel, macd_kernel, triangular_kernel
from .operators import macd, right_avg
from .signals import ExpansionSpec, UniformSignal
from .spectral import DEFAULT_GRID, MAX_GRID, bandpass_check, transfer_function

__all__ = ["main", "ingest_csv", "IngestError"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

_WRITE_BLOCK = 65536  # rows formatted per write
_READ_BLOCK = 8192  # lines per np.loadtxt call
# Input layouts and their column counts; "auto" takes the first data row's count.
_SCHEMA_COLUMNS = {"auto": None, "value-only": 1, "time-value": 2}


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
    data cell is a finite ASCII decimal float; Unicode whitespace around it,
    such as U+00A0 or U+3000, is stripped.  A cell holding ``_`` or any other
    non-ASCII character, such as ``1_000``, is rejected as unparseable with
    its line number, and a line holding a byte that is not valid UTF-8 as
    ``invalid UTF-8 at line N``.  In time,value form the timestamps must be
    strictly increasing and uniformly spaced within 1e-9 relative; value-only
    input gets ``dt = 1`` and ``t0 = 0``.

    The file is read once, in blocks of ``_READ_BLOCK`` lines whose non-blank
    lines ``np.loadtxt`` parses.  A block it rejects is parsed line by line, up
    to its first line with invalid UTF-8, a wrong column count or an
    unparseable cell, and the read stops there.  ``_row_fault`` checks each
    block's rows, with the row before them, against the file's first time
    step, so a row that breaks a row rule also stops the read; before a
    parse stop in the same block, it comes first in file order.  Ingest
    holds 8 bytes per cell plus one block of text.
    """
    if schema not in _SCHEMA_COLUMNS:
        raise IngestError(f"unknown schema {schema!r}")
    parsed = array("d")
    stop = None
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
            start, line = first
            if not _is_utf8(line):
                raise IngestError(f"invalid UTF-8 at line {start}")
            want = _SCHEMA_COLUMNS[schema] or len(_fields(line))
            if want not in (1, 2):
                raise IngestError(f"expected 1 or 2 columns, found {want} at line {start}")
            last = np.empty((0, want))  # the row before this block, whose steps it checks
            # ``lines`` has read no further than ``first``, so blocks go on from ``fh``.
            block = [line, *itertools.islice(fh, _READ_BLOCK - 1)]
            while block:
                text = list(itertools.filterfalse(str.isspace, block))
                linenos = None if len(text) == len(block) else array(
                    "q", (start + i for i, raw in enumerate(block) if not raw.isspace()))
                if text:  # np.loadtxt warns on a block of blank lines only
                    try:
                        rows = np.loadtxt(text, delimiter=",", comments=None, ndmin=2)
                    except ValueError:
                        rows = None
                    if rows is None or rows.shape != (len(text), want):
                        rows, stop = _scan_lines(
                            zip(linenos or range(start, start + len(text)), text), want)
                        # Only if loadtxt and the line parse disagree.
                        stop = stop or f"could not parse {path}"
                    parsed.frombytes(rows.tobytes())
                    dt = parsed[2] - parsed[0] if want == 2 and len(parsed) >= 4 else 1.0
                    fault = _row_fault(np.concatenate([last, rows]), dt)
                    if fault is not None:  # a row before the parse stop comes first
                        row, message = fault[0] - len(last), fault[1]
                        stop = message.format(start + row if linenos is None else linenos[row])
                    if stop is not None:
                        break
                    last = rows[-1:].copy()
                start += len(block)
                block = text = rows = None  # free this block's text before reading the next
                block = list(itertools.islice(fh, _READ_BLOCK))
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    if stop is not None:
        raise IngestError(stop)
    rows = np.frombuffer(parsed, dtype=np.float64).reshape(-1, want)
    if want == 1:
        return UniformSignal(0.0, 1.0, rows[:, 0])
    t = rows[:, 0]
    return UniformSignal(t[0], t[1] - t[0] if t.size > 1 else 1.0, rows[:, 1])


def _row_fault(rows: np.ndarray, dt: float) -> tuple[int, str] | None:
    """The first row of ``(value,)`` or ``(time, value)`` rows that breaks a rule.

    Returns ``(row, message)`` or None; ``message`` takes a line number via
    ``str.format``.  On one row the rules rank in the order listed.  Each time
    step must be within 1e-9 relative of ``dt``, so a verdict on a row reads
    only ``dt`` and the rows up to it.
    """
    faults = []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing step is a fault
        steps = np.diff(rows[:, 0]) if rows.shape[1] == 2 else rows[:0, 0]
        for shift, rule, message in (
                (0, lambda: ~np.isfinite(rows).all(axis=1), "non-finite value at line {}"),
                (1, lambda: steps <= 0, "timestamps must be strictly increasing (line {})"),
                (1, lambda: steps == np.inf, "non-finite time step at line {}"),
                (1, lambda: abs(steps - dt) > 1e-9 * abs(dt), "non-uniform spacing at line {}")):
            bad = rule()  # one mask alive at a time keeps peak memory low
            if bad.any():
                faults.append((int(bad.argmax()) + shift, message))
    return min(faults, key=lambda f: f[0], default=None)  # ties go to the earlier rule


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


# The indicators and kernels the CLI offers, each as (signal, args) -> (series, tag)
# or args -> kernel.  A lambda looks its function up when called, so a name
# rebound in this module, such as a tracing wrapper, is the one that runs.
_INDICATORS = {
    "avg": lambda signal, a: (right_avg(signal, a.window), f"avg k={a.window}"),
    "macd": lambda signal, a: (macd(signal, a.window), f"macd k={a.window}"),
    "expansion": lambda signal, a: (identities.expansion_rhs(signal, ExpansionSpec(a.n, a.b)),
                                    f"expansion n={a.n} b={a.b}"),
}
_KERNELS = {
    "avg": lambda a: box_kernel(a.window),
    "macd": lambda a: macd_kernel(a.window),
    "triangle": lambda a: triangular_kernel(a.window),
    "expansion": lambda a: expansion_kernel(a.n, a.b),
}


def _cmd_compute(args, out) -> int:
    signal = ingest_csv(args.input, args.schema)
    series, tag = _INDICATORS[args.indicator](signal, args)
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


def _cmd_spectrum(args, out) -> int:
    kernel = _KERNELS[args.kernel](args)
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
        p.add_argument("--schema", choices=_SCHEMA_COLUMNS,
                       default="auto", help="input CSV layout (default: auto)")
        if output_required:
            p.add_argument("--output", "-o", required=True, help="output CSV path")

    p = sub.add_parser("compute", help="write an indicator series")
    p.add_argument("indicator", choices=_INDICATORS)
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
    p.add_argument("kernel", choices=_KERNELS)
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
    except (ValueError, OSError) as exc:  # IngestError and every rejected parameter
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    print(f"wall_time_s: {time.perf_counter() - started:.3f}", file=out)
    return code


if __name__ == "__main__":
    sys.exit(main())
