"""Command-line front end: CSV in, indicators, identity reports, spectra out.

Subcommands
-----------
compute   write an indicator series (avg | macd | expansion) as time,value CSV
verify    run identity checks and print one record line per check
classify  label the local trend at one index
spectrum  write a kernel transfer function as omega,magnitude,phase CSV

Exit codes: 0 success, 1 verification failure, 2 input or usage error, or a
result too large to allocate (``MemoryError``).

Input CSV is value-only or time,value, as its first data row has 1 or 2 columns.
``ingest_csv`` gives the grammar.  One ``np.loadtxt`` pass over the path parses
an accepted regular file, and a pipe is scanned line by line as it streams; ingest
holds the rows, 8 bytes per cell, and no list of the lines.

Output CSV is the text ``%.17g`` gives, so it re-ingests bit for bit.  numpy
computes its digits ``_WRITE_BLOCK`` rows at a time (``_csv_text``); only a
value that block arithmetic cannot decide, such as a 17-digit rounding tie or
a subnormal, is formatted alone by ``_fmt``.
"""

import argparse
import functools
import itertools
import os
import stat
import sys
import time
from collections.abc import Iterable

import numpy as np

from . import identities
from .kernels import box_kernel, expansion_kernel, macd_kernel, triangular_kernel
from .operators import macd, right_avg
from .signals import ExpansionSpec, UniformSignal
from .spectral import (DEFAULT_GRID, MAX_GRID, NotDifferenceKernelError, bandpass_check,
                       transfer_function)

__all__ = ["main", "ingest_csv", "IngestError"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

_WRITE_BLOCK = 2048  # rows formatted and written per block


# The block formatter ``_csv_text``.  Its scaling is exact to the tie guard
# for |x| in [_FAST_MIN, _FAST_MAX], where every 10**p it needs has a normal
# low part and no product overflows.
_FAST_MIN, _FAST_MAX = 1e-270, 1e290
_TIE_GUARD = 1e-10  # scaled values this close to a tie go to ``_fmt``
_SPLIT = 2.0**27 + 1  # Dekker's splitter


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


def ingest_csv(path: str) -> UniformSignal:
    """Read a signal from CSV in value-only or time,value form.

    Empty and whitespace-only lines are blank and skipped.  The first other
    line is a header when some field of it does not parse as a float.  The
    first data row's column count, 1 or 2, sets the layout.  Each
    data cell is a finite ASCII decimal float; Unicode whitespace around it,
    such as U+00A0 or U+3000, is stripped.  A cell holding ``_`` or any other
    non-ASCII character, such as ``1_000``, is rejected as unparseable with
    its line number, and a line holding a byte that is not valid UTF-8 as
    ``invalid UTF-8 at line N``.  A UTF-8 byte-order mark (U+FEFF) that
    opens the file is skipped; anywhere else it is a non-ASCII character
    like any other.  In time,value form the timestamps must be strictly
    increasing and uniformly spaced within 1e-9 relative; value-only input
    gets ``dt = 1`` and ``t0 = 0``.

    The first non-blank lines decide the header and the layout.  Then one
    ``np.loadtxt`` pass over the path parses every data row; it skips empty
    lines itself.  A file it rejects, such as one with a whitespace-only
    line, is parsed once more from a stream of its non-blank lines, and only
    a file rejected again is scanned line by line (``_scan_lines``), up to
    its first line with invalid UTF-8, a wrong column count or an
    unparseable cell.  Input that is not a regular file, such as a pipe or
    ``/dev/stdin``, reads only once, so its lines from the first data row on
    go straight to ``_scan_lines``.  One ``_row_fault`` call checks all the
    rows read.  The first fault in file order, a broken row rule or a bad
    line, raises ``IngestError`` with that line's number, which the scan's
    line shifts give, or else one more streamed pass over the lines.  Ingest
    holds 8 bytes per cell and no list of the file's lines.
    """
    try:
        # An undecodable byte reads as a lone surrogate, which no valid text
        # holds; no such byte is a newline, so lines split as in strict decoding.
        # "utf-8-sig" drops a byte-order mark at the start of the file only.
        with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
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
            want = len(_fields(line))
            if want not in (1, 2):
                raise IngestError(f"expected 1 or 2 columns, found {want} at line {start}")

            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)  # a pipe reads once

            def data_lines():  # the non-blank lines from the first data row on, numbered
                if not regular:  # the one pass goes on from the first data row
                    return itertools.chain([first], lines)
                fh.seek(0)
                return ((lineno, line) for lineno, line in
                        itertools.islice(enumerate(fh, start=1), start - 1, None)
                        if not line.isspace())

            # numpy opens a path by its suffix, so it would read "a.csv.gz" as gzip, and
            # a name that parses as a URL, such as "s3://b/a.csv", as one.
            rows = None
            if regular and not str(path).endswith((".gz", ".bz2", ".xz", ".lzma")):
                rows = _loadtxt(os.path.abspath(path), skiprows=start - 1, encoding="utf-8-sig")
            if regular and (rows is None or rows.shape[1] != want):
                rows = _loadtxt(line for _, line in data_lines())
            bad, shifts = None, []
            if rows is None or rows.shape[1] != want:
                rows, bad = _scan_lines(data_lines(), want, shifts)
            dt = rows[1, 0].item() - rows[0, 0].item() if want == 2 and len(rows) >= 2 else 1.0
            fault = _row_fault(rows, dt) or bad  # a row before the bad line comes first
            if fault is not None:
                i = fault[0]
                lineno = ([i + shift for j, shift in shifts if j <= i][-1] if shifts
                          else next(itertools.islice(data_lines(), i, None))[0])
                raise IngestError(fault[1].format(lineno))
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    return UniformSignal(rows[0, 0] if want == 2 else 0.0, dt, rows[:, want - 1])


def _loadtxt(source, **kwargs) -> np.ndarray | None:
    """The rows ``np.loadtxt`` parses from ``source``, a path or lines, or None if it
    rejects them (a ``UnicodeDecodeError`` is a ``ValueError``)."""
    try:
        return np.loadtxt(source, delimiter=",", comments=None, ndmin=2, **kwargs)
    except ValueError:
        return None


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
                (0, lambda: ~(np.isfinite(rows[:, 0]) & np.isfinite(rows[:, -1])),
                 "non-finite value at line {}"),
                (1, lambda: steps <= 0, "timestamps must be strictly increasing (line {})"),
                (1, lambda: steps == np.inf, "non-finite time step at line {}"),
                (1, lambda: abs(steps - dt) > 1e-9 * abs(dt), "non-uniform spacing at line {}")):
            bad = rule()  # one mask alive at a time keeps peak memory low
            if bad.any():
                faults.append((int(bad.argmax()) + shift, message))
    return min(faults, key=lambda f: f[0], default=None)  # ties go to the earlier rule


def _scan_lines(lines: Iterable[tuple[int, str]], want: int,
                shifts: list[tuple[int, int]]) -> tuple[np.ndarray, tuple[int, str] | None]:
    """The rows of numbered ``lines`` before the first bad one, and its ``(index, message)``
    or None.

    ``message`` takes the bad line's number via ``str.format``, as ``_row_fault``'s does.
    ``shifts`` gains ``(index, lineno - index)`` at the first line and at each one after
    skipped lines, so row ``index`` is on line ``index + shift``, with the ``shift`` of
    the last entry at or before ``index``.  ``np.fromiter`` trims its buffer to the cells it
    took, so the rows hold no spare room.
    """
    bad = []  # the first bad line's (index, message), once the scan meets it

    def cells():
        for i, (lineno, line) in enumerate(lines):
            if not shifts or shifts[-1][1] != lineno - i:
                shifts.append((i, lineno - i))
            fields = _fields(line)
            text = ",".join(fields)  # in loadtxt's grammar no cell holds "_" or non-ASCII
            if not _is_utf8(line):
                message = "invalid UTF-8 at line {}"
            elif len(fields) != want:
                message = f"expected {want} column(s) at line {{}}, found {len(fields)}"
            elif not text.isascii() or "_" in text or (row := _floats(fields)) is None:
                message = "could not parse line {}"
            else:
                yield from row
                continue
            bad.append((i, message))
            return

    return np.fromiter(cells(), np.float64).reshape(-1, want), next(iter(bad), None)


def _is_utf8(line: str) -> bool:
    """False when ``line``, read with ``errors="surrogateescape"``, held an invalid byte."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _write_csv(path: str, header: str, columns) -> None:
    """Write equal-length float columns as ``%.17g`` CSV rows that re-ingest bit for bit.

    17 significant digits round-trip every float64.  ``_csv_text`` computes
    the same bytes as ``%.17g`` with numpy, ``_WRITE_BLOCK`` rows at a time,
    and each block's text is written before the next is formatted, so the
    writer holds about 320 bytes per cell of one block (1.3 MB at two
    columns) beyond the columns themselves.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(0, len(columns[0]), _WRITE_BLOCK):
            cells = np.column_stack([c[i:i + _WRITE_BLOCK] for c in columns])
            fh.write(_csv_text(cells.ravel(), len(columns)))


def _csv_text(cells: np.ndarray, width: int) -> str:
    """``%.17g`` CSV text of row-major ``cells``, ``width`` cells to a line.

    A finite ``x`` with ``_FAST_MIN <= |x| <= _FAST_MAX`` is scaled to
    ``|x|·10^(16−e)``, ``e = floor(log10|x|)``, as a double-double product
    (Dekker 1971), correct to about 1e-14 of its 17th digit.  Rounding it
    gives the 17 digits ``%g`` prints, unless it lies within ``_TIE_GUARD``
    of a tie.  Such a value, and a subnormal, non-finite or out-of-range one,
    is formatted by ``_fmt``.  Each cell fills one 48-byte row of a matrix:
    sign, a "0.000" prefix, the digits with a point slot after each, "e±ddd"
    and the separator.  Unused bytes stay 0 and are dropped.
    """
    a = np.abs(cells)
    zero = a == 0
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a = np.where(fast, a, 1.0)  # zeros then scale to 1e16 at e = 0
    e = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, e)
    off = np.flatnonzero((whole < 10**16) | (whole >= 10**17))
    if off.size:  # log10 was one off, next to a power of ten
        e[off] += np.where(whole[off] < 10**16, -1, 1)
        whole[off], frac[off] = _scaled(a[off], e[off])
        # Out on the other side: the product is 10**16 at the larger exponent
        # to within its error, so both exponents round to those digits.
        edge = off[(whole[off] < 10**16) | (whole[off] >= 10**17)]
        e[edge] += whole[edge] >= 10**17
        whole[edge], frac[edge] = 10**16, 0.0
    slow = np.flatnonzero(~(fast | zero) | (abs(frac - 0.5) < _TIE_GUARD))
    whole += frac > 0.5
    high = whole // 10**8  # the first 9 of the 17 digits
    low = (whole - high * 10**8).astype(np.uint32)
    carry = high == 10**9  # rounded up to 10**17
    high[carry] = 10**8
    e += carry
    lead = high // 10**8
    high = (high - lead * 10**8).astype(np.uint32)

    rest = np.where(low == 0, high, low)  # the trailing zeros are 8·(low == 0) + rest's
    zeros = 8 * (low == 0) + 8 * (rest == 0)
    rest[rest == 0] = 1
    for step, count in ((10**4, 4), (10**2, 2), (10, 1)):
        fewer = rest // step
        exact = fewer * step == rest
        rest = np.where(exact, fewer, rest)
        zeros += exact * count
    fixed = (e >= -4) & (e < 17)
    shown = np.where(fixed, np.maximum(17 - zeros, e + 1), 17 - zeros)  # integer zeros stay
    point = np.where(fixed, e, 0)  # the point follows this digit, if one is shown after it
    point[(shown <= point + 1) | (point < 0)] = -1

    halves = np.stack([high, low])
    quads = np.empty((4, cells.size), np.uint32)  # digits 1-4, 5-8, 9-12, 13-16
    quads[0::2] = halves // 10**4
    quads[1::2] = halves - quads[0::2] * 10**4
    pairs = np.empty((8, cells.size), np.intp)
    pairs[0::2] = quads // 100
    pairs[1::2] = quads - pairs[0::2] * 100
    head, pair_text, layout, tail = _text_tables()
    pairs += np.take(layout, shown * 18 + point + 1, axis=1)
    text = np.empty((cells.size, 6), np.uint64)  # 48 bytes a cell
    text[:, 0] = head[np.signbit(cells) + 2 * np.where(fixed & (e < 0), -e, 0)
                      + 10 * np.where(zero, 0, lead) + 100 * (point == 0)]
    text.view(np.uint32)[:, 2:10] = pair_text[pairs].T
    newline = np.zeros(cells.size, np.intp)
    newline[width - 1::width] = 1
    text[:, 5] = tail[newline + 2 * np.where(fixed, 0, e + 325)]
    text = text.view(np.uint8)
    for i in slow.tolist():
        cell = _fmt(float(cells[i])).encode("ascii") + text[i, 45:46].tobytes()
        text[i] = 0
        text[i, :len(cell)] = np.frombuffer(cell, np.uint8)
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floor and fraction of ``a·10^(16−e)`` from a double-double product.

    ``a·hi`` splits exactly into ``p + err`` (Dekker's product), and ``p`` is
    an integer once it passes 2**53.
    """
    scale = 16 - e
    first = int(scale.min())  # the powers of ten the block spans, by row
    powers = np.array([_pow10(q) for q in range(first, int(scale.max()) + 1)]).T
    hi, hi_high, hi_low, lo = np.take(powers, scale - first, axis=1)
    c = a * _SPLIT
    a_high = c - (c - a)
    a_low = a - a_high
    p = a * hi
    tail = ((a_high * hi_high - p) + a_high * hi_low + a_low * hi_high) + a_low * hi_low + a * lo
    floor = np.floor(tail)
    return p.astype(np.int64) + floor.astype(np.int64), tail - floor


@functools.cache
def _pow10(q: int) -> tuple[float, float, float, float]:
    """``hi + lo`` is ``10**q`` to about 2**-107 relative; ``hi_high + hi_low`` is ``hi``
    split for Dekker's product.  Integer arithmetic, correctly rounded by Python, gives both."""
    if q >= 0:
        hi = float(10**q)
        lo = float(10**q - int(hi))
    else:  # hi = m / k exactly, so 10**q - hi = (k - m·10**-q) / (10**-q · k)
        hi = 1 / 10**-q
        m, k = hi.as_integer_ratio()
        lo = (k - m * 10**-q) / (10**-q * k)
    c = hi * _SPLIT
    return hi, c - (c - hi), hi - (c - (c - hi)), lo


@functools.cache
def _text_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The text pieces ``_csv_text`` gathers, NUL where a byte is blank.

    - ``head[sign + 2·k + 10·lead + 100·point]``, 8 bytes: "-", the
      "0." and ``k − 1`` zeros of ``e = −k``, the lead digit and a point;
    - ``pair_text[pair + 100·dropped + 300·point]``, 4 bytes: the tens, a
      point after them (``point`` 1), the units and a point after them (2),
      with ``dropped`` digits blanked from the right;
    - ``layout[18·shown + point + 1]``, the ``100·dropped + 300·point`` of the
      8 pairs when ``shown`` digits show and the point follows digit
      ``point`` (−1 for none);
    - ``tail[newline + 2·(e + 325)]``, 8 bytes: "e±dd" or "e±ddd" and the
      separator; ``e + 325`` is 0 for no exponent.
    """
    head = b"".join(bytes([45 * sign]) + b"0.000"[:k + 1 if k else 0].ljust(5, b"\0")
                    + bytes([48 + lead, 46 * point])
                    for point in range(2) for lead in range(10) for k in range(5)
                    for sign in range(2))
    pair_text = b"".join(bytes([(48 + pair // 10) * (dropped < 2), 46 * (point == 1),
                                (48 + pair % 10) * (dropped < 1), 46 * (point == 2)])
                         for point in range(3) for dropped in range(3) for pair in range(100))
    k = np.arange(1, 9)
    shown, point = np.divmod(np.arange(18 * 18), 18)
    point = point[:, None] - 1
    layout = (100 * np.clip(2 * k + 1 - shown[:, None], 0, 2)
              + 300 * ((point == 2 * k - 1) + 2 * (point == 2 * k)))
    tail = b"".join((b"" if e == -325 else b"e%+03d" % e).ljust(5, b"\0") + sep + b"\0\0"
                    for e in range(-325, 309) for sep in (b",", b"\n"))
    return (np.frombuffer(head, np.uint64), np.frombuffer(pair_text, np.uint32),
            layout.T.astype(np.intp), np.frombuffer(tail, np.uint64))


def write_series_csv(path: str, signal: UniformSignal) -> None:
    """Write a signal as time,value rows with round-trippable precision."""
    _write_csv(path, "time,value", (signal.times(), signal.values))


def _digest_line(signal: UniformSignal) -> str:
    return (
        f"input: samples={len(signal)} dt={_fmt(signal.dt)} "
        f"min={_fmt(float(signal.values.min()))} max={_fmt(float(signal.values.max()))}"
    )


def _check_line(r: identities.ResidualReport) -> str:
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


def _cmd_compute(args) -> int:
    signal = ingest_csv(args.input)
    series, tag = _INDICATORS[args.indicator](signal, args)
    write_series_csv(args.output, series)
    print(_digest_line(signal))
    print(f"wrote {len(series)} samples of {tag} to {args.output}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    signal = ingest_csv(args.input)
    names = None
    if args.checks != "all":
        names = [c.strip() for c in args.checks.split(",") if c.strip()]
        for c in names:
            if c not in identities.CHECKS:
                raise IngestError(f"unknown check name {c!r}; choose from "
                                  f"{', '.join(identities.CHECKS)} or 'all'")
        if not names:
            raise IngestError("no checks selected")
    print(_digest_line(signal))
    records = identities.run_checks(signal, names, window=args.window,
                                    long_window=args.long_window, n=args.n, b=args.b,
                                    tol=args.tol)
    for record in records:
        print(_check_line(record))
    code = (EXIT_INPUT_ERROR if any(r.required is not None for r in records)
            else EXIT_OK if all(r.passed for r in records) else EXIT_CHECK_FAILED)
    print(f"overall: {'pass' if code == EXIT_OK else 'fail'}")
    return code


def _cmd_classify(args) -> int:
    signal = ingest_csv(args.input)
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
    print(_digest_line(signal))
    print(f"index={index} label={label.label} margin={_fmt(label.margin)}")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    kernel = _KERNELS[args.kernel](args)
    resp = transfer_function(kernel, args.grid)
    _write_csv(args.output, "omega,magnitude,phase",
               (resp.frequencies, resp.magnitudes, resp.phases))
    print(f"wrote {args.grid}-point spectrum of {kernel.scale_note} to {args.output}")
    try:
        verdict = bandpass_check(resp)
    except NotDifferenceKernelError:  # an averaging kernel has no band to pass
        return EXIT_OK
    print(
        f"bandpass: pass={'true' if verdict.passed else 'false'} "
        f"dc={verdict.dc_magnitude:.6g} peak_omega={verdict.peak_frequency:.6g} "
        f"peak={verdict.peak_magnitude:.6g} nyquist={verdict.nyquist_magnitude:.6g}"
    )
    for reason in verdict.failures:  # one per failed assertion, none on a pass
        print(f"bandpass failure: {reason}")
    return EXIT_OK if verdict.passed else EXIT_CHECK_FAILED


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macdkit",
        description="Box-average operators, identity verification and kernel spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, output_required):
        p.add_argument("input", help="input CSV path")
        if output_required:
            p.add_argument("--output", "-o", required=True, help="output CSV path")

    def add_sizes(p, window="window in samples", block="expansion block in samples",
                  terms=True):
        # The size options several subcommands share; classify takes no --n.
        p.add_argument("--window", "-k", type=int, default=8, help=window)
        if terms:
            p.add_argument("--n", type=int, default=4, help="expansion term count")
        p.add_argument("--b", type=int, default=4, help=block)

    p = sub.add_parser("compute", help="write an indicator series")
    p.add_argument("indicator", choices=_INDICATORS)
    add_io(p, output_required=True)
    add_sizes(p)
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("verify", help="run identity checks")
    add_io(p, output_required=False)
    p.add_argument("--checks", default="all",
                   help=f"comma list from {{{','.join(identities.CHECKS)}}} or 'all'")
    add_sizes(p, "short window in samples")
    p.add_argument("--long-window", type=int, default=12,
                   help="second window (t2 / b) in samples")
    p.add_argument("--tol", type=float, default=1e-12,
                   help="relative residual gate (default 1e-12)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("classify", help="label the local trend at an index")
    add_io(p, output_required=False)
    p.add_argument("--index", default="latest", help="sample index or 'latest'")
    add_sizes(p, "short window in samples", "history extension in samples", terms=False)
    p.add_argument("--tol", type=float, default=None,
                   help="linear-band tolerance (default: 1e-9 * max|signal|)")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("spectrum", help="write a kernel transfer function")
    p.add_argument("kernel", choices=_KERNELS)
    p.add_argument("--output", "-o", required=True, help="output CSV path")
    add_sizes(p)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID,
                   help=f"grid points on [0, pi], 2 to {MAX_GRID} (default {DEFAULT_GRID}); "
                        "2**m + 1 points are fastest")
    p.set_defaults(fn=_cmd_spectrum)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else EXIT_OK
    started = time.perf_counter()
    echoed = argv if argv is not None else sys.argv[1:]
    print(f"command: macdkit {' '.join(echoed)}")
    try:
        code = args.fn(args)
    # IngestError, every rejected parameter, and a size too large to allocate
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    print(f"wall_time_s: {time.perf_counter() - started:.3f}")
    return code
