"""cli-csv-10x100k: the macdkit CLI, one fresh process per command.

The seeded series is 1,000,000 rows of epoch-second ``time,value`` CSV, cut
into ten consecutive 100,000-row files.  A round makes one pass per file,
running ``compute macd`` and ``verify`` on it, so each command runs ten times
spread over the round, and its time is the fastest of the ten.  ``spectrum``
runs at passes 0, 3, 6 and 9.

Untraced, every command is ``python -m macdkit ...`` in its own process, so
interpreter start, import, CSV parsing and formatting are all timed as a
user sees them.  Traced, the same argument lists go to ``macdkit.cli.main``
in this process so that spans can nest under each command.
"""

from __future__ import annotations

import io
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import macdkit.cli
from common import (FAULT_SEED, GATE, ar1_walk, macd_magnitude, median, read_csv, rel_mismatch,
                    require, spot_indices, window_mean)

K = 12           # compute macd -k 12
SPECTRUM_K = 256
VERIFY_LINES = 7  # verify runs seven checks at its defaults
FAULT_MS = ("epoch-millisecond timestamps are rejected at ingest as non-uniform spacing "
            "(ROADMAP item 4, bug 2); after that, identity alignment fails (bug 1)")


def write_csv(path, times: np.ndarray, values: np.ndarray) -> None:
    """time,value CSV with shortest round-trip float text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time,value\n")
        fh.write("".join(f"{t!r},{v!r}\n" for t, v in zip(times.tolist(), values.tolist())))


class CliWorkload:
    def __init__(self, ctx):
        self.ctx = ctx
        self.work = ctx.work
        self.series_csv = os.path.join(ctx.work, "macd.csv")
        self.spectrum_csv = os.path.join(ctx.work, "spectrum.csv")
        self.epoch_ms_csv = os.path.join(ctx.work, "input_epoch_ms.csv")
        self.grid = ctx.size["cli_grid"]

    def prepare(self) -> None:
        size = self.ctx.size
        n, pieces = size["n"], size["pieces"]
        rng = np.random.default_rng(self.ctx.seed)
        self.n = n
        t0 = float(1_700_000_000 + int(rng.integers(0, 1_000_000)))
        x = ar1_walk(n * pieces, rng)
        t = t0 + np.arange(n * pieces, dtype=np.float64)
        self.files = []
        for p in range(pieces):
            path = os.path.join(self.work, f"input_{p}.csv")
            part = slice(p * n, (p + 1) * n)
            write_csv(path, t[part], x[part])
            spots = spot_indices(rng, 0, n - 2 * K + 1, size["spots"] // pieces)
            self.files.append((path, float(t[p * n]), x[part].tolist(), spots))
        fault = ar1_walk(n, np.random.default_rng(FAULT_SEED))
        write_csv(self.epoch_ms_csv, 1.7e9 + np.arange(n) * 1e-3, fault)

    def _cli(self, argv: list[str]):
        """Run one CLI command; return (exit code, stdout, stderr)."""
        if self.ctx.tracer.enabled:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = macdkit.cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run([sys.executable, "-m", "macdkit", *argv], env=self.ctx.env,
                              cwd=self.ctx.root, capture_output=True, text=True, timeout=170)
        return proc.returncode, proc.stdout, proc.stderr

    def _fresh(self, output: str, argv: list[str]):
        """Run a command that writes ``output``, with no stale copy left to check."""
        if os.path.exists(output):
            os.remove(output)
        return self._cli(argv)

    def round(self, ledger) -> None:
        for p, (path, t0, xs, spots) in enumerate(self.files):
            ledger.op("compute", lambda: self._fresh(self.series_csv, [
                "compute", "macd", path, "-k", str(K), "-o", self.series_csv]),
                lambda r: self._check_compute(ledger, r, path, t0, xs, spots))
            ledger.op("verify", lambda: self._cli(["verify", path]),
                      lambda r: self._check_verify(ledger, r, path))
            if p % 3 == 0:  # passes 0, 3, 6 and 9
                ledger.op("spectrum", lambda: self._fresh(self.spectrum_csv, [
                    "spectrum", "macd", "-k", str(SPECTRUM_K), "--grid", str(self.grid),
                    "-o", self.spectrum_csv]),
                    lambda r: self._check_spectrum(ledger, r))
            self.ctx.idle()
        ledger.op("verify_epoch_ms", lambda: self._cli(["verify", self.epoch_ms_csv]),
                  lambda r: self._check_verify(ledger, r, self.epoch_ms_csv), fault=FAULT_MS)
        if self.ctx.tracer.enabled:
            ledger.count("cli.process_s", self._process_seconds())

    @staticmethod
    def _exit_ok(result) -> str:
        code, out, err = result
        require(code == 0, f"exit code {code}: {err.strip()[-200:]}")
        return out

    def _check_compute(self, ledger, result, path, t0, xs, spots) -> None:
        self._exit_ok(result)
        with open(self.series_csv, encoding="utf-8") as fh:
            require(fh.readline().strip() == "time,value", "series CSV header")
        data = read_csv(self.series_csv)
        t, v = data[:, 0], data[:, 1]
        m = self.n - 2 * K + 1
        require(len(v) == m, f"{len(v)} rows written, expected n - 2k + 1 = {m}")
        require(t[0] == t0 + (2 * K - 1), f"series starts at {t[0]!r}, expected t0 + (2k-1)dt")
        require(bool(np.all(np.diff(t) == 1.0)), "series timestamps not spaced by dt")
        want = [window_mean(xs, j + 2 * K - 1, K) - window_mean(xs, j + 2 * K - 1, 2 * K)
                for j in spots]
        err = rel_mismatch(v[spots], want)
        require(err <= GATE, f"macd values off the fsum window means by {err:.3g} relative")
        ledger.count("cli.bytes_read", os.path.getsize(path))
        ledger.count("cli.ingest_rows", self.n)
        ledger.count("cli.bytes_written", os.path.getsize(self.series_csv))

    def _check_verify(self, ledger, result, path) -> None:
        out = self._exit_ok(result)
        lines = [line for line in out.splitlines() if line.startswith("check ")]
        require(len(lines) == VERIFY_LINES, f"{len(lines)} check lines, expected {VERIFY_LINES}")
        bad = [line for line in lines if not line.endswith("pass=true")]
        require(not bad, f"failing check line: {bad[:1]}")
        require("overall: pass" in out, "no 'overall: pass' line")
        ledger.count("cli.bytes_read", os.path.getsize(path))
        ledger.count("cli.ingest_rows", self.n)

    def _check_spectrum(self, ledger, result) -> None:
        out = self._exit_ok(result)
        require("bandpass: pass=true" in out, "band-pass verdict missing or failed")
        data = read_csv(self.spectrum_csv)
        omega, mag = data[:, 0], data[:, 1]
        require(len(omega) == self.grid, f"{len(omega)} spectrum rows, expected {self.grid}")
        require(bool(np.array_equal(omega, np.linspace(0.0, np.pi, self.grid))),
                "frequency grid is not linspace(0, pi, grid)")
        require(mag[0] <= 1e-14, f"|H(0)| = {mag[0]:.3g} exceeds 1e-14")
        dev = float(np.max(np.abs(mag - macd_magnitude(SPECTRUM_K, omega))))
        require(dev <= GATE, f"|H| deviates from the closed form by {dev:.3g}")
        ledger.count("cli.bytes_written", os.path.getsize(self.spectrum_csv))

    def _process_seconds(self) -> float:
        """Interpreter start, import and argument parsing of one CLI process.

        The CLI prints ``wall_time_s`` from just after argument parsing, so
        the process's wall time minus that figure is the start-up share.
        """
        tiny = os.path.join(self.work, "tiny.csv")
        argv = [sys.executable, "-m", "macdkit", "spectrum", "avg", "-k", "1", "--grid", "2",
                "-o", tiny]
        shares = []
        for _ in range(3):
            started = time.perf_counter()
            proc = subprocess.run(argv, env=self.ctx.env, cwd=self.ctx.root,
                                  capture_output=True, text=True, timeout=60)
            wall = time.perf_counter() - started
            found = re.search(r"wall_time_s: ([0-9.]+)", proc.stdout)
            if proc.returncode == 0 and found:
                shares.append(wall - float(found.group(1)))
        return median(shares)

    def macd_rate(self, rnd) -> float:
        return rnd.family_rate("compute", self.n)

    def details(self, rnd) -> dict:
        return {
            "cli_compute_rows_per_s": (rnd.family_rate("compute", self.n), "rows/s"),
            "cli_verify_rows_per_s": (rnd.family_rate("verify", self.n), "rows/s"),
            "cli_spectrum_s": (rnd.family_seconds("spectrum"), "s"),
        }
