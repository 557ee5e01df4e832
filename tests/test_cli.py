import argparse
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import macdkit
from macdkit import ExpansionSpec, UniformSignal, expansion_rhs, macd, right_avg, run_checks
from macdkit import cli, identities, macd_kernel, transfer_function
from macdkit.cli import IngestError, ingest_csv, main, write_series_csv

from . import oracles


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


@pytest.fixture
def no_line_scan(monkeypatch):
    """Make any call of the line scanner fail the test: the input must be accepted."""
    def fail(block, *args, **kwargs):
        raise AssertionError(f"the line scanner ran on {list(block)}")

    monkeypatch.setattr(cli, "_scan_lines", fail)


@pytest.fixture
def random_csv(tmp_path, rng):
    values = rng.uniform(-1, 1, 1000)
    path = tmp_path / "random.csv"
    path.write_text("".join(f"{float(v)!r}\n" for v in values))
    return str(path), values


# --- ingestion -----------------------------------------------------------------

def test_ingest_value_only(write):
    sig = ingest_csv(write("v.csv", "1\n2\n3\n"))
    assert sig.values.tolist() == [1.0, 2.0, 3.0]
    assert sig.dt == 1.0
    assert sig.t0 == 0.0


def test_ingest_time_value_with_header(write):
    sig = ingest_csv(write("tv.csv", "t,v\n0,1\n0.5,2\n1.0,3\n"))
    assert sig.dt == pytest.approx(0.5)
    assert sig.t0 == 0.0
    assert sig.values.tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("text, t0, dt, values", [
    ("t,v\n10,1\n10.5,2\n11.0,3\n", 10.0, 0.5, [1.0, 2.0, 3.0]),
    ("\n 1 \n\n2\n", 0.0, 1.0, [1.0, 2.0]),
    ("1.7e9,4\n", 1.7e9, 1.0, [4.0]),
    (" \t\nt,v\n  \n0,1\n\t\n1,2\n \n", 0.0, 1.0, [1.0, 2.0]),
    ("1\n\u00a02\n3\u3000\n", 0.0, 1.0, [1.0, 2.0, 3.0]),
    ("t,v\n0,\u00a01\n1\u3000,2\n\u00a02 ,3\u3000\n", 0.0, 1.0, [1.0, 2.0, 3.0]),
], ids=["header", "blank-lines", "one-row", "whitespace-only-lines", "unicode-padding",
        "unicode-padding-time-value"])
def test_ingest_accepts_well_formed_input_without_the_locator(write, no_line_scan, text, t0, dt,
                                                              values):
    sig = ingest_csv(write("ok.csv", text))
    assert (sig.t0, sig.dt, sig.values.tolist()) == (t0, dt, values)


def test_ingest_whitespace_only_line_is_blank(write, no_line_scan):
    rows = [f"{1.7e9 + 0.25 * i!r},{math.sin(i)!r}" for i in range(50)]
    plain = ingest_csv(write("plain.csv", "time,value\n" + "\n".join(rows) + "\n"))
    rows.insert(20, "  \t ")
    padded = ingest_csv(write("padded.csv", "time,value\n" + "\n".join(rows) + "\n"))
    assert padded.t0.hex() == plain.t0.hex() and padded.dt.hex() == plain.dt.hex()
    assert padded.values.tobytes() == plain.values.tobytes()


@pytest.mark.parametrize("cell", ["1_000", "\u0661", "\uff11"])  # Arabic-Indic and full-width 1
def test_ingest_rejects_underscore_and_non_ascii_cells(write, cell):
    with pytest.raises(IngestError, match="^could not parse line 3$"):
        ingest_csv(write("odd.csv", f"1\n2\n{cell}\n4\n"))
    with pytest.raises(IngestError, match="^could not parse line 4$"):
        ingest_csv(write("odd_tv.csv", f"t,v\n0,1\n1,2\n2,{cell}\n3,4\n"))
    with pytest.raises(IngestError, match="^could not parse line 1$"):
        ingest_csv(write("odd_first.csv", f"{cell}\n2\n"))


def test_ingest_gap_reports_line_number(write):
    with pytest.raises(IngestError, match="non-uniform spacing at line 4"):
        ingest_csv(write("gap.csv", "t,v\n0,1\n1,2\n3,4\n"))
    with pytest.raises(IngestError, match="non-uniform spacing at line 3"):
        ingest_csv(write("gap2.csv", "0,1\n1,2\n3,4\n"))
    # The first bad line in file order wins over a later unparsable one.
    with pytest.raises(IngestError, match="non-uniform spacing at line 4"):
        ingest_csv(write("gap3.csv", "t,v\n0,1\n1,2\n3,4\n4,x\n"))


def test_ingest_non_increasing_timestamps(write):
    with pytest.raises(IngestError, match="strictly increasing"):
        ingest_csv(write("dup.csv", "0,1\n0,2\n1,3\n"))


def test_ingest_non_finite_reports_line_number(write):
    with pytest.raises(IngestError, match="non-finite value at line 2"):
        ingest_csv(write("nan.csv", "1\nnan\n3\n"))
    with pytest.raises(IngestError, match="non-finite value at line 3"):
        ingest_csv(write("inf.csv", "h\n1\ninf\n"))


def test_ingest_rejects_overflowing_time_step(write):
    # 1e308 - (-1e308) overflows to inf; both parsers must name the line.
    for text, lineno in (("-1e308,1\n1e308,2\n", 2), ("t,v\n-1e308,1\n1e308,2\n", 3)):
        path = write("overflow.csv", text)
        for read in (ingest_csv, oracles.naive_ingest):
            with pytest.raises(ValueError, match=f"^non-finite time step at line {lineno}$"):
                read(path)


def test_ingest_empty_file(write):
    with pytest.raises(IngestError, match="empty file"):
        ingest_csv(write("empty.csv", ""))
    with pytest.raises(IngestError, match="empty file"):
        ingest_csv(write("header_only.csv", "time,value\n"))


def test_ingest_column_mismatch(write):
    with pytest.raises(IngestError, match="expected 1 column"):
        ingest_csv(write("mix.csv", "1\n2,3\n"))
    with pytest.raises(IngestError, match="expected 2 column"):
        ingest_csv(write("short.csv", "0,1\n2\n"))
    with pytest.raises(IngestError, match="1 or 2 columns"):
        ingest_csv(write("wide.csv", "1,2,3\n4,5,6\n"))


def test_ingest_unparsable_row(write):
    with pytest.raises(IngestError, match="could not parse line 3"):
        ingest_csv(write("bad.csv", "1\n2\noops\n"))


def test_ingest_first_row_sets_the_layout(write):
    # Two columns read as time,value and one as values at dt = 1; a later
    # row of the other width is a column-count error at its line.
    sig = ingest_csv(write("tv2.csv", "0,5\n1,6\n2,7\n"))
    assert (sig.t0, sig.dt, sig.values.tolist()) == (0.0, 1.0, [5.0, 6.0, 7.0])
    sig = ingest_csv(write("v2.csv", "5\n6\n7\n"))
    assert (sig.t0, sig.dt, sig.values.tolist()) == (0.0, 1.0, [5.0, 6.0, 7.0])
    with pytest.raises(IngestError, match="^expected 1 column\\(s\\) at line 3, found 2$"):
        ingest_csv(write("v2tv.csv", "v\n5\n6,7\n"))


def test_ingest_invalid_utf8_reports_line_number(tmp_path):
    def ingest_bytes(data):
        path = tmp_path / "bytes.csv"
        path.write_bytes(data)
        with pytest.raises(IngestError) as err:
            ingest_csv(str(path))
        return str(err.value)

    # Byte 10,004 sits on line 5,003, past the first 8 KiB decode chunk.
    assert ingest_bytes(b"1\n2\n" + b"3\n" * 5000 + b"\xff\n4\n") == "invalid UTF-8 at line 5003"
    assert ingest_bytes(b"t\xff,v\n0,1\n") == "invalid UTF-8 at line 1"
    assert ingest_bytes(b"t,v\n\n0,\xe9\n1,2\n") == "invalid UTF-8 at line 3"
    # An earlier bad line, or row, comes first in file order.
    assert ingest_bytes(b"1\nx\n\xff\n") == "could not parse line 2"
    assert ingest_bytes(b"t,v\n0,1\n1,2\n3,4\n5,\xff\n") == "non-uniform spacing at line 4"


def test_ingest_skips_a_utf8_byte_order_mark_at_the_start(tmp_path):
    # The mark once made row 1 fail float(), so it was taken as a header and
    # dropped without any error.
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf1.0\n2.0\n3.0\n")
    assert ingest_csv(str(path)).values.tolist() == [1.0, 2.0, 3.0]
    path.write_bytes(b"\xef\xbb\xbf1.0,5\n2.0,6\n3.0,7\n")
    sig = ingest_csv(str(path))
    assert (sig.t0, sig.dt, sig.values.tolist()) == (1.0, 1.0, [5.0, 6.0, 7.0])
    path.write_bytes(b"\xef\xbb\xbft,v\n0,1\n1,2\n")
    assert ingest_csv(str(path)).values.tolist() == [1.0, 2.0]
    # Only the file's first character is a mark; one on a later line is data.
    path.write_bytes(b"1.0\n\xef\xbb\xbf2.0\n3.0\n")
    with pytest.raises(IngestError, match="^could not parse line 2$"):
        ingest_csv(str(path))


@pytest.mark.parametrize("block", [1, 2, 3])
def test_ingest_locator_names_the_same_line_at_any_block_size(write, monkeypatch, block):
    monkeypatch.setattr(cli, "_READ_BLOCK", block)
    cases = ["t,v\n0,1\n1,2\n3,4\n4,x\n", "0,1\n1,2\n2,3\n3,4\n5,5\n",
             "0,1\n1,2\n3,3\n4,x\n", "1\n2\n3\n\n4\n5\n6,7\n", "1\n2\n3\n4\nnan\n",
             "1\n2\n3\n4\n5\n1_0\n", "0,1\n1,2\n2,3\n3,4\n4,5\n4,6\n",
             "0,1\n\n1,2\n2,3\n\n3,4\n5,5\n", "1\n\n\n\n2\n3\nnan\n"]
    for text in cases:
        path = write("blocks.csv", text)
        with pytest.raises(IngestError) as err:
            ingest_csv(path)
        assert outcome(lambda: oracles.naive_ingest(path)) == str(err.value), text
    # Accepted files whose blank lines fill whole blocks: such a block must not
    # reach np.loadtxt, which warns on input with no data.
    accepted = ["1\n2\n\n \n\t\n\n3\n4\n", "t,v\n\n\n\n\n0,1\n1,2\n2,3\n",
                "0,1\n1,2\n2,3\n\n\n \n\n", "\n\n\n\nt,v\n\n\n\n0,1\n\n\n\n1,2\n\n\n\n"]
    for text in accepted:
        path = write("blocks.csv", text)
        expected = outcome(lambda: oracles.naive_ingest(path))
        assert not isinstance(expected, str), text
        assert outcome(lambda: read_ingest(path)) == expected, text


@pytest.mark.parametrize("last, error, scans", [
    (b"99,49.5\n", None, 0),
    (b"100,49.5\n", "non-uniform spacing at line 100", 0),
    (b"99,x\n", "could not parse line 100", 1),
    (b"99,\xff\n", "invalid UTF-8 at line 100", 1),
], ids=["accepted", "late-row-rule", "late-unparseable", "late-invalid-utf8"])
def test_ingest_reads_the_file_once(tmp_path, monkeypatch, last, error, scans):
    """One open per call; np.loadtxt sees each line once; only a rejected block is rescanned."""
    path = tmp_path / "once.csv"
    path.write_bytes("".join(f"{i},{i / 2}\n" for i in range(99)).encode() + last)
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "open", counted("open", open), raising=False)
    monkeypatch.setattr(np, "loadtxt", counted("loadtxt", np.loadtxt))
    monkeypatch.setattr(cli, "_scan_lines", counted("scan", cli._scan_lines))
    for block in (cli._READ_BLOCK, 7):
        monkeypatch.setattr(cli, "_READ_BLOCK", block)
        calls.update(open=0, loadtxt=0, scan=0)
        if error is None:
            assert len(ingest_csv(str(path))) == 100
        else:
            with pytest.raises(IngestError, match=f"^{error}$"):
                ingest_csv(str(path))
        assert calls == {"open": 1, "loadtxt": math.ceil(100 / block), "scan": scans}, block


def test_ingest_stops_at_the_block_holding_a_row_fault(tmp_path, monkeypatch):
    # A spacing fault at line 5 ends the read after the first 7-line block.
    path = tmp_path / "early.csv"
    path.write_text("".join(f"{i + (i == 4)},{i}\n" for i in range(100)))
    calls = []

    def loadtxt(*args, loadtxt=np.loadtxt, **kwargs):
        calls.append(1)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    monkeypatch.setattr(cli, "_READ_BLOCK", 7)
    with pytest.raises(IngestError, match="^non-uniform spacing at line 5$"):
        ingest_csv(str(path))
    assert len(calls) == 1


def test_ingest_missing_file(tmp_path):
    with pytest.raises(IngestError, match="cannot read"):
        ingest_csv(str(tmp_path / "nope.csv"))


# Cells that parse differently from a plain decimal, or not at all.
ODD_CELLS = ["nan", "inf", "-inf", "1e400", "#", "1_000", "\u0661", "", "x", "0x10", "+7", "-0"]


@st.composite
def csv_cases(draw):
    """CSV text near the accept/reject boundary."""
    n = draw(st.integers(min_value=0, max_value=6))
    ncols = draw(st.sampled_from([1, 2, 2, 3]))
    t0 = draw(st.sampled_from([0.0, -2.5, 1.7e9, 1.7e9 + 0.125]))
    dt = draw(st.sampled_from([1.0, 0.5, 0.1, 1e-3, 3.0]))
    times = [t0 + i * dt for i in range(n)]
    if n >= 2:
        i = draw(st.integers(min_value=1, max_value=n - 1))
        fault = draw(st.sampled_from(["none", "none", "gap", "duplicate", "decrease"]))
        if fault == "gap":
            times[i:] = [t + dt for t in times[i:]]
        elif fault == "duplicate":
            times[i] = times[i - 1]
        elif fault == "decrease":
            times[i - 1], times[i] = times[i], times[i - 1]
    values = st.floats(min_value=-1e6, max_value=1e6).map(repr)
    rows = []
    for t in times:
        cells = [repr(t), draw(values), draw(values)][:ncols] if ncols > 1 else [draw(values)]
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(ODD_CELLS))
        pad = st.sampled_from(["", "", " ", "\t"])
        line = ",".join(draw(pad) + c + draw(pad) for c in cells)
        if draw(st.integers(min_value=0, max_value=19)) == 0:
            line += ","
        rows.append(line)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(["", "  ", "\t"])))
    header = draw(st.sampled_from([None, None, "time,value", "t", "v,w,x", "1,2"]))
    if header is not None:
        rows.insert(draw(st.integers(0, min(1, len(rows)))), header)
    return "\n".join(rows) + draw(st.sampled_from(["", "\n"]))


def outcome(read):
    """``read()``'s error text, or the bits of its ``(t0, dt, values)``."""
    try:
        t0, dt, values = read()
    except ValueError as exc:
        return str(exc)
    return [float(v).hex() for v in (t0, dt, *values)]


def read_ingest(path):
    sig = ingest_csv(path)
    return sig.t0, sig.dt, sig.values


@given(text=csv_cases())
@example(text="-1e308,1\n1e308,2\n")  # the step overflows to inf
@example(text="-1e308,1\n1e308,2\n1.7e308,3\n")
@example(text="1\n\u00a02\n3\u3000\n")  # Unicode whitespace is stripped
@example(text="\ufeff1\n2\n3\n")  # a leading byte-order mark is skipped
@example(text="t,v\n0,\u00a01\n1\u3000,2\n\u00a02 ,3\u3000\n")
@settings(max_examples=400, deadline=None)
def test_ingest_matches_line_scanner(text, tmp_path_factory):
    path = tmp_path_factory.mktemp("parity") / "in.csv"
    path.write_text(text, encoding="utf-8")
    path = str(path)
    expected = outcome(lambda: oracles.naive_ingest(path))
    assert outcome(lambda: read_ingest(path)) == expected
    if not isinstance(expected, str):
        # An accepted file never reaches the line scanner.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_scan_lines", lambda *args, **kwargs: pytest.fail(text))
            assert outcome(lambda: read_ingest(path)) == expected


# --- compute -----------------------------------------------------------------------

def test_compute_macd_round_trip(tmp_path, random_csv):
    path, values = random_csv
    out = str(tmp_path / "macd.csv")
    code = main(["compute", "macd", path, "-k", "5", "-o", out])
    assert code == 0
    sig = UniformSignal(0.0, 1.0, values)
    expected = macd(sig, 5)
    back = ingest_csv(out)
    assert np.array_equal(back.values, expected.values)  # bit-for-bit
    assert back.t0 == pytest.approx(expected.t0)


def test_compute_avg_and_expansion_round_trip(tmp_path, random_csv):
    path, values = random_csv
    sig = UniformSignal(0.0, 1.0, values)

    out = str(tmp_path / "avg.csv")
    assert main(["compute", "avg", path, "-k", "7", "-o", out]) == 0
    assert np.array_equal(ingest_csv(out).values, right_avg(sig, 7).values)

    out = str(tmp_path / "exp.csv")
    assert main(["compute", "expansion", path, "--n", "3", "--b", "4", "-o", out]) == 0
    expected = expansion_rhs(sig, ExpansionSpec.of(3, 4, 1.0))
    assert np.array_equal(ingest_csv(out).values, expected.values)


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("rows", [0, 1, 7])
def test_write_csv_blocks_give_the_same_bytes(tmp_path, monkeypatch, rng, block, rows):
    columns = (1.7e9 + 0.25 * np.arange(rows), rng.standard_normal(rows))
    whole, blocks = tmp_path / "whole.csv", tmp_path / "blocks.csv"
    cli._write_csv(str(whole), "time,value", columns)
    monkeypatch.setattr(cli, "_WRITE_BLOCK", block)
    cli._write_csv(str(blocks), "time,value", columns)
    assert blocks.read_bytes() == whole.read_bytes()
    if rows:
        assert np.array_equal(ingest_csv(str(blocks)).values, columns[1])


def test_write_series_csv_blocks_round_trip(tmp_path, monkeypatch, rng):
    monkeypatch.setattr(cli, "_WRITE_BLOCK", 3)
    sig = UniformSignal(1.7e9, 0.25, rng.standard_normal(10))
    out = str(tmp_path / "blocks.csv")
    write_series_csv(out, sig)
    back = ingest_csv(out)
    assert (back.t0, back.dt) == (sig.t0, sig.dt)
    assert np.array_equal(back.values, sig.values)


def percent_g_csv(path, header, columns):
    """The reference writer: one ``%.17g`` Python call per cell, through a text-mode file."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.write("".join(row % cells for cells in zip(*(c.tolist() for c in columns))))


def assert_writes_percent_g(directory, columns):
    got, want = directory / "got.csv", directory / "want.csv"
    cli._write_csv(str(got), "h", columns)
    percent_g_csv(str(want), "h", columns)
    assert got.read_bytes() == want.read_bytes()


def hard_floats():
    """Values at the edges of the block formatter's cases, with their neighbours."""
    edges = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e290, 1e-270,
             1e-5, 9.9999999999999991e-5, 1e16, 1e17, 99999999999999999.0,
             *(float(f"1e{k}") for k in range(-20, 23))]
    values = [v for edge in edges
              for v in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf))]
    ties = [2.0**50 * k + frac for k in (1, 3, 7) for frac in (0.25, 0.75)]  # 17 digits and a 5
    three_digit = [1.5e-100, 2.5e100, 1e-300, 1e300, 4.9406564584124654e-322]
    epoch = [1.7e9 + k for k in range(5)] + [1_699_999_999.0, 86400.0 * 20000]
    values += ties + three_digit + epoch + [math.inf, math.nan]
    return np.array(values + [-v for v in values])


@pytest.mark.parametrize("width", [1, 2, 3])
def test_write_csv_hard_cases_match_percent_g(tmp_path, width):
    cells = hard_floats()
    cells = cells[:cells.size - cells.size % width].reshape(-1, width)
    assert_writes_percent_g(tmp_path, tuple(cells.T))


def float_from_bits(bits):
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


finite_floats = st.integers(0, 2**64 - 1).map(float_from_bits).filter(math.isfinite)


@given(width=st.integers(1, 3), cells=st.lists(finite_floats, max_size=40))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_write_csv_matches_percent_g_on_raw_bit_patterns(width, cells, tmp_path_factory):
    """Every exponent and subnormal: the bits are drawn, not the value."""
    cells = np.array(cells[:len(cells) - len(cells) % width], dtype=np.float64)
    assert_writes_percent_g(tmp_path_factory.mktemp("bits"), tuple(cells.reshape(-1, width).T))


def test_ordinary_output_never_formats_one_value_at_a_time(tmp_path, monkeypatch, rng):
    """An AR(1) series with epoch-second times, a 65,537-point spectrum, the powers of ten
    and the floats just below them, where ``log10`` rounds up, take no ``_fmt`` call."""
    values = np.empty(20000)
    values[0] = 100.0
    for i in range(1, values.size):  # AR(1) around 100
        values[i] = 100.0 + 0.95 * (values[i - 1] - 100.0) + rng.standard_normal()
    series = UniformSignal(1_700_000_000.0, 1.0, values)
    resp = transfer_function(macd_kernel(256), 65537)
    spectrum = (resp.frequencies, resp.magnitudes, resp.phases)
    assert (spectrum[0] == 0).any() and (spectrum[2] == 0).any()
    powers = np.array([float(f"1e{k}") for k in range(-20, 23)])
    below = (np.concatenate([powers, np.nextafter(powers[:35], 0)]),)  # below 1e15 is a tie
    want = tmp_path / "want"
    want.mkdir()
    percent_g_csv(str(want / "series.csv"), "time,value", (series.times(), series.values))
    percent_g_csv(str(want / "spectrum.csv"), "omega,magnitude,phase", spectrum)
    percent_g_csv(str(want / "below.csv"), "x", below)
    monkeypatch.setattr(cli, "_fmt", lambda x: pytest.fail(f"{x!r} was formatted alone"))
    write_series_csv(str(tmp_path / "series.csv"), series)
    cli._write_csv(str(tmp_path / "spectrum.csv"), "omega,magnitude,phase", spectrum)
    cli._write_csv(str(tmp_path / "below.csv"), "x", below)
    for name in ("series.csv", "spectrum.csv", "below.csv"):
        assert (tmp_path / name).read_bytes() == (want / name).read_bytes()


def test_compute_macd_constant_is_zero(tmp_path, write):
    path = write("const.csv", "2.5\n" * 40)
    out = str(tmp_path / "out.csv")
    assert main(["compute", "macd", path, "-k", "4", "-o", out]) == 0
    assert np.all(ingest_csv(out).values == 0.0)


def test_compute_insufficient_samples_is_input_error(tmp_path, write, capsys):
    path = write("tiny.csv", "1\n2\n3\n")
    out = str(tmp_path / "out.csv")
    assert main(["compute", "macd", path, "-k", "8", "-o", out]) == 2
    assert "needs at least 16" in capsys.readouterr().err


@pytest.mark.parametrize("flags, indicators, kernels, error", [
    (["-k", "0"], ["avg", "macd"], ["avg", "macd", "triangle"],
     "error: window needs a positive integer sample count, got 0\n"),
    (["--n", "0"], ["expansion"], ["expansion"],
     "error: term count must be a positive integer, got 0\n"),
    (["--b", "0"], ["expansion"], ["expansion"],
     "error: window needs a positive integer sample count, got 0\n"),
])
def test_compute_and_spectrum_reject_bad_parameters_alike(tmp_path, random_csv, capsys, flags,
                                                          indicators, kernels, error):
    path, _ = random_csv
    out = str(tmp_path / "out.csv")
    for indicator in indicators:
        assert main(["compute", indicator, path, *flags, "-o", out]) == 2
        assert capsys.readouterr().err == error
    for kernel in kernels:
        assert main(["spectrum", kernel, *flags, "-o", out]) == 2
        assert capsys.readouterr().err == error


# --- verify -------------------------------------------------------------------------

def test_verify_all_passes_on_random_input(random_csv, capsys):
    path, _ = random_csv
    code = main(["verify", path])
    output = capsys.readouterr().out
    assert code == 0
    assert output.startswith("command: macdkit verify ")
    assert "wall_time_s:" in output
    lines = [l for l in output.splitlines() if l.startswith("check ")]
    assert len(lines) == 7
    assert all("pass=true" in l for l in lines)
    for line in lines:
        if "max_rel_residual" in line and "lp_bound" not in line:
            rel = float(line.split("max_rel_residual=")[1].split()[0])
            assert rel <= 1e-12
    assert "overall: pass" in output


def test_verify_all_zero_input_passes(write, capsys):
    path = write("zeros.csv", "0\n" * 200)
    assert main(["verify", path]) == 0
    output = capsys.readouterr().out
    lines = [l for l in output.splitlines() if l.startswith("check ")]
    assert len(lines) == 7
    assert all(l.endswith(" pass=true") for l in lines)
    assert "check name=lp_bound a=8 max_abs_residual=0 max_rel_residual=0 gate=2 " in output
    assert "overall: pass" in output


def test_verify_subset_and_unknown_check(random_csv, capsys):
    path, _ = random_csv
    assert main(["verify", path, "--checks", "macd_derivative,lp_bound"]) == 0
    out = capsys.readouterr().out
    assert out.count("check ") == 2
    assert main(["verify", path, "--checks", "fourier"]) == 2
    assert "unknown check name" in capsys.readouterr().err


def test_verify_too_short_input_lists_required_lengths(write, capsys):
    path = write("short.csv", "".join(f"{v}\n" for v in range(12)))
    code = main(["verify", path, "--checks", "recursive_expansion,macd_derivative"])
    output = capsys.readouterr().out
    assert code == 2
    assert "skipped=insufficient_samples" in output
    assert "required=20" in output  # expansion with n=4, b=4: (n+1)*b
    assert "overall: fail" in output


def test_verify_absurd_tolerance_fails(random_csv, capsys):
    path, _ = random_csv
    code = main(["verify", path, "--checks", "recursive_decomposition", "--tol", "1e-30"])
    output = capsys.readouterr().out
    assert code == 1
    assert "pass=false" in output
    assert "overall: fail" in output


@pytest.mark.parametrize("flags, rule", [
    (["-k", "7"], "centered window must have an even sample count"),
    (["--n", "0"], "term count must be a positive integer"),
])
def test_verify_bad_parameter_prints_no_check_lines(random_csv, capsys, flags, rule):
    path, _ = random_csv
    assert main(["verify", path, *flags]) == 2
    captured = capsys.readouterr()
    assert not [l for l in captured.out.splitlines() if l.startswith("check ")]
    assert "overall:" not in captured.out
    assert rule in captured.err


def test_verify_lines_match_run_checks(random_csv, capsys):
    path, _ = random_csv
    assert main(["verify", path]) == 0
    lines = [l.split() for l in capsys.readouterr().out.splitlines() if l.startswith("check ")]
    records = run_checks(ingest_csv(path))
    assert len(lines) == len(records) == 7
    for fields, record in zip(lines, records):
        printed = dict(f.split("=", 1) for f in fields[1:])
        assert printed.pop("name") == record.name
        assert printed.pop("pass") == ("true" if record.passed else "false")
        for key in ("max_abs_residual", "max_rel_residual", "gate"):
            assert printed.pop(key) == f"{getattr(record, key):.6g}"
        assert printed == {key: str(val) for key, val in record.params.items()}


def test_verify_runs_a_check_added_to_the_registry(random_csv, capsys, monkeypatch):
    path, _ = random_csv
    _, call = identities.CHECKS["macd_derivative"]
    monkeypatch.setitem(identities.CHECKS, "macd_derivative_long",
                        (lambda w, lw, n, b: {"a": lw}, call))
    assert main(["verify", path, "--checks", "macd_derivative_long"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("check ")]
    assert len(lines) == 1
    assert lines[0].startswith("check name=macd_derivative_long a=12 max_abs_residual=")
    assert main(["verify", path, "--checks", "fourier"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown check name 'fourier'; choose from recursive_decomposition, "
        "difference_identity, macd_derivative, phase_corrected_form, recursive_expansion, "
        "lp_bound, monotonicity, macd_derivative_long or 'all'\n"
    )
    assert main(["verify", "--help"]) == 0
    assert ",monotonicity,macd_derivative_long}" in capsys.readouterr().out


def test_verify_empty_check_list(random_csv, capsys):
    path, _ = random_csv
    assert main(["verify", path, "--checks", " , "]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: no checks selected\n"
    assert "input:" not in captured.out


# --- classify ------------------------------------------------------------------------

def test_classify_ramp_up_down_flat(write, capsys):
    up = write("up.csv", "".join(f"{v}\n" for v in range(50)))
    assert main(["classify", up, "-k", "2", "--b", "2"]) == 0
    out = capsys.readouterr().out
    assert "label=increasing" in out and "margin=1" in out

    down = write("down.csv", "".join(f"{-v}\n" for v in range(50)))
    assert main(["classify", down, "-k", "2", "--b", "2"]) == 0
    assert "label=decreasing" in capsys.readouterr().out

    flat = write("flat.csv", "3.14\n" * 50)
    assert main(["classify", flat, "-k", "2", "--b", "2"]) == 0
    assert "label=linear" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_verify_and_classify_reject_a_bad_tolerance(write, capsys, tol):
    path = write("sig.csv", "".join(f"{math.sin(i / 7)!r}\n" for i in range(40)))
    want = f"error: tolerance must be finite and non-negative, got {float(tol)!r}\n"
    for argv in (["classify", path, f"--tol={tol}"],
                 ["verify", path, "--checks", "macd_derivative", f"--tol={tol}"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err == want
        assert "label=" not in captured.out and "check " not in captured.out
    assert main(["classify", path, "--tol", "0"]) == 0
    assert main(["verify", path, "--checks", "lp_bound", "--tol", "0"]) == 0


def test_classify_explicit_index_and_range_error(write, capsys):
    path = write("sig.csv", "".join(f"{v}\n" for v in range(30)))
    assert main(["classify", path, "--index", "10", "-k", "2", "--b", "2"]) == 0
    assert "index=10" in capsys.readouterr().out
    assert main(["classify", path, "--index", "1", "-k", "2", "--b", "2"]) == 2
    assert "outside the valid range" in capsys.readouterr().err
    assert main(["classify", path, "--index", "soon", "-k", "2", "--b", "2"]) == 2


# --- spectrum -------------------------------------------------------------------------

def read_spectrum(path):
    with open(path) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    return np.array([[float(c) for c in row] for row in rows])


def test_spectrum_macd_dc_rejection(tmp_path, capsys):
    out = str(tmp_path / "spec.csv")
    assert main(["spectrum", "macd", "-k", "8", "--grid", "512", "-o", out]) == 0
    data = read_spectrum(out)
    assert data.shape == (512, 3)
    assert data[0, 0] == 0.0
    assert data[0, 1] <= 1e-14
    assert "bandpass: pass=true" in capsys.readouterr().out


def test_spectrum_bandpass_failure_exits_one_and_still_writes(tmp_path, capsys):
    # k = 1 is half the first difference: its response |sin(w/2)| peaks at pi.
    out = str(tmp_path / "k1.csv")
    assert main(["spectrum", "macd", "-k", "1", "-o", out]) == 1
    assert read_spectrum(out).shape == (4096, 3)
    lines = capsys.readouterr().out.splitlines()
    assert "bandpass: pass=false dc=0 peak_omega=3.14159 peak=1 nyquist=1" in lines
    assert [line for line in lines if line.startswith("bandpass failure:")] == [
        "bandpass failure: response peak sits on a grid endpoint",
        "bandpass failure: no attenuation at pi: |H(pi)| = 1 >= peak 1",
    ]
    assert lines[-1].startswith("wall_time_s: ")


def test_spectrum_avg_dc_gain_one(tmp_path, capsys):
    # bandpass_check rejects every averaging kernel, so none gets a verdict.
    for kernel in ("avg", "triangle"):
        out = str(tmp_path / f"{kernel}.csv")
        assert main(["spectrum", kernel, "-k", "4", "--grid", "128", "-o", out]) == 0
        data = read_spectrum(out)
        assert data[0, 1] == pytest.approx(1.0, abs=1e-14)
        assert "bandpass" not in capsys.readouterr().out, kernel


def test_spectrum_expansion_matches_macd(tmp_path):
    macd_out = str(tmp_path / "m.csv")
    exp_out = str(tmp_path / "e.csv")
    assert main(["spectrum", "macd", "-k", "8", "--grid", "1024", "-o", macd_out]) == 0
    assert main(["spectrum", "expansion", "--n", "1", "--b", "8",
                 "--grid", "1024", "-o", exp_out]) == 0
    m = read_spectrum(macd_out)
    e = read_spectrum(exp_out)
    assert np.max(np.abs(m[:, 1] - e[:, 1])) <= 1e-10


def test_spectrum_grid_above_bound_is_input_error(tmp_path, capsys):
    out = tmp_path / "huge.csv"
    assert main(["spectrum", "macd", "-k", "8", "--grid", str(10**15), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid needs at most") and err.count("\n") == 1
    assert not out.exists()


def test_spectrum_invalid_kernel_spec(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert main(["spectrum", "macd", "-k", "0", "-o", out]) == 2
    assert main(["spectrum", "gaussian", "-k", "4", "-o", out]) == 2


# --- top-level contract -----------------------------------------------------------------

def test_usage_error_exit_code():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


def test_help_exits_zero():
    assert main(["--help"]) == 0


# Each subcommand's options as (flags, type, default, help), by dest.  The
# positionals are pinned in the order they parse.
_WINDOW = (("--window", "-k"), int, 8, "window in samples")
_SHORT = (("--window", "-k"), int, 8, "short window in samples")
_N = (("--n",), int, 4, "expansion term count")
_B = (("--b",), int, 4, "expansion block in samples")
_OUTPUT = (("--output", "-o"), None, None, "output CSV path")
_OPTIONS = {
    "compute": (["indicator", "input"],
                {"output": _OUTPUT, "window": _WINDOW, "n": _N, "b": _B}),
    "verify": (["input"], {
        "checks": (("--checks",), None, "all", "comma list from {recursive_decomposition,"
                   "difference_identity,macd_derivative,phase_corrected_form,"
                   "recursive_expansion,lp_bound,monotonicity} or 'all'"),
        "window": _SHORT,
        "long_window": (("--long-window",), int, 12, "second window (t2 / b) in samples"),
        "n": _N, "b": _B,
        "tol": (("--tol",), float, 1e-12, "relative residual gate (default 1e-12)")}),
    "classify": (["input"], {
        "index": (("--index",), None, "latest", "sample index or 'latest'"),
        "window": _SHORT,
        "b": (("--b",), int, 4, "history extension in samples"),
        "tol": (("--tol",), float, None, "linear-band tolerance (default: 1e-9 * max|signal|)")}),
    "spectrum": (["kernel"], {
        "output": _OUTPUT, "window": _WINDOW, "n": _N, "b": _B,
        "grid": (("--grid",), int, 4096, "grid points on [0, pi], 2 to 4194305 (default 4096); "
                 "2**m + 1 points are fastest")}),
}


def test_every_subcommand_option_is_pinned():
    (commands,) = [a for a in cli._parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == list(_OPTIONS)
    for name, (positionals, options) in _OPTIONS.items():
        actions = [a for a in commands.choices[name]._actions
                   if not isinstance(a, argparse._HelpAction)]
        assert [a.dest for a in actions if not a.option_strings] == positionals, name
        found = {a.dest: (tuple(a.option_strings), a.type, a.default, a.help)
                 for a in actions if a.option_strings}
        assert found == options, name
        required = {a.dest for a in actions if a.required}
        assert required == set(positionals) | ({"output"} & set(options)), name


def test_python_dash_m_runs_the_cli(tmp_path, write, capsys):
    # The package's module entry point, in a fresh interpreter, writes the
    # bytes the in-process main writes and prints the same lines.
    path = write("epoch.csv", "time,value\n" + "".join(
        f"{1.7e9 + i!r},{math.sin(i / 5)!r}\n" for i in range(64)))
    src = str(Path(macdkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "macdkit", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    def lines(out):
        return [line for line in out.splitlines() if not line.startswith("wall_time_s:")]

    inline, spawned = str(tmp_path / "inline.csv"), str(tmp_path / "spawned.csv")
    argv = ["compute", "macd", path, "-k", "4", "-o"]
    done = run(*argv, spawned)
    assert (done.returncode, done.stderr) == (0, "")
    assert main([*argv, inline]) == 0
    assert lines(capsys.readouterr().out) == lines(done.stdout.replace(spawned, inline))
    assert Path(spawned).read_bytes() == Path(inline).read_bytes()
    done = run("verify", path, "--schema", "auto")
    assert done.returncode == 2
    assert "unrecognized arguments: --schema auto" in done.stderr
