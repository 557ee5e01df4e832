import math

import numpy as np
import pytest

from macdkit import ExpansionSpec, UniformSignal, expansion_rhs, macd, right_avg
from macdkit.cli import IngestError, ingest_csv, main


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


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


def test_ingest_empty_file(write):
    with pytest.raises(IngestError, match="empty file"):
        ingest_csv(write("empty.csv", ""))
    with pytest.raises(IngestError, match="empty file"):
        ingest_csv(write("header_only.csv", "time,value\n"))


def test_ingest_column_mismatch(write):
    with pytest.raises(IngestError, match="expected 1 column"):
        ingest_csv(write("mix.csv", "1\n2,3\n"))
    with pytest.raises(IngestError, match="expected 2 column"):
        ingest_csv(write("short.csv", "0,1\n2\n"), schema="time-value")
    with pytest.raises(IngestError, match="1 or 2 columns"):
        ingest_csv(write("wide.csv", "1,2,3\n4,5,6\n"))


def test_ingest_unparsable_row(write):
    with pytest.raises(IngestError, match="could not parse line 3"):
        ingest_csv(write("bad.csv", "1\n2\noops\n"))


def test_ingest_schema_override(write):
    path = write("tv2.csv", "0,5\n1,6\n2,7\n")
    sig = ingest_csv(path, schema="time-value")
    assert sig.values.tolist() == [5.0, 6.0, 7.0]
    with pytest.raises(IngestError, match="unknown schema"):
        ingest_csv(path, schema="columns")


def test_ingest_missing_file(tmp_path):
    with pytest.raises(IngestError, match="cannot read"):
        ingest_csv(str(tmp_path / "nope.csv"))


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
    assert "required=40" in output  # expansion with n=4, b=4
    assert "overall: fail" in output


def test_verify_absurd_tolerance_fails(random_csv, capsys):
    path, _ = random_csv
    code = main(["verify", path, "--checks", "recursive_decomposition", "--tol", "1e-30"])
    output = capsys.readouterr().out
    assert code == 1
    assert "pass=false" in output
    assert "overall: fail" in output


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


def test_classify_explicit_index_and_range_error(write, capsys):
    path = write("sig.csv", "".join(f"{v}\n" for v in range(30)))
    assert main(["classify", path, "--index", "10", "-k", "2", "--b", "2"]) == 0
    assert "index=10" in capsys.readouterr().out
    assert main(["classify", path, "--index", "1", "-k", "2", "--b", "2"]) == 2
    assert "outside the valid range" in capsys.readouterr().err
    assert main(["classify", path, "--index", "soon", "-k", "2", "--b", "2"]) == 2


# --- spectrum -------------------------------------------------------------------------

def read_spectrum(path):
    rows = [line.split(",") for line in open(path).read().splitlines()[1:]]
    return np.array([[float(c) for c in row] for row in rows])


def test_spectrum_macd_dc_rejection(tmp_path, capsys):
    out = str(tmp_path / "spec.csv")
    assert main(["spectrum", "macd", "-k", "8", "--grid", "512", "-o", out]) == 0
    data = read_spectrum(out)
    assert data.shape == (512, 3)
    assert data[0, 0] == 0.0
    assert data[0, 1] <= 1e-14
    assert "bandpass: pass=true" in capsys.readouterr().out


def test_spectrum_avg_dc_gain_one(tmp_path, capsys):
    out = str(tmp_path / "avg.csv")
    assert main(["spectrum", "avg", "-k", "4", "--grid", "128", "-o", out]) == 0
    data = read_spectrum(out)
    assert data[0, 1] == pytest.approx(1.0, abs=1e-14)
    assert "bandpass" not in capsys.readouterr().out  # averaging kernel: no verdict


def test_spectrum_expansion_matches_macd(tmp_path):
    macd_out = str(tmp_path / "m.csv")
    exp_out = str(tmp_path / "e.csv")
    assert main(["spectrum", "macd", "-k", "8", "--grid", "1024", "-o", macd_out]) == 0
    assert main(["spectrum", "expansion", "--n", "1", "--b", "8",
                 "--grid", "1024", "-o", exp_out]) == 0
    m = read_spectrum(macd_out)
    e = read_spectrum(exp_out)
    assert np.max(np.abs(m[:, 1] - e[:, 1])) <= 1e-10


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
