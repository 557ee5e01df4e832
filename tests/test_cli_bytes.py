"""The CLI's bytes, pinned: one SHA-256 per command of a fixed matrix.

Each command runs through ``main`` in process.  Its digest covers the exit
code, stdout, stderr and the output file, after the ``wall_time_s`` line is
dropped and the temporary directory is replaced by ``<tmp>`` (``command:``
and ``wrote ... to`` echo paths).  An intended byte change updates
``DIGESTS``, and the change log names each changed entry and why.

``spectrum`` files come from ``np.fft.rfft``, whose FFT numpy 2.0 replaced,
so their digests are compared on numpy 2 or later only; each ``spectrum``
command's exit code, stdout and stderr are compared on every numpy.  The
difference kernels there have dyadic weights (the expansion at ``n = 1``), so
the printed ``dc`` and ``nyquist`` are exactly 0 in any summation order.
"""

import hashlib

import numpy as np

from macdkit import UniformSignal, cli
from macdkit.cli import main

NUMPY_2 = int(np.__version__.split(".")[0]) >= 2


def _inputs(tmp_path):
    """The matrix's input files, from ``np.random.RandomState``, whose stream numpy keeps."""
    rs = np.random.RandomState(20240817)
    walk = np.cumsum(rs.standard_normal(400))
    epoch = 100.0 + np.cumsum(rs.standard_normal(120))
    files = {
        "walk.csv": "".join(f"{float(v)!r}\n" for v in walk),
        "epoch.csv": "time,value\n" + "".join(
            f"{1.7e9 + i!r},{float(v)!r}\n" for i, v in enumerate(epoch)),
        "short.csv": "".join(f"{float(v)!r}\n" for v in walk[:10]),
        "gap.csv": "0,1\n1,2\n3,3\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")


# label -> argv.  "{d}" is the temporary directory; "{out}" is the output file.
COMMANDS = {
    "compute avg": "compute avg {d}/walk.csv -o {out} -k 5",
    "compute macd": "compute macd {d}/walk.csv -o {out}",
    "compute expansion": "compute expansion {d}/walk.csv -o {out} --n 3 --b 5",
    "compute macd epoch": "compute macd {d}/epoch.csv -o {out} -k 12",
    "compute short": "compute macd {d}/short.csv -o {out} -k 8",
    "compute missing": "compute macd {d}/missing.csv -o {out}",
    "compute gap": "compute avg {d}/gap.csv -o {out} -k 1",
    "verify all": "verify {d}/walk.csv",
    "verify subset": "verify {d}/walk.csv --checks macd_derivative,lp_bound -k 10",
    "verify epoch": "verify {d}/epoch.csv -k 6 --long-window 10 --n 2 --b 3",
    "verify tol 1e-16": "verify {d}/walk.csv --tol 1e-16",
    "verify tol -1": "verify {d}/walk.csv --tol -1",
    "verify k 7": "verify {d}/walk.csv -k 7",
    "verify nope": "verify {d}/walk.csv --checks nope",
    "verify short": "verify {d}/short.csv",
    "classify latest": "classify {d}/walk.csv",
    "classify index": "classify {d}/walk.csv --index 100 -k 4 --b 8 --tol 0.5",
    "classify out of range": "classify {d}/walk.csv --index 3",
    "spectrum avg": "spectrum avg -o {out} -k 6 --grid 33",
    "spectrum macd": "spectrum macd -o {out} --grid 65",
    "spectrum triangle": "spectrum triangle -o {out} -k 5 --grid 33",
    "spectrum expansion": "spectrum expansion -o {out} --n 1 --b 4 --grid 65",
}

# label -> (digest of exit code, stdout and stderr; digest of the output file,
# None where the command writes none).
DIGESTS = {
    "compute avg": ("e44f789d68437cb75f2bb577e23e6b1833b148c53c5fbb6e2ab274ebaa32b2f9",
                    "6efc89ec69859d6f0103424615bf961a57f67dd4baf039463bfe5ad8f979ef14"),
    "compute macd": ("47e75ee7d48c9c5806e72acf6dbeb18ce890cc3ecc6af2d8acfd0c1995fae517",
                     "e5dfa2d7ac2843c1cf73526e220c77d3fb0a552a269b0a544e7fef84ad9148b4"),
    "compute expansion": ("68bec10ccbff3557d9495cef1a9b60ddfe15c33c70a77085dfa8e85e4ab8354a",
                          "1ab6a55faefa6c365423bd1b2c1ea443f82ddca2958a889328d1041c9eec0591"),
    "compute macd epoch": ("33b0343833fffe31bcd58a9940597be1c706d6b5eda0eea840b4cb897f827020",
                           "112bac6cd5cde3125deaa8540b0dc316bf52aa377303e27a81eabae8a7db03b5"),
    "compute short": ("cf578ee2b1744e595f13ad0e6e87a9cb483022a074e225c606ea7b0c45b32c40",
                      None),
    "compute missing": ("f4047b2e4964f007ef82ecbc23441a38fc28dc75c28d1f068425aae791bec669",
                        None),
    "compute gap": ("d5dc7b77718f26fa8b4b6ed97c56ecde116c468eb55f681936c0d807b4df6248",
                    None),
    "verify all": ("c432868ddfe6e1a8d8e670782854bdd4c119765257b990cebf6a5dbdf9a95378",
                   None),
    "verify subset": ("d6f00e80d37ee01516841274004a21ea7117ae4c1566d665d01dda4a93a6455e",
                      None),
    "verify epoch": ("8b2eaae0ec7b1417463ab892e60ebfd736a2eba6038de8d2825889b302c11a1f",
                     None),
    "verify tol 1e-16": ("0c61932f6adbc989db2c464bf2d1cee54fcc4b8c34cc0cb504e6a88915d076b6",
                         None),
    "verify tol -1": ("1dbbee9db62739a3b49e455d7f5fcd644155e4a108ee97d7d8a17ab153006603",
                      None),
    "verify k 7": ("308d08aa65f6dd11b549f4b80c2f3c41ff0ce3396c310ad0c931fac6ab031c83",
                   None),
    "verify nope": ("824225a6997d73778a3ede20544ca8413228bb1642eab74ff038bfdb4eab5f8b",
                    None),
    "verify short": ("59909ee3472b0df70258e596bb5635e116220b0e5038f670488aaa9441e50041",
                     None),
    "classify latest": ("c1060adcc135cbb06c0772bd16f95d80c2931bb4b4afd5c657b533da5d1677a6",
                        None),
    "classify index": ("2689b697951b6fe67a00dfe64fb58747665a52d6e49bf3b12db3040c02ec37ed",
                       None),
    "classify out of range": ("0a5a4b911cee968f6079161ce30470a7bde4f4845a6e8c6a18ae2951cc84a501",
                              None),
    "spectrum avg": ("b2ac928c30bf2d4f502b76ec36bd1de1a4eb3052a8e5ff60b8d114de246ddeae",
                     "efde29f3ad6eb8b0de99a7b0bf92a16c4afe29a4a6b15627a1f60e6003264c90"),
    "spectrum macd": ("492ab5a8b7e494eb6237ed173cd5ccc65bc5e2782bc03d12db748da66795956a",
                      "e877794b408ab8031e3c4dfe7ff96f050f4334e8d993406063ebf3fc1f06a6be"),
    "spectrum triangle": ("3ea9ee7157e691ce02bf20a4c3bbd6ce38901f0217c65de820aff16e79edeaa5",
                          "d24b85cd8f460b45e1cce3481b8c4125d75b9d5bd3504768a85f8bcbb45837f1"),
    "spectrum expansion": ("5718df5199eb2e95188ea39b8606e5ffa580b76ef7ca029ec3d81659f7034218",
                           "9e969ae43a21d241f44467dbf3ff535f6c3e005d919d12ea7d4bdf1bf0873759"),
}


def _run(label, tmp_path, capsys):
    """The two digests of one command of ``COMMANDS``."""
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    argv = COMMANDS[label].format(d=tmp_path, out=out).split()
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    stdout = "".join(line for line in captured.out.splitlines(keepends=True)
                     if not line.startswith("wall_time_s: "))
    streams = f"{code}\n{stdout}\n{captured.err}".replace(str(tmp_path), "<tmp>")
    written = out.read_bytes() if out.exists() else None
    return (hashlib.sha256(streams.encode("utf-8")).hexdigest(),
            None if written is None else hashlib.sha256(written).hexdigest())


def test_cli_bytes_match_the_table(tmp_path, capsys):
    _inputs(tmp_path)
    assert set(DIGESTS) == set(COMMANDS)
    changed = {}
    for label in COMMANDS:
        streams, written = _run(label, tmp_path, capsys)
        if label.startswith("spectrum") and not NUMPY_2:
            written = DIGESTS[label][1]  # numpy 1's FFT: the file is not compared
        if (streams, written) != DIGESTS[label]:
            changed[label] = (streams, written)
    assert not changed  # the message lists each changed command's new digests


def test_one_ulp_in_macd_changes_its_digest(tmp_path, capsys, monkeypatch):
    _inputs(tmp_path)
    exact = cli.macd

    def nudged(signal, k):
        out = exact(signal, k)
        return UniformSignal(out.t0, out.dt, np.nextafter(out.values, np.inf))

    monkeypatch.setattr(cli, "macd", nudged)
    streams, written = _run("compute macd", tmp_path, capsys)
    assert streams == DIGESTS["compute macd"][0]  # the digest line reads the input only
    assert written != DIGESTS["compute macd"][1]
