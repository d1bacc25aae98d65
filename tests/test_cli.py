import cmath
import csv
import hashlib
import importlib.util
import inspect
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from h2embed import cli, decisions
from h2embed.cli import _load_sample_dir, main
from h2embed.decisions import (
    decide_composition,
    decide_lfm,
    decide_polynomial_toeplitz,
    decide_toeplitz,
)
from h2embed.errors import IllConditioned
from h2embed.fileio import (
    SymbolFileError,
    dump_matrix_csv,
    load_matrix_csv,
    parse_symbol_document,
)
from h2embed.operators import LowerToeplitz, wold_decompose
from h2embed.semigroups import embed_isometric_composition
from h2embed.symbols import BlaschkeProduct, ConjugatedSymbol, MobiusMap

PSI_DOC = {
    "kind": "composition",
    "blaschke": {"origin_order": 1, "zeros": [{"re": 0.5, "im": 0.0, "mult": 1}]},
}


@pytest.mark.parametrize("n", [16, 32])
def test_wold_and_verify_on_generic_blaschke(tmp_path, capsys, n):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(PSI_DOC))
    assert main(["wold", "--input", str(path), "--n", str(n)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 1 + sum(doc["level_dims"]) + doc["residual_dim"] == n
    if n == 16:
        assert doc["level_dims"] == [2, 2, 2, 2, 2, 1]
        assert doc["residual_dim"] == 4
    assert main(["verify", "--input", str(path), "--n", str(n)]) == 0


def test_semigroup_out_names_the_sample_directory(tmp_path, capsys):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(PSI_DOC))
    out = tmp_path / "sample"
    assert main(["semigroup", "--input", str(path), "--n", "16", "--out", str(out)]) == 0
    names = ["matrix_00.csv", "matrix_01.csv", "matrix_02.csv", "meta.json", "verification.json"]
    assert sorted(p.name for p in out.iterdir()) == names
    assert capsys.readouterr().out == (out / "meta.json").read_text()


def _canonical(text):
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],
        ["solve", "--beta", "0.2"],
        ["frostman", "--lam", "0.2"],
        ["wold", "--n", "16"],
        ["wold", "--n", "128"],
        ["verify", "--n", "16"],
        ["semigroup", "--n", "16"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_documents_are_indented_sorted_json(tmp_path, capsys, argv):
    """Every document the CLI prints or writes is laid out as
    ``json.dumps(..., sort_keys=True, indent=2)`` lays it out."""
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(PSI_DOC))
    out = tmp_path / "sample"
    extra = ["--out", str(out)] if argv[0] == "semigroup" else []
    assert main([*argv, "--input", str(path), *extra]) == 0
    texts = [capsys.readouterr().out]
    if argv[0] == "semigroup":
        texts += [(out / name).read_text() for name in ("meta.json", "verification.json")]
    for text in texts:
        assert text == _canonical(text)


# `verify --n 16` documents printed by the dense-matrix Wold/shift sample
# that the row-gather sample replaced; the three differ only in the hash.
VERIFY_RECORDS_N16 = json.loads(
    '[{"applicable":true,"check":"semigroup-law","details":{},"max_defect":0.0,"passed":true,'
    '"threshold":1e-08,"witnesses":[["(0.25, 0.25)",0.0],["(0.25, 0.5)",0.0],["(0.25, 0.75)",0.0],'
    '["(0.5, 0.5)",0.0]]},{"applicable":true,"check":"isometry","details":{},"max_defect":0.0,'
    '"passed":true,"threshold":1e-06,"witnesses":[["t=0.0",0.0],["t=0.25",0.0],["t=0.5",0.0],'
    '["t=0.75",0.0],["t=1.0",0.0]]},{"applicable":true,"check":"noncompactness-proxy","details":{},'
    '"max_defect":0.0,"passed":true,"threshold":1e-06,"witnesses":[["t=0.0",0.0],["t=0.25",0.0],'
    '["t=0.5",0.0],["t=0.75",0.0],["t=1.0",0.0]]},{"applicable":true,"check":"strong-continuity",'
    '"details":{},"max_defect":0.7071067811865476,"passed":true,"threshold":1.0,"witnesses":'
    '[["vector 1",0.7071067811865476],["vector 2",0.7071067811865476],'
    '["vector 3",0.7071067811865476],["vector 0",0.0]]}]'
)
VERIFY_GOLDEN = {
    "z^2": ({"kind": "composition", "blaschke": {"origin_order": 2}}, "fb0b7d7d99ebecc7"),
    "psi": (PSI_DOC, "a15ac8e34ca25037"),
    "conj-square": (
        {"kind": "composition", "blaschke": {"zeros": [{"re": 0.3, "im": 0.0, "mult": 2}]}},
        "a51a83988d3f4226",
    ),
}


@pytest.mark.parametrize("name", sorted(VERIFY_GOLDEN))
def test_verify_document_unchanged(tmp_path, capsys, name):
    doc, input_hash = VERIFY_GOLDEN[name]
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(path), "--n", "16"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "config": {"input_hash": input_hash, "n": 16, "tol": 1e-08},
        "records": VERIFY_RECORDS_N16,
    }


# --------------------------------------------------------------------------
# sample directories: `semigroup` writes them, `verify --sample` reads them
# --------------------------------------------------------------------------

OUTER_DOC = {
    "kind": "toeplitz",
    "outer": {"constant": {"re": 1.5, "im": 0.0}, "conjugate_factors": [{"re": 0.3, "im": 0.0}]},
}
SAMPLE_SYMBOLS = {
    "z^2": VERIFY_GOLDEN["z^2"][0],
    "psi": PSI_DOC,
    "conj-square": VERIFY_GOLDEN["conj-square"][0],
    "outer": OUTER_DOC,
}
# sha256 of the dense CSV files `semigroup --n 16` writes for OUTER_DOC at
# the default times 0, 0.5, 1: the lower-triangular Toeplitz matrices of the
# closed-form binomial series 1.5**t (1 - 0.3 z)**t.
OUTER_CSV_SHA256 = [
    "f690b2e74b9b12af529e788d46839c5dabb005cebc183745fbc967c710856631",
    "52f70c8f86ac3bfb02d4260ec72627f69c4be7dacb47068e747dd3769bf7336c",
    "2e36eaa29ca127cbf0e7075bfefe984370a6bc6899421bf35c301765be55439f",
]


def _write_sample(tmp_path, capsys, doc, n=16):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "sample"
    assert main(["semigroup", "--input", str(path), "--n", str(n), "--out", str(out)]) == 0
    capsys.readouterr()
    return out, json.loads((out / "meta.json").read_text())


def _run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _verify_sample(out, capsys):
    return _run(["verify", "--sample", str(out)], capsys)


@pytest.mark.parametrize("name", sorted(SAMPLE_SYMBOLS))
def test_semigroup_then_verify_sample(tmp_path, capsys, name):
    out, meta = _write_sample(tmp_path, capsys, SAMPLE_SYMBOLS[name])
    rc, stdout, _ = _verify_sample(out, capsys)
    assert rc == 0
    (law,) = [r for r in json.loads(stdout)["records"] if r["check"] == "semigroup-law"]
    assert law["applicable"] and law["passed"]
    if meta["construction"].startswith("wold-shift"):
        assert law["max_defect"] == 0.0


@pytest.mark.parametrize("name", ["z^2", "psi", "conj-square"])
def test_wold_sample_files_are_index_files(tmp_path, capsys, name):
    out, meta = _write_sample(tmp_path, capsys, SAMPLE_SYMBOLS[name])
    assert meta["construction"].startswith("wold-shift")
    for matrix_file in meta["matrices"]:
        lines = (out / matrix_file).read_text().splitlines()
        assert len(lines) == meta["dim"] + 1
        assert lines[0] == "src"
        src = [int(v) for v in lines[1:]]
        assert min(src) >= -1 and max(src) < meta["dim"]
    assert (out / meta["matrices"][0]).read_text().splitlines()[1:] == [
        str(i) for i in range(meta["dim"])
    ]


def test_flow_sample_csv_bytes_unchanged(tmp_path, capsys):
    out, meta = _write_sample(tmp_path, capsys, OUTER_DOC)
    digests = [hashlib.sha256((out / m).read_bytes()).hexdigest() for m in meta["matrices"]]
    assert digests == OUTER_CSV_SHA256
    # Entry k of the first column is 1.5**t binom(t, k) (-0.3)**k.  Its k
    # cumulative products take three roundings each and exp(t log 1.5) and
    # the final scaling a few more, so it is within (3k + 4) eps of the
    # 50-digit value, relative; the CSV holds every double exactly.
    eps = np.finfo(float).eps
    for t, matrix_file in zip(meta["times"], meta["matrices"]):
        got = load_matrix_csv(out / matrix_file)
        assert isinstance(got, LowerToeplitz)
        got = got.dense()
        with mpmath.workdps(50):
            want = [mpmath.mpf(1.5) ** t * mpmath.binomial(t, k) * mpmath.mpf(-0.3) ** k
                    for k in range(16)]
        for i in range(16):
            for j in range(16):
                exact = want[i - j] if i >= j else mpmath.mpf(0)
                bound = (3 * abs(i - j) + 4) * eps * abs(exact)
                assert abs(mpmath.mpc(got[i, j]) - exact) <= bound, (t, i, j)


@pytest.mark.parametrize("name", ["z^2", "psi"])
def test_dense_wold_sample_still_verifies(tmp_path, capsys, name):
    out, meta = _write_sample(tmp_path, capsys, SAMPLE_SYMBOLS[name])
    index_result = _verify_sample(out, capsys)
    sample = _load_sample_dir(out)
    for t, matrix_file in zip(meta["times"], meta["matrices"]):
        dump_matrix_csv(out / matrix_file, sample.apply(t))
        assert (out / matrix_file).read_bytes().startswith(b"re_ij,im_ij\r\n")
    assert _verify_sample(out, capsys) == index_result
    assert index_result[0] == 0


@pytest.mark.parametrize("name", ["z^2", "psi"])
def test_wold_sample_on_all_4n_cells_still_verifies(tmp_path, capsys, name):
    """A Wold sample directory that holds all 4 n cells of its cap, as
    ``semigroup`` wrote them before samples held only the cells they use,
    verifies to the same document."""
    out, meta = _write_sample(tmp_path, capsys, SAMPLE_SYMBOLS[name])
    result = _verify_sample(out, capsys)
    symbol = parse_symbol_document(SAMPLE_SYMBOLS[name])["symbol"]  # fixes 0
    sample = embed_isometric_composition(symbol, meta["times"], 16)
    d, h = sample.meta["fiber_dim"], sample.meta["h"]
    assert sample.dim == meta["dim"] < 1 + 4 * 16 * d
    dim = 1 + 4 * 16 * d
    for t, matrix_file in zip(meta["times"], meta["matrices"]):
        k = round(t / h)
        src = np.arange(dim) - k * d
        src[1 : 1 + k * d] = -1
        src[0] = 0
        dump_matrix_csv(out / matrix_file, src)
    (out / "meta.json").write_text(json.dumps(dict(meta, dim=dim)))
    assert _verify_sample(out, capsys) == result
    assert result[0] == 0


def test_matrix_csv_round_trip_is_bit_exact(tmp_path):
    third = 1.0 / 3.0
    matrix = np.array(
        [[-0.0, 5e-324 - 1e308j], [complex(third, -third), complex(-0.0, 5e-324)]]
    )
    path = tmp_path / "m.csv"
    dump_matrix_csv(path, matrix)
    back = load_matrix_csv(path)
    assert back.dtype == complex and back.shape == (2, 2)
    assert back.tobytes() == matrix.tobytes()
    src = np.array([0, -1, 1, 2], dtype=np.intp)
    dump_matrix_csv(path, src)
    assert path.read_bytes() == b"src\r\n0\r\n-1\r\n1\r\n2\r\n"
    back = load_matrix_csv(path)
    assert back.dtype == np.intp and np.array_equal(back, src)


def _corrupt_line(path, lineno, text):
    lines = path.read_text().splitlines()
    lines[lineno - 1] = text
    path.write_text("\r\n".join(lines) + "\r\n")


def _meta_edit(key, value):
    def edit(out):
        meta = json.loads((out / "meta.json").read_text())
        meta[key] = value(meta)
        (out / "meta.json").write_text(json.dumps(meta))

    return edit


def _zero_dim(header):
    """Empty matrix files under ``header`` and an isometric sample of dim 0."""
    def edit(out):
        meta = json.loads((out / "meta.json").read_text())
        meta.update(dim=0, isometric=True)
        for name in meta["matrices"]:
            (out / name).write_text(header + "\r\n")
        (out / "meta.json").write_text(json.dumps(meta))

    return edit


SAMPLE_DEFECTS = {
    # name: (symbol, corruption of the sample directory, words the diagnostic names)
    "three fields": (
        "outer", lambda out: _corrupt_line(out / "matrix_01.csv", 5, "1.0,0.0,2.0"),
        ["matrix_01.csv", "line 5", "found 3"],
    ),
    "non-numeric entry": (
        "outer", lambda out: _corrupt_line(out / "matrix_02.csv", 3, "1.0,abc"),
        ["matrix_02.csv", "line 3", "abc"],
    ),
    # these two used to die in the SVD of the isometry check with a traceback
    "NaN entry": (
        "outer", lambda out: _corrupt_line(out / "matrix_01.csv", 20, "nan,0.0"),
        ["matrix_01.csv", "line 20: nan is not a finite number"],
    ),
    "infinite entry": (
        "outer", lambda out: _corrupt_line(out / "matrix_02.csv", 2, "inf,0.0"),
        ["matrix_02.csv", "line 2: inf is not a finite number"],
    ),
    "missing directory": ("outer", lambda out: shutil.rmtree(out), ["meta.json"]),
    "missing meta.json": ("outer", lambda out: (out / "meta.json").unlink(), ["meta.json"]),
    "missing matrix file": ("psi", lambda out: (out / "matrix_01.csv").unlink(),
                            ["matrix_01.csv"]),
    "src entry too large": (
        "psi", lambda out: _corrupt_line(out / "matrix_01.csv", 4, "145"),
        ["matrix_01.csv", "line 4", "outside [-1, {dim})"],
    ),
    "src entry below -1": (
        "psi", lambda out: _corrupt_line(out / "matrix_01.csv", 2, "-2"),
        ["matrix_01.csv", "line 2", "outside [-1, {dim})"],
    ),
    "non-integer src entry": (
        "psi", lambda out: _corrupt_line(out / "matrix_02.csv", 7, "2.5"),
        ["matrix_02.csv", "line 7", "2.5"],
    ),
    "dense file of the wrong size": (
        "psi", lambda out: (out / "matrix_01.csv").write_text("re_ij,im_ij\r\n1.0,0.0\r\n"),
        ["matrix_01.csv", "(1, 1)", "dim {dim}"],
    ),
    "index file of the wrong length": (
        "psi", lambda out: (out / "matrix_01.csv").write_text("src\r\n0\r\n1\r\n"),
        ["matrix_01.csv", "(2,)", "dim {dim}"],
    ),
    "src entry beyond any integer": (
        "psi", lambda out: _corrupt_line(out / "matrix_01.csv", 3, "9" * 30),
        ["matrix_01.csv", "line 3"],
    ),
    "meta.json not JSON": (
        "psi", lambda out: (out / "meta.json").write_text('{"dim": 3,'),
        ["meta.json", "line 1"],
    ),
    "fewer matrices than times": (
        "psi", _meta_edit("matrices", lambda meta: meta["matrices"][:2]),
        ["meta.json", "2 matrices for 3 times"],
    ),
    "no dim": ("psi", _meta_edit("dim", lambda meta: None), ["meta.json", "dim"]),
    # Each of these used to load: NaN, infinite and negative times left no
    # law pair and no record (exit 0), a fractional dim was truncated and
    # any nonempty string read as isometric.
    "NaN times": ("z^2", _meta_edit("times", lambda meta: [math.nan] * 3),
                  ["meta.json", "times[0]", "nan"]),
    "infinite time": ("z^2", _meta_edit("times", lambda meta: [0.0, math.inf, 1.0]),
                      ["meta.json", "times[1]", "inf"]),
    "negative time": ("z^2", _meta_edit("times", lambda meta: [0.0, -0.5, 1.0]),
                      ["meta.json", "times[1]", "-0.5"]),
    "no times": ("z^2", _meta_edit("times", lambda meta: []), ["meta.json", "times"]),
    "fractional dim": ("z^2", _meta_edit("dim", lambda meta: meta["dim"] + 0.9),
                       ["meta.json", "dim", "{dim}.9"]),
    "isometric not a boolean": ("z^2", _meta_edit("isometric", lambda meta: "no"),
                                ["meta.json", "isometric", "'no'"]),
    # A dense zero-dim sample died in check_isometry with an uncaught ValueError
    # (exit 1); an index one passed the law check with nothing tested (exit 0).
    "zero dim, dense files": ("outer", _zero_dim("re_ij,im_ij"), ["meta.json", "dim: 0"]),
    "zero dim, index files": ("psi", _zero_dim("src"), ["meta.json", "dim: 0"]),
    # These two raised UnicodeDecodeError out of main (a traceback, exit 1),
    # and a dim of true read as 1.
    "meta.json not UTF-8": (
        "psi", lambda out: (out / "meta.json").write_bytes(b'{"dim": "\xff"}'),
        ["meta.json", "can't decode byte 0xff"],
    ),
    "matrix file not UTF-8": (
        "outer", lambda out: (out / "matrix_01.csv").write_bytes(b"re_ij,im_ij\r\n\xff,0.0\r\n"),
        ["matrix_01.csv", "can't decode byte 0xff"],
    ),
    "dim true": ("psi", _meta_edit("dim", lambda meta: True), ["meta.json", "dim: true"]),
    "time true": ("z^2", _meta_edit("times", lambda meta: [0.0, True, 0.5]),
                  ["meta.json", "times[1]: true"]),
    # float() parsed these times, str() made file names "0", "1" and "2" of
    # these names, and this construction was held as the number 5.
    "times as strings": ("z^2", _meta_edit("times", lambda meta: ["0", "0.5", "1"]),
                         ["meta.json", "times[0]: '0' is not a number"]),
    "matrix names not strings": ("psi", _meta_edit("matrices", lambda meta: [0, 1, 2]),
                                 ["meta.json", "matrices[0]: 0 is not a string"]),
    "construction not a string": ("outer", _meta_edit("construction", lambda meta: 5),
                                  ["meta.json", "construction: 5 is not a string"]),
}


@pytest.mark.parametrize("defect", sorted(SAMPLE_DEFECTS))
def test_malformed_sample_exits_2(tmp_path, capsys, defect):
    name, corrupt, words = SAMPLE_DEFECTS[defect]
    out, meta = _write_sample(tmp_path, capsys, SAMPLE_SYMBOLS[name])
    corrupt(out)
    rc, stdout, stderr = _verify_sample(out, capsys)
    assert rc == 2 and stdout == ""
    assert stderr.startswith("error: malformed input: ")
    for word in words:
        assert word.format(dim=meta["dim"]) in stderr


# --------------------------------------------------------------------------
# multiplication flows at high truncation orders
# --------------------------------------------------------------------------

Z_MINUS_105 = {"kind": "toeplitz", "outer": {"exterior_zeros": [{"re": 1.05, "im": 0.0}]}}
HIGH_ORDER_FLOWS = {
    "z-1.05": Z_MINUS_105,
    "outer": {"kind": "toeplitz", "outer": {"constant": {"re": 1.5, "im": -0.7},
                                            "conjugate_factors": [{"re": 0.3, "im": 0.4}],
                                            "exterior_zeros": [{"re": 1.2, "im": -0.9}]}},
    "polynomial": {"kind": "polynomial",
                   "polynomial": {"coeffs": [{"re": 3.0}, {"re": 1.0}, {"re": 0.5}]}},
    "inner-outer": {"kind": "toeplitz", "singular": {"atoms": [{"angle": 0.4, "mass": 0.4}]},
                    "outer": {"constant": {"re": -0.5}, "exterior_zeros": [{"re": 2.1, "im": 0.3}]}},
}


@pytest.mark.parametrize(
    "name, n", [("z-1.05", 128), ("outer", 256), ("polynomial", 256), ("inner-outer", 256)]
)
def test_verify_multiplication_flow_at_high_order(tmp_path, capsys, name, n):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(HIGH_ORDER_FLOWS[name]))
    rc, out, _ = _run(["verify", "--input", str(path), "--n", str(n)], capsys)
    assert rc == 0
    (law,) = [r for r in json.loads(out)["records"] if r["check"] == "semigroup-law"]
    assert law["max_defect"] <= 1e-13


def test_semigroup_n128_matches_the_binomial_series(tmp_path, capsys):
    out, meta = _write_sample(tmp_path, capsys, Z_MINUS_105, n=128)
    assert meta["dim"] == 128
    for t, matrix_file in zip(meta["times"][1:], meta["matrices"][1:]):
        # z - 1.05 = -1.05 (1 - z/1.05); Log(-1.05) = log 1.05 + i pi.
        with mpmath.workdps(30):
            scale = mpmath.exp(t * mpmath.log(mpmath.mpf(-1.05)))
            column = np.array([complex(scale * mpmath.binomial(t, k) * (-1 / mpmath.mpf(1.05)) ** k)
                               for k in range(128)])
        i, j = np.indices((128, 128))
        want = np.where(i >= j, column[i - j], 0)
        assert np.max(np.abs(load_matrix_csv(out / matrix_file).dense() - want)) <= 1e-12


def test_reading_a_flow_file_builds_no_matrix(tmp_path, capsys):
    # the dense 128 x 128 complex matrix alone takes 16 n^2 bytes; the file
    # is read a row at a time, and only its first column is parsed
    n = 128
    out, meta = _write_sample(tmp_path, capsys, Z_MINUS_105, n=n)
    for matrix_file in meta["matrices"]:
        tracemalloc.start()
        try:
            op = load_matrix_csv(out / matrix_file)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n**2, (matrix_file, peak)
        assert isinstance(op, LowerToeplitz) and op.shape == (n, n)


# --------------------------------------------------------------------------
# Möbius symbols must be self-maps of the disk
# --------------------------------------------------------------------------


def _mobius_doc(a, b, c, d, kind="mobius"):
    return {"kind": kind, "mobius": {k: {"re": complex(v).real, "im": complex(v).imag}
                                     for k, v in zip("abcd", (a, b, c, d))}}


@pytest.mark.parametrize("kind", ["mobius", "composition"])
@pytest.mark.parametrize("coeffs, sides", [((2.0, 0.0, 0.0, 1.0), ("2.0", "1.0")),
                                           ((0.5, 0.9, 0.0, 1.0), ("1.4", "1.0"))],
                         ids=["2z", "z/2+0.9"])
def test_non_self_map_exits_2(tmp_path, capsys, kind, coeffs, sides):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(_mobius_doc(*coeffs, kind=kind)))
    rc, out, err = _run(["analyze", "--input", str(path)], capsys)
    assert rc == 2 and out == ""
    assert err.startswith("error: malformed input: mobius: not a self-map of the disk")
    lhs, rhs = sides
    assert f"= {lhs} exceeds" in err and err.endswith(f"= {rhs}\n")


def test_rounded_automorphisms_are_self_maps():
    """Automorphisms meet the criterion with equality; after rounding, the
    coefficients must still pass, while a map 1e-13 beyond must not."""
    rng = np.random.default_rng(7)
    for _ in range(1000):
        alpha = rng.uniform(0.0, 0.99) * cmath.exp(1j * rng.uniform(-4, 4))
        scale = rng.uniform(0.01, 100.0) * cmath.exp(1j * rng.uniform(-4, 4))
        rot = cmath.exp(1j * rng.uniform(-4, 4))
        # scale * rot * (z - alpha)/(1 - conj(alpha) z), and tau_alpha . rotation . tau_alpha
        parse_symbol_document(_mobius_doc(scale * rot, -scale * rot * alpha,
                                          -scale * alpha.conjugate(), scale))
        tau = np.array([[-1.0, alpha], [-alpha.conjugate(), 1.0]])
        parse_symbol_document(_mobius_doc(*(tau @ np.diag([rot, 1.0]) @ tau).ravel()))
    with pytest.raises(SymbolFileError, match="not a self-map"):
        parse_symbol_document(_mobius_doc(1.0 + 1e-13, 0.0, 0.0, 1.0))


# `analyze` documents as printed before the self-map check was added.
ANALYZE_GOLDEN = {
    "tau_0.4": (
        _mobius_doc(-1.0, 0.4, -0.4, 1.0, kind="composition"),
        {"config": {"input_hash": "da46e0ff5bfd0607", "n": 32, "tol": 1e-08},
         "details": {"fixed_point": {"im": 0.0, "re": 0.20871215252207995},
                     "multiplier": {"im": 0.0, "re": -1.0}, "theta": 3.141592653589793},
         "governing_result": "elliptic-automorphism-semiflow",
         "notes": ["semigroup of composition operators"], "semigroup": "elliptic-flow",
         "verdict": "Embeddable"},
    ),
    "z/2+0.2": (
        _mobius_doc(0.5, 0.2, 0.0, 1.0),
        {"config": {"input_hash": "1cac72aca69e23ce", "n": 32, "tol": 1e-08},
         "details": {"alpha": {"im": 0.0, "re": 0.4}, "beta": "infinity", "lhs": 0.4,
                     "multiplier": {"im": 0.0, "re": 0.5}, "rhs": 0.5, "spiral_length": 1.0},
         "governing_result": "attractive-elliptic-spiral-condition",
         "notes": ["spiral condition holds"], "semigroup": "linear-fractional-spiral-flow",
         "verdict": "Embeddable"},
    ),
}


@pytest.mark.parametrize("name", sorted(ANALYZE_GOLDEN))
def test_self_maps_analyze_unchanged(tmp_path, capsys, name):
    doc, expected = ANALYZE_GOLDEN[name]
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(doc))
    rc, out, err = _run(["analyze", "--input", str(path)], capsys)
    assert (rc, err) == (0, "")
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def _load_oracles():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


ORC = _load_oracles()


def _lfm_rule(a, b, c, d):
    """The verdict for z -> (az + b)/(cz + d) by the paper's rules.  Every
    disk automorphism lies in a one-parameter automorphism group
    (Berkson-Porta, Michigan Math. J. 25, 1978): elliptic ones, with an
    interior fixed point, in the rotation group about it.  Any other self-map
    with an interior fixed point embeds iff the spiral condition holds, and
    one without is out of scope."""
    interior = [v for v in ORC.mobius_fixed_points(a, b, c, d) if abs(v) < 1.0 - ORC.TOL]
    if ORC.is_self_map(d, -b, -c, a, margin=-1e-12):  # the inverse is a self-map too
        return "Embeddable", ("elliptic-automorphism-semiflow" if interior
                              else "automorphism-semiflow")
    if interior:
        return ORC.lfm_verdict(a, b, c, d)
    return "OutOfScope", "boundary-fixed-point-unscoped"


def _composition_rule(doc):
    """A Möbius or degree-1 Blaschke symbol, an automorphism (a composition
    file refuses any other Möbius map), takes the rule above.  Any other
    inner symbol with an interior fixed point gives a composition operator
    similar to an isometry, which embeds through the Wold/shift
    construction; without one it is out of scope."""
    if "mobius" in doc:
        return _lfm_rule(*(ORC.cplx(doc["mobius"][k]) for k in "abcd"))
    if "singular" in doc:
        fixed = ORC.singular_inner_fixed_point(doc["singular"]["atoms"])
        interior = [] if fixed is None else [fixed]
    else:
        num, den = ORC.blaschke_num_den(doc["blaschke"])
        if ORC.blaschke_degree(doc["blaschke"]) == 1:
            return _lfm_rule(num[1], num[0], den[-1] if len(den) > 1 else 0.0, den[0])
        z_den = [0j] + den + [0j] * (len(num) - len(den))  # z Q, one longer than P
        fixed_point_poly = [p - q for p, q in zip(num + [0j], z_den)]
        interior = [v for v in ORC.poly_roots(fixed_point_poly) if abs(v) < 1.0 - ORC.TOL]
    if interior:
        return "Embeddable", "similar-isometry-shift-embedding"
    return "OutOfScope", "boundary-fixed-point-unscoped"


def _polynomial_rule(doc):
    verdict, token, _ = ORC.polynomial_verdict([ORC.cplx(c) for c in doc["polynomial"]["coeffs"]])
    return verdict, token


def _rule(doc):
    if doc["kind"] == "toeplitz":
        return ORC.toeplitz_verdict(doc)
    if doc["kind"] == "polynomial":
        return _polynomial_rule(doc)
    return _composition_rule(doc)


def _blaschke_doc(origin_order=0, zeros=(), rotation=0.0):
    return {"rotation": rotation, "origin_order": origin_order,
            "zeros": [{"re": complex(a).real, "im": complex(a).imag, "mult": m} for a, m in zeros]}


def _toeplitz_doc(blaschke=None, singular=None, outer=None, infinite=False):
    return {"kind": "toeplitz", "blaschke": blaschke, "singular": singular, "outer": outer,
            "declared_infinite_blaschke": infinite}


def _polynomial_doc(*coeffs):
    return {"kind": "polynomial",
            "polynomial": {"coeffs": [{"re": complex(c).real, "im": complex(c).imag}
                                      for c in coeffs]}}


_ATOM = {"atoms": [{"angle": 0.0, "mass": 1.0}]}
_TWO_Z_MINUS_4 = {"constant": {"re": 2.0, "im": 0.0}, "exterior_zeros": [{"re": 2.0, "im": 0.0}]}
_PARABOLIC = (2 - 1j, 1j, -1j, 2 + 1j)  # fixes only 1, with multiplier 1

# One symbol file per route through the decisions: name -> (document,
# sha256 of the `analyze` document).  The verdicts come from _rule, never
# from the program.  The digests were recorded before a Möbius composition
# symbol was decided by decide_lfm; only the two automorphisms without an
# interior fixed point changed then, from OutOfScope to Embeddable.
ANALYZE_CORPUS = {
    "toeplitz finite Blaschke": (_toeplitz_doc(blaschke=_blaschke_doc(2)),
        "3dfcb6338847a924caa8e994f9dbbbfa8c6fb9ea80a11227111f496d8fa735c4"),
    "toeplitz singular": (_toeplitz_doc(singular=_ATOM),
        "fd1807a32b825e534ed25f86845d83e107c8e7717dac74d92202d519413b31be"),
    "toeplitz Blaschke times singular": (
        _toeplitz_doc(blaschke=_blaschke_doc(1), singular=_ATOM),
        "a3d351267cb0d4ef2986c864d67f53e0a66c73ecd79ec73f10b6a637802f41c4"),
    "toeplitz outer": (_toeplitz_doc(outer=_TWO_Z_MINUS_4),
        "fff321280f28b009423f57d71b9bf529919730df7d7c932f31000897fb89bfea"),
    "toeplitz singular times outer": (_toeplitz_doc(singular=_ATOM, outer=_TWO_Z_MINUS_4),
        "82b7cb76abe91c5dcb9932754608bfa1bf09c6f264c520b7de37474aaed8e70d"),
    "toeplitz Blaschke times outer": (
        _toeplitz_doc(blaschke=_blaschke_doc(2), outer=_TWO_Z_MINUS_4),
        "4a2851b1e613d7b6c0d67b1e16a9b8af4faf92a956f44f07c4793a78283cb262"),
    "toeplitz Blaschke, singular and outer": (
        _toeplitz_doc(blaschke=_blaschke_doc(2), singular=_ATOM, outer=_TWO_Z_MINUS_4),
        "ad4d3cd2bcc8e63f0620a7bb9e0ebadb68ba4d032fcdf45ba6bd6f7aefdf8519"),
    "toeplitz declared infinite Blaschke": (_toeplitz_doc(infinite=True),
        "b72caf304922f1499fbdaf9e6a914751efbf8d5d2453485c3d414be2189c6515"),
    "toeplitz declared infinite Blaschke times outer": (
        _toeplitz_doc(outer=_TWO_Z_MINUS_4, infinite=True),
        "bf133d90a9f7090596551cac4270539fcb33dbe90c5b0972900e02ef6bbc3919"),
    "polynomial interior zero": (_polynomial_doc(-0.5, 1.0),
        "24d4eb6d222fb02fc59bf9db2ae81931f38a6b223a51ba1bd1f3ddafaefd825b"),
    # (z + 2)(z - 3i)
    "polynomial exterior zeros": (_polynomial_doc(-6j, 2.0 - 3j, 1.0),
        "43501e9815f59233cdd412d17fb15856fd4df7ab83a285b285723cbd92d3b7c9"),
    "polynomial boundary zero": (_polynomial_doc(-1.0, 1.0),
        "39f87f116cfef9440f532a395d8b8ee666e9799f3bd9bad2cab000ffe9586c6b"),
    "mobius identity": (_mobius_doc(1.0, 0.0, 0.0, 1.0),
        "09e0fe03b8e7699dae4da6f7f96fa440a0a96ec31f116e33e5ebef1f2fbf9bee"),
    "mobius elliptic": (_mobius_doc(-1.0, 0.4, -0.4, 1.0),
        "1e718e46c1fa7a45347b8e1acc8dc5a57b50fc5098d3f1d4a2992387c9d9ff15"),
    "mobius hyperbolic": (_mobius_doc(1.0, 0.5, 0.5, 1.0),
        "3a2e664e21ff9adefc445ca216671d69b59bf0620678f33e014002f0c0e62182"),
    "mobius parabolic": (_mobius_doc(*_PARABOLIC),
        "94b6307cebbf9bd48d6dd31f422080a537b22ea5a1b3bbb930e6fc1821fb7069"),
    "mobius spiral holds": (_mobius_doc(0.5, 0.2, 0.0, 1.0),
        "5cba5a96d41386e11f26bcc4c7618788622998413091eba2d171b134d1d8bc72"),
    # z -> lam z + 0.3 (1 - lam), lam = e^{2.5i}/2: the spiral is too long
    "mobius spiral fails": (
        _mobius_doc(0.5 * cmath.exp(2.5j), 0.3 * (1 - 0.5 * cmath.exp(2.5j)), 0.0, 1.0),
        "1813bc0bdd59f7df04e5944fecb668cc87e26673999123fd9a7b5a02800ed8d7"),
    "mobius boundary fixed point": (_mobius_doc(0.5, 0.5, 0.0, 1.0),
        "7ff4fafaa4ff33be5ef9fa469e839b1b58aa35783700fe7a9da9e40d36838360"),
    "composition z^2": ({"kind": "composition", "blaschke": _blaschke_doc(2)},
        "d025850fd5d75c1110371f374c996787fa96c4b6720767478456a78d09627d8f"),
    "composition psi": (PSI_DOC,
        "518a549ea834ea74446d7c6e1ec30051e95adf1bba6177f1c0933b517e4b5845"),
    # ((z + 1/2)/(1 + z/2))^2 fixes 1 with derivative 2/3 there: no interior fixed point
    "composition Blaschke without interior fixed point": (
        {"kind": "composition", "blaschke": _blaschke_doc(zeros=[(-0.5, 2)])},
        "d98c83f4c5caa36c0dfe579c8d7fa0073a2e0097f6d51b3dd20e159f424d6066"),
    "composition degree-1 Blaschke": (
        {"kind": "composition", "blaschke": _blaschke_doc(zeros=[(0.3, 1)])},
        "c5d3f31952249a6267a6305bd2c4fdbd58c725b234c83e5a05a2559a280d39a3"),
    "composition singular inner": ({"kind": "composition", "singular": _ATOM},
        "c39988f7d3d105b8103787551867bfede34f9101b03cc9331bd07c11e46201bf"),
    "composition elliptic": (_mobius_doc(-1.0, 0.4, -0.4, 1.0, kind="composition"),
        "a9602941d3d1e77440938945f73bbd6bc42f5ab01cac4ce24a70bcf4f569a634"),
    "composition hyperbolic": (_mobius_doc(1.0, 0.5, 0.5, 1.0, kind="composition"),
        "c05695aae9914a55229d9cff1ba43d7ccdb5bc37a177d05d872826dfccc366bf"),
    "composition parabolic": (_mobius_doc(*_PARABOLIC, kind="composition"),
        "839d2a2c8e41fba1ff37e8fb7628ee03245695a96fb36cad16ba2429b2014fa0"),
}


@pytest.mark.parametrize("name", sorted(ANALYZE_CORPUS))
def test_analyze_corpus(tmp_path, capsys, name):
    doc, digest = ANALYZE_CORPUS[name]
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(doc))
    rc, out, err = _run(["analyze", "--input", str(path)], capsys)
    assert (rc, err) == (0, "")
    report = json.loads(out)
    assert (report["verdict"], report["governing_result"]) == _rule(doc)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_analyze_corpus_covers_every_token():
    documented = set(re.findall(r"^([a-z]+(?:-[a-z]+)+)\s", decisions.__doc__, re.M))
    assert {_rule(doc)[1] for doc, _ in ANALYZE_CORPUS.values()} == documented


# Embeddable entries of the corpus whose report carries no semigroup: name -> token.
NO_SAMPLE = {
    "toeplitz declared infinite Blaschke": "inner-toeplitz-dichotomy",
    "toeplitz Blaschke times singular": "inner-toeplitz-dichotomy",
    "mobius hyperbolic": "automorphism-semiflow",
    "mobius parabolic": "automorphism-semiflow",
    "composition hyperbolic": "automorphism-semiflow",
    "composition parabolic": "automorphism-semiflow",
}


def _library_report(parsed):
    """The decision of a parsed symbol file from the library alone, at the
    CLI's default --tol."""
    sym, kind = parsed["symbol"], parsed["kind"]
    if kind == "toeplitz":
        return decide_toeplitz(sym, declared_infinite_blaschke=parsed["declared_infinite_blaschke"])
    if kind == "polynomial":
        return decide_polynomial_toeplitz(sym, tol=1e-8)
    if kind == "mobius":
        return decide_lfm(sym, tol=1e-8)
    return decide_composition(sym, tol=1e-8)


@pytest.mark.parametrize("name", sorted(ANALYZE_CORPUS))
def test_library_samples_what_the_cli_writes(tmp_path, capsys, name):
    """Every report's semigroup samples itself, and the library's sample is
    byte for byte the one `semigroup --n 16` writes."""
    doc = ANALYZE_CORPUS[name][0]
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(doc))
    report = _library_report(parse_symbol_document(doc))
    rc, out, err = _run(["semigroup", "--input", str(path), "--n", "16",
                         "--out", str(tmp_path / "cli")], capsys)
    if report.verdict.value != "Embeddable" or name in NO_SAMPLE:
        assert report.semigroup is None
        assert (rc, out) == (3, "")
        assert err == f"error: verdict carries no concrete construction ({report.governing_result})\n"
        assert (name in NO_SAMPLE) == (report.verdict.value == "Embeddable")
        assert NO_SAMPLE.get(name, report.governing_result) == report.governing_result
        return
    assert (rc, err) == (0, "")
    sample = report.semigroup.sample((0.0, 0.5, 1.0), 16)
    for i, t in enumerate(sample.times):
        matrix = f"matrix_{i:02d}.csv"
        dump_matrix_csv(tmp_path / matrix, sample.operator_at(t))
        assert (tmp_path / matrix).read_bytes() == (tmp_path / "cli" / matrix).read_bytes()


# (Möbius coefficients, the composition document of the same map)
SAME_MAP = {
    "identity": ((1.0, 0.0, 0.0, 1.0), None),
    "rotation": ((cmath.exp(0.7j), 0.0, 0.0, 1.0), None),
    "tau_0.4": ((-1.0, 0.4, -0.4, 1.0), None),
    "hyperbolic": ((1.0, 0.5, 0.5, 1.0), None),
    "parabolic": (_PARABOLIC, None),
    "degree-1 Blaschke": ((-1.0, 0.3, -0.3, 1.0),
                          {"kind": "composition", "blaschke": _blaschke_doc(zeros=[(0.3, 1)])}),
}


@pytest.mark.parametrize("name", sorted(SAME_MAP))
def test_a_map_gets_one_answer_in_either_kind(tmp_path, capsys, name):
    coeffs, composition = SAME_MAP[name]
    docs = {"mobius": _mobius_doc(*coeffs),
            "composition": composition or _mobius_doc(*coeffs, kind="composition")}
    answers = {}
    for kind, doc in docs.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        rc, out, err = _run(["analyze", "--input", str(path)], capsys)
        assert (rc, err) == (0, "")
        report = json.loads(out)
        del report["config"]["input_hash"]
        rc, _, verify_err = _run(["verify", "--input", str(path), "--n", "16"], capsys)
        answers[kind] = (json.dumps(report, sort_keys=True), rc, verify_err)
    assert answers["composition"] == answers["mobius"]


IDENTITY_CSV_SHA256 = OUTER_CSV_SHA256[0]  # the time-0 file of every flow sample: I_16
# sha256 of the files `semigroup --n 16` writes and of the document
# `verify --n 16` prints for three Möbius flows, recorded while the elliptic
# and the spiral flow were two classes with two samplers; the one
# linear-fractional flow that replaced them writes the same bytes.  The
# trajectory.csv digests are of the files then written with each
# np.float64(x) field read as x.  The verify digests were re-recorded when
# the law check moved from the spectral to the Frobenius norm; only the
# semigroup-law record changed.  The meta.json and verify digests were
# re-recorded again when the unread "seed" key left every config; only
# that line went.
MOBIUS_FLOW_SHA256 = {
    # tau_0.4 as a composition symbol: the rotation by pi about its fixed point
    "tau_0.4": (
        _mobius_doc(-1.0, 0.4, -0.4, 1.0, kind="composition"),
        {
            "matrix_00.csv": IDENTITY_CSV_SHA256,
            "matrix_01.csv": "95242e4572606e156bc26838e3c04f2d3b290632015067607e38e8f2e60dc8ba",
            "matrix_02.csv": "768fb04c14979df6a1cb46d9289d5e434a8306a376c0083785d01ed2fc193565",
            "meta.json": "1c1334d0cd655d3e7157691ad1fa6f6cd96a6f78f5e2cadcf8686dc0c7b1f3b9",
            "trajectory.csv": "5b33a9f7ee26a26736d2b769842250e86388f09b4075c9a497d36fd31b1abc5b",
            "verify": "9aa9f6500e38a7352af880ade22b7ec3d52524c87cc65fbdf9dbd176d07a3b8f",
        },
    ),
    # tau_alpha . (z -> e^i z) . tau_alpha with alpha = 0.3 + 0.2i
    "elliptic-0.3+0.2i": (
        _mobius_doc(0.41030230586813976 + 0.8414709848078965j,
                    0.30620350520113737 - 0.16050175661599686j,
                    0.03038488872202122 + 0.344380834268741j,
                    0.9297607002371419 - 0.10939122802502654j),
        {
            "matrix_00.csv": IDENTITY_CSV_SHA256,
            "matrix_01.csv": "dc718869b358d0d07b73ddf73e2132f8aaee2b8eb6993077d665f2dbddbd6332",
            "matrix_02.csv": "fcbaf8685d9db2fd2ce0c6d6e7cbfc079eb4eb5e375eda5a493ba4097d491497",
            "meta.json": "f7588fd2374d127537ee78f6f925019528b9f642c930457e664b1a848e98bbb1",
            "trajectory.csv": "16c760d13d9e64aa24aa76ff6773d3e78818f4523bf5957127b396294827ab2e",
            "verify": "ff298b73b0161dab85df32405e7898ee074da8e5ef67291d3681155be307c0ff",
        },
    ),
    # z -> z/2 + 0.2: the Koenigs spiral between 0.4 and infinity
    "z/2+0.2": (
        _mobius_doc(0.5, 0.2, 0.0, 1.0),
        {
            "matrix_00.csv": IDENTITY_CSV_SHA256,
            "matrix_01.csv": "f13370deeff8265a1296b08f9beb7efb8402b0fce0a01a1846de6fc545d3b5d2",
            "matrix_02.csv": "0c01e84c6373d9ee93c8d25f1bd94ebbaff73b3e5415e3926799e775936020a4",
            "meta.json": "15ff88de670c2ed3c1586d5129e9ee68353fe89d97ec8033e044b55ef53721d5",
            "trajectory.csv": "360e9b0c26d7d902702f7c1173154b82548757a9468fe301f2885dba2c164af9",
        },
    ),
}


def _mobius_flow_digests(tmp_path, capsys, doc):
    out, meta = _write_sample(tmp_path, capsys, doc)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in meta["matrices"] + ["meta.json", "trajectory.csv"]}
    _, stdout, _ = _run(["verify", "--input", str(tmp_path / "sym.json"), "--n", "16"], capsys)
    digests["verify"] = hashlib.sha256(stdout.encode()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(MOBIUS_FLOW_SHA256))
def test_mobius_flow_sample_bytes_unchanged(tmp_path, capsys, name):
    doc, expected = MOBIUS_FLOW_SHA256[name]
    digests = _mobius_flow_digests(tmp_path, capsys, doc)
    assert {k: digests[k] for k in expected} == expected



@pytest.mark.parametrize(
    "doc, decide",
    [(OUTER_DOC, decide_toeplitz), (_mobius_doc(0.5, 0.2, 0.0, 1.0), decide_lfm)],
    ids=["outer", "z/2+0.2"],
)
def test_trajectory_rows_are_numbers_on_the_flow(tmp_path, capsys, doc, decide):
    out, meta = _write_sample(tmp_path, capsys, doc)
    flow = decide(parse_symbol_document(doc)["symbol"]).semigroup
    lines = (out / meta["trajectory"]).read_text().splitlines()
    assert lines[0] == "t,re_z,im_z,re_val,im_val"
    rows = [[float(field) for field in line.split(",")] for line in lines[1:]]
    assert [row[0] for row in rows] == [t for t in meta["times"] for _ in range(8)]
    for t in meta["times"]:
        t_rows = np.array([row[1:] for row in rows if row[0] == t])
        z = t_rows[:, 0] + 1j * t_rows[:, 1]
        np.testing.assert_allclose(np.abs(z), 0.6, rtol=1e-15)
        assert np.array_equal(t_rows[:, 2] + 1j * t_rows[:, 3], flow.at(t)(z))


# --------------------------------------------------------------------------
# the exit-code contract: 0 ok, 1 failed check, 2 malformed input,
# 3 verdict without a construction, 4 numeric failure
# --------------------------------------------------------------------------


def test_exit_0_analyze(tmp_path, capsys):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(PSI_DOC))
    rc, out, err = _run(["analyze", "--input", str(path)], capsys)
    assert (rc, err) == (0, "")
    assert json.loads(out)["verdict"] == "Embeddable"


def test_exit_1_sample_whose_law_fails(tmp_path, capsys):
    out, meta = _write_sample(tmp_path, capsys, OUTER_DOC)
    assert meta["times"] == [0.0, 0.5, 1.0]
    last = out / meta["matrices"][2]
    dump_matrix_csv(last, 2.0 * load_matrix_csv(last).dense())
    rc, stdout, stderr = _verify_sample(out, capsys)
    assert (rc, stderr) == (1, "")
    (law,) = [r for r in json.loads(stdout)["records"] if r["check"] == "semigroup-law"]
    assert law["applicable"] and not law["passed"]


@pytest.mark.parametrize("case", ["malformed JSON", "--n 3", "non-self-map"])
def test_exit_2_malformed_input(tmp_path, capsys, case):
    path = tmp_path / "sym.json"
    argv = ["analyze", "--input", str(path)]
    if case == "malformed JSON":
        path.write_text('{"kind": "composition",')
    elif case == "--n 3":
        path.write_text(json.dumps(PSI_DOC))
        argv += ["--n", "3"]
    else:
        path.write_text(json.dumps(_mobius_doc(2.0, 0.0, 0.0, 1.0)))
    rc, out, err = _run(argv, capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"kind": "polynomial", "polynomial": {"coeffs": [{"re": math.nan}, {"re": 1.0}]}},
         "polynomial.coeffs[0].re"),
        ({"kind": "toeplitz", "outer": {"constant": {"re": math.inf}}}, "outer.constant.re"),
        ({"kind": "composition", "singular": {"atoms": [{"angle": 0.0, "mass": math.nan}]}},
         "singular.atoms[0].mass"),
        # float() of this int raised OverflowError out of main (a traceback, exit 1)
        ({"kind": "toeplitz", "outer": {"constant": {"re": 10**400}}}, "outer.constant.re"),
    ],
    ids=["polynomial NaN", "outer Infinity", "atom mass NaN", "integer beyond any float"],
)
def test_exit_2_non_finite_symbol_number(tmp_path, capsys, doc, field):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(doc))  # json writes the NaN and Infinity literals
    rc, out, err = _run(["analyze", "--input", str(path)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: malformed input: {field}: ")


def _composition_with_counts(mult=1, origin_order=1):
    zero = {"re": 0.5, "im": 0.0, "mult": mult}
    return {"kind": "composition", "blaschke": {"origin_order": origin_order, "zeros": [zero]}}


@pytest.mark.parametrize(
    "doc, field",
    [
        (_composition_with_counts(mult=math.nan), "blaschke.zeros[0].mult"),
        (_composition_with_counts(mult="x"), "blaschke.zeros[0].mult"),
        (_composition_with_counts(mult=1.7), "blaschke.zeros[0].mult"),
        (_composition_with_counts(origin_order=1.7), "blaschke.origin_order"),
        (_composition_with_counts(origin_order=-1), "blaschke.origin_order"),
    ],
    ids=["mult NaN", "mult string", "mult fractional", "origin_order fractional",
         "origin_order negative"],
)
def test_exit_2_blaschke_count_not_a_non_negative_integer(tmp_path, capsys, doc, field):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(doc))
    rc, out, err = _run(["analyze", "--input", str(path)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: malformed input: {field}: ")


@pytest.mark.parametrize(
    "doc, field, literal",
    [
        ({"kind": "composition", "singular": {"atoms": [{"angle": 0.0, "mass": True}]}},
         "singular.atoms[0].mass", "true"),
        ({"kind": "composition", "singular": {"atoms": [{"angle": False, "mass": 1.0}]}},
         "singular.atoms[0].angle", "false"),
        (_composition_with_counts(mult=True), "blaschke.zeros[0].mult", "true"),
        (_composition_with_counts(origin_order=True), "blaschke.origin_order", "true"),
        ({"kind": "toeplitz", "outer": {"constant": {"re": True}}}, "outer.constant.re", "true"),
        ({"kind": "polynomial", "polynomial": {"coeffs": [{"re": 1.0, "im": False}]}},
         "polynomial.coeffs[0].im", "false"),
        ({"kind": "mobius", "mobius": {"a": {"re": "0.5", "im": 0}, "b": {"re": 0},
                                       "c": {"re": 0}, "d": {"re": 1}}},
         "mobius.a.re", "'0.5'"),
        (_composition_with_counts(origin_order="2"), "blaschke.origin_order", "'2'"),
        ({"kind": "composition", "singular": {"atoms": [{"angle": "0", "mass": 1.0}]}},
         "singular.atoms[0].angle", "'0'"),
        ({"kind": "composition", "singular": {"atoms": [{"angle": 0.0, "mass": "1"}]}},
         "singular.atoms[0].mass", "'1'"),
        ({"kind": "polynomial", "polynomial": {"coeffs": [{"re": " 3 "}]}},
         "polynomial.coeffs[0].re", "' 3 '"),
        ({"kind": "polynomial", "polynomial": {"coeffs": [{"re": "1_000"}]}},
         "polynomial.coeffs[0].re", "'1_000'"),
    ],
    ids=["mass", "angle", "mult", "origin_order", "re", "im", "re string", "origin_order string",
         "angle string", "mass string", "spaced string", "underscored string"],
)
def test_exit_2_json_boolean_where_a_number_goes(tmp_path, capsys, doc, field, literal):
    # float(True) is 1.0 and float("1_000") is 1000.0: each of these used to
    # read as a number and give a verdict
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(doc))
    rc, out, err = _run(["analyze", "--input", str(path)], capsys)
    assert (rc, out) == (2, "")
    assert err == f"error: malformed input: {field}: {literal} is not a number\n"


def test_blaschke_counts_written_as_integral_floats_are_read(tmp_path, capsys):
    docs = []
    for doc in (_composition_with_counts(), _composition_with_counts(mult=1.0, origin_order=1.0)):
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(doc))
        rc, out, _ = _run(["analyze", "--input", str(path)], capsys)
        assert rc == 0
        docs.append(json.loads(out))
        del docs[-1]["config"]["input_hash"]  # hashes the file text, which differs
    assert docs[0] == docs[1]


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"kind": "composition", "blaschke": {"zeros": 5}}, "blaschke.zeros"),
        ({"kind": "composition", "blaschke": {"zeros": None}}, "blaschke.zeros"),
        ({"kind": "composition", "singular": {"atoms": 5}}, "singular.atoms"),
        ({"kind": "toeplitz", "outer": {"conjugate_factors": 5}}, "outer.conjugate_factors"),
        ({"kind": "toeplitz", "outer": {"exterior_zeros": 5}}, "outer.exterior_zeros"),
        ({"kind": "polynomial", "polynomial": {"coeffs": 5}}, "polynomial.coeffs"),
    ],
    ids=["zeros", "zeros null", "atoms", "conjugate_factors", "exterior_zeros", "coeffs"],
)
def test_exit_2_symbol_list_that_is_not_a_list(tmp_path, capsys, doc, field):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(doc))
    rc, out, err = _run(["analyze", "--input", str(path)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: malformed input: {field}: ")


@pytest.mark.parametrize(
    "declared, verdict",
    [(True, "Embeddable"), (False, "NotEmbeddable"), ("no", None), (None, None), (1, None)],
)
def test_declared_infinite_blaschke_is_a_json_boolean(tmp_path, capsys, declared, verdict):
    path = tmp_path / "sym.json"
    doc = {"kind": "toeplitz", "blaschke": {"origin_order": 1}}
    path.write_text(json.dumps(dict(doc, declared_infinite_blaschke=declared)))
    rc, out, err = _run(["analyze", "--input", str(path)], capsys)
    if verdict is None:
        assert (rc, out) == (2, "")
        assert err.startswith("error: malformed input: declared_infinite_blaschke: ")
    else:
        assert (rc, json.loads(out)["verdict"]) == (0, verdict)


@pytest.mark.parametrize("case", ["missing", "directory", "not UTF-8"])
def test_exit_2_unusable_input_path(tmp_path, capsys, case):
    path = tmp_path / "sym.json"
    if case == "directory":
        path.mkdir()
    elif case == "not UTF-8":
        path.write_bytes(b'{"kind": "\xff"}')
    rc, out, err = _run(["analyze", "--input", str(path)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: malformed input: --input: {path}: ")


@pytest.mark.parametrize(
    "command, case",
    [("analyze", "directory"), ("analyze", "missing directory"), ("semigroup", "file")],
)
def test_exit_2_unusable_output_path(tmp_path, capsys, command, case):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(PSI_DOC))
    out = {"directory": tmp_path, "missing directory": tmp_path / "no" / "doc.json",
           "file": path}[case]
    rc, stdout, err = _run([command, "--input", str(path), "--n", "16", "--out", str(out)], capsys)
    assert (rc, stdout) == (2, "")
    assert err.startswith(f"error: malformed input: --out: {out}: ")


def test_solve_reports_a_triple_zero_once(tmp_path, capsys):
    path = tmp_path / "sym.json"
    zero = {"re": 0.5, "im": 0.2, "mult": 3}
    path.write_text(json.dumps({"kind": "composition", "blaschke": {"zeros": [zero]}}))
    rc, out, _ = _run(["solve", "--input", str(path), "--beta", "0"], capsys)
    doc = json.loads(out)
    assert rc == 0 and doc["all_distinct"] is False
    (root,) = doc["roots"]
    # the three companion roots scatter by about 1e-5, but their centroid
    # moves only linearly with the rounding
    assert root["mult"] == 3 and abs(complex(root["re"], root["im"]) - (0.5 + 0.2j)) < 1e-12


Z2_DOC ={"kind": "composition", "blaschke": {"origin_order": 2}}


@pytest.mark.parametrize(
    "flag, value",
    [("--times", "0,-0.25"), ("--times", "0,nan"),
     ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1")],
)
def test_exit_2_invalid_numeric_flag(tmp_path, capsys, flag, value):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(Z2_DOC))
    rc, out, err = _run(["verify", "--input", str(path), "--n", "16", flag, value], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: malformed input: {flag}: ")


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_zero_tol_is_accepted(tmp_path, capsys, command):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(Z2_DOC))
    assert _run([command, "--input", str(path), "--n", "16", "--tol", "0"], capsys)[0] == 0


def test_wold_grid_follows_the_times(tmp_path, capsys):
    # 0.3 is three cells of width 1/10, the coarsest grid that holds it
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(Z2_DOC))
    argv = ["semigroup", "--input", str(path), "--n", "16", "--times", "0,0.3,1",
            "--out", str(tmp_path / "s")]
    assert _run(argv, capsys)[0] == 0
    loaded = _load_sample_dir(tmp_path / "s")
    built = embed_isometric_composition(BlaschkeProduct(origin_order=2), (0.0, 0.3, 1.0), 16)
    assert built.meta["h"] == 0.1  # test_semigroups checks its 3- and 10-cell shifts
    for t in (0.0, 0.3, 1.0):
        assert np.array_equal(loaded.operator_at(t), built.operator_at(t))
    argv = ["verify", "--input", str(path), "--n", "16", "--times", "0,0.3,1"]
    assert _run(argv, capsys)[0] == 0


def test_exit_4_times_that_no_grid_holds(tmp_path, capsys):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(Z2_DOC))
    argv = ["verify", "--input", str(path), "--n", "16", "--times", "0,0.0153846"]
    rc, out, err = _run(argv, capsys)
    assert (rc, out) == (4, "")
    assert err.startswith("error: HorizonOverflow: ")


@pytest.mark.parametrize("argv", [["semigroup", "--h", "0.5"], ["verify", "--h", "0.25"]])
def test_grid_step_is_no_flag(tmp_path, capsys, argv):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(Z2_DOC))
    with pytest.raises(SystemExit) as stop:
        main(argv + ["--input", str(path), "--n", "16"])
    assert stop.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["semigroup"], ["solve", "--beta", "0.3"], ["frostman", "--lam", "0.3"],
     ["wold"], ["verify"]],
    ids=lambda argv: argv[0],
)
def test_seed_is_no_flag(tmp_path, capsys, argv):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(PSI_DOC))
    with pytest.raises(SystemExit) as stop:
        main(argv + ["--input", str(path), "--seed", "1"])
    assert stop.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("sources", [[], ["--input", "sym.json", "--sample", "sample"]])
def test_verify_takes_exactly_one_source(capsys, sources):
    with pytest.raises(SystemExit) as stop:
        main(["verify", "--n", "16"] + sources)
    assert stop.value.code == 2
    assert "--input" in capsys.readouterr().err


def test_exit_2_verify_that_checks_nothing(tmp_path, capsys):
    # one time: no law pair, no continuity, and the flow is not isometric
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(OUTER_DOC))
    argv = ["verify", "--input", str(path), "--n", "8", "--times", "0.3"]
    rc, out, err = _run(argv, capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: malformed input: --times: no check applies")
    # times 0 and 1: 1 + 1 is not sampled, so the stored sample has no law pair
    out, meta = _write_sample(tmp_path, capsys, OUTER_DOC, n=8)
    meta["times"], meta["matrices"] = [0.0, 1.0], [meta["matrices"][0], meta["matrices"][2]]
    (out / "meta.json").write_text(json.dumps(meta))
    rc, stdout, err = _verify_sample(out, capsys)
    assert (rc, stdout) == (2, "")
    assert err.startswith(f"error: malformed input: {out / 'meta.json'}: times: no check applies")


def test_exit_2_semigroup_that_checks_nothing(tmp_path, capsys):
    # the sample `verify --sample` would refuse is not written
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(OUTER_DOC))
    out = tmp_path / "s"
    argv = ["semigroup", "--input", str(path), "--n", "16", "--times", "0,1", "--out", str(out)]
    rc, stdout, err = _run(argv, capsys)
    assert (rc, stdout) == (2, "")
    assert err.startswith("error: malformed input: --times: no check applies at the times [0.0, 1.0]")
    assert not out.exists()


@pytest.mark.parametrize("times, repeat", [("0,0.5,0.5,1", "0.5 repeats the time 0.5"),
                                           ("0,1,1.0000000000001", "1.0000000000001 repeats")])
@pytest.mark.parametrize("command", ["semigroup", "verify"])
def test_exit_2_repeated_time(tmp_path, capsys, command, times, repeat):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(OUTER_DOC))
    out = tmp_path / "s"
    argv = [command, "--input", str(path), "--n", "8", "--times", times, "--out", str(out)]
    rc, stdout, err = _run(argv, capsys)
    assert (rc, stdout) == (2, "")
    assert err.startswith(f"error: malformed input: --times: {repeat}")
    assert not out.exists()


def test_exit_2_sample_with_a_repeated_time(tmp_path, capsys):
    out, meta = _write_sample(tmp_path, capsys, OUTER_DOC)
    meta["times"] = [0.0, 0.5, 0.5]
    (out / "meta.json").write_text(json.dumps(meta))
    rc, stdout, err = _verify_sample(out, capsys)
    assert (rc, stdout) == (2, "")
    assert err == f"error: malformed input: {out / 'meta.json'}: times[2]: 0.5 repeats the time 0.5\n"


def test_exit_1_sample_with_overflowing_entries(tmp_path, capsys):
    # Every product and norm of these matrices overflows; the law gap is
    # -inf and its norm +inf.  The record must fail, and the document must
    # stay JSON: no NaN or Infinity literal.
    out = tmp_path / "sample"
    out.mkdir()
    names = [f"matrix_{i:02d}.csv" for i in range(3)]
    for name in names:
        (out / name).write_bytes(b"re_ij,im_ij\r\n" + b"1e300,0.0\r\n" * 16)
    meta = {"dim": 4, "times": [0.0, 0.5, 1.0], "matrices": names, "construction": "outer-flow"}
    (out / "meta.json").write_text(json.dumps(meta))
    rc, stdout, _ = _verify_sample(out, capsys)

    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads(stdout, parse_constant=no_constant)
    assert rc == 1
    (record,) = doc["records"]
    assert record["check"] == "semigroup-law" and record["passed"] is False
    assert record["max_defect"] == "infinity"
    assert record["witnesses"] == [["(0.5, 0.5)", "infinity"]]


@pytest.mark.parametrize(
    "outer, times",
    [({"constant": {"re": 2.0, "im": 0.0}, "exterior_zeros": [{"re": 2.0, "im": 0.0}]},
      "0,1000,2000"),
     ({"constant": {"re": 0.5, "im": 0.0}, "conjugate_factors": [{"re": 0.3, "im": 0.0}]},
      "0,1e200,2e200")],
    ids=["2(z-2)", "0.5(1-0.3z)"],
)
@pytest.mark.parametrize("command", ["semigroup", "verify"])
def test_exit_4_flow_time_that_overflows(tmp_path, capsys, command, outer, times):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"kind": "toeplitz", "outer": outer}))
    out = tmp_path / "s"
    argv = [command, "--input", str(path), "--n", "8", "--times", times, "--out", str(out)]
    rc, stdout, err = _run(argv, capsys)
    t = times.split(",")[1]
    assert (rc, stdout) == (4, "")
    assert err.startswith("error: DomainError: ") and f"t = {float(t)!r}" in err
    assert not out.exists()


def test_exit_3_finite_blaschke_toeplitz(tmp_path, capsys):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"kind": "toeplitz", "blaschke": PSI_DOC["blaschke"]}))
    rc, out, err = _run(["verify", "--input", str(path)], capsys)
    assert (rc, out) == (3, "")
    assert err == "error: verdict carries no concrete construction (inner-toeplitz-dichotomy)\n"


@pytest.mark.parametrize(
    "doc, flags, error",
    [(_mobius_doc(0.5, 0.2, 0.0, 1.0, kind="composition"), [],
      "NotInner: Mobius symbols must be disk automorphisms to be inner"),
     ({"kind": "toeplitz", "blaschke": {"rotation": 0.3}}, [],
      "DegenerateSymbol: constant symbols have no embedding content"),
     # z - (1 - 5e-7): the band of --tol 1e-6 holds a zero inside the disk
     (_polynomial_doc(-(1 - 5e-7), 1.0), ["--tol", "1e-6"],
      "DomainError: boundary-band zeros [(0.9999995+0j)] (band ||z| - 1| <= 1e-06) lie "
      "more than 1e-08 inside the circle, where an outer factor cannot vanish")],
    ids=["composition z/2+0.2", "constant toeplitz", "polynomial zero in a loose band"],
)
def test_exit_4_symbol_the_decision_refuses(tmp_path, capsys, doc, flags, error):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(doc))
    for command in ("analyze", "verify"):
        rc, out, err = _run([command, "--input", str(path), "--n", "16", *flags], capsys)
        assert (rc, out) == (4, "")
        assert err == f"error: {error}\n"


@pytest.mark.parametrize(
    "coeffs, token",
    [((1.0, 0.5, 0.5, 1.0), "automorphism-semiflow"),
     ((0.0, 1.0, -1.0, 2.0), "boundary-fixed-point-unscoped"),
     ((0.5, 0.5, 0.0, 1.0), "boundary-fixed-point-unscoped")],
    ids=["(z+1/2)/(1+z/2)", "1/(2-z)", "(1+z)/2"],
)
def test_exit_3_mobius_verdict_without_a_construction(tmp_path, capsys, coeffs, token):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(_mobius_doc(*coeffs)))
    rc, out, err = _run(["analyze", "--input", str(path), "--n", "16"], capsys)
    assert (rc, err) == (0, "")
    assert json.loads(out)["governing_result"] == token
    rc, out, err = _run(["verify", "--input", str(path), "--n", "16"], capsys)
    assert (rc, out) == (3, "")
    assert err == f"error: verdict carries no concrete construction ({token})\n"


def test_exit_4_residual_failure(tmp_path, capsys):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(PSI_DOC))
    rc, out, err = _run(["solve", "--input", str(path), "--beta", "0.3", "--tol", "1e-30"], capsys)
    assert (rc, out) == (4, "")
    assert err.startswith("error: ResidualFailure: preimage residual ")


@pytest.mark.parametrize(
    "doc, token",
    [(ANALYZE_CORPUS["composition hyperbolic"][0], "automorphism-semiflow"),
     (ANALYZE_CORPUS["composition parabolic"][0], "automorphism-semiflow"),
     (ANALYZE_CORPUS["composition elliptic"][0], "elliptic-automorphism-semiflow"),
     (_mobius_doc(1.0, 0.0, 0.0, 1.0, kind="composition"), "automorphism-semiflow"),
     (_mobius_doc(cmath.exp(0.7j), 0.0, 0.0, 1.0, kind="composition"),
      "elliptic-automorphism-semiflow"),
     (ANALYZE_CORPUS["composition degree-1 Blaschke"][0], "elliptic-automorphism-semiflow"),
     (ANALYZE_CORPUS["composition Blaschke without interior fixed point"][0],
      "boundary-fixed-point-unscoped")],
    ids=["hyperbolic", "parabolic", "tau0.4", "identity", "rotation", "degree-1 Blaschke",
         "Blaschke without interior fixed point"],
)
def test_wold_exit_3_without_the_wold_shift_construction(tmp_path, capsys, doc, token):
    """wold refuses by the verdict: only a shift-embedding report has a
    symbol to decompose."""
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(doc))
    rc, out, err = _run(["wold", "--input", str(path), "--n", "16"], capsys)
    assert (rc, out) == (3, "")
    assert err == f"error: verdict carries no concrete construction ({token}: no Wold/shift construction)\n"


def test_wold_moves_a_nonzero_fixed_point_to_0(tmp_path, capsys, monkeypatch):
    """wold decides phi once and decomposes tau_alpha . phi . tau_alpha, as
    verify builds it; a phi fixing 0 is decomposed as it is."""
    calls = []

    def counted(phi, tol):
        calls.append(phi)
        return decide_composition(phi, tol)

    monkeypatch.setattr(cli, "decide_composition", counted)
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(PSI_DOC))
    assert _run(["wold", "--input", str(path), "--n", "16"], capsys)[0] == 0
    assert len(calls) == 1
    sym = parse_symbol_document(VERIFY_GOLDEN["conj-square"][0])["symbol"]
    path.write_text(json.dumps(VERIFY_GOLDEN["conj-square"][0]))
    rc, out, err = _run(["wold", "--input", str(path), "--n", "16"], capsys)
    assert (rc, err, len(calls)) == (0, "", 2)
    alpha = decide_composition(sym).details["fixed_point"]
    assert abs(alpha - 0.0598) < 1e-4
    wold = wold_decompose(ConjugatedSymbol(sym, alpha), 16)
    doc = json.loads(out)
    assert (doc["level_dims"], doc["residual_dim"]) == (wold.level_dims, wold.residual_dim)


@pytest.mark.parametrize(
    "command, flag, value",
    [("solve", "--beta", "-0.2,-0.5"), ("solve", "--beta", "-.2,0.1"),
     ("frostman", "--lam", "-0.1,-0.2"), ("frostman", "--lam", "-1e-1,0.3"),
     ("solve", "--beta", "-0.99999999999,0")],
)
def test_complex_flag_with_a_negative_leading_part(tmp_path, capsys, command, flag, value):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(PSI_DOC))
    joined = _run([command, "--input", str(path), f"{flag}={value}"], capsys)
    assert joined[0] == 0
    assert _run([command, "--input", str(path), flag, value], capsys) == joined


@pytest.mark.parametrize(
    "command, flag, value, words",
    [("solve", "--beta", "abc", "could not convert"), ("solve", "--beta", "nan", "nan is not"),
     ("frostman", "--lam", "0.1,inf", "inf is not"), ("frostman", "--lam", "1,2,3", "RE or RE,IM"),
     ("solve", "--beta", "1.5", "not in the open unit disk"),
     ("frostman", "--lam", "1", "not in the open unit disk"),
     ("solve", "--beta", "0.6,-0.8", "not in the open unit disk")],
)
def test_exit_2_malformed_complex_flag(tmp_path, capsys, command, flag, value, words):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(PSI_DOC))
    rc, out, err = _run([command, "--input", str(path), f"{flag}={value}"], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: malformed input: {flag}: ") and words in err


def test_exit_4_numeric_failure(tmp_path, capsys, monkeypatch):
    def ill_conditioned(*args, **kwargs):
        raise IllConditioned("no direction resolved")

    monkeypatch.setattr(cli, "wold_decompose", ill_conditioned)
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(PSI_DOC))
    rc, out, err = _run(["wold", "--input", str(path)], capsys)
    assert (rc, out) == (4, "")
    assert err == "error: IllConditioned: no direction resolved\n"


# --------------------------------------------------------------------------
# main parses with one parser per process; calls must not leak into each other
# --------------------------------------------------------------------------


def test_same_argv_twice_prints_the_same_bytes(tmp_path, capsys):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(PSI_DOC))
    argv = ["verify", "--input", str(path), "--n", "16", "--format", "csv"]
    first = _run(argv, capsys)
    assert first[0] == 0 and first[1]
    assert _run(argv, capsys) == first


def _flatten(prefix, val, rows):
    if isinstance(val, dict):
        for k in sorted(val):
            _flatten(f"{prefix}.{k}" if prefix else k, val[k], rows)
    elif isinstance(val, list):
        for i, v in enumerate(val):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append([prefix, str(val)])
    return rows


@pytest.mark.parametrize("argv, doc", [
    (["analyze"], _mobius_doc(1.0, 0.5, 0.5, 1.0)),  # (z + 1/2)/(1 + z/2), hyperbolic
    (["verify", "--n", "16"], PSI_DOC),  # witness labels such as (0.25, 0.75)
], ids=["analyze hyperbolic", "verify psi"])
def test_csv_rows_parse_into_key_and_value(tmp_path, capsys, argv, doc):
    """A value holding a comma is quoted: every row parses into two fields,
    and the values are those of the JSON document."""
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(doc))
    rc, text, _ = _run([*argv, "--input", str(path), "--format", "csv"], capsys)
    assert rc == 0
    rows = list(csv.reader(io.StringIO(text)))
    assert all(len(row) == 2 for row in rows)
    assert "," in "".join(value for _, value in rows)
    rc, text, _ = _run([*argv, "--input", str(path)], capsys)
    assert rows == _flatten("", json.loads(text), [["key", "value"]])


@pytest.mark.parametrize("name, doc", [
    ("outer", OUTER_DOC),
    ("tau_0.4", _mobius_doc(-1.0, 0.4, -0.4, 1.0, kind="composition")),
    ("psi", PSI_DOC),
])
def test_semigroup_writes_the_records_verify_prints(tmp_path, capsys, name, doc):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(doc))
    flags = ["--input", str(path), "--n", "16", "--times", "0,0.25,0.5,1", "--tol", "1e-9"]
    out = tmp_path / "sample"
    assert _run(["semigroup", *flags, "--out", str(out)], capsys)[0] == 0
    rc, text, _ = _run(["verify", *flags], capsys)
    records = json.loads(text)["records"]
    assert rc == (0 if all(r["passed"] for r in records) else 1)
    assert json.loads((out / "verification.json").read_text()) == records
    assert [r["check"] for r in records][:1] == ["semigroup-law"]


@pytest.mark.parametrize("first", ["semigroup", "verify"])
def test_semigroup_and_verify_interleaved(tmp_path, capsys, first):
    """Their --times defaults differ; neither call may see the other's."""
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(PSI_DOC))
    argv = {
        "semigroup": ["semigroup", "--input", str(path), "--n", "16", "--out", str(tmp_path / "s")],
        "verify": ["verify", "--input", str(path), "--n", "16"],
    }
    second = "verify" if first == "semigroup" else "semigroup"
    runs = [(cmd, _run(argv[cmd], capsys)) for cmd in (first, second, first, second)]
    assert runs[0] == runs[2] and runs[1] == runs[3]
    outputs = {cmd: json.loads(result[1]) for cmd, result in runs[:2]}
    assert outputs["semigroup"]["times"] == [0.0, 0.5, 1.0]
    assert outputs["verify"]["records"] == VERIFY_RECORDS_N16


def test_argparse_error_then_valid_call(tmp_path, capsys):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(PSI_DOC))
    argv = ["wold", "--input", str(path), "--n", "16"]
    before = _run(argv, capsys)
    with pytest.raises(SystemExit) as stop:
        main(["wold", "--input", str(path), "--bogus", "1"])
    assert stop.value.code == 2
    assert "unrecognized arguments: --bogus 1" in capsys.readouterr().err
    assert _run(argv, capsys) == before


# --------------------------------------------------------------------------
# the program runs on numpy alone; SciPy is only a test oracle
# --------------------------------------------------------------------------

_SRC = str(Path(cli.__file__).resolve().parents[1])


def _python(code, *args):
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=False
    )


def test_cli_import_leaves_scipy_out():
    done = _python("import sys, h2embed.cli; print([m for m in sys.modules if 'scipy' in m])")
    assert (done.returncode, done.stdout) == (0, "[]\n")


@pytest.mark.parametrize(
    "doc, argv", [(Z2_DOC, ["verify", "--n", "16"]), (PSI_DOC, ["wold", "--n", "32"])],
    ids=["verify z^2", "wold psi"],
)
def test_cli_runs_with_scipy_blocked(tmp_path, capsys, doc, argv):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(doc))
    argv = [*argv, "--input", str(path)]
    in_process = _run(argv, capsys)
    assert in_process[0] == 0 and in_process[2] == ""
    # a None entry makes every `import scipy...` raise ImportError
    blocked = "import sys; sys.modules['scipy'] = None; import h2embed.cli as c; sys.exit(c.main())"
    done = _python(blocked, *argv)
    assert (done.returncode, done.stdout, done.stderr) == in_process


def _mpmath_singular_fixed_point(atoms):
    """The attracting fixed point of S = exp(-sum m (zeta + z)/(zeta - z)),
    by iterating S from 0 in 30-digit arithmetic (Denjoy-Wolff)."""
    with mpmath.workdps(30):
        zetas = [(mpmath.expj(a["angle"]), a["mass"]) for a in atoms]
        z = mpmath.mpc(0)
        for _ in range(500):
            z = mpmath.exp(-mpmath.fsum(m * (zeta + z) / (zeta - z) for zeta, m in zetas))
        return complex(z)


@pytest.mark.parametrize(
    "atoms",
    [[{"angle": 0.0, "mass": 1.0}], [{"angle": 1.0, "mass": 0.5}, {"angle": -2.0, "mass": 0.25}]],
    ids=["one-atom", "two-atoms"],
)
def test_singular_inner_composition_is_decided(tmp_path, capsys, atoms):
    # A singular inner function is inner by construction (positive masses
    # on the circle); no boundary test stands between it and its verdict.
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"kind": "composition", "singular": {"atoms": atoms}}))
    rc, out, _ = _run(["analyze", "--input", str(path)], capsys)
    doc = json.loads(out)
    assert rc == 0
    assert (doc["verdict"], doc["governing_result"]) == (
        "Embeddable", "similar-isometry-shift-embedding")
    alpha = complex(doc["details"]["fixed_point"]["re"], doc["details"]["fixed_point"]["im"])
    assert abs(alpha - _mpmath_singular_fixed_point(atoms)) <= 1e-12


# The singular inner composition symbols of the wold-verify workload, written
# out: the atom, and atoms at angles 1.0 and -2.0 with masses 0.5 and 0.25.
SINGULAR_COMPOSITIONS = {
    "atom": {"kind": "composition", "singular": {"atoms": [{"angle": 0.0, "mass": 1.0}]}},
    "two atoms": {"kind": "composition", "singular": {"atoms": [
        {"angle": 1.0, "mass": 0.5}, {"angle": -2.0, "mass": 0.25}]}},
}


def _run_on(tmp_path, capsys, command, doc, n):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--input", str(path), "--n", str(n)]
    if command == "semigroup":
        argv += ["--out", str(tmp_path / "sample")]
    return _run(argv, capsys)


@pytest.mark.parametrize("command", ["semigroup", "verify", "wold"])
@pytest.mark.parametrize(
    "name, n", [("atom", 16), ("atom", 32), ("atom", 64), ("atom", 128), ("two atoms", 32)]
)
def test_singular_inner_composition_builds_its_wold_shift_embedding(
    tmp_path, capsys, command, name, n
):
    """Singular inner symbols are inner by type, so the Embeddable verdict of
    `analyze` comes with a construction that every command builds."""
    rc, out, err = _run_on(tmp_path, capsys, command, SINGULAR_COMPOSITIONS[name], n)
    assert (rc, err) == (0, "")


@pytest.mark.parametrize("command", ["semigroup", "verify", "wold"])
def test_two_atoms_at_n16_are_a_numeric_refusal(tmp_path, capsys, command):
    rc, out, err = _run_on(tmp_path, capsys, command, SINGULAR_COMPOSITIONS["two atoms"], 16)
    assert (rc, out) == (4, "")
    assert err.startswith("error: IllConditioned: ") and "raise the truncation order" in err


def test_one_default_tolerance_for_library_and_cli(tmp_path, capsys):
    """z -> 0.5 e^i z + 0.23995778951728 misses the spiral inequality by
    5.0e-9, so its verdict turns between the tolerances 1e-9 and 1e-8: every
    decision and `--tol` default to the one DEFAULT_TOL, and agree on it."""
    m = MobiusMap(0.5 * cmath.exp(1j), 0.23995778951728, 0.0, 1.0)
    for decide in (decide_composition, decide_lfm, decide_polynomial_toeplitz):
        assert inspect.signature(decide).parameters["tol"].default == decisions.DEFAULT_TOL
    assert decisions.DEFAULT_TOL == 1e-8
    report = decide_lfm(m)
    assert report.details["lhs"] - report.details["rhs"] == pytest.approx(5.0e-9, rel=1e-3)
    assert decide_lfm(m, tol=1e-9).verdict.value == "NotEmbeddable"
    rc, out, err = _run_on(tmp_path, capsys, "analyze", _mobius_doc(m.a, m.b, m.c, m.d), 32)
    doc = json.loads(out)
    assert (rc, doc["verdict"], doc["governing_result"]) == (
        0, "Embeddable", "attractive-elliptic-spiral-condition")
    assert (report.verdict.value, report.governing_result) == (
        doc["verdict"], doc["governing_result"])
    assert doc["config"]["tol"] == decisions.DEFAULT_TOL


# --------------------------------------------------------------------------
# `verify --sample` reads multiplication-flow files back as LowerToeplitz
# operators and takes the law path `semigroup` took
# --------------------------------------------------------------------------

ROUNDTRIP_SYMBOLS = {
    "singular": {"kind": "toeplitz", "singular": {"atoms": [{"angle": 0.4, "mass": 0.4}]}},
    "outer": {"kind": "toeplitz", "outer": {"constant": {"re": 1.5, "im": -0.7},
                                            "conjugate_factors": [{"re": 0.3, "im": 0.4}],
                                            "exterior_zeros": [{"re": 1.2, "im": -0.9}]}},
    "inner-outer": HIGH_ORDER_FLOWS["inner-outer"],
    "3+z+z^2/2": HIGH_ORDER_FLOWS["polynomial"],
    "2(z-2)": {"kind": "toeplitz", "outer": {"constant": {"re": 2.0, "im": 0.0},
                                             "exterior_zeros": [{"re": 2.0, "im": 0.0}]}},
    "rotation": _mobius_doc(cmath.exp(0.7j), 0.0, 0.0, 1.0),
}


@pytest.mark.parametrize("n", [16, 128])
@pytest.mark.parametrize("name", sorted(ROUNDTRIP_SYMBOLS))
def test_verify_sample_prints_the_records_of_verification_json(tmp_path, capsys, name, n):
    out, meta = _write_sample(tmp_path, capsys, ROUNDTRIP_SYMBOLS[name], n=n)
    written = {r["check"]: r for r in json.loads((out / "verification.json").read_text())}
    rc, stdout, _ = _verify_sample(out, capsys)
    printed = json.loads(stdout)["records"]
    assert "semigroup-law" in [r["check"] for r in printed]
    assert rc == (0 if all(r["passed"] for r in printed) else 1)
    for record in printed:
        assert record == written[record["check"]]
    kinds = {type(op).__name__ for op in _load_sample_dir(out).operators}
    assert kinds == ({"LowerToeplitz", "ndarray"} if name == "rotation" else {"LowerToeplitz"})


@pytest.mark.parametrize("where", ["below", "above"])
def test_a_toeplitz_file_off_in_one_entry_reads_back_dense(tmp_path, capsys, where):
    out, meta = _write_sample(tmp_path, capsys, OUTER_DOC)
    i, j = (9, 3) if where == "below" else (3, 9)
    last = out / meta["matrices"][2]
    matrix = load_matrix_csv(last).dense()
    matrix[i, j] += 1e-12 if where == "below" else 1e-300
    dump_matrix_csv(last, matrix)
    sample = _load_sample_dir(out)
    assert [type(op).__name__ for op in sample.operators] == [
        "LowerToeplitz", "LowerToeplitz", "ndarray"]
    assert sample.operators[2].tobytes() == matrix.tobytes()
    rc, stdout, _ = _verify_sample(out, capsys)
    (law,) = [r for r in json.loads(stdout)["records"] if r["check"] == "semigroup-law"]
    # the dense gap of V(1) - V(1/2)^2 holds the moved entry
    assert rc == 0 and law["max_defect"] >= (0.5e-12 if where == "below" else 0.0)


@pytest.mark.parametrize("name", ["outer", "rotation", "psi", "loaded outer", "loaded psi"])
def test_every_operator_kind_has_ndim_shape_and_nbytes(tmp_path, capsys, name):
    # perfbench/tracing.py sums op.nbytes over a sample's operators, and
    # _load_sample_dir compares op.shape with (dim,) * op.ndim
    doc = {"outer": OUTER_DOC, "rotation": ROUNDTRIP_SYMBOLS["rotation"], "psi": PSI_DOC}
    if name.startswith("loaded"):
        out, _ = _write_sample(tmp_path, capsys, doc[name.split()[1]])
        sample = _load_sample_dir(out)
    else:
        report = _library_report(parse_symbol_document(doc[name]))
        sample = report.semigroup.sample((0.0, 0.5, 1.0), 16)
    for op in sample.operators:
        assert op.shape == (sample.dim,) * op.ndim
        assert isinstance(op.nbytes, int) and 0 < op.nbytes <= 16 * sample.dim**2
    assert sum(op.nbytes for op in sample.operators) > 0


FLOW_DOCS = {**ROUNDTRIP_SYMBOLS, **{name: doc for name, (doc, _) in MOBIUS_FLOW_SHA256.items()}}


@pytest.mark.parametrize("name", sorted(FLOW_DOCS))
def test_each_operator_keeps_its_kind_through_the_sample_directory(tmp_path, capsys, name):
    # the checks take one path on what `semigroup` held and on what
    # `verify --sample` reads back, the identity at t = 0 included
    doc = FLOW_DOCS[name]
    out, meta = _write_sample(tmp_path, capsys, doc)
    report = _library_report(parse_symbol_document(doc))
    held = report.semigroup.sample(meta["times"], meta["dim"])
    loaded = _load_sample_dir(out)
    for t in meta["times"]:
        assert type(held.operator_at(t)) is type(loaded.operator_at(t)), t
    assert type(loaded.operator_at(0.0)).__name__ == "LowerToeplitz"


def test_law_of_index_files_that_do_not_compose_builds_no_matrix(tmp_path, capsys, monkeypatch):
    # V(1/2) and V(1) swapped, so the index operators do not compose; at
    # dim 2305 each dense matrix of the gap would take 85 MB
    sparse = pytest.importorskip("scipy.sparse")
    out, meta = _write_sample(tmp_path, capsys, PSI_DOC, n=48)
    meta["matrices"][1:] = meta["matrices"][:0:-1]
    (out / "meta.json").write_text(json.dumps(meta))

    def no_dense(self, t, x=None):
        raise AssertionError("the law of three index operators needs no matrix")

    monkeypatch.setattr(cli.OperatorSemigroupSample, "apply", no_dense)
    rc, stdout, stderr = _verify_sample(out, capsys)
    assert (rc, stderr) == (1, "")
    (law,) = json.loads(stdout)["records"]
    # the oracle: the same operators as sparse 0/1 matrices, composed by product
    dim = meta["dim"]

    def matrix(name):
        src = load_matrix_csv(out / name)
        rows = np.flatnonzero(src >= 0)
        return sparse.csr_matrix((np.ones(rows.size), (rows, src[rows])), shape=(dim, dim))

    half, one = (matrix(name) for name in meta["matrices"][1:])
    want = math.sqrt((one - half @ half).multiply(one - half @ half).sum())
    assert law["check"] == "semigroup-law" and not law["passed"]
    assert law["witnesses"] == [["(0.5, 0.5)", want]] and law["max_defect"] == want > 0
