import cmath
import hashlib
import json
import math
import shutil

import mpmath
import numpy as np
import pytest

from h2embed import cli
from h2embed.cli import _load_sample_dir, main
from h2embed.decisions import decide_lfm, decide_toeplitz
from h2embed.errors import IllConditioned
from h2embed.fileio import (
    SymbolFileError,
    dump_matrix_csv,
    load_matrix_csv,
    parse_symbol_document,
)

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
        "config": {"input_hash": input_hash, "n": 16, "seed": 1729, "tol": 1e-08},
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
        assert np.max(np.abs(load_matrix_csv(out / matrix_file) - want)) <= 1e-12


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
        {"config": {"input_hash": "da46e0ff5bfd0607", "n": 32, "seed": 1729, "tol": 1e-08},
         "details": {"fixed_point": {"im": 0.0, "re": 0.20871215252207995},
                     "multiplier": {"im": 0.0, "re": -1.0}, "theta": 3.141592653589793},
         "governing_result": "elliptic-automorphism-semiflow",
         "notes": ["semigroup of composition operators"], "semigroup": "elliptic-flow",
         "verdict": "Embeddable"},
    ),
    "z/2+0.2": (
        _mobius_doc(0.5, 0.2, 0.0, 1.0),
        {"config": {"input_hash": "1cac72aca69e23ce", "n": 32, "seed": 1729, "tol": 1e-08},
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


IDENTITY_CSV_SHA256 = OUTER_CSV_SHA256[0]  # the time-0 file of every flow sample: I_16
# sha256 of the files `semigroup --n 16` writes and of the document
# `verify --n 16` prints for three Möbius flows, recorded while the elliptic
# and the spiral flow were two classes with two samplers; the one
# linear-fractional flow that replaced them writes the same bytes.  The
# trajectory.csv digests are of the files then written with each
# np.float64(x) field read as x.
MOBIUS_FLOW_SHA256 = {
    # tau_0.4 as a composition symbol: the rotation by pi about its fixed point
    "tau_0.4": (
        _mobius_doc(-1.0, 0.4, -0.4, 1.0, kind="composition"),
        {
            "matrix_00.csv": IDENTITY_CSV_SHA256,
            "matrix_01.csv": "95242e4572606e156bc26838e3c04f2d3b290632015067607e38e8f2e60dc8ba",
            "matrix_02.csv": "768fb04c14979df6a1cb46d9289d5e434a8306a376c0083785d01ed2fc193565",
            "meta.json": "4554489d9bf16dbb5f0a0664d097e46e852c0584a841315b7f74cf1a3e718080",
            "trajectory.csv": "5b33a9f7ee26a26736d2b769842250e86388f09b4075c9a497d36fd31b1abc5b",
            "verify": "9e6e97903184e2e9195dd36fa1dad53d91892b961f19ea57b045d5d6c2b105c5",
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
            "meta.json": "f5e48c48adaff4ce470661959de13df1360f0e8a92dae9b3980b796e5aef3c18",
            "trajectory.csv": "16c760d13d9e64aa24aa76ff6773d3e78818f4523bf5957127b396294827ab2e",
            "verify": "6e9edea09e0c001bfac8676d871cf5d5ceccbe0fcdc56f729715368a3d8d385e",
        },
    ),
    # z -> z/2 + 0.2: the Koenigs spiral between 0.4 and infinity
    "z/2+0.2": (
        _mobius_doc(0.5, 0.2, 0.0, 1.0),
        {
            "matrix_00.csv": IDENTITY_CSV_SHA256,
            "matrix_01.csv": "f13370deeff8265a1296b08f9beb7efb8402b0fce0a01a1846de6fc545d3b5d2",
            "matrix_02.csv": "0c01e84c6373d9ee93c8d25f1bd94ebbaff73b3e5415e3926799e775936020a4",
            "meta.json": "f2b5eb2c79d8e97a69591582c23202e4bda65733bddebebc68f1d35ef0e72c6d",
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
    dump_matrix_csv(last, 2.0 * load_matrix_csv(last))
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
    ],
    ids=["polynomial NaN", "outer Infinity", "atom mass NaN"],
)
def test_exit_2_non_finite_symbol_number(tmp_path, capsys, doc, field):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(doc))  # json writes the NaN and Infinity literals
    rc, out, err = _run(["analyze", "--input", str(path)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: malformed input: {field}: ")


def _blaschke_doc(mult=1, origin_order=1):
    zero = {"re": 0.5, "im": 0.0, "mult": mult}
    return {"kind": "composition", "blaschke": {"origin_order": origin_order, "zeros": [zero]}}


@pytest.mark.parametrize(
    "doc, field",
    [
        (_blaschke_doc(mult=math.nan), "blaschke.zeros[0].mult"),
        (_blaschke_doc(mult="x"), "blaschke.zeros[0].mult"),
        (_blaschke_doc(mult=1.7), "blaschke.zeros[0].mult"),
        (_blaschke_doc(origin_order=1.7), "blaschke.origin_order"),
        (_blaschke_doc(origin_order=-1), "blaschke.origin_order"),
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


def test_blaschke_counts_written_as_integral_floats_are_read(tmp_path, capsys):
    docs = []
    for doc in (_blaschke_doc(), _blaschke_doc(mult=1.0, origin_order=1.0)):
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(doc))
        rc, out, _ = _run(["analyze", "--input", str(path)], capsys)
        assert rc == 0
        docs.append(json.loads(out))
        del docs[-1]["config"]["input_hash"]  # hashes the file text, which differs
    assert docs[0] == docs[1]


Z2_DOC ={"kind": "composition", "blaschke": {"origin_order": 2}}


@pytest.mark.parametrize(
    "flag, value",
    [("--h", "0.3"), ("--h", "inf"), ("--times", "0,-0.25"), ("--times", "0,nan"),
     ("--tol", "nan"), ("--tol", "inf")],
)
def test_exit_2_invalid_numeric_flag(tmp_path, capsys, flag, value):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(Z2_DOC))
    rc, out, err = _run(["verify", "--input", str(path), "--n", "16", flag, value], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: malformed input: {flag}: ")


def test_exit_4_fractional_time(tmp_path, capsys):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(Z2_DOC))
    argv = ["verify", "--input", str(path), "--n", "16", "--times", "0,0.3,1", "--h", "0.25"]
    rc, out, err = _run(argv, capsys)
    assert (rc, out) == (4, "")
    assert err.startswith("error: FractionalTime: ")


def test_exit_3_finite_blaschke_toeplitz(tmp_path, capsys):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"kind": "toeplitz", "blaschke": PSI_DOC["blaschke"]}))
    rc, out, err = _run(["verify", "--input", str(path)], capsys)
    assert (rc, out) == (3, "")
    assert err == "error: verdict carries no concrete construction (inner-toeplitz-dichotomy)\n"


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


@pytest.mark.parametrize("first", ["semigroup", "verify"])
def test_semigroup_and_verify_interleaved(tmp_path, capsys, first):
    """Their --times and --h defaults differ; neither call may see the other's."""
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
