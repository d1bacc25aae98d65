import hashlib
import json
import shutil

import numpy as np
import pytest

from h2embed.cli import _load_sample_dir, main
from h2embed.fileio import dump_matrix_csv, load_matrix_csv

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
# the default times 0, 0.5, 1, as written by the per-row csv.writer that
# the bulk writer replaced.
OUTER_CSV_SHA256 = [
    "f690b2e74b9b12af529e788d46839c5dabb005cebc183745fbc967c710856631",
    "ea2e2be5fdc0d6be164afb2000388ea2f346600630e9cb0af7e09a5a68af05b8",
    "66dc0e2e85512fd5b8709f3148abf26cbed1d60dbab1857206bb53afa2787adf",
]


def _write_sample(tmp_path, capsys, doc, n=16):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "sample"
    assert main(["semigroup", "--input", str(path), "--n", str(n), "--out", str(out)]) == 0
    capsys.readouterr()
    return out, json.loads((out / "meta.json").read_text())


def _verify_sample(out, capsys):
    rc = main(["verify", "--sample", str(out)])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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
