import json

import pytest

from h2embed.cli import main

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
