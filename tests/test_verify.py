import json

import pytest

from h2embed.cli import _load_sample_dir, main
from h2embed.errors import IllConditioned
from h2embed.semigroups import OperatorSemigroupSample, embed_isometric_composition
from h2embed.symbols import BlaschkeProduct
from h2embed.verify import check_semigroup_law, check_wold_reconstruction

PSI = BlaschkeProduct(origin_order=1, zeros=[(0.5, 1)])


def test_wold_reconstruction_applies_to_generic_blaschke():
    rec = check_wold_reconstruction(PSI, 16, 1e-8)
    assert rec.applicable and rec.passed
    assert rec.details == {"level_dims": [2, 2, 2, 2, 2, 1], "residual_dim": 4}


def test_embedding_passes_rank_tol_to_wold():
    with pytest.raises(IllConditioned):
        embed_isometric_composition(PSI, (0.0, 1.0), 16, 0.5, rank_tol=0.0)


def _loaded_z2_sample(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"kind": "composition", "blaschke": {"origin_order": 2}}))
    out = tmp_path / "sample"
    assert main(["semigroup", "--input", str(path), "--n", "16", "--out", str(out)]) == 0
    return _load_sample_dir(out)


def test_index_law_is_exact_without_dense_operators(tmp_path, capsys):
    sample = _loaded_z2_sample(tmp_path)
    capsys.readouterr()
    assert all(op.ndim == 1 for op in sample.operators)

    def no_dense(*args):
        raise AssertionError("the law of three index operators needs no matrix")

    sample.apply = no_dense
    rec = check_semigroup_law(sample, [(0.5, 0.5), (0.0, 1.0)], 1e-8)
    assert rec.passed and rec.max_defect == 0.0


def test_corrupted_index_sample_fails_like_its_dense_rewrite(tmp_path, capsys):
    sample = _loaded_z2_sample(tmp_path)
    capsys.readouterr()
    src = sample.operator_at(1.0)
    src[-1] = 0  # the last row of V_1 now reads the constant
    dense = OperatorSemigroupSample(
        times=sample.times,
        operators=[sample.apply(t) for t in sample.times],
        construction=sample.construction,
        dim=sample.dim,
        isometric=sample.isometric,
    )
    pairs = [(0.5, 0.5), (0.0, 1.0)]
    rec = check_semigroup_law(sample, pairs, 1e-8)
    assert not rec.passed
    assert rec.max_defect == check_semigroup_law(dense, pairs, 1e-8).max_defect > 1e-8
