import json
import math

import numpy as np
import pytest

from h2embed import semigroups
from h2embed.cli import _load_sample_dir, main
from h2embed.errors import IllConditioned
from h2embed.operators import DEFAULT_RANK_TOL, wold_decompose
from h2embed.semigroups import OperatorSemigroupSample, embed_isometric_composition
from h2embed.symbols import BlaschkeProduct
from h2embed.verify import (
    check_isometry,
    check_noncompactness_proxy,
    check_semigroup_law,
    check_strong_continuity,
    check_wold_reconstruction,
)

PSI = BlaschkeProduct(origin_order=1, zeros=[(0.5, 1)])


def test_wold_reconstruction_applies_to_generic_blaschke():
    rec = check_wold_reconstruction(PSI, 16, 1e-8)
    assert rec.applicable and rec.passed
    assert rec.details == {
        "level_dims": [2, 2, 2, 2, 2, 1],
        "residual_dim": 4,
        "wandering_bound": DEFAULT_RANK_TOL,
        "compared_columns": 1,
        "resolved_columns": 12,
    }
    assert dict(rec.witnesses)["wandering"] <= DEFAULT_RANK_TOL


def test_wold_reconstruction_fails_on_a_vector_of_the_range(monkeypatch):
    # Swap one wandering vector for psi itself, a unit vector of ran C_psi.
    def leaky(psi, n):
        wold = wold_decompose(psi, n)
        c = wold.comp.matrix
        wold.wandering_basis[:, 0] = c[:, 1] / np.linalg.norm(c[:, 1])
        return wold

    monkeypatch.setattr(semigroups, "wold_decompose", leaky)
    rec = check_wold_reconstruction(PSI, 16, 1e-8)
    assert rec.applicable and not rec.passed
    assert dict(rec.witnesses)["wandering"] > 0.9


def test_embedding_of_an_unresolved_wandering_subspace_is_numeric_failure():
    with pytest.raises(IllConditioned):
        embed_isometric_composition(PSI, (0.0, 1.0), 8)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e300])
def test_a_non_finite_defect_fails_every_check(bad):
    # 1e300 entries overflow the products and norms to inf, then inf - inf
    # to NaN; max(0.0, nan) is 0.0, so a NaN defect must not reach max.
    ops = [np.eye(4, dtype=complex)] + [np.full((4, 4), bad, dtype=complex)] * 2
    sample = OperatorSemigroupSample([0.0, 0.5, 1.0], ops, "outer-flow", 4, True)
    records = [
        check_semigroup_law(sample, [(0.5, 0.5)], 1e-8),
        check_isometry(sample, 1e-6),
        check_noncompactness_proxy(sample, 1e-6),
        check_strong_continuity(sample, 1.0),
    ]
    for rec in records:
        assert rec.applicable and not rec.passed
        assert rec.max_defect == math.inf
        assert rec.witnesses[0][1] == math.inf
        assert not any(math.isnan(defect) for _, defect in rec.witnesses)
