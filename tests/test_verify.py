import json
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from h2embed import semigroups
from h2embed.cli import _analyze, _law_pairs, _load_sample_dir, main
from h2embed.errors import IllConditioned, MissingTime
from h2embed.fileio import parse_symbol_document
from h2embed.operators import DEFAULT_RANK_TOL, wold_decompose
from h2embed.semigroups import (
    OperatorSemigroupSample,
    SpiralFlow,
    embed_isometric_composition,
    sample_spiral_flow,
)
from h2embed.decisions import decide_composition
from h2embed.symbols import BlaschkeProduct, SingularInner
from h2embed.verify import (
    _record,
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
    assert [name for name, _ in rec.witnesses] == [
        "orthonormality", "wandering", "time-1 agreement"]
    assert dict(rec.witnesses)["wandering"] <= DEFAULT_RANK_TOL


def test_wold_reconstruction_passes_for_psi_rotated_by_pi_at_n128():
    psi = BlaschkeProduct(rotation=math.pi, origin_order=1, zeros=[(0.5, 1)])
    rec = check_wold_reconstruction(psi, 128, 1e-8)
    assert rec.passed
    assert (rec.details["compared_columns"], rec.details["resolved_columns"]) == (5, 119)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_wold_reconstruction_passes_for_the_conjugated_atom(n):
    # The atom exp(-(1 + z)/(1 - z)) conjugated to fix 0 is inner by type.  The
    # time-1 comparison covers one column only (ROADMAP item 1).
    atom = SingularInner.from_angles([(0.0, 1.0)])
    rec = check_wold_reconstruction(decide_composition(atom).semigroup.fixing_origin(), n, 1e-8)
    assert rec.applicable and rec.passed
    assert rec.details["compared_columns"] == 1


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: a correct construction fails; the time-1 agreement of psi "
    "(rotation 0) at n = 128 is 3.5e-6 over 12 of 122 columns",
)
def test_wold_reconstruction_passes_for_psi_at_n128():
    assert check_wold_reconstruction(PSI, 128, 1e-8).passed


def test_wold_reconstruction_fails_on_a_vector_of_the_range(monkeypatch):
    # Swap one wandering vector for psi itself, a unit vector of ran C_psi.
    def leaky(psi, n):
        wold = wold_decompose(psi, n)
        c = wold.comp
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


@pytest.mark.parametrize("pair", [(0.5, 0.25), (1.0, 0.5)], ids=["s", "t+s"])
def test_law_pair_with_an_unsampled_time_raises_missing_time(pair):
    sample = sample_spiral_flow(SpiralFlow.elliptic(0.3, 1.0), (0.0, 0.5, 1.0), 8)
    with pytest.raises(MissingTime):
        check_semigroup_law(sample, [(0.5, 0.5), pair], 1e-8)


def test_record_keeps_the_five_worst_and_floors_the_defect():
    witnesses = [(f"w{i}", -1e-3 * i) for i in range(7)]
    rec = _record("noncompactness-proxy", witnesses, 1e-6)
    assert rec.max_defect == 0.0 and rec.passed
    assert rec.witnesses == witnesses[:5]
    rec = _record("strong-continuity", [("vector 0", 0.5)], 1.0, worst=1.25)
    assert rec.max_defect == 1.25 and not rec.passed


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


# Flows whose samples are dense, so the law check forms every gap.
DENSE_FLOWS = {
    "outer": {"kind": "toeplitz", "outer": {"constant": {"re": 1.5, "im": -0.7},
                                            "conjugate_factors": [{"re": 0.3, "im": 0.4}],
                                            "exterior_zeros": [{"re": 1.2, "im": -0.9}]}},
    "singular": {"kind": "toeplitz", "singular": {"atoms": [{"angle": 0.4, "mass": 0.4}]}},
    "polynomial": {"kind": "polynomial",
                   "polynomial": {"coeffs": [{"re": 3.0}, {"re": 1.0}, {"re": 0.5}]}},
    "inner-outer": {"kind": "toeplitz", "singular": {"atoms": [{"angle": 0.4, "mass": 0.4}]},
                    "outer": {"constant": {"re": -0.5},
                              "exterior_zeros": [{"re": 2.1, "im": 0.3}]}},
    # tau_0.4 = (0.4 - z)/(1 - 0.4 z) as a composition symbol, and z/2 + 0.2
    "tau_0.4": {"kind": "composition", "mobius": {"a": {"re": -1.0}, "b": {"re": 0.4},
                                                  "c": {"re": -0.4}, "d": {"re": 1.0}}},
    "z/2+0.2": {"kind": "mobius", "mobius": {"a": {"re": 0.5}, "b": {"re": 0.2},
                                             "c": {"re": 0.0}, "d": {"re": 1.0}}},
}


def _dense_flow_sample(name, n):
    parsed = parse_symbol_document(DENSE_FLOWS[name])
    args = SimpleNamespace(n=n, tol=1e-8)
    times = [0.0, 0.25, 0.5, 0.75, 1.0]  # the times `verify` samples by default
    return _analyze(parsed, args).semigroup.sample(times, n)


@pytest.mark.parametrize("n", [16, 64, 128])
@pytest.mark.parametrize("name", sorted(DENSE_FLOWS))
def test_law_witness_lies_between_the_operator_norm_and_sqrt_n_times_it(name, n):
    sample = _dense_flow_sample(name, n)
    assert all(op.ndim == 2 for op in sample.operators)
    pairs = _law_pairs(sample.times)
    rec = check_semigroup_law(sample, pairs, 1e-8)
    assert sorted(pair for pair, _ in rec.witnesses) == sorted(pairs)
    for (t, s), w in rec.witnesses:
        gap = sample.apply(t + s) - sample.apply(t) @ sample.apply(s)
        spectral = np.linalg.norm(gap, 2)
        assert spectral > 0.0
        # the two norms are computed apart, so each may be off by rounding
        assert spectral * (1 - 1e-12) <= w <= math.sqrt(sample.dim) * spectral
    assert rec.max_defect == max(w for _, w in rec.witnesses)


@pytest.mark.parametrize("factor, passed", [(2.0, False), (0.5, True)])
def test_rank_one_gap_is_held_to_its_operator_norm(factor, passed):
    # V_1 = c u v^* against V_1/2 = 0: the gap is exactly the rank-one c u v^*,
    # whose Frobenius and operator norms are both c, one factor either side of tol.
    tol = 1e-8
    rng = np.random.default_rng(3)
    u, v = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
    c = factor * tol
    gap = c * np.outer(u / np.linalg.norm(u), (v / np.linalg.norm(v)).conj())
    assert np.linalg.norm(gap, 2) == pytest.approx(c, rel=1e-12)
    ops = [np.eye(6, dtype=complex), np.zeros((6, 6), dtype=complex), gap]
    sample = OperatorSemigroupSample([0.0, 0.5, 1.0], ops, "outer-flow", 6, False)
    rec = check_semigroup_law(sample, [(0.5, 0.5)], tol)
    assert rec.passed is passed
    assert rec.max_defect == pytest.approx(c, rel=1e-12)


def test_law_check_takes_no_svd(tmp_path, capsys, monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("the law check of a flow needs no SVD")

    # np.linalg.norm(x, 2) calls svd through the module that defines it
    monkeypatch.setattr(sys.modules[np.linalg.svd.__wrapped__.__module__], "svd", no_svd)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(DENSE_FLOWS["outer"]))
    assert main(["verify", "--input", str(path), "--n", "64"]) == 0
    (law,) = [r for r in json.loads(capsys.readouterr().out)["records"]
              if r["check"] == "semigroup-law"]
    assert law["applicable"] and 0.0 < law["max_defect"] <= 1e-8
