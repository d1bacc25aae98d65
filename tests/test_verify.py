import json
import math
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from h2embed import semigroups
from h2embed.cli import _analyze, _law_pairs, _load_sample_dir, main
from h2embed.errors import HorizonOverflow, IllConditioned, MissingTime
from h2embed.fileio import parse_symbol_document
from h2embed.operators import DEFAULT_RANK_TOL, LowerToeplitz, wold_decompose
from h2embed.semigroups import (
    OperatorSemigroupSample,
    SpiralFlow,
    embed_isometric_composition,
    sample_spiral_flow,
    wold_comparison_defect,
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
    want = check_semigroup_law(dense, pairs, 1e-8)

    def no_dense(*args):
        raise AssertionError("the law of three index operators needs no matrix")

    sample.apply = no_dense
    rec = check_semigroup_law(sample, pairs, 1e-8)
    assert not rec.passed
    assert rec.witnesses == want.witnesses
    assert rec.max_defect == want.max_defect > 1e-8


def test_corrupted_embedded_sample_fails_by_the_index_count():
    """An embedded Wold/shift sample whose V(1) no longer composes is judged
    by the index count on its own space, with no matrix formed.  The
    embedding E has orthonormal columns, so the count is at least the gap
    (V(t+s) - V(t) V(s)) E on the resolved subspace."""
    sample = embed_isometric_composition(BlaschkeProduct(origin_order=2), (0.0, 0.5, 1.0), 16)
    sample.operator_at(1.0)[-1] = 0  # the last row of V_1 now reads the constant
    pairs = [(0.5, 0.5), (0.0, 1.0)]
    e = sample.embedding
    resolved = max(
        float(np.linalg.norm(sample.apply(t + s, e) - sample.apply(t, sample.apply(s, e))))
        for t, s in pairs
    )

    def no_dense(*args):
        raise AssertionError("the law of three index operators needs no matrix")

    sample.apply = no_dense
    rec = check_semigroup_law(sample, pairs, 1e-8)
    assert not rec.passed
    assert rec.witnesses == [((0.5, 0.5), math.sqrt(2)), ((0.0, 1.0), 0.0)]
    assert rec.max_defect >= resolved > 1e-8


PADDING_SYMBOLS = {
    "z^2": BlaschkeProduct(origin_order=2),
    "z^3": BlaschkeProduct(origin_order=3),
    "psi": PSI,
    "deg3": BlaschkeProduct(origin_order=1, zeros=[(0.2 + 0.3j, 1), (-0.4 + 0.1j, 1)]),
}


def _padded_to_the_cap(sample, n):
    """``sample`` on all 4 n cells of its cap: the operators and embedding
    as a sample sized to the cap builds them, zero on the added cells."""
    d, h = sample.meta["fiber_dim"], sample.meta["h"]
    dim = 1 + 4 * n * d
    ops = []
    for t, op in zip(sample.times, sample.operators):
        k = round(t / h)
        src = np.arange(dim) - k * d
        src[1 : 1 + k * d] = -1
        src[0] = 0
        assert np.array_equal(src[: sample.dim], op)
        ops.append(src)
    embedding = np.zeros((dim, sample.embedding.shape[1]), dtype=complex)
    embedding[: sample.dim] = sample.embedding
    return OperatorSemigroupSample(
        sample.times, ops, sample.construction, dim, sample.isometric, embedding, sample.meta
    )


def _records(sample):
    """The records ``verify`` prints for a Wold/shift sample, at its thresholds."""
    return [
        check_semigroup_law(sample, _law_pairs(sample.times), 1e-8),
        check_isometry(sample, 1e-6),
        check_noncompactness_proxy(sample, 1e-6),
        check_strong_continuity(sample, 1.0),
    ]


QUARTERS, EIGHTHS = (0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 0.125, 1.0)
PADDING_CASES = [
    pytest.param(name, n, times, id=f"{name}-{n}-{label}")
    for name in sorted(PADDING_SYMBOLS)
    for n in (12, 16, 32)
    for label, times in (("quarters", QUARTERS), ("eighths", EIGHTHS))
    if (name, n, times) != ("psi", 12, EIGHTHS)  # overflows: see below
]


@pytest.mark.parametrize("name, n, times", PADDING_CASES)
def test_wold_records_do_not_depend_on_the_padding(name, n, times):
    """The sample holds the cells its L levels and largest shift reach, and
    judges like the same sample padded with zero cells to its 4 n cap: the
    records, witnesses bit for bit, and the time-1 comparison."""
    sample = embed_isometric_composition(PADDING_SYMBOLS[name], times, n)
    m, d = round(1 / sample.meta["h"]), sample.meta["fiber_dim"]
    levels = len(sample.meta["wold"].level_dims)
    assert sample.dim == 1 + (levels * m + round(max(times) * m)) * d
    assert sample.meta["horizon"] == 4 * n
    padded = _padded_to_the_cap(sample, n)
    assert [repr(r) for r in _records(sample)] == [repr(r) for r in _records(padded)]
    got, want = wold_comparison_defect(sample, 1), wold_comparison_defect(padded, 1)
    assert repr(got) == repr(want)


def test_the_cap_still_bounds_the_cells():
    # Eighths take 8 cells per unit of time.  z^2 at n = 12 has 4 levels of
    # 8 cells, and t = 1 shifts 8 more: 40 cells of its cap of 4 n = 48.
    # psi at n = 12 has 7 levels, 64 cells with the shift, and overflows.
    sample = embed_isometric_composition(PADDING_SYMBOLS["z^2"], EIGHTHS, 12)
    assert (sample.dim - 1) // sample.meta["fiber_dim"] == 40
    assert sample.meta["horizon"] == 48
    assert len(wold_decompose(PSI, 12).level_dims) == 7
    with pytest.raises(HorizonOverflow, match="levels occupy 56 cells and shifts add 8"):
        embed_isometric_composition(PSI, EIGHTHS, 12)


def test_isometry_check_of_an_index_sample_builds_no_identity():
    """Without an embedding the test vectors are the first unit vectors
    alone: a complex dim x dim identity at dim 4000 would take 256 MB."""
    dim = 4000
    shift = np.arange(dim) - 1  # row 0 reads nothing (-1), row i row i - 1
    sample = OperatorSemigroupSample([0.0, 1.0], [np.arange(dim), shift], "loaded", dim, True)
    tracemalloc.start()
    try:
        rec = check_isometry(sample, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.passed and rec.max_defect == 0.0
    assert peak < 8e6


@seed(27)
@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40).flatmap(lambda dim: st.lists(
    st.lists(st.integers(-1, dim - 1), min_size=dim, max_size=dim), min_size=3, max_size=3)))
def test_index_law_gap_is_the_dense_norm_bit_for_bit(srcs):
    """Three row-gather operators with no embedding: the gap counted on the
    indices is the Frobenius norm of the dense gap, bit for bit."""
    ops = [np.array(src, dtype=np.intp) for src in srcs]
    times = [0.25, 0.5, 0.75]

    def sample(operators):
        return OperatorSemigroupSample(times, operators, "loaded", len(srcs[0]), True)

    index = sample(ops)
    dense = sample([index.apply(t) for t in times])
    pairs = [(0.25, 0.5)]
    assert check_semigroup_law(index, pairs, 0.0).max_defect == check_semigroup_law(
        dense, pairs, 0.0).max_defect


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


# --------------------------------------------------------------------------
# the law of LowerToeplitz operators, from their columns
# --------------------------------------------------------------------------


def _toeplitz_sample(columns, times):
    ops = [LowerToeplitz(c) for c in columns]
    return OperatorSemigroupSample(list(times), ops, "outer-flow", ops[0].shape[0], False)


def _gamma(m):
    u = np.finfo(float).eps / 2
    return m * u / (1 - m * u)


@seed(26)
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 160), rng_seed=st.integers(0, 2**32 - 1),
       decay=st.sampled_from([0.3, 0.9, 1.0]), near=st.booleans())
def test_column_law_defect_is_the_dense_one_to_rounding(n, rng_seed, decay, near):
    """With u = eps/2, gamma_m = m u/(1 - m u) and p = |c_t| * |c_s| (the
    truncated convolution of the moduli), entry (i, j) of the dense gap
    G = T(c_ts) - T(c_t) T(c_s) and entry k = i - j of the column gap
    d = c_ts - (c_t * c_s)[:n] each take one complex dot product of at most
    n terms, within gamma_{n+2} p_k of the exact one (Higham, Accuracy and
    Stability, 2002, secs. 3.1 and 3.6), and one subtraction, within u of the
    result.  So |G_ij - d_k| <= e_k = 2 gamma_{n+3} (p_k + |c_ts_k|), and
    | ||G||_F - ||T(d)||_F | <= E = sqrt(sum_k (n - k) e_k^2) for the exact
    norms.  The computed norms sum at most 2 n^2 squares, within
    gamma_{2n^2+2} of the exact ones, relative.  E is computed from the
    computed p, within gamma_{n+2} of the exact one; the factor 2 on E
    covers that and the rounding of E itself."""
    rng = np.random.default_rng(rng_seed)
    scale = decay ** np.arange(n)
    c_t, c_s = (scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) for _ in "ts")
    c_ts = np.convolve(c_t, c_s)[:n]
    if near:  # a semigroup to rounding: the defect is rounding alone
        c_ts = c_ts * (1 + 4 * np.finfo(float).eps * rng.standard_normal(n))
    else:
        c_ts = c_ts + scale * rng.standard_normal(n)
    sample = _toeplitz_sample([c_t, c_s, c_ts], [0.25, 0.5, 0.75])
    column = check_semigroup_law(sample, [(0.25, 0.5)], 0.0).max_defect
    t_ts, t_t, t_s = (LowerToeplitz(c).dense() for c in (c_ts, c_t, c_s))
    gap = t_ts - t_t @ t_s
    dense = float(np.linalg.norm(gap))
    p = np.convolve(np.abs(c_t), np.abs(c_s))[:n]
    e = 2 * _gamma(n + 3) * (p + np.abs(c_ts))
    bound = 2 * math.sqrt(np.dot(np.arange(n, 0, -1.0), e**2))
    bound += _gamma(2 * n * n + 2) * (dense + column)
    assert abs(column - dense) <= bound


def _flow_columns(name, n):
    sample = _dense_flow_sample(name, n)
    return sample, [op.column.copy() for op in sample.operators]


def _scaled(cols):
    cols[4] = 0.99 * cols[4]  # V(1)


def _swapped(cols):
    cols[2], cols[4] = cols[4], cols[2]  # V(1/2) and V(1)


def _moved(cols):
    cols[2][len(cols[2]) // 2] += 1e-6  # one coefficient of V(1/2)


@pytest.mark.parametrize("n", [16, 64, 128])
@pytest.mark.parametrize("mutate", [None, _scaled, _swapped, _moved],
                         ids=["unmutated", "scaled", "swapped", "moved"])
@pytest.mark.parametrize("name", ["outer", "singular", "inner-outer", "polynomial"])
def test_column_law_check_fails_on_each_mutation(name, mutate, n):
    sample, cols = _flow_columns(name, n)
    if mutate is not None:
        mutate(cols)
    mutated = _toeplitz_sample(cols, sample.times)
    rec = check_semigroup_law(mutated, _law_pairs(sample.times), 1e-8)
    assert rec.passed is (mutate is None)
