import functools
import itertools
import math
import re

import mpmath
import numpy as np
import pytest

from h2embed.errors import (
    BranchFailure,
    DomainError,
    HorizonOverflow,
    MissingTime,
    NonCommuting,
)
from h2embed.blaschke import conjugate_by_automorphism
from h2embed.decisions import decide_composition, decide_lfm
from h2embed.semigroups import (
    ConstantFlow,
    OuterFlow,
    ProductFlow,
    SingularInnerFlow,
    SpiralFlow,
    _covered_columns,
    embed_isometric_composition,
    sample_multiplication_flow,
    sample_spiral_flow,
    wold_comparison_defect,
)
from h2embed.symbols import (
    BlaschkeProduct,
    MobiusMap,
    RationalOuter,
    SingularInner,
    taylor_coefficients,
)

TIMES = (0.0, 0.25, 0.5, 0.75, 1.0)
CELLS = 4  # cells per unit of time: the coarsest grid that holds TIMES
SYMBOLS = {
    "z^2": BlaschkeProduct(origin_order=2),
    "z^3": BlaschkeProduct(origin_order=3),
    "psi": BlaschkeProduct(origin_order=1, zeros=[(0.5, 1)]),
}


def dense_shift(sample, k):
    """[[1, 0], [0, kron(S_k, I_d)]] with S_k the k-cell right translation
    on the sample's cells."""
    d = sample.meta["fiber_dim"]
    v = np.zeros((sample.dim, sample.dim), dtype=complex)
    v[0, 0] = 1.0
    v[1:, 1:] = np.kron(np.eye((sample.dim - 1) // d, k=-k), np.eye(d))
    return v


def row_gather(src, x):
    """Reference for a row-gather operator, a row at a time: row i of the
    result is a complex copy of row ``src[i]`` of x (of the identity when x
    is None), and +0.0 where ``src[i]`` is -1."""
    x = np.eye(src.size, dtype=complex) if x is None else np.asarray(x)
    out = np.zeros(x.shape, dtype=complex)
    for i, s in enumerate(src.tolist()):
        if s >= 0:
            out[i] = x[s]
    return out


@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("name", sorted(SYMBOLS))
def test_wold_operators_are_cell_shifts(name, n):
    sample = embed_isometric_composition(SYMBOLS[name], TIMES, n)
    assert sample.meta["h"] == 1 / CELLS
    for t in TIMES:
        assert np.array_equal(sample.apply(t), dense_shift(sample, round(t * CELLS)))


@pytest.mark.parametrize(
    "times, cells",
    [((0.0, 1.0), 1), ((0.0, 0.5, 1.0), 2), ((0.0, 0.3, 1.0), 10), ((0.0, 0.75, 1.5), 4),
     ((0.0, 1 / 3), 3)],
)
def test_wold_grid_is_the_coarsest_that_holds_the_times(times, cells):
    sample = embed_isometric_composition(SYMBOLS["z^2"], times, 16)
    assert sample.meta["h"] == 1 / cells
    for t in times:
        assert np.array_equal(sample.apply(t), dense_shift(sample, round(t * cells)))


@pytest.mark.parametrize(
    "sample",
    [
        embed_isometric_composition(SYMBOLS["psi"], TIMES, 12),
        sample_spiral_flow(SpiralFlow.elliptic(0.3, 1.0), TIMES, 12),
    ],
    ids=["wold", "elliptic-flow"],
)
def test_apply_to_vectors_matches_the_matrix(sample):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((sample.dim, 3)) + 1j * rng.standard_normal((sample.dim, 3))
    real = x[:, 0].real.copy()
    real[::3] = -0.0
    for t in TIMES:
        m = sample.apply(t)
        np.testing.assert_allclose(sample.apply(t, x), m @ x, rtol=0, atol=1e-13)
        np.testing.assert_allclose(sample.apply(t, x[:, 0]), m @ x[:, 0], rtol=0, atol=1e-13)
        op = sample.operator_at(t)
        if op.ndim == 1:  # a row-gather operator gives the rows themselves
            for v in (None, x, real):
                got, want = sample.apply(t, v), row_gather(op, v)
                assert got.dtype == want.dtype == complex and got.tobytes() == want.tobytes()


def test_wold_sample_holds_no_square_matrix():
    sample = embed_isometric_composition(SYMBOLS["z^2"], TIMES, 32)
    assert all(op.ndim == 1 for op in sample.operators)
    assert sum(op.nbytes for op in sample.operators) <= 8 * sample.dim * len(TIMES)


def _conj_square():
    """(z - 0.3)^2/(1 - 0.3 z)^2 moved by tau_alpha to fix 0, alpha its
    interior fixed point (0.0598)."""
    b = BlaschkeProduct(zeros=[(0.3, 2)])
    return conjugate_by_automorphism(b, decide_composition(b).details["fixed_point"])


EMBEDDED = dict(
    SYMBOLS,
    deg3=BlaschkeProduct(origin_order=1, zeros=[(0.2 + 0.3j, 1), (-0.4 + 0.1j, 1)]),
    conj_square=_conj_square(),
)


def _by_level(wold, values):
    """``values``, aligned with ``wold.basis[:, 1:]``, as one list per level."""
    return [v.tolist() for v in np.split(values, np.cumsum(wold.level_dims)[:-1])]


def nested_loop_embedding(sample):
    """Reference embedding: one column at a time, level by level and chain
    by chain, each the indicator of its level's m cells scaled by sqrt(h)."""
    wold, h, d = sample.meta["wold"], sample.meta["h"], sample.meta["fiber_dim"]
    m = round(1 / h)
    embedding = np.zeros((sample.dim, 1 + sum(wold.level_dims)), dtype=complex)
    embedding[0, 0] = 1.0
    cidx = 1
    for lv, ids in enumerate(_by_level(wold, wold.chain)):
        for i in ids:
            embedding[1 + np.arange(lv * m, (lv + 1) * m) * d + i, cidx] = math.sqrt(h)
            cidx += 1
    return embedding


@pytest.mark.parametrize("times", [(0.0, 0.5, 1.0), TIMES])
@pytest.mark.parametrize("n", [12, 16, 24, 32])
@pytest.mark.parametrize("name", sorted(EMBEDDED))
def test_embedding_scatter_matches_the_nested_loop(name, n, times):
    sample = embed_isometric_composition(EMBEDDED[name], times, n)
    assert np.array_equal(sample.embedding, nested_loop_embedding(sample))


def dict_loop_comparison(sample, k):
    """Reference for ``wold_comparison_defect``: losses in a dict keyed by
    (level, chain), whose insertion order is the order of the basis columns,
    and one column at a time."""
    wold = sample.meta["wold"]
    p = wold.basis
    ck = np.linalg.matrix_power(wold.comp, k)
    levels = zip(_by_level(wold, wold.chain), _by_level(wold, wold.loss))
    loss = {(lv, i): x for lv, (ids, xs) in enumerate(levels) for i, x in zip(ids, xs)}
    covered = [0]
    for cidx, (lv, i) in enumerate(loss, start=1):
        alive = loss[(lv, i)] <= 1e-8 and loss.get((lv + k, i), 1.0) <= 1e-8
        if alive or float(np.linalg.norm(ck @ p[:, cidx])) <= 1e-9:
            covered.append(cidx)
    e = sample.embedding
    diff = (e.conj().T @ sample.apply(float(k), e) - p.conj().T @ ck @ p)[:, covered]
    return float(np.linalg.norm(diff, 2)), covered


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [16, 32, 64, 128])
@pytest.mark.parametrize(
    "psi",
    [
        SYMBOLS["psi"],
        BlaschkeProduct(rotation=math.pi, origin_order=1, zeros=[(0.5, 1)]),
        EMBEDDED["deg3"],
        SYMBOLS["z^2"],
    ],
    ids=["psi", "psi-rotated-by-pi", "deg3", "z^2"],
)
def test_comparison_table_matches_the_dict_loop(psi, n, k):
    sample = embed_isometric_composition(psi, tuple(float(t) for t in range(k + 1)), n)
    wold = sample.meta["wold"]
    defect, count = wold_comparison_defect(sample, k)
    want_defect, want_covered = dict_loop_comparison(sample, k)
    ck = np.linalg.matrix_power(wold.comp, k)
    assert _covered_columns(wold, ck, k).tolist() == want_covered
    assert count == len(want_covered)
    assert abs(defect - want_defect) <= 1e-12


# --------------------------------------------------------------------------
# closed-form Taylor coefficients of multiplication flows, against mpmath
# --------------------------------------------------------------------------

EPS = np.finfo(float).eps
FLOW_TIMES = (0.25, 0.5, 1.0)
FLOW_NS = (16, 128, 256)
GENERIC_OUTER = RationalOuter(1.5 - 0.7j, [0.3 + 0.4j], [1.2 - 0.9j])
TWO_ATOMS = SingularInner.from_angles([(0.3, 0.7), (2.0, 1.3)])
FLOWS = {
    "outer": OuterFlow(GENERIC_OUTER),
    "2(z-2)": OuterFlow(RationalOuter(2.0, [], [2.0])),
    "z-1.05": OuterFlow(RationalOuter(1.0, [], [1.05])),
    "two-atom": SingularInnerFlow(TWO_ATOMS),
    "inner-outer": ProductFlow(
        [SingularInnerFlow(SingularInner.from_angles([(-1.0, 0.4)])), OuterFlow(GENERIC_OUTER)]
    ),
}


def _mp_convolve(a, b):
    return [mpmath.fdot(a[: k + 1], b[k::-1]) for k in range(len(a))]


def _mp_factors(flow, t, n):
    """(scale, [(series, majorant)]): the flow's time-t symbol as scale
    times the product of the series, each from an independent formula in
    30-digit arithmetic (the caller's precision), with the majorant its rounding is relative to.

    Outer factors use mpmath's gamma-function binomial; a binomial series
    is summed term by term from k cumulative products, so its majorant is
    its own absolute value.  Each atom's series comes from the exponential
    recurrence for exp(-x - 2x sum_k (z/zeta)^k), not from the Laguerre
    recurrence the program uses.  That three-term recurrence is run in its
    oscillatory range, where a rounding error made at step j travels on at
    the size of the terms it meets, so its majorant is the running maximum
    of the absolute values (at most 1: S**t is inner)."""
    t = mpmath.mpf(t)
    if isinstance(flow, ProductFlow):
        scale, factors = mpmath.mpf(1), []
        for part in flow.parts:
            s, f = _mp_factors(part, t, n)
            scale, factors = scale * s, factors + f
        return scale, factors
    if isinstance(flow, OuterFlow):
        outer = flow.outer
        f0 = mpmath.mpc(outer.constant)
        for b in outer.exterior_zeros:
            f0 *= -mpmath.mpc(b)
        ws = [mpmath.conj(mpmath.mpc(a)) for a in outer.conjugate_factors]
        ws += [1 / mpmath.mpc(b) for b in outer.exterior_zeros]
        factors = []
        for w in ws:
            series = [mpmath.binomial(t, k) * (-w) ** k for k in range(n)]
            factors.append((series, [abs(c) for c in series]))
        # mpmath's log is principal, arg in (-pi, pi]: F(0) = -4 takes +i pi.
        return mpmath.exp(t * mpmath.log(f0)), factors
    factors = []
    for zeta, mass in flow.symbol.atoms:
        x = t * mpmath.mpf(mass)
        g = [-x] + [-2 * x * mpmath.conj(mpmath.mpc(zeta)) ** j for j in range(1, n)]
        h = [mpmath.exp(g[0])]
        jg = [j * g[j] for j in range(n)]
        for k in range(1, n):
            h.append(mpmath.fdot(jg[1 : k + 1], h[k - 1 :: -1]) / k)
        running = list(itertools.accumulate((abs(c) for c in h), max))
        factors.append((h, running))
    return mpmath.mpf(1), factors


@functools.lru_cache(maxsize=None)
def _mp_reference(name, t, n):
    """Coefficients and their rounding bound.  A coefficient built from d
    series, each from k cumulative products or recurrence steps, and d - 1
    truncated convolutions carries at most 4 (d + 1)(k + 1) eps relative to
    the convolution of the series' majorants."""
    with mpmath.workdps(30):
        scale, factors = _mp_factors(FLOWS[name], t, n)
        value = [scale] + [mpmath.mpf(0)] * (n - 1)
        major = [abs(scale)] + [mpmath.mpf(0)] * (n - 1)
        for series, majorant in factors:
            value = _mp_convolve(value, series)
            major = _mp_convolve(major, majorant)
    d = len(factors)
    want = np.array([complex(v) for v in value])
    bound = np.array([4 * (d + 1) * (k + 1) * EPS * float(m) for k, m in enumerate(major)])
    return want, bound


@pytest.mark.parametrize("n", FLOW_NS)
@pytest.mark.parametrize("t", FLOW_TIMES)
@pytest.mark.parametrize("name", sorted(FLOWS))
def test_flow_coefficients_match_mpmath(name, t, n):
    want, bound = _mp_reference(name, t, 256)
    got = FLOWS[name].coefficients(t, n)
    assert got.shape == (n,)
    assert np.all(np.abs(got - want[:n]) <= bound[:n])


def test_outer_branch_takes_plus_i_pi_at_negative_f0():
    # F = 2(z - 2) has F(0) = -4; F**(1/2) starts at 2i, not -2i.
    c = FLOWS["2(z-2)"].coefficients(0.5, 4)
    assert abs(c[0] - 2j) <= 4 * EPS


@pytest.mark.parametrize("t", FLOW_TIMES)
@pytest.mark.parametrize("name", sorted(FLOWS))
def test_flow_coefficients_match_the_fft_kernel(name, t):
    flow = FLOWS[name]
    kernel, err = taylor_coefficients(flow.at(t), 64, return_errors=True)
    assert np.all(np.abs(flow.coefficients(t, 64) - kernel) <= err)


@pytest.mark.parametrize("name", ["outer", "2(z-2)", "z-1.05"])
def test_time_one_outer_reproduces_the_symbol(name):
    # At t = 1 each binomial series is exactly 1 - w z, so both sides are
    # products of the d linear factors and the constant, each coefficient
    # within 4 (d + 2) eps of the majorant |F(0)| prod (1 + |w|).
    flow = FLOWS[name]
    p = flow.outer.as_polynomial().coeffs
    want = np.zeros(32, dtype=complex)
    want[: p.size] = p
    d = len(flow.factors)
    major = abs(p[0]) * np.prod([1 + abs(w) for w in flow.factors])
    atol = 4 * (d + 2) * EPS * major
    np.testing.assert_allclose(flow.coefficients(1.0, 32), want, rtol=0, atol=atol)


def test_multiplication_sample_is_the_toeplitz_matrix_of_the_coefficients():
    flow = FLOWS["inner-outer"]
    sample = sample_multiplication_flow(flow, (0.0, 0.5, 1.0), 24)
    assert np.array_equal(sample.apply(0.0), np.eye(24))
    for t in (0.5, 1.0):
        c = flow.coefficients(t, 24)
        i, j = np.indices((24, 24))
        assert np.array_equal(sample.apply(t), np.where(i >= j, c[i - j], 0))


# --------------------------------------------------------------------------
# linear-fractional semiflows phi_t = m^-1 . (z -> exp(t L) z) . m
# --------------------------------------------------------------------------

SPIRAL_POINTS = np.array([0.0, 0.5, -0.3 + 0.4j, 0.2j])


@pytest.mark.parametrize("alpha, theta", [(0.0, 0.7), (0.3, 1.0), (0.3 + 0.2j, -2.0)])
def test_elliptic_flow_fixes_its_center_with_multiplier_exp_i_theta_t(alpha, theta):
    # Every elliptic automorphism fixing alpha is tau_alpha . (e^{i s} z) . tau_alpha
    # (Cowen-MacCluer, ch. 2), so phi_t(alpha) = alpha and phi_t'(alpha) = e^{i theta t}.
    flow = SpiralFlow.elliptic(alpha, theta)
    for t in (0.25, 1.0, 3.0):
        phi = flow.at(t)
        assert abs(complex(phi(alpha)) - alpha) <= 1e-15
        assert abs(complex(phi.derivative(alpha)) - np.exp(1j * theta * t)) <= 1e-14
    assert flow.isometric == (alpha == 0)


def test_koenigs_flow_is_the_affine_spiral_about_its_fixed_point():
    # With m(z) = z - alpha the flow is alpha + lam**t (z - alpha).
    alpha, lam = 0.4, 0.5 * np.exp(0.3j)
    flow = SpiralFlow(MobiusMap(1.0, -alpha, 0.0, 1.0), np.log(lam), "spiral")
    for t in (0.5, 1.0, 2.5):
        want = alpha + lam**t * (SPIRAL_POINTS - alpha)
        np.testing.assert_allclose(flow.at(t)(SPIRAL_POINTS), want, rtol=0, atol=1e-15)
    assert not flow.isometric


@pytest.mark.parametrize("theta", [0.0, 0.7])
def test_spiral_sample_without_conjugator_is_the_exact_diagonal(theta):
    sample = sample_spiral_flow(SpiralFlow.elliptic(0.0, theta), TIMES, 8)
    assert sample.isometric and sample.meta == {}
    assert sample.construction == "elliptic-flow"
    for t in TIMES:
        assert np.array_equal(sample.apply(t), np.diag(np.exp(1j * theta * t * np.arange(8))))


@pytest.mark.parametrize("n", [16, 64, 128])
@pytest.mark.parametrize("lam", [0.5, 0.5 * np.exp(0.3j)], ids=["real", "spiral"])
def test_scaling_map_samples_the_exact_diagonal(lam, n):
    # z -> lam z fixes 0 and infinity, so its Koenigs map is the identity and
    # the sample is the diagonal itself, not B diag B^-1 with B the truncated
    # composition matrix of z, which is I only up to the FFT's rounding.
    flow = decide_lfm(MobiusMap(lam, 0.0, 0.0, 1.0)).semigroup
    sample = flow.sample(TIMES, n)
    for t in TIMES:
        want = np.diag(np.exp(flow.log_multiplier * t * np.arange(n)))
        got = sample.apply(t)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# --------------------------------------------------------------------------
# errors raised by flows and samples
# --------------------------------------------------------------------------


def test_product_flow_refuses_a_composition_flow():
    with pytest.raises(NonCommuting):
        ProductFlow([OuterFlow(GENERIC_OUTER), SpiralFlow.elliptic(0.3, 1.0)])


def test_multiplication_sampler_refuses_a_composition_flow():
    with pytest.raises(NonCommuting):
        sample_multiplication_flow(SpiralFlow.elliptic(0.3, 1.0), TIMES, 8)


def test_operator_at_an_unsampled_time():
    sample = sample_spiral_flow(SpiralFlow.elliptic(0.3, 1.0), TIMES, 8)
    with pytest.raises(MissingTime):
        sample.operator_at(0.3)


def test_horizon_too_small_for_the_levels_and_shifts():
    # z^2 at n = 12 has 4 levels on a half line of 4 n = 48 cells.  A time
    # of 1/12 needs 12 cells per unit: the levels take 48 cells and t = 1
    # shifts 12 more.  A time of 1/8 needs 8: they take 32 and t = 1
    # shifts 8 more.
    sample = embed_isometric_composition(SYMBOLS["z^2"], (0.0, 0.125, 1.0), 12)
    assert len(sample.meta["wold"].levels) == 4 and sample.meta["horizon"] == 48
    assert sample.meta["h"] == 1 / 8
    with pytest.raises(HorizonOverflow):
        embed_isometric_composition(SYMBOLS["z^2"], (0.0, 1 / 12, 1.0), 12)


@pytest.mark.parametrize("times", [(0.0, 0.0153846), (0.0, math.pi), (0.0, 1 / 65)])
def test_times_that_no_grid_of_the_horizon_holds(times):
    # At n = 16 the horizon has 64 cells; none of these times is a whole
    # number of cells of width 1/m for any m <= 64.
    with pytest.raises(HorizonOverflow):
        embed_isometric_composition(SYMBOLS["z^2"], times, 16)


@pytest.mark.parametrize("times", [(0.0, -0.5), (0.0, math.inf), (0.0, math.nan)])
def test_wold_times_are_finite_and_nonnegative(times):
    with pytest.raises(DomainError):
        embed_isometric_composition(SYMBOLS["z^2"], times, 16)


@pytest.mark.parametrize(
    "flow, t",
    [(OuterFlow(RationalOuter(2.0, [], [2.0])), 1000.0),  # 2(z - 2): 4**t overflows
     (OuterFlow(RationalOuter(0.5, [0.3], [])), 1e200)],  # binom(t, k) 0.3**k overflows
)
def test_multiplication_flow_refuses_a_time_whose_coefficients_overflow(flow, t):
    with pytest.raises(DomainError, match=re.escape(f"t = {t!r}")):
        sample_multiplication_flow(flow, (0.0, t, 2 * t), 8)


def test_constant_flow_of_zero_has_no_logarithm():
    with pytest.raises(BranchFailure):
        ConstantFlow(0)


@pytest.mark.parametrize("alpha", [1.0, 0.6 + 0.8j, 1.5j])
def test_elliptic_center_outside_the_open_disk(alpha):
    with pytest.raises(DomainError):
        SpiralFlow.elliptic(alpha, 1.0)
