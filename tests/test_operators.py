import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import svd, svdvals, toeplitz
from scipy.special import eval_laguerre

from h2embed.decisions import decide_composition, decide_lfm
from h2embed.errors import AutomorphismInput, DomainError, IllConditioned, NotInner
from h2embed.operators import (
    LowerToeplitz,
    _POWER_BLOCK,
    _RETENTION,
    _WANDERING_TAKE,
    DEFAULT_RANK_TOL,
    _gram_schmidt,
    boundary_gram,
    composition_matrix,
    toeplitz_matrix,
    wold_decompose,
)
from h2embed.polynomials import Polynomial
from h2embed.symbols import (
    DEFAULT_RADIUS,
    BlaschkeProduct,
    ConjugatedSymbol,
    MobiusMap,
    RationalOuter,
    SingularInner,
    taylor_coefficients,
)

SQUARE = BlaschkeProduct(origin_order=2)
PSI = BlaschkeProduct(origin_order=1, zeros=[(0.5, 1)])
DEG3 = BlaschkeProduct(origin_order=1, zeros=[(0.2 + 0.3j, 1), (-0.4 + 0.1j, 1)])
ATOM = SingularInner.from_angles([(0.0, 1.0)])


def grid_size(n):
    """The FFT grid for n coefficients: the next power of two >= 4n, and at
    least 512 >= log(eps)/log(0.9), so aliasing stays below rounding."""
    return max(512, 1 << (4 * n - 1).bit_length())


def column_loop(phi, n):
    """Reference composition matrix: one FFT per power phi**j, column by
    column, each power the previous one times the samples of phi."""
    m, radius = grid_size(n), 0.9
    vals = np.asarray(phi(radius * np.exp(2j * np.pi * np.arange(m) / m)), dtype=complex)
    powers = radius ** (-np.arange(n, dtype=float))
    out = np.zeros((n, n), dtype=complex)
    out[0, 0] = 1.0
    cur = np.ones_like(vals)
    for j in range(1, n):
        cur = cur * vals
        out[:, j] = (np.fft.fft(cur)[:n] / m) * powers
    return out


def koenigs_conjugator():
    """The Koenigs conjugator (z - alpha)/(1 - z/beta) of a linear
    fractional self-map with fixed points alpha = 0.1, beta = 3 and
    multiplier 0.6; it is not a self-map (|.| reaches 8/7 on |z| = 0.9)."""
    alpha, beta, lam = 0.1, 3.0, 0.6
    m = np.array([[1.0, -alpha], [1.0, -beta]])
    report = decide_lfm(MobiusMap(*(np.linalg.inv(m) @ np.diag([lam, 1.0]) @ m).ravel()))
    assert report.semigroup.descriptor == "linear-fractional-spiral-flow"
    return report.semigroup.conjugator


def sequential_levels(c, w, retention=0.5):
    """Reference Wold level loop: each image c v is re-orthogonalised
    vector by vector, twice, against every vector collected so far."""
    n = c.shape[0]
    e0 = np.zeros(n, dtype=complex)
    e0[0] = 1.0
    collected = [e0] + [w[:, i] for i in range(w.shape[1])]
    levels = [w]
    chain_ids = [list(range(w.shape[1]))]
    chain_losses = [[0.0] * w.shape[1]]
    current = [(i, w[:, i], 0.0) for i in range(w.shape[1])]
    while current and len(levels) < n:
        nxt, cols, ids, losses = [], [], [], []
        for i, v, loss in current:
            u = c @ v
            for _ in range(2):
                for b in collected:
                    u = u - b * (b.conj() @ u)
            nrm = float(np.linalg.norm(u))
            if nrm < retention:
                continue
            u = u / nrm
            new_loss = 1.0 - (1.0 - loss) * min(1.0, nrm)
            cols.append(u)
            ids.append(i)
            losses.append(new_loss)
            nxt.append((i, u, new_loss))
            collected.append(u)
        if not cols:
            break
        levels.append(np.column_stack(cols))
        chain_ids.append(ids)
        chain_losses.append(losses)
        current = nxt
    residual = n - 1 - sum(lv.shape[1] for lv in levels)
    return levels, chain_ids, chain_losses, residual


def full_sweep_gram_schmidt(cand, block, threshold):
    """Reference for ``_gram_schmidt``: the same two-pass sweep over every
    candidate, projecting with a conjugated copy of the taken columns."""
    u = cand - block @ (block.conj().T @ cand)
    u -= block @ (block.conj().T @ u)
    limit = min(u.shape[0] - block.shape[1], u.shape[1])
    taken = np.empty((u.shape[0], limit), dtype=complex)
    idx, norms = [], []
    for j in range(u.shape[1]):
        m = len(idx)
        if m == limit:
            break
        v = u[:, j]
        for _ in range(2):
            v = v - taken[:, :m] @ (taken[:, :m].conj().T @ v)
        nrm = float(np.linalg.norm(v))
        if nrm >= threshold:
            taken[:, m] = v / nrm
            idx.append(j)
            norms.append(nrm)
    return taken[:, : len(idx)], idx, norms


def _gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("threshold", [_RETENTION, _WANDERING_TAKE])
def test_gram_schmidt_matches_full_sweep(threshold, k, seed):
    """Skipping the candidates below the threshold after the block
    projection takes the columns the full sweep takes: candidates 0.999x
    and 1.001x the threshold away from the block, a zero column, a
    duplicate, an empty block (k = 0) and a sweep that fills the space
    before its last candidates."""
    rng = np.random.default_rng(seed)
    n = 10
    block = np.linalg.qr(_gaussian(rng, n, k))[0]
    near = []
    for scale in (0.999, 1.001):
        v = _gaussian(rng, n)
        for _ in range(2):
            v -= block @ (block.conj().T @ v)
        near.append(scale * threshold * v / np.linalg.norm(v) + block @ _gaussian(rng, k))
    rest = _gaussian(rng, n, 2 * n)
    cand = np.column_stack([*near, rest[:, :2], np.zeros(n), rest[:, 1], rest[:, 2:]])
    cols, idx, norms = _gram_schmidt(cand, block, threshold)
    want_cols, want_idx, want_norms = full_sweep_gram_schmidt(cand, block, threshold)
    assert idx == want_idx
    assert idx[0] == 1 and 4 not in idx and 5 not in idx
    assert len(idx) == n - k and idx[-1] < cand.shape[1] - 1
    assert np.max(np.abs(np.subtract(norms, want_norms))) <= 1e-14
    assert np.max(np.abs(cols - want_cols)) <= 1e-13


class TestCompositionMatrix:
    def test_square_columns(self):
        c = composition_matrix(SQUARE, 4)
        expect = np.zeros((4, 4), dtype=complex)
        expect[0, 0] = 1
        expect[2, 1] = 1  # phi^1 = z^2; phi^2 = z^4 truncates away
        assert np.max(np.abs(c - expect)) < 1e-12

    def test_identity_symbol(self):
        c = composition_matrix(MobiusMap(1.0, 0.0, 0.0, 1.0), 6)
        assert np.max(np.abs(c - np.eye(6))) < 1e-12

    def test_refuses_before_allocating_the_powers(self):
        # At n = 1000 the result alone is 1000 x 1000 complex entries
        # (16 MB), allocated with the first block of powers phi**j on the
        # 4096-point circle; the amplification guard refuses before either.
        tracemalloc.start()
        try:
            with pytest.raises(IllConditioned, match="amplification exceeds the error budget"):
                composition_matrix(SQUARE, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_transient_memory_at_n128(self):
        # The blocks bound the peak: the n x n result, one block of B powers
        # and its transform, the block's first n coefficients before and
        # after rescaling, and four m-vectors (grid, samples, running power
        # and one temporary), 16 bytes an entry.  wold_decompose stays below the whole
        # (n - 1) x m table of powers and its transform together.
        n, b = 128, _POWER_BLOCK
        m = grid_size(n)
        bound = 16 * (n * n + 2 * b * m + 2 * b * n + 4 * m)
        peaks = []
        for build in (composition_matrix, wold_decompose):
            build(PSI, n)
            tracemalloc.start()
            try:
                build(PSI, n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < bound
        assert peaks[1] < 2 * 16 * (n - 1) * m

    def test_involution_column_one(self):
        c = composition_matrix(MobiusMap.disk_involution(0.5), 6)
        geom = [0.5, -0.75, -0.375, -0.1875, -0.09375, -0.046875]
        assert np.max(np.abs(c[:, 1] - geom)) < 1e-12

    def test_truncated_multiplicativity(self):
        # C_{phi.phi} = C_phi C_phi.  The matrix of C_phi is full, so with P
        # the projection onto H^2_n the compressions differ by the products
        # through the rows k >= n:  PCP PCP - PCCP = -PC(I - P)CP.  A larger
        # truncation supplies those rows; Cauchy estimates on |z| = 0.175
        # (rows) and |z| = 1.865 (columns) bound the products through rows
        # k >= big by 2e-17, far below the extraction error bounded next.
        phi = MobiusMap.disk_involution(0.4)
        n, big = 24, 96
        c = composition_matrix(phi, n)
        both = composition_matrix(lambda z: phi(phi(z)), n)
        c_big = composition_matrix(phi, big)
        a, b = c_big[:n, n:], c_big[n:, :n]
        # eta[k] bounds the error of coefficient k of phi, which is bounded
        # by 1 on the disk: aliasing plus m eps r^-k rounding (m = 512 here,
        # while the FFT itself commits at most 27 eps).  Every power phi^j is
        # bounded by 1 too, and forming it adds at most 7 j eps < 700 eps
        # relative to the samples, so 2 eta[k] bounds entry (k, j).
        _, eta = taylor_coefficients(phi, big, return_errors=True)
        err = np.tile(2.0 * eta[:, None], (1, big))
        e_c, e_a, e_b = err[:n, :n], err[:n, n:], err[n:, :n]
        bound = (
            e_c @ np.abs(c) + np.abs(c) @ e_c + e_c
            + e_a @ np.abs(b) + np.abs(a) @ e_b
        )
        assert np.all(np.abs(c @ c - both + a @ b) <= bound)
        assert np.all(np.abs(c_big[:n, :n] - c) <= 2 * e_c)

    @pytest.mark.parametrize("n", [4, 16, 17, 31, 32, 33, 34, 64, 65, 96, 128])
    @pytest.mark.parametrize(
        "phi",
        [SQUARE, PSI, DEG3, MobiusMap.disk_involution(0.2087), ATOM, MobiusMap(0.5, 0.2, 0.0, 1.0)],
        ids=["z^2", "psi", "deg3", "tau0.2087", "atom", "z/2+0.2"],
    )
    def test_batched_fft_matches_column_loop(self, phi, n):
        assert np.array_equal(composition_matrix(phi, n), column_loop(phi, n))

    def test_guard_scales_by_the_symbol_not_its_powers(self):
        # max |phi| on the circle keeps 0.9**-127 eps max(1, 8/7) under the
        # 1e-8 budget; scaled by the powers, which reach (8/7)**127, it is 3e-3.
        phi = koenigs_conjugator()
        assert np.array_equal(composition_matrix(phi, 128), column_loop(phi, 128))

    def test_guard_boundary_at_the_symbol_scale(self):
        # n passes while 0.9**-(n-1) eps max(1, s) <= 1e-8, s = max |phi| on
        # the grid: 8/7 for this conjugator (at z = 0.9), which moves the
        # boundary from n = 168 at s = 1 to n = 166.
        phi = koenigs_conjugator()
        eps = float(np.finfo(float).eps)
        n = 166
        m = grid_size(n)
        s = np.max(np.abs(phi(DEFAULT_RADIUS * np.exp(2j * np.pi * np.arange(m) / m))))
        assert s == pytest.approx(8 / 7, rel=1e-14) and grid_size(n + 1) == m
        assert DEFAULT_RADIUS ** -(n - 1) * eps * s <= 1e-8 < DEFAULT_RADIUS ** -n * eps * s
        assert np.all(np.isfinite(composition_matrix(phi, n)))
        with pytest.raises(IllConditioned, match=f"n <= {n} stays within it"):
            composition_matrix(phi, n + 1)

    @pytest.mark.parametrize("phi", [SQUARE, PSI, ATOM], ids=["z^2", "psi", "atom"])
    def test_column_one_is_the_taylor_series(self, phi):
        assert np.array_equal(composition_matrix(phi, 32)[:, 1], taylor_coefficients(phi, 32))

    def test_exact_series_of_blaschke_powers(self):
        # psi = z (1/2 - z)/(1 - z/2): column j holds the series of psi^j,
        # which has a zero of order j, so the matrix is lower triangular.
        n, r = 16, DEFAULT_RADIUS
        half = Fraction(1, 2)
        base = [Fraction(0), half] + [
            half ** (k + 1) - half ** (k - 1) for k in range(1, n - 1)
        ]
        cols = [[Fraction(1)] + [Fraction(0)] * (n - 1)]
        for _ in range(1, n):
            prev = cols[-1]
            cols.append(
                [sum(prev[i] * base[k - i] for i in range(k + 1)) for k in range(n)]
            )
        exact = np.array([[float(col[k]) for col in cols] for k in range(n)])
        c = composition_matrix(PSI, n)
        # Rounding bound: the FFT of m = 512 samples errs by at most
        # 3 log2(m) eps = 27 eps relative in norm (Higham, Accuracy and
        # Stability, Thm 24.2).  A computed sample of psi is off by at most
        # 11 eps relative (|z psi'/psi| <= 4.1 on |z| = r times the error of
        # the grid point, plus the arithmetic); psi^j multiplies that by j
        # and adds 1.2 eps per product.  |psi^j| <= 1, coefficient k is
        # scaled by r^-k, and the grid keeps aliasing below rounding.
        eps = np.finfo(float).eps
        k, j = np.indices((n, n))
        bound = (27 + 12 * j) * eps * r ** (-k.astype(float))
        assert np.all(np.abs(c - exact) <= bound)
        assert np.all(np.abs(np.triu(c, 1)) <= np.triu(bound, 1))


class TestToeplitzMatrix:
    def test_shift(self):
        t = toeplitz_matrix(BlaschkeProduct(origin_order=1), 5)
        assert np.max(np.abs(t - np.eye(5, k=-1))) < 1e-12

    def test_constant_one(self):
        t = toeplitz_matrix(Polynomial([1.0]), 4)
        assert np.max(np.abs(t - np.eye(4))) < 1e-13

    def test_linear_symbol(self):
        t = toeplitz_matrix(RationalOuter(exterior_zeros=[2.0]), 4)
        first = np.array([-2, 1, 0, 0], dtype=complex)
        assert np.max(np.abs(t[:, 0] - first)) < 1e-12
        assert np.max(np.abs(np.diag(t) - (-2))) < 1e-12

    def test_inner_column_norms_near_one(self):
        # S = exp(-(1+z)/(1-z)) = e^-1 exp(-2z/(1-z)) has the Laguerre series
        # e^-1 sum L_k^(-1)(2) z^k with L_k^(-1) = L_k - L_(k-1).  Column j of
        # the n x n Toeplitz matrix holds the first n - j coefficients, so its
        # norm is ||P_(n-j) S||: below 1, but only by a tail that decays like
        # (n - j)^(-1/2) (1 - ||P_64 S||^2 = 0.056).
        s = SingularInner.from_angles([(0.0, 1.0)])
        n = 64
        lag = eval_laguerre(np.arange(n), 2.0)
        exact = np.exp(-1.0) * np.diff(lag, prepend=0.0)
        _, err = taylor_coefficients(s, n, return_errors=True)
        t = toeplitz_matrix(s, n)
        cols = range(n // 8)
        norms = np.linalg.norm(t[:, : n // 8], axis=0)
        want = np.array([np.linalg.norm(exact[: n - j]) for j in cols])
        tol = np.array([np.linalg.norm(err[: n - j]) for j in cols])
        assert np.all(norms <= 1 + 1e-10)
        assert np.all(np.abs(norms - want) <= tol)
        lower = np.zeros(n)
        assert np.all(np.abs(t - toeplitz(exact, lower)) <= toeplitz(err, lower))


class TestKernelVector:
    def test_kernel_difference_orthogonal_to_image(self):
        # two points identified by the symbol give a kernel difference
        # orthogonal to every column of the composition matrix; the
        # reproducing kernel at lam has coefficients conj(lam)**k
        c = composition_matrix(SQUARE, 16)
        k = np.arange(16)
        f = 0.5**k - (-0.5) ** k
        assert np.max(np.abs(c.conj().T @ f)) < 1e-8


class TestBoundaryGram:
    def test_identity_for_shift(self):
        g = boundary_gram(BlaschkeProduct(origin_order=1), 3)
        assert np.max(np.abs(g - np.eye(4))) < 1e-12

    def test_identity_for_square(self):
        g = boundary_gram(SQUARE, 3)
        assert np.max(np.abs(g - np.eye(4))) < 1e-10

    def test_blaschke_with_origin_zero_and_quadrature_convergence(self):
        # the trapezoidal error of the Gram entries decays like 0.5**m in the
        # point count m, so the 2048-point quadrature is exact to rounding
        b = BlaschkeProduct(origin_order=1, zeros=[(0.5, 1)])
        assert np.max(np.abs(boundary_gram(b, 4) - np.eye(5))) <= 1e-12

    @pytest.mark.parametrize(
        "phi",
        [DEG3, SingularInner([(1.0, 1.0)])],
        ids=["deg3", "atom"],
    )
    def test_gram_product_matches_pairwise_means(self, phi):
        samples = 2048
        zeta = np.exp(2j * np.pi * (np.arange(samples) + 0.5) / samples)
        vals = np.asarray(phi(zeta), dtype=complex)
        powers = [np.ones_like(vals)]
        for _ in range(4):
            powers.append(powers[-1] * vals)
        want = np.array([[np.mean(p * np.conj(q)) for q in powers] for p in powers])
        # |phi| <= 1 on the circle, so either order of summing the 2048
        # products is within samples * eps of the exact mean
        tol = samples * np.finfo(float).eps
        assert np.max(np.abs(boundary_gram(phi, 4) - want)) <= tol


@settings(max_examples=200, deadline=None)
@given(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False), min_size=1, max_size=24))
def test_lower_toeplitz_is_bit_identical_to_scipy(column):
    c = np.array(column, dtype=complex)
    first_row = np.zeros(c.size, dtype=complex)
    first_row[0] = c[0]
    want = toeplitz(c, first_row)
    # the float64 views tell -0.0 from 0.0 and keep subnormals apart
    assert LowerToeplitz(c).dense().view(np.float64).tobytes() == want.view(np.float64).tobytes()


def _codim(op: np.ndarray, tol: float = 1e-8) -> int:
    """n minus the numerical rank (singular values below tol * sigma_max dropped)."""
    s = svdvals(op)
    return int(op.shape[0] - np.count_nonzero(s > tol * s[0]))


class TestCodim:
    def test_square_composition(self):
        assert _codim(composition_matrix(SQUARE, 8)) == 4

    def test_identity(self):
        assert _codim(np.eye(6)) == 0

    def test_square_toeplitz(self):
        assert _codim(toeplitz_matrix(SQUARE, 8)) == 2

    def test_shift_powers(self):
        for k in range(1, 6):
            for n in (8, 16):
                assert _codim(toeplitz_matrix(BlaschkeProduct(origin_order=k), n)) == k


class TestWold:
    def test_square_dyadic_levels(self):
        w = wold_decompose(SQUARE, 8)
        assert w.level_dims == [4, 2, 1]
        assert w.residual_dim == 0
        assert w.orthonormality_defect < 1e-10
        supports = [
            sorted(np.flatnonzero(np.abs(w.wandering_basis[:, j]) > 1e-9).tolist())
            for j in range(4)
        ]
        assert sorted(map(tuple, supports)) == [(1,), (3,), (5,), (7,)]

    def test_cube_levels(self):
        w = wold_decompose(BlaschkeProduct(origin_order=3), 9)
        assert w.level_dims == [6, 2]
        assert w.residual_dim == 0
        supports = sorted(
            int(np.flatnonzero(np.abs(w.wandering_basis[:, j]) > 1e-9)[0])
            for j in range(6)
        )
        assert supports == [1, 2, 4, 5, 7, 8]

    def test_unitary_part_is_constants(self):
        w = wold_decompose(SQUARE, 8)
        e0 = np.zeros(8)
        e0[0] = 1
        assert np.allclose(w.basis[:, 0], e0)

    def test_completeness_general_symbol(self):
        psi = BlaschkeProduct(origin_order=1, zeros=[(0.5, 1)])
        w = wold_decompose(psi, 16)
        assert 1 + sum(w.level_dims) + w.residual_dim == 16
        q = w.basis
        assert np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1]))) < 1e-8

    @pytest.mark.parametrize("psi", [PSI, DEG3], ids=["psi", "deg3"])
    def test_orthonormal_at_n64(self, psi):
        # One classical Gram-Schmidt pass over the projector columns left
        # the wandering basis 3.5e-2 (psi) and 1.4e-2 (deg3) from orthonormal.
        w = wold_decompose(psi, 64)
        q = w.basis
        assert np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1]))) <= 1e-12
        assert w.orthonormality_defect <= 1e-12

    @pytest.mark.parametrize("n", [16, 32])
    def test_chain_losses_are_fractions_of_the_norm(self, n):
        # The cumulative loss compounds the retained norm, so it stays below
        # 1 and never decreases along a chain (the old sum reached 1.29).
        w = wold_decompose(PSI, n)
        seen = {}
        for i, loss in zip(w.chain.tolist(), w.loss.tolist()):
            assert 0.0 <= loss < 1.0
            assert loss >= seen.get(i, 0.0)
            seen[i] = loss

    @pytest.mark.parametrize("n", [16, 64, 128])
    @pytest.mark.parametrize(
        "psi",
        [SQUARE, BlaschkeProduct(origin_order=3), PSI, DEG3],
        ids=["z^2", "z^3", "psi", "deg3"],
    )
    def test_block_levels_match_sequential_reference(self, psi, n):
        w = wold_decompose(psi, n)
        c = composition_matrix(psi, n)
        levels, chain_ids, chain_losses, residual = sequential_levels(c, w.wandering_basis)
        assert w.level_dims == [lv.shape[1] for lv in levels]
        assert w.chain.tolist() == sum(chain_ids, [])
        assert w.residual_dim == residual
        for got, want in zip(w.levels, levels):
            assert np.max(np.abs(got - want)) <= 1e-12
        assert np.max(np.abs(w.loss - sum(chain_losses, []))) <= 1e-12

    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize(
        "psi",
        [SQUARE, BlaschkeProduct(origin_order=3), PSI, DEG3],
        ids=["z^2", "z^3", "psi", "deg3"],
    )
    def test_levels_match_scipy_svd(self, psi, n, monkeypatch):
        """numpy's SVD and SciPy's (both LAPACK gesdd) give the same levels,
        residual and 1e-8 supports."""

        def supports(w):
            return [
                [np.flatnonzero(np.abs(level[:, j]) > 1e-8).tolist() for j in range(level.shape[1])]
                for level in w.levels
            ]

        w = wold_decompose(psi, n)
        monkeypatch.setattr(np.linalg, "svd", svd)
        ref = wold_decompose(psi, n)
        assert (w.level_dims, w.residual_dim) == (ref.level_dims, ref.residual_dim)
        assert supports(w) == supports(ref)

    def test_square_dyadic_levels_at_n128(self):
        w = wold_decompose(SQUARE, 128)
        assert w.level_dims == [64, 32, 16, 8, 4, 2, 1]
        assert w.residual_dim == 0

    @pytest.mark.parametrize("psi", [PSI, DEG3], ids=["psi", "deg3"])
    def test_orthonormal_at_n128(self, psi):
        assert wold_decompose(psi, 128).orthonormality_defect <= 1e-12

    def test_unresolved_wandering_subspace_is_numeric_failure(self):
        # At n = 8 no left singular vector of c lies within DEFAULT_RANK_TOL
        # of W (psi resolves its first direction at n = 11); that is a
        # failure to resolve W, not an automorphism.
        with pytest.raises(IllConditioned):
            wold_decompose(PSI, 8)

    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("psi", [PSI, DEG3], ids=["psi", "deg3"])
    def test_wandering_basis_lies_in_w(self, psi, n):
        # ||c^* w|| is the distance of w from W.  Normalising coordinate
        # vectors projected through I - U U^* left W: 0.42 (psi) and 0.20
        # (deg3) at n = 64.
        w = wold_decompose(psi, n)
        dist = np.linalg.norm(w.comp.conj().T @ w.wandering_basis, axis=0)
        assert np.max(dist) <= DEFAULT_RANK_TOL

    def test_rotation_refused(self):
        with pytest.raises(AutomorphismInput):
            wold_decompose(BlaschkeProduct(rotation=np.pi / 3, origin_order=1), 8)

    def test_noninner_refused(self):
        with pytest.raises(NotInner):
            wold_decompose(Polynomial([0.0, 0.5]), 8)  # z/2 fixes 0 but is not inner

    @pytest.mark.parametrize(
        "psi",
        [ConjugatedSymbol(BlaschkeProduct(zeros=[(0.3, 1)]), 0.2),
         MobiusMap(np.exp(0.7j), 0.0, 0.0, 1.0)],
        ids=["conjugated degree-1 Blaschke", "Mobius rotation"],
    )
    def test_automorphism_core_refused(self, psi):
        with pytest.raises(AutomorphismInput):
            wold_decompose(psi, 16)

    def test_non_automorphic_mobius_core_refused(self):
        with pytest.raises(NotInner):
            wold_decompose(ConjugatedSymbol(MobiusMap(0.5, 0.0, 0.0, 1.0), 0.0), 16)

    @pytest.mark.parametrize("offset", [1e-3, 1e-7])
    def test_conjugation_off_the_fixed_point_refused(self, offset):
        # the atom conjugated about its fixed point fixes 0; moved by the
        # offset, |psi(0)| is about 1.8 times the offset, far above the bound
        # 1e-9/(1 - |alpha|) that the fixed-point residual allows
        alpha = decide_composition(ATOM).details["fixed_point"]
        assert wold_decompose(ConjugatedSymbol(ATOM, alpha), 16).level_dims[0] >= 1
        with pytest.raises(DomainError, match="does not fix the origin"):
            wold_decompose(ConjugatedSymbol(ATOM, alpha + offset), 16)

    def test_zero_near_the_circle_is_a_numeric_refusal(self):
        # z b_0.999 is inner by type; at n = 32 the truncation resolves no
        # wandering direction, and the refusal names the truncation order
        with pytest.raises(IllConditioned, match="raise the truncation order"):
            wold_decompose(BlaschkeProduct(origin_order=1, zeros=[(0.999, 1)]), 32)


# --------------------------------------------------------------------------
# LowerToeplitz: a lower-triangular Toeplitz operator held by its first column
# --------------------------------------------------------------------------


def _column(n, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 0.7 ** np.arange(n)


@pytest.mark.parametrize("n", [1, 2, 16, 128])
def test_lower_toeplitz_operator_answers_like_its_dense_matrix(n):
    c = _column(n)
    op = LowerToeplitz(c)
    dense = op.dense()
    assert (op.ndim, op.shape) == (dense.ndim, dense.shape) == (2, (n, n))
    assert op.nbytes == c.nbytes == 16 * n
    # c[i - j] on and below the diagonal and +0.0 above it, bit for bit
    want = np.zeros((n, n), dtype=complex)
    for i in range(n):
        want[i, : i + 1] = c[i::-1]
    assert dense.dtype == complex and dense.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 5, 64])
def test_lower_toeplitz_applies_as_its_dense_matrix(n):
    c = _column(n)
    op = LowerToeplitz(c)
    dense = op.dense()
    xs = np.stack([_column(n, seed=s) for s in range(1, 5)], axis=1)
    for x in (xs, xs[:, 0]):
        # both sides sum the same n complex products, in different orders
        bound = 4 * n * np.finfo(float).eps * (np.abs(dense) @ np.abs(x))
        assert (op @ x).shape == x.shape
        assert np.all(np.abs(op @ x - dense @ x) <= bound)
    # unit vectors come back as copies of the coefficients
    eye = np.eye(n, dtype=complex)
    assert np.array_equal(op @ eye, dense)
    for j in range(n):
        assert np.array_equal(op @ eye[:, j], dense[:, j])
    assert np.array_equal(op @ np.zeros(n), np.zeros(n))
