import numpy as np
import pytest

from h2embed.semigroups import embed_isometric_composition, sample_elliptic_flow
from h2embed.symbols import BlaschkeProduct

TIMES = (0.0, 0.25, 0.5, 0.75, 1.0)
H = 0.25
SYMBOLS = {
    "z^2": BlaschkeProduct(origin_order=2),
    "z^3": BlaschkeProduct(origin_order=3),
    "psi": BlaschkeProduct(origin_order=1, zeros=[(0.5, 1)]),
}


def dense_shift(sample, k):
    """[[1, 0], [0, kron(S_k, I_d)]] with S_k the k-cell right translation."""
    horizon, d = sample.meta["horizon"], sample.meta["fiber_dim"]
    v = np.zeros((sample.dim, sample.dim), dtype=complex)
    v[0, 0] = 1.0
    v[1:, 1:] = np.kron(np.eye(horizon, k=-k), np.eye(d))
    return v


@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("name", sorted(SYMBOLS))
def test_wold_operators_are_cell_shifts(name, n):
    sample = embed_isometric_composition(SYMBOLS[name], TIMES, n, H)
    for t in TIMES:
        assert np.array_equal(sample.apply(t), dense_shift(sample, round(t / H)))


@pytest.mark.parametrize(
    "sample",
    [
        embed_isometric_composition(SYMBOLS["psi"], TIMES, 12, H),
        sample_elliptic_flow(0.3, 1.0, TIMES, 12),
    ],
    ids=["wold", "elliptic-flow"],
)
def test_apply_to_vectors_matches_the_matrix(sample):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((sample.dim, 3)) + 1j * rng.standard_normal((sample.dim, 3))
    for t in TIMES:
        m = sample.apply(t)
        np.testing.assert_allclose(sample.apply(t, x), m @ x, rtol=0, atol=1e-13)
        np.testing.assert_allclose(sample.apply(t, x[:, 0]), m @ x[:, 0], rtol=0, atol=1e-13)


def test_wold_sample_holds_no_square_matrix():
    sample = embed_isometric_composition(SYMBOLS["z^2"], TIMES, 32, H)
    assert all(op.ndim == 1 for op in sample.operators)
    assert sum(op.nbytes for op in sample.operators) <= 8 * sample.dim * len(TIMES)
