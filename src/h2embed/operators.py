"""Truncated matrix models of operators on H^2_N = span{1, z, ..., z^(N-1)}.

Every operator is an N x N complex array in the monomial coordinate basis,
where the H^2 inner product is the l^2 dot product of coefficient vectors.
A composition operator is stored compressed, P_N C_phi restricted to H^2_N;
isometry is never asserted through the compressed matrix but through the
truncation-free boundary Gram matrix of the symbol powers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AutomorphismInput, IllConditioned, IsometryDefect
from .symbols import (
    DEFAULT_RADIUS,
    BlaschkeProduct,
    _circle_points,
    _coefficients_from_samples,
    _sample,
    circle_eval,
    taylor_coefficients,
)

__all__ = [
    "WoldDecomposition",
    "composition_matrix",
    "toeplitz_matrix",
    "lower_toeplitz",
    "boundary_gram",
    "wold_decompose",
]

DEFAULT_RANK_TOL = 1e-8
# boundary_gram's 2048 quadrature points: exact to rounding for Blaschke products
_GRAM_POINTS = np.exp(2j * np.pi * (np.arange(2048) + 0.5) / 2048)


def composition_matrix(phi, n: int) -> np.ndarray:
    """Compressed composition operator: column j holds the Taylor
    coefficients (below degree n) of phi**j.

    The powers phi**j (j >= 1) are sampled on one circle grid, each as the
    previous row times the samples of phi, and extracted by one batched
    FFT; the amplification guard is scaled by max |phi| on that circle.
    """
    r = DEFAULT_RADIUS
    vals = _sample(phi, _circle_points(n, r))
    pw = np.empty((n, vals.size), dtype=complex)
    pw[0] = 1.0
    for j in range(1, n):
        pw[j] = pw[j - 1] * vals
    coeffs = _coefficients_from_samples(pw[1:], n, r, float(np.max(np.abs(vals))))
    out = np.zeros((n, n), dtype=complex)
    out[0, 0] = 1.0
    out[:, 1:] = coeffs.T
    return out


def lower_toeplitz(c) -> np.ndarray:
    """The lower-triangular Toeplitz matrix with first column ``c``: the
    compressed multiplication by the power series with those coefficients.

    Entry (i, j) is indexed straight out of ``c`` as c[i - j], so every
    entry is a copy of a coefficient, and +0.0 lies above the diagonal.
    """
    c = np.asarray(c, dtype=complex)
    k = np.arange(c.size)
    return np.tril(c[k[:, None] - k])


def toeplitz_matrix(phi, n: int) -> np.ndarray:
    """Multiplication by an H^infinity symbol: lower-triangular Toeplitz with
    first column the Taylor coefficients of phi, extracted by
    :func:`taylor_coefficients` at ``DEFAULT_RADIUS``."""
    return lower_toeplitz(taylor_coefficients(phi, n))


def boundary_gram(phi, d: int) -> np.ndarray:
    """(d+1) x (d+1) Gram matrix of {phi^0, ..., phi^d} by circle quadrature.

    For an inner phi fixing the origin this is the identity, which is the
    truncation-free isometry test for the induced composition operator.
    The quadrature grid is offset by half a step so atoms of singular
    inner symbols at common angles are never hit.
    """
    vals = np.asarray(circle_eval(phi, _GRAM_POINTS), dtype=complex)
    powers = np.ones((d + 1, vals.size), dtype=complex)
    powers[1:] = vals
    powers = np.cumprod(powers, axis=0)
    return powers @ powers.conj().T / vals.size


@dataclass
class WoldDecomposition:
    """Wandering-subspace picture of an isometric composition operator at
    truncation order n.

    ``comp`` is the compressed composition matrix it was built from, and
    ``basis`` one orthonormal n x k basis: the constant (the unitary part),
    then ``level_dims[l]`` columns for each level l, the l-th image of the
    wandering subspace still resolvable inside H^2_n (level 0 is the
    wandering basis).  Aligned with ``basis[:, 1:]``, ``chain`` says which
    wandering vector each column continues and ``loss`` the cumulative norm
    lost to truncation along that chain.  ``residual_dim`` counts the
    directions that fell below the retention threshold."""

    comp: np.ndarray
    basis: np.ndarray
    level_dims: list
    chain: np.ndarray
    loss: np.ndarray
    orthonormality_defect: float

    @property
    def levels(self) -> list:
        ends = np.cumsum([1] + self.level_dims).tolist()
        return [self.basis[:, a:b] for a, b in zip(ends, ends[1:])]

    @property
    def wandering_basis(self) -> np.ndarray:
        return self.basis[:, 1 : 1 + self.level_dims[0]]

    @property
    def residual_dim(self) -> int:
        return self.comp.shape[0] - self.basis.shape[1]


# Thresholds of wold_decompose; its docstring says why they are constants.
_GRAM_TOL = 1e-6
_GRAM_DEGREE = 4
_WANDERING_TAKE = 1e-7
_RETENTION = 0.5


def _gram_schmidt(cand: np.ndarray, block: np.ndarray, threshold: float):
    """Orthonormal columns drawn from ``cand`` and orthogonal to ``block``.

    The candidate columns are orthogonalised against the orthonormal
    ``block`` by two passes of block classical Gram-Schmidt, then, in
    order, against the columns already taken (two passes each).  A
    candidate is taken when its remaining norm is at least ``threshold``.
    One classical pass loses orthogonality in proportion to the norm the
    projection removes; a second pass restores it to rounding unless
    nearly all of the norm is removed (Giraud-Langou-Rozloznik, Comput.
    Math. Appl. 50, 2005).  The sweep stops once the block and the taken
    columns span the space.  Returns the taken columns, their candidate
    indices and their remaining norms.

    The sweep skips every candidate whose norm after the block projection
    is already below ``threshold``.  Projecting out the taken columns
    cannot raise a norm, so such a candidate would be rejected, and a
    rejected candidate changes neither the taken columns nor the count
    that stops the sweep.  Rounding can raise a norm by a relative few
    n * eps, so the skip could differ from a full sweep only for a
    candidate within that distance of ``threshold``, where rounding decides
    either way.  For z^k the skip drops every candidate that the
    composition sends out of H^2_n, half of the sweep for z^2.
    """
    u = cand - block @ (block.conj().T @ cand)
    u -= block @ (block.conj().T @ u)
    limit = min(u.shape[0] - block.shape[1], u.shape[1])
    taken = np.empty((u.shape[0], limit), dtype=complex)
    idx, norms = [], []
    for j in np.flatnonzero(np.linalg.norm(u, axis=0) >= threshold).tolist():
        m = len(idx)
        if m == limit:
            break
        v = u[:, j]
        t = taken[:, :m]
        for _ in range(2):
            v = v - t @ (v.conj() @ t).conj()
        nrm = float(np.linalg.norm(v))
        if nrm >= threshold:
            taken[:, m] = v / nrm
            idx.append(j)
            norms.append(nrm)
    return taken[:, : len(idx)], idx, norms


def wold_decompose(psi, n: int) -> WoldDecomposition:
    """Wold decomposition data for C_psi at truncation order n.

    ``psi`` must be inner with psi(0) = 0 (certified through the boundary
    Gram matrix; deviation raises :class:`IsometryDefect`) and must not be
    an automorphism (degree-1 Blaschke products and rotation-like symbols
    raise :class:`AutomorphismInput` -- a unitary has no wandering part).

    For f in H^2_n, ||P_{ran C_psi} f|| = ||c^* f|| with c the compressed
    matrix, because C_psi is an isometry with orthonormal image basis
    {psi^j} and psi^j is orthogonal to H^2_n for j >= n.  So each singular
    value of c is the distance of its left singular vector from the
    wandering subspace W = H^2 (-) ran C_psi.  The left singular vectors
    U0 whose singular values are at most ``DEFAULT_RANK_TOL`` times the
    largest (which is 1) span the resolved wandering directions; none
    means the truncation cannot resolve W, and :class:`IllConditioned` is
    raised.  The singular vectors come from :func:`numpy.linalg.svd`
    (LAPACK gesdd, full matrices).

    Every basis here comes from one kernel, :func:`_gram_schmidt`.  The
    wandering basis is the kernel run in the coordinates of U0: the
    candidates are U0^* e_0, ..., U0^* e_{n-1}, the block is empty, and a
    taken y gives w = U0 y.  Each w is a combination of singular vectors
    with singular value at most ``DEFAULT_RANK_TOL``, so ||c^* w|| stays
    below it whatever the rounding of the sweep, and the coordinate sweep
    keeps the monomial basis for z^k.  The levels are built one at a time
    into a preallocated n x n basis Q that holds the constant, the
    wandering basis and every kept column: the next level is the kernel
    run on c times the previous level, with the block Q[:, :k] and the
    retention threshold 1/2.  A kept column keeps at least half of a norm
    at most 1, so two passes are enough for every column that enters Q.

    The thresholds are constants because they separate rounding from
    signal, which no input moves: an inner symbol's boundary Gram matrix
    (degree 4) is the identity to about 1e-15, so 1e-6 refuses the rest; a
    candidate already spanned by the taken columns keeps about 1e-15 of
    its norm, so 1e-7 takes only the rest; and the retention 1/2 is the
    bound above.  ``c`` is :func:`composition_matrix` of psi, kept as ``comp``.
    """
    g = boundary_gram(psi, _GRAM_DEGREE)
    defect = float(np.max(np.abs(g - np.eye(_GRAM_DEGREE + 1))))
    if defect > _GRAM_TOL:
        raise IsometryDefect(
            f"boundary Gram deviates from the identity by {defect:.3e}; "
            "the symbol is not inner with a fixed origin (or quadrature is too coarse)"
        )
    if isinstance(psi, BlaschkeProduct) and psi.degree == 1:
        raise AutomorphismInput("degree-1 Blaschke products are automorphisms")
    c = composition_matrix(psi, n)
    if not isinstance(psi, BlaschkeProduct) and abs(c[1, 1]) >= 1.0 - 1e-9:
        raise AutomorphismInput("|psi'(0)| is not below 1: rotation-like symbol")

    u, s, _ = np.linalg.svd(c)
    rank = int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[0]))
    u0 = u[:, rank:]
    cand = u0.conj().T
    y, _, _ = _gram_schmidt(cand, cand[:, :0], _WANDERING_TAKE)
    d = y.shape[1]
    if d == 0:
        raise IllConditioned(
            f"no direction of H^2_{n} lies within {DEFAULT_RANK_TOL:.1e} of the "
            "wandering subspace; raise the truncation order"
        )

    # q holds, in order, the constant, the wandering basis and every kept
    # column; chain and loss describe the columns q[:, 1:].
    q = np.zeros((n, n), dtype=complex)
    chain = np.zeros(n - 1, dtype=int)
    loss = np.zeros(n - 1)
    q[0, 0] = 1.0
    q[:, 1 : 1 + d] = u0 @ y
    chain[:d] = np.arange(d)
    k = 1 + d
    dims = [d]
    while len(dims) < n:
        a = k - dims[-1]
        cols, idx, norms = _gram_schmidt(c @ q[:, a:k], q[:, :k], _RETENTION)
        if not idx:
            break
        prev = a - 1 + np.array(idx)  # the continued columns, as positions in chain
        chain[k - 1 : k - 1 + len(idx)] = chain[prev]
        loss[k - 1 : k - 1 + len(idx)] = 1.0 - (1.0 - loss[prev]) * np.minimum(1.0, norms)
        q[:, k : k + len(idx)] = cols
        k += len(idx)
        dims.append(len(idx))

    q = q[:, :k]
    ortho_defect = float(np.max(np.abs(q.conj().T @ q - np.eye(k))))
    return WoldDecomposition(
        comp=c,
        basis=q,
        level_dims=dims,
        chain=chain[: k - 1],
        loss=loss[: k - 1],
        orthonormality_defect=ortho_defect,
    )
