"""Truncated matrix models of operators on H^2_N = span{1, z, ..., z^(N-1)}.

All operators are written in the monomial coordinate basis, where the H^2
inner product is the plain l^2 dot product of coefficient vectors.  A
composition operator is stored compressed, P_N C_phi restricted to H^2_N;
isometry is never asserted through the compressed matrix but through the
truncation-free boundary Gram matrix of the symbol powers.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import AutomorphismInput, IllConditioned, IsometryDefect
from .symbols import (
    BlaschkeProduct,
    _circle_points,
    _coefficients_from_samples,
    _sample,
    circle_eval,
    taylor_coefficients,
)

__all__ = [
    "TruncatedOperator",
    "WoldDecomposition",
    "composition_matrix",
    "toeplitz_matrix",
    "lower_toeplitz",
    "boundary_gram",
    "wold_decompose",
]

DEFAULT_RADIUS = 0.9
DEFAULT_RANK_TOL = 1e-8


@dataclass
class TruncatedOperator:
    """N x N matrix acting on Taylor coefficient vectors of length N."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.n, self.n):
            raise ValueError("matrix shape does not match the truncation order")


def composition_matrix(phi, n: int, radius: float = DEFAULT_RADIUS) -> TruncatedOperator:
    """Compressed composition operator: column j holds the Taylor
    coefficients (below degree n) of phi**j.

    The powers phi**j (j >= 1) are sampled on one circle grid, each as the
    previous row times the samples of phi, and extracted by one batched
    FFT; the amplification guard is scaled by max |phi| on that circle.
    """
    vals = _sample(phi, _circle_points(n, radius))
    pw = np.empty((n, vals.size), dtype=complex)
    pw[0] = 1.0
    for j in range(1, n):
        pw[j] = pw[j - 1] * vals
    coeffs = _coefficients_from_samples(pw[1:], n, radius, float(np.max(np.abs(vals))))
    out = np.zeros((n, n), dtype=complex)
    out[0, 0] = 1.0
    out[:, 1:] = coeffs.T
    return TruncatedOperator(n, out)


def lower_toeplitz(c) -> TruncatedOperator:
    """The lower-triangular Toeplitz matrix with first column ``c``: the
    compressed multiplication by the power series with those coefficients."""
    c = np.asarray(c, dtype=complex)
    first_row = np.zeros(c.size, dtype=complex)
    first_row[0] = c[0]
    return TruncatedOperator(c.size, scipy.linalg.toeplitz(c, first_row))


def toeplitz_matrix(phi, n: int, radius: float = DEFAULT_RADIUS) -> TruncatedOperator:
    """Multiplication by an H^infinity symbol: lower-triangular Toeplitz with
    first column the Taylor coefficients of phi, extracted by
    :func:`taylor_coefficients`."""
    return lower_toeplitz(taylor_coefficients(phi, n, radius))


def boundary_gram(phi, d: int, samples: int = 2048) -> np.ndarray:
    """(d+1) x (d+1) Gram matrix of {phi^0, ..., phi^d} by circle quadrature.

    For an inner phi fixing the origin this is the identity, which is the
    truncation-free isometry test for the induced composition operator.
    The quadrature grid is offset by half a step so atoms of singular
    inner symbols at common angles are never hit.
    """
    if samples < 1024 or (samples & (samples - 1)) != 0:
        raise ValueError("sample count must be a power of two, at least 1024")
    zeta = np.exp(2j * np.pi * (np.arange(samples) + 0.5) / samples)
    vals = np.asarray(circle_eval(phi, zeta), dtype=complex)
    powers = np.ones((d + 1, samples), dtype=complex)
    powers[1:] = vals
    powers = np.cumprod(powers, axis=0)
    return powers @ powers.conj().T / samples


@dataclass
class WoldDecomposition:
    """Wandering-subspace picture of an isometric composition operator at
    truncation order n.

    The unitary part is the constants; ``levels[k]`` holds an orthonormal
    basis of the k-th image of the wandering subspace that is still
    resolvable inside H^2_n (``levels[0]`` is the wandering basis itself).
    ``chain_ids[k]`` records which wandering vector each column continues,
    and ``chain_losses[k]`` the cumulative norm lost to truncation along
    that chain.  Directions that fell below the retention threshold are
    counted in ``residual_dim``.
    """

    n: int
    unitary_basis: np.ndarray
    wandering_basis: np.ndarray
    levels: list
    chain_ids: list
    chain_losses: list
    residual_dim: int
    orthonormality_defect: float
    meta: dict = field(default_factory=dict)

    @property
    def wandering_dim(self) -> int:
        return self.wandering_basis.shape[1]

    @property
    def level_dims(self) -> list:
        return [lv.shape[1] for lv in self.levels]

    def collected_basis(self) -> np.ndarray:
        return np.column_stack([self.unitary_basis] + list(self.levels))


def _wandering_basis(comp: np.ndarray, rank_tol: float) -> np.ndarray:
    """Orthonormal basis of the orthocomplement of the column space,
    swept along the coordinate directions so structured inputs keep their
    monomial basis vectors."""
    n = comp.shape[0]
    u, s, _ = scipy.linalg.svd(comp)
    rank = int(np.count_nonzero(s > rank_tol * s[0])) if s.size and s[0] > 0 else 0
    col = u[:, :rank]
    proj = np.eye(n, dtype=complex) - col @ col.conj().T
    q = np.zeros((n, n - rank), dtype=complex)
    k = 0
    for idx in range(n):
        if k == n - rank:
            break
        v = proj[:, idx].copy()
        for _ in range(2):  # one classical Gram-Schmidt pass loses orthogonality
            v -= q[:, :k] @ (q[:, :k].conj().T @ v)
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-7:
            q[:, k] = v / nrm
            k += 1
    return q[:, :k]


def wold_decompose(
    psi,
    n: int,
    *,
    gram_tol: float = 1e-6,
    retention: float = 0.5,
    rank_tol: float = DEFAULT_RANK_TOL,
    gram_degree: int = 4,
    gram_samples: int = 2048,
    radius: float = DEFAULT_RADIUS,
    comp: TruncatedOperator | None = None,
) -> WoldDecomposition:
    """Wold decomposition data for C_psi at truncation order n.

    ``psi`` must be inner with psi(0) = 0 (certified through the boundary
    Gram matrix; deviation raises :class:`IsometryDefect`) and must not be
    an automorphism (degree-1 Blaschke products and rotation-like symbols
    raise :class:`AutomorphismInput` — a unitary has no wandering part).

    ``rank_tol`` is the largest distance from the wandering subspace
    W = H^2 (-) ran C_psi that a direction accepted as wandering may have.
    For f in H^2_n, ||P_{ran C_psi} f|| = ||c^* f|| with c the compressed
    matrix, because C_psi is an isometry with orthonormal image basis
    {psi^j} and psi^j is orthogonal to H^2_n for j >= n.  So each singular
    value of c is the distance of its left singular vector from W; the
    left singular vectors with singular value at most ``rank_tol`` times
    the largest (which is 1) span the resolved wandering directions.  No
    such direction means the truncation cannot resolve W to this
    tolerance, and :class:`IllConditioned` is raised.

    The levels are built one at a time into a preallocated n x n basis Q
    that holds the constant, the wandering basis and every accepted
    column.  The images c V of the previous level are taken in one
    product and orthogonalised against Q by two passes of block classical
    Gram-Schmidt; each image is then orthogonalised (twice) against the
    columns this level has already accepted, and kept if its remaining
    norm is at least ``retention``.  One classical pass loses
    orthogonality in proportion to the norm the projection removes; a
    second pass restores it to rounding unless nearly all of the norm is
    removed (Giraud-Langou-Rozloznik, Comput. Math. Appl. 50, 2005).  A
    kept column keeps at least ``retention`` of a norm at most 1, so two
    passes are enough for every column that enters Q.
    """
    g = boundary_gram(psi, gram_degree, gram_samples)
    defect = float(np.max(np.abs(g - np.eye(gram_degree + 1))))
    if defect > gram_tol:
        raise IsometryDefect(
            f"boundary Gram deviates from the identity by {defect:.3e}; "
            "the symbol is not inner with a fixed origin (or quadrature is too coarse)"
        )
    if isinstance(psi, BlaschkeProduct) and psi.degree == 1:
        raise AutomorphismInput("degree-1 Blaschke products are automorphisms")
    comp = comp or composition_matrix(psi, n, radius)
    c = comp.matrix
    if not isinstance(psi, BlaschkeProduct) and abs(c[1, 1]) >= 1.0 - 1e-9:
        raise AutomorphismInput("|psi'(0)| is not below 1: rotation-like symbol")

    w = _wandering_basis(c, rank_tol)
    if w.shape[1] == 0:
        raise IllConditioned(
            f"no direction of H^2_{n} lies within {rank_tol:.1e} of the wandering "
            "subspace; raise the truncation order or rank_tol"
        )

    # q holds, in order, the constant, the wandering basis and every
    # accepted column; level l is the block q[:, starts[l]:starts[l + 1]].
    d = w.shape[1]
    q = np.zeros((n, n), dtype=complex)
    q[0, 0] = 1.0
    q[:, 1 : 1 + d] = w
    k = 1 + d
    starts = [1]
    chain_ids = [list(range(d))]
    chain_losses = [[0.0] * d]
    while len(starts) < n:
        u = c @ q[:, starts[-1] : k]
        for _ in range(2):  # two block passes: orthogonal to rounding
            u -= q[:, :k] @ (q[:, :k].conj().T @ u)
        start = k
        ids, losses = [], []
        for j, (i, loss) in enumerate(zip(chain_ids[-1], chain_losses[-1])):
            v = u[:, j]
            for _ in range(2):
                v = v - q[:, start:k] @ (q[:, start:k].conj().T @ v)
            nrm = float(np.linalg.norm(v))
            if nrm < retention:
                continue
            q[:, k] = v / nrm
            k += 1
            ids.append(i)
            losses.append(1.0 - (1.0 - loss) * min(1.0, nrm))
        if not ids:
            break
        starts.append(start)
        chain_ids.append(ids)
        chain_losses.append(losses)

    levels = [q[:, a:b] for a, b in zip(starts, starts[1:] + [k])]
    q = q[:, :k]
    ortho_defect = float(np.max(np.abs(q.conj().T @ q - np.eye(k))))
    return WoldDecomposition(
        n=n,
        unitary_basis=q[:, :1],
        wandering_basis=w,
        levels=levels,
        chain_ids=chain_ids,
        chain_losses=chain_losses,
        residual_dim=n - k,
        orthonormality_defect=ortho_defect,
        meta={"gram_defect": defect, "rank_tol": rank_tol, "retention": retention},
    )
