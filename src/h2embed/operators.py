"""Truncated matrix models of operators on H^2_N = span{1, z, ..., z^(N-1)}.

Every operator is an N x N complex array in the monomial coordinate basis,
where the H^2 inner product is the l^2 dot product of coefficient vectors,
or, when it is lower-triangular Toeplitz, a :class:`LowerToeplitz` operator
that holds its first column alone.
A composition operator is stored compressed, P_N C_phi restricted to H^2_N;
isometry is never asserted through the compressed matrix: the Wold
decomposition takes the symbol's inner-ness from its type.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import _FIXED_POINT_RESIDUAL
from .errors import AutomorphismInput, DomainError, IllConditioned, NotInner
from .symbols import (
    DEFAULT_RADIUS,
    BlaschkeProduct,
    ConjugatedSymbol,
    MobiusMap,
    SingularInner,
    _check_amplification,
    _circle_points,
    _coefficients_from_samples,
    _sample,
    taylor_coefficients,
)

__all__ = [
    "WoldDecomposition",
    "composition_matrix",
    "toeplitz_matrix",
    "LowerToeplitz",
    "boundary_gram",
    "wold_decompose",
]

DEFAULT_RANK_TOL = 1e-8


def composition_matrix(phi, n: int) -> np.ndarray:
    """Compressed composition operator: column j holds the Taylor
    coefficients (below degree n) of phi**j.

    The powers phi**j (j >= 1) are sampled on one circle grid, each as the
    previous row times the samples of phi, and extracted by one batched
    FFT; the amplification guard is scaled by max |phi| on that circle and
    runs before the n x m table of powers is allocated.
    """
    r = DEFAULT_RADIUS
    vals = _sample(phi, _circle_points(n, r))
    _check_amplification(n, r, float(np.max(np.abs(vals))))
    pw = np.empty((n, vals.size), dtype=complex)
    pw[0] = 1.0
    for j in range(1, n):
        pw[j] = pw[j - 1] * vals
    coeffs = _coefficients_from_samples(pw[1:], n, r)
    out = np.zeros((n, n), dtype=complex)
    out[0, 0] = 1.0
    out[:, 1:] = coeffs.T
    return out


class LowerToeplitz:
    """The n x n lower-triangular Toeplitz operator with first column
    ``column``: the compressed multiplication by the power series with those
    coefficients, held by its n coefficients alone.

    It answers ``shape``, ``ndim`` and ``nbytes`` like the dense array it
    stands for, ``nbytes`` counting the column it holds.  ``dense()`` builds
    that array and ``@`` applies the operator to a vector or to the columns
    of a matrix without building it.
    """

    ndim = 2

    def __init__(self, column):
        self.column = np.asarray(column, dtype=complex)

    @property
    def shape(self) -> tuple:
        return (self.column.size,) * 2

    @property
    def nbytes(self) -> int:
        return self.column.nbytes

    def _padded(self) -> np.ndarray:
        n = self.column.size
        out = np.zeros(2 * n, dtype=complex)
        out[:n] = self.column
        return out

    def dense(self) -> np.ndarray:
        """The matrix: entry (i, j) is a copy of c[i - j] on and below the
        diagonal, and +0.0 above it, read through the map of (i, j) to
        i - j into the column followed by n zeros, where a negative i - j
        wraps around."""
        k = np.arange(self.column.size)
        return self._padded()[k[:, None] - k]

    def __matmul__(self, x):
        """The truncated convolution of the column with x, or with each
        column of a 2-D x: the columns of ``dense()`` at the rows where x is
        not zero, gathered through the same i - j map, times those rows.  A
        unit vector e_j gets back copies of the coefficients, as from
        ``dense() @ e_j``, at the cost of one gathered column."""
        x = np.asarray(x)
        touched = (x if x.ndim == 1 else x.any(axis=1)).nonzero()[0]
        cols = self._padded()[np.arange(self.column.size)[:, None] - touched]
        return cols @ x[touched]


def toeplitz_matrix(phi, n: int) -> np.ndarray:
    """Multiplication by an H^infinity symbol: lower-triangular Toeplitz with
    first column the Taylor coefficients of phi, extracted by
    :func:`taylor_coefficients` at ``DEFAULT_RADIUS``."""
    return LowerToeplitz(taylor_coefficients(phi, n)).dense()


# Kept for perfbench/tracing.py only.
def boundary_gram(phi, d: int) -> np.ndarray:
    """(d+1) x (d+1) Gram matrix of {phi^0, ..., phi^d} by circle quadrature, the
    identity for an inner phi fixing 0; the grid is offset by half a step so atoms of
    singular inner symbols at common angles are never hit."""
    zeta = np.exp(2j * np.pi * (np.arange(2048) + 0.5) / 2048)  # exact for Blaschke products
    vals = np.asarray(phi(zeta), dtype=complex)
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

    ``psi`` must be inner with psi(0) = 0 and no automorphism (a unitary
    has no wandering part).  Inner-ness is certified by type: the core of
    ``psi`` (``psi.core`` for a :class:`ConjugatedSymbol`) is a Blaschke
    product or singular inner, or :class:`NotInner` is raised; a degree-1
    Blaschke or automorphic Mobius core raises :class:`AutomorphismInput`.
    For psi = tau_a . phi . tau_a, psi(0) = tau_a(w) with w = phi(a), and
    |tau_a(w)| <= |w - a|/(1 - |a|) for |w| <= 1.  The decision finds a with
    |w - a| <= ``_FIXED_POINT_RESIDUAL`` (polynomial fixed points of Blaschke
    products lie closer); :class:`DomainError` is raised when |psi(0)| exceeds
    ``_FIXED_POINT_RESIDUAL``/(1 - |a|), with a = 0 when psi is not conjugated.

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
    signal, which no input moves: a candidate already spanned by the taken
    columns keeps about 1e-15 of its norm, so 1e-7 takes only the rest; and
    the retention 1/2 is the bound above.  ``c`` is ``comp``.
    """
    core = psi.core if isinstance(psi, ConjugatedSymbol) else psi
    if isinstance(core, BlaschkeProduct) and core.degree == 1 or (
            isinstance(core, MobiusMap) and core.is_disk_automorphism()):
        raise AutomorphismInput("disk automorphisms have no wandering part")
    if not isinstance(core, (BlaschkeProduct, SingularInner)):
        raise NotInner(f"{type(core).__name__} symbols are not inner by construction")
    alpha = abs(psi.alpha) if core is not psi else 0.0
    origin = abs(complex(np.asarray(psi(0.0))))
    if origin > _FIXED_POINT_RESIDUAL / (1.0 - alpha):
        raise DomainError(f"the symbol does not fix the origin: |psi(0)| = {origin:.3e}")
    c = composition_matrix(psi, n)

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
