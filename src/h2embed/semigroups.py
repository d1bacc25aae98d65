"""Explicit one-parameter semigroups and their truncated operator samples.

Symbol-level flows come in two families.  Multiplication flows (singular
inner, rational outer, unimodular constants, and products of these) give
each time-t symbol's first n Taylor coefficients in closed form through
``coefficients(t, n)``:

* constant c: c**t e_0, with the principal logarithm of c;
* singular inner, atoms (zeta, m): per atom exp(-x) L_k^(-1)(2x)
  conj(zeta)**k with x = t m (associated Laguerre polynomials), the atoms
  combined by truncated convolution;
* rational outer F: exp(t Log F(0)) times the binomial series of
  (1 - conj(a) z)**t and (1 - z/beta)**t, each equal to 1 at 0, with Log
  the principal logarithm of the constant coefficient of F;
* products: the truncated convolution of the parts.

Their operators are the lower-triangular Toeplitz matrices of those
coefficients and obey the semigroup law to rounding at every truncation
order.  Composition flows (elliptic automorphism flows) are realised as
similarity orbits of exact diagonal rotations so the operator law again
holds to rounding.

An isometric composition operator with symbol fixing 0 embeds through its
Wold decomposition: constants stay put, and the wandering levels ride a
right-translation semigroup on a discretised half line.  Those operators
act on the space constants (+) cells x wandering-fiber, not on H^2_N
itself; the sample carries the isometric embedding of the resolved part of
H^2_N into that space so checks can compare against composition matrices.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BranchFailure,
    DomainError,
    FractionalTime,
    HorizonOverflow,
    MissingTime,
    NonCommuting,
)
from .operators import (
    DEFAULT_RADIUS,
    DEFAULT_RANK_TOL,
    TruncatedOperator,
    composition_matrix,
    lower_toeplitz,
    wold_decompose,
)
from .symbols import (
    MobiusMap,
    PowerSeries,
    ProductSymbol,
    RationalOuter,
    SingularInner,
    SingularMeasure,
)

__all__ = [
    "OperatorSemigroupSample",
    "ConstantFlow",
    "SingularInnerFlow",
    "OuterFlow",
    "EllipticFlow",
    "ProductFlow",
    "sample_multiplication_flow",
    "sample_elliptic_flow",
    "embed_isometric_composition",
    "wold_comparison_defect",
]


# --------------------------------------------------------------------------
# symbol-level flows
# --------------------------------------------------------------------------


def _binomial_series(w: complex, t: float, n: int) -> np.ndarray:
    """First n Taylor coefficients of (1 - w z)**t, the branch equal to 1
    at z = 0: coefficient k is binom(t, k) (-w)**k."""
    k = np.arange(n - 1)
    out = np.empty(n, dtype=complex)
    out[0] = 1.0
    out[1:] = np.cumprod((t - k) * (-w) / (k + 1))
    return out


def _laguerre_atom_series(zeta: complex, x: float, n: int) -> np.ndarray:
    """First n Taylor coefficients of exp(-x (zeta + z)/(zeta - z)):
    exp(-x) L_k^(-1)(2x) conj(zeta)**k, with the associated Laguerre
    polynomials from their three-term recurrence
    (k + 1) L_{k+1} = (2k - 2x) L_k - (k - 1) L_{k-1}.  Started at exp(-x),
    every term is a coefficient of an inner function, of modulus at most 1,
    so nothing overflows for large x."""
    lag = np.zeros(n)
    lag[0] = math.exp(-x)
    if n > 1:
        lag[1] = -2.0 * x * lag[0]
    for k in range(1, n - 1):
        lag[k + 1] = ((2 * k - 2.0 * x) * lag[k] - (k - 1) * lag[k - 1]) / (k + 1)
    return lag * zeta.conjugate() ** np.arange(n)


def _truncated_product(series, n: int) -> np.ndarray:
    """First n Taylor coefficients of the product of power series."""
    out = np.zeros(n, dtype=complex)
    out[0] = 1.0
    for c in series:
        out = np.convolve(out, c)[:n]
    return out


class ConstantFlow:
    """t -> c**t for a nonzero constant, via the principal logarithm."""

    multiplicative = True

    def __init__(self, value):
        self.value = complex(value)
        if self.value == 0:
            raise BranchFailure("constant flow needs a nonzero value")
        self.log_value = cmath.log(self.value)
        self.isometric = abs(abs(self.value) - 1.0) < 1e-12
        self.descriptor = "constant-flow"

    def at(self, t: float) -> PowerSeries:
        return PowerSeries([cmath.exp(t * self.log_value)])

    def coefficients(self, t: float, n: int) -> np.ndarray:
        """c**t e_0: the first n Taylor coefficients of the time-t symbol."""
        out = np.zeros(n, dtype=complex)
        out[0] = cmath.exp(t * self.log_value)
        return out


class SingularInnerFlow:
    """t -> the singular inner function of the measure scaled by t.

    Its time-t symbol is the product over atoms (zeta, m) of
    exp(-x (zeta + z)/(zeta - z)) with x = t m, whose Taylor coefficients
    are exp(-x) L_k^(-1)(2x) conj(zeta)**k in closed form.
    """

    multiplicative = True
    isometric = True
    descriptor = "singular-inner-flow"

    def __init__(self, measure: SingularMeasure):
        self.measure = measure

    def at(self, t: float) -> SingularInner:
        if t < 0:
            raise DomainError("flow times are nonnegative")
        return SingularInner(self.measure.scaled(t))

    def coefficients(self, t: float, n: int) -> np.ndarray:
        """First n Taylor coefficients of the time-t symbol, in closed form."""
        if t < 0:
            raise DomainError("flow times are nonnegative")
        return _truncated_product(
            (_laguerre_atom_series(zeta, t * m, n) for zeta, m in self.measure.atoms), n
        )


@dataclass
class OuterPower:
    """exp(t Log F(0)) prod (1 - w z)**t over the factors w of a rational
    outer F, each power on the branch equal to 1 at z = 0."""

    log_scale: complex
    factors: list
    t: float

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        log = np.full_like(z, self.log_scale)
        for w in self.factors:
            log = log + self.t * np.log(1.0 - w * z)
        return np.exp(log)


class OuterFlow:
    """t -> F**t for a rational outer F = c prod (1 - conj(a) z) prod (z - beta).

    In closed form, F**t = exp(t Log F(0)) prod (1 - conj(a) z)**t
    prod (1 - z/beta)**t.  Log is the principal logarithm of F(0), taken as
    the constant coefficient of ``outer.as_polynomial()`` (so a negative
    F(0) whose product carries a +0 imaginary part, as for 2(z - 2), takes
    +i pi).  Each factor (1 - w z)**t is the binomial series equal to 1 at
    0; it is analytic on the disk because |w| <= 1.
    """

    multiplicative = True
    isometric = False
    descriptor = "outer-flow"

    def __init__(self, outer: RationalOuter):
        self.outer = outer
        self.log_f0 = cmath.log(complex(outer.as_polynomial().coeffs[0]))
        self.factors = [a.conjugate() for a in outer.conjugate_factors] + [
            1.0 / b for b in outer.exterior_zeros
        ]

    def at(self, t: float) -> OuterPower:
        if t < 0:
            raise DomainError("flow times are nonnegative")
        return OuterPower(t * self.log_f0, self.factors, t)

    def coefficients(self, t: float, n: int) -> np.ndarray:
        """First n Taylor coefficients of F**t: the binomial series of the
        factors, combined by truncated convolution and scaled by
        exp(t Log F(0))."""
        if t < 0:
            raise DomainError("flow times are nonnegative")
        out = _truncated_product((_binomial_series(w, t, n) for w in self.factors), n)
        return cmath.exp(t * self.log_f0) * out


class EllipticFlow:
    """t -> tau_alpha . (rotation by theta t) . tau_alpha, the automorphism
    flow fixing alpha."""

    multiplicative = False
    descriptor = "elliptic-flow"

    def __init__(self, alpha, theta: float):
        self.alpha = complex(alpha)
        if abs(self.alpha) >= 1.0:
            raise DomainError("elliptic center must lie in the open disk")
        self.theta = float(theta)
        self.isometric = self.alpha == 0

    def at(self, t: float) -> MobiusMap:
        rot = MobiusMap(cmath.exp(1j * self.theta * t), 0.0, 0.0, 1.0)
        if self.alpha == 0:
            return rot
        tau = MobiusMap.disk_involution(self.alpha)
        return tau.compose(rot).compose(tau)


class ProductFlow:
    """Pointwise product of commuting multiplication flows."""

    multiplicative = True
    descriptor = "product-flow"

    def __init__(self, parts):
        for p in parts:
            if not getattr(p, "multiplicative", False):
                raise NonCommuting(
                    "product flows combine multiplication-type flows only; "
                    "composition flows do not commute with them"
                )
        self.parts = list(parts)
        self.isometric = all(p.isometric for p in self.parts)

    def at(self, t: float):
        if not self.parts:
            return PowerSeries([1.0])
        if len(self.parts) == 1:
            return self.parts[0].at(t)
        return ProductSymbol([p.at(t) for p in self.parts])

    def coefficients(self, t: float, n: int) -> np.ndarray:
        """Truncated convolution of the parts' coefficients."""
        return _truncated_product((p.coefficients(t, n) for p in self.parts), n)


# --------------------------------------------------------------------------
# operator samples
# --------------------------------------------------------------------------


@dataclass
class OperatorSemigroupSample:
    """A semigroup sampled at finitely many times.

    Each entry of ``operators`` is a numpy array, one of two kinds.  Flow
    samples, and dense operator files read back, hold the ``dim x dim``
    matrix of V_t.  Wold/shift samples, and index files read back, hold
    V_t as the partial permutation it is: a 1-D integer array ``src`` of
    length ``dim`` with row i of V_t x equal to row ``src[i]`` of x, and 0
    where ``src[i] < 0``.
    Consumers go through :meth:`apply` and never see the difference.

    ``embedding`` (when present) is an isometry from the resolved part of
    H^2_N into the sample's own space; ``resolved_basis`` lists the same
    resolved vectors inside H^2_N.  Flow samples act on H^2_N directly and
    carry neither.
    """

    times: list
    operators: list
    construction: str
    dim: int
    isometric: bool
    embedding: np.ndarray | None = None
    resolved_basis: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def apply(self, t: float, x: np.ndarray | None = None) -> np.ndarray:
        """V_t x, or the ``dim x dim`` matrix of V_t when x is None."""
        op = self.operator_at(t)
        if op.ndim == 2:
            return op if x is None else op @ x
        x = np.eye(self.dim, dtype=complex) if x is None else np.asarray(x)
        out = np.zeros(x.shape, dtype=np.result_type(x, complex))
        keep = op >= 0
        out[keep] = x[op[keep]]
        return out

    def operator_at(self, t: float) -> np.ndarray:
        for tt, op in zip(self.times, self.operators):
            if math.isclose(tt, t, rel_tol=0.0, abs_tol=1e-12):
                return op
        raise MissingTime(f"no operator sampled at t = {t}")

    def has_time(self, t: float) -> bool:
        return any(math.isclose(tt, t, rel_tol=0.0, abs_tol=1e-12) for tt in self.times)

    def test_vectors(self, max_vectors: int | None = None) -> np.ndarray:
        if self.embedding is not None:
            cols = self.embedding
        elif self.resolved_basis is not None:
            cols = self.resolved_basis
        else:
            cols = np.eye(self.dim, dtype=complex)
        if max_vectors is not None:
            cols = cols[:, :max_vectors]
        return cols


def sample_multiplication_flow(flow, times, n: int) -> OperatorSemigroupSample:
    """Toeplitz matrices of a multiplication flow at the given times.

    V_t is the lower-triangular Toeplitz matrix of ``flow.coefficients(t,
    n)``, the first n Taylor coefficients of the time-t symbol in closed
    form; no symbol is sampled.  Truncation commutes with multiplication by
    analytic symbols, so V_t V_s = V_{t+s} holds to rounding at every n.
    """
    if not getattr(flow, "multiplicative", False):
        raise NonCommuting("expected a multiplication-type flow")
    ops = []
    for t in times:
        if t == 0:
            ops.append(np.eye(n, dtype=complex))
        else:
            ops.append(lower_toeplitz(flow.coefficients(t, n)).matrix)
    return OperatorSemigroupSample(
        times=list(times),
        operators=ops,
        construction=flow.descriptor,
        dim=n,
        isometric=flow.isometric,
        meta={"n": n, "flow": flow},
    )


def sample_elliptic_flow(
    alpha, theta: float, times, n: int, radius: float = DEFAULT_RADIUS
) -> OperatorSemigroupSample:
    """Operator sample of the elliptic automorphism flow fixing alpha.

    For alpha = 0 the operators are the exact diagonal rotations (unitary).
    Otherwise they are A diag A^{-1} with A the truncated composition
    matrix of the involution: an exact similarity orbit, which agrees with
    the compressed composition operators up to truncation leakage but
    satisfies the semigroup law to rounding.  Those operators are similar
    to unitaries, not isometric, and the sample says so.
    """
    alpha = complex(alpha)
    flow = EllipticFlow(alpha, theta)
    diag_t = lambda t: np.diag(np.exp(1j * theta * t * np.arange(n)))
    ops = []
    if alpha == 0:
        for t in times:
            ops.append(np.eye(n, dtype=complex) if t == 0 else diag_t(t))
        iso = True
    else:
        a = composition_matrix(MobiusMap.disk_involution(alpha), n, radius).matrix
        a_inv = np.linalg.inv(a)
        for t in times:
            ops.append(np.eye(n, dtype=complex) if t == 0 else a @ diag_t(t) @ a_inv)
        iso = False
    return OperatorSemigroupSample(
        times=list(times),
        operators=ops,
        construction=flow.descriptor,
        dim=n,
        isometric=iso,
        meta={"n": n, "alpha": alpha, "theta": theta},
    )


def sample_spiral_flow(
    conjugator: MobiusMap,
    log_multiplier: complex,
    times,
    n: int,
    radius: float = DEFAULT_RADIUS,
    construction: str = "linear-fractional-spiral-flow",
) -> OperatorSemigroupSample:
    """Operator sample of a flow diagonalised by a Mobius change of
    variable: C of (conjugator^-1 . scale(exp(t L)) . conjugator) realised
    as B diag(exp(j t L)) B^{-1} with B the truncated composition matrix
    of the conjugator.  Exact semigroup law; not isometric in general."""
    b = composition_matrix(conjugator, n, radius).matrix
    b_inv = np.linalg.inv(b)
    ops = []
    for t in times:
        if t == 0:
            ops.append(np.eye(n, dtype=complex))
        else:
            d = np.diag(np.exp(np.arange(n) * t * log_multiplier))
            ops.append(b @ d @ b_inv)
    return OperatorSemigroupSample(
        times=list(times),
        operators=ops,
        construction=construction,
        dim=n,
        isometric=False,
        meta={"n": n},
    )


def _grid_cells(h: float) -> int:
    """The positive integer m with h = 1/m; ValueError for any other h."""
    m = round(1.0 / h) if h > 0.0 and math.isfinite(1.0 / h) else 0
    if m < 1 or abs(m * h - 1.0) > 1e-12:
        raise ValueError(f"grid step {h!r} is not 1/m for a positive integer m")
    return m


def embed_isometric_composition(
    psi,
    times,
    n: int,
    h: float,
    horizon: int | None = None,
    *,
    wold=None,
    comp: TruncatedOperator | None = None,
    radius: float = DEFAULT_RADIUS,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> OperatorSemigroupSample:
    """Embed C_psi (psi inner, psi(0) = 0, not an automorphism) into a
    strongly continuous semigroup sampled at the given times.

    The sample space is constants (+) (horizon cells) x (wandering fiber):
    the unitary part of the Wold decomposition is the constants, where the
    operator acts as the identity (the canonical phase, since C_psi fixes
    1), and the k-th image of a wandering vector rides as the indicator of
    the k-th unit block of cells.  Times must be multiples of the grid
    step h; the operators then are exact cell translations, stored as
    row-gather indices (see :class:`OperatorSemigroupSample`), so the
    semigroup law and isometry hold exactly, and the time-k operator
    reproduces the k-th power of the composition matrix on the resolved
    subspace.  No ``dim x dim`` array is built.  ``rank_tol`` is passed to
    :func:`wold_decompose`.
    """
    comp = comp or composition_matrix(psi, n, radius)
    wold = wold or wold_decompose(
        psi, n, rank_tol=rank_tol, radius=radius, comp=comp
    )
    d = wold.wandering_dim
    m = _grid_cells(h)
    ks = []
    for t in times:
        if t < 0:
            raise DomainError("sample times are nonnegative")
        k = t / h
        if abs(k - round(k)) > 1e-9:
            raise FractionalTime(
                f"sample time {t} is not a multiple of the grid step {h}"
            )
        ks.append(int(round(k)))
    n_levels = len(wold.levels)
    horizon = horizon if horizon is not None else 4 * n
    kmax = max(ks, default=0)
    if n_levels * m + kmax > horizon:
        raise HorizonOverflow(
            f"levels occupy {n_levels * m} cells and shifts add {kmax}; "
            f"horizon {horizon} is too small"
        )

    dim = 1 + horizon * d
    cols = [wold.unitary_basis[:, 0]]
    col_meta = [None]
    for lv, (basis, ids) in enumerate(zip(wold.levels, wold.chain_ids)):
        for j, i in enumerate(ids):
            cols.append(basis[:, j])
            col_meta.append((lv, i))
    resolved = np.column_stack(cols)

    embedding = np.zeros((dim, resolved.shape[1]), dtype=complex)
    embedding[0, 0] = 1.0
    root_h = math.sqrt(h)
    for cidx, tag in enumerate(col_meta):
        if tag is None:
            continue
        lv, i = tag
        for c in range(lv * m, (lv + 1) * m):
            embedding[1 + c * d + i, cidx] = root_h

    # Row 1 + c d + i reads row 1 + (c - k) d + i; the first k cells fill
    # with zeros and the constants stay put.
    ops = []
    for k in ks:
        src = np.arange(dim) - k * d
        src[1 : 1 + k * d] = -1
        src[0] = 0
        ops.append(src)

    chain_loss = {}
    for lv, (ids, losses) in enumerate(zip(wold.chain_ids, wold.chain_losses)):
        for i, loss in zip(ids, losses):
            chain_loss[(lv, i)] = loss

    return OperatorSemigroupSample(
        times=list(times),
        operators=ops,
        construction="wold-shift",
        dim=dim,
        isometric=True,
        embedding=embedding,
        resolved_basis=resolved,
        meta={
            "n": n,
            "h": h,
            "horizon": horizon,
            "fiber_dim": d,
            "col_meta": col_meta,
            "chain_ids": wold.chain_ids,
            "chain_loss": chain_loss,
            "n_levels": n_levels,
        },
    )


def _comparison_columns(sample, comp, k: int, chain_loss_budget: float, zero_tol: float):
    """Columns of the resolved basis on which the time-k operator must
    reproduce the k-th composition power: chains still alive k levels up
    without truncation loss, plus chains whose k-step image truncates away."""
    meta = sample.meta
    chain_ids = meta["chain_ids"]
    chain_loss = meta["chain_loss"]
    n_levels = meta["n_levels"]
    ck = np.linalg.matrix_power(comp.matrix, k) if k else np.eye(comp.n, dtype=complex)
    valid = [0]
    p = sample.resolved_basis
    for cidx, tag in enumerate(meta["col_meta"]):
        if tag is None:
            continue
        lv, i = tag
        target = lv + k
        alive = (
            target < n_levels
            and i in chain_ids[target]
            and chain_loss.get((target, i), 1.0) <= chain_loss_budget
            and chain_loss.get((lv, i), 1.0) <= chain_loss_budget
        )
        if alive:
            valid.append(cidx)
        elif float(np.linalg.norm(ck @ p[:, cidx])) <= zero_tol:
            valid.append(cidx)
    return valid, ck


def wold_comparison_defect(
    sample: OperatorSemigroupSample,
    comp: TruncatedOperator,
    k: int,
    *,
    chain_loss_budget: float = 1e-8,
    zero_tol: float = 1e-9,
) -> float:
    """Spectral-norm gap between the sampled time-k operator and the k-th
    power of the composition matrix, both compressed to the resolved basis."""
    e = sample.embedding
    p = sample.resolved_basis
    valid, ck = _comparison_columns(sample, comp, k, chain_loss_budget, zero_tol)
    lhs = e.conj().T @ sample.apply(float(k), e)
    rhs = p.conj().T @ ck @ p
    diff = (lhs - rhs)[:, valid]
    return float(np.linalg.norm(diff, 2))

