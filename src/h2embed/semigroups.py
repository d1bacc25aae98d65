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
coefficients, held by the coefficients alone (:class:`LowerToeplitz`), and
obey the semigroup law to rounding at every truncation order.  They derive
from :class:`MultiplicationFlow`.

Composition flows are linear-fractional semiflows
phi_t = m^-1 . (z -> exp(t L) z) . m: a Mobius change of variable m turns
the flow into a scaling.  The rotation by theta about alpha takes
m = tau_alpha and L = i theta; an attracting map with fixed points alpha
and beta takes its Koenigs map m(z) = (z - alpha)/(1 - z/beta) and
L = Log phi'(alpha).  Their operators are sampled as the similarity orbit
B diag(exp(k t L)) B^-1, with B the truncated composition matrix of m, so
the operator law again holds to rounding (B = I when m is the identity).

An isometric composition operator with symbol fixing 0 embeds through its
Wold decomposition: constants stay put, and the wandering levels ride a
right-translation semigroup on a discretised half line.  Those operators
act on the space constants (+) cells x wandering-fiber, not on H^2_N
itself.  The sample carries the isometric embedding of the resolved part of
H^2_N into that space, one column per column of the Wold basis, and the
decomposition itself (with its composition matrix) in ``meta["wold"]``, so
checks compare against composition matrices without rebuilding anything.
Every semigroup here, :class:`WoldShiftFlow` too, samples itself: ``sample(times, n)``.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BranchFailure,
    DomainError,
    HorizonOverflow,
    MissingTime,
    NonCommuting,
)
from .operators import LowerToeplitz, composition_matrix, wold_decompose
from .polynomials import Polynomial
from .symbols import (
    ConjugatedSymbol,
    MobiusMap,
    ProductSymbol,
    RationalOuter,
    SingularInner,
)

__all__ = [
    "OperatorSemigroupSample",
    "MultiplicationFlow",
    "ConstantFlow",
    "SingularInnerFlow",
    "OuterFlow",
    "SpiralFlow",
    "ProductFlow",
    "WoldShiftFlow",
    "sample_multiplication_flow",
    "sample_spiral_flow",
    "embed_isometric_composition",
    "wold_comparison_defect",
]

TIME_TOL = 1e-12  # sample times closer than this are one time
UNIMODULAR_TOL = 1e-12  # a constant whose modulus is this close to 1 is unimodular
_AT_ORIGIN = 1e-12  # a fixed point this near 0 is 0: |phi(0)| ~ |alpha| passes wold_decompose
_WHOLE_CELLS = 1e-9  # t m this near an integer is whole: a decimal time carries a few ulps
_LOSSLESS = 1e-8  # a chain that lost at most this norm to truncation is compared
_VANISHED = 1e-9  # a column the k-th power sends below this norm is sent to zero


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


class MultiplicationFlow:
    """A flow of multiplication symbols with closed-form ``coefficients(t, n)``."""

    def sample(self, times, n: int) -> OperatorSemigroupSample:
        return sample_multiplication_flow(self, times, n)


class ConstantFlow(MultiplicationFlow):
    """t -> c**t for a nonzero constant, via the principal logarithm."""

    def __init__(self, value):
        self.value = complex(value)
        if self.value == 0:
            raise BranchFailure("constant flow needs a nonzero value")
        self.log_value = cmath.log(self.value)
        self.isometric = abs(abs(self.value) - 1.0) < UNIMODULAR_TOL
        self.descriptor = "constant-flow"

    def at(self, t: float) -> Polynomial:
        return Polynomial([cmath.exp(t * self.log_value)])

    def coefficients(self, t: float, n: int) -> np.ndarray:
        """c**t e_0: the first n Taylor coefficients of the time-t symbol."""
        out = np.zeros(n, dtype=complex)
        out[0] = cmath.exp(t * self.log_value)
        return out


class SingularInnerFlow(MultiplicationFlow):
    """t -> S**t for a singular inner S, the symbol with every atom mass
    times t (Eisner, Arch. Math. 92, 2009: S_mu**t = S_(t mu)).

    ``at(t)`` is ``symbol.scaled(t)``, which evaluates on the closed disk
    like S.  Its Taylor coefficients are, per atom (zeta, m) with x = t m,
    exp(-x) L_k^(-1)(2x) conj(zeta)**k in closed form, the atoms combined
    by truncated convolution.
    """

    isometric = True
    descriptor = "singular-inner-flow"

    def __init__(self, symbol: SingularInner):
        self.symbol = symbol

    def at(self, t: float) -> SingularInner:
        if t < 0:
            raise DomainError("flow times are nonnegative")
        return self.symbol.scaled(t)

    def coefficients(self, t: float, n: int) -> np.ndarray:
        """First n Taylor coefficients of the time-t symbol, in closed form."""
        if t < 0:
            raise DomainError("flow times are nonnegative")
        return _truncated_product(
            (_laguerre_atom_series(zeta, t * m, n) for zeta, m in self.symbol.atoms), n
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


class OuterFlow(MultiplicationFlow):
    """t -> F**t for a rational outer F = c prod (1 - conj(a) z) prod (z - beta).

    In closed form, F**t = exp(t Log F(0)) prod (1 - conj(a) z)**t
    prod (1 - z/beta)**t.  Log is the principal logarithm of F(0), taken as
    the constant coefficient of ``outer._poly``, the polynomial the outer
    factor builds once and evaluates (so a negative F(0) whose product
    carries a +0 imaginary part, as for 2(z - 2), takes +i pi).  Each factor
    (1 - w z)**t is the binomial series equal to 1 at 0; it is analytic on
    the disk because |w| <= 1.
    """

    isometric = False
    descriptor = "outer-flow"

    def __init__(self, outer: RationalOuter):
        self.outer = outer
        self.log_f0 = cmath.log(complex(outer._poly.coeffs[0]))
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


class SpiralFlow:
    """t -> m^-1 . (z -> exp(t L) z) . m, a linear-fractional semiflow.

    ``conjugator`` is the Mobius change of variable m, or None when there is
    none (the rotation about 0 and the identity); ``inverse`` is m^-1, by
    default ``conjugator.inverse()``.  ``log_multiplier`` is L.
    """

    def __init__(self, conjugator, log_multiplier, descriptor: str, inverse=None):
        if inverse is None and conjugator is not None:
            inverse = conjugator.inverse()
        self.conjugator = conjugator
        self.inverse = inverse
        self.log_multiplier = complex(log_multiplier)
        self.descriptor = descriptor
        self.isometric = conjugator is None and self.log_multiplier.real == 0

    @classmethod
    def elliptic(cls, alpha, theta: float) -> "SpiralFlow":
        """The rotation by theta about alpha: m = tau_alpha, its own inverse
        (``inverse()`` would negate its four coefficients), and L = i theta."""
        alpha = complex(alpha)
        if abs(alpha) >= 1.0:
            raise DomainError("elliptic center must lie in the open disk")
        tau = MobiusMap.disk_involution(alpha) if alpha != 0 else None
        return cls(tau, 1j * float(theta), "elliptic-flow", inverse=tau)

    def at(self, t: float) -> MobiusMap:
        scale = MobiusMap(cmath.exp(self.log_multiplier * t), 0.0, 0.0, 1.0)
        if self.conjugator is None:
            return scale
        return self.inverse.compose(scale).compose(self.conjugator)

    def sample(self, times, n: int) -> OperatorSemigroupSample:
        return sample_spiral_flow(self, times, n)


class ProductFlow(MultiplicationFlow):
    """Pointwise product of commuting multiplication flows."""

    descriptor = "product-flow"

    def __init__(self, parts):
        for p in parts:
            if not isinstance(p, MultiplicationFlow):
                raise NonCommuting(
                    "product flows combine multiplication-type flows only; "
                    "composition flows do not commute with them"
                )
        self.parts = list(parts)
        self.isometric = all(p.isometric for p in self.parts)

    def at(self, t: float):
        if not self.parts:
            return Polynomial([1.0])
        if len(self.parts) == 1:
            return self.parts[0].at(t)
        return ProductSymbol([p.at(t) for p in self.parts])

    def coefficients(self, t: float, n: int) -> np.ndarray:
        """Truncated convolution of the parts' coefficients."""
        return _truncated_product((p.coefficients(t, n) for p in self.parts), n)


class WoldShiftFlow:
    """The Wold/shift embedding of C_phi, phi inner with interior fixed point
    alpha (Eisner, Arch. Math. 92, 2009): :func:`embed_isometric_composition`
    of phi conjugated to fix 0, as a :class:`ConjugatedSymbol` whose core phi
    :func:`wold_decompose` certifies inner by type.  It is no flow of
    symbols, so its ``descriptor`` is None."""

    descriptor = None

    def __init__(self, phi, alpha):
        self.phi = phi
        self.alpha = alpha

    def fixing_origin(self):
        """phi, or tau_alpha . phi . tau_alpha when phi(0) != 0 and alpha != 0."""
        phi = self.phi
        if complex(np.asarray(phi(0.0))) == 0 or abs(self.alpha) < _AT_ORIGIN:
            return phi
        return ConjugatedSymbol(phi, self.alpha)

    def sample(self, times, n: int) -> OperatorSemigroupSample:
        return embed_isometric_composition(self.fixing_origin(), times, n)


# --------------------------------------------------------------------------
# operator samples
# --------------------------------------------------------------------------


@dataclass
class OperatorSemigroupSample:
    """A semigroup sampled at finitely many times.

    Each entry of ``operators`` is one of three kinds, each with ``ndim``,
    ``shape`` and ``nbytes``.  Every flow sample holds V_0 as the
    :class:`LowerToeplitz` identity, the operator of e_0.  Multiplication-flow
    samples hold every V_t as the :class:`LowerToeplitz` operator of its
    first column.  Linear-fractional samples at t > 0 hold the
    ``dim x dim`` matrix of V_t.  Wold/shift samples hold V_t as the partial
    permutation it is: a 1-D integer array ``src`` of length ``dim`` with
    row i of V_t x equal to row ``src[i]`` of x, and 0 where ``src[i] < 0``.
    A sample read back from its files holds each operator as
    :func:`~h2embed.fileio.load_matrix_csv` reads it.
    Consumers go through :meth:`apply` and never see the difference.

    ``embedding`` (when present) is an isometry from the resolved part of
    H^2_N into the sample's own space, read only by :meth:`test_vectors` and
    :func:`wold_comparison_defect`; its columns are the images of the columns
    of ``meta["wold"].basis``, the Wold decomposition the sample was built
    from.  Flow samples act on H^2_N directly and carry neither.
    """

    times: list
    operators: list
    construction: str
    dim: int
    isometric: bool
    embedding: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def apply(self, t: float, x: np.ndarray | None = None) -> np.ndarray:
        """V_t x, or the ``dim x dim`` matrix of V_t when x is None."""
        op = self.operator_at(t)
        if isinstance(op, LowerToeplitz):
            return op.dense() if x is None else op @ x
        if op.ndim == 2:
            return op if x is None else op @ x
        x = np.eye(self.dim, dtype=complex) if x is None else np.asarray(x)
        out = x.astype(np.result_type(x, complex), copy=False)[op]
        out[op < 0] = 0
        return out

    def operator_at(self, t: float):
        for tt, op in zip(self.times, self.operators):
            if math.isclose(tt, t, rel_tol=0.0, abs_tol=TIME_TOL):
                return op
        raise MissingTime(f"no operator sampled at t = {t}")

    def test_vectors(self, count: int) -> np.ndarray:
        """The first ``count`` columns of ``embedding``, or of the identity."""
        e = self.embedding
        return np.eye(self.dim, min(count, self.dim), dtype=complex) if e is None else e[:, :count]


def _flow_sample(flow, times, n: int, operator_at) -> OperatorSemigroupSample:
    """The sample of ``flow`` at ``times``: V_0 is the :class:`LowerToeplitz`
    operator of e_0, the identity, and V_t for t > 0 is ``operator_at(t)``."""
    identity = LowerToeplitz(np.eye(1, n, dtype=complex)[0])
    return OperatorSemigroupSample(
        times=list(times),
        operators=[identity if t == 0 else operator_at(t) for t in times],
        construction=flow.descriptor,
        dim=n,
        isometric=flow.isometric,
    )


def sample_multiplication_flow(flow, times, n: int) -> OperatorSemigroupSample:
    """Toeplitz operators of a multiplication flow at the given times.

    V_t is the :class:`LowerToeplitz` operator of ``flow.coefficients(t,
    n)``, the first n Taylor coefficients of the time-t symbol in closed
    form, and of e_0 at t = 0; no symbol is sampled and no n x n matrix is
    built.  Truncation commutes with multiplication by analytic symbols, so
    V_t V_s = V_{t+s} holds to rounding at every n.  A time whose
    coefficients overflow raises :class:`DomainError`.
    """
    if not isinstance(flow, MultiplicationFlow):
        raise NonCommuting("expected a multiplication-type flow")

    def operator_at(t):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                c = flow.coefficients(t, n)
        except OverflowError:
            c = None
        if c is None or not np.isfinite(c).all():
            raise DomainError(f"the flow's Taylor coefficients at t = {t!r} are not finite")
        return LowerToeplitz(c)

    return _flow_sample(flow, times, n, operator_at)


def sample_spiral_flow(flow: SpiralFlow, times, n: int) -> OperatorSemigroupSample:
    """Operator sample of a linear-fractional semiflow: V_t is
    B diag(exp(k t L)) B^-1 with B the truncated composition matrix of the
    conjugator, or the exact diagonal when there is none, and V_0 the
    :class:`LowerToeplitz` identity.

    An exact similarity orbit: it satisfies the semigroup law to rounding
    and agrees with the compressed composition operators up to truncation
    leakage.  The sample is isometric only without a conjugator and with
    L imaginary (a rotation about 0, or the identity).
    """
    b = b_inv = None
    if flow.conjugator is not None:
        b = composition_matrix(flow.conjugator, n)
        b_inv = np.linalg.inv(b)

    def operator_at(t):
        d = np.diag(np.exp(flow.log_multiplier * t * np.arange(n)))
        return d if b is None else b @ d @ b_inv

    return _flow_sample(flow, times, n, operator_at)


# The benchmark's tracer (perfbench/tracing.py) still looks this name up.
sample_elliptic_flow = sample_spiral_flow


def embed_isometric_composition(psi, times, n: int) -> OperatorSemigroupSample:
    """Embed C_psi (psi inner, psi(0) = 0, not an automorphism) into a
    strongly continuous semigroup sampled at the given times.

    The sample space is constants (+) cells x (wandering fiber), with the
    cells the levels and the largest shift reach: the unitary part of the
    Wold decomposition is the constants, where the operator acts as the
    identity (the canonical phase, since C_psi fixes 1), and the k-th image
    of a wandering vector rides as the indicator of the k-th unit block of
    cells.  The cell width is h = 1/m for the smallest positive integer
    m <= 4 n that makes every t m an integer (within 1e-9); the operators
    then are exact cell translations, stored as row-gather indices (see
    :class:`OperatorSemigroupSample`), so the semigroup law and isometry
    hold exactly, and the time-k operator reproduces the k-th power of the
    composition matrix on the resolved subspace.  No ``dim x dim`` array is
    built.  The L levels take m cells each and the largest shift adds
    k_max = max t m more, so the sample holds L m + k_max cells: on further
    cells every embedded vector and every shift of one is zero.  Both
    counts grow with m, so when no such m exists or the smallest one needs
    more cells than the cap of 4 n, kept in ``meta["horizon"]``,
    :class:`HorizonOverflow` is raised.  The decomposition from
    :func:`wold_decompose` travels in ``meta["wold"]``; the sample holds
    ``(dim - 1) / meta["fiber_dim"]`` cells.
    """
    wold = wold_decompose(psi, n)
    d = wold.level_dims[0]
    if not all(0.0 <= t < math.inf for t in times):
        raise DomainError("sample times are finite and nonnegative")
    horizon = 4 * n
    m = next(
        (m for m in range(1, horizon + 1)
         if all(abs(t * m - round(t * m)) <= _WHOLE_CELLS for t in times)),
        None,
    )
    if m is None:
        raise HorizonOverflow(
            f"no cell width 1/m with m <= {horizon} makes each of the times "
            f"{list(times)} a whole number of cells"
        )
    h = 1 / m
    ks = [round(t * m) for t in times]
    used = len(wold.level_dims) * m
    kmax = max(ks, default=0)
    if used + kmax > horizon:
        raise HorizonOverflow(
            f"levels occupy {used} cells and shifts add {kmax}; "
            f"horizon {horizon} is too small"
        )

    # Column j of the embedding is the image of column j of wold.basis: for
    # j >= 1, on level lv and chain i, sqrt(h) on the rows of level lv's cells.
    dim = 1 + (used + kmax) * d
    embedding = np.zeros((dim, wold.basis.shape[1]), dtype=complex)
    embedding[0, 0] = 1.0
    lv = np.repeat(np.arange(len(wold.level_dims)), wold.level_dims)[:, None]
    rows = 1 + (lv * m + np.arange(m)) * d + wold.chain[:, None]
    embedding[rows, 1 + np.arange(wold.chain.size)[:, None]] = math.sqrt(h)

    # Row 1 + c d + i reads row 1 + (c - k) d + i; the first k cells fill
    # with zeros and the constants stay put.
    ops = []
    for k in ks:
        src = np.arange(dim) - k * d
        src[1 : 1 + k * d] = -1
        src[0] = 0
        ops.append(src)

    return OperatorSemigroupSample(
        times=list(times),
        operators=ops,
        construction="wold-shift",
        dim=dim,
        isometric=True,
        embedding=embedding,
        meta={"h": h, "horizon": horizon, "fiber_dim": d, "wold": wold},
    )


def wold_comparison_defect(sample: OperatorSemigroupSample, k: int) -> tuple[float, int]:
    """Spectral-norm gap between the sampled time-k operator and the k-th
    power of the composition matrix, both compressed to the resolved basis
    of ``sample.meta["wold"]``, and the number of resolved columns it covers.

    A column is covered when its chain is still resolved k levels up with
    no truncation loss (at most 1e-8, at both ends), or when the k-th power
    sends it to zero (norm at most 1e-9); on the other columns truncation
    makes the two sides differ by design.
    """
    wold = sample.meta["wold"]
    p = wold.basis
    ck = np.linalg.matrix_power(wold.comp, k)
    covered = _covered_columns(wold, ck, k)
    e = sample.embedding
    diff = (e.conj().T @ sample.apply(float(k), e) - p.conj().T @ ck @ p)[:, covered]
    return float(np.linalg.norm(diff, 2)), len(covered)


def _covered_columns(wold, ck: np.ndarray, k: int) -> np.ndarray:
    """The columns of ``wold.basis`` that :func:`wold_comparison_defect`
    compares, with ``ck`` the k-th power of ``wold.comp``.  The losses sit
    in an (L + k) x d table, level by chain, that is 1.0 where no column is."""
    lv = np.repeat(np.arange(len(wold.level_dims)), wold.level_dims)
    table = np.ones((len(wold.level_dims) + k, wold.level_dims[0]))
    table[lv, wold.chain] = wold.loss
    alive = (wold.loss <= _LOSSLESS) & (table[lv + k, wold.chain] <= _LOSSLESS)
    dead = np.linalg.norm(ck @ wold.basis[:, 1:], axis=0) <= _VANISHED
    return np.concatenate([[0], 1 + np.flatnonzero(alive | dead)])
