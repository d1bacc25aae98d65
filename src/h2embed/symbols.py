"""Bounded analytic symbols on the unit disk.

Every concrete symbol class here — finite Blaschke product, discrete
singular inner function, rational outer factor, Mobius map, truncated
power series and the product/conjugation wrappers — is a callable,
vectorised over numpy arrays of points in the open disk.

``circle_eval`` is the sanctioned way to evaluate a symbol *on* the unit
circle: singular inner functions extend there with unimodular values off
their atom set, which their ordinary ``__call__`` refuses by contract.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateMap,
    DomainError,
    IllConditioned,
    PoleHit,
)
from .polynomials import (
    DEFAULT_BOUNDARY_TOL,
    Polynomial,
    _horner,
    poly_derivative,
    poly_mul,
    poly_pow,
)

__all__ = [
    "BlaschkeProduct",
    "SingularMeasure",
    "SingularInner",
    "RationalOuter",
    "FactoredSymbol",
    "MobiusMap",
    "PowerSeries",
    "ProductSymbol",
    "ConjugatedSymbol",
    "circle_eval",
    "taylor_coefficients",
]

_POLE_TOL = 1e-14
_OUTER_MODULUS_SLACK = 1e-8
DEFAULT_RADIUS = 0.9  # FFT sampling radius: _ERROR_BUDGET allows n <= 168 at scale 1
_ERROR_BUDGET = 1e-8  # rounding amplification accepted: half the digits of a double
# a point within this of the unit circle is on it: the band roots_in_disk puts
# around the circle, here for atoms and for |phi| on the circle
_ON_CIRCLE = DEFAULT_BOUNDARY_TOL
_AT_ATOM = 1e-12  # a point this near an atom is the atom: 5e3 ulps of a point on the circle
# |ad - bc| / max(|a|, |b|, |c|, |d|, 1)**2 at most this is the rounding of ad
# and bc, a few eps = 2.2e-16 each
_DET_ROUNDING = 1e-15


def _as_points(z):
    return np.asarray(z, dtype=complex)


def _integral(value, name: str) -> int:
    """``value`` as an int; ValueError for a fractional value, which
    ``int`` would truncate."""
    n = int(value)
    if n != value:
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return n


@dataclass
class BlaschkeProduct:
    """Finite Blaschke product: rotation, origin zero order, nonzero zeros.

    ``zeros`` is a list of (alpha, multiplicity) with 0 < |alpha| < 1; a
    zero at the origin lives in ``origin_order`` only.  Each factor is the
    plain (alpha - z)/(1 - conj(alpha) z), without the classical
    |alpha|/alpha phase; the explicit ``rotation`` carries the phase.

    The fields are not reassigned after ``__post_init__``: the product keeps
    the (P, Q) of :meth:`numerator_denominator` and their derivatives once
    built.
    """

    rotation: float = 0.0
    origin_order: int = 0
    zeros: list = field(default_factory=list)

    def __post_init__(self):
        self._pq = self._dpq = None
        self.origin_order = _integral(self.origin_order, "origin_order")
        if self.origin_order < 0:
            raise ValueError("origin_order must be nonnegative")
        zs = []
        for alpha, mult in self.zeros:
            alpha = complex(alpha)
            mult = _integral(mult, "zero multiplicity")
            if mult < 1:
                raise ValueError("zero multiplicity must be positive")
            if not 0.0 < abs(alpha) < 1.0:
                raise ValueError(
                    "nonzero Blaschke zeros must satisfy 0 < |alpha| < 1; "
                    "origin zeros belong in origin_order"
                )
            zs.append((alpha, mult))
        self.zeros = zs

    @property
    def degree(self) -> int:
        return self.origin_order + sum(m for _, m in self.zeros)

    @property
    def is_trivial(self) -> bool:
        return self.degree == 0

    def __call__(self, z):
        z = _as_points(z)
        out = np.full_like(z, cmath.exp(1j * self.rotation))
        if self.origin_order:
            out = out * z**self.origin_order
        for alpha, m in self.zeros:
            den = 1.0 - np.conj(alpha) * z
            if np.any(np.abs(den) < _POLE_TOL):
                raise PoleHit(f"evaluation at a pole of the factor with zero {alpha}")
            out = out * ((alpha - z) / den) ** m
        return out

    def numerator_denominator(self):
        """Polynomials (P, Q) with B = P/Q, including phase and origin factor."""
        if self._pq is None:
            num = Polynomial([cmath.exp(1j * self.rotation)])
            if self.origin_order:
                num = poly_mul(num, Polynomial([0] * self.origin_order + [1]))
            den = Polynomial([1.0])
            for alpha, m in self.zeros:
                num = poly_mul(num, poly_pow(Polynomial([alpha, -1.0]), m))
                den = poly_mul(den, poly_pow(Polynomial([1.0, -np.conj(alpha)]), m))
            self._pq = num, den
        return self._pq

    def derivative(self, z):
        z = _as_points(z)
        p, q = self.numerator_denominator()
        if self._dpq is None:
            self._dpq = poly_derivative(p), poly_derivative(q)
        dp, dq = self._dpq
        qz = q(z)
        if np.any(np.abs(qz) < _POLE_TOL):
            raise PoleHit("derivative evaluation at a pole")
        return (dp(z) * qz - p(z) * dq(z)) / qz**2


@dataclass
class SingularMeasure:
    """Finite positive atomic measure on the unit circle."""

    atoms: list  # (location on the circle, mass) pairs

    def __post_init__(self):
        cleaned = []
        for zeta, mass in self.atoms:
            zeta = complex(zeta)
            mass = float(mass)
            if abs(abs(zeta) - 1.0) > _ON_CIRCLE:
                raise ValueError(f"atom location {zeta} is not on the unit circle")
            if mass <= 0.0:
                raise ValueError("atom masses must be strictly positive")
            cleaned.append((zeta / abs(zeta), mass))
        for i in range(len(cleaned)):
            for j in range(i + 1, len(cleaned)):
                if abs(cleaned[i][0] - cleaned[j][0]) < _AT_ATOM:
                    raise ValueError("atom locations must be distinct")
        self.atoms = cleaned

    @classmethod
    def from_angles(cls, angle_mass_pairs):
        return cls([(cmath.exp(1j * a), m) for a, m in angle_mass_pairs])

    def scaled(self, t: float) -> "SingularMeasure":
        if t < 0:
            raise ValueError("measures scale by nonnegative factors")
        if t == 0:
            return SingularMeasure([])
        return SingularMeasure([(z, t * m) for z, m in self.atoms])


@dataclass
class SingularInner:
    """exp(-sum mass * (zeta + z)/(zeta - z)) over the atoms of the measure.

    Zero-free on the disk with |S(z)| < 1 there and S(0) = exp(-total mass).
    """

    measure: SingularMeasure

    def _herglotz(self, z):
        out = np.zeros_like(z)
        for zeta, mass in self.measure.atoms:
            out = out + mass * (zeta + z) / (zeta - z)
        return out

    def __call__(self, z):
        z = _as_points(z)
        if np.any(np.abs(z) >= 1.0):
            raise DomainError("singular inner functions are evaluated on |z| < 1 only")
        return np.exp(-self._herglotz(z))

    def boundary_value(self, z):
        """Unimodular boundary extension, defined off the atom set."""
        z = _as_points(z)
        for zeta, _ in self.measure.atoms:
            if np.any(np.abs(z - zeta) < _AT_ATOM):
                raise PoleHit(f"boundary evaluation at the atom {zeta}")
        return np.exp(-self._herglotz(z))

    def derivative(self, z):
        z = _as_points(z)
        fac = np.zeros_like(z)
        for zeta, mass in self.measure.atoms:
            fac = fac - 2.0 * mass * zeta / (zeta - z) ** 2
        return self(z) * fac

    @property
    def is_trivial(self) -> bool:
        return not self.measure.atoms


@dataclass
class RationalOuter:
    """a * prod (1 - conj(alpha) z) * prod (z - beta): zero-free on the open disk.

    ``conjugate_factors`` lists alphas in the disk (the reflected factors),
    ``exterior_zeros`` lists betas with |beta| >= 1.
    """

    constant: complex = 1.0
    conjugate_factors: list = field(default_factory=list)
    exterior_zeros: list = field(default_factory=list)

    def __post_init__(self):
        self.constant = complex(self.constant)
        if self.constant == 0:
            raise ValueError("outer constant must be nonzero")
        self.conjugate_factors = [complex(a) for a in self.conjugate_factors]
        self.exterior_zeros = [complex(b) for b in self.exterior_zeros]
        for a in self.conjugate_factors:
            if abs(a) >= 1.0:
                raise ValueError("conjugate factors require |alpha| < 1")
        for b in self.exterior_zeros:
            if abs(b) < 1.0 - _OUTER_MODULUS_SLACK:
                raise ValueError("exterior zeros require |beta| >= 1")
        self._poly = self.as_polynomial()

    def as_polynomial(self) -> Polynomial:
        p = Polynomial([self.constant])
        for a in self.conjugate_factors:
            p = poly_mul(p, Polynomial([1.0, -np.conj(a)]))
        for b in self.exterior_zeros:
            p = poly_mul(p, Polynomial([-b, 1.0]))
        return p

    def __call__(self, z):
        return self._poly(_as_points(z))

    @property
    def is_constant(self) -> bool:
        return not self.conjugate_factors and not self.exterior_zeros


@dataclass
class FactoredSymbol:
    """Product Blaschke * singular inner * rational outer; parts may be absent."""

    blaschke: BlaschkeProduct | None = None
    singular: SingularInner | None = None
    outer: RationalOuter | None = None

    def parts(self):
        return [p for p in (self.blaschke, self.singular, self.outer) if p is not None]

    def __call__(self, z):
        z = _as_points(z)
        out = np.ones_like(z)
        for p in self.parts():
            out = out * p(z)
        return out


@dataclass
class MobiusMap:
    """z -> (a z + b)/(c z + d) with nonvanishing determinant."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        self.a, self.b = complex(self.a), complex(self.b)
        self.c, self.d = complex(self.c), complex(self.d)
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d), 1.0)
        if abs(self.det) <= _DET_ROUNDING * scale**2:
            raise DegenerateMap("ad - bc vanishes")

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def __call__(self, z):
        z = _as_points(z)
        den = self.c * z + self.d
        if np.any(np.abs(den) < _POLE_TOL):
            raise PoleHit("Mobius evaluation at its pole")
        return (self.a * z + self.b) / den

    def derivative(self, z):
        z = _as_points(z)
        den = self.c * z + self.d
        if np.any(np.abs(den) < _POLE_TOL):
            raise PoleHit("Mobius derivative at its pole")
        return self.det / den**2

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """self after other: (self . other)(z) = self(other(z))."""
        return MobiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    @classmethod
    def disk_involution(cls, alpha) -> "MobiusMap":
        """The self-inverse disk automorphism z -> (alpha - z)/(1 - conj(alpha) z)."""
        alpha = complex(alpha)
        if abs(alpha) >= 1.0:
            raise DomainError("involution center must lie in the open disk")
        return cls(-1.0, alpha, -np.conj(alpha), 1.0)

    def circle_image(self):
        """|b conj(d) - a conj(c)|, |ad - bc|, |d|^2, |c|^2.  For |d| != |c| the unit circle
        maps onto the circle with centre (b conj(d) - a conj(c))/(|d|^2 - |c|^2) and radius
        |ad - bc|/||d|^2 - |c|^2|; the map sends the disk into itself iff |c| < |d| and
        |centre| + radius <= 1 (Cowen-MacCluer 1995)."""
        a, b, c, d = self.a, self.b, self.c, self.d
        return (abs(b * d.conjugate() - a * c.conjugate()), abs(a * d - b * c),
                d.real * d.real + d.imag * d.imag, c.real * c.real + c.imag * c.imag)

    def is_disk_automorphism(self, tol: float = _ON_CIRCLE) -> bool:
        """Whether |centre| + |radius - 1| <= ``tol`` (sup ||phi| - 1| on the circle if the
        image surrounds 0, larger otherwise) and |phi(0)| < 1; |d| = |c| puts a pole on it."""
        centre, radius, d2, c2 = self.circle_image()
        den = abs(d2 - c2)
        on_circle = den > 0.0 and centre / den + abs(radius / den - 1.0) <= tol
        return on_circle and abs(self.b) < abs(self.d)

    def fixed_point_polynomial(self) -> Polynomial:
        """c z^2 + (d - a) z - b, whose roots are the fixed points."""
        return Polynomial([-self.b, self.d - self.a, self.c])


@dataclass
class PowerSeries:
    """Truncated Taylor series used as an analytic symbol."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=complex)).ravel()
        if self.coeffs.size == 0:
            self.coeffs = np.zeros(1, dtype=complex)

    def __call__(self, z):
        return _horner(self.coeffs, _as_points(z))


@dataclass
class ProductSymbol:
    """Pointwise product of symbols."""

    factors: list

    def __call__(self, z):
        z = _as_points(z)
        out = np.ones_like(z)
        for f in self.factors:
            out = out * f(z)
        return out


@dataclass
class ConjugatedSymbol:
    """tau_alpha . core . tau_alpha for an inner core (moves a fixed point to 0)."""

    core: object
    alpha: complex

    def __post_init__(self):
        self.alpha = complex(self.alpha)
        self._tau = MobiusMap.disk_involution(self.alpha)

    def __call__(self, z):
        return self._tau(self.core(self._tau(_as_points(z))))


def circle_eval(sym, z):
    """Evaluate a symbol on (or near) the unit circle.

    Dispatches so that singular inner parts use their unimodular boundary
    extension instead of the interior-only ``__call__``.
    """
    z = _as_points(z)
    if isinstance(sym, SingularInner):
        return sym.boundary_value(z)
    if isinstance(sym, FactoredSymbol):
        out = np.ones_like(z)
        for p in sym.parts():
            out = out * circle_eval(p, z)
        return out
    if isinstance(sym, ProductSymbol):
        out = np.ones_like(z)
        for p in sym.factors:
            out = out * circle_eval(p, z)
        return out
    if isinstance(sym, ConjugatedSymbol):
        return sym._tau(circle_eval(sym.core, sym._tau(z)))
    return sym(z)


def _next_pow2(n: int) -> int:
    m = 1
    while m < n:
        m *= 2
    return m


def _grid_size(n: int, radius: float) -> int:
    """Number of sample points on the circle of the given radius for
    extracting n Taylor coefficients by FFT.

    Sampling at m points folds coefficient k + l*m (l >= 1) onto k, scaled
    by radius**(l*m); for a symbol bounded by B on the disk that aliasing
    error is at most B * radius**m / (1 - radius**m).  Taking
    m >= log(eps)/log(radius) keeps it below the eps * B rounding floor of
    the transform, so both errors are amplified alike by radius**(-k).
    The count is the next power of two >= max(4n, 64, log(eps)/log(radius)).
    """
    if not 0.0 < radius < 1.0:
        raise DomainError("sampling radius must lie in (0, 1)")
    eps = float(np.finfo(float).eps)
    return _next_pow2(max(4 * n, 64, math.ceil(math.log(eps) / math.log(radius))))


def _sample(f, pts: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(f(pts), dtype=complex)
        if vals.shape == pts.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([complex(f(z)) for z in pts], dtype=complex)


def _circle_points(n: int, radius: float) -> np.ndarray:
    """The :func:`_grid_size` points radius * exp(2 pi i j / m), j < m."""
    m = _grid_size(n, radius)
    return radius * np.exp(2j * np.pi * np.arange(m) / m)


def _check_amplification(n: int, radius: float, scale: float) -> None:
    """Raise :class:`IllConditioned` when radius**(-(n-1)) * eps * max(1, scale),
    the rounding amplification of :func:`_coefficients_from_samples`, exceeds
    ``_ERROR_BUDGET``; ``scale`` bounds the sampled function (max |phi| on the
    circle for powers phi**j).  Callers check before they allocate samples."""
    eps = float(np.finfo(float).eps)
    if radius ** (-(n - 1)) * eps * max(1.0, scale) > _ERROR_BUDGET:
        raise IllConditioned(
            f"radius**-(n-1) amplification exceeds the error budget {_ERROR_BUDGET}; "
            "raise the radius or lower n"
        )


def _coefficients_from_samples(samples: np.ndarray, n: int, radius: float) -> np.ndarray:
    """First ``n`` Taylor coefficients of each function sampled along the
    last axis of ``samples`` at the points of :func:`_circle_points`.

    Grid rule: the m samples come from :func:`_grid_size`, so aliasing
    stays below the eps-relative rounding of the FFT.  Coefficient k is
    the k-th FFT term over m, rescaled by radius**(-k), which amplifies
    that rounding as well; :func:`_check_amplification` bounds it.
    """
    powers = radius ** (-np.arange(n, dtype=float))
    return (np.fft.fft(samples)[..., :n] / samples.shape[-1]) * powers


def taylor_coefficients(
    f,
    n: int,
    radius: float = DEFAULT_RADIUS,
    *,
    return_errors: bool = False,
):
    """First ``n`` Taylor coefficients of a disk-analytic symbol.

    Samples ``f`` on the circle of the given radius and extracts the
    coefficients with :func:`_coefficients_from_samples`;
    :func:`_check_amplification` raises :class:`IllConditioned` first when
    the radius**(-(n-1)) amplification alone exceeds the budget.
    With ``return_errors`` a per-coefficient error estimate is returned:
    an aliasing bound from Cauchy estimates on a slightly larger sampling
    circle plus an FFT roundoff term.
    """
    if n < 1:
        raise ValueError("need at least one coefficient")
    vals = _sample(f, _circle_points(n, radius))
    scale = max(1.0, float(np.max(np.abs(vals))))
    _check_amplification(n, radius, scale)
    coeffs = _coefficients_from_samples(vals, n, radius)
    if not return_errors:
        return coeffs
    m = vals.size
    eps = float(np.finfo(float).eps)
    r1 = 0.5 * (1.0 + radius)
    vals1 = _sample(f, r1 * np.exp(2j * np.pi * np.arange(m) / m))
    m1 = float(np.max(np.abs(vals1)))
    q = (radius / r1) ** m
    alias = m1 * (q / (1.0 - q)) * r1 ** (-np.arange(n, dtype=float))
    rounding = m * eps * scale * radius ** (-np.arange(n, dtype=float))
    return coeffs, alias + rounding
