"""The embeddability decision engine.

Each decision function returns an :class:`EmbeddabilityReport` carrying a
verdict, a stable governing-result token naming the mathematical fact the
verdict rests on, optional notes and numeric details, and — whenever the
construction is concrete — a handle to the semigroup, with ``sample(times, n)``.

Governing-result tokens:

==============================================  =========================================
token                                           meaning
==============================================  =========================================
inner-toeplitz-dichotomy                        an isometric analytic Toeplitz operator
                                                embeds iff its inner symbol is not a
                                                finite Blaschke product; the semigroup
                                                consists of Toeplitz operators iff the
                                                symbol is zero-free on the disk
outer-symbol-flow                               outer symbols embed via exp(t log F)
inner-outer-product-flow                        zero-free symbols embed into the product
                                                of their singular and outer flows
finite-codimension-obstruction                  a finite nonzero image codimension
                                                (the degree of the Blaschke part) blocks
                                                any embedding
blaschke-nonvanishing-open-question             Blaschke part times nonvanishing
                                                non-inner cofactor: open, undecided here
polynomial-zero-criterion                       a polynomial Toeplitz operator embeds
                                                iff the polynomial has no zero inside
                                                the disk
elliptic-automorphism-semiflow                  elliptic automorphism symbols embed into
                                                the rotation flow conjugated to their
                                                fixed point (composition semigroup)
similar-isometry-shift-embedding                composition operators similar to an
                                                isometry embed through the Wold/shift
                                                construction (never as a composition
                                                semigroup unless the symbol is an
                                                automorphism)
automorphism-semiflow                           non-elliptic disk automorphisms embed
                                                into automorphism semiflows
attractive-elliptic-spiral-condition            a linear fractional self-map with
                                                interior attracting fixed point embeds
                                                into a semiflow iff the spiral-length
                                                inequality holds
boundary-fixed-point-unscoped                   boundary attracting fixed points are
                                                outside this library's decision scope
==============================================  =========================================
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .blaschke import fixed_points_in_disk, interior_fixed_point
from .errors import (
    DegenerateSymbol,
    DomainError,
    NotInner,
)
from .polynomials import Polynomial, poly_roots, roots_in_disk
from .symbols import (
    _ON_CIRCLE,
    _OUTER_MODULUS_SLACK,
    BlaschkeProduct,
    FactoredSymbol,
    MobiusMap,
    RationalOuter,
    SingularInner,
)
from .semigroups import (
    UNIMODULAR_TOL,
    ConstantFlow,
    OuterFlow,
    ProductFlow,
    SingularInnerFlow,
    SpiralFlow,
    WoldShiftFlow,
)

DEFAULT_TOL = 1e-8  # every decision's default tolerance, and the CLI's --tol
_SAME_FIXED_POINT = 1e-9  # a second fixed point this near alpha is alpha, split by rounding
__all__ = [
    "Verdict",
    "EmbeddabilityReport",
    "SpiralData",
    "spiral_length",
    "decide_toeplitz",
    "decide_polynomial_toeplitz",
    "decide_composition",
    "decide_lfm",
]


class Verdict(str, Enum):
    EMBEDDABLE = "Embeddable"
    NOT_EMBEDDABLE = "NotEmbeddable"
    UNKNOWN = "Unknown"
    OUT_OF_SCOPE = "OutOfScope"


@dataclass
class EmbeddabilityReport:
    verdict: Verdict
    governing_result: str
    semigroup: object | None = None
    notes: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


@dataclass
class SpiralData:
    """Arc length of the logarithmic spiral t -> exp(t Log lambda), t >= 0."""

    multiplier: complex
    log_value: complex
    length: float


def spiral_length(lam) -> SpiralData:
    """Length of the canonical spiral of a multiplier in the punctured disk.

    The curve exp(t Log lambda) has speed |Log lambda| exp(t Re Log lambda),
    so the total length from 1 to 0 is |Log lambda| / (-Re Log lambda) in
    closed form; for real lambda in (0, 1) this is the straight segment of
    length 1.
    """
    lam = complex(lam)
    if lam == 0 or abs(lam) >= 1.0:
        raise DomainError("spiral multipliers lie in the punctured open disk")
    log_value = cmath.log(lam)
    return SpiralData(lam, log_value, abs(log_value) / (-log_value.real))


# --------------------------------------------------------------------------
# Toeplitz symbols
# --------------------------------------------------------------------------


def decide_toeplitz(
    sym: FactoredSymbol,
    *,
    declared_infinite_blaschke: bool = False,
) -> EmbeddabilityReport:
    """Embeddability of the analytic Toeplitz operator of a factored symbol.

    The nontrivial factors are read once: a degree-0 Blaschke part is a
    phase, an atomless singular part is absent, and a unimodular constant
    outer part is multiplied into the phase.  A finite Blaschke part puts
    zeros in the disk, so no flow of Toeplitz symbols exists: the isometric
    dichotomy, the finite-codimension obstruction or the open question
    decides.  Otherwise the symbol is zero-free and embeds into the product
    of its factors' flows, led by a :class:`ConstantFlow` when the phase is
    not 1.  ``declared_infinite_blaschke`` marks the Blaschke part as
    infinite (no finite zero list can represent one); verdicts for that
    flag are report-only, with no constructed semigroup.
    """
    b, s, f = sym.blaschke, sym.singular, sym.outer
    phase = 1.0 + 0.0j
    if b is not None and b.degree == 0:
        b, phase = None, cmath.exp(1j * b.rotation)
    if s is not None and s.is_trivial:
        s = None
    if f is not None and f.is_constant and abs(abs(f.constant) - 1.0) <= UNIMODULAR_TOL:
        f, phase = None, phase * f.constant

    if declared_infinite_blaschke:
        if f is None:
            return EmbeddabilityReport(
                Verdict.EMBEDDABLE,
                "inner-toeplitz-dichotomy",
                notes=[
                    "declared infinite Blaschke part: inner, not a finite Blaschke product",
                    "analytic-toeplitz-semigroup: no (symbol has zeros in the disk)",
                    "existence only: no truncated construction for infinite Blaschke data",
                ],
            )
        return EmbeddabilityReport(
            Verdict.UNKNOWN,
            "blaschke-nonvanishing-open-question",
            notes=[
                "declared infinite Blaschke part times a non-vanishing, non-inner cofactor"
            ],
        )

    if b is not None:
        if f is None and s is None:
            return EmbeddabilityReport(
                Verdict.NOT_EMBEDDABLE,
                "inner-toeplitz-dichotomy",
                notes=[
                    "finite Blaschke product symbol",
                    f"image codimension equals the degree {b.degree}: finite and nonzero",
                ],
                details={"blaschke_degree": b.degree},
            )
        if f is None:
            return EmbeddabilityReport(
                Verdict.EMBEDDABLE,
                "inner-toeplitz-dichotomy",
                notes=[
                    "analytic-toeplitz-semigroup: no (symbol has zeros in the disk)",
                    "inner but not a finite Blaschke product",
                    "existence via the isometric dichotomy; no flow of Toeplitz symbols",
                ],
            )
        if s is None:
            return EmbeddabilityReport(
                Verdict.NOT_EMBEDDABLE,
                "finite-codimension-obstruction",
                notes=[
                    f"image codimension equals the Blaschke degree {b.degree}: "
                    "finite and nonzero"
                ],
                details={"blaschke_degree": b.degree},
            )
        return EmbeddabilityReport(
            Verdict.UNKNOWN,
            "blaschke-nonvanishing-open-question",
            notes=["finite Blaschke part times a non-vanishing, non-inner cofactor"],
        )

    if s is None and f is None:
        raise DegenerateSymbol("constant symbols have no embedding content")
    parts = [ConstantFlow(phase)] if abs(phase - 1.0) > UNIMODULAR_TOL else []
    parts += [SingularInnerFlow(s)] if s is not None else []
    parts += [OuterFlow(f)] if f is not None else []
    flow = parts[0] if len(parts) == 1 else ProductFlow(parts)
    if f is None:
        return EmbeddabilityReport(
            Verdict.EMBEDDABLE,
            "inner-toeplitz-dichotomy",
            semigroup=flow,
            notes=["analytic-toeplitz-semigroup: yes"],
        )
    if s is None:
        return EmbeddabilityReport(Verdict.EMBEDDABLE, "outer-symbol-flow", semigroup=flow)
    return EmbeddabilityReport(
        Verdict.EMBEDDABLE,
        "inner-outer-product-flow",
        semigroup=flow,
        notes=["zero-free symbol: product of the singular and outer flows"],
    )


def decide_polynomial_toeplitz(p, tol: float = DEFAULT_TOL) -> EmbeddabilityReport:
    """Embeddability of a polynomial Toeplitz operator: yes iff no zero
    lies strictly inside the disk.  Boundary-band zeros count as outside
    (they belong to the outer factor) but are flagged for caution; a band
    wider than the outer factor admits raises DomainError."""
    p = p if isinstance(p, Polynomial) else Polynomial(p)
    if p.degree < 1:
        raise DegenerateSymbol("polynomial symbols of degree at least 1 only")
    part = roots_in_disk(poly_roots(p), tol)
    details = {
        "interior_zeros": [v for v, _ in part.inside],
        "boundary_zeros": [v for v, _ in part.boundary],
    }
    if part.inside:
        return EmbeddabilityReport(
            Verdict.NOT_EMBEDDABLE,
            "polynomial-zero-criterion",
            notes=["zeros inside the disk give a finite nonzero image codimension"],
            details=details,
        )
    deep = [v for v, _ in part.boundary if abs(v) < 1.0 - _OUTER_MODULUS_SLACK]
    if deep:
        raise DomainError(
            f"boundary-band zeros {deep} (band ||z| - 1| <= {tol!r}) lie more than "
            f"{_OUTER_MODULUS_SLACK!r} inside the circle, where an outer factor cannot vanish"
        )
    outer = RationalOuter(
        constant=p.coeffs[-1],
        exterior_zeros=[v for v, m in part.boundary + part.outside for _ in range(m)],
    )
    notes = []
    if part.boundary:
        notes.append(
            "boundary-band zeros assigned to the outer factor; "
            "classification is numerically fragile there"
        )
    return EmbeddabilityReport(
        Verdict.EMBEDDABLE,
        "polynomial-zero-criterion",
        semigroup=OuterFlow(outer),
        notes=notes,
        details=details,
    )


# --------------------------------------------------------------------------
# composition symbols
# --------------------------------------------------------------------------


def _automorphism_report(alpha, multiplier) -> EmbeddabilityReport:
    theta = float(np.angle(multiplier))
    return EmbeddabilityReport(
        Verdict.EMBEDDABLE,
        "elliptic-automorphism-semiflow",
        semigroup=SpiralFlow.elliptic(alpha, theta),
        notes=["semigroup of composition operators"],
        details={"fixed_point": alpha, "multiplier": multiplier, "theta": theta},
    )


def _shift_embedding_report(phi, alpha, multiplier) -> EmbeddabilityReport:
    return EmbeddabilityReport(
        Verdict.EMBEDDABLE,
        "similar-isometry-shift-embedding",
        semigroup=WoldShiftFlow(phi, alpha),
        notes=["not a semigroup of composition operators", "symbol is not injective"],
        details={"fixed_point": alpha, "multiplier": multiplier},
    )


def decide_composition(phi, tol: float = DEFAULT_TOL) -> EmbeddabilityReport:
    """Embeddability of the composition operator of an inner symbol.

    A Mobius symbol must be a disk automorphism, and is decided by
    :func:`decide_lfm`, as is a degree-1 Blaschke product: every
    automorphism lies in a one-parameter automorphism group (Berkson-Porta,
    Michigan Math. J. 25, 1978), an elliptic one in the rotation flow about
    its fixed point.  Any other inner symbol is decided when it is similar
    to an isometry, that is when it has an interior fixed point: it embeds
    through the Wold/shift construction, which is never a semigroup of
    composition operators.  Without an interior fixed point it is out of
    the decided scope.  Blaschke products and singular inner functions
    (positive masses on the circle) are inner by construction; only a
    Mobius symbol is tested.
    """
    if isinstance(phi, MobiusMap):
        if not phi.is_disk_automorphism(tol=max(tol, _ON_CIRCLE)):
            raise NotInner("Mobius symbols must be disk automorphisms to be inner")
        return decide_lfm(phi, tol)

    if isinstance(phi, BlaschkeProduct):
        if phi.degree == 0:
            raise DegenerateSymbol("constant symbols have no embedding content")
        if phi.degree == 1:
            return decide_composition(MobiusMap(*_mobius_of_degree_one(phi)), tol)
        fps = fixed_points_in_disk(phi)
        if not fps:
            return EmbeddabilityReport(
                Verdict.OUT_OF_SCOPE,
                "boundary-fixed-point-unscoped",
                notes=["no interior fixed point: not similar to an isometry"],
            )
        return _shift_embedding_report(phi, *fps[0])

    if isinstance(phi, SingularInner):
        alpha = interior_fixed_point(phi, phi.derivative)
        if alpha is None:
            return EmbeddabilityReport(
                Verdict.OUT_OF_SCOPE,
                "boundary-fixed-point-unscoped",
                notes=["no interior fixed point found: not similar to an isometry"],
            )
        return _shift_embedding_report(phi, alpha, complex(np.asarray(phi.derivative(alpha))))

    raise TypeError(
        "composition verdicts cover Blaschke products, Mobius automorphisms "
        "and singular inner symbols"
    )


def _mobius_of_degree_one(b: BlaschkeProduct):
    """Coefficients of the degree-1 Blaschke product as a Mobius map."""
    phase = cmath.exp(1j * b.rotation)
    if b.origin_order == 1:
        return phase, 0.0, 0.0, 1.0
    (alpha, _), = b.zeros
    return -phase, phase * alpha, -np.conj(alpha), 1.0


# --------------------------------------------------------------------------
# linear fractional symbols (semiflow-level decision)
# --------------------------------------------------------------------------


def decide_lfm(m: MobiusMap, tol: float = DEFAULT_TOL) -> EmbeddabilityReport:
    """Embeddability of a linear fractional self-map into a semiflow of
    analytic self-maps.

    Automorphisms always embed.  An attractive elliptic map (interior
    attracting fixed point alpha, repulsive fixed point beta outside the
    open disk) embeds iff |conj(alpha) - 1/beta| * l <= |phi'(alpha)| *
    |1 - alpha/beta| with l the canonical spiral length of the multiplier.
    Maps with a boundary attracting fixed point are out of decision scope.
    """
    fp = m.fixed_point_polynomial()
    if fp.is_zero:
        return EmbeddabilityReport(
            Verdict.EMBEDDABLE,
            "automorphism-semiflow",
            semigroup=SpiralFlow.elliptic(0.0, 0.0),
            notes=["identity map"],
        )

    finite_fixed = [v for v, _ in poly_roots(fp).roots] if fp.degree >= 1 else []
    interior = [v for v in finite_fixed if abs(v) < 1.0 - tol]

    if m.is_disk_automorphism(tol=max(tol, _ON_CIRCLE)):
        if interior:
            alpha = interior[0]
            return _automorphism_report(alpha, complex(m.derivative(alpha)))
        return EmbeddabilityReport(
            Verdict.EMBEDDABLE,
            "automorphism-semiflow",
            notes=[
                "hyperbolic or parabolic automorphism: semiflow exists, "
                "construction referenced to the automorphism-flow literature"
            ],
        )

    if not interior:
        return EmbeddabilityReport(
            Verdict.OUT_OF_SCOPE,
            "boundary-fixed-point-unscoped",
            notes=["attracting fixed point on the boundary: criterion not restated here"],
        )
    if len(interior) > 1:
        return EmbeddabilityReport(
            Verdict.OUT_OF_SCOPE,
            "boundary-fixed-point-unscoped",
            notes=["two interior fixed points: numerically inconsistent self-map"],
        )
    alpha = interior[0]
    multiplier = complex(m.derivative(alpha))
    others = [v for v in finite_fixed if abs(v - alpha) > _SAME_FIXED_POINT]
    beta = others[0] if others else None  # None: the other fixed point is at infinity

    spiral = spiral_length(multiplier)
    inv_beta = 0.0 if beta is None else 1.0 / beta
    lhs = abs(np.conj(alpha) - inv_beta) * spiral.length
    rhs = abs(multiplier) * abs(1.0 - alpha * inv_beta)
    details = {
        "alpha": alpha,
        "beta": beta if beta is not None else math.inf,
        "multiplier": multiplier,
        "spiral_length": spiral.length,
        "lhs": lhs,
        "rhs": rhs,
    }
    if lhs <= rhs + tol:
        # The Koenigs map (z - alpha)/(1 - z/beta) takes the flow to the
        # spiral z -> exp(t Log lambda) z; for the scaling z -> lambda z
        # (alpha = 0, beta at infinity) it is the identity, and none is passed.
        koenigs = None
        if alpha != 0 or beta is not None:
            koenigs = MobiusMap(1.0, -alpha, 0.0 if beta is None else -1.0 / complex(beta), 1.0)
        return EmbeddabilityReport(
            Verdict.EMBEDDABLE,
            "attractive-elliptic-spiral-condition",
            semigroup=SpiralFlow(koenigs, spiral.log_value, "linear-fractional-spiral-flow"),
            notes=["spiral condition holds"],
            details=details,
        )
    return EmbeddabilityReport(
        Verdict.NOT_EMBEDDABLE,
        "attractive-elliptic-spiral-condition",
        notes=["spiral condition fails: not embeddable into a semiflow"],
        details=details,
    )
